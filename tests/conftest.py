import numpy as np
import pytest

from coprox import demos, sft, typicality
from coprox.cocycle import WindowCocycle


@pytest.fixture(scope="session")
def full2():
    return sft.full_shift(2)


@pytest.fixture(scope="session")
def golden():
    return sft.golden_mean_shift()


@pytest.fixture(scope="session")
def typical2():
    return demos.typical_2x2()


@pytest.fixture(scope="session")
def typical3():
    return demos.typical_3x3()


@pytest.fixture(scope="session")
def radius1():
    return demos.radius1_2x2()


@pytest.fixture(scope="session")
def radius2():
    """Full 2-shift, radius 2: 5-symbol windows of rotation, scale and shear."""
    base = sft.full_shift(2)
    table = {}
    for w in sft.enumerate_words(base, 5):
        code = sum(c * 2**i for i, c in enumerate(w))
        theta = 0.07 * code
        scale = 1.2 + 0.15 * w[2]
        shear = np.array([[1.0, 0.05 * (code % 7 - 3)], [0.0, 1.0]])
        table[w] = demos.rotation2(theta) @ np.diag([scale, 1 / scale]) @ shear
    return WindowCocycle(base, 2, 2, table)


@pytest.fixture(scope="session")
def typical2_cert(typical2):
    found = typicality.find_typical_pair(typical2)
    assert found is not None
    return found  # (p, z, certificate)


@pytest.fixture(scope="session")
def typical3_cert(typical3):
    found = typicality.find_typical_pair(typical3)
    assert found is not None
    return found


@pytest.fixture(scope="session")
def radius1_cert(radius1):
    found = typicality.find_typical_pair(radius1)
    assert found is not None
    return found


def random_invertible(rng, d, spread=2.0):
    """Random well-scaled invertible matrix (resampled until comfortably
    nonsingular)."""
    while True:
        g = rng.normal(size=(d, d)) * spread
        if abs(np.linalg.det(g)) > 1e-3:
            return g
