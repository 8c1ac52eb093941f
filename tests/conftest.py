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
def tri_base():
    """Three symbols, 0 and 2 fixed; 2 -> 0 is forbidden, so bridging 2
    back to 0 needs an intermediate symbol."""
    return sft.Sft.from_matrix([[1, 1, 0], [1, 0, 1], [0, 1, 1]])


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
def dim4():
    """Full 2-shift, 4x4: a diagonal and a rotation."""
    base = sft.full_shift(2)
    rng = np.random.default_rng(5)
    q_mat, _ = np.linalg.qr(rng.normal(size=(4, 4)))
    if np.linalg.det(q_mat) < 0:
        q_mat[:, 0] = -q_mat[:, 0]
    # log-moduli with distinct subset sums, so every exterior power pinches
    return WindowCocycle(base, 4, 0, {(0,): np.diag([16.0, 7.0, 3.0, 1.0]), (1,): q_mat})


def _tri_radius1(base):
    """Radius 1 over the 3-symbol base, where bridging 2 back to the fixed
    symbol 0 needs an intermediate symbol, so the pads are nontrivial."""
    rng = np.random.default_rng(11)
    table = {w: rng.normal(size=(3, 3)) + 3 * np.eye(3)
             for w in sft.enumerate_words(base, 3)}
    return WindowCocycle(base, 3, 1, table)


def _skew_radius1():
    """Radius 1 over a 3-symbol base whose symbols have different numbers
    of successors and of predecessors (0 -> 0, 1; 1 -> 0, 2; 2 -> 0)."""
    base = sft.Sft.from_matrix([[1, 1, 0], [1, 0, 1], [1, 0, 0]])
    rng = np.random.default_rng(12)
    table = {w: rng.normal(size=(2, 2)) + 2 * np.eye(2)
             for w in sft.enumerate_words(base, 3)}
    return WindowCocycle(base, 2, 1, table)


@pytest.fixture(scope="session")
def cocycles(typical3, radius1, radius2, tri_base):
    """Radii 0-2, full and golden-mean bases, a base with bridged pads and
    one with an asymmetric adjacency, all with the fixed symbol 0."""
    return {
        "full r0": typical3,
        "golden r0": demos.golden_typical_3x3(),
        "full r1": radius1,
        "full r2": radius2,
        "tri r1": _tri_radius1(tri_base),
        "skew r1": _skew_radius1(),
    }


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


def ref_product_scaled(A, x, n, start=None, first=0):
    """(M, s) with the product along n >= 0 steps of x's orbit equal to
    2^s M: one matmul per step, each rescaled by the power of two at its
    peak entry (so the peak lies in [0.5, 1)), with s the integer sum of
    those exponents, as a loop.  The kernel's folds must give these bytes.
    Given start = (M0, s0), the product over steps 0..first-1 as 2^s0 M0,
    only the later steps are applied to it."""
    out, exponent = (np.eye(A.dim), 0) if start is None else start
    for j in range(first, n):
        out = A.at(x, j) @ out
        e = int(np.frexp(np.max(np.abs(out)))[1])
        out = np.ldexp(out, -e)
        exponent += e
    return out, exponent


def random_invertible(rng, d, spread=2.0):
    """Random well-scaled invertible matrix (resampled until comfortably
    nonsingular)."""
    while True:
        g = rng.normal(size=(d, d)) * spread
        if abs(np.linalg.det(g)) > 1e-3:
            return g


def cyclic_min_rotation(word):
    return min(tuple(word[i:] + word[:i]) for i in range(len(word)))


def primitive_root(word):
    n = len(word)
    for r in range(1, n + 1):
        if n % r == 0 and word == word[:r] * (n // r):
            return word[:r]
    return word


def cycle_array(s, words):
    """The rows of a word array that are admissible cycles (an allowed wrap
    pair; trace(adjacency^n) of the words of length n), in order."""
    return words[s.matrix()[words[:, -1], words[:, 0]] == 1]


def is_prenecklace(word):
    """Reference test for a prenecklace, a prefix of a necklace: every
    suffix is at least the prefix of the same length."""
    return all(word[i:] >= word[:len(word) - i] for i in range(1, len(word)))


def orbit_key(w):
    """Reference key of a periodic orbit (a ``sft.PeriodicWord``): the least
    rotation of its primitive root, one rotation compare at a time."""
    return cyclic_min_rotation(primitive_root(w.symbols))
