import numpy as np
import pytest

from coprox import cocycle, demos, sft, typicality
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


DIM6_DIAGONAL = np.diag([6.3237, 2.7032, 1.5734, 1.0544, 0.6059, 0.1711])  # condition 37


@pytest.fixture(scope="session")
def dim6():
    """Full 2-shift, 6x6: a diagonal and a random orthogonal matrix."""
    q, r = np.linalg.qr(np.random.default_rng(0).standard_normal((6, 6)))
    return WindowCocycle(sft.full_shift(2), 6, 0,
                         {(0,): DIM6_DIAGONAL, (1,): q * np.sign(np.diag(r))})


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


def swept(A, n_list, base_symbol):
    """{n: rows} of a ``sweep_log_singular`` run: each length's blocks
    joined in walk order, its rows lexicographic."""
    blocks = {}
    for n, rows in cocycle.sweep_log_singular(A, n_list, base_symbol):
        blocks.setdefault(n, []).append(rows)
    return {n: np.concatenate(b) for n, b in blocks.items()}


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


def ref_eig_top(m):
    """The kernel's top eigenvalue modulus rule (``cocycle._top_eig``), one
    matrix at a time on numpy scalars: closed forms on 2x2 and 3x3 matrices
    whose first-order error bound stays within ``cocycle.ROOT_ULPS`` ulps
    of the top, else the largest ``np.linalg.eigvals`` modulus."""
    eps, r = np.finfo(float).eps, len(m)
    with np.errstate(all="ignore"):
        if r == 2:
            (a, b), (c, d) = m
            half, dev = (a + d) / 2, (a - d) / 2
            disc = dev * dev + b * c
            root = np.sqrt(abs(disc))
            if disc >= 0:
                top, own = abs(half) + root, abs(half)
            else:
                top = np.sqrt(abs(a * d - b * c))
                own = (abs(a * d) + abs(b * c)) / (2 * top)
            err = eps * ((dev * dev + abs(b * c)) / (2 * root) + own)
        elif r == 3:
            top, err = _ref_cubic_top(m, eps)
        if r <= 3 and err <= cocycle.ROOT_ULPS * eps * top:
            return top
    return np.max(np.abs(np.linalg.eigvals(m)))


def _ref_cubic_top(m, eps):
    """The top modulus of a 3x3 matrix from its characteristic cubic, with
    the first-order error bound ``cocycle._top_eig`` documents."""
    (a, b, c), (d, e, f), (g, h, i) = m
    c2 = a + e + i
    c1 = (a * e - b * d) + (a * i - c * g) + (e * i - f * h)
    c0 = a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    s2 = abs(a) + abs(e) + abs(i)
    s1 = (abs(a * e) + abs(b * d) + abs(a * i) + abs(c * g) + abs(e * i) + abs(f * h))
    s0 = (abs(a) * (abs(e * i) + abs(f * h)) + abs(b) * (abs(d * i) + abs(f * g))
          + abs(c) * (abs(d * h) + abs(e * g)))
    s = c2 / 3
    p, q = c1 - 3 * s * s, s * (c1 - 2 * s * s) - c0
    disc = (q / 2) * (q / 2) + (p / 3) * (p / 3) * (p / 3)
    if disc > 0:  # one real root: stable Cardano
        u = np.cbrt(-q / 2 - np.copysign(np.sqrt(disc), q))
        lam = u - p / (3 * u) + s
    else:  # three: the larger-modulus extreme of the trigonometric form
        r = np.sqrt(-p / 3)
        phi = np.arccos(np.maximum(np.minimum(-q / (2 * r * r * r), 1.0), -1.0)) / 3
        hi, lo = 2 * r * np.cos(phi) + s, 2 * r * np.cos(phi + 2 * np.pi / 3) + s
        lam = hi if abs(hi) >= abs(lo) else lo
    slope = (3 * lam - 2 * c2) * lam + c1
    step = (((lam - c2) * lam + c1) * lam - c0) / slope
    lam = lam - step
    mod = abs(lam)
    err = (eps * (((mod + s2) * mod + s1) * mod + s0) + step * step * abs(3 * lam - c2)) / abs(slope)
    rest = c2 - lam
    prod = c1 - lam * rest
    split = rest * rest / 4 - prod
    root = np.sqrt(abs(split))
    pair = np.sqrt(abs(prod)) if split < 0 else abs(rest) / 2 + root
    prod_err = eps * (s1 + mod * (s2 + abs(rest))) + err * (mod + abs(rest))
    split_err = prod_err + abs(rest) / 2 * (eps * s2 + err)
    pair_err = prod_err / (2 * pair) + split_err / (2 * root) + (eps * s2 + err) / 2
    return np.maximum(mod, pair), err + (pair_err if pair + pair_err >= mod else 0.0)


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
