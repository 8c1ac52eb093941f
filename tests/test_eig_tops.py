"""Closed-form top eigenvalue moduli (``cocycle._top_eig``): accuracy
against 50-digit eigenvalues, independence of the batch, and the
spectrum-level results that read them."""

import mpmath
import numpy as np
import pytest

from coprox import analysis, cocycle, demos

EPS = np.finfo(float).eps
NAMES_2X2 = ["typical2x2", "golden2x2", "radius1", "rotation", "dominated2x2",
             "planted_rotation"]
NAMES_3X3 = ["typical3x3", "golden3x3"]


def _stack(mats):
    """Matrices as the kernel's column-major (r, r, rows) stack."""
    return np.ascontiguousarray(np.array(mats, dtype=float).transpose(1, 2, 0))


def _peaked(m):
    """m divided by the power of two at its peak entry, as the kernel
    hands its products to the tops."""
    return np.ldexp(m, -np.frexp(np.abs(m).max())[1])


def _mp_top(m):
    with mpmath.workdps(50):
        return max(abs(v) for v in mpmath.eig(mpmath.matrix(m.tolist()), left=False,
                                              right=False))


def _assert_tops_accurate(stack):
    """Each closed-form top within max(64 eps, twice eigvals' own error) of
    the 50-digit top; a row that matches eigvals' bytes meets that already."""
    tops = cocycle._top_eig(stack)
    lapack = np.max(np.abs(np.linalg.eigvals(stack.transpose(2, 0, 1))), axis=1)
    worst = []
    for j in np.nonzero(tops != lapack)[0]:
        exact = _mp_top(stack[:, :, j])
        mine = float(abs(mpmath.mpf(float(tops[j])) / exact - 1))
        theirs = float(abs(mpmath.mpf(float(lapack[j])) / exact - 1))
        if mine > max(64 * EPS, 2 * theirs):
            worst.append((j, mine / EPS, theirs / EPS))
    assert not worst, worst[:5]


def _spectrum_stacks(monkeypatch, A, max_period):
    """The closing products ``periodic_spectrum`` hands to ``_top_eig``."""
    seen, top_eig = [], cocycle._top_eig

    def recorded(prods):
        seen.append(prods.copy())
        return top_eig(prods)

    monkeypatch.setattr(cocycle, "_top_eig", recorded)
    analysis.periodic_spectrum(A, max_period)
    monkeypatch.setattr(cocycle, "_top_eig", top_eig)
    return seen


@pytest.mark.parametrize("name", NAMES_2X2 + NAMES_3X3)
def test_spectrum_tops_match_50_digit_eig(monkeypatch, name):
    A = demos.DEMOS[name]()
    stacks = _spectrum_stacks(monkeypatch, A, 12)
    assert sum(s.shape[2] for s in stacks) == (A.dim - 1) * len(
        analysis.periodic_spectrum(A, 12))
    for stack in stacks:
        _assert_tops_accurate(stack)


def _mp_cycle_row(A, cycle):
    """Per-step log eigenvalue moduli, at 50 digits, of the product once
    around the cycle's periodic point from coordinate 0; the spectrum's
    product starts at coordinate k, a conjugate with the same eigenvalues."""
    n, k = len(cycle), A.radius
    with mpmath.workdps(50):
        product = mpmath.eye(A.dim)
        for j in range(n):
            window = tuple(cycle[(j + o) % n] for o in range(-k, k + 1))
            product = mpmath.matrix(A.table[window].tolist()) * product
        moduli = sorted((abs(v) for v in mpmath.eig(product, left=False, right=False)),
                        reverse=True)
        return [mpmath.log(m) / n for m in moduli]


def _plain_cycle_row(A, cycle):
    """The same row from a float64 matmul loop and ``np.linalg.eigvals``."""
    n, k = len(cycle), A.radius
    product = np.eye(A.dim)
    for j in range(n):
        product = A.table[tuple(cycle[(j + o) % n] for o in range(-k, k + 1))] @ product
    return np.log(np.sort(np.abs(np.linalg.eigvals(product)))[::-1]) / n


@pytest.mark.parametrize("name", ["full r1", "full r2", "tri r1", "skew r1"])
def test_radius_k_spectrum_rows_match_50_digit_eig(cocycles, name):
    # each exponent within max(64 eps, twice the plain float64 row's error)
    # of its 50-digit value, the rule of the tops above
    A = cocycles[name]
    worst = []
    for q, lam in analysis.periodic_spectrum(A, 8):
        exact = _mp_cycle_row(A, q.symbols)
        for mine, theirs, value in zip(lam, _plain_cycle_row(A, q.symbols), exact):
            mine, theirs = (float(abs(mpmath.mpf(float(x)) - value)) for x in (mine, theirs))
            if mine > max(64 * EPS, 2 * theirs):
                worst.append((q.symbols, mine / EPS, theirs / EPS))
    assert not worst, worst[:5]


@pytest.mark.parametrize("name", NAMES_2X2 + NAMES_3X3)
def test_random_product_tops_match_50_digit_eig(name):
    A = demos.DEMOS[name]()
    rng = np.random.default_rng(len(name))
    for mats, every in zip(A._rungs, A._cadences):
        for length in (4, 8, 12, 16):
            idx = rng.integers(0, len(mats), size=(25, length))
            prods, _ = cocycle._extend_products(mats, every, idx,
                                                *cocycle._start(mats.shape[1], 25))
            _assert_tops_accurate(prods)


def _rotation2(theta):
    return np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])


def _conjugated(block, rng):
    v = rng.standard_normal((len(block), len(block)))
    return _peaked(v @ block @ np.linalg.inv(v))


def _edge_rows(rng):
    """Rows where a closed form is hardest, with the product sizes the
    kernel hands it: {name: list of matrices}."""
    rows = {"pair_near_real_modulus": [], "near_double_top": [], "disc_near_zero": [],
            "rotations_2x2": [], "rotations_3x3": []}
    # a complex pair within 1e-10 of the real root's modulus, either side
    for lam in (1.0, -1.0):
        for rel in (1e-10, -1e-10):
            for theta in (0.3, 1.0, 2.5):
                block = np.zeros((3, 3))
                block[0, 0], block[1:, 1:] = lam, (1 + rel) * _rotation2(theta)
                rows["pair_near_real_modulus"] += [_conjugated(block, rng) for _ in range(3)]
    # three real roots whose top two nearly coincide, in either sign
    for sign in (1.0, -1.0):
        for delta in (1e-3, 1e-6, 1e-9, 1e-12, 1e-15):
            for third in (0.3, -0.5):
                rows["near_double_top"] += [
                    _conjugated(np.diag([1.0, sign * (1 - delta), third]), rng)
                    for _ in range(3)]
    # 2x2 with disc = ((a - d) / 2)^2 + bc about 0, both signs
    for eps in (1e-6, 1e-10, 1e-14, 1e-17, -1e-17, -1e-14, -1e-10, -1e-6):
        x = rng.uniform(0.2, 1.0)
        jordan = np.array([[x, 1.0], [eps, x]])
        rows["disc_near_zero"] += [_peaked(jordan), _conjugated(jordan, rng),
                                   _conjugated(np.diag([x, x * (1 + eps)]), rng)]
    # rotation products: every eigenvalue on the unit circle
    for _ in range(20):
        m2, m3 = np.eye(2), np.eye(3)
        for theta in rng.uniform(0, 2 * np.pi, 6):
            m2 = _rotation2(theta) @ m2
            axes = sorted(rng.choice(3, 2, replace=False))
            m3 = demos.rotation3((int(axes[0]), int(axes[1])), theta) @ m3
        rows["rotations_2x2"].append(_peaked(m2))
        rows["rotations_3x3"].append(_peaked(m3))
    return rows


@pytest.mark.parametrize("kind", ["pair_near_real_modulus", "near_double_top",
                                  "disc_near_zero", "rotations_2x2", "rotations_3x3"])
def test_edge_row_tops_match_50_digit_eig(kind):
    _assert_tops_accurate(_stack(_edge_rows(np.random.default_rng(22))[kind]))


def test_larger_rungs_take_eigvals_bytes():
    rng = np.random.default_rng(4)
    stack = _stack([_peaked(rng.standard_normal((4, 4))) for _ in range(64)])
    lapack = np.max(np.abs(np.linalg.eigvals(stack.transpose(2, 0, 1))), axis=1)
    assert np.array_equal(cocycle._top_eig(stack), lapack)


@pytest.mark.parametrize("r", [2, 3])
def test_a_row_top_does_not_depend_on_its_batch(r):
    # random rows, with the edge rows (fallbacks included) spread among them
    rng = np.random.default_rng(r)
    edge = [m for rows in _edge_rows(rng).values() for m in rows if len(m) == r]
    mats = [_peaked(rng.uniform(-1, 1, (r, r))) for _ in range(4096 - len(edge))]
    for k, m in enumerate(edge):
        mats.insert(k * (4096 // len(edge)), m)
    stack = _stack(mats)
    assert stack.shape[2] == 4096
    batch = cocycle._top_eig(stack)
    alone = [cocycle._top_eig(np.ascontiguousarray(stack[:, :, j:j + 1]))[0]
             for j in range(4096)]
    assert np.array_equal(batch, alone)


def test_spectrum_past_the_row_cap_equals_cycle_rows():
    # period 16 has 8,800 orbits, so the walk flushes its closed rows to the
    # tops more than once (every ROW_CAP rows)
    A = demos.typical_3x3()
    spectrum = analysis.periodic_spectrum(A, 16)
    assert len(spectrum) == 8800 > 2 * cocycle.ROW_CAP
    rng = np.random.default_rng(16)
    by_period = {}
    for k in rng.choice(len(spectrum), size=300, replace=False):
        q, lam = spectrum[k]
        by_period.setdefault(q.period, []).append((q.symbols, lam))
    assert max(by_period) == 16
    for n, orbits in by_period.items():
        rows = cocycle.cycle_chi_rows(A, np.array([w for w, _ in orbits]))
        assert np.array_equal(rows / n, np.array([lam for _, lam in orbits]))


@pytest.mark.parametrize("name, index, verdict, gap", [
    ("rotation", 1, False, None),
    ("planted_rotation", 1, False, None),
    ("dominated2x2", 1, True, 1.7627471740390859),
    ("golden3x3", 1, False, 0.4028393757406876),
    ("golden3x3", 2, False, None),
])
def test_theorem_b_verdicts_keep_under_closed_form_tops(name, index, verdict, gap):
    # the verdicts and gaps eigvals tops gave; equal moduli (gap None) leave
    # gaps at the rounding level, below GAP_FLOOR
    rep = analysis.theorem_b_check(demos.DEMOS[name](), None, index, 8, list(range(2, 11)))
    assert rep.verdict is verdict
    if gap is None:
        assert abs(rep.periodic_gap) < analysis.GAP_FLOOR
    else:
        assert rep.periodic_gap == pytest.approx(gap, rel=1e-13)
