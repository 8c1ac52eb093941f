import numpy as np
import pytest

from coprox import cocycle, demos, thermo, typicality
from coprox.errors import NotConstant
from coprox.thermo import (
    cylinder_weights,
    gibbs_diagnostic,
    phi_s,
    pressure,
    theorem_c_experiment,
    top_exponent_differences,
)
from conftest import random_invertible


def test_phi_s_examples():
    g = np.diag([4.0, 2.0])
    assert phi_s(g, 0.0) == pytest.approx(1.0)
    assert phi_s(g, 1.5) == pytest.approx(4.0 * np.sqrt(2.0))
    assert phi_s(g, 4.0) == pytest.approx(64.0)  # s > d branch: |det|^{s/d}
    assert phi_s(g, 1.0) == pytest.approx(4.0)


def test_phi_s_branch_agreement_at_d():
    rng = np.random.default_rng(0)
    for d in (2, 3):
        g = random_invertible(rng, d)
        alpha = np.linalg.svd(g, compute_uv=False)
        assert phi_s(g, float(d)) == pytest.approx(np.prod(alpha), rel=1e-10)
        assert phi_s(g, float(d)) == pytest.approx(
            abs(np.linalg.det(g)), rel=1e-10)


def test_phi_s_submultiplicative():
    rng = np.random.default_rng(1)
    svals = [0.0, 0.5, 1.0, 1.5, 2.0, 3.0]
    for _ in range(500):
        g = random_invertible(rng, 2)
        h = random_invertible(rng, 2)
        for s in svals:
            assert phi_s(g @ h, s) <= phi_s(g, s) * phi_s(h, s) * (1 + 1e-10)


def test_pressure_s0_golden_oracle():
    A = demos.golden_typical_2x2()
    est = pressure(A, 0.0, list(range(2, 21)))
    oracle = np.log((1 + np.sqrt(5)) / 2)
    assert est.oracle == pytest.approx(oracle, abs=1e-12)
    assert est.value == pytest.approx(oracle, abs=1e-5)


def test_pressure_d1_weighted_oracle():
    A = demos.golden_scalar_2_3()
    est = pressure(A, 1.0, list(range(2, 19)))
    T = A.base.matrix().astype(float)
    oracle = float(np.log(np.max(np.abs(np.linalg.eigvals(np.diag([2.0, 3.0]) @ T)))))
    assert est.oracle == pytest.approx(oracle, abs=1e-12)
    assert est.value == pytest.approx(oracle, abs=1e-4)


def test_pressure_constant_cocycle_closed_form():
    A = demos.constant_diag_4_1()
    for s in (0.5, 1.0, 1.5):
        est = pressure(A, s, list(range(2, 9)))
        expect = np.log(2.0) + np.log(phi_s(np.diag([4.0, 1.0]), s))
        assert est.oracle == pytest.approx(expect, abs=1e-12)
        assert est.value == pytest.approx(expect, abs=1e-10)


def test_pressure_scalar_covariance(typical2):
    B = cocycle.scaled_cocycle(typical2, 0.4)
    pa = pressure(typical2, 1.0, list(range(2, 9)))
    pb = pressure(B, 1.0, list(range(2, 9)))
    assert pb.value - pa.value == pytest.approx(0.4, abs=1e-10)


def _local_holonomy_log_bound(A, s):
    """Exact bound on |log phi^s(H)| over all local holonomies of a
    radius-<=1 cocycle, by enumerating window pairs."""
    if A.radius == 0:
        return 0.0
    worst = 0.0
    for w1 in A.table:
        for w2 in A.table:
            if w1[1:] == w2[1:]:  # same present and future: stable pair
                h = np.linalg.inv(A.table[w2]) @ A.table[w1]
                worst = max(worst, abs(float(np.log(phi_s(h, s)))),
                            abs(float(np.log(phi_s(np.linalg.inv(h), s)))))
    return worst


def test_pressure_subadditive_up_to_distortion(radius1, typical2):
    s = 1.0
    for A in (typical2, radius1):
        ns = list(range(1, 9))
        est = pressure(A, s, ns)
        S = {n: n * p for n, p in zip(est.n_range, est.p_n)}
        D = 4 * _local_holonomy_log_bound(A, s)
        for n in ns:
            for m in ns:
                if n + m in S:
                    assert S[n + m] <= S[n] + S[m] + D + 1e-9


def test_gibbs_constant_cocycle_spread_one():
    A = demos.constant_diag_4_1()
    est = pressure(A, 1.0, list(range(2, 7)))
    diag = gibbs_diagnostic(A, 1.0, 4, est.value, depth=4)
    assert diag.spread == pytest.approx(1.0, abs=1e-10)


def test_gibbs_d1_bounded_and_stable():
    A = demos.golden_scalar_2_3()
    est = pressure(A, 1.0, list(range(2, 15)))
    spreads = [gibbs_diagnostic(A, 1.0, n, est.value, depth=6).spread
               for n in (3, 5, 7)]
    assert all(s < 4.0 for s in spreads)
    assert abs(spreads[-1] - spreads[-2]) < 0.5


def test_gibbs_demo_bounded(typical2):
    est = pressure(typical2, 1.0, list(range(2, 13)))
    spreads = [gibbs_diagnostic(typical2, 1.0, n, est.value, depth=5).spread
               for n in (4, 6, 8)]
    assert all(np.isfinite(s) and s < 50.0 for s in spreads)


def test_cylinder_weights_normalized(typical2):
    cw = cylinder_weights(typical2, 1.0, 5)
    v = cw.normalized()
    assert np.all(v > 0)
    assert np.sum(v) == pytest.approx(1.0)


def test_theorem_c_scalar_multiple(typical2):
    B = cocycle.scaled_cocycle(typical2, 0.3)
    p, z, _ = typicality.find_typical_pair(typical2)
    cert = typicality.family_certificate([typical2, B], p, z)
    rep = theorem_c_experiment(typical2, B, cert, 5, 1e-9,
                               n_range=(3, 4, 5, 6, 7, 8), tv_levels=(2, 4, 6))
    assert rep.constant_c == pytest.approx(-0.3, abs=1e-12)
    assert rep.max_deviation < 1e-12
    assert (rep.pressure_b.value - rep.pressure_a.value) == pytest.approx(
        0.3, abs=1e-4)
    for _, tv in rep.tv_by_n:
        assert tv < 1e-12
    assert all(o["proximal_both"] for o in rep.paired_orbits)
    # the common shadowing orbits realize the same top-exponent offset
    for o in rep.paired_orbits:
        assert o["lambda1_a"] - o["lambda1_b"] == pytest.approx(-0.3, abs=1e-10)


def test_theorem_c_identical_cocycles(typical2):
    p, z, _ = typicality.find_typical_pair(typical2)
    cert = typicality.family_certificate([typical2, typical2], p, z)
    rep = theorem_c_experiment(typical2, typical2, cert, 4, 1e-12,
                               n_range=(3, 4, 5, 6), tv_levels=(2, 4),
                               sample_words=2)
    assert rep.constant_c == pytest.approx(0.0, abs=1e-14)
    assert rep.pressure_a.value == rep.pressure_b.value
    for _, tv in rep.tv_by_n:
        assert tv == 0.0


def test_theorem_c_perturbed_not_constant(typical2):
    table = {w: m.copy() for w, m in typical2.table.items()}
    table[(1,)] = table[(1,)] + 1e-2 * np.array([[1.0, 0.0], [0.0, -1.0]])
    B = cocycle.WindowCocycle(typical2.base, 2, 0, table)
    p, z, _ = typicality.find_typical_pair(typical2)
    cert = typicality.family_certificate([typical2, B], p, z)
    with pytest.raises(NotConstant) as info:
        theorem_c_experiment(typical2, B, cert, 5, 1e-9)
    lo, hi = info.value.witness
    assert lo[1] != hi[1]
    diffs = dict(top_exponent_differences(typical2, B, 5))
    assert diffs[lo[0]] == pytest.approx(lo[1])
    assert diffs[hi[0]] == pytest.approx(hi[1])


def test_pressure_rejects_repeated_or_nonpositive_lengths(typical2):
    with pytest.raises(ValueError, match="repeats a length"):
        pressure(typical2, 1.5, (4, 4, 6))
    with pytest.raises(ValueError, match="lengths must be >= 1"):
        pressure(typical2, 1.5, (0, 2))
    with pytest.raises(ValueError, match="s must be >= 0"):
        pressure(typical2, -1.0, (2, 3))


def test_log_phi_s_rows_match_scalar():
    rng = np.random.default_rng(4)
    logs = np.sort(rng.normal(size=(50, 4)), axis=1)[:, ::-1]
    for s in (0.0, 0.5, 1.0, 2.3, 4.0, 5.5):
        rows = thermo.log_phi_s(logs, s)
        assert np.array_equal(rows, [thermo.log_phi_s(r, s) for r in logs])
