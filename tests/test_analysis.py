import numpy as np
import pytest

from coprox import analysis, cocycle, demos, sft
from coprox.analysis import (
    gap_profile,
    markov_sample,
    periodic_lyapunov,
    periodic_spectrum,
    pointwise_estimate,
    theorem_b_check,
    theorem_d_check,
)
from coprox.sft import make_periodic


def test_periodic_lyapunov_constant():
    base = sft.full_shift(2)
    g = np.diag([2.0, 1.0])
    A = cocycle.WindowCocycle(base, 2, 0, {(0,): g, (1,): g})
    for word in [(0,), (0, 1), (1, 1, 0)]:
        lam = periodic_lyapunov(A, make_periodic(base, word))
        assert np.allclose(lam, [np.log(2.0), 0.0], atol=1e-12)


def test_periodic_lyapunov_scalar():
    A = demos.scalar_2_3()
    lam = periodic_lyapunov(A, make_periodic(A.base, (0, 1)))
    assert lam[0] == pytest.approx(0.5 * np.log(6.0))


def test_periodic_lyapunov_demo(typical2):
    lam = periodic_lyapunov(typical2, make_periodic(typical2.base, (0,)))
    assert np.allclose(lam, [np.log(2.0), -np.log(2.0)])


def test_cyclic_invariance_and_power(typical2):
    base = typical2.base
    q1 = make_periodic(base, (0, 1, 1))
    q2 = make_periodic(base, (1, 1, 0))
    assert np.allclose(periodic_lyapunov(typical2, q1),
                       periodic_lyapunov(typical2, q2), atol=1e-12)
    q_twice = make_periodic(base, (0, 1, 1, 0, 1, 1))
    assert np.allclose(periodic_lyapunov(typical2, q1),
                       periodic_lyapunov(typical2, q_twice), atol=1e-12)


def test_exponent_sum_is_determinant_rate(typical3):
    base = typical3.base
    for word in [(0,), (0, 1), (1, 1, 0), (0, 1, 0, 1, 1)]:
        q = make_periodic(base, word)
        lam = periodic_lyapunov(typical3, q)
        assert np.all(np.diff(lam) <= 1e-12)
        qpt = sft.periodic_point(q)
        logdet = np.linalg.slogdet(cocycle.product(typical3, qpt, q.period))[1]
        assert np.sum(lam) == pytest.approx(logdet / q.period, abs=1e-10)


def test_periodic_spectrum_scalar_values():
    A = demos.scalar_2_3()
    spec = periodic_spectrum(A, 2)
    values = sorted(float(l[0]) for _, l in spec)
    assert values == pytest.approx(
        sorted([np.log(2.0), np.log(3.0), 0.5 * np.log(6.0)]))


def test_periodic_spectrum_orbit_counts(full2, golden):
    A = demos.typical_2x2()
    # full 2-shift orbits of period <= 3: 0, 1, 01, 001, 011
    spec = periodic_spectrum(A, 3)
    assert [q.symbols for q, _ in spec] == [
        (0,), (0, 0, 1), (0, 1), (0, 1, 1), (1,)]
    Ag = demos.golden_typical_2x2()
    specg = periodic_spectrum(Ag, 2)
    assert [q.symbols for q, _ in specg] == [(0,), (0, 1)]


def test_gap_profile_constant_exact_line():
    A = demos.constant_diag_4_1()
    prof = gap_profile(A, 1, list(range(1, 11)))
    assert prof.slope == pytest.approx(np.log(4.0), abs=1e-6)
    assert prof.intercept == pytest.approx(0.0, abs=1e-6)
    assert prof.r_squared == pytest.approx(1.0, abs=1e-12)


def test_gap_profile_rotation_zero():
    A = demos.rotation_only_2x2()
    prof = gap_profile(A, 1, list(range(1, 9)))
    assert np.allclose(prof.minima, 0.0, atol=1e-9)
    assert abs(prof.slope) < 1e-9


def test_gap_profile_sampled_minima_dominate_exhaustive():
    A = demos.dominated_2x2()
    ns = [4, 6, 8]
    exhaustive = gap_profile(A, 1, ns)
    sampled = gap_profile(A, 1, ns, exhaustive_budget=0, sample_count=64, seed=5)
    assert "sampled" in sampled.mode
    for lo, hi in zip(exhaustive.minima, sampled.minima):
        assert hi >= lo - 1e-12


def test_gap_profile_needs_seed_when_sampled():
    A = demos.dominated_2x2()
    with pytest.raises(ValueError):
        gap_profile(A, 1, [4], exhaustive_budget=0)


def test_theorem_b_dominated_demo():
    A = demos.dominated_2x2()
    found = __import__("coprox.typicality", fromlist=["find_typical_pair"]).find_typical_pair(A)
    assert found is not None
    rep = theorem_b_check(A, found[2], 1, 8, list(range(2, 11)))
    assert rep.periodic_gap > 0
    assert rep.profile.slope > 0 and rep.profile.r_squared > 0.99
    assert rep.verdict


def test_theorem_b_planted_rotation():
    A = demos.planted_rotation_2x2()
    rep = theorem_b_check(A, None, 1, 6, list(range(2, 11)))
    assert rep.periodic_gap == pytest.approx(0.0, abs=1e-12)
    # the planted fixed orbit pins the gap at zero; other elliptic orbits
    # may tie, so only the value is asserted
    assert not rep.verdict


def test_pointwise_estimate_constant_exact():
    A = demos.constant_diag_4_1()
    est = pointwise_estimate(A, (0, 1, 1, 0, 1))
    assert np.allclose(est, [np.log(4.0), 0.0], atol=1e-12)


def test_pointwise_estimate_scalar_birkhoff():
    A = demos.scalar_2_3()
    word = (0, 1, 1, 0)
    est = pointwise_estimate(A, word)
    expect = np.mean([np.log(2.0), np.log(3.0), np.log(3.0), np.log(2.0)])
    assert est[0] == pytest.approx(expect)


def test_markov_sample_deterministic(typical2):
    a = markov_sample(typical2, 12, 99)
    b = markov_sample(typical2, 12, 99)
    assert a == b
    assert sft.is_admissible(typical2.base, a)


def test_markov_sample_golden_admissible():
    A = demos.golden_typical_2x2()
    for seed in range(20):
        w = markov_sample(A, 15, seed)
        assert sft.is_admissible(A.base, w)


def test_theorem_d_small(typical2, typical2_cert):
    words = [markov_sample(typical2, 12, 100 + i) for i in range(4)]
    rep = theorem_d_check(typical2, typical2_cert[2], words, c_emp=40.0, tau=0.05)
    assert not rep.failures
    assert rep.all_within
    for s in rep.samples:
        assert s.allowed == pytest.approx(40.0 / 12 + 1e-9)


def test_theorem_b_rejects_index_before_any_work():
    A = demos.dominated_2x2()
    with pytest.raises(ValueError, match="1 <= i <= d-1"):
        theorem_b_check(A, None, 5, 4, [2, 3])
    with pytest.raises(ValueError, match="nonempty"):
        gap_profile(A, 1, [])
