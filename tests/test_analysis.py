import numpy as np
import pytest

from coprox import analysis, cocycle, demos, sft, typicality
from coprox.analysis import (
    gap_profile,
    markov_sample,
    periodic_lyapunov,
    periodic_spectrum,
    theorem_b_check,
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


def test_gap_profile_rejects_lengths_over_the_budget(monkeypatch):
    # dominated2x2 has 2^n words of length n: 16 fit a budget of 20, 32 do not
    A = demos.dominated_2x2()
    monkeypatch.setattr(analysis, "EXHAUSTIVE_BUDGET", 20)
    assert gap_profile(A, 1, [3, 4]).mode == "exhaustive"
    with pytest.raises(ValueError, match=r"^lengths 5\.\.6 have more than 20 words"):
        gap_profile(A, 1, [4, 5, 6])


def test_theorem_b_dominated_demo():
    A = demos.dominated_2x2()
    found = __import__("coprox.typicality", fromlist=["find_typical_pair"]).find_typical_pair(A)
    assert found is not None
    rep = theorem_b_check(A, found[2], 1, 8, list(range(2, 11)))
    # gap and slope (both about 1.763) clear the rounding level by far
    assert rep.periodic_gap > 1e9 * analysis.GAP_FLOOR
    assert rep.profile.slope - 2 * rep.profile.slope_se > 1e9 * analysis.GAP_FLOOR
    assert rep.profile.r_squared > 0.99
    assert rep.verdict


def test_theorem_b_rounding_level_gaps_are_no_evidence():
    # typical3x3's orbit 1 has equal moduli: gap and slope are rounding,
    # positive, with a perfect fit, and no evidence
    rep = theorem_b_check(demos.typical_3x3(), None, 1, 8, [7, 8, 9])
    assert 0 < rep.periodic_gap < analysis.GAP_FLOOR
    assert rep.profile.slope < analysis.GAP_FLOOR
    assert rep.profile.r_squared > analysis.R2_THRESHOLD
    assert not rep.verdict


@pytest.mark.parametrize("n_list", [[7, 8], [7, 7, 8, 8], [9], []])
def test_theorem_b_needs_three_distinct_lengths(n_list):
    with pytest.raises(ValueError, match="at least 3 distinct lengths"):
        theorem_b_check(demos.dominated_2x2(), None, 1, 4, n_list)


def test_theorem_b_planted_rotation():
    A = demos.planted_rotation_2x2()
    rep = theorem_b_check(A, None, 1, 6, list(range(2, 11)))
    assert rep.periodic_gap == pytest.approx(0.0, abs=1e-12)
    # the planted fixed orbit pins the gap at zero; other elliptic orbits
    # may tie, so only the value is asserted
    assert not rep.verdict


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


def _per_symbol_sampled_words(A, n, count, seed):
    """The sampler as it was first written: the continuations of each
    drawn symbol listed afresh, one ``rng.integers`` call per symbol."""
    rng = np.random.default_rng(seed)
    s = A.base
    out = []
    for _ in range(count):
        word = [int(rng.integers(s.alphabet_size))]
        for _ in range(n - 1):
            options = [c for c in range(s.alphabet_size) if s.allowed(word[-1], c)]
            word.append(int(options[rng.integers(len(options))]))
        out.append(tuple(word))
    return out


def test_sampled_words_keep_every_seed(cocycles):
    # the continuation table draws the same words as the per-symbol loop
    for A in [demos.DEMOS[name]() for name in sorted(demos.DEMOS)] + list(cocycles.values()):
        for seed in (0, 1, 7, 2**31 + 5):
            for n, count in ((1, 3), (2, 4), (40, 5)):
                got = analysis._sampled_words(A, n, count, seed)
                assert got == _per_symbol_sampled_words(A, n, count, seed)
                assert all(type(c) is int for w in got for c in w)


def test_periodic_spectrum_rejects_max_period_below_one():
    # a spectrum of no orbits made theorem B's periodic gap inf, its orbit
    # '' and its verdict rest on no periodic hypothesis at all
    A = demos.dominated_2x2()
    for bad in (0, -3):
        with pytest.raises(ValueError, match=r"^max_period must be >= 1$"):
            periodic_spectrum(A, bad)
    found = typicality.find_typical_pair(A)
    with pytest.raises(ValueError, match=r"^max_period must be >= 1$"):
        theorem_b_check(A, found[2], 1, 0, range(2, 9))


def test_theorem_b_rejects_index_before_any_work():
    A = demos.dominated_2x2()
    with pytest.raises(ValueError, match="1 <= i <= d-1"):
        theorem_b_check(A, None, 5, 4, [2, 3])
    with pytest.raises(ValueError, match="nonempty"):
        gap_profile(A, 1, [])


@pytest.mark.parametrize("length", [0, -3])
def test_markov_sample_refuses_lengths_below_one(typical2, length):
    # the first symbol was drawn before the loop, so length 0 gave one symbol
    with pytest.raises(ValueError, match=">= 1"):
        markov_sample(typical2, length, 5)
