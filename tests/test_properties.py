"""Property-based checks over randomized words, matrices, and directions."""

from collections import Counter
from functools import cache

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from coprox import analysis, cocycle, demos, matnum, sft, synthesis, thermo, typicality
from conftest import orbit_key

GOLDEN = sft.golden_mean_shift()
FULL2 = sft.full_shift(2)
RADIUS1 = demos.radius1_2x2()
TYPICAL2 = demos.typical_2x2()


def golden_words(min_size=1, max_size=10):
    """Admissible golden-mean words (no adjacent ones)."""
    return st.lists(
        st.integers(0, 1), min_size=min_size, max_size=max_size
    ).map(_repair_golden)


def _repair_golden(symbols):
    out = []
    for c in symbols:
        if out and out[-1] == 1 and c == 1:
            out.append(0)
        else:
            out.append(int(c))
    return tuple(out)


@given(golden_words())
@settings(max_examples=60, deadline=None)
def test_golden_word_repair_is_admissible(word):
    assert sft.is_admissible(GOLDEN, word)


@given(golden_words(min_size=2), st.integers(-5, 5))
@settings(max_examples=60, deadline=None)
def test_shift_relabels_coordinates(word, n):
    x = sft.point_from_word(GOLDEN, word, 0)
    y = x.shift(n)
    for i in range(-8, 9):
        assert y.coord(i) == x.coord(i + n)


@given(golden_words(min_size=2), golden_words(min_size=2))
@settings(max_examples=60, deadline=None)
def test_bracket_splices_past_and_future(w1, w2):
    x = sft.point_from_word(GOLDEN, w1, 0)
    y = sft.point_from_word(GOLDEN, w2, 0)
    if x.coord(0) != y.coord(0):
        return
    b = sft.bracket(x, y)
    assert all(b.coord(i) == x.coord(i) for i in range(-20, 1))
    assert all(b.coord(i) == y.coord(i) for i in range(0, 21))


@given(st.integers(0, 2**32 - 1), st.integers(-3, 3), st.integers(-3, 3))
@settings(max_examples=40, deadline=None)
def test_cocycle_equation_random_points(seed, m, n):
    rng = np.random.default_rng(seed)
    word = tuple(int(rng.integers(2)) for _ in range(6))
    x = sft.point_from_word(FULL2, word, 0)
    lhs = cocycle.product(RADIUS1, x, n + m)
    rhs = cocycle.product(RADIUS1, x.shift(m), n) @ cocycle.product(RADIUS1, x, m)
    assert np.allclose(lhs, rhs, atol=1e-10)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_exterior_power_multiplicative_random(seed):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 5))
    g = rng.normal(size=(d, d))
    h = rng.normal(size=(d, d))
    for t in range(1, d + 1):
        lhs = matnum.exterior_power(g @ h, t)
        rhs = matnum.exterior_power(g, t) @ matnum.exterior_power(h, t)
        scale = max(1.0, float(np.linalg.norm(lhs)))
        assert np.allclose(lhs, rhs, atol=1e-9 * scale)


@given(st.integers(0, 2**32 - 1), st.floats(0.0, 4.0))
@settings(max_examples=60, deadline=None)
def test_phi_s_submultiplicative_random(seed, s):
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(2, 2)) + 2 * np.eye(2)
    h = rng.normal(size=(2, 2)) + 2 * np.eye(2)
    if abs(np.linalg.det(g)) < 1e-6 or abs(np.linalg.det(h)) < 1e-6:
        return
    assert thermo.phi_s(g @ h, s) <= thermo.phi_s(g, s) * thermo.phi_s(h, s) * (1 + 1e-9)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_rho_norm_bound_random_pairs(seed):
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(3, 3))
    if abs(np.linalg.det(g)) < 1e-3:
        return
    bound = matnum.rho_norm_bound(g)
    u = matnum.unit(rng.normal(size=3))
    v = matnum.unit(rng.normal(size=3))
    r = matnum.rho(u, v)
    if r > 1e-8:
        assert matnum.rho(g @ u, g @ v) <= bound * r * (1 + 1e-9) + 1e-12


@given(st.integers(0, 2**32 - 1), st.integers(1, 12))
@settings(max_examples=40, deadline=None)
def test_orbit_mu_monotone_and_det_identity(seed, n):
    rng = np.random.default_rng(seed)
    word = tuple(int(rng.integers(2)) for _ in range(n))
    x = sft.point_from_word(FULL2, word, 0)
    mu = cocycle.orbit_mu_vec(TYPICAL2, x, n)
    assert mu[0] >= mu[1] - 1e-12
    logdet = np.linalg.slogdet(cocycle.product(TYPICAL2, x, n))[1]
    assert np.sum(mu) == pytest.approx(logdet, abs=1e-9)


@given(golden_words(min_size=1, max_size=8))
@settings(max_examples=40, deadline=None)
def test_orbit_key_is_rotation_invariant(word):
    if not sft.is_admissible(GOLDEN, word + word[:1]):
        return
    w = sft.PeriodicWord(word)
    keys = {
        orbit_key(sft.PeriodicWord(word[i:] + word[:i]))
        for i in range(len(word))
        if sft.is_admissible(GOLDEN, word[i:] + word[:i])
    }
    assert len(keys) == 1


@cache
def _typical_demo(name):
    """A demo with its passing certificate, or None without one."""
    A = demos.get_demo(name)
    found = typicality.find_typical_pair(A) if A.dim >= 2 else None
    return (A, found[2]) if found is not None and found[2].passed else None


TYPICAL_DEMOS = sorted(name for name in demos.DEMOS if _typical_demo(name) is not None)
WORK_SLACK = 32
"""Kernel steps a member may take beyond the period n_q: the 2k joint
windows, the k tail windows each continued fold takes again and any
retried transversal leg.  Over 2,100 random words of the demos below the
most seen is 11 (radius1; 0 on every radius-0 demo)."""


@pytest.mark.filterwarnings("error")
@given(st.sampled_from(TYPICAL_DEMOS), st.integers(1, 10_000), st.integers(0, 2**32 - 1))
@example("typical3x3", 10_000, 1)
@example("golden3x3", 10_000, 1)
@settings(max_examples=30, deadline=None)
def test_synthesis_certifies_at_every_length(name, n, seed):
    # every d >= 2 demo with a typical pair, words up to 10^4 symbols: no
    # floating-point warning, a certified report with a finite bound, and
    # work linear in the period, each member folding at most WORK_SLACK
    # windows beyond one pass around q
    A, cert = _typical_demo(name)
    word = analysis.markov_sample(A, n, seed)
    steps, kernel = Counter(), synthesis._extend_products

    def counted(mats, idx, prods, scales):
        steps[id(mats)] += idx.size
        return kernel(mats, idx, prods, scales)

    synthesis._extend_products = counted
    try:
        rep = synthesis.build_proximal_periodic(A, cert, word, 0.05)
    finally:
        synthesis._extend_products = kernel
    assert rep.n == n and all(w.verdict for w in rep.witnesses)
    assert np.isfinite(rep.bound_value)
    assert max(steps.values()) <= rep.n_q + WORK_SLACK
