import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from coprox import sft
from coprox.errors import NotPrimitive, SymbolMismatch


def test_mixing_rate_full_shift(full2):
    assert sft.mixing_rate(full2) == 1


def test_mixing_rate_golden(golden):
    # derived by hand from boolean powers: T^2 = [[2,1],[1,1]] > 0
    assert sft.mixing_rate(golden) == 2


def test_permutation_not_primitive():
    with pytest.raises((NotPrimitive, ValueError)):
        sft.Sft.from_matrix([[0, 1], [1, 0]])


def test_rejects_dead_symbol():
    with pytest.raises(ValueError):
        sft.Sft.from_matrix([[1, 0], [1, 0]])


def test_bridge_examples(full2, golden):
    assert sft.bridge(full2, 0, 1, 1) == (0,)
    assert sft.bridge(golden, 1, 1, 1) == (0,)
    assert sft.bridge(golden, 1, 1, 0) is None


def test_bridge_is_lexicographic_least(golden):
    for a in range(2):
        for b in range(2):
            for n in range(4):
                got = sft.bridge(golden, a, b, n)
                words = [
                    w for w in (sft.enumerate_words(golden, n) if n else [()])
                    if sft.is_admissible(golden, (a,) + tuple(w) + (b,))
                ]
                assert got == (min(words) if words else None)


def test_bridge_exists_at_mixing_rate_all_pairs(golden, full2):
    for s in (golden, full2):
        m = sft.mixing_rate(s)
        for a in range(s.alphabet_size):
            for b in range(s.alphabet_size):
                assert sft.bridge(s, a, b, m) is not None


def test_enumerate_periodic_counts(full2, golden):
    assert [w.symbols for w in sft.enumerate_periodic(full2, 2)] == [
        (0, 0), (0, 1), (1, 0), (1, 1)]
    assert len(sft.enumerate_periodic(golden, 2)) == 3
    assert [w.symbols for w in sft.enumerate_periodic(golden, 1)] == [(0,)]


def test_trace_identity(golden, full2):
    for s in (golden, full2):
        T = s.matrix().astype(np.int64)
        for n in range(1, 13):
            assert len(sft.enumerate_periodic(s, n)) == int(
                np.trace(np.linalg.matrix_power(T, n)))


def test_bracket_coordinates(golden):
    x = sft.point_from_word(golden, (0, 1, 0, 0, 1), 0)
    y = sft.point_from_word(golden, (0, 0, 1, 0, 1, 0), 0)
    b = sft.bracket(x, y)
    for i in range(-64, 1):
        assert b.coord(i) == x.coord(i)
    for i in range(0, 65):
        assert b.coord(i) == y.coord(i)


def test_bracket_self_and_mismatch(golden):
    x = sft.point_from_word(golden, (0, 1, 0), 0)
    b = sft.bracket(x, x)
    assert all(b.coord(i) == x.coord(i) for i in range(-40, 41))
    y = sft.point_from_word(golden, (1, 0, 1), 0)
    with pytest.raises(SymbolMismatch):
        sft.bracket(x, y)


def test_bracket_with_fixed_point(golden):
    p = sft.fixed_point(golden, 0)
    z = sft.homoclinic_point(golden, 0, (1,))
    zp = sft.bracket(p, z)  # z already has the p-past
    assert all(zp.coord(i) == z.coord(i) for i in range(-30, 31))
    pz = sft.bracket(z, p)  # z-past, all-p future
    assert all(pz.coord(i) == z.coord(i) for i in range(-30, 1))
    assert all(pz.coord(i) == 0 for i in range(0, 31))


def test_dist(golden):
    p = sft.fixed_point(golden, 0)
    z = sft.homoclinic_point(golden, 0, (1,))
    assert sft.dist(p, p) == 0.0
    assert sft.dist(p, z) == 0.5  # first disagreement at coordinate 1
    assert sft.dist(z, z.shift(1)) == 1.0  # disagree already at coordinate 0
    # two representations of the same sequence
    q = sft.periodic_point(sft.make_periodic(golden, (0, 1)))
    q2 = sft.periodic_point(sft.make_periodic(golden, (0, 1, 0, 1)))
    assert sft.dist(q, q2) == 0.0
    assert sft.same_point(q, q2)


def test_dist_window_formula(full2):
    # agree exactly on |i| <= 2 means k = 3, distance 1/8
    x = sft.PointSpec((0,), (1, 0, 0, 0, 0, 0, 1), (0,), 3)
    y = sft.fixed_point(full2, 0)
    assert x.coords(-2, 2) == (0,) * 5
    assert sft.dist(x, y) == pytest.approx(0.125)


@given(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2))
@settings(max_examples=40, deadline=None)
def test_dist_ultrametric(i, j, k):
    g = sft.golden_mean_shift()
    words = [(0,), (1, 0), (0, 1, 0)]
    pts = [sft.point_from_word(g, w, 0) for w in words]
    x, y, z = pts[i], pts[j], pts[k]
    assert sft.dist(x, z) <= max(sft.dist(x, y), sft.dist(y, z)) + 1e-15


def test_shift_roundtrip(golden):
    x = sft.point_from_word(golden, (0, 1, 0, 1, 0), 0)
    for n in (-3, 1, 7):
        back = x.shift(n).shift(-n)
        assert all(back.coord(i) == x.coord(i) for i in range(-20, 21))
        assert x.shift(n).coord(0) == x.coord(n)


def test_shift_fixed_point(golden):
    p = sft.fixed_point(golden, 0)
    assert sft.same_point(p.shift(5), p)


def test_is_admissible(golden):
    assert not sft.is_admissible(golden, (1, 1))
    assert sft.is_admissible(golden, (0, 1, 0, 1))


def test_reverse_point_involution(golden):
    x = sft.point_from_word(golden, (0, 1, 0, 0, 1), 0).shift(2)
    r = sft.reverse_point(x)
    assert all(r.coord(i) == x.coord(-1 - i) for i in range(-20, 21))
    rr = sft.reverse_point(r)
    assert all(rr.coord(i) == x.coord(i) for i in range(-20, 21))


def test_stable_unstable_shift(golden):
    p = sft.fixed_point(golden, 0)
    z = sft.homoclinic_point(golden, 0, (1,))
    assert sft.stable_shift(z, p) == 2
    assert sft.unstable_shift(p, z) == 0
    assert sft.unstable_shift(p, z.shift(3)) == 3
    q = sft.periodic_point(sft.make_periodic(golden, (0, 1)))
    assert sft.stable_shift(q, p) is None


def test_orbit_key():
    assert sft.orbit_key(sft.PeriodicWord((0, 0))) == (0,)
    assert sft.orbit_key(sft.PeriodicWord((1, 0))) == (0, 1)
    assert sft.orbit_key(sft.PeriodicWord((1, 0, 1, 0))) == (0, 1)


@settings(max_examples=80, deadline=None)
@given(data=st.data(), q=st.integers(2, 4), n=st.integers(1, 12))
def test_lyndon_mask_is_orbit_key_fixed_point(data, q, n):
    word = st.lists(st.integers(0, q - 1), min_size=n, max_size=n)
    rows = data.draw(st.lists(word, max_size=20))
    d = data.draw(st.sampled_from([d for d in range(1, n + 1) if n % d == 0]))
    root = data.draw(st.lists(st.integers(0, q - 1), min_size=d, max_size=d))
    rows += [root * (n // d)] + [[a] * n for a in range(q)]  # powers, constants
    expected = [sft.orbit_key(sft.PeriodicWord(tuple(w))) == tuple(w) for w in rows]
    assert sft.lyndon_mask(np.array(rows, dtype=np.uint8)).tolist() == expected


@pytest.mark.parametrize("n", [31, 32, 40])
def test_lyndon_mask_beyond_int64_keys(n):
    # keys of 31 base-4 digits still fit in int64; from 32 digits they are Python ints
    rng = np.random.default_rng(n)
    rows = rng.integers(0, 4, size=(40, n)).tolist()
    rows += [[0] * (n - 1) + [3], [3] + [0] * (n - 1), [0, 3] * (n // 2) + [3] * (n % 2)]
    expected = [sft.orbit_key(sft.PeriodicWord(tuple(w))) == tuple(w) for w in rows]
    assert sft.lyndon_mask(np.array(rows, dtype=np.uint8)).tolist() == expected


def test_cycle_array_is_the_closed_words(full2, golden):
    for s in (full2, golden, sft.full_shift(3)):
        for n in range(1, 8):
            cycles = sft.cycle_array(s, n)
            brute = [w for w in itertools.product(range(s.alphabet_size), repeat=n)
                     if sft.is_admissible(s, w) and s.allowed(w[-1], w[0])]
            assert cycles.dtype == np.uint8 and cycles.shape == (len(brute), n)
            assert [tuple(w) for w in cycles.tolist()] == brute
            assert [w.symbols for w in sft.enumerate_periodic(s, n)] == brute


def _mobius(n):
    sign, m, p = 1, n, 2
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            sign = -sign
        p += 1
    return -sign if m > 1 else sign


def test_orbit_counts_are_moebius_counts(full2, golden, cocycles):
    for s in (full2, sft.full_shift(3), golden, cocycles["tri r1"].base):
        T = s.matrix()
        for n in range(1, 11):
            total = sum(_mobius(n // d) * int(np.trace(np.linalg.matrix_power(T, d)))
                        for d in range(1, n + 1) if n % d == 0)
            assert total % n == 0
            assert int(sft.lyndon_mask(sft.cycle_array(s, n)).sum()) == total // n


def test_point_from_word_anchor(golden):
    x = sft.point_from_word(golden, (1, 0, 1), 0)
    assert x.coord(0) == 1 and x.coord(1) == 0 and x.coord(2) == 1
    # canonical tails are the fixed symbol
    assert all(x.coord(i) == 0 for i in range(4, 30))
    assert all(x.coord(i) == 0 for i in range(-30, 0))


def test_random_primitive_sfts_trace_identity():
    rng = np.random.default_rng(42)
    built = 0
    while built < 5:
        q = int(rng.integers(2, 5))
        T = (rng.random((q, q)) < 0.6).astype(int)
        try:
            s = sft.Sft.from_matrix(T)
        except (ValueError, NotPrimitive):
            continue
        built += 1
        Tm = s.matrix().astype(object)
        for n in range(1, 13):
            assert len(sft.enumerate_periodic(s, n)) == int(
                np.trace(np.linalg.matrix_power(Tm, n)))
