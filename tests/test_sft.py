import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from coprox import sft
from coprox.errors import NotPrimitive, SymbolMismatch
from conftest import cycle_array, is_prenecklace, orbit_key


def test_mixing_rate_full_shift(full2):
    assert sft.mixing_rate(full2) == 1


def test_mixing_rate_golden(golden):
    # derived by hand from boolean powers: T^2 = [[2,1],[1,1]] > 0
    assert sft.mixing_rate(golden) == 2


def test_permutation_not_primitive():
    with pytest.raises((NotPrimitive, ValueError)):
        sft.Sft.from_matrix([[0, 1], [1, 0]])


def _least_positive_power(T):
    """The least M <= (q-1)^2 + 1 with T^M entrywise positive, power by
    power on exact integers, or None."""
    T = np.asarray(T, dtype=object)
    power = T
    for m in range(1, (len(T) - 1) ** 2 + 2):
        if (power > 0).all():
            return m
        power = power.dot(T)
    return None


def _wielandt(q):
    """The q-cycle with the chord q-1 -> 1: primitive, least M = (q-1)^2 + 1."""
    T = np.zeros((q, q), dtype=int)
    T[np.arange(q), (np.arange(q) + 1) % q] = 1
    T[q - 1, 1] = 1
    return T


@pytest.mark.parametrize("q", range(2, 13))
def test_mixing_rate_reaches_the_wielandt_bound(q):
    assert sft.mixing_rate(sft.Sft.from_matrix(_wielandt(q))) == (q - 1) ** 2 + 1
    assert _least_positive_power(_wielandt(q)) == (q - 1) ** 2 + 1


def test_mixing_rate_equals_the_least_positive_power():
    rng = np.random.default_rng(3)
    seen = {True: 0, False: 0}
    for _ in range(2000):
        q = int(rng.integers(1, 8))
        T = (rng.random((q, q)) < rng.uniform(0.15, 0.7)).astype(int)
        if not (T.any(axis=0).all() and T.any(axis=1).all()):
            continue  # a symbol without a successor or predecessor
        want = _least_positive_power(T)
        seen[want is not None] += 1
        if want is None:
            with pytest.raises(NotPrimitive):
                sft.Sft.from_matrix(T)
        else:
            assert sft.mixing_rate(sft.Sft.from_matrix(T)) == want
    assert min(seen.values()) > 100, seen


def test_rejects_dead_symbol():
    with pytest.raises(ValueError):
        sft.Sft.from_matrix([[1, 0], [1, 0]])


def test_bridge_examples(full2, golden):
    assert sft.bridge(full2, 0, 1, 1) == (0,)
    assert sft.bridge(golden, 1, 1, 1) == (0,)
    assert sft.bridge(golden, 1, 1, 0) is None


def test_bridge_is_lexicographic_least(golden, full2, tri_base):
    for s in (golden, full2, tri_base):
        for a, b in itertools.product(range(s.alphabet_size), repeat=2):
            for n in range(4):
                got = sft.bridge(s, a, b, n)
                words = [
                    w for w in (sft.enumerate_words(s, n) if n else [()])
                    if sft.is_admissible(s, (a,) + tuple(w) + (b,))
                ]
                assert got == (min(words) if words else None)


def test_bridge_exists_at_mixing_rate_all_pairs(golden, full2):
    for s in (golden, full2):
        m = sft.mixing_rate(s)
        for a in range(s.alphabet_size):
            for b in range(s.alphabet_size):
                assert sft.bridge(s, a, b, m) is not None


def test_enumerate_periodic_counts(full2, golden):
    cycles = cycle_array(full2, sft.word_array(full2, 2))
    assert cycles.tolist() == [[0, 0], [0, 1], [1, 0], [1, 1]]
    assert len(cycle_array(golden, sft.word_array(golden, 2))) == 3
    assert cycle_array(golden, sft.word_array(golden, 1)).tolist() == [[0]]


def test_trace_identity(golden, full2):
    for s in (golden, full2):
        T = s.matrix().astype(np.int64)
        for n in range(1, 13):
            assert len(cycle_array(s, sft.word_array(s, n))) == int(
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
    assert orbit_key(sft.PeriodicWord((0, 0))) == (0,)
    assert orbit_key(sft.PeriodicWord((1, 0))) == (0, 1)
    assert orbit_key(sft.PeriodicWord((1, 0, 1, 0))) == (0, 1)


def _fed_symbol_by_symbol(rows):
    """Rows fed to ``prenecklace_step`` one symbol at a time: per row,
    whether it stays a prenecklace, and its longest Lyndon prefix's
    length."""
    words = np.array(rows, dtype=np.uint8)
    alive, lyn = np.ones(len(words), dtype=bool), np.zeros(len(words), dtype=np.int64)
    for m in range(1, words.shape[1] + 1):
        keep, lyn = sft.prenecklace_step(words[:, :m], lyn)
        alive &= keep
    return alive, lyn


def _lyndon_by_recurrence(rows):
    alive, lyn = _fed_symbol_by_symbol(rows)
    return (alive & (lyn == len(rows[0]))).tolist()


@settings(max_examples=80, deadline=None)
@given(data=st.data(), q=st.integers(2, 4), n=st.integers(1, 12))
def test_prenecklace_step_marks_the_orbit_key_fixed_points(data, q, n):
    word = st.lists(st.integers(0, q - 1), min_size=n, max_size=n)
    rows = data.draw(st.lists(word, max_size=20))
    d = data.draw(st.sampled_from([d for d in range(1, n + 1) if n % d == 0]))
    root = data.draw(st.lists(st.integers(0, q - 1), min_size=d, max_size=d))
    rows += [root * (n // d)] + [[a] * n for a in range(q)]  # powers, constants
    expected = [orbit_key(sft.PeriodicWord(tuple(w))) == tuple(w) for w in rows]
    assert _lyndon_by_recurrence(rows) == expected


@pytest.mark.parametrize("n", [31, 32, 40, 41, 64])
def test_prenecklace_step_on_long_words(n):
    # a Lyndon prefix compares against symbols up to n - 1 places back
    rng = np.random.default_rng(n)
    rows = rng.integers(0, 4, size=(40, n)).tolist()
    rows += [[0] * (n - 1) + [3], [3] + [0] * (n - 1), [0, 3] * (n // 2) + [3] * (n % 2),
             [0] * (n - 2) + [1, 0], [0] + [1] * (n - 1)]
    expected = [orbit_key(sft.PeriodicWord(tuple(w))) == tuple(w) for w in rows]
    assert _lyndon_by_recurrence(rows) == expected


def test_prenecklace_step_keeps_exactly_the_prenecklaces():
    # over the full 3-shift, every word is fed to it; prenecklaces (prefixes
    # of necklaces) are the words each of whose suffixes is at least the
    # prefix of the same length
    for n in range(1, 9):
        rows = list(itertools.product(range(3), repeat=n))
        alive, _ = _fed_symbol_by_symbol(rows)
        assert alive.tolist() == [is_prenecklace(w) for w in rows]


def test_cycle_array_is_the_closed_words(full2, golden):
    for s in (full2, golden, sft.full_shift(3)):
        for n in range(1, 8):
            cycles = cycle_array(s, sft.word_array(s, n))
            brute = [w for w in itertools.product(range(s.alphabet_size), repeat=n)
                     if sft.is_admissible(s, w) and s.allowed(w[-1], w[0])]
            assert cycles.dtype == np.uint8 and cycles.shape == (len(brute), n)
            assert [tuple(w) for w in cycles.tolist()] == brute


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
    # the admissible Lyndon words with an allowed wrap pair, walked by the
    # recurrence over the admissible prenecklaces, one per periodic orbit
    for s in (full2, sft.full_shift(3), golden, cocycles["tri r1"].base):
        T = s.matrix()
        words, lyn = np.zeros((1, 0), dtype=np.uint8), np.zeros(1, dtype=np.int64)
        for n in range(1, 11):
            total = sum(_mobius(n // d) * int(np.trace(np.linalg.matrix_power(T, d)))
                        for d in range(1, n + 1) if n % d == 0)
            assert total % n == 0
            parent, words = sft.extend_words(s, words)
            keep, lyn = sft.prenecklace_step(words, lyn[parent])
            words, lyn = words[keep], lyn[keep]
            closed = T[words[:, -1], words[:, 0]] == 1
            assert int((closed & (lyn == n)).sum()) == total // n


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
            assert len(cycle_array(s, sft.word_array(s, n))) == int(
                np.trace(np.linalg.matrix_power(Tm, n)))


# Per-coordinate reference copies of the window compares in sft: the
# definitions they replaced, read one ``coord`` at a time.

def _ref_horizon(x, y):
    """Window radius beyond which coordinatewise agreement implies
    equality: past both cores' reach by one common period of the cycles."""
    lo_x, hi_x = x.reach()
    lo_y, hi_y = y.reach()
    left = max(-lo_x, -lo_y, 0) + np.lcm(len(x.left_cycle), len(y.left_cycle))
    right = max(hi_x, hi_y, 0) + np.lcm(len(x.right_cycle), len(y.right_cycle))
    return int(max(left, right)) + 1


def _ref_in_local_stable(x, y, h):
    return all(x.coord(i) == y.coord(i) for i in range(0, h + 1))


def _ref_in_local_unstable(x, y, h):
    return all(x.coord(-i) == y.coord(-i) for i in range(0, h + 1))


def _ref_same_point(x, y):
    h = _ref_horizon(x, y)
    return all(x.coord(i) == y.coord(i) for i in range(-h, h + 1))


def _ref_stable_shift(x, y):
    r0 = max(x.reach()[1], y.reach()[1], 0) + 1
    period = np.lcm(len(x.right_cycle), len(y.right_cycle))
    if any(x.coord(i) != y.coord(i) for i in range(r0, r0 + period)):
        return None
    for i in range(r0 - 1, -1, -1):
        if x.coord(i) != y.coord(i):
            return i + 1
    return 0


def _ref_unstable_shift(x, y):
    l0 = min(x.reach()[0], y.reach()[0], 0) - 1
    period = np.lcm(len(x.left_cycle), len(y.left_cycle))
    if any(x.coord(i) != y.coord(i) for i in range(l0 - period + 1, l0 + 1)):
        return None
    for i in range(l0 + 1, 1):
        if x.coord(i) != y.coord(i):
            return 1 - i
    return 0


def _ref_is_fixed_point(x):
    a = x.coord(0)
    lo, hi = x.reach()
    return all(x.coord(i) == a for i in range(lo - 1, hi + 2)) and \
        all(c == a for c in x.left_cycle) and all(c == a for c in x.right_cycle)


def _points(symbols=3, cycle=4, core=6):
    cycles = st.lists(st.integers(0, symbols - 1), min_size=1, max_size=cycle).map(tuple)
    cores = st.lists(st.integers(0, symbols - 1), max_size=core).map(tuple)
    return st.builds(lambda left, mid, right, anchor: sft.PointSpec(left, mid, right, anchor),
                     cycles, cores, cycles, st.integers(-4, core + 4))


@settings(max_examples=300, deadline=None)
@given(x=_points(), lo=st.integers(-20, 20), width=st.integers(-3, 25))
def test_coords_is_the_coordinatewise_window(x, lo, width):
    hi = lo + width - 1  # width <= 0 gives lo > hi, the empty window
    assert x.coords(lo, hi) == tuple(x.coord(i) for i in range(lo, hi + 1))


@settings(max_examples=300, deadline=None)
@given(x=_points(2, 3, 5), y=_points(2, 3, 5), shift=st.integers(-6, 6),
       shared=st.booleans())
def test_window_compares_match_coordinatewise_references(x, y, shift, shared):
    if shared:  # common tails, so the shifts are finite
        y = sft.PointSpec(x.left_cycle, y.core, x.right_cycle, y.anchor)
    pairs = [(x, y), (x, x.shift(shift)), (y, x.shift(shift))]
    if x.coord(0) == y.coord(0):
        xy, yx = sft.bracket(x, y), sft.bracket(y, x)
        pairs += [(x, xy), (xy, y), (yx, x), (xy, yx)]
    for u, v in pairs:
        assert sft.in_local_stable(u, v) == _ref_in_local_stable(u, v, _ref_horizon(u, v))
        assert sft.in_local_unstable(u, v) == _ref_in_local_unstable(u, v, _ref_horizon(u, v))
        assert sft.same_point(u, v) == _ref_same_point(u, v)
        assert sft.stable_shift(u, v) == _ref_stable_shift(u, v)
        assert sft.unstable_shift(u, v) == _ref_unstable_shift(u, v)
        assert sft.is_fixed_point(u) == _ref_is_fixed_point(u)


def _plain_coords(x, lo, hi):
    """PointSpec.coords without its core-slice branch."""
    a, b = x.anchor + lo, x.anchor + hi + 1
    if a >= b:
        return ()
    m = len(x.core)
    left = sft._cyclic(x.left_cycle, a, min(b, 0) - a) if a < 0 else ()
    right = sft._cyclic(x.right_cycle, max(a, m) - m, b - max(a, m)) if b > m else ()
    return left + x.core[max(a, 0):max(min(b, m), 0)] + right


def _reach_stable_shift(x, y):
    """stable_shift read through PointSpec.reach and lcm, with no
    same-object answer."""
    tail = max(x.reach()[1], y.reach()[1], 0) + 1
    top = tail + math.lcm(len(x.right_cycle), len(y.right_cycle)) - 1
    return sft._leaf_shift(_plain_coords(x, 0, top), _plain_coords(y, 0, top), tail)


def _reach_unstable_shift(x, y):
    tail = max(-x.reach()[0], -y.reach()[0], 0) + 1
    bottom = -tail - math.lcm(len(x.left_cycle), len(y.left_cycle)) + 1
    return sft._leaf_shift(_plain_coords(x, bottom, 0)[::-1],
                           _plain_coords(y, bottom, 0)[::-1], tail)


@settings(max_examples=400, deadline=None)
@given(x=_points(2, 4, 5), y=_points(2, 4, 5), shift=st.integers(-6, 6),
       lo=st.integers(-12, 12), width=st.integers(-2, 14), shared=st.booleans())
@example(x=sft.PointSpec((0,), (), (0, 1), 0), y=sft.PointSpec((1, 0, 0), (), (1, 0, 1), 2),
         shift=0, lo=0, width=1, shared=False)  # empty cores, cycles of unequal lengths
@example(x=sft.PointSpec((1,), (0, 1, 1), (0,), 1), y=sft.PointSpec((1,), (0, 1, 1), (0,), 1),
         shift=3, lo=-1, width=3, shared=False)  # a window inside the core
@example(x=sft.PointSpec((1,), (0, 1, 1), (0,), 9), y=sft.PointSpec((0, 1), (1,), (0,), -5),
         shift=-2, lo=4, width=6, shared=True)  # cores far left and right of 0
def test_lean_leaf_tests_match_their_reach_forms(x, y, shift, lo, width, shared):
    if shared:  # common tails, so the shifts are finite
        y = sft.PointSpec(x.left_cycle, y.core, x.right_cycle, y.anchor)
    hi = lo + width - 1
    for u in (x, y, x.shift(shift)):
        assert u.coords(lo, hi) == _plain_coords(u, lo, hi)
    # the same object, equal points held twice, and unrelated points
    for u, v in [(x, x), (y, y), (x, x.shift(0)), (x, y), (y, x), (x, x.shift(shift)),
                 (y, x.shift(shift))]:
        assert sft.stable_shift(u, v) == _reach_stable_shift(u, v)
        assert sft.unstable_shift(u, v) == _reach_unstable_shift(u, v)


def test_is_admissible_range_and_pairs(golden):
    assert sft.is_admissible(golden, ())
    assert sft.is_admissible(golden, (1,))
    assert not sft.is_admissible(golden, (2,))
    assert not sft.is_admissible(golden, (0, -1))
    assert not sft.is_admissible(golden, (0, 1, 0, 1, 1, 0))


@pytest.mark.parametrize("bad", [-1, 2])
def test_symbol_entries_refuse_symbols_outside_the_alphabet(full2, bad):
    # Sft.allowed is is_admissible on the pair, so -1 is not read as the
    # last symbol (fixed_point(full2, -1) was symbol 1's fixed point) and 2
    # is a refusal, not an IndexError
    assert not full2.allowed(bad, bad) and not full2.allowed(0, bad)
    for build in (lambda: sft.fixed_point(full2, bad),
                  lambda: sft.homoclinic_point(full2, bad, (0,)),
                  lambda: sft.point_from_word(full2, (0, 1), bad)):
        with pytest.raises(ValueError, match="not admissible"):
            build()
    with pytest.raises(ValueError, match="not admissible"):
        sft.make_periodic(full2, (0, bad))


def test_point_from_word_refuses_the_empty_word(full2):
    with pytest.raises(ValueError, match="nonempty"):
        sft.point_from_word(full2, (), 0)
