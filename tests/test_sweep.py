"""Properties of the one long-product kernel behind sweeps, batches,
orbits and cycles.

The sweep shares each word's prefix products with its extensions, but
every word's arithmetic is the same as a from-scratch ladder, so its rows
must equal ``batch_log_singular`` on the enumerated words byte for byte,
whatever the radius, the base, the requested lengths or the row blocks.
Single orbits, synthesis folds and cycles run through the same kernel as
batches of one; their results must equal per-step loops (kept below and
in ``conftest``) as references byte for byte.
"""

import collections
import itertools

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coprox import analysis, cocycle, demos, sft, synthesis, thermo, typicality
from coprox.cocycle import batch_log_singular
from coprox.errors import NotPrimitive
from conftest import (cycle_array, is_prenecklace, orbit_key, ref_eig_top, ref_product_scaled,
                      swept)


NAMES = ("full r0", "golden r0", "full r1", "full r2", "tri r1", "skew r1")
LENGTHS = st.sets(st.integers(1, 9), min_size=1, max_size=4)
ORBIT_LENGTHS = st.sampled_from([0, 1, 7, 8, 9]) | st.integers(0, 600)


@settings(max_examples=30, deadline=None)
@given(name=st.sampled_from(NAMES), n_set=LENGTHS, over=st.sampled_from([(), (0,), (1, 2)]))
def test_sweep_rows_equal_batch_on_enumerated_words(cocycles, name, n_set, over):
    # ``over`` adds lengths whose levels are cut into blocks of ROW_CAP rows
    A = cocycles[name]
    n_set = set(n_set) | {_first_length_over_cap(A, 1) + e for e in over}
    rows = swept(A, sorted(n_set), 0)
    assert sorted(rows) == sorted(n_set)
    for n in n_set:
        ref = batch_log_singular(A, sft.enumerate_words(A.base, n), 0)
        assert np.array_equal(rows[n], ref)


def _first_length_over_cap(A, times):
    """The least length with more than times x ROW_CAP words: test lengths
    follow the cap, so each level they pick is still cut into blocks."""
    return next(n for n, count in enumerate(sft.word_counts(A.base), 1)
                if count > times * cocycle.ROW_CAP)


@pytest.mark.parametrize("times", [1, 2])
@pytest.mark.parametrize("name", ["full r0", "golden r0", "skew r1"])
def test_no_kernel_batch_exceeds_the_row_cap(cocycles, monkeypatch, times, name):
    # levels four and eight times the cap, cut again below the first cut;
    # on the skew base, blocks differ in how many descendants they have
    A = cocycles[name]
    n = _first_length_over_cap(A, 4 * times)
    assert len(sft.word_array(A.base, n)) > 4 * times * cocycle.ROW_CAP
    sizes = []
    extend = cocycle._extend_products

    def recorded(mats, every, idx, prods, scales, take=None, heads=None):
        sizes.append(len(idx))
        return extend(mats, every, idx, prods, scales, take, heads)

    monkeypatch.setattr(cocycle, "_extend_products", recorded)
    rows = swept(A, [n - 2, n], 0)
    for m in (n - 2, n):
        words = sft.enumerate_words(A.base, m)
        assert np.array_equal(rows[m], batch_log_singular(A, words, 0))
    assert sizes and max(sizes) <= cocycle.ROW_CAP


def _dim4():
    """A 4x4 cocycle over the full 2-shift: a diagonal and a rotation."""
    rng = np.random.default_rng(5)
    q_mat, _ = np.linalg.qr(rng.normal(size=(4, 4)))
    return cocycle.WindowCocycle(sft.full_shift(2), 4, 0,
                                 {(0,): np.diag([16.0, 7.0, 3.0, 1.0]), (1,): q_mat})


KERNEL_COCYCLES = {**demos.DEMOS, "dim4": _dim4}


def _kernel_tables(A) -> list:
    """Every exterior rung's table, and per matrix size shared by two or
    more rungs their tables concatenated, as a synthesis size group's."""
    rungs = list(A._rungs or (A._mats,))
    sizes = [len(m[0]) for m in rungs]
    return rungs + [np.concatenate([m for m, r in zip(rungs, sizes) if r == size])
                    for size in dict.fromkeys(sizes) if sizes.count(size) > 1]


@settings(max_examples=30, deadline=None)
@given(name=st.sampled_from(sorted(KERNEL_COCYCLES)), count=st.integers(2, 9),
       steps=st.integers(0, 1000), seed=st.integers(0, 2**16))
# both branches: the 3x3 rungs' own tables have 2 windows (many rows), the
# rungs' concatenated table 4 (a small stack)
@example(name="typical3x3", count=3, steps=600, seed=0)
def test_kernel_batch_rows_equal_rows_folded_alone(name, count, steps, seed):
    # a batch of one takes the kernel's 2-D path: every row of a larger
    # batch must get the same bytes from it, on every exterior rung and
    # size group's table, whether the batch has fewer rows than the table
    # has windows (a row-major small stack) or not (column-major GEMMs)
    A = KERNEL_COCYCLES[name]()
    rng = np.random.default_rng(seed)
    for mats in _kernel_tables(A):
        d, every = mats.shape[1], cocycle._rescale_cadence(mats)
        idx = rng.integers(0, len(mats), size=(count, steps))
        prods, scales = rng.normal(size=(d, d, count)), rng.integers(-64, 64, size=count)
        batch_prods, batch_scales = cocycle._extend_products(mats, every, idx, prods, scales)
        for i in range(count):
            one_prods, one_scales = cocycle._extend_products(
                mats, every, idx[i:i + 1], prods[:, :, i:i + 1], scales[i:i + 1])
            assert np.array_equal(one_prods[:, :, 0], batch_prods[:, :, i])
            assert one_scales[0] == batch_scales[i]


# -- the GEMM against per-matrix matmuls --------------------------------------
#
# A step over many rows is one GEMM per window, M @ P.reshape(r, r * rows),
# on column-major products.  Its bytes equal a per-matrix matmul's only as
# long as BLAS forms every entry as the same dot product whatever the
# matrix's width; a BLAS whose edge kernels round differently fails here.

def _dim5():
    """Full 2-shift, 5x5: its second exterior power is a 10 x 10 rung."""
    q_mat, _ = np.linalg.qr(np.random.default_rng(7).normal(size=(5, 5)))
    return cocycle.WindowCocycle(sft.full_shift(2), 5, 0,
                                 {(0,): np.diag([9.0, 5.0, 2.0, 1.0, 0.5]), (1,): q_mat})


STEP_BATCHES = (1, 2, 3, 5, 8, 9, 4097)
STEP_RUNGS = [pytest.param(mats, id=f"{name} t{t}")
              for name, build in sorted(KERNEL_COCYCLES.items()) for A in [build()]
              for t, mats in enumerate(A._rungs or (A._mats,), start=1)]
STEP_RUNGS.append(pytest.param(_dim5()._rungs[1], id="dim5 t2"))


@pytest.mark.parametrize("mats", STEP_RUNGS)
def test_window_grouped_step_equals_per_matrix_matmul(mats):
    # every demo rung, and the rungs of a 4x4 cocycle, a 6x6 one among them;
    # rows of mixed windows and rows of one window, each from its own
    # product or from a parent's
    r = len(mats[0])
    rng = np.random.default_rng(r)
    for rows in STEP_BATCHES:
        prods = rng.normal(size=(r, r, rows))
        parent = np.sort(rng.integers(0, rows, size=rows))
        for col in (rng.integers(0, len(mats), size=rows), np.full(rows, len(mats) - 1)):
            for take in (None, parent):
                got = cocycle._step(mats, col, prods, take)
                src = np.arange(rows) if take is None else take
                for i in range(rows):
                    ref = np.matmul(mats[col[i]], np.ascontiguousarray(prods[:, :, src[i]]))
                    assert got[:, :, i].tobytes() == ref.tobytes(), (rows, i, take is None)


def _walk_level(A, n, prenecklaces):
    """(parent, window column, parent count) of the level that extends the
    admissible words of length n (the admissible prenecklaces with
    ``prenecklaces``) as the level walk forms it: children from
    ``sft.extend_words``, each window read off a child's last 2k + 1
    symbols."""
    words, lyn = sft.word_array(A.base, 0), np.zeros(1, dtype=np.int64)
    for m in range(n + 1):
        parent, children = sft.extend_words(A.base, words)
        if prenecklaces:
            keep, lyn = sft.prenecklace_step(children, lyn[parent])
            parent, children, lyn = parent[keep], children[keep], lyn[keep]
        if m == n:
            k = A.radius
            return parent, cocycle._window_rows(A, children[:, -(2 * k + 1):])[:, 0], len(words)
        words = children


@pytest.mark.parametrize("name, n, prenecklaces", [
    ("golden r0", 15, False),  # a parent ending in 1 has one child
    ("full r1", 11, False),  # a child's window begins with its parent's last 2k symbols
    ("full r2", 11, False),
    ("skew r1", 11, False),  # heads with different numbers of windows
    ("full r1", 13, True),  # pruned children: some windows of a head go unread
])
def test_step_on_walk_levels_equals_per_matrix_matmul(cocycles, name, n, prenecklaces):
    # every child of a real walk level, on every rung, from its parent's
    # product through the heads its parents are grouped by; the level's
    # children as a batch too, each continuing its own product
    A = cocycles[name]
    parent, col, count = _walk_level(A, n, prenecklaces)
    assert len(col) > 1000
    rng = np.random.default_rng(n)
    for mats in A._rungs:
        r = len(mats[0])
        prods = rng.normal(size=(r, r, count))
        got = cocycle._step(mats, col, prods, parent, A._heads)
        rows = np.ascontiguousarray(prods[:, :, parent])
        batch = cocycle._step(mats, col, rows, None)
        for i in range(len(col)):
            ref = np.matmul(mats[col[i]], np.ascontiguousarray(prods[:, :, parent[i]]))
            assert got[:, :, i].tobytes() == ref.tobytes(), (name, i)
            assert batch[:, :, i].tobytes() == ref.tobytes(), (name, i)


# -- block reductions: each block reduced to what its caller reads ---------
#
# Potentials and gaps are row-wise and a minimum is exact, so reducing each
# block as it comes gives the bytes of reducing each level's full rows
# afterwards; a pressure's log-sum-exp, combined from per-block shares,
# stays within a few ulps of the one over the full rows.

REDUCER_DEMOS = ["golden3x3", "dominated2x2", "radius1"]


def _lengths_over_cap(A, times):
    """A length three below the first with more than times x ROW_CAP
    words, that length and the one after."""
    n = _first_length_over_cap(A, times)
    return [n - 3, n, n + 1]


@pytest.mark.parametrize("times", [1, 2])
@pytest.mark.parametrize("name", REDUCER_DEMOS)
def test_cylinder_weights_equal_potentials_of_the_full_rows(name, times):
    A = demos.DEMOS[name]()
    lengths = _lengths_over_cap(A, times)
    rows = swept(A, lengths, sft.least_fixed_symbol(A.base))
    for s in (0.0, 0.6, 1.0, 1.5, A.dim, A.dim + 0.7):
        weights = thermo.cylinder_weights(A, s, lengths)
        assert sorted(weights) == lengths
        for n in lengths:
            ref = thermo.log_phi_s(rows[n], s)
            assert weights[n].log_weights.tobytes() == ref.tobytes(), (s, n)


@pytest.mark.parametrize("times", [1, 2])
@pytest.mark.parametrize("name", REDUCER_DEMOS)
def test_gap_profile_minima_equal_those_of_the_full_rows(name, times):
    A = demos.DEMOS[name]()
    lengths = _lengths_over_cap(A, times)
    rows = swept(A, lengths, sft.least_fixed_symbol(A.base))
    for i in range(1, A.dim):
        prof = analysis.gap_profile(A, i, lengths)
        ref = [float(np.min(rows[n][:, i - 1] - rows[n][:, i])) for n in lengths]
        assert np.array(prof.minima).tobytes() == np.array(ref).tobytes(), i


D2_DEMOS = sorted(name for name, make in demos.DEMOS.items() if make().dim >= 2)
THEOREM_C_DEMOS = ["typical2x2", "typical3x3", "golden2x2", "golden3x3", "radius1",
                   "dominated2x2", "planted_rotation"]


@pytest.mark.parametrize("name", D2_DEMOS + ["tri r1", "skew r1"])
def test_block_reductions_equal_those_of_the_joined_rows(cocycles, monkeypatch, name):
    # blocks of 40 rows: the longer lengths are reduced over many blocks
    monkeypatch.setattr(cocycle, "ROW_CAP", 40)
    A = cocycles[name] if name in cocycles else demos.DEMOS[name]()
    lengths, base_symbol = list(range(1, 11)), sft.least_fixed_symbol(A.base)
    blocks = collections.Counter(n for n, _ in cocycle.sweep_log_singular(A, lengths, base_symbol))
    assert blocks[10] > 2
    rows = swept(A, lengths, base_symbol)
    for i in range(1, A.dim):
        prof = analysis.gap_profile(A, i, lengths)
        ref = [np.min(rows[n][:, i - 1] - rows[n][:, i]) for n in lengths]
        assert np.array(prof.minima).tobytes() == np.array(ref).tobytes(), i
    for s in (0.6, 1.5, A.dim + 0.7):
        est = thermo.pressure(A, s, lengths)
        for n, p in zip(lengths, est.p_n):
            ref = thermo._logsumexp([thermo._share(thermo.log_phi_s(rows[n], s))]) / n
            assert abs(p - ref) <= 2 * np.spacing(abs(ref)), (s, n, p, ref)


@pytest.mark.parametrize("name", THEOREM_C_DEMOS)
def test_theorem_c_pressures_equal_pressure_over_blocks(monkeypatch, name):
    # blocks of 40 rows: N_RANGE's longer lengths span several blocks, and
    # Theorem C's one sweep must reduce them by pressure's rule
    monkeypatch.setattr(cocycle, "ROW_CAP", 40)
    A = demos.DEMOS[name]()
    B = cocycle.scaled_cocycle(A, 0.3)
    p, z, _ = typicality.find_typical_pair(A)
    cert = typicality.family_certificate([A, B], p, z)
    rep = thermo.theorem_c_experiment(A, B, cert, 4, 1e-9)
    assert next(itertools.islice(sft.word_counts(A.base), max(thermo.N_RANGE) - 1, None)) > 80
    assert rep.pressure_a == thermo.pressure(A, 1.0, thermo.N_RANGE)
    assert rep.pressure_b == thermo.pressure(B, 1.0, thermo.N_RANGE)
    for n, tv in rep.tv_by_n:
        va = thermo.cylinder_weights(A, 1.0, [n])[n].normalized()
        vb = thermo.cylinder_weights(B, 1.0, [n])[n].normalized()
        assert tv == float(0.5 * np.sum(np.abs(va - vb)))


# -- per-step references: one rescaled matmul per step, as a loop -----------


def _ref_ladder(A, x, n, top):
    logs = np.empty(A.dim)
    prev = 0.0
    for t in range(1, A.dim):
        m, s = ref_product_scaled(cocycle.exterior_cocycle(A, t), x, n)
        cur = s * np.log(2.0) + float(np.log(top(m)))
        logs[t - 1] = cur - prev
        prev = cur
    logdet = float(sum(np.linalg.slogdet(A.at(x, j))[1] for j in range(n)))
    logs[A.dim - 1] = logdet - prev
    return logs


def _svd_top(m):
    # the kernel's rule, one matrix at a time: closed forms on 2x2 and on
    # 3x3 Grams whose top two eigenvalues do not cluster, else the root of
    # the top eigenvalue of the Gram matrix
    if len(m) == 2:
        (a, b), (c, d) = m
        return (np.hypot(a + d, b - c) + np.hypot(a - d, b + c)) / 2
    # the Gram matrix's entries are column dot products, summed left to right
    g = np.outer(m[0], m[0])
    for row in m[1:]:
        g = g + np.outer(row, row)
    if len(m) == 3:
        q = (g[0, 0] + g[1, 1] + g[2, 2]) / 3
        b = g - q * np.eye(3)
        p = np.sqrt((b[0, 0] * b[0, 0] + b[1, 1] * b[1, 1] + b[2, 2] * b[2, 2]
                     + 2 * (g[0, 1] * g[0, 1] + g[0, 2] * g[0, 2] + g[1, 2] * g[1, 2])) / 6)
        with np.errstate(invalid="ignore", divide="ignore"):
            b = b / p
            r = (b[0, 0] * (b[1, 1] * b[2, 2] - b[1, 2] * b[1, 2])
                 - b[0, 1] * (b[0, 1] * b[2, 2] - b[1, 2] * b[0, 2])
                 + b[0, 2] * (b[0, 1] * b[1, 2] - b[1, 1] * b[0, 2])) / 2
        if 1 + r >= cocycle.CLUSTERED:
            return np.sqrt(q + 2 * p * np.cos(np.arccos(min(r, 1.0)) / 3))
    return np.sqrt(np.linalg.eigvalsh(g)[-1])


def _eig_top(m):
    # the kernel's rule, one matrix at a time (see conftest.ref_eig_top)
    return ref_eig_top(m)


def _point(A, length, seed, offset):
    word = analysis._sampled_words(A, length, 1, seed)[0]
    return sft.point_from_word(A.base, word, 0).shift(offset)


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(NAMES), n=ORBIT_LENGTHS, length=st.integers(1, 40),
       seed=st.integers(0, 2**16), offset=st.integers(-3, 3))
# an orbit running on into diag(4, 2, 1): its product's last row goes subnormal
@example(name="full r0", n=514, length=2, seed=0, offset=0)
def test_orbit_paths_equal_per_step_references(cocycles, name, n, length, seed, offset):
    A = cocycles[name]
    x = _point(A, length, seed, offset)
    (m, s), _ = synthesis._fold(synthesis._groups((A,))[0], cocycle._orbit_rows(A, x, n), None)
    ref_m, ref_s = ref_product_scaled(A, x, n)
    assert np.array_equal(m[:, :, 0], ref_m) and s[0] == ref_s
    assert np.array_equal(cocycle.orbit_mu_vec(A, x, n), _ref_ladder(A, x, n, _svd_top))


@pytest.mark.parametrize("name", NAMES)
def test_periodic_spectrum_equals_per_orbit_references(cocycles, name):
    A = cocycles[name]
    spectrum = analysis.periodic_spectrum(A, 6)
    assert len(spectrum) == len({orbit_key(sft.PeriodicWord(tuple(w))) for n in range(1, 7)
                                 for w in cycle_array(A.base, sft.word_array(A.base, n))
                                 .tolist()})
    for q, lam in spectrum:
        assert np.array_equal(lam, analysis.periodic_lyapunov(A, q))
        # the product starts at window k, the first the cycle holds whole
        ref = _ref_ladder(A, sft.periodic_point(q).shift(A.radius), q.period,
                          _eig_top) / q.period
        assert np.array_equal(lam, ref)


def _ref_periodic_spectrum(A, max_period):
    """Orbit selection by one orbit_key call per enumerated cycle."""
    out = []
    for n in range(1, max_period + 1):
        words = cycle_array(A.base, sft.word_array(A.base, n))
        cycles = [w for w in map(sft.PeriodicWord, map(tuple, words.tolist()))
                  if orbit_key(w) == w.symbols]
        if cycles:
            rows = cocycle.cycle_chi_rows(A, np.array([w.symbols for w in cycles]))
            out += zip(cycles, rows / n)
    return sorted(out, key=lambda item: item[0].symbols)


@pytest.mark.parametrize("name", NAMES)
def test_periodic_spectrum_equals_orbit_key_reference(cocycles, name):
    A = cocycles[name]
    got = analysis.periodic_spectrum(A, 8)
    ref = _ref_periodic_spectrum(A, 8)
    assert [q for q, _ in got] == [q for q, _ in ref]
    assert all(type(c) is int for q, _ in got for c in q.symbols)
    assert np.array_equal(np.array([lam for _, lam in got]), np.array([lam for _, lam in ref]))


def _brute_spectrum(A, max_period):
    """Every admissible cycle of period <= max_period by itertools, one
    orbit per orbit_key, each orbit's row from ``cycle_chi_rows`` alone."""
    s = A.base
    keys = {orbit_key(sft.PeriodicWord(w)) for n in range(1, max_period + 1)
            for w in itertools.product(range(s.alphabet_size), repeat=n)
            if sft.is_admissible(s, w) and s.allowed(w[-1], w[0])}
    return [(w, cocycle.cycle_chi_rows(A, np.array([w]))[0] / len(w)) for w in sorted(keys)]


ADJACENCY = st.integers(2, 4).flatmap(lambda q: st.lists(
    st.lists(st.integers(0, 1), min_size=q, max_size=q), min_size=q, max_size=q))


@settings(max_examples=30, deadline=None)
@given(adjacency=ADJACENCY, dim=st.integers(2, 3), radius=st.integers(0, 2),
       max_period=st.integers(1, 7), seed=st.integers(0, 2**16))
def test_periodic_spectrum_equals_brute_force_on_random_cocycles(adjacency, dim, radius,
                                                                 max_period, seed):
    # random primitive bases (asymmetric ones among them); at radius 2 the
    # periods 1 and 2 are shorter than the radius, so their windows wrap
    # the cycle more than once
    try:
        base = sft.Sft.from_matrix(adjacency)
    except (ValueError, NotPrimitive):
        # repaired, not rejected (most draws are not primitive): one
        # self-loop and a cycle through every symbol make a primitive mask
        q = len(adjacency)
        mask = np.eye(q, k=1, dtype=int) + np.eye(q, k=1 - q, dtype=int)
        mask[0, 0] = 1
        base = sft.Sft.from_matrix(np.array(adjacency) | mask)
    A = _random_window_cocycle(base, dim, radius, seed)
    got = analysis.periodic_spectrum(A, max_period)
    ref = _brute_spectrum(A, max_period)
    assert [q.symbols for q, _ in got] == [w for w, _ in ref]
    assert all(lam.tobytes() == row.tobytes() for (_, lam), (_, row) in zip(got, ref))


@pytest.mark.parametrize("name, max_period", [
    ("full r0", 12), ("golden r0", 12), ("full r1", 12), ("full r2", 8), ("tri r1", 8),
    ("skew r1", 9)])
def test_spectrum_forms_one_trunk_row_per_prenecklace(cocycles, monkeypatch, name,
                                                      max_period):
    # each level folds one window column into one row per admissible
    # prenecklace, on every rung, once the prenecklace holds a whole window
    # (more than 2k symbols): no row carries a guess of the cycle's last
    # symbols, and pruned children are never multiplied
    A = cocycles[name]
    trunks = []
    extend = cocycle._extend_products

    def recorded(mats, every, idx, prods, scales, take=None, heads=None):
        if take is not None:
            trunks.append((len(idx), idx.shape[1]))
        return extend(mats, every, idx, prods, scales, take, heads)

    monkeypatch.setattr(cocycle, "_extend_products", recorded)
    analysis.periodic_spectrum(A, max_period)
    expect = []
    for m in range(1, max_period + 1):
        rows = sum(map(is_prenecklace, sft.enumerate_words(A.base, m)))
        expect += [(rows, int(m > 2 * A.radius))] * (A.dim - 1)
    assert trunks == expect
    if name in ("full r0", "full r1"):  # 1,679 rows per rung at period 12
        assert sum(rows for rows, _ in trunks) == 1679 * (A.dim - 1)


@settings(max_examples=15, deadline=None)
@given(name=st.sampled_from(NAMES), n=st.integers(1, 30), seed=st.integers(0, 2**16))
def test_batch_rows_equal_reference_ladder(cocycles, name, n, seed):
    A = cocycles[name]
    words = analysis._sampled_words(A, n, 6, seed)
    rows = batch_log_singular(A, words, 0)
    for row, w in zip(rows, words):
        x = sft.point_from_word(A.base, w, 0)
        assert np.array_equal(row, _ref_ladder(A, x, n, _svd_top))


# -- the top rule against np.linalg.svd --------------------------------------
#
# The kernel takes each rung's top singular value from a closed form (2x2,
# and 3x3 Grams) or the Gram matrix of the rescaled product (the references
# above follow the same rule, byte for byte).  Here the log tops are checked
# against np.linalg.svd of the kernel's rescaled products, which those byte
# tests pin to the per-step reference.  The error is relative to max(1,
# |log top|): the log top of a rescaled product lies in [log 1/2, log r] for
# an r x r rung, so the rule's error is absolute there and relative only in
# the scale it is added to.

GRAM_TOL = 16 * np.finfo(float).eps
GRAM_DEMOS = sorted(name for name, build in demos.DEMOS.items() if build().dim >= 2)


def _rescaled(A, rows):
    """Per exterior rung, the kernel's rescaled products (column-major)
    and binary scales over each row of window rows, started from the
    identity."""
    return [cocycle._extend_products(mats, every, rows, p, s) for mats, every, (p, s)
            in zip(A._rungs, A._cadences, cocycle._identity_trunks(A, len(rows)))]


def _assert_log_tops_match_svd(A, rows, got):
    ref = np.column_stack([s * np.log(2.0) + np.log(np.linalg.svd(
        p.transpose(2, 0, 1), compute_uv=False)[:, 0]) for p, s in _rescaled(A, rows)])
    # ladder rows are rung differences: their running sums are the log tops
    err = np.abs(np.cumsum(got, axis=1)[:, :-1] - ref)
    scale = np.maximum(1.0, np.abs(ref).max(axis=1, keepdims=True))
    assert (err <= GRAM_TOL * scale).all(), float((err / scale).max())


def _canonical_rows(A, n):
    a = A.base.fixed_symbols()[0]
    words = np.array(sft.enumerate_words(A.base, n), dtype=np.int64)
    return cocycle._window_rows(A, cocycle._canonical(words, cocycle._pads(A, a)))


@pytest.mark.parametrize("name", GRAM_DEMOS)
def test_sweep_log_tops_match_svd(name):
    A = demos.DEMOS[name]()
    rows = swept(A, range(1, 11), A.base.fixed_symbols()[0])
    for n, got in rows.items():
        _assert_log_tops_match_svd(A, _canonical_rows(A, n), got)


@pytest.mark.parametrize("name", GRAM_DEMOS)
def test_orbit_log_tops_match_svd(name):
    A = demos.DEMOS[name]()
    for n in (1, 37, 1000, 10**4):
        x = _point(A, 40, n, 0)
        got = cocycle.orbit_mu_vec(A, x, n)[None]
        _assert_log_tops_match_svd(A, cocycle._orbit_rows(A, x, n), got)


def test_gram_top_where_singular_values_cluster():
    # every product of rotations is a rotation: sigma1 = sigma2, so the two
    # Gram eigenvalues coincide up to rounding
    A = demos.rotation_only_2x2()
    rows = _canonical_rows(A, 10)
    (prods, _), = _rescaled(A, rows)
    sv = np.linalg.svd(prods.transpose(2, 0, 1), compute_uv=False)
    assert np.allclose(sv[:, 1], sv[:, 0], rtol=1e-13, atol=0)
    _assert_log_tops_match_svd(A, rows, swept(A, [10], 0)[10])


# -- the top rule against 50-digit singular values ----------------------------
#
# Where the top two singular values cluster, np.linalg.svd itself is off by
# tens of eps on 3x3 inputs, so the reference is mpmath's SVD of the same
# float matrices at 50 digits.

CLUSTER_GAPS = [10.0 ** -e for e in range(1, 15)]
TOP_TOL = 4 * np.finfo(float).eps


def _clustered_products(r, rng):
    """Random r x r products with peak entry in [0.5, 1), as the kernel
    holds them, whose second singular value is 1 - gap times the first,
    for each gap in CLUSTER_GAPS; 3x3 ones get a third in (0.05, 0.9) times
    the first."""
    out = []
    for gap in CLUSTER_GAPS:
        for _ in range(12):
            u, _ = np.linalg.qr(rng.normal(size=(r, r)))
            v, _ = np.linalg.qr(rng.normal(size=(r, r)))
            sv = [1.0, 1.0 - gap] + list(rng.uniform(0.05, 0.9, size=r - 2))
            m = (u * sv) @ v.T
            out.append(np.ldexp(m, -np.frexp(np.abs(m).max())[1]))
    return np.array(out)


def _mp_top(m):
    with mpmath.workdps(50):
        return mpmath.svd_r(mpmath.matrix(m.tolist()), compute_uv=False)[0]


@pytest.mark.parametrize("name", ["typical2x2", "typical3x3"])
def test_clustered_tops_match_50_digit_svd(monkeypatch, name):
    A = demos.DEMOS[name]()
    r = A.dim
    prods = _clustered_products(r, np.random.default_rng(r))
    stack = np.ascontiguousarray(prods.transpose(1, 2, 0))  # the kernel's column-major layout
    fallback = []
    eigvalsh = np.linalg.eigvalsh

    def counted(gram):
        fallback.append(len(gram))
        return eigvalsh(gram)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    tops = cocycle._top_singular(stack)
    monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
    if r == 3:
        # the widest gaps take the closed form, the tightest fall back
        assert 0 < sum(fallback) < len(prods)
    else:
        assert not fallback
    # the ladder reads its rungs' tops off the trunks when no window follows
    trunks = [(stack, np.zeros(len(prods), dtype=np.int64)) for _ in A._rungs]
    rows = cocycle._ladder(A, np.zeros((len(prods), 0), dtype=np.int64), trunks,
                           np.zeros(len(prods)))
    ref = [_mp_top(m) for m in prods]
    rel = np.array([float(abs(mpmath.mpf(t) / e - 1)) for t, e in zip(tops, ref)])
    assert (rel <= TOP_TOL).all(), rel.max() / np.finfo(float).eps
    log_ref = np.array([float(mpmath.log(e)) for e in ref])
    for log_tops in np.cumsum(rows, axis=1)[:, :-1].T:
        assert (np.abs(log_tops - log_ref) <= TOP_TOL).all()


# -- the transfer-operator identity --------------------------------------------
#
# For every length n and rung t, the sum over length-n words of
# e_t(sigma_1^2, ..., sigma_d^2) = |wedge^t A^n(w)|_F^2 equals u^T L_t^(n-1) v,
# with L_t the window-transition matrix whose blocks are the Kronecker
# squares of the windows' t-th exterior powers, and u, v the pad boundary
# vectors.  The left side reads the sweep's rows, the right side only the
# table, so the identity checks every level apart from the kernel, its
# rescaling and its top rule.

IDENTITY_COCYCLES = sorted(name for name, build in KERNEL_COCYCLES.items() if build().dim >= 2)


def _wedge(m, t):
    """t-th exterior power by t x t minors, lexicographic index sets."""
    sets = list(itertools.combinations(range(len(m)), t))
    return np.array([[np.linalg.det(m[np.ix_(rows, cols)]) for cols in sets] for rows in sets])


def _log_transfer_sum(A, t, n):
    """log u^T L_t^(n-1) v over window states, canonical pads from symbol 0."""
    k, windows = A.radius, sorted(A.table)
    points = [sft.point_from_word(A.base, (c,), 0) for c in range(A.base.alphabet_size)]
    lpad = [p.coords(-k, -1) for p in points]
    rpad = [p.coords(1, k) for p in points]
    kron = [np.kron(_wedge(A.table[w], t), _wedge(A.table[w], t)) for w in windows]
    e = np.eye(len(_wedge(A.table[windows[0]], t))).ravel()
    size = len(e)
    L = np.zeros((len(windows) * size, len(windows) * size))
    for i, w in enumerate(windows):
        for j, w2 in enumerate(windows):
            if w2[:-1] == w[1:] and A.base.allowed(w[-1], w2[-1]):
                L[j * size:(j + 1) * size, i * size:(i + 1) * size] = kron[j]
    v = np.concatenate([kron[i] @ e if w[:k] == lpad[w[k]] else 0 * e
                        for i, w in enumerate(windows)])
    u = np.concatenate([e if w[k + 1:] == rpad[w[k]] else 0 * e for w in windows])
    for _ in range(n - 1):
        v = L @ v
    return float(np.log(u @ v))


def _log_sum_e_t(rows, t):
    """log of the sum over rows of e_t(exp(2 rows)), by log-sum-exp."""
    terms = np.column_stack([2 * rows[:, list(S)].sum(axis=1)
                             for S in itertools.combinations(range(rows.shape[1]), t)]).ravel()
    top = terms.max()
    return float(top + np.log(np.sum(np.exp(terms - top))))


@pytest.mark.parametrize("name", IDENTITY_COCYCLES)
def test_sweep_levels_satisfy_the_transfer_identity(name):
    A = KERNEL_COCYCLES[name]()
    rows = swept(A, [6, 12], 0)
    for n, level in rows.items():
        for t in range(1, A.dim + 1):
            ref = _log_transfer_sum(A, t, n)
            err = abs(_log_sum_e_t(level, t) - ref)
            assert err <= 8 * np.finfo(float).eps * max(1.0, abs(ref)), (n, t, err)


def _random_window_cocycle(base, dim, radius, seed):
    """Well-conditioned random matrices on every admissible window."""
    rng = np.random.default_rng(seed)
    return cocycle.WindowCocycle(base, dim, radius, {
        w: rng.normal(size=(dim, dim)) + 2 * np.eye(dim)
        for w in sft.enumerate_words(base, 2 * radius + 1)})


RANDOM_BASES = {
    "full2": sft.full_shift(2),
    "golden": sft.golden_mean_shift(),
    "skew": sft.Sft.from_matrix([[1, 1, 0], [1, 0, 1], [1, 0, 0]]),
    # 2 -> 0 and 0 -> 2 are forbidden, so the pads depend on the symbol
    "tri": sft.Sft.from_matrix([[1, 1, 0], [1, 0, 1], [0, 1, 1]]),
}


@settings(max_examples=24, deadline=None)
@given(base=st.sampled_from(sorted(RANDOM_BASES)), dim=st.integers(2, 3),
       radius=st.integers(1, 2), seed=st.integers(0, 2**16),
       n_set=st.sets(st.integers(1, 8), min_size=1, max_size=3))
def test_random_window_cocycles_satisfy_the_transfer_identity(base, dim, radius, seed, n_set):
    # at radius k >= 1 the sweep keeps only each word's last 2k+1 symbols
    # and applies the k windows reading the right pad per target; words
    # shorter than a window read both pads
    A = _random_window_cocycle(RANDOM_BASES[base], dim, radius, seed)
    rows = swept(A, sorted(n_set), 0)
    for n, level in rows.items():
        for t in range(1, dim + 1):
            ref = _log_transfer_sum(A, t, n)
            err = abs(_log_sum_e_t(level, t) - ref)
            assert err <= 8 * np.finfo(float).eps * max(1.0, abs(ref)), (n, t, err)


# -- power-of-two rescaling ---------------------------------------------------


@pytest.mark.parametrize("name", GRAM_DEMOS)
def test_fold_bytes_do_not_depend_on_split_points(name):
    # one kernel call per window column rescales after every step, one call
    # over all columns only at its cadence: rescaling by powers of two is
    # exact, so both hand on the same bytes.  constant_diag41's products
    # diag(4^n, 1) spread by more than 2^1022: at n = 530 the small entry of
    # the rescaled product is subnormal, at n = 10^4 it is 0
    A = demos.DEMOS[name]()
    for n in (530, 10**4):
        x = _point(A, 40, n, 0)
        rows = cocycle._orbit_rows(A, x, n)
        for mats, every in zip(A._rungs, A._cadences):
            whole, whole_scales = cocycle._extend_products(
                mats, every, rows, *cocycle._start(len(mats[0])))
            prods, scales = cocycle._start(len(mats[0]))
            for c in range(n):
                prods, scales = cocycle._extend_products(mats, every, rows[:, c:c + 1],
                                                         prods, scales)
            assert np.array_equal(whole, prods) and np.array_equal(whole_scales, scales)
        if name == "constant_diag41":
            mu = cocycle.orbit_mu_vec(A, x, n)
            assert (mu[0] - mu[1]) / np.log(2.0) > 1022
            assert abs(whole[1, 1, 0]) < np.finfo(float).tiny
            assert (whole[1, 1, 0] > 0) == (n == 530)
