"""The kernel's elementwise passes against the longer forms they replace.

The 3x3 top singular value reads six Gram entries in place of the whole
Gram matrix, a rescale takes its peaks with one maximum reduction, and
the ladder writes its rung differences straight into one (N, d) array,
reading the rungs of one matrix size in one call (a single product rung
by rung, on the scalar path).  Each must give the bytes of the longer
form kept below, on stacks of 1, 2, 7 and more than ``ROW_CAP`` rows
with entries scaled by 2^-500 to 2^500, rows whose top two singular
values are equal and rows that are scalar multiples of signed
permutations (a scalar Gram, Smith's p = 0).  The sweep's word counts,
the blocks of the level walk after its first cut and the orbit counts
behind the spectrum's budget are held to brute force; the spectrum's
walk in blocks keeps its bytes and bounds its memory.
"""

import re
import tracemalloc
import warnings
from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coprox import analysis, cocycle, demos, sft, thermo
from coprox.cli import main
from conftest import cycle_array, cyclic_min_rotation, primitive_root


NAMES = ("full r0", "golden r0", "full r1", "full r2", "tri r1", "skew r1")
COUNTS = st.sampled_from([1, 2, 7, cocycle.ROW_CAP + 5])
KINDS = st.sampled_from(["random", "equal top", "scalar"])


def _ref_top_singular(prods):
    """The top singular value from the whole Gram matrix, built from
    broadcast outer products of the rows."""
    size = len(prods)
    if size == 2:
        (a, b), (c, d) = prods
        return (np.hypot(a + d, b - c) + np.hypot(a - d, b + c)) / 2
    gram = prods[0][:, None] * prods[0][None]
    for row in prods[1:]:
        gram += row[:, None] * row[None]
    if size != 3:
        return np.sqrt(np.linalg.eigvalsh(gram.transpose(2, 0, 1))[:, -1])
    (g00, g01, g02), (_, g11, g12), (_, _, g22) = gram
    q = (g00 + g11 + g22) / 3
    b00, b11, b22 = g00 - q, g11 - q, g22 - q
    p = np.sqrt((b00 * b00 + b11 * b11 + b22 * b22
                 + 2 * (g01 * g01 + g02 * g02 + g12 * g12)) / 6)
    with np.errstate(invalid="ignore", divide="ignore"):
        b00, b11, b22, b01, b02, b12 = b00 / p, b11 / p, b22 / p, g01 / p, g02 / p, g12 / p
        r = (b00 * (b11 * b22 - b12 * b12) - b01 * (b01 * b22 - b12 * b02)
             + b02 * (b01 * b12 - b11 * b02)) / 2
        tops = np.sqrt(q + 2 * p * np.cos(np.arccos(np.minimum(r, 1.0)) / 3))
    fall = ~(1 + r >= cocycle.CLUSTERED)
    if fall.any():
        tops[fall] = np.sqrt(np.linalg.eigvalsh(gram[:, :, fall].transpose(2, 0, 1))[:, -1])
    return tops


def _ref_rescale(prods, scales):
    """The rescale with its peaks from r^2 - 1 elementwise maxima."""
    entries = np.abs(prods.reshape(len(prods) ** 2, -1))
    peak = entries[0]
    for entry in entries[1:]:
        np.maximum(peak, entry, out=peak)
    e = np.frexp(peak)[1]
    np.negative(e, out=e)
    return np.ldexp(prods, e, out=prods), scales - e


def _ref_tops(trunks, logdets, top):
    """The rung differences from a stack of levels over a zero level."""
    out = [np.zeros(len(logdets))]
    for prods, scales in trunks:
        tops = cocycle._top_eig(prods) if top == "eig" else _ref_top_singular(prods)
        out.append(scales * cocycle.LN2 + np.log(tops))
    out.append(logdets)
    return np.diff(np.stack(out), axis=0).T


def _stack(seed, size, count, lead):
    """A column-major stack of count size x size matrices: row 0 of the
    kind lead, the others drawn among the three kinds, each row scaled by
    its own power of two between 2^-500 and 2^500.  An "equal top" row
    is U diag(s, s, t, ...) V^T (both top singular values s); a "scalar"
    row is a signed permutation, so its Gram is exactly 2^2e I."""
    rng = np.random.default_rng(seed)
    mats = rng.normal(size=(count, size, size))
    kinds = rng.choice(["random", "equal top", "scalar"], size=count, p=[0.8, 0.1, 0.1])
    kinds[0] = lead
    for i in np.nonzero(kinds == "equal top")[0]:
        u, _ = np.linalg.qr(rng.normal(size=(size, size)))
        v, _ = np.linalg.qr(rng.normal(size=(size, size)))
        values = np.full(size, rng.uniform(1, 4))
        values[2:] = rng.uniform(0.1, 0.9, size=max(size - 2, 0))
        mats[i] = u @ np.diag(values) @ v.T
    for i in np.nonzero(kinds == "scalar")[0]:
        mats[i] = 0.0
        mats[i][np.arange(size), rng.permutation(size)] = rng.choice([-1.0, 1.0], size=size)
    # half the rows far out, where Smith's sums overflow or underflow
    far = rng.random(count) < 0.5
    mats *= 2.0 ** np.where(far, rng.integers(-500, 501, size=count),
                            rng.integers(-8, 9, size=count))[:, None, None]
    return np.ascontiguousarray(mats.transpose(1, 2, 0))


def _same(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=40, deadline=None)
@given(size=st.sampled_from([2, 3, 4]), count=COUNTS, lead=KINDS, seed=st.integers(0, 2**16))
def test_top_singular_equals_the_whole_gram_form(size, count, lead, seed):
    prods = _stack(seed, size, count, lead)
    with np.errstate(all="ignore"):
        got, ref = cocycle._top_singular(prods.copy()), _ref_top_singular(prods)
    assert _same(got, ref)


@pytest.mark.parametrize("size", [2, 3, 4])
def test_a_product_alone_gets_its_batch_bytes(size):
    # a stack of one 3x3 product runs the top on numpy scalars
    prods = _stack(size, size, 400, "random")
    with np.errstate(all="ignore"):
        batch = cocycle._top_singular(prods)
        alone = [cocycle._top_singular(prods[:, :, i:i + 1]) for i in range(400)]
    assert all(a.shape == (1,) for a in alone)
    assert _same(np.concatenate(alone), batch)


@pytest.mark.parametrize("lead", ["equal top", "scalar"])
@pytest.mark.parametrize("count", [1, 2, 7, cocycle.ROW_CAP + 5])
def test_fallback_rows_take_the_whole_gram(monkeypatch, count, lead):
    # rows whose top two Gram eigenvalues meet, or whose Gram is scalar,
    # hand eigvalsh the same symmetric Gram matrices as the whole form
    prods = _stack(count, 3, count, lead)
    handed = []
    eigvalsh = np.linalg.eigvalsh

    def recorded(a, *args, **kwargs):
        handed.append(np.array(a))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", recorded)
    with np.errstate(all="ignore"):
        got = cocycle._top_singular(prods)
        new, handed[:] = handed[:], []
        ref = _ref_top_singular(prods)
    assert _same(got, ref)
    assert len(new) == len(handed) == 1
    assert _same(new[0], np.ascontiguousarray(handed[0]))


@settings(max_examples=40, deadline=None)
@given(size=st.sampled_from([1, 2, 3, 4, 6]), count=COUNTS, lead=KINDS,
       seed=st.integers(0, 2**16))
def test_rescale_equals_the_elementwise_maxima(size, count, lead, seed):
    prods = _stack(seed, size, count, lead)
    scales = np.random.default_rng(seed).integers(-2000, 2000, size=count)
    got_prods, got_scales = cocycle._rescale(prods.copy(), scales)
    ref_prods, ref_scales = _ref_rescale(prods.copy(), scales)
    assert _same(got_prods, ref_prods) and _same(got_scales, ref_scales)


@settings(max_examples=30, deadline=None)
@given(dim=st.sampled_from([1, 2, 3, 4]), count=COUNTS, lead=KINDS,
       top=st.sampled_from(["svd", "eig"]), seed=st.integers(0, 2**16),
       pieces=st.integers(1, 3))
def test_tops_equal_the_stacked_differences(dim, count, lead, top, seed, pieces):
    # the reference reads each rung in a call of its own; _tops reads the
    # same-size rungs (both at d = 3, rungs 1 and 3 at d = 4) in one call
    # over their joined stacks, and a rung handed as a list of stacks, as
    # the spectrum's flushes hand it, joins in that same call
    rng = np.random.default_rng(seed)
    sizes = {1: [], 2: [2], 3: [3, 3], 4: [4, 6, 4]}[dim]
    trunks = [(_stack(seed + t, size, count, lead), rng.integers(-2000, 2000, size=count))
              for t, size in enumerate(sizes)]
    logdets = rng.normal(size=count) * 100
    cuts = sorted(rng.choice(np.arange(1, count), size=min(pieces, count) - 1, replace=False))
    with np.errstate(all="ignore"):
        got = cocycle._tops([(p.copy(), s) for p, s in trunks], logdets, top)
        split = cocycle._tops([(np.split(p.copy(), cuts, axis=2), s) for p, s in trunks],
                              logdets, top)
        ref = np.ascontiguousarray(_ref_tops(trunks, logdets, top))
    assert got.flags.c_contiguous and got.shape == (count, dim)
    assert _same(got, ref) and _same(split, ref)


def _recorded_reads(monkeypatch):
    """Per ``_tops`` call, its row count and the shapes of the stacks it
    hands to the top readers."""
    calls = []

    def wrap(read, record):
        def recorded(*args):
            record(args)
            return read(*args)
        return recorded

    monkeypatch.setattr(cocycle, "_tops", wrap(cocycle._tops,
                                               lambda args: calls.append((len(args[1]), []))))
    for name in ("_top_singular", "_top_eig"):
        monkeypatch.setattr(cocycle, name, wrap(getattr(cocycle, name),
                                                lambda args: calls[-1][1].append(args[0].shape)))
    return calls


@pytest.mark.parametrize("fixture, sizes", [("typical3", {3: 2}), ("dim4", {4: 2, 6: 1})])
def test_one_top_read_per_rung_size(request, monkeypatch, fixture, sizes):
    # a d = 3 sweep or spectrum reads both 3x3 rungs in one call per block,
    # over twice the block's rows; at d = 4 rungs 1 and 3 share a call
    A = request.getfixturevalue(fixture)
    calls = _recorded_reads(monkeypatch)
    cocycle.sweep_log_singular(A, range(1, 11), 0)
    cocycle.lyndon_chi_rows(A, 10)
    assert sum(rows > 1 for rows, _ in calls) > 10
    for rows, shapes in calls:
        if rows > 1:
            assert shapes == [(r, r, rungs * rows) for r, rungs in sizes.items()]


@pytest.mark.parametrize("fixture, sizes", [("typical3", [3, 3]), ("dim4", [4, 6, 4])])
def test_one_row_ladders_read_each_rung_on_the_scalar_path(request, monkeypatch, fixture,
                                                           sizes):
    # a single product costs less on the tops' scalar path than in a 2-row
    # vector read, so it is read rung by rung
    A = request.getfixturevalue(fixture)
    calls = _recorded_reads(monkeypatch)
    cocycle.orbit_mu_vec(A, sft.point_from_word(A.base, (0, 1, 1), 0), 3)
    analysis.periodic_lyapunov(A, sft.PeriodicWord((0, 1, 1)))
    cocycle.batch_log_singular(A, [(0, 1, 1)], 0)
    assert calls == [(1, [(r, r, 1) for r in sizes])] * 3


# -- exact counts: words per length, walk blocks, orbits per period --------


@pytest.mark.parametrize("name", NAMES)
def test_word_counts_equal_enumerated_words(cocycles, name):
    s = cocycles[name].base
    assert list(islice(sft.word_counts(s), 12)) == [len(sft.word_array(s, n))
                                                   for n in range(1, 13)]


@pytest.mark.parametrize("name", NAMES)
def test_orbit_counts_equal_distinct_primitive_cycles(cocycles, name):
    s = cocycles[name].base
    brute = []
    for n in range(1, 11):
        cycles = [tuple(w) for w in cycle_array(s, sft.word_array(s, n)).tolist()]
        brute.append(len({cyclic_min_rotation(w) for w in cycles if primitive_root(w) == w}))
    assert sft.orbit_counts(s, 10) == brute


@pytest.mark.parametrize("name", NAMES)
def test_first_cut_offsets_equal_brute_force(cocycles, monkeypatch, name):
    # the walk keeps no offsets: with a small cap the first cut comes early,
    # and each block of each later level must hold the slice of that level's
    # sorted words that starts after the rows of the blocks before it.  The
    # sweep's step runs with each row's whole word as its aux, which also
    # carries aux through the cuts
    A, k = cocycles[name], cocycles[name].radius
    monkeypatch.setattr(cocycle, "ROW_CAP", 40)
    lpads, _ = cocycle._pads(A, 0)

    def step(parent, words, whole):
        whole = np.concatenate([whole[parent], words[:, -1:]], axis=1)
        if words.shape[1] == 1:
            words = np.concatenate([lpads[words[:, 0]], words], axis=1)
        return parent, words[:, -(2 * k + 1):], whole

    n = next(n for n in range(1, 30) if len(sft.word_array(A.base, n)) > 40)
    root = np.zeros((1, 0), dtype=np.int64)
    rows, blocks = {}, {}
    for m, _, whole, _, _ in cocycle._levels(A, step, n + 3, root, root):
        at = rows.get(m, 0)
        assert np.array_equal(whole, sft.word_array(A.base, m)[at:at + len(whole)])
        assert len(whole) <= 40
        rows[m], blocks[m] = at + len(whole), blocks.get(m, 0) + 1
    assert rows == {m: len(sft.word_array(A.base, m)) for m in range(1, n + 4)}
    assert blocks[n - 1] == 1 < blocks[n]


WALK_NAMES = sorted(demos.DEMOS) + list(NAMES)


@pytest.mark.parametrize("name", WALK_NAMES)
def test_spectrum_walk_in_blocks_keeps_its_bytes(cocycles, monkeypatch, name):
    # with a cap of 40 rows every level past the first few is cut; the
    # spectrum must keep the default walk's bytes and cycle_chi_rows' rows,
    # and no kernel batch may exceed the cap
    A = demos.get_demo(name) if name in demos.DEMOS else cocycles[name]
    period = 14

    def flat(walk):
        pairs = sorted((tuple(c), r.tobytes()) for cycles, rows in walk
                       for c, r in zip(cycles.tolist(), rows))
        return [c for c, _ in pairs], b"".join(r for _, r in pairs)

    whole = flat(cocycle.lyndon_chi_rows(A, period))
    monkeypatch.setattr(cocycle, "ROW_CAP", 40)
    sizes = []
    extend = cocycle._extend_products

    def recorded(mats, every, idx, prods, scales, take=None):
        sizes.append(len(idx))
        return extend(mats, every, idx, prods, scales, take)

    monkeypatch.setattr(cocycle, "_extend_products", recorded)
    walk = cocycle.lyndon_chi_rows(A, period)
    assert flat(walk) == whole
    for cycles, rows in walk:
        assert rows.tobytes() == cocycle.cycle_chi_rows(A, cycles).tobytes()
    assert max(sizes, default=0) <= 40
    assert len(walk) > 1 and len(whole[0]) == sum(sft.orbit_counts(A.base, period))


def test_spectrum_walk_traced_peak_is_bounded(typical3):
    # the walk holds blocks of at most ROW_CAP rows, not whole levels: its
    # peak at period 18 (31,042 orbits, about 1.3 MB of output) was 18 MB
    # when it held whole levels, and is about 5 MB in blocks
    cocycle.lyndon_chi_rows(typical3, 4)  # the cocycle's tables, built once
    tracemalloc.start()
    try:
        walk = cocycle.lyndon_chi_rows(typical3, 18)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(len(cycles) for cycles, _ in walk) == 31042
    assert peak < 8e6


# -- boundaries: orbits over budget, a pressure that is not finite ---------


@pytest.fixture(scope="module")
def golden_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("passes") / "golden3x3.json"
    assert main(["demo", "golden3x3", "--out", str(path)]) == 0
    return path


def _refuse_walk(monkeypatch):
    def walk(*args):
        raise AssertionError("the orbit walk started")
    monkeypatch.setattr(analysis, "lyndon_chi_rows", walk)


def test_spectrum_rejects_periods_over_budget_before_walking(monkeypatch):
    A = demos.golden_typical_3x3()
    counts = sft.orbit_counts(A.base, 14)
    budget = 10
    over = [n for n, c in enumerate(counts, 1) if c > budget]
    assert over and max(n for n in range(1, 15) if n not in over) < min(over)
    monkeypatch.setattr(analysis, "EXHAUSTIVE_BUDGET", budget)
    below = min(over) - 1
    assert len(analysis.periodic_spectrum(A, below)) == sum(counts[:below])
    _refuse_walk(monkeypatch)
    message = f"periods {min(over)}..14 have more than {budget} orbits"
    with pytest.raises(ValueError, match=re.escape(message)):
        analysis.periodic_spectrum(A, 14)


def test_refused_periods_are_named_as_runs(monkeypatch):
    # orbit counts are not monotone: the full 2-shift has 2, 1, 2, 3, 6, ...
    # orbits of period 1, 2, 3, ..., so a budget of 1 refuses 1 and 3 on
    A = demos.typical_2x2()
    assert sft.orbit_counts(A.base, 4) == [2, 1, 2, 3]
    monkeypatch.setattr(analysis, "EXHAUSTIVE_BUDGET", 1)
    _refuse_walk(monkeypatch)
    with pytest.raises(ValueError, match=r"^periods 1, 3\.\.9 have more than 1 orbits, "
                                         r"the exhaustive budget$"):
        analysis.periodic_spectrum(A, 9)


@pytest.mark.parametrize("command", ["spectrum", "dominate"])
def test_cli_period_over_budget_is_one_error_line(golden_file, monkeypatch, capsys, command):
    _refuse_walk(monkeypatch)
    capsys.readouterr()
    assert main([command, "--input", str(golden_file), "--max-period", "40"]) == 1
    over = [n for n, c in enumerate(sft.orbit_counts(demos.golden_typical_3x3().base, 40), 1)
            if c > analysis.EXHAUSTIVE_BUDGET]
    assert over == list(range(33, 41))
    assert capsys.readouterr().err == ("error: periods 33..40 have more than 200000 orbits, "
                                       "the exhaustive budget\n")
    # 29,968 refused periods are one run, not a list of every period
    assert main([command, "--input", str(golden_file), "--max-period", "30000"]) == 1
    assert capsys.readouterr().err == ("error: periods 33..30000 have more than 200000 "
                                       "orbits, the exhaustive budget\n")


def test_pressure_that_is_not_finite_is_an_error_naming_s():
    A = demos.golden_typical_3x3()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"s = 1e\+308 is not finite"):
            thermo.pressure(A, 1e308, range(1, 6))
        assert np.isfinite(thermo.pressure(A, 1e3, range(1, 6)).p_n).all()


def test_cli_pressure_that_is_not_finite_is_one_error_line(golden_file, capsys):
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        status = main(["pressure", "--input", str(golden_file), "--s", "1e308", "--n-max", "5"])
    captured = capsys.readouterr()
    assert status == 1 and captured.out == ""
    assert captured.err.startswith("error: P_n at s = 1e+308 is not finite")
    assert captured.err.count("\n") == 1
