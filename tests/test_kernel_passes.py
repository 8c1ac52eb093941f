"""The kernel's elementwise passes against the longer forms they replace.

The 3x3 top singular value reads six Gram entries in place of the whole
Gram matrix, a rescale takes its peaks with one maximum reduction, and
the ladder writes its rung differences straight into one (N, d) array.
Each must give the bytes of the longer form kept below, on stacks of 1, 2,
7 and more than ``ROW_CAP`` rows with entries scaled by 2^-500 to 2^500,
rows whose top two singular values are equal and rows that are scalar
multiples of signed permutations (a scalar Gram, Smith's p = 0).  The
sweep's word counts, the block offsets of its first cut and the orbit
counts behind the spectrum's budget are held to brute force.
"""

import re
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
       top=st.sampled_from(["svd", "eig"]), seed=st.integers(0, 2**16))
def test_tops_equal_the_stacked_differences(dim, count, lead, top, seed):
    rng = np.random.default_rng(seed)
    sizes = {1: [], 2: [2], 3: [3, 3], 4: [4, 6, 4]}[dim]
    trunks = [(_stack(seed + t, size, count, lead), rng.integers(-2000, 2000, size=count))
              for t, size in enumerate(sizes)]
    logdets = rng.normal(size=count) * 100
    with np.errstate(all="ignore"):
        got = cocycle._tops([(p.copy(), s) for p, s in trunks], logdets, top)
        ref = _ref_tops(trunks, logdets, top)
    assert got.flags.c_contiguous and got.shape == (count, dim)
    assert _same(got, np.ascontiguousarray(ref))


# -- exact counts: words per length, cut offsets, orbits per period --------


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
    # with a small cap the first cut comes early; each block's row at each
    # target must be the number of target words whose prefix at the cut
    # level sorts before the block's first word
    A = cocycles[name]
    monkeypatch.setattr(cocycle, "ROW_CAP", 40)
    n = next(n for n in range(1, 30) if len(sft.word_array(A.base, n)) > 40)
    cuts = []
    cut = cocycle._cut

    def recorded(T, state):
        level, at = state[0], dict(state[5])
        blocks = cut(T, state)
        cuts.append((level, at, [dict(block[5]) for block in blocks]))
        return blocks

    monkeypatch.setattr(cocycle, "_cut", recorded)
    targets = [n, n + 1, n + 3]
    cocycle.sweep_log_singular(A, targets, 0, row_map=lambda rows: rows[:, 0])
    level, at, offsets = cuts[0]
    assert level == n and at == dict.fromkeys(targets, 0) and len(offsets) > 1
    starts = [b.start for b in cocycle._blocks(len(sft.word_array(A.base, n)))]
    rank = {w: i for i, w in enumerate(map(tuple, sft.word_array(A.base, n).tolist()))}
    for m in targets:
        prefixes = [rank[tuple(w[:n])] for w in sft.word_array(A.base, m).tolist()]
        assert [o[m] for o in offsets] == [sum(p < i for p in prefixes) for i in starts]


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
    message = f"periods {over} have more than {budget} orbits"
    with pytest.raises(ValueError, match=re.escape(message)):
        analysis.periodic_spectrum(A, 14)


@pytest.mark.parametrize("command", ["spectrum", "dominate"])
def test_cli_period_over_budget_is_one_error_line(golden_file, monkeypatch, capsys, command):
    _refuse_walk(monkeypatch)
    capsys.readouterr()
    assert main([command, "--input", str(golden_file), "--max-period", "40"]) == 1
    over = [n for n, c in enumerate(sft.orbit_counts(demos.golden_typical_3x3().base, 40), 1)
            if c > analysis.EXHAUSTIVE_BUDGET]
    assert over == list(range(33, 41))
    assert capsys.readouterr().err == (f"error: periods {over} have more than 200000 orbits, "
                                       "the exhaustive budget\n")


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
