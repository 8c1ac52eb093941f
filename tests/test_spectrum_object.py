"""The periodic spectrum as sorted arrays: the sequence it presents, its
word order and report rows, the least-gap pass of Theorem B, and the
reports built on them, each against the per-orbit rule it replaced."""

import numpy as np
import pytest

from coprox import analysis, cli, cocycle, demos, sft, thermo
from coprox.analysis import PeriodicSpectrum, least_gap, periodic_spectrum
from conftest import cyclic_min_rotation, primitive_root


def _loop_least_gap(spectrum, i):
    """Theorem B's former per-orbit loop: the first strict minimum in word
    order, which skips NaN gaps because nan < gap is false."""
    gap, argmin = np.inf, ""
    for q, lyap in spectrum:
        g = float(lyap[i - 1] - lyap[i])
        if g < gap:
            gap, argmin = g, "".join(str(c) for c in q.symbols)
    return gap, argmin


def _bytes(result):
    gap, word = result
    return np.float64(gap).tobytes(), word


def _former_differences(A, B, max_period):
    """``top_exponent_differences``' former rule: A's rows looked up by
    word in a dict."""
    spec_a = dict(periodic_spectrum(A, max_period))
    return [("".join(map(str, q.symbols)), float(spec_a[q][0] - lam_b[0]))
            for q, lam_b in periodic_spectrum(B, max_period)]


def _ring(size):
    """A cycle graph on size symbols with self-loops, stepped both ways."""
    T = np.zeros((size, size), dtype=int)
    for a in range(size):
        T[a, a] = T[a, (a + 1) % size] = T[(a + 1) % size, a] = 1
    return sft.Sft.from_matrix(T)


def _orbit_keys(s, max_period):
    """The least rotation of every primitive admissible cycle, by a walk
    over successor lists."""
    nexts = [np.nonzero(s.matrix()[a])[0].tolist() for a in range(s.alphabet_size)]
    words = [(a,) for a in range(s.alphabet_size)]
    keys = set()
    for _ in range(max_period):
        keys |= {cyclic_min_rotation(w) for w in words
                 if s.allowed(w[-1], w[0]) and primitive_root(w) == w}
        words = [w + (c,) for w in words for c in nexts[w[-1]]]
    return sorted(keys)


def test_spectrum_is_a_sequence_of_words_and_rows(typical3):
    spectrum = periodic_spectrum(typical3, 8)
    pairs = list(spectrum)
    assert len(spectrum) == len(pairs) == sum(sft.orbit_counts(typical3.base, 8))
    for i in (0, 5, len(pairs) - 1, -1, -len(pairs)):
        for index in (i, np.int64(i), np.int32(i)):
            q, row = spectrum[index]
            assert q == pairs[i][0] and row.tobytes() == pairs[i][1].tobytes()
    for outside in (len(pairs), -len(pairs) - 1):
        with pytest.raises(IndexError):
            spectrum[outside]
    with pytest.raises(TypeError):
        spectrum[1.0]
    words = [q.symbols for q, _ in pairs]
    assert words == sorted(words)
    assert all(type(c) is int for w in words for c in w)
    assert [q.period for q, _ in pairs] == [len(w) for w in words]
    part = spectrum[3:9]
    assert isinstance(part, PeriodicSpectrum)
    assert [q for q, _ in part] == [q for q, _ in pairs[3:9]]


@pytest.fixture(scope="module")
def ring200():
    """2x2 matrices over a 200-symbol ring: symbols 128..199 overflow a
    signed byte."""
    rng = np.random.default_rng(3)
    return cocycle.WindowCocycle(_ring(200), 2, 0, {
        (a,): np.eye(2) + 0.3 * rng.standard_normal((2, 2)) for a in range(200)})


def test_spectrum_over_more_symbols_than_int8_holds(ring200):
    # the pad must still sort before every symbol
    A = ring200
    spectrum = periodic_spectrum(A, 3)
    keys = _orbit_keys(A.base, 3)
    assert len(keys) == 800 and keys[-1] == (199,)
    assert [q.symbols for q, _ in spectrum] == keys
    assert all(type(c) is int for q, _ in spectrum for c in q.symbols)
    for q, row in spectrum:
        ref = cocycle.cycle_chi_rows(A, np.array([q.symbols])) / q.period
        assert row.tobytes() == ref[0].tobytes()
    assert spectrum[np.int64(-1)][0].symbols == (199,)


@pytest.mark.parametrize("name", ["typical3x3", "golden3x3", "radius1", "ring200"])
def test_table_rows_are_the_written_words_and_floats(request, name):
    # words of one-digit symbols, and of up to three digits on the ring
    A = request.getfixturevalue(name) if name == "ring200" else demos.get_demo(name)
    spectrum = periodic_spectrum(A, 3 if name == "ring200" else 14)
    table = [tuple(row) for block in spectrum.table() for row in block.tolist()]
    expected = [(q.period, "".join(map(str, q.symbols)), *row.tolist()) for q, row in spectrum]
    assert table == expected
    assert all(type(v) is float for row in table for v in row[2:])


def test_spectrum_csv_lines_write_every_value_as_fmt(typical3):
    # the spectrum command's "%" template against write_csv's _fmt, over
    # three blocks of rows with infinities, NaN, signed zeros, subnormals
    # and 17-digit values planted in each
    spectrum = periodic_spectrum(typical3, 16)
    rows = spectrum.rows.copy()
    planted = [np.inf, -np.inf, np.nan, -0.0, 0.0, 5e-324, -2.5e-310, 1 / 3, -1e300,
               1e16, 0.1, 123456789.0, -7.0]
    for at in (0, cocycle.ROW_CAP - 2, len(rows) - 5):
        rows.flat[at * 3:at * 3 + len(planted)] = planted
    spectrum = PeriodicSpectrum(spectrum.cycles, spectrum.periods, rows)
    assert len(spectrum) > 2 * cocycle.ROW_CAP
    expected = "".join(",".join(map(cli._fmt, row)) + "\n"
                       for block in spectrum.table() for row in block.tolist())
    assert "".join(cli._spectrum_lines(spectrum, 3)) == expected
    assert "nan" in expected and ",-0," in expected and "-inf" in expected


@pytest.mark.parametrize("name", sorted(demos.DEMOS))
def test_least_gap_equals_the_former_loop(name):
    A = demos.get_demo(name)
    spectrum = periodic_spectrum(A, 8)
    for i in range(1, A.dim):
        assert _bytes(least_gap(spectrum, i)) == _bytes(_loop_least_gap(spectrum, i))


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_least_gap_keeps_the_first_tie_and_skips_nan_gaps(typical2):
    spectrum = periodic_spectrum(typical2, 6)
    rows = spectrum.rows.copy()
    rows[:, 0] = rows[:, 1] + 1.0
    rows[[4, 9]] = [0.5, 0.25]  # a tie for the least gap
    rows[[0, 2]] = -np.inf  # NaN gaps, -inf - -inf, before it
    planted = PeriodicSpectrum(spectrum.cycles, spectrum.periods, rows)
    word = "".join(map(str, spectrum[4][0].symbols))
    assert least_gap(planted, 1) == _loop_least_gap(planted, 1) == (0.25, word)
    rows[:] = -np.inf  # no gap at all
    assert least_gap(planted, 1) == _loop_least_gap(planted, 1) == (np.inf, "")
    assert least_gap(spectrum[:0], 1) == _loop_least_gap(spectrum[:0], 1) == (np.inf, "")


@pytest.mark.parametrize("name", ["typical2x2", "dominated2x2", "golden3x3"])
def test_compare_and_dominate_reports_keep_their_bytes(tmp_path, monkeypatch, capsys, name):
    # the reports equal those of the former per-orbit rules: the loop for
    # Theorem B's least gap, a dict lookup by word for the differences.  B
    # is A scaled (a constant difference) or perturbed in one window (not
    # constant, with a witness pair)
    A = demos.get_demo(name)
    table = {w: m.copy() for w, m in A.table.items()}
    last = sorted(table)[-1]
    table[last] = table[last] + 1e-2 * np.eye(A.dim)[::-1]
    paths = {"a": A, "scaled": cocycle.scaled_cocycle(A, 0.25),
             "perturbed": cocycle.WindowCocycle(A.base, A.dim, A.radius, table)}
    for key, C in paths.items():
        cocycle.save_cocycle(C, tmp_path / f"{key}.json")

    def reports(tag):
        out = tmp_path / tag
        out.mkdir()
        a = str(tmp_path / "a.json")
        for i in range(1, A.dim):
            cli.main(["dominate", "--input", a, "--index", str(i), "--max-period", "8",
                      "--out", str(out / f"dominate{i}.json")])
        for b in ("scaled", "perturbed"):
            cli.main(["compare", "--input", a, "--input-b", str(tmp_path / f"{b}.json"),
                      "--out", str(out / f"compare-{b}.json")])
        return {p.name: p.read_bytes() for p in out.iterdir()}, capsys.readouterr()

    new = reports("new")
    assert new[1].out.count("constant c = ") == 1 and new[1].err.count("not constant") == 1
    monkeypatch.setattr(analysis, "least_gap", _loop_least_gap)
    monkeypatch.setattr(thermo, "top_exponent_differences", _former_differences)
    assert reports("old") == new
    assert len(new[0]) == A.dim + 1
