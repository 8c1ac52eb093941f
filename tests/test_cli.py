import argparse
import json

import jsonschema
import numpy as np
import pytest

from coprox import cli, sft, synthesis, thermo, typicality
from coprox.cli import main
from coprox.cocycle import WindowCocycle, load_cocycle, save_cocycle, scaled_cocycle
from coprox.errors import SynthesisFailed
from conftest import cycle_array, orbit_key

CERT_SCHEMA = {
    "type": "object",
    "required": ["schema", "passed", "members"],
    "properties": {
        "schema": {"const": "coprox/certificate/1"},
        "passed": {"type": "boolean"},
        "members": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["label", "pinch_margin"],
            },
        },
    },
}

SYNTH_SCHEMA = {
    "type": "object",
    "required": ["schema", "q", "n_q", "j", "bound_value", "proximal_all"],
    "properties": {
        "schema": {"const": "coprox/synthesis/1"},
        "q": {"type": "string"},
        "n_q": {"type": "integer"},
        "j": {"type": "integer"},
        "proximal_all": {"type": "boolean"},
    },
}

PRESSURE_SCHEMA = {
    "type": "object",
    "required": ["schema", "s", "n_range", "p_n", "value"],
    "properties": {"schema": {"const": "coprox/pressure/1"}},
}

THEOREM_A_SCHEMA = {
    "type": "object",
    "required": ["schema", "empirical_c", "empirical_k", "slope", "samples"],
    "properties": {"schema": {"const": "coprox/theorem-a/1"}},
}

DOMINATION_SCHEMA = {
    "type": "object",
    "required": ["schema", "periodic_gap", "fit_slope", "r_squared", "verdict"],
    "properties": {"schema": {"const": "coprox/domination/1"}},
}

EQUAL_STATES_SCHEMA = {
    "type": "object",
    "required": ["schema", "constant"],
    "properties": {"schema": {"const": "coprox/equal-states/1"}},
}


@pytest.fixture(scope="module")
def demo_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "typical2x2.json"
    assert main(["demo", "typical2x2", "--out", str(path)]) == 0
    return path


def test_demo_writes_valid_cocycle(demo_file):
    data = json.loads(demo_file.read_text())
    assert data["schema"] == "coprox/cocycle/1"
    assert data["alphabet"] == 2 and data["dim"] == 2 and data["radius"] == 0
    assert len(data["entries"]) == 2


def test_check_pass(demo_file, tmp_path):
    out = tmp_path / "cert.json"
    assert main(["check", "--input", str(demo_file), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    jsonschema.validate(doc, CERT_SCHEMA)
    assert doc["passed"] is True


def test_check_informative_negative(tmp_path):
    rot = tmp_path / "rot.json"
    assert main(["demo", "rotation", "--out", str(rot)]) == 0
    assert main(["check", "--input", str(rot)]) == 2


def test_check_missing_file(tmp_path):
    assert main(["check", "--input", str(tmp_path / "nope.json")]) == 1


def test_check_malformed_file(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"alphabet": 2, "adjacency": [[1,1],[1,1]]}')
    assert main(["check", "--input", str(bad)]) == 1


def test_scalar_matrix_entry_is_an_input_error(demo_file, tmp_path, capsys):
    data = json.loads(demo_file.read_text())
    data["entries"][1]["matrix"] = 5
    bad = tmp_path / "scalar.json"
    bad.write_text(json.dumps(data))
    assert main(["check", "--input", str(bad)]) == 1
    assert capsys.readouterr().err == "input error: matrix for window (1,) has shape ()\n"


@pytest.mark.parametrize("field, message", [
    ("adjacency", "adjacency: must be a matrix, a list of rows"),
    ("entries", "entries must be a list"),
])
def test_scalar_field_is_an_input_error(demo_file, tmp_path, capsys, field, message):
    data = json.loads(demo_file.read_text())
    data[field] = 5
    bad = tmp_path / "scalar.json"
    bad.write_text(json.dumps(data))
    assert main(["check", "--input", str(bad)]) == 1
    assert capsys.readouterr().err == f"input error: {message}\n"


@pytest.mark.parametrize("field, value, message", [
    ("schema", "x", "schema must be 'coprox/cocycle/1', got 'x'"),
    ("schema", "coprox/certificate/1",
     "schema must be 'coprox/cocycle/1', got 'coprox/certificate/1'"),
    ("schema", None, "cocycle file missing or malformed field: 'schema'"),
    ("dim", 2.5, "dim must be an integer, got 2.5"),
    ("dim", 2.0, "dim must be an integer, got 2.0"),
    ("dim", True, "dim must be an integer, got True"),
    ("radius", "0", "radius must be an integer, got '0'"),
    ("alphabet", 2.0, "alphabet must be an integer, got 2.0"),
], ids=["other-schema", "certificate-schema", "no-schema", "fractional-dim", "float-dim",
        "bool-dim", "string-radius", "float-alphabet"])
def test_schema_and_sizes_are_checked(demo_file, tmp_path, capsys, field, value, message):
    # None deletes the field
    data = json.loads(demo_file.read_text())
    if value is None:
        del data[field]
    else:
        data[field] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    assert main(["check", "--input", str(bad)]) == 1
    assert capsys.readouterr().err == f"input error: {message}\n"


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("command", ["synthesize", "verify-bound"])
def test_base_without_fixed_symbol_is_an_error(tmp_path, capsys, command, dim):
    # primitive, but no symbol may follow itself: no fixed point to bridge to
    base = sft.Sft.from_matrix([[0, 1, 0], [0, 0, 1], [1, 1, 0]])
    path = tmp_path / "nofixed.json"
    save_cocycle(WindowCocycle(base, dim, 0, {(a,): (a + 2.0) * np.eye(dim) for a in range(3)}),
                 path)
    argv = {"synthesize": ["--word", "012"],
            "verify-bound": ["--seed", "1", "--samples", "2", "--n-max", "6"]}[command]
    assert main([command, "--input", str(path), *argv]) == 1
    err = capsys.readouterr().err
    assert err == "error: no symbol a with T[a][a] = 1\n"


@pytest.mark.parametrize("order", ["golden-first", "full-first"])
def test_compare_over_different_subshifts_is_an_error(tmp_path, capsys, monkeypatch, order):
    def no_sweep(*args, **kwargs):
        raise AssertionError("the shared base must be checked before any sweep")

    monkeypatch.setattr(thermo, "sweep_log_singular", no_sweep)
    names = ["golden2x2", "typical2x2"][::1 if order == "golden-first" else -1]
    paths = [tmp_path / f"{name}.json" for name in names]
    for name, path in zip(names, paths):
        assert main(["demo", name, "--out", str(path)]) == 0
    capsys.readouterr()
    assert main(["compare", "--input", str(paths[0]), "--input-b", str(paths[1]),
                 "--max-period", "3"]) == 1
    assert capsys.readouterr().err == "error: family members must share one base subshift\n"


def test_synthesize(demo_file, tmp_path):
    out = tmp_path / "syn.json"
    assert main(["synthesize", "--input", str(demo_file), "--word", "111",
                 "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    jsonschema.validate(doc, SYNTH_SCHEMA)
    assert doc["proximal_all"] is True
    q = doc["q"]
    assert "111" in q + q  # literal shadowing, cyclically


def test_synthesize_long_word_failure_exits_two(tmp_path, capsys, monkeypatch):
    # a 160-symbol typical3x3 word (markov_sample(A, 160, 5)) certifies;
    # a synthesis failure for it (planted here) is exit 2 with one line and
    # a failed record, not an error
    path = tmp_path / "typical3x3.json"
    assert main(["demo", "typical3x3", "--out", str(path)]) == 0
    word = ("11010110100010000001011000010111001011101110010001010011110011100100"
            "10100100000110011000011101101001101100111001011001011110100110011110"
            "010000011001010111110100")
    out = tmp_path / "syn.json"
    args = ["synthesize", "--input", str(path), "--word", word, "--out", str(out)]
    assert main(args) == 0
    doc = json.loads(out.read_text())
    jsonschema.validate(doc, SYNTH_SCHEMA)
    assert doc["proximal_all"] is True and doc["n"] == 160
    assert np.isfinite(doc["bound_value"])

    def failing(*args, **kwargs):
        raise SynthesisFailed("planted failure")

    monkeypatch.setattr(synthesis, "build_proximal_periodic", failing)
    capsys.readouterr()
    assert main(args) == 2
    assert capsys.readouterr().err == "synthesis failed: planted failure\n"
    assert json.loads(out.read_text()) == {"schema": "coprox/synthesis/1",
                                           "failed": "planted failure"}


def test_spectrum_row_count(demo_file, tmp_path):
    out = tmp_path / "spec.csv"
    assert main(["spectrum", "--input", str(demo_file), "--max-period", "3",
                 "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "# schema=coprox/spectrum/1"
    assert lines[1] == "period,word,lambda_1,lambda_2"
    assert len(lines) - 2 == 5  # orbit count for the full 2-shift up to 3


def test_spectrum_golden_orbit_count(tmp_path):
    # independent oracle: dedup the enumerated cycles by rotation class
    g_path = tmp_path / "g.json"
    assert main(["demo", "golden2x2", "--out", str(g_path)]) == 0
    out = tmp_path / "gspec.csv"
    assert main(["spectrum", "--input", str(g_path), "--max-period", "3",
                 "--out", str(out)]) == 0
    golden = sft.golden_mean_shift()
    orbits = set()
    for n in (1, 2, 3):
        for w in cycle_array(golden, sft.word_array(golden, n)).tolist():
            orbits.add(orbit_key(sft.PeriodicWord(tuple(w))))
    rows = out.read_text().strip().split("\n")[2:]
    assert len(rows) == len(orbits)


def test_pressure_json_and_csv(demo_file, tmp_path):
    out = tmp_path / "p.json"
    csv = tmp_path / "p.csv"
    assert main(["pressure", "--input", str(demo_file), "--s", "0",
                 "--n-min", "2", "--n-max", "8", "--out", str(out),
                 "--csv", str(csv)]) == 0
    doc = json.loads(out.read_text())
    jsonschema.validate(doc, PRESSURE_SCHEMA)
    assert doc["oracle"] == pytest.approx(doc["value"], abs=1e-6)
    assert csv.read_text().startswith("# schema=coprox/pressure/1\nn,p_n\n")


def test_pressure_negative_s_is_an_error(demo_file, capsys):
    assert main(["pressure", "--input", str(demo_file), "--s", "-1"]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "--s must be >= 0" in err


def test_pressure_empty_length_range_is_an_error(demo_file, capsys):
    assert main(["pressure", "--input", str(demo_file), "--s", "1",
                 "--n-min", "9", "--n-max", "4"]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "exceeds --n-max" in err


def test_dominate_empty_length_range_is_an_error(tmp_path, capsys):
    dom = tmp_path / "dom.json"
    assert main(["demo", "dominated2x2", "--out", str(dom)]) == 0
    capsys.readouterr()
    assert main(["dominate", "--input", str(dom), "--n-min", "9", "--n-max", "4"]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "exceeds --n-max" in err


def test_dominate_index_out_of_range_is_an_error(demo_file, capsys):
    assert main(["dominate", "--input", str(demo_file), "--index", "5"]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "--index must be at most d-1 = 1" in err


def test_synthesize_inadmissible_word_is_an_error(demo_file, capsys):
    assert main(["synthesize", "--input", str(demo_file), "--word", "2"]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "--word 2 is not admissible" in err


@pytest.mark.parametrize("tau", ["0.9", "0"])
@pytest.mark.parametrize("command", [
    ["synthesize", "--word", "01"],
    ["verify-bound", "--seed", "1", "--samples", "2"],
    ["compare", "--input-b", None],
], ids=["synthesize", "verify-bound", "compare"])
def test_tau_outside_range_is_an_error(demo_file, capsys, command, tau):
    argv = [str(demo_file) if a is None else a for a in command]
    assert main(argv + ["--input", str(demo_file), "--tau", tau]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "--tau must lie in (0, pi/4)" in err


def test_verify_bound_empty_length_range_is_an_error(demo_file, capsys):
    assert main(["verify-bound", "--input", str(demo_file), "--seed", "1",
                 "--n-min", "6", "--n-max", "5"]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "exceeds --n-max" in err


@pytest.mark.parametrize("command", ["check", "spectrum"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
def test_non_finite_matrix_entry_is_an_input_error(demo_file, tmp_path, capsys,
                                                   command, value):
    data = json.loads(demo_file.read_text())
    data["entries"][1]["matrix"][0][1] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    assert main([command, "--input", str(bad)]) == 1
    err = capsys.readouterr().err
    assert err == "input error: matrix for window (1,) has non-finite entries\n"


@pytest.mark.parametrize("argv", [
    ["spectrum", "--input", None, "--max-period", "abc"],
    ["spectrum", "--max-period", "3"],
], ids=["bad-max-period", "missing-input"])
def test_usage_errors_exit_one(demo_file, capsys, argv):
    assert main([str(demo_file) if a is None else a for a in argv]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ")


TOL_RANGE = "expected a finite number > 0"
S_RANGE = "--s must be >= 0 and finite"
COMPARE_TOL_RANGE = "--compare-tol must be >= 0 and finite"


@pytest.mark.parametrize("demo,argv,message", [
    ("constant_diag41", ["check", "--tol", "-1"], TOL_RANGE),
    ("constant_diag41", ["check", "--tol", "nan"], TOL_RANGE),
    ("rotation", ["check", "--tol", "-1"], TOL_RANGE),
    ("rotation", ["check", "--tol", "nan"], TOL_RANGE),
    ("typical2x2", ["check", "--tol", "0"], TOL_RANGE),
    ("typical2x2", ["check", "--tol", "-1e-3"], TOL_RANGE),
    ("typical2x2", ["pressure", "--s", "nan"], S_RANGE),
    ("typical2x2", ["pressure", "--s", "inf"], S_RANGE),
    ("typical2x2", ["compare", "--input-b", None, "--compare-tol", "nan"], COMPARE_TOL_RANGE),
    ("typical2x2", ["compare", "--input-b", None, "--compare-tol", "-1"], COMPARE_TOL_RANGE),
    ("typical2x2", ["compare", "--input-b", None, "--compare-tol", "-inf"], COMPARE_TOL_RANGE),
], ids=["diag41-tol-neg", "diag41-tol-nan", "rotation-tol-neg", "rotation-tol-nan",
        "tol-zero", "tol-neg-exponent", "s-nan", "s-inf", "compare-tol-nan",
        "compare-tol-neg", "compare-tol-neg-inf"])
def test_bad_float_parameters_exit_one(tmp_path, capsys, monkeypatch, demo, argv, message):
    path = tmp_path / f"{demo}.json"
    assert main(["demo", demo, "--out", str(path)]) == 0
    capsys.readouterr()

    def no_search(*args, **kwargs):
        raise AssertionError("a bad parameter must be rejected before the pair search")

    monkeypatch.setattr(typicality, "find_typical_pair", no_search)
    argv = [str(path) if a is None else a for a in argv]
    assert main(argv + ["--input", str(path)]) == 1
    out, err = capsys.readouterr()
    assert err.count("\n") == 1 and err.startswith("error: ") and message in err
    assert "Traceback" not in err and "passes" not in out


def test_dominate_beyond_the_exhaustive_budget_is_an_error(tmp_path, capsys):
    # dominate takes no seed, so lengths with more words than the exhaustive
    # budget (2^18 > 200000 here) cannot be sampled: one error line, no traceback
    dom = tmp_path / "dom.json"
    assert main(["demo", "dominated2x2", "--out", str(dom)]) == 0
    capsys.readouterr()
    assert main(["dominate", "--input", str(dom), "--n-min", "16", "--n-max", "18",
                 "--max-period", "2"]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: lengths 18 have ")
    assert "200000 words" in err


def test_pressure_beyond_the_sweep_budget_is_an_error(tmp_path, capsys, monkeypatch):
    # typical3x3 has 2^n words of length n: 2^40 are refused from the exact
    # word counts, before the sweep, in one error line
    t3 = tmp_path / "t3.json"
    assert main(["demo", "typical3x3", "--out", str(t3)]) == 0
    capsys.readouterr()
    monkeypatch.setattr(thermo, "sweep_log_singular", None)
    assert main(["pressure", "--input", str(t3), "--s", "1.5", "--n-max", "40"]) == 1
    err = capsys.readouterr().err
    assert err == ("error: lengths 23..40 have more than 4194304 words, "
                   "the exhaustive budget\n")


@pytest.mark.parametrize("argv", [
    ["spectrum", "--input", "{dir}"],
    ["demo", "typical2x2", "--out", "{dir}"],
    ["pressure", "--input", "{demo}", "--s", "1", "--n-max", "4", "--csv", "{dir}"],
    ["dominate", "--input", "{demo}", "--n-max", "4", "--max-period", "2", "--out", "{dir}"],
    ["check", "--input", "{dir}/nope.json"],
], ids=["input-dir", "demo-out-dir", "csv-dir", "out-dir", "missing"])
def test_file_errors_are_one_line(demo_file, tmp_path, capsys, argv):
    # a directory or a missing file where a file belongs: one line, exit 1
    argv = [a.format(dir=tmp_path, demo=demo_file) for a in argv]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("file error: ")
    assert "Traceback" not in err
    assert [p.name for p in tmp_path.iterdir()] == []


REPORT_TARGETS = [
    (["spectrum", "--max-period", "4"], "out"),
    (["pressure", "--s", "1", "--n-max", "4"], "out"),
    (["pressure", "--s", "1", "--n-max", "4"], "csv"),
    (["dominate", "--n-max", "4", "--max-period", "2"], "out"),
    (["dominate", "--n-max", "4", "--max-period", "2"], "csv"),
    (["verify-bound", "--seed", "1", "--samples", "2"], "out"),
    (["verify-bound", "--seed", "1", "--samples", "2"], "csv"),
    (["compare", "--input-b", None], "out"),
]


@pytest.mark.parametrize("command, flag", REPORT_TARGETS,
                         ids=[f"{c[0]}-{f}" for c, f in REPORT_TARGETS])
@pytest.mark.parametrize("target", ["directory", "cwd", "missing-parent", "trailing-slash"])
def test_report_targets_are_checked_before_the_run(demo_file, tmp_path, capsys, monkeypatch,
                                                   command, flag, target):
    # a report path that names a directory, or whose directory is missing,
    # is one file error naming it, before the input is even read
    missing = tmp_path / "nope"
    path, message = {
        "directory": (str(tmp_path), f"{tmp_path} is a directory"),
        "cwd": (".", ". is a directory"),
        "missing-parent": (f"{missing}/r.csv", f"{missing}/r.csv: no directory {missing}"),
        "trailing-slash": (f"{missing}/", f"{missing}/: no directory {missing}"),
    }[target]

    def no_run(_path):
        raise AssertionError("the command ran")

    monkeypatch.setattr(cli, "load_cocycle", no_run)
    argv = [str(demo_file) if a is None else a for a in command]
    assert main(argv + ["--input", str(demo_file), f"--{flag}", path]) == 1
    assert capsys.readouterr().err == f"file error: --{flag} {message}\n"
    assert [p.name for p in tmp_path.iterdir()] == []


@pytest.mark.parametrize("command", [
    ["dominate"], ["pressure", "--s", "1"], ["compare", "--input-b", None],
], ids=["dominate", "pressure", "compare"])
def test_threads_option_is_gone(demo_file, capsys, command):
    # every sweep runs in the calling thread, so no command takes --threads
    argv = [str(demo_file) if a is None else a for a in command]
    assert main(argv + ["--input", str(demo_file), "--threads", "2"]) == 1
    err = capsys.readouterr().err
    assert err == "error: unrecognized arguments: --threads 2\n"


def test_dominate_rounding_level_gaps_are_no_evidence(tmp_path, capsys):
    # typical3x3 has an orbit with equal eigenvalue moduli and gap minima
    # that stay at rounding level: a line through them fits exactly
    t3 = tmp_path / "t3.json"
    assert main(["demo", "typical3x3", "--out", str(t3)]) == 0
    capsys.readouterr()
    assert main(["dominate", "--input", str(t3), "--n-min", "7", "--n-max", "9"]) == 2
    assert capsys.readouterr().out.endswith("verdict = no-domination-evidence\n")
    # two lengths always fit a line exactly: a usage error, before any sweep
    assert main(["dominate", "--input", str(t3), "--max-period", "6",
                 "--n-min", "7", "--n-max", "8"]) == 1
    err = capsys.readouterr().err
    assert err == "error: the gap-profile fit needs at least 3 distinct lengths, got [7, 8]\n"


def test_every_declared_option_is_read(demo_file, tmp_path):
    # each subcommand declares only the options it reads: run each on a
    # small demo with a namespace that records attribute reads
    reads = set()

    class Recording(argparse.Namespace):
        def __getattribute__(self, name):
            reads.add(name)
            return super().__getattribute__(name)

    inp = ["--input", str(demo_file)]
    commands = [
        ["demo", "typical2x2", "--out", str(tmp_path / "d.json")],
        ["check", *inp, "--out", str(tmp_path / "c.json")],
        ["synthesize", *inp, "--word", "101", "--out", str(tmp_path / "s.json")],
        ["verify-bound", *inp, "--seed", "1", "--samples", "2", "--n-max", "6",
         "--out", str(tmp_path / "v.json")],
        ["dominate", *inp, "--max-period", "3", "--n-max", "6",
         "--out", str(tmp_path / "m.json")],
        ["spectrum", *inp, "--max-period", "3", "--out", str(tmp_path / "sp.csv")],
        ["pressure", *inp, "--s", "1", "--n-max", "6", "--out", str(tmp_path / "p.json")],
        ["compare", *inp, "--input-b", str(demo_file), "--max-period", "3",
         "--out", str(tmp_path / "e.json")],
    ]
    for argv in commands:
        args = cli.build_parser().parse_args(argv, namespace=Recording())
        declared = set(vars(args)) - {"command", "func"}
        func = args.func
        reads.clear()
        assert func(args) in (0, 2), argv
        assert not declared - reads, (argv[0], sorted(declared - reads))


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["spectrum", "--help"])
    assert exc.value.code == 0
    assert "--max-period" in capsys.readouterr().out


def test_dominate_exit_codes(demo_file, tmp_path):
    dom = tmp_path / "dom.json"
    assert main(["demo", "dominated2x2", "--out", str(dom)]) == 0
    assert main(["dominate", "--input", str(dom), "--max-period", "6",
                 "--n-min", "2", "--n-max", "10"]) == 0
    # the diagonal-rotation demo has elliptic periodic products: negative
    assert main(["dominate", "--input", str(demo_file), "--max-period", "6",
                 "--n-min", "2", "--n-max", "10"]) == 2


def test_verify_bound_reproducible_csv(demo_file, tmp_path):
    args = ["verify-bound", "--input", str(demo_file), "--samples", "6",
            "--seed", "3", "--n-min", "4", "--n-max", "12"]
    c1, c2 = tmp_path / "a.csv", tmp_path / "b.csv"
    out = tmp_path / "a.json"
    assert main(args + ["--csv", str(c1), "--out", str(out)]) == 0
    assert main(args + ["--csv", str(c2)]) == 0
    assert c1.read_bytes() == c2.read_bytes()
    jsonschema.validate(json.loads(out.read_text()), THEOREM_A_SCHEMA)


def test_dominate_report_schema(demo_file, tmp_path):
    dom = tmp_path / "dom2.json"
    assert main(["demo", "dominated2x2", "--out", str(dom)]) == 0
    out = tmp_path / "rep.json"
    assert main(["dominate", "--input", str(dom), "--max-period", "5",
                 "--n-min", "2", "--n-max", "8", "--out", str(out)]) == 0
    jsonschema.validate(json.loads(out.read_text()), DOMINATION_SCHEMA)


def test_compare_scalar_multiple(demo_file, tmp_path):
    b_path = tmp_path / "b.json"
    save_cocycle(scaled_cocycle(load_cocycle(demo_file), 0.3), b_path)
    out = tmp_path / "cmp.json"
    assert main(["compare", "--input", str(demo_file), "--input-b", str(b_path),
                 "--max-period", "5", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    jsonschema.validate(doc, EQUAL_STATES_SCHEMA)
    assert doc["constant"] is True
    assert doc["constant_c"] == pytest.approx(-0.3, abs=1e-12)


def test_compare_not_constant(demo_file, tmp_path):
    A = load_cocycle(demo_file)
    table = {w: m.copy() for w, m in A.table.items()}
    table[(1,)] = table[(1,)] + 1e-2 * np.eye(2)
    b_path = tmp_path / "b.json"
    save_cocycle(WindowCocycle(A.base, 2, 0, table), b_path)
    out = tmp_path / "cmp.json"
    assert main(["compare", "--input", str(demo_file), "--input-b", str(b_path),
                 "--max-period", "5", "--out", str(out)]) == 2
    doc = json.loads(out.read_text())
    assert doc["constant"] is False and len(doc["witness"]) == 2


def test_verify_bound_counts_per_word_failures(tmp_path, capsys, monkeypatch):
    # a failed word (one failure planted on the second of six long
    # typical3x3 words) is one failed sample, not a failed run
    path = tmp_path / "typical3x3.json"
    assert main(["demo", "typical3x3", "--out", str(path)]) == 0
    real, calls = synthesis.build_proximal_periodic, []

    def failing_second(*args, **kwargs):
        calls.append(args[2])
        if len(calls) == 2:
            raise SynthesisFailed("planted failure")
        return real(*args, **kwargs)

    monkeypatch.setattr(synthesis, "build_proximal_periodic", failing_second)
    out = tmp_path / "a.json"
    assert main(["verify-bound", "--input", str(path), "--seed", "1", "--n-min", "160",
                 "--n-max", "400", "--samples", "6", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    jsonschema.validate(doc, THEOREM_A_SCHEMA)
    assert doc["num_samples"] == 6 and doc["num_failures"] == 1 and len(doc["samples"]) == 5
    assert doc["failures"] == [{"x_word": "".join(map(str, calls[1])),
                                "error": "planted failure"}]
    assert "samples 5 ok, 1 failed" in capsys.readouterr().out
