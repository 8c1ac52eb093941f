import json

import jsonschema
import pytest

from coprox import cli
from coprox.cli import main

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


def test_synthesize(demo_file, tmp_path):
    out = tmp_path / "syn.json"
    assert main(["synthesize", "--input", str(demo_file), "--word", "111",
                 "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    jsonschema.validate(doc, SYNTH_SCHEMA)
    assert doc["proximal_all"] is True
    q = doc["q"]
    assert "111" in q + q  # literal shadowing, cyclically


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
    from coprox import sft

    g_path = tmp_path / "g.json"
    assert main(["demo", "golden2x2", "--out", str(g_path)]) == 0
    out = tmp_path / "gspec.csv"
    assert main(["spectrum", "--input", str(g_path), "--max-period", "3",
                 "--out", str(out)]) == 0
    golden = sft.golden_mean_shift()
    orbits = set()
    for n in (1, 2, 3):
        for w in sft.enumerate_periodic(golden, n):
            orbits.add(sft.orbit_key(w))
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
    import numpy as np

    from coprox.cocycle import load_cocycle, save_cocycle, scaled_cocycle

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
    import numpy as np

    from coprox.cocycle import WindowCocycle, load_cocycle, save_cocycle

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
