"""The experiments script writes every report, and identical inputs give
identical report bytes from run to run."""

import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
REPORTS = sorted([
    "theorem_a.json", "theorem_a.csv",
    "theorem_b_dominated.json", "theorem_b_dominated.csv",
    "theorem_b_planted_rotation.json", "theorem_b_planted_rotation.csv",
    "theorem_c.json", "pressures.csv",
])


def _run(outdir):
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    subprocess.run([sys.executable, str(ROOT / "scripts" / "run_experiments.py"),
                    "--quick", "--outdir", str(outdir)],
                   check=True, env=env, capture_output=True)
    return {p.name: p.read_bytes() for p in outdir.iterdir()}


def test_quick_run_writes_all_reports_deterministically(tmp_path):
    first = _run(tmp_path / "first")
    second = _run(tmp_path / "second")
    assert sorted(first) == REPORTS
    assert first == second
