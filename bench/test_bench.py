"""Smoke test of the benchmark: each workload at a size that runs well
under a second, every metric of BENCHMARK.json emitted with its unit, and
gates that fail on corrupted results.

    python3 -m pytest -q bench/test_bench.py
"""

import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())

sys.path.insert(0, str(HERE))
_env = dict(os.environ)
import run  # noqa: E402  (pins BLAS threads in os.environ, restored below)
from workloads import SMOKE, WORKLOADS, digest  # noqa: E402

os.environ.clear()
os.environ.update(_env)


def _rounds(name, seed=5, rounds=1):
    workload = WORKLOADS[name](SMOKE[name])
    workload.setup(seed)
    done = run.run_rounds(workload, lambda r: workload.inputs(seed, r), rounds=rounds)
    return workload, done, digest([workload.record(c) for c in done[0]])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", run.NAMES)
def test_every_metric_emitted_with_its_unit(name, trace):
    result = run.run_workload(name, seed=3, seconds=0.2, trace=bool(trace), smoke=True,
                              probes=0)
    assert result["correct"], result["problems"]
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    got = {k: m["unit"] for k, m in result["metrics"].items()}
    assert got == expected
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())
    if trace:
        assert result["metrics"]["trace.coverage"]["value"] >= 0.9
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def _flip_first_verdict(workload, calls):
    call = next(c for c in calls if c.error is None)
    w0 = call.output.witnesses[0]
    call.output = replace(call.output,
                          witnesses=(replace(w0, verdict=not w0.verdict),) + call.output.witnesses[1:])


def _shift_first_pressure(workload, calls):
    est = calls[0].output
    calls[0].output = replace(est, p_n=(est.p_n[0] + 1e-6,) + est.p_n[1:])


def _drop_an_orbit(workload, calls):
    calls[0].output = calls[0].output[:-1]


def _shift_a_gap_minimum(workload, calls):
    rep = calls[0].output
    minima = list(rep.profile.minima)
    minima[0] += 1e-6
    calls[0].output = replace(rep, profile=replace(rep.profile, minima=tuple(minima)))


CORRUPTIONS = {
    "synth": _flip_first_verdict,
    "pressure": _shift_first_pressure,
    "spectrum": _drop_an_orbit,
    "dominate": _shift_a_gap_minimum,
}


@pytest.mark.parametrize("name", run.NAMES)
def test_gate_fails_on_corrupted_result(name):
    workload, rounds, good = _rounds(name)
    assert workload.gate(rounds, 5, good) == []
    assert workload.gate(rounds, 5, "0" * 64) != []  # altered digest
    CORRUPTIONS[name](workload, rounds[0])
    fresh = digest([workload.record(c) for c in rounds[0]])
    assert workload.check(rounds, 5) != []
    assert workload.gate(rounds, 5, fresh) != []


def test_failure_counts_depend_on_the_seed_only():
    short, long = (run.run_workload("synth", seed=4, seconds=s, trace=False, smoke=True,
                                    probes=0) for s in (0.1, 3.0))
    assert short["calls"] < long["calls"]
    assert (short["attempted"], short["failed"]) == (long["attempted"], long["failed"])
    assert short["attempted"] == SMOKE["synth"]["rounds"] * 4 * len(SMOKE["synth"]["lengths"])
    assert short["correct"] and long["correct"]


def test_repeated_input_with_another_outcome_fails_the_gate():
    workload, rounds, good = _rounds("synth", rounds=SMOKE["synth"]["rounds"] + 1)
    assert workload.gate(rounds, 5, good) == []
    _flip_first_verdict(workload, rounds[-1])
    assert workload.gate(rounds, 5, good) != []


def test_command_prints_result_object_last():
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "spectrum", "--seed", "1",
         "--seconds", "0.2", "--trace", "0", "--smoke"],
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["attempted"] >= 1 and last["failed"] == 0


def test_command_fails_without_library_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "synth", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
