"""coprox benchmark: four closed-loop workloads, end-to-end metrics, and a
traced run with per-layer self time and counts.

Run from the repository root (the library is imported from ``src/``)::

    python3 bench/run.py --workload synth --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

``--workload`` is one of synth, pressure, spectrum, dominate, or ``all``,
which runs each in a fresh process and exits non-zero if any gate fails.
``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace
1`` runs the same rounds untraced and then traced, and reports per-layer
metrics.  Human-readable lines come first; the last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics.  ``attempted`` and ``failed`` count distinct inputs, not calls:
rounds cycle over a fixed set of inputs made from the seed (see
``workloads.py``), every input of the set is called at least once, and a
repeated call must give the same outcome, so both counts depend on the
seed only.  The exit code is 0 when the gate passes, 1 when it fails and 2
when the library cannot be found.

Seeds: the seed is the only source of inputs.  Use seeds 1 to 10 while
developing a change and confirm a claimed gain on the held-out seed 9001.

End-to-end metrics (``--trace 0``), each over the timed section:

- ``setup_s``: from the first statement of this script to the first timed
  call (imports, demo construction, ``find_typical_pair`` and a warm-up
  call), median over this process and four fresh probe processes;
- ``call_p50_ms`` and ``call_tail_ms``: latency of successful calls; the
  tail is the highest whole percentile with at least 10 calls beyond it
  (50 when there are fewer than 20 calls), and the percentile is printed;
- ``items_per_s``: items over the summed time of all calls, failures
  included; an item is a certified orbit (synth), a cylinder word
  (pressure, dominate) or a distinct periodic orbit (spectrum);
- ``peak_rss_mb``: peak resident set of this process after the first
  ``RSS_ROUNDS`` rounds of the timed section.

Durations are reported at a reference machine speed.  Shared hosts change
speed by tens of percent within seconds, so a fixed calibration unit (a
small interpreter-and-matmul loop, independent of the library) is timed
before and after every round and right after each set-up, and every
duration is divided by the calibration's time over ``CAL_REFERENCE_S``.
The raw median latency and the speed factor are printed next to the
metrics.

``--trace 1`` reports per-round self time per layer (a span's duration
minus its child spans, see ``tracing.py``), per-round counts, the witness
pass ratio, the distinct-orbit yield of periodic enumeration, synthesis
retries, period overhead and floating-point warnings, the tracing
overhead against the untraced half of the run and the share of call time
that the layer self times cover.

Also printed, not part of the result object: ``wall_s`` of the timed
section, ``fail_frac`` with failures by exception class, the sha256
digest of round 0's canonical report bytes, and the machine.
"""

import time

T_START = time.perf_counter()

import os  # noqa: E402

# One BLAS thread per process; the dominate workload's pool workers inherit it.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
NAMES = ("synth", "pressure", "spectrum", "dominate")
PROBES = 4
# Garbage cycles left by the library make the peak grow until a full
# collection, so the peak is read after a fixed number of rounds.
RSS_ROUNDS = 5
# The calibration unit's time on a 2-CPU x86-64 host in its fast phase;
# changing it rescales every reported time.
CAL_REFERENCE_S = 3.3e-3
UNITS = {"setup_s": "s", "call_p50_ms": "ms", "call_tail_ms": "ms",
         "items_per_s": "1/s", "peak_rss_mb": "MB"}


def _import_library():
    """Import coprox from this checkout's src/ only."""
    if not (SRC / "coprox" / "__init__.py").is_file():
        print(f"error: no coprox sources under {SRC}; run from a repository checkout",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import coprox

    if Path(coprox.__file__).resolve().parent != SRC / "coprox":
        print(f"error: imported coprox from {coprox.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)


_import_library()
IMPORT_S = time.perf_counter() - T_START

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from coprox.errors import CoproxError  # noqa: E402
from tracing import (COUNT_METRICS, SELF_TIME_METRICS, Tracer,  # noqa: E402
                     self_metric_name)
from workloads import FULL, SMOKE, WORKLOADS, Call, digest  # noqa: E402


def machine() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpus": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        **THREAD_ENV,
    }


_CAL = np.array([[0.9, 0.3, -0.2], [0.1, 1.1, 0.4], [-0.3, 0.2, 0.8]])
_CAL_STACK = np.random.default_rng(0).random((768, 3, 3))


def _calibration_unit() -> None:
    """Fixed work shaped like the library's, in two halves of about equal
    time: an interpreter loop around small dense kernels, and batched
    kernels over a stack of small matrices (the second slows down less
    than the first when the host is contended)."""
    g, acc = np.eye(3), 0.0
    for i in range(300):
        g = _CAL @ g
        g = g / np.max(np.abs(g))
        acc += float(g[0, 0]) * i
    np.linalg.svd(g)
    np.linalg.eigvals(g)
    x = _CAL_STACK
    for _ in range(6):
        x = _CAL @ x
        x = x / np.max(np.abs(x), axis=(1, 2))[:, None, None]
    np.linalg.svd(x, compute_uv=False)


def calibrate(repeats: int = 7) -> float:
    """Machine speed now: median time of the calibration unit over the
    reference time (1.0 on the reference machine, larger when slower)."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        _calibration_unit()
        times.append(time.perf_counter() - t0)
    return statistics.median(times) / CAL_REFERENCE_S


def run_rounds(workload, inputs, seconds=None, rounds=None,
               min_rounds=1) -> list[list[Call]]:
    """Closed loop: one call at a time, whole rounds, until ``seconds`` have
    passed (at least ``min_rounds`` rounds) or ``rounds`` rounds are done.  The machine
    speed is calibrated between rounds; each call carries the mean of the
    calibrations before and after its round."""
    out = []
    deadline = time.perf_counter() + (seconds or 0.0)
    clock = time.perf_counter
    speed = calibrate()
    while (len(out) < rounds if rounds is not None
           else len(out) < min_rounds or clock() < deadline):
        calls = []
        for spec in inputs(len(out)):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                t0 = clock()
                try:
                    output, error = workload.call(spec), None
                except CoproxError as exc:
                    output, error = None, exc
                dt = clock() - t0
            fp = sum(issubclass(w.category, RuntimeWarning) for w in caught)
            calls.append(Call(spec, output, error, dt, fp))
        after = calibrate()
        for call in calls:
            call.speed = (speed + after) / 2
        speed = after
        out.append(calls)
    return out


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least 10 of n samples beyond it."""
    return max(50, int(100 - 1000 / n)) if n >= 20 else 50


def timed_setup(workload, seed: int) -> float:
    """Imports plus ``workload.setup``, at the reference machine speed."""
    t0 = time.perf_counter()
    workload.setup(seed)
    elapsed = IMPORT_S + time.perf_counter() - t0
    return elapsed / calibrate(repeats=15)


def setup_probe(name: str, seed: int, smoke: bool) -> float:
    """Set-up time of a fresh process, from a child run of this script."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", name,
           "--seed", str(seed)] + (["--smoke"] if smoke else [])
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def end_to_end(workload, rounds, wall, setup_samples, peak_mb) -> tuple[dict, dict]:
    calls = [c for r in rounds for c in r]
    ok_ms = np.array([c.scaled * 1e3 for c in calls if c.error is None])
    busy = sum(c.scaled for c in calls)
    tail_p = tail_percentile(len(ok_ms))
    values = {
        "setup_s": statistics.median(setup_samples),
        "call_p50_ms": float(np.percentile(ok_ms, 50)) if len(ok_ms) else float("nan"),
        "call_tail_ms": float(np.percentile(ok_ms, tail_p)) if len(ok_ms) else float("nan"),
        "items_per_s": sum(workload.items(c) for c in calls) / busy,
        "peak_rss_mb": peak_mb,
    }
    counts = {"setup_s": len(setup_samples), "call_p50_ms": len(ok_ms),
              "call_tail_ms": len(ok_ms), "items_per_s": len(calls), "peak_rss_mb": 1}
    info = {"tail_percentile": tail_p, "wall_s": wall, "rounds": len(rounds),
            "setup_samples": setup_samples,
            "item": workload.item_label,
            "speed": statistics.median(c.speed for c in calls),
            "raw_call_p50_ms": statistics.median(
                [c.seconds * 1e3 for c in calls if c.error is None] or [float("nan")])}
    return {k: {"value": v, "unit": UNITS[k], "n": counts[k]} for k, v in values.items()}, info


def per_layer(workload, tracer: Tracer, traced, untraced) -> dict:
    """Per-round self times and counts of the traced section, plus ratios."""
    n_rounds = len(traced)
    calls = [c for r in traced for c in r]
    busy = sum(c.scaled for c in calls)
    base = sum(c.scaled for r in untraced for c in r)
    raw_busy = sum(c.seconds for c in calls)
    to_reference = busy / raw_busy / n_rounds  # raw section seconds -> per-round reference
    selfs = tracer.self_times()
    m = {}
    for bucket in SELF_TIME_METRICS:
        m[self_metric_name(bucket)] = (selfs[bucket] * to_reference, "s/round")
    counts = tracer.counts
    for name in COUNT_METRICS:
        m[name] = (counts[name] / n_rounds, "count/round")
    m["cocycle.worker_cpu_s"] = (tracer.worker_cpu_s * to_reference, "s/round")
    witnesses = counts["proximal.witness_calls"]
    m["proximal.witness_pass_ratio"] = (tracer.witness_passes / witnesses if witnesses else 0.0,
                                        "ratio")
    cycles = tracer.spectrum_cycles
    m["analysis.orbit_yield"] = (tracer.spectrum_orbits / cycles if cycles else 0.0, "ratio")
    reports = [c.output for c in calls if c.error is None and workload.name == "synth"]
    m["synthesis.ell_doublings"] = (sum(r.retries for r in reports) / n_rounds, "count/round")
    m["synthesis.period_overhead"] = (
        float(np.mean([r.n_q - r.n for r in reports])) if reports else 0.0, "steps")
    synth_warnings = sum(c.fp_warnings for c in calls) if workload.name == "synth" else 0
    m["synthesis.fp_warnings"] = (synth_warnings / n_rounds, "count/round")
    m["trace.overhead_frac"] = (busy / base - 1.0, "ratio")
    m["trace.coverage"] = (sum(selfs.values()) / raw_busy, "ratio")
    return {k: {"value": float(v), "unit": u} for k, (v, u) in m.items()}


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool = False,
                 probes: int = PROBES) -> dict:
    """Set up, measure and gate one workload; returns the full result."""
    size = (SMOKE if smoke else FULL)[name]
    workload = WORKLOADS[name](size)
    setup_samples = [timed_setup(workload, seed)]
    result = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
              "size": size}
    if not trace:
        t0 = time.perf_counter()
        rounds = run_rounds(workload, lambda r: workload.inputs(seed, r), rounds=RSS_ROUNDS)
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        rest = seconds - (time.perf_counter() - t0)
        more = max(0, workload.distinct - RSS_ROUNDS)
        if rest > 0 or more:
            rounds += run_rounds(workload, lambda r: workload.inputs(seed, RSS_ROUNDS + r),
                                 seconds=rest, min_rounds=more)
        wall = time.perf_counter() - t0
        setup_samples += [setup_probe(name, seed, smoke) for _ in range(probes)]
        metrics, info = end_to_end(workload, rounds, wall, setup_samples, peak_mb)
        result.update(info)
    else:
        untraced = run_rounds(workload, lambda r: workload.inputs(seed, r),
                              seconds=seconds / 2, min_rounds=workload.distinct)
        replay = [workload.inputs(seed, r) for r in range(len(untraced))]
        tracer = Tracer()
        tracer.install()
        try:
            rounds = run_rounds(workload, replay.__getitem__, rounds=len(untraced))
        finally:
            tracer.uninstall()
        metrics = per_layer(workload, tracer, rounds, untraced)
        result.update(rounds=len(rounds), spans=tracer.span_count,
                      trace_missing=tracer.missing)
    calls = [c for r in rounds for c in r]
    distinct = list(workload.first_calls(rounds).values())
    by_class = {}
    for c in distinct:
        if c.error is not None:
            by_class[type(c.error).__name__] = by_class.get(type(c.error).__name__, 0) + 1
    result["digest"] = digest([workload.record(c) for c in rounds[0]])
    problems = workload.gate(rounds, seed, result["digest"])
    if trace:
        untraced_digest = digest([workload.record(c) for c in untraced[0]])
        if untraced_digest != result["digest"]:
            problems.append("traced and untraced round 0 report bytes differ")
    result.update(
        correct=not problems, problems=problems, attempted=len(distinct), calls=len(calls),
        failed=sum(by_class.values()), fail_by_class=by_class,
        fail_frac=sum(by_class.values()) / len(distinct),
        fp_warnings=sum(c.fp_warnings for c in calls),
        metrics=metrics, machine=machine(),
    )
    return result


def print_result(result: dict) -> None:
    name = result["workload"]
    print(f"workload {name}  seed {result['seed']}  trace {result['trace']}  "
          f"rounds {result['rounds']}  size {json.dumps(result['size'])}")
    for metric, m in result["metrics"].items():
        label = metric
        if metric == "items_per_s":
            label = f"{metric} ({result['item']})"
        extra = f"  n={m['n']}" if "n" in m else ""
        if metric == "call_tail_ms":
            extra += f"  p{result['tail_percentile']}"
        print(f"  {label:36s} {m['value']:.6g} {m['unit']}{extra}")
    if "wall_s" in result:
        print(f"  {'wall_s':36s} {result['wall_s']:.6g} s")
        print(f"  {'speed':36s} {result['speed']:.4g}  (raw call_p50_ms {result['raw_call_p50_ms']:.6g})")
        print(f"  {'setup samples':36s} {' '.join(f'{x:.4g}' for x in result['setup_samples'])}")
    print(f"  {'fail_frac':36s} {result['fail_frac']:.6g}  "
          f"({result['failed']}/{result['attempted']} distinct inputs, {result['calls']} calls, "
          f"{result['fail_by_class']})")
    print(f"  {'fp_warnings':36s} {result['fp_warnings']}")
    print(f"  digest sha256:{result['digest']}")
    print(f"  gate {'PASS' if result['correct'] else 'FAIL'}")
    for problem in result["problems"][:20]:
        print(f"    {problem}")
    if result.get("trace_missing"):
        print(f"  not traced, absent from the library: {result['trace_missing']}")
    print(f"  machine {json.dumps(result['machine'], sort_keys=True)}")


def driver_line(result: dict) -> str:
    return json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": m["value"], "unit": m["unit"]}
                    for k, m in result["metrics"].items()},
    })


def run_all(args) -> int:
    """Every workload in a fresh process; a summary table; exit 1 on any
    failed gate."""
    results = {}
    for name in NAMES:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        cmd += ["--smoke"] if args.smoke else []
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        try:
            results[name] = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"{name}: no result (exit {done.returncode})\n{done.stderr}", flush=True)
            results[name] = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
    print("summary")
    for name, res in results.items():
        verdict = "PASS" if res["correct"] else "FAIL"
        cells = "  ".join(f"{k}={m['value']:.4g} {m['unit']}" for k, m in res["metrics"].items())
        print(f"  {name:9s} gate {verdict}  {cells}")
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for the benchmark's own tests")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if args.setup_probe:
        workload = WORKLOADS[args.workload]((SMOKE if args.smoke else FULL)[args.workload])
        print(json.dumps({"setup_s": timed_setup(workload, args.seed)}))
        return 0
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    print_result(result)
    print(driver_line(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
