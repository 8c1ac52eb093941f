"""Batch command-line front end.

Loads cocycle files, runs certifications and experiments, and writes
machine-readable reports (JSON) and tabular series (CSV).  Exit codes:
0 success, 2 informative negative (a certificate or experiment said no),
1 error (bad input, a parameter the library rejects, or unexpected
failure).  Output files are written atomically (temp file then rename).
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import tempfile
from itertools import chain
from math import inf, pi

import numpy as np

from . import analysis, synthesis, thermo, typicality
from .cocycle import load_cocycle, save_cocycle
from .demos import DEMOS, get_demo
from .errors import CoproxError, InputFormatError, NotConstant
from .sft import is_admissible

SCHEMA_PREFIX = "coprox"
REPORT_VERSION = "1"


def _schema(kind: str) -> str:
    return f"{SCHEMA_PREFIX}/{kind}/{REPORT_VERSION}"


def _atomic_write(path: str, chunks) -> None:
    """Write an iterable of strings to a temporary file beside path, then
    rename it to path."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".coprox-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json(path: str, kind: str, payload: dict) -> None:
    doc = {"schema": _schema(kind), **payload}
    _atomic_write(path, [json.dumps(doc, indent=1, sort_keys=True) + "\n"])


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _write_csv_text(path: str, kind: str, header: list[str], text) -> None:
    """The schema comment and the header, then text, an iterable of whole
    lines, streamed into the file."""
    _atomic_write(path, chain([f"# schema={_schema(kind)}\n", ",".join(header) + "\n"], text))


def write_csv(path: str, kind: str, header: list[str], rows) -> None:
    """Stream rows, an iterable, into the file a line at a time, each value
    written by :func:`_fmt`."""
    _write_csv_text(path, kind, header, (",".join(map(_fmt, row)) + "\n" for row in rows))


def _write_series(args, kind: str, payload: dict, csv_kind: str, header, rows) -> None:
    """--out as the JSON report and --csv as the CSV series."""
    if args.out:
        write_json(args.out, kind, payload)
    if args.csv:
        write_csv(args.csv, csv_kind, header, rows)


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse's own pattern takes -1 and -.5 but reads -1e-3 and -inf
        # as option names
        self._negative_number_matcher = re.compile(
            r"^-(?:(?:\d+\.?\d*|\.\d+)(?:e[-+]?\d+)?|inf)$", re.IGNORECASE)

    def error(self, message):
        """Raise instead of exiting 2, which means "informative negative"."""
        raise argparse.ArgumentError(None, message)


def _positive_int(text: str) -> int:
    try:
        if int(text) > 0:
            return int(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")


def _positive_float(text: str) -> float:
    try:
        if 0 < float(text) < inf:
            return float(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected a finite number > 0, got {text!r}")


def _word(text: str):
    if not text or not text.isdigit():
        raise argparse.ArgumentTypeError("word must be a nonempty digit string")
    return tuple(int(c) for c in text)


def _bad_parameter(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 1


def _find_pair(A, args):
    return typicality.find_typical_pair(A, max_excursion_len=args.max_excursion,
                                        tol=args.tol)


def cmd_demo(args) -> int:
    A = get_demo(args.name)
    save_cocycle(A, args.out)
    print(f"wrote demo '{args.name}' to {args.out}")
    return 0


def cmd_check(args) -> int:
    A = load_cocycle(args.input)
    found = _find_pair(A, args)
    if found is None:
        if args.out:
            write_json(args.out, "certificate", {"passed": False, "pair": None})
        print("no typical pair found", file=sys.stderr)
        return 2
    p, z, cert = found
    if args.out:
        write_json(args.out, "certificate", cert.to_dict())
    print(f"typical pair found: p = {p.coord(0)}^inf, certificate passes")
    return 0


def cmd_synthesize(args) -> int:
    A = load_cocycle(args.input)
    if not 0 < args.tau < pi / 4:
        return _bad_parameter(f"--tau must lie in (0, pi/4), got {args.tau}")
    if not is_admissible(A.base, args.word):
        return _bad_parameter(f"--word {''.join(map(str, args.word))} is not admissible")
    found = _find_pair(A, args) if A.dim > 1 else (None,) * 3  # scalars need no pair
    if found is None:
        print("no typical pair; cannot synthesize", file=sys.stderr)
        return 2
    cert = found[2]
    try:
        rep = synthesis.build_proximal_periodic(
            A, cert, args.word, args.tau, ell_cap=args.ell_cap
        )
    except synthesis.SYNTHESIS_ERRORS as exc:
        if args.out:
            write_json(args.out, "synthesis", {"failed": str(exc)})
        print(f"synthesis failed: {exc}", file=sys.stderr)
        return 2
    if args.out:
        write_json(args.out, "synthesis", rep.to_dict())
    print(
        f"q = {''.join(map(str, rep.q.symbols))} (period {rep.n_q}, offset {rep.j}, "
        f"bound {rep.bound_value:.6g})"
    )
    return 0


def cmd_verify_bound(args) -> int:
    A = load_cocycle(args.input)
    if not 0 < args.tau < pi / 4:
        return _bad_parameter(f"--tau must lie in (0, pi/4), got {args.tau}")
    if args.n_min > args.n_max:
        return _bad_parameter(f"--n-min {args.n_min} exceeds --n-max {args.n_max}")
    found = _find_pair(A, args) if A.dim > 1 else (None,) * 3
    if found is None:
        print("no typical pair", file=sys.stderr)
        return 2
    cert = found[2]
    rng = np.random.default_rng(args.seed)
    lengths = rng.integers(args.n_min, args.n_max + 1, size=args.samples)
    words = [
        analysis.markov_sample(A, int(n), args.seed + 1000 + i)
        for i, n in enumerate(lengths)
    ]
    report = synthesis.verify_theorem_a(A, cert, words, args.tau, ell_cap=args.ell_cap)
    sample_rows = [(r.n, r.n_q, r.j, r.bound_value, r.ell_used)
                   for r in report.samples]
    _write_series(args, "theorem-a", report.to_dict(), "theorem-a",
                  ["n", "n_q", "j", "bound_value", "ell_used"], sample_rows)
    print(
        f"samples {len(report.samples)} ok, {len(report.failures)} failed; "
        f"empirical C = {report.empirical_c:.6g}, k = {report.empirical_k}, "
        f"slope = {report.slope:.3g}"
    )
    return 0


def cmd_dominate(args) -> int:
    A = load_cocycle(args.input)
    if args.n_min > args.n_max:
        return _bad_parameter(f"--n-min {args.n_min} exceeds --n-max {args.n_max}")
    if args.index > A.dim - 1:
        return _bad_parameter(f"--index must be at most d-1 = {A.dim - 1}, got {args.index}")
    n_list = list(range(args.n_min, args.n_max + 1))
    report = analysis.theorem_b_check(A, None, args.index, args.max_period, n_list)
    _write_series(args, "domination", report.to_dict(), "gap-profile",
                  ["n", "min_gap"], report.profile.to_rows())
    print(
        f"periodic gap = {report.periodic_gap:.6g} (orbit {report.min_gap_orbit}), "
        f"slope = {report.profile.slope:.6g}, R2 = {report.profile.r_squared:.6g}, "
        f"verdict = {'dominated-evidence' if report.verdict else 'no-domination-evidence'}"
    )
    return 0 if report.verdict else 2


def _spectrum_lines(spectrum, dim: int):
    """The CSV lines of spectrum.table(), one string per block, each made
    by one "%" template whose "%.17g" writes a float as :func:`_fmt` does
    (see tests/test_spectrum_object.py); at period 22 it keeps the command
    under 3 s, where :func:`write_csv`'s value-by-value formatting takes
    about a second more."""
    line = "%d,%s" + ",%.17g" * dim + "\n"
    return ((line * len(block)) % tuple(block.ravel().tolist()) for block in spectrum.table())


def cmd_spectrum(args) -> int:
    A = load_cocycle(args.input)
    spectrum = analysis.periodic_spectrum(A, args.max_period)
    header = ["period", "word"] + [f"lambda_{i+1}" for i in range(A.dim)]
    if args.out:
        _write_csv_text(args.out, "spectrum", header, _spectrum_lines(spectrum, A.dim))
    print(f"{len(spectrum)} periodic orbits up to period {args.max_period}")
    return 0


def cmd_pressure(args) -> int:
    A = load_cocycle(args.input)
    if args.n_min > args.n_max:
        return _bad_parameter(f"--n-min {args.n_min} exceeds --n-max {args.n_max}")
    if not 0 <= args.s < inf:
        return _bad_parameter(f"--s must be >= 0 and finite, got {args.s}")
    n_list = list(range(args.n_min, args.n_max + 1))
    est = thermo.pressure(A, args.s, n_list)
    _write_series(args, "pressure", est.to_dict(), "pressure",
                  ["n", "p_n"], list(zip(est.n_range, est.p_n)))
    oracle = "" if est.oracle is None else f" (oracle {est.oracle:.10g})"
    print(f"P(s={args.s}) ~ {est.value:.10g}{oracle}")
    return 0


def cmd_compare(args) -> int:
    A = load_cocycle(args.input)
    B = load_cocycle(args.input_b)
    if not 0 < args.tau < pi / 4:
        return _bad_parameter(f"--tau must lie in (0, pi/4), got {args.tau}")
    if not 0 <= args.compare_tol < inf:
        return _bad_parameter(f"--compare-tol must be >= 0 and finite, got {args.compare_tol}")
    found = _find_pair(A, args)
    if found is None:
        print("no typical pair for the first cocycle", file=sys.stderr)
        return 2
    p, z, _ = found
    cert_pair = typicality.family_certificate([A, B], p, z, tol=args.tol)
    if not cert_pair.passed:
        print("pair certificate fails for the family", file=sys.stderr)
        return 2
    try:
        report = thermo.theorem_c_experiment(A, B, cert_pair, args.max_period,
                                             args.compare_tol, seed=args.seed, tau=args.tau)
    except NotConstant as exc:
        if args.out:
            write_json(
                args.out,
                "equal-states",
                {"constant": False, "witness": list(exc.witness), "detail": str(exc)},
            )
        print(f"not constant: {exc}", file=sys.stderr)
        return 2
    if args.out:
        write_json(args.out, "equal-states", {"constant": True, **report.to_dict()})
    print(
        f"constant c = {report.constant_c:.10g}; pressure gap minus c = "
        f"{(report.pressure_a.value - report.pressure_b.value) - report.constant_c:.3g}"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="coprox",
        description="certified proximality and shadowing periodic orbits "
        "for matrix cocycles over subshifts of finite type",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, pair_search=True):
        p.add_argument("--input", required=True, help="cocycle JSON file")
        p.add_argument("--out", help="report path")
        if pair_search:
            p.add_argument("--tol", type=_positive_float, default=1e-8,
                           help="typicality tolerance")
            p.add_argument("--max-excursion", type=_positive_int, default=6)

    p = sub.add_parser("demo", help="write a built-in example cocycle file")
    p.add_argument("name", choices=sorted(DEMOS))
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_demo)

    p = sub.add_parser("check", help="search for a typical pair and certify it")
    common(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("synthesize", help="build a proximal shadowing periodic orbit")
    common(p)
    p.add_argument("--word", type=_word, required=True)
    p.add_argument("--tau", type=float, default=0.05)
    p.add_argument("--ell-cap", type=_positive_int, default=synthesis.ELL_CAP)
    p.set_defaults(func=cmd_synthesize)

    p = sub.add_parser("verify-bound", help="singular/eigenvalue comparison experiment")
    common(p)
    p.add_argument("--samples", type=_positive_int, default=50)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--n-min", type=_positive_int, default=4)
    p.add_argument("--n-max", type=_positive_int, default=40)
    p.add_argument("--tau", type=float, default=0.05)
    p.add_argument("--ell-cap", type=_positive_int, default=synthesis.ELL_CAP)
    p.add_argument("--csv", help="per-sample CSV path")
    p.set_defaults(func=cmd_verify_bound)

    p = sub.add_parser("dominate", help="domination evidence from gaps")
    common(p, pair_search=False)
    p.add_argument("--index", type=_positive_int, default=1)
    p.add_argument("--max-period", type=_positive_int, default=8)
    p.add_argument("--n-min", type=_positive_int, default=2)
    p.add_argument("--n-max", type=_positive_int, default=12)
    p.add_argument("--csv", help="gap profile CSV path")
    p.set_defaults(func=cmd_dominate)

    p = sub.add_parser("spectrum", help="periodic Lyapunov spectrum CSV")
    p.add_argument("--input", required=True)
    p.add_argument("--out", help="CSV path")
    p.add_argument("--max-period", type=_positive_int, default=8)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("pressure", help="subadditive pressure estimate")
    common(p, pair_search=False)
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--n-min", type=_positive_int, default=4)
    p.add_argument("--n-max", type=_positive_int, default=12)
    p.add_argument("--csv", help="(n, P_n) CSV path")
    p.set_defaults(func=cmd_pressure)

    p = sub.add_parser("compare", help="equal-equilibrium-state experiment")
    common(p)
    p.add_argument("--input-b", required=True, help="second cocycle JSON file")
    p.add_argument("--max-period", type=_positive_int, default=6)
    p.add_argument("--compare-tol", type=float, default=1e-9)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--tau", type=float, default=0.05)
    p.set_defaults(func=cmd_compare)

    return parser


def _unwritable_target(args):
    """Why an --out or --csv path cannot take a report, found before the
    command runs: the path names a directory, or its directory is missing.
    None when both can."""
    for flag in ("out", "csv"):
        path = getattr(args, flag, None)
        if not path:
            continue
        directory = os.path.dirname(path) or "."
        if os.path.isdir(path):
            return f"--{flag} {path} is a directory"
        if not os.path.isdir(directory):
            return f"--{flag} {path}: no directory {directory}"
    return None


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except argparse.ArgumentError as exc:
        return _bad_parameter(str(exc))
    problem = _unwritable_target(args)
    if problem:
        print(f"file error: {problem}", file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except InputFormatError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # a missing file, a directory, no permission
        print(f"file error: {exc}", file=sys.stderr)
        return 1
    except (CoproxError, ValueError) as exc:  # ValueError: a library boundary check
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
