#!/usr/bin/env python3
"""Run the three theorem-level experiments on the bundled demo cocycles and
write JSON/CSV reports.

    python scripts/run_experiments.py --outdir results [--quick] [--seed 700]

Experiments:
  1. singular/eigenvalue comparison: shadowing orbits for sampled words,
     empirical bound constant and period overhead, drift regression;
  2. dominated-splitting detection: periodic exponent gaps against the
     growth of worst-case singular gaps (positive and planted-negative);
  3. equal-equilibrium-state test for a pair of cocycles with identical
     per-orbit top exponents (exact scalar-multiple case).
"""

import argparse
import json
import pathlib
import sys

from coprox import analysis, cocycle, demos, synthesis, thermo, typicality
from coprox.cli import write_csv, write_json


def experiment_theorem_a(outdir, seed, samples):
    A = demos.typical_2x2()
    _, _, cert = typicality.find_typical_pair(A)
    words = [analysis.markov_sample(A, 4 + (i * 36) // max(1, samples - 1), seed + i)
             for i in range(samples)]
    rep = synthesis.verify_theorem_a(A, cert, words, tau=0.05)
    write_json(outdir / "theorem_a.json", "theorem-a", rep.to_dict())
    write_csv(outdir / "theorem_a.csv", "theorem-a",
              ["n", "n_q", "j", "bound_value", "ell_used"],
              [(r.n, r.n_q, r.j, r.bound_value, r.ell_used) for r in rep.samples])
    print(f"[theorem A] {len(rep.samples)} orbits, empirical C = "
          f"{rep.empirical_c:.3f}, k = {rep.empirical_k}, slope = {rep.slope:+.4f}")


def experiment_theorem_b(outdir):
    for name, demo in [
        ("dominated", demos.dominated_2x2()),
        ("planted_rotation", demos.planted_rotation_2x2()),
    ]:
        rep = analysis.theorem_b_check(demo, None, 1, 8, list(range(2, 15)))
        write_json(outdir / f"theorem_b_{name}.json", "domination", rep.to_dict())
        write_csv(outdir / f"theorem_b_{name}.csv", "gap-profile",
                  ["n", "min_gap"], rep.profile.to_rows())
        verdict = "dominated-evidence" if rep.verdict else "no-domination-evidence"
        print(f"[theorem B/{name}] periodic gap {rep.periodic_gap:.4f}, "
              f"slope {rep.profile.slope:.4f}, R2 {rep.profile.r_squared:.5f} "
              f"-> {verdict}")


def experiment_theorem_c(outdir, seed):
    A = demos.typical_2x2()
    B = cocycle.scaled_cocycle(A, 0.3)
    p, z, _ = typicality.find_typical_pair(A)
    cert = typicality.family_certificate([A, B], p, z)
    rep = thermo.theorem_c_experiment(A, B, cert, 5, 1e-9, seed=seed)
    write_json(outdir / "theorem_c.json", "equal-states",
               {"constant": True, **rep.to_dict()})
    gap = rep.pressure_b.value - rep.pressure_a.value
    print(f"[theorem C] constant c = {rep.constant_c:+.6f}, pressure gap "
          f"{gap:+.6f}, max TV {max(tv for _, tv in rep.tv_by_n):.2e}")


def experiment_pressure(outdir):
    rows = []
    golden = demos.golden_typical_2x2()
    est = thermo.pressure(golden, 0.0, list(range(2, 21)))
    rows.append(("golden_s0", est.value, est.oracle))
    weighted = demos.golden_scalar_2_3()
    est2 = thermo.pressure(weighted, 1.0, list(range(2, 19)))
    rows.append(("golden_weighted_s1", est2.value, est2.oracle))
    const = demos.constant_diag_4_1()
    est3 = thermo.pressure(const, 1.5, list(range(2, 9)))
    rows.append(("constant_s1.5", est3.value, est3.oracle))
    write_csv(outdir / "pressures.csv", "pressure-oracles",
              ["case", "estimate", "oracle"], rows)
    for case, val, oracle in rows:
        print(f"[pressure/{case}] estimate {val:.8f} vs oracle {oracle:.8f} "
              f"(err {abs(val - oracle):.2e})")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--outdir", type=pathlib.Path, default=pathlib.Path("results"))
    ap.add_argument("--seed", type=int, default=700)
    ap.add_argument("--samples", type=int, default=50)
    ap.add_argument("--quick", action="store_true",
                    help="smaller sample counts for a fast smoke run")
    args = ap.parse_args(argv)
    if args.quick:
        args.samples = 10
    args.outdir.mkdir(parents=True, exist_ok=True)

    experiment_theorem_a(args.outdir, args.seed, args.samples)
    experiment_theorem_b(args.outdir)
    experiment_theorem_c(args.outdir, args.seed)
    experiment_pressure(args.outdir)
    print(f"reports written to {args.outdir}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
