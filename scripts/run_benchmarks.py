#!/usr/bin/env python3
"""Run the three builtin benchmarks end to end and tabulate the verdicts.

For each benchmark and each sgn convention this searches the standard annulus
for simple zeros of the averaged pair, sweeps every zero down an epsilon
ladder, and prints the fitted residual exponent next to the in-family
discriminator.  The closing table is the empirical answer to "which
convention produces the persistent orbit" for each benchmark: a zero counts
as validated by the rule of ``SweepReport.validated`` (valid sweep, main
exponent at least 1.8, in-family residuals consistent with second-order
scaling).

Usage: python3 scripts/run_benchmarks.py [--grid N] [--out FILE]
"""

from __future__ import annotations

import argparse
import math

import numpy as np

from pendavg import (
    BifurcationSystem,
    PhysicalParams,
    annulus_search,
    builtin,
    convention_verdict,
    epsilon_sweep,
    jordan_transform,
    predicted_initial_state,
    reduce_params,
    spectral_data,
)
from pendavg.cli import dumps_deterministic

BENCHMARKS = (
    ("damped_forced", {"gamma": 0.5}),
    ("damped_forced_escapement", {"gamma": 0.5, "kappa": 0.05}),
    ("corollary_escapement", {"sigma_d": 1.0, "sigma_e": 1.0}),
)
LADDER = (1e-2, 5e-3, 2.5e-3, 1.25e-3)
R1, R2 = 0.05, 2.0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--grid", type=int, default=12,
                        help="polar lattice size per annulus axis (default 12)")
    parser.add_argument("--out", default=None,
                        help="write the full summary as deterministic JSON")
    args = parser.parse_args()

    phys = PhysicalParams(1.0, 1.0, 1.0, 1.0, 9.8)
    reduced = reduce_params(phys)
    s = spectral_data(reduced)
    transform = jordan_transform(reduced, s)
    rng = np.random.default_rng(0)

    summary = []
    verdict_rows = []
    for name, params in BENCHMARKS:
        spec = builtin(name, params, s, family=1, p=1)
        per_convention = {}
        for convention in ("A", "B"):
            system = BifurcationSystem(1, spec, reduced, s, convention)
            certs = annulus_search(system, R1, R2, args.grid, rng=rng)
            print(f"\n== {name}, convention {convention}: "
                  f"{len(certs)} zero(s) in [{R1}, {R2}] ==")
            entries = []
            for cert in certs:
                orbit = predicted_initial_state(cert, 1, transform, s, reduced)
                report = epsilon_sweep(orbit, spec, reduced, s, LADDER, refine=False)
                ok = report.validated
                radius = math.hypot(*cert.point)
                print(f"  zero ({cert.point[0]:+.6f}, {cert.point[1]:+.6f})"
                      f"  |z| = {radius:.6f}")
                print(f"    exponent = {report.fitted_exponent:.4f}"
                      f"  family exponent = {report.family_exponent:.4f}"
                      f"  family consistent = {report.family_consistent}"
                      f"  -> {'validated' if ok else 'rejected'}")
                entries.append({
                    "point": list(cert.point),
                    "validated": ok,
                    "sweep": report.to_json_dict(),
                })
            per_convention[convention] = any(e["validated"] for e in entries)
            summary.append({
                "benchmark": name,
                "convention": convention,
                "zeros": entries,
            })
        verdict_rows.append((name, convention_verdict(per_convention)))

    print("\n== verdicts ==")
    for name, verdict in verdict_rows:
        print(f"  {name:28s} {verdict}")

    if args.out:
        payload = {
            "benchmarks": summary,
            "verdicts": {name: verdict for name, verdict in verdict_rows},
        }
        with open(args.out, "w") as fh:
            fh.write(dumps_deterministic(payload))
        print(f"\nwrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
