#!/usr/bin/env python3
"""Solver-call growth against edge density.

Decomposes G(n, p) for a ladder of edge probabilities and reports the
median number of subsolver calls per density, plus a log-linear fit. The
call count is what a fixed-capacity annealing machine would be billed
for, so the growth rate is the practical hardness curve of dense inputs.

Usage:
    python3 scripts/density_sweep.py --n 500 --vertex-limit 45 --seeds 10
"""

import argparse
import statistics
import sys

import numpy as np

from cliquesplit import BenchConfig, emit_csv, run_experiment


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=500)
    parser.add_argument("--p-values", default="0.10,0.15,0.20,0.25,0.30,0.35,0.40")
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--vertex-limit", type=int, default=45)
    parser.add_argument("--solver", default="exact")
    parser.add_argument("--out", default=None)
    args = parser.parse_args()

    p_values = [float(tok) for tok in args.p_values.split(",")]
    all_rows = []
    medians = []
    for p in p_values:
        cfg = BenchConfig(
            experiment=f"density-sweep-p{p:g}",
            graph="gnp",
            n=args.n,
            p=p,
            solver=args.solver,
            vertex_limit=args.vertex_limit,
            seeds=tuple(range(args.seeds)),
        )
        records = run_experiment(cfg)
        all_rows.extend(records)
        median_calls = statistics.median(r.solver_calls for r in records[:-1])
        medians.append(median_calls)
        print(f"p={p:g}: median solver calls = {median_calls}", file=sys.stderr)

    logs = np.log(np.maximum(medians, 1))
    xs = np.array(p_values)
    slope, intercept = np.polyfit(xs, logs, 1)
    residual = logs - (slope * xs + intercept)
    r2 = 1.0 - float(np.sum(residual**2) / max(np.sum((logs - logs.mean()) ** 2), 1e-12))
    print(f"log-linear fit: slope={slope:.2f} per unit p, R^2={r2:.3f}", file=sys.stderr)

    csv_text = emit_csv(all_rows)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(csv_text)
    else:
        sys.stdout.write(csv_text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
