#!/usr/bin/env python3
"""Decomposition workload under growing annealer capacity.

Starts from the current machine (1152 qubits, 45 usable clique vertices
after defects) and doubles the qubit count per generation; each doubling
raises the embeddable-clique capacity by about sqrt(2). For one fixed
random graph, reports how the subsolver call count and the modeled total
time fall as the capacity ladder climbs.

Usage:
    python3 scripts/future_machines.py --n 500 --p 0.3 --doublings 4
"""

import argparse
import csv
import statistics
import sys

from cliquesplit import clique_capacity, gnp_random, sweep_vertex_limit

BASE_QUBITS = 1152
CURRENT_USABLE_LIMIT = 45  # defect-adjusted capacity of the base machine


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=500)
    parser.add_argument("--p", type=float, default=0.3)
    parser.add_argument("--graph-seed", type=int, default=20260809)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--doublings", type=int, default=4)
    parser.add_argument("--per-call-seconds", type=float, default=0.15)
    parser.add_argument("--out", default=None)
    args = parser.parse_args()

    ladder = [(BASE_QUBITS, CURRENT_USABLE_LIMIT)]
    for k in range(1, args.doublings + 1):
        qubits = BASE_QUBITS * 2**k
        ladder.append((qubits, clique_capacity(qubits)))

    g = gnp_random(args.n, args.p, args.graph_seed)
    writer_target = open(args.out, "w", encoding="utf-8", newline="") if args.out else sys.stdout
    writer = csv.writer(writer_target, lineterminator="\n")
    writer.writerow(["qubits", "vertex_limit", "median_solver_calls", "modeled_total_s"])
    limits = [limit for _, limit in ladder]
    per_seed = [sweep_vertex_limit(g, limits, seed=s) for s in range(args.seeds)]
    for k, (qubits, limit) in enumerate(ladder):
        median_calls = statistics.median(table[k][1] for table in per_seed)
        writer.writerow([qubits, limit, median_calls, args.per_call_seconds * median_calls])
        print(f"qubits={qubits}: limit={limit}, median calls={median_calls}", file=sys.stderr)
    if args.out:
        writer_target.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
