#!/usr/bin/env python3
"""Per-instance result digests of one benchmark workload.

Builds the instances of a ``perfbench`` workload exactly as the benchmark
does (same base graphs, relabelling, DIMACS text, split seed, backend and
read count), decomposes each with ``split_solve`` from this checkout's
``src``, and prints one line per instance:

    <index> <subsolver calls> <clique size> <reductions> <digest> <input digest>

where the digest is a SHA-256 prefix over those three numbers and the
sorted clique vertices, and the input digest is a SHA-256 prefix of the
instance's DIMACS text. Two checkouts build the same inputs and give the
same results on a workload exactly when their outputs are equal, so
comparing a change with its parent is one diff.

Usage:
    python3 scripts/fingerprint.py --workload dense-exact --seed 1 [--scale tiny]
"""

import argparse
import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import cliquesplit as cs  # noqa: E402
from cliquesplit.solvers import get_subsolver  # noqa: E402
from workloads import SCALES, generate_base, instance_rng, relabel_edges  # noqa: E402


def instances(workload, seed: int):
    """(DIMACS text, split seed) per instance, in the benchmark's order."""
    index = 0
    for base_seed in workload.base_seeds:
        base = generate_base(cs, workload.family, base_seed)
        for _ in range(workload.relabelings):
            rng = instance_rng(workload.name, seed, index)
            edges = relabel_edges(base.edges(), base.num_vertices, rng)
            yield cs.write_dimacs(cs.Graph(base.num_vertices, edges)), rng.getrandbits(63)
            index += 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(SCALES["full"]))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", choices=sorted(SCALES), default="full")
    args = parser.parse_args()

    workload = SCALES[args.scale][args.workload]
    config = None if workload.num_reads is None else cs.SolverConfig(num_reads=workload.num_reads)
    solver = get_subsolver(workload.solver, config)
    for index, (text, split_seed) in enumerate(instances(workload, args.seed)):
        cfg = cs.SplitConfig(vertex_limit=workload.vertex_limit, seed=split_seed, solver=workload.solver)
        result = cs.split_solve(cs.parse_dimacs(text), cfg, solver=solver)
        fields = [result.stats.subproblems_solved, result.size, result.stats.reductions]
        digest = hashlib.sha256(json.dumps([*fields, sorted(result.vertices)]).encode()).hexdigest()[:16]
        print(index, *fields, digest, hashlib.sha256(text.encode()).hexdigest()[:16], flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
