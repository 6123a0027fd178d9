"""Clique numbers of the benchmark's base graphs, computed with networkx.

    python3 perfbench/reference.py           # recompute and compare with reference.json
    python3 perfbench/reference.py --write   # recompute and rewrite reference.json

The benchmark checks the program's answers against these values. They
come from networkx's maximal-clique enumeration on the generators' edge
lists, which shares no code with the program's solvers. Relabelling a
graph does not change its clique number, so one value per base graph
serves every ``--seed``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import networkx as nx

from run import REFERENCE, load_program
from workloads import SCALES, generate_base


def clique_number(g) -> int:
    graph = nx.Graph()
    graph.add_nodes_from(range(g.num_vertices))
    graph.add_edges_from(g.edges())
    return max(len(c) for c in nx.find_cliques(graph))


def compute(cs, scales) -> dict:
    table = {}
    for scale in scales:
        table[scale] = {}
        for name, workload in SCALES[scale].items():
            omega = [clique_number(generate_base(cs, workload.family, s)) for s in workload.base_seeds]
            table[scale][name] = {
                "family": vars(workload.family),
                "base_seeds": list(workload.base_seeds),
                "omega": omega,
            }
            print(f"{scale} {name}: ω = {omega}", file=sys.stderr)
    return table


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Recompute the benchmark's reference clique numbers.")
    parser.add_argument("--write", action="store_true", help="rewrite reference.json")
    parser.add_argument("--scale", choices=tuple(SCALES), action="append", help="default: every scale")
    args = parser.parse_args(argv)
    cs, _ = load_program()
    scales = args.scale or list(SCALES)
    fresh = compute(cs, scales)
    recorded = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    if args.write:
        REFERENCE.write_text(json.dumps({**recorded, **fresh}, indent=1, sort_keys=True) + "\n")
        return 0
    stale = [f"{scale}/{name}" for scale in scales for name in fresh[scale] if fresh[scale][name] != recorded.get(scale, {}).get(name)]
    if stale:
        print(f"reference.json differs from a fresh computation for {', '.join(stale)}", file=sys.stderr)
        return 1
    print("reference.json matches a fresh computation")
    return 0


if __name__ == "__main__":
    sys.exit(main())
