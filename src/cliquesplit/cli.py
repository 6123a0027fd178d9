"""Command-line interface.

Subcommands: ``gen`` (gnp | chimera | cm | hamming), ``reduce``, ``split``,
``solve``, ``qubo``, ``capacity``, ``bench``. Graphs travel as DIMACS
text; ``-`` means standard input. Exit codes: 0 success, 1 usage error,
2 solver failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import sys
import time
from dataclasses import fields, replace

from .bench import BenchConfig, build_graph, emit_csv, parse_config, run_experiment
from .chimera import clique_capacity
from .graphs import DimacsError, Graph, parse_dimacs, write_dimacs
from .qubo import evaluate, mc_to_qubo, write_qubo
from .reduction import k_core, reduce_graph
from .solvers import BACKENDS, SOLVER_NAMES, SolverConfig, SolverError, solve_mc
from .splitting import SplitConfig, split_solve

USAGE_ERROR = 1
SOLVER_FAILURE = 2

_BENCH_FIELDS = {f.name for f in fields(BenchConfig)}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        self.exit(USAGE_ERROR, f"{self.prog}: error: {message}\n")


def _read_graph(path: str) -> Graph:
    if path == "-":
        return parse_dimacs(sys.stdin.read())
    with open(path, encoding="utf-8") as handle:
        return parse_dimacs(handle.read())


def _write_output(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)


def build_parser() -> _Parser:
    parser = _Parser(prog="cliquesplit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a benchmark graph as DIMACS")
    gen_sub = gen.add_subparsers(dest="family", required=True)
    gnp = gen_sub.add_parser("gnp", help="G(n, p) random graph")
    gnp.add_argument("--n", type=int, required=True)
    gnp.add_argument("--p", type=float, required=True)
    gnp.add_argument("--seed", type=int, default=0)
    gnp.add_argument("--out", default=None)
    chim = gen_sub.add_parser("chimera", help="Chimera grid of complete bipartite cells")
    chim.add_argument("--rows", type=int, default=BenchConfig.rows)
    chim.add_argument("--cols", type=int, default=BenchConfig.cols)
    chim.add_argument("--shore", type=int, default=BenchConfig.shore)
    chim.add_argument("--out", default=None)
    cm = gen_sub.add_parser("cm", help="Chimera with random edge contractions")
    cm.add_argument("--contractions", type=int, required=True)
    cm.add_argument("--seed", type=int, default=0)
    cm.add_argument("--rows", type=int, default=BenchConfig.rows)
    cm.add_argument("--cols", type=int, default=BenchConfig.cols)
    cm.add_argument("--shore", type=int, default=BenchConfig.shore)
    cm.add_argument("--out", default=None)
    ham = gen_sub.add_parser("hamming", help="binary words, edges at distance >= d")
    ham.add_argument("--word-length", type=int, required=True)
    ham.add_argument("--min-distance", type=int, required=True)
    ham.add_argument("--out", default=None)

    red = sub.add_parser("reduce", help="clique-preserving graph shrinking")
    red.add_argument("input", help="DIMACS file, or - for stdin")
    group = red.add_mutually_exclusive_group(required=True)
    group.add_argument("--k", type=int, help="extract the k-core only")
    group.add_argument("--lower-bound", type=int, help="core + edge-prune reduction")
    red.add_argument("--seed", type=int, default=0)
    red.add_argument("--out", default=None)

    split = sub.add_parser("split", help="decompose and solve via bounded subproblems")
    split.add_argument("input")
    split.add_argument("--vertex-limit", type=int, required=True)
    split.add_argument("--solver", choices=SOLVER_NAMES, default="exact")
    split.add_argument("--seed", type=int, default=0)
    split.add_argument("--out", default=None)

    reads = "; ".join(f"{name}: --{' --'.join(b.reads)}".replace("_", "-") for name, b in BACKENDS.items())
    epilog = f"Besides --seed, each backend reads only these options and refuses the others: {reads}."
    solve = sub.add_parser("solve", help="run one subproblem solver directly", epilog=epilog)
    solve.add_argument("input")
    solve.add_argument("--solver", choices=SOLVER_NAMES, default="exact")
    solve.add_argument("--seed", type=int, default=0)
    solve.add_argument("--budget", type=int, default=None, help="annealing moves or branch nodes")
    solve.add_argument("--alpha", type=float, default=SolverConfig.alpha, help="cooling factor")
    solve.add_argument("--num-reads", type=int, default=SolverConfig.num_reads, help="samples or restarts")

    qubo = sub.add_parser("qubo", help="emit the clique QUBO of a graph")
    qubo.add_argument("--from-graph", required=True, metavar="FILE")
    qubo.add_argument("--out", default=None)

    cap = sub.add_parser("capacity", help="complete-graph capacity of an annealer")
    cap.add_argument("--qubits", type=int, required=True)

    bench = sub.add_parser("bench", help="run a configured experiment, emit CSV")
    bench.add_argument("config", help="flat key = value file")
    bench.add_argument("--seed", type=int, default=None, help="override the seed list")
    bench.add_argument("--solver", choices=SOLVER_NAMES, default=None)
    bench.add_argument("--vertex-limit", type=int, default=None)
    bench.add_argument("--repetitions", type=int, default=None)
    bench.add_argument("--out", default=None)
    return parser


def _cmd_gen(args) -> int:
    # Each family's options are named like the BenchConfig fields they set.
    params = {name: value for name, value in vars(args).items() if name in _BENCH_FIELDS}
    g, _ = build_graph(BenchConfig(graph=args.family, **params), getattr(args, "seed", 0))
    _write_output(write_dimacs(g), args.out)
    return 0


def _cmd_reduce(args) -> int:
    g = _read_graph(args.input)
    if args.k is not None:
        reduced = k_core(g, args.k)
    else:
        reduced = reduce_graph(g, args.lower_bound, seed=args.seed)
    _write_output(write_dimacs(reduced), args.out)
    removed_v = g.num_vertices - reduced.num_vertices
    removed_e = g.num_edges - reduced.num_edges
    print(f"removed_vertices={removed_v} removed_edges={removed_e}", file=sys.stderr)
    return 0


def _cmd_split(args) -> int:
    g = _read_graph(args.input)
    cfg = SplitConfig(vertex_limit=args.vertex_limit, seed=args.seed, solver=args.solver)
    begin = time.perf_counter()
    result = split_solve(g, cfg)
    wall = time.perf_counter() - begin
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["graph", "n", "m", "vertex_limit", "solver_calls", "clique_size", "wall_time_s"])
    writer.writerow(
        [args.input, g.num_vertices, g.num_edges, args.vertex_limit,
         result.stats.subproblems_solved, result.size, f"{wall:.6f}"]
    )
    _write_output(out.getvalue(), args.out)
    return 0


def _cmd_solve(args) -> int:
    g = _read_graph(args.input)
    cfg = SolverConfig(seed=args.seed, budget=args.budget, alpha=args.alpha, num_reads=args.num_reads)
    begin = time.perf_counter()
    result = solve_mc(g, args.solver, cfg)
    wall = time.perf_counter() - begin
    print(f"clique_size={result.size}")
    print(f"vertices={' '.join(str(v) for v in sorted(result.vertices))}")
    if BACKENDS[args.solver].qubo:
        x = [1 if v in result.vertices else 0 for v in range(g.num_vertices)]
        energy = evaluate(mc_to_qubo(g), x) if g.num_vertices else 0.0  # the empty graph has no QUBO
        print(f"energy={energy:g}")
    print(f"wall_time_s={wall:.6f}")
    return 0


def _cmd_bench(args) -> int:
    with open(args.config, encoding="utf-8") as handle:
        cfg = parse_config(handle.read())
    overrides = {}
    if args.seed is not None:
        overrides["seeds"] = (args.seed,)
    if args.solver is not None:
        overrides["solver"] = args.solver
    if args.vertex_limit is not None:
        overrides["vertex_limit"] = args.vertex_limit
    if args.repetitions is not None:
        overrides["repetitions"] = args.repetitions
    if overrides:
        cfg = replace(cfg, **overrides)
    records = run_experiment(cfg)
    _write_output(emit_csv(records), args.out)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:  # usage errors exit 1, --help exits 0
            return int(exc.code or 0)
        if args.command == "gen":
            return _cmd_gen(args)
        if args.command == "reduce":
            return _cmd_reduce(args)
        if args.command == "split":
            return _cmd_split(args)
        if args.command == "solve":
            return _cmd_solve(args)
        if args.command == "qubo":
            g = _read_graph(args.from_graph)
            _write_output(write_qubo(mc_to_qubo(g)), args.out)
            return 0
        if args.command == "capacity":
            print(clique_capacity(args.qubits))
            return 0
        return _cmd_bench(args)
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return SOLVER_FAILURE
    except (DimacsError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
