"""Benchmark of the cliquesplit decomposition solver.

Run from the root of a checkout:

    python3 perfbench/run.py --workload dense-exact --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` interleaves
untraced and traced passes and prints the per-layer metrics, the tracing
overhead, and writes the spans to ``perfbench/out/``. ``--workload all``
runs every workload, each in its own process. ``--scale tiny`` runs the
same code paths on small inputs (used by ``selfcheck.py``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. One operation is
the decomposition of one instance from its DIMACS text; every run attempts
whole rounds over all of a workload's instances. Every reported
end-to-end time is process CPU time scaled to a fixed reference speed of
the machine by ``speed.SpeedProbe``, which samples the machine's speed
throughout the run.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import traceback
from collections import defaultdict
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from spans import Tracer, layer_metrics, self_times, setup_metrics, summarize
from speed import SpeedProbe, cpu_clock
from workloads import PER_CALL_FEE_S, SCALES, generate_base, instance_rng, relabel_edges

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"
SETUP_REPEATS = 5

END_TO_END_UNITS = {
    "setup_s": "s",
    "solve_s": "s",
    "split_s": "s",
    "modeled_s": "s",
    "subsolver_calls": "count",
    "clique_size_total": "vertices",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "graphs.parse_s": "s",
    "graphs.from_adjacency_calls": "count",
    "graphs.from_adjacency_s": "s",
    "graphs.generate_s": "s",
    "chimera.contract_s": "s",
    "reduction.core_s": "s",
    "reduction.core_removed": "vertices",
    "partitioning.partition_s": "s",
    "partitioning.parts": "count",
    "partitioning.cost": "vertices",
    "splitting.reductions": "count",
    "splitting.self_s": "s",
    "solvers.greedy_s": "s",
    "solvers.calls": "count",
    "solvers.busy_s": "s",
    "solvers.subproblem_vertices_mean": "vertices",
    "solvers.sampler_reads": "count",
    "solvers.sampler_s": "s",
    "solvers.descent_calls": "count",
    "solvers.descent_s": "s",
    "qubo.build_s": "s",
    "qubo.evaluate_calls": "count",
    "qubo.evaluate_s": "s",
    "trace.overhead_s": "s",
}


def load_program():
    """Import cliquesplit from the checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "cliquesplit" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source under {src}; run from a checkout of the repository")
    sys.path.insert(0, str(src))
    import cliquesplit
    from cliquesplit import solvers, splitting

    return cliquesplit, {"solvers": solvers, "splitting": splitting}


@dataclass
class Instance:
    index: int
    text: str  # the DIMACS input handed to the program
    n: int
    split_seed: int
    omega: int  # clique number, computed by networkx (reference.json)
    edges: list[tuple[int, int]]  # the generated edge list, relabelled
    edge_keys: set[int] = field(default_factory=set)  # u * n + v for each edge, u < v


def set_up(cs, workload, seed: int, omegas: list[int], span=None) -> list[Instance]:
    """Generate every base graph, relabel it by ``seed`` and write each
    relabelling as DIMACS."""
    instances = []
    for base_index, base_seed in enumerate(workload.base_seeds):
        base = generate_base(cs, workload.family, base_seed, span)
        for _ in range(workload.relabelings):
            index = len(instances)
            rng = instance_rng(workload.name, seed, index)
            edges = relabel_edges(base.edges(), base.num_vertices, rng)
            text = cs.write_dimacs(cs.Graph(base.num_vertices, edges))
            instances.append(Instance(index, text, base.num_vertices, rng.getrandbits(63), omegas[base_index], edges))
    return instances


class CountingSubsolver:
    """The backend as ``split_solve`` sees it, counting every call, summing
its CPU time and counting subgraphs above the vertex limit."""

    def __init__(self, backend, vertex_limit: int):
        self.backend = backend
        self.vertex_limit = vertex_limit
        self.calls = 0
        self.oversize = 0
        self.busy_s = 0.0

    def __call__(self, g, seed):
        self.calls += 1
        if g.num_vertices > self.vertex_limit:
            self.oversize += 1
        begin = cpu_clock()
        try:
            return self.backend(g, seed)
        finally:
            self.busy_s += cpu_clock() - begin


@dataclass
class Outcome:
    index: int
    solve_s: float
    busy_s: float
    calls: int
    size: int
    reductions: int
    problems: list[str]


def solve(cs, modules, workload, inst: Instance, tracer: Tracer | None, probe: SpeedProbe) -> Outcome:
    """Parse and decompose one instance, then check the answer.

    The solve's CPU time is scaled to the probe's reference speed; the
    CPU time inside the subsolver is scaled by the solve's own ratio.
    """
    solvers = modules["solvers"]
    solver_config = None if workload.num_reads is None else solvers.SolverConfig(num_reads=workload.num_reads)
    counter = CountingSubsolver(solvers.get_subsolver(workload.solver, solver_config), workload.vertex_limit)
    solver, parse, split = counter, cs.parse_dimacs, cs.split_solve
    if tracer is not None:
        solver = tracer.wrap("solvers.subsolver", counter, lambda args, r: args[0].num_vertices)
        parse = tracer.wrap("graphs.parse_dimacs", parse)
        split = tracer.wrap("splitting.split_solve", split, lambda args, r: r.stats.reductions)
    cfg = cs.SplitConfig(vertex_limit=workload.vertex_limit, seed=inst.split_seed, solver=workload.solver)
    begin = cpu_clock()
    result = split(parse(inst.text), cfg, solver=solver)
    end = cpu_clock()
    elapsed = probe.scaled(begin, end)
    return Outcome(
        inst.index,
        elapsed,
        counter.busy_s * elapsed / (end - begin),
        counter.calls,
        result.size,
        result.stats.reductions,
        check(workload, inst, result, counter),
    )


def check(workload, inst: Instance, result, counter: CountingSubsolver) -> list[str]:
    """Compare one answer with the generated edge list and networkx's ω."""
    problems = []
    vs = sorted(result.vertices)
    if not vs or result.size != len(vs) or not (0 <= vs[0] and vs[-1] < inst.n):
        problems.append(f"returned vertex set {vs[:10]} is empty, out of range or miscounted")
        return problems
    n = inst.n
    missing = [(u, v) for i, u in enumerate(vs) for v in vs[i + 1 :] if u * n + v not in inst.edge_keys]
    if missing:
        problems.append(f"{len(missing)} returned pairs, e.g. {missing[0]}, are not edges of the generated graph")
    if workload.exact and result.size != inst.omega:
        problems.append(f"clique size {result.size} != ω = {inst.omega}")
    if result.size > inst.omega:
        problems.append(f"clique size {result.size} > ω = {inst.omega}")
    if counter.oversize:
        problems.append(f"{counter.oversize} subgraphs above vertex_limit {workload.vertex_limit}")
    if counter.calls != result.stats.subproblems_solved:
        problems.append(f"{counter.calls} subsolver calls != subproblems_solved {result.stats.subproblems_solved}")
    return problems


class Tally:
    """Attempted and failed operations, and whether any answer was wrong."""

    def __init__(self, probe: SpeedProbe):
        self.probe = probe
        self.attempted = 0
        self.failed = 0
        self.wrong = False
        self.first: dict[int, tuple[int, int, int]] = {}

    def run_round(self, cs, modules, workload, instances, tracer=None):
        """Solve every instance once untraced and, given a tracer, once traced
        right next to it, so drift in machine speed hits both alike.
        Returns the untraced and the traced outcomes that passed their checks."""
        plain, traced = [], []
        gc.collect()
        for inst in instances:
            if tracer is None:
                self.attempt(cs, modules, workload, inst, None, plain)
                continue
            tracer.instance = inst.index
            order = [(None, plain), (tracer, traced)]
            for run_tracer, outcomes in order if inst.index % 2 == 0 else order[::-1]:
                with tracer.patched(modules) if run_tracer else nullcontext():
                    self.attempt(cs, modules, workload, inst, run_tracer, outcomes)
        return plain, traced

    def attempt(self, cs, modules, workload, inst, tracer, outcomes: list[Outcome]) -> None:
        self.attempted += 1
        try:
            outcome = solve(cs, modules, workload, inst, tracer, self.probe)
        except Exception:  # one failed operation must not end the run
            traceback.print_exc()
            self.failed += 1
            return
        # Deterministic fields repeat exactly on every pass, traced or not.
        fingerprint = (outcome.calls, outcome.size, outcome.reductions)
        expected = self.first.setdefault(inst.index, fingerprint)
        if fingerprint != expected:
            outcome.problems.append(f"(calls, size, reductions) {fingerprint} != first solve {expected}")
        if outcome.problems:
            print(f"perfbench: instance {inst.index}: " + "; ".join(outcome.problems), file=sys.stderr)
            self.failed += 1
            self.wrong = True
            return
        outcomes.append(outcome)


def pass_solve_s(outcomes: list[Outcome]) -> float:
    return sum(o.solve_s for o in outcomes)


def instance_totals(rounds: list[list[Outcome]]) -> dict[str, float]:
    """Each instance's median over the rounds, summed over the instances.

    A per-instance median discards an instance's slow visits, which the
    shared machine's bursts of interference cause, at a finer grain than
    a median over whole rounds.
    """
    visits: dict[int, list[Outcome]] = defaultdict(list)
    for outcomes in rounds:
        for o in outcomes:
            visits[o.index].append(o)
    split_s = sum(statistics.median(o.solve_s - o.busy_s for o in v) for v in visits.values())
    calls = sum(v[0].calls for v in visits.values())
    return {
        "solve_s": sum(statistics.median(o.solve_s for o in v) for v in visits.values()),
        "split_s": split_s,
        "modeled_s": split_s + PER_CALL_FEE_S * calls,
        "subsolver_calls": calls,
        "clique_size_total": sum(v[0].size for v in visits.values()),
    }


def medians(rows: list[dict[str, float]]) -> dict[str, float]:
    return {key: statistics.median(row[key] for row in rows) for key in rows[0]}


def load_omegas(scale: str, workload) -> list[int]:
    entry = json.loads(REFERENCE.read_text())[scale][workload.name]
    if entry["family"] != vars(workload.family) or tuple(entry["base_seeds"]) != workload.base_seeds:
        raise SystemExit(f"perfbench: {REFERENCE.name} does not match {workload.name}; rerun reference.py")
    return entry["omega"]


def set_up_repeatedly(cs, workload, seed: int, omegas: list[int], tracer: Tracer | None, probe: SpeedProbe):
    """Set up ``SETUP_REPEATS`` times; returns the scaled set-up times, the
    traced set-up passes and the last set-up's instances."""
    setup_times, setup_passes = [], []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        begin = cpu_clock()
        if tracer is None:
            instances = set_up(cs, workload, seed, omegas)
        else:
            tracer.pass_id += 1
            first = len(tracer.spans)
            instances = set_up(cs, workload, seed, omegas, tracer.span)
            setup_passes.append((first, len(tracer.spans)))
        setup_times.append(probe.scaled(begin, cpu_clock()))
    for inst in instances:  # the check's edge index, outside every timed region
        inst.edge_keys = {u * inst.n + v if u < v else v * inst.n + u for u, v in inst.edges}
        inst.edges = []
    return setup_times, setup_passes, instances


def solve_rounds(cs, modules, workload, instances, tracer: Tracer | None, tally: Tally, seconds: float):
    """Whole rounds over every instance, while the next round still fits
    into ``seconds`` of wall time."""
    rounds, traced_rounds, traced_passes = [], [], []
    start = perf_counter()
    while True:
        begin = perf_counter()
        if tracer is not None:
            tracer.pass_id += 1
            first = len(tracer.spans)
        plain, traced = tally.run_round(cs, modules, workload, instances, tracer)
        rounds.append(plain)
        if tracer is not None:
            traced_rounds.append(traced)
            traced_passes.append((first, len(tracer.spans)))
        took = perf_counter() - begin
        print(f"perfbench: round {len(rounds)}: solve_s {pass_solve_s(plain):.4f}, wall {took:.4f} s", file=sys.stderr)
        if perf_counter() - start + took > seconds:
            return rounds, traced_rounds, traced_passes, perf_counter() - start


def run_workload(name: str, seed: int, seconds: float, trace: bool, scale: str) -> dict:
    cs, modules = load_program()
    workload = SCALES[scale][name]
    omegas = load_omegas(scale, workload)
    tracer = Tracer() if trace else None
    with SpeedProbe() as probe:
        setup_times, setup_passes, instances = set_up_repeatedly(cs, workload, seed, omegas, tracer, probe)
        tally = Tally(probe)
        rounds, traced_rounds, traced_passes, wall = solve_rounds(cs, modules, workload, instances, tracer, tally,
                                                                 seconds)
    print(f"perfbench: {len(rounds)} rounds in {wall:.2f} s of wall time, mean probe speed "
          f"{statistics.fmean(probe.speeds):.3f}", file=sys.stderr)

    if tracer is None:
        values = instance_totals(rounds)
        values["setup_s"] = statistics.median(setup_times)
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        units = END_TO_END_UNITS
    else:
        own = self_times(tracer.spans)
        layers = [layer_metrics(tracer.spans[a:b], own[a:b]) for a, b in traced_passes]
        for row, traced, plain in zip(layers, traced_rounds, rounds):
            row["trace.overhead_s"] = pass_solve_s(traced) - pass_solve_s(plain)
        values = medians(layers)
        values.update(medians([setup_metrics(tracer.spans[a:b]) for a, b in setup_passes]))
        units = PER_LAYER_UNITS
        write_trace(tracer, own, f"{name}-seed{seed}", traced_passes, values, instance_totals(rounds))

    return {
        "correct": not tally.wrong,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {key: {"value": values[key], "unit": unit} for key, unit in units.items()},
    }


def write_trace(tracer: Tracer, own: list[float], stem: str, passes, layers: dict, untraced: dict) -> None:
    """The spans, and a per-name table of the traced solves' spans."""
    OUT.mkdir(exist_ok=True)
    stem = OUT / stem
    tracer.write(stem.with_suffix(".spans.jsonl.gz"))
    table, _ = summarize([s for a, b in passes for s in tracer.spans[a:b]], [t for a, b in passes for t in own[a:b]])
    summary = {
        "passes": len(passes),
        "untraced_solve_s": untraced["solve_s"],
        "overhead_share": layers["trace.overhead_s"] / untraced["solve_s"] if untraced["solve_s"] else None,
        "spans_per_name": table,
    }
    stem.with_suffix(".summary.json").write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")


def print_table(name: str, report: dict) -> None:
    print(f"{name}: attempted {report['attempted']}, failed {report['failed']}, correct {report['correct']}")
    for key, metric in report["metrics"].items():
        print(f"  {key:36s} {metric['value']:14.6g} {metric['unit']}")


def run_all(args) -> dict:
    """Each workload in its own process, so each has its own peak RSS."""
    reports = {}
    for name in SCALES[args.scale]:
        cmd = [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace), "--scale", args.scale]
        child = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
        reports[name] = json.loads(child.stdout.strip().splitlines()[-1])
        print_table(name, reports[name])
    return reports


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*SCALES["full"], "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=tuple(SCALES), default="full")
    args = parser.parse_args(argv)
    if args.workload == "all":
        print(json.dumps(run_all(args)))
        return 0
    report = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.scale)
    print_table(args.workload, report)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
