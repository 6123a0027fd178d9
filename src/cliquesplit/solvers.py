"""Subproblem solvers behind one interface.

Backends:

- ``exact``: branch-and-bound with a greedy-coloring upper bound — the
  reference oracle, deterministic.
- ``sa-clique``: simulated annealing over fixed-size vertex subsets
  (energy = missing edges inside the subset), wrapped in a binary search
  over the target size.
- ``sa-qubo``: single-bit-flip Metropolis annealing on the clique QUBO.
- ``descent``: greedy best-improvement bit flips to a 1-flip local
  minimum, restarted from random assignments; all restarts descend
  together in one batch.
- ``sampler``: a pluggable annealer stand-in. ``mock_sampler`` sets the
  QUBO up once per call, draws every read's randomness from one
  generator and anneals all reads in lockstep; the samples are then
  polished in one batched descent before the best is kept.

Every annealer accepts a move when its energy change is below
``max(T_t, 1e-12) * -ln(u_t)``, for its uniform draw ``u_t`` and geometric
cooling T_{t+1} = alpha * T_t (``_metropolis_cuts``). Every stochastic
backend is bit-reproducible given its seed and budget.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, fields, replace
from typing import Callable, NamedTuple, Protocol, Sequence

import numpy as np

from .graphs import CliqueResult, CliqueStats, Graph, clique_result, is_clique
from .qubo import Qubo, evaluate, mc_to_qubo

SA_CLIQUE_DEFAULT_BUDGET = 30_000
SA_QUBO_DEFAULT_BUDGET = 20_000
MOCK_SAMPLER_BUDGET = 200
MOCK_SAMPLER_ALPHA = 0.98
SA_CLIQUE_RESTARTS = 3  # sa_clique attempts per size in the sa-clique binary search


class SolverError(Exception):
    """Base class for solver failures."""


class BudgetExceededError(SolverError):
    """Search budget exhausted; carries the best result found so far."""

    def __init__(self, message: str, best: CliqueResult | None = None):
        super().__init__(message)
        self.best = best


class SubproblemSolveError(SolverError):
    """A subproblem solve failed; carries the subproblem for replay."""

    def __init__(self, message: str, subgraph: Graph, anchor: frozenset[int]):
        super().__init__(message)
        self.subgraph = subgraph
        self.anchor = anchor


@dataclass(frozen=True)
class SolverConfig:
    """Shared knobs for the backends; each backend reads only some of them.

    ``seed`` seeds every stochastic backend and must be non-negative, as
    numpy's generators require. ``budget`` counts moves (``sa-clique``,
    ``sa-qubo``) or branch nodes (``exact``); None means the backend
    default. ``alpha`` is the geometric cooling factor T_{n+1} = alpha *
    T_n of ``sa-clique`` and ``sa-qubo``, starting from a temperature
    calibrated so that roughly half of the uphill probe moves would be
    accepted. ``num_reads`` is the sample count for ``sampler`` and the
    restart count for ``descent``.

    ``BACKENDS`` lists the fields each backend reads; ``backend`` refuses
    a non-default field that the chosen backend does not read.
    """

    seed: int = 0
    budget: int | None = None
    alpha: float = 0.9996
    num_reads: int = 500

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie strictly between 0 and 1")
        if self.budget is not None and self.budget < 1:
            raise ValueError("budget must be positive")
        if self.num_reads < 1:
            raise ValueError("num_reads must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


@dataclass(frozen=True)
class SampleSet:
    """Assignments with energies, ascending by energy."""

    samples: tuple[tuple[tuple[int, ...], float], ...]

    @classmethod
    def from_assignments(cls, q: Qubo, assignments: Sequence[Sequence[int]]) -> "SampleSet":
        scored = [(tuple(x), evaluate(q, x)) for x in assignments]
        scored.sort(key=lambda pair: pair[1])
        return cls(tuple(scored))

    def __len__(self) -> int:
        return len(self.samples)


class SamplerProtocol(Protocol):
    def __call__(self, q: Qubo, num_reads: int, seed: int) -> SampleSet: ...


def greedy_clique(g: Graph) -> list[int]:
    """Grow a clique by repeatedly adding the highest-degree compatible vertex.

    One pass over the vertices by descending degree, ties to the smaller
    id, takes each vertex adjacent to every one taken before.
    """
    degrees = g.degrees()
    candidates = set(range(len(degrees)))
    clique: list[int] = []
    for v in sorted(range(len(degrees)), key=degrees.__getitem__, reverse=True):
        if v in candidates:
            clique.append(v)
            candidates &= g.neighbors(v)
    return clique


def _color_sort(cand: int, adj: list[int]) -> tuple[list[int], list[int]]:
    """Greedy coloring of the candidate bitset; vertices come back grouped
    by color class with bounds[i] = color number, an upper bound on any
    clique extending through order[i:]."""
    order: list[int] = []
    bounds: list[int] = []
    uncolored = cand
    color = 0
    while uncolored:
        color += 1
        q = uncolored
        while q:
            b = q & -q
            v = b.bit_length() - 1
            q &= ~(adj[v] | b)
            uncolored ^= b
            order.append(v)
            bounds.append(color)
    return order, bounds


def exact_max_clique(g: Graph, budget: int | None = None) -> CliqueResult:
    """Exact maximum clique by branch-and-bound over vertex bitsets.

    Vertices are relabelled in descending-degree order so the greedy
    coloring packs tight bounds; a greedy clique seeds the incumbent. The
    masks are packed from ``g.adjacency_matrix()``, one row per vertex,
    so a matrix-built graph never builds its neighbour sets here.
    ``budget`` caps the number of branch nodes; exceeding it raises
    BudgetExceededError carrying the best clique found so far.
    """
    n = g.num_vertices
    if n == 0:
        return CliqueResult(frozenset(), 0, "exact")
    mat = g.adjacency_matrix()
    order = np.argsort(-mat.sum(axis=1), kind="stable")  # stable: ties keep ascending ids
    rows = np.packbits(mat[order][:, order], axis=1, bitorder="little")
    width, data = rows.shape[1], rows.tobytes()
    adj = [int.from_bytes(data[i : i + width], "little") for i in range(0, len(data), width)]
    order = order.tolist()

    best, cand = [], (1 << n) - 1  # greedy_clique's pass: ``order`` is its visiting order
    for i in range(n):
        if cand >> i & 1:
            best.append(i)
            cand &= adj[i]
    search = _BranchAndBound(adj, budget, best)
    try:
        search.expand(0, (1 << n) - 1, len(search.best))
    except BudgetExceededError as exc:
        exc.best = clique_result(g, (order[i] for i in search.best), "exact")
        raise
    return clique_result(g, (order[i] for i in search.best), "exact")


class _BranchAndBound:
    """The state of one exact search: the bitset adjacency, the branch-node
    budget and count, the best clique so far and the clique being grown.

    The recursion is a method, not a closure: a nested function that calls
    itself holds itself through its cell, so every search would leave a
    reference cycle (with the mask lists) for the cyclic collector.
    """

    __slots__ = ("adj", "budget", "nodes", "best", "stack")

    def __init__(self, adj: list[int], budget: int | None, best: list[int]):
        self.adj = adj
        self.budget = budget
        self.nodes = 0
        self.best = best
        self.stack: list[int] = []

    def expand(self, rsize: int, cand: int, best_size: int) -> int:
        """Branch on the candidate bitset ``cand`` below the ``rsize``
        vertices on the stack; returns the best clique size so far."""
        adj = self.adj
        stack = self.stack
        order, bounds = _color_sort(cand, adj)
        for i in range(len(order) - 1, -1, -1):
            if rsize + bounds[i] <= best_size:
                return best_size
            self.nodes += 1
            if self.budget is not None and self.nodes > self.budget:
                raise BudgetExceededError(f"exceeded {self.budget} branch nodes")
            v = order[i]
            stack.append(v)
            newcand = cand & adj[v]
            if newcand:
                best_size = self.expand(rsize + 1, newcand, best_size)
            elif rsize + 1 > best_size:
                best_size = rsize + 1
                self.best = list(stack)
            stack.pop()
            cand ^= 1 << v
        return best_size


def _calibrate_temperature(deltas: Sequence[Sequence[float]] | np.ndarray) -> np.ndarray:
    """One T per row of probe energy changes, picked so uphill probe moves
    are accepted about half the time: the mean uphill change over ln 2, or
    1.0 for a row with none uphill."""
    probes = np.asarray(deltas, dtype=float)
    uphill = probes > 0
    counts = uphill.sum(axis=-1)
    sums = np.where(uphill, probes, 0.0).sum(axis=-1)
    return np.where(counts > 0, sums / np.maximum(counts, 1) / math.log(2.0), 1.0)


def _metropolis_cuts(
    temperature: float | np.ndarray, alpha: float, uniforms: np.ndarray
) -> tuple[np.ndarray, float | np.ndarray]:
    """Thresholds of a batch of moves, and the temperature after it: move t
    (the last axis of ``uniforms``) is accepted when its energy change is
    below ``max(T_t, 1e-12) * -ln(u_t)``, which is ``delta <= 0 or u_t <
    exp(-delta / max(T_t, 1e-12))`` up to rounding. T_0 is ``temperature``
    (a scalar or one per row) and T_{t+1} = alpha * T_t is multiplied in
    sequence, so chained batches give the thresholds of one batch."""
    factors = np.full(uniforms.shape, alpha)
    factors[..., 0] = temperature
    temperatures = np.multiply.accumulate(factors, axis=-1)
    with np.errstate(divide="ignore"):
        cuts = np.maximum(temperatures, 1e-12) * -np.log(uniforms)
    return cuts, temperatures[..., -1] * alpha


def sa_clique(g: Graph, m: int, cfg: SolverConfig = SolverConfig()) -> set[int] | None:
    """Hunt for a clique of exactly ``m`` vertices by annealing a size-m subset.

    The state is an m-vertex subset, its energy the number of non-adjacent
    pairs inside it; a move swaps one member for one outsider and is
    accepted by the Metropolis rule of ``_metropolis_cuts``. Returns the
    subset (a verified clique) when the energy reaches zero, or None at
    budget end. Never returns a false positive.
    """
    n = g.num_vertices
    if not 1 <= m <= n:
        raise ValueError(f"target size {m} outside [1, {n}]")
    rng = np.random.default_rng(cfg.seed)
    nonadj = ~g.adjacency_matrix()
    np.fill_diagonal(nonadj, False)
    nonadj_counts = nonadj.astype(np.int64)

    members = rng.choice(n, size=m, replace=False).astype(np.int64)
    in_set = np.zeros(n, dtype=bool)
    in_set[members] = True
    outside = np.flatnonzero(~in_set).astype(np.int64)
    cnt = nonadj_counts[:, members].sum(axis=1)
    energy = int(cnt[members].sum()) // 2

    def verified(subset: np.ndarray) -> set[int]:
        vs = set(int(v) for v in subset)
        if not is_clique(g, vs):
            raise RuntimeError("zero-energy subset failed clique verification")
        return vs

    if energy == 0:
        return verified(members)
    if len(outside) == 0:
        return None  # m == n and the graph is not complete

    budget = cfg.budget if cfg.budget is not None else SA_CLIQUE_DEFAULT_BUDGET
    probes = []
    for _ in range(100):
        u = members[rng.integers(len(members))]
        w = outside[rng.integers(len(outside))]
        probes.append(float(cnt[w] - cnt[u] - int(nonadj[u, w])))
    temperature = float(_calibrate_temperature([probes])[0])

    for step in range(0, budget, 4096):
        k = min(4096, budget - step)
        member_idx = rng.integers(0, len(members), size=k)
        outside_idx = rng.integers(0, len(outside), size=k)
        cuts, temperature = _metropolis_cuts(temperature, cfg.alpha, rng.random(k))
        for i, o, cut in zip(member_idx.tolist(), outside_idx.tolist(), cuts.tolist()):
            u = members[i]
            w = outside[o]
            delta = int(cnt[w]) - int(cnt[u]) - int(nonadj[u, w])
            if delta < cut:
                members[i] = w
                outside[o] = u
                cnt += nonadj_counts[w]
                cnt -= nonadj_counts[u]
                energy += delta
                if energy == 0:
                    return verified(members)
    return None


def _flip_neighbors(q: Qubo) -> list[list[tuple[int, float]]]:
    nbrs: list[list[tuple[int, float]]] = [[] for _ in range(q.num_variables)]
    for (i, j), a in q.quadratic.items():
        nbrs[i].append((j, a))
        nbrs[j].append((i, a))
    return nbrs


def _gains(q: Qubo, x: Sequence[int]) -> list[float]:
    """gain[i] = energy change of setting x_i from 0 to 1, given the rest."""
    gains = [0.0] * q.num_variables
    for i, a in q.linear.items():
        gains[i] += a
    for (i, j), a in q.quadratic.items():
        if x[j]:
            gains[i] += a
        if x[i]:
            gains[j] += a
    return gains


def _anneal_draws(
    seed: int, n: int, budget: int, reads: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Everything ``reads`` annealing reads draw from one
    ``default_rng(seed)``, one row per read, in order: the start bits, the
    temperature probes, then the flip indices and uniforms of each
    4096-move batch (joined along each row). One read draws the
    stream of one ``sa_qubo`` run."""
    rng = np.random.default_rng(seed)
    start = rng.integers(0, 2, size=(reads, n))
    probes = rng.integers(0, n, size=(reads, min(100, budget)))
    flips, uniforms = [], []
    for step in range(0, budget, 4096):
        k = min(4096, budget - step)
        flips.append(rng.integers(0, n, size=(reads, k)))
        uniforms.append(rng.random((reads, k)))
    return start, probes, np.concatenate(flips, axis=1), np.concatenate(uniforms, axis=1)


def _anneal(
    q: Qubo, start: np.ndarray, probes: np.ndarray, flips: np.ndarray, uniforms: np.ndarray, alpha: float
) -> tuple[list[int], float]:
    """One read's single-bit-flip Metropolis moves over its rows of
    ``_anneal_draws``: from ``start``, at the temperature calibrated on the
    ``probes`` flips, move t flips ``flips[t]`` when the rule of
    ``_metropolis_cuts`` accepts it for ``uniforms[t]``. Returns the best
    assignment seen and its energy (consistent with ``evaluate``)."""
    x = [int(b) for b in start]
    nbrs = _flip_neighbors(q)
    gains = _gains(q, x)
    energy = evaluate(q, x)
    best_energy = energy
    best_x = list(x)

    deltas = [gains[i] if x[i] == 0 else -gains[i] for i in probes]
    cuts, _ = _metropolis_cuts(float(_calibrate_temperature([deltas])[0]), alpha, uniforms)
    for i, cut in zip(flips.tolist(), cuts.tolist()):
        delta = gains[i] if x[i] == 0 else -gains[i]
        if delta < cut:
            sign = 1 if x[i] == 0 else -1
            x[i] ^= 1
            for j, a in nbrs[i]:
                gains[j] += sign * a
            energy += delta
            if energy < best_energy:
                best_energy = energy
                best_x = list(x)
    return best_x, best_energy


def sa_qubo(q: Qubo, cfg: SolverConfig = SolverConfig()) -> tuple[list[int], float]:
    """Single-bit-flip Metropolis annealing from a uniform random start,
    each move decided by the rule of ``_metropolis_cuts``: ``_anneal`` over
    one read of ``_anneal_draws(cfg.seed, ...)``.

    Returns the best assignment seen and its energy (consistent with
    ``evaluate``).
    """
    n = q.num_variables
    if n == 0:
        return [], 0.0
    budget = cfg.budget if cfg.budget is not None else SA_QUBO_DEFAULT_BUDGET
    return _anneal(q, *(rows[0] for rows in _anneal_draws(cfg.seed, n, budget, 1)), cfg.alpha)


def _dense_qubo(q: Qubo) -> tuple[np.ndarray, np.ndarray]:
    """The linear coefficients as a vector and the couplings as a
    symmetric matrix with a zero diagonal."""
    n = q.num_variables
    linear = np.zeros(n)
    linear[list(q.linear)] = list(q.linear.values())
    coupling = np.zeros((n, n))
    if q.quadratic:
        rows, cols = np.array(list(q.quadratic)).T
        coupling[rows, cols] = coupling[cols, rows] = list(q.quadratic.values())
    return linear, coupling


def _energies(linear: np.ndarray, bits: np.ndarray, gains: np.ndarray) -> np.ndarray:
    """Energy of each row of ``bits`` whose gains are ``linear + bits @ coupling``;
    exact when the coefficients are integers."""
    return 0.5 * ((linear + gains) * bits).sum(axis=1)


def _best_descent(q: Qubo, starts: Sequence[Sequence[int]]) -> tuple[list[int], float]:
    """Greedy best-improvement descent of every start at once; returns the
    first of the lowest-energy minima and its energy.

    Each round flips, in every row that can still improve, the variable
    with the most negative energy change, the lowest index on ties; rows
    stop at a 1-flip local minimum. Starts are checked as ``evaluate``
    checks an assignment.
    """
    n = q.num_variables
    for x in starts:
        if len(x) != n:
            raise ValueError(f"assignment length {len(x)} != {n} variables")
    raw = np.asarray(starts).reshape(len(starts), n)
    if not ((raw == 0) | (raw == 1)).all():
        raise ValueError("assignment entries must be 0 or 1")
    bits = raw.astype(np.int8)
    linear, coupling = _dense_qubo(q)
    gains = linear + bits @ coupling
    energy = _energies(linear, bits, gains)
    rows = np.arange(len(bits))
    while n:
        deltas = gains * (1 - 2 * bits)
        flip = deltas.argmin(axis=1)
        drop = deltas[rows, flip]
        live = np.flatnonzero(drop < 0)
        if live.size == 0:
            break
        flip = flip[live]
        sign = 1 - 2 * bits[live, flip]
        bits[live, flip] ^= 1
        gains[live] += sign[:, None] * coupling[flip]
        energy[live] += drop[live]
    best = int(np.argmin(energy))
    return bits[best].tolist(), float(energy[best])


def local_search_descent(q: Qubo, start: Sequence[int]) -> tuple[list[int], float]:
    """Greedy best-improvement bit flips until no flip lowers the energy.

    The output is a certified 1-flip local minimum with energy at most the
    start's. Ties pick the lowest variable index, so descent is
    deterministic. This is the one-start case of the batched descent that
    ``sampler_solve`` and the ``descent`` backend run.
    """
    return _best_descent(q, [start])


def mock_sampler(q: Qubo, num_reads: int, seed: int) -> SampleSet:
    """Annealer stand-in: ``num_reads`` short Metropolis reads, annealed in
    lockstep.

    One ``default_rng(seed)`` draws every read's randomness at once
    (``_anneal_draws`` at budget ``MOCK_SAMPLER_BUDGET``), and read ``r``
    takes row ``r`` of each draw. Each read keeps its own calibrated
    temperature, cooled by ``MOCK_SAMPLER_ALPHA`` per move, and every move
    is decided by the rule of ``_metropolis_cuts``, so when the
    coefficients are integers, as in the clique QUBO, sample ``r`` and its
    energy are exactly those of ``_anneal`` over row ``r`` of the draws.
    The QUBO is set up once per call, and each move of all reads is one
    step on a reads x n state. The energy trajectories, and from them each
    read's best state, are computed once the moves are done.
    """
    reads = max(num_reads, 0)
    n = q.num_variables
    if reads == 0 or n == 0:
        return SampleSet((((), 0.0),) * reads)
    budget = MOCK_SAMPLER_BUDGET
    starts, probes, flips, uniforms = _anneal_draws(seed, n, budget, reads)
    linear, coupling = _dense_qubo(q)
    gains = linear + starts @ coupling
    signs = 1.0 - 2.0 * starts  # a flip's energy change is gain * sign
    energy = _energies(linear, starts, gains)
    first = _calibrate_temperature(np.take_along_axis(gains * signs, probes, axis=1))
    cuts = _metropolis_cuts(first, MOCK_SAMPLER_ALPHA, uniforms)[0].T

    cells = flips.T + np.arange(reads) * n  # move t of read r flips cell r*n + i
    flat_gains, flat_signs = gains.reshape(-1), signs.reshape(-1)
    deltas = np.empty((budget, reads))
    for t, cell in enumerate(cells):
        sign = flat_signs[cell]
        delta = deltas[t] = flat_gains[cell] * sign
        live = (delta < cuts[t]).nonzero()[0]
        if live.size:
            gains[live] += sign[live, None] * coupling[flips[live, t]]
            flat_signs[cell[live]] = -sign[live]

    accepted = deltas < cuts
    steps = np.where(accepted, deltas, 0.0)
    trajectory = np.cumsum(np.vstack([energy, steps]), axis=0)
    best = trajectory.argmin(axis=0)  # the first time each read reaches its lowest energy
    best_energy = trajectory[best, np.arange(reads)]
    taken = accepted & (np.arange(budget)[:, None] < best)
    best_bits = starts ^ (np.bincount(cells[taken], minlength=reads * n).reshape(reads, n) & 1)
    samples = sorted(zip(map(tuple, best_bits.tolist()), best_energy.tolist()), key=lambda s: s[1])
    return SampleSet(tuple(samples))


def sampler_solve(
    q: Qubo, sampler: SamplerProtocol, cfg: SolverConfig = SolverConfig()
) -> tuple[list[int], float]:
    """Request ``num_reads`` samples and polish them all in one batched
    descent, mirroring the anneal-then-postprocess pipeline; returns the
    first sample with the lowest polished energy. With ``mock_sampler``
    the reads anneal in lockstep, all drawn from one generator seeded with
    ``cfg.seed``."""
    samples = sampler(q, cfg.num_reads, cfg.seed)
    if len(samples) == 0:
        raise SolverError("sampler returned no samples")
    return _best_descent(q, [x for x, _ in samples.samples])


def _repair_to_clique(g: Graph, selected: set[int]) -> set[int]:
    """Shrink a vertex set to a clique in one pass over its pairs in
    lexicographic order: at each non-adjacent pair of kept vertices, drop
    the endpoint that is smaller by (degree, id). Never adds vertices.

    A drop creates no new non-adjacent pair, so this drops what a rescan
    from the first pair after every drop would.
    """
    ordered = sorted(selected)
    chosen = set(ordered)
    for idx, u in enumerate(ordered):
        nbrs = g.neighbors(u)
        for v in ordered[idx + 1 :]:
            if u not in chosen:
                break
            if v in chosen and v not in nbrs:
                chosen.discard(min((u, v), key=lambda w: (g.degree(w), w)))
    return chosen


def binary_search_max_clique(g: Graph, has_clique_of_size: Callable[[int], bool]) -> int:
    """Binary search over the sizes 1..n for the largest clique size.

    Probes each size at most once, at most ceil(log2 n) times in all, and
    returns k in [1, n] (0 for the empty graph) with has_clique_of_size(k)
    true or k == 1, and has_clique_of_size(k + 1) false or k == n. For a
    monotone predicate (true up to the maximum clique size, false above)
    that k is the largest size it holds for.
    """
    n = g.num_vertices
    if n == 0:
        return 0
    lo, hi = 1, n  # every nonempty graph contains a 1-clique
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if has_clique_of_size(mid):
            lo = mid
        else:
            hi = mid - 1
    return lo


def _run_sa_clique(g: Graph, cfg: SolverConfig) -> CliqueResult:
    witnesses: dict[int, set[int]] = {}

    def has_clique_of_size(m: int) -> bool:
        for attempt in range(SA_CLIQUE_RESTARTS):
            sub_seed = (cfg.seed * 1_000_003 + m) * 97 + attempt
            found = sa_clique(g, m, replace(cfg, seed=sub_seed))
            if found is not None:
                witnesses[m] = found
                return True
        return False

    size = binary_search_max_clique(g, has_clique_of_size)
    return clique_result(g, witnesses.get(size, {0}), "sa-clique")


def _decoded(g: Graph, x: Sequence[int], solver_name: str) -> CliqueResult:
    return clique_result(g, _repair_to_clique(g, {i for i, b in enumerate(x) if b}) or {0}, solver_name)


def _run_descent(g: Graph, cfg: SolverConfig) -> CliqueResult:
    rng = np.random.default_rng(cfg.seed)
    starts = [rng.integers(0, 2, size=g.num_vertices) for _ in range(cfg.num_reads)]
    return _decoded(g, _best_descent(mc_to_qubo(g), starts)[0], "descent")


class Backend(NamedTuple):
    run: Callable[[Graph, SolverConfig], CliqueResult]
    reads: tuple[str, ...]  # the SolverConfig fields run reads besides seed
    qubo: bool  # whether run decodes an assignment of the clique QUBO


# Runners look the module's functions up at call time, so a patched attribute reaches every call.
BACKENDS = {
    "exact": Backend(lambda g, cfg: exact_max_clique(g, cfg.budget), ("budget",), False),
    "sa-clique": Backend(_run_sa_clique, ("budget", "alpha"), False),
    "sa-qubo": Backend(
        lambda g, cfg: _decoded(g, sa_qubo(mc_to_qubo(g), cfg)[0], "sa-qubo"), ("budget", "alpha"), True
    ),
    "descent": Backend(_run_descent, ("num_reads",), True),
    "sampler": Backend(
        lambda g, cfg: _decoded(g, sampler_solve(mc_to_qubo(g), mock_sampler, cfg)[0], "sampler"),
        ("num_reads",),
        True,
    ),
}
SOLVER_NAMES = tuple(BACKENDS)


def backend(name: str, cfg: SolverConfig = SolverConfig()) -> Backend:
    """The entry of ``name``; ValueError for an unknown name, or for a field
    of ``cfg`` besides ``seed`` that is not at its default and not read."""
    if name not in BACKENDS:
        raise ValueError(f"unknown solver {name!r}; expected one of {SOLVER_NAMES}")
    for f in fields(cfg):
        if f.name != "seed" and f.name not in BACKENDS[name].reads and getattr(cfg, f.name) != f.default:
            raise ValueError(f"{name} would ignore {f.name}; it reads {', '.join(BACKENDS[name].reads)}")
    return BACKENDS[name]


def _solved(g: Graph, name: str, entry: Backend, cfg: SolverConfig) -> CliqueResult:
    if g.num_vertices == 0:
        return CliqueResult(frozenset(), 0, name)
    return replace(entry.run(g, cfg), stats=CliqueStats(subproblems_solved=1, reductions=0))


def solve_mc(g: Graph, solver_name: str, cfg: SolverConfig = SolverConfig()) -> CliqueResult:
    """Uniform facade: run any backend and return a verified CliqueResult."""
    return _solved(g, solver_name, backend(solver_name, cfg), cfg)


SubSolver = Callable[[Graph, int], CliqueResult]


def get_subsolver(name: str, cfg: SolverConfig | None = None) -> SubSolver:
    """A (graph, seed) -> CliqueResult callable for the split driver, checked
    once, here. Each call runs ``name`` with ``cfg`` and the call's seed, so
    ``cfg`` must leave ``seed`` at its default."""
    base = cfg if cfg is not None else SolverConfig()
    entry = backend(name, base)
    if base.seed != SolverConfig.seed:
        raise ValueError(
            "get_subsolver ignores cfg.seed: the split driver draws each call's seed from SplitConfig.seed"
        )
    return lambda g, seed: _solved(g, name, entry, replace(base, seed=seed))
