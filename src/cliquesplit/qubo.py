"""QUBO formulation of maximum clique, energy evaluation, and decoding.

The clique QUBO rewards selecting vertices and penalizes selecting both
endpoints of a complement edge. With the default weights (reward 1,
penalty 2) the minimum energy equals minus the maximum clique size, and
an energy-minimizing assignment selects a maximum clique.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .graphs import CliqueResult, Graph, clique_result

BinaryAssignment = Sequence[int]


@dataclass(frozen=True)
class PenaltyParams:
    """Vertex reward and conflict penalty; penalty > reward keeps minima feasible."""

    reward: float = 1.0
    penalty: float = 2.0

    def __post_init__(self):
        if not (math.isfinite(self.reward) and math.isfinite(self.penalty)):
            raise ValueError("reward and penalty must be finite")
        if self.reward <= 0:
            raise ValueError("reward must be positive")
        if self.penalty <= self.reward:
            raise ValueError("penalty must exceed reward")


class Qubo:
    """Quadratic binary objective: sum a_i x_i + sum a_ij x_i x_j.

    Quadratic keys are normalized to i < j; zero coefficients are not
    stored.
    """

    __slots__ = ("num_variables", "linear", "quadratic")

    def __init__(
        self,
        num_variables: int,
        linear: dict[int, float] | None = None,
        quadratic: dict[tuple[int, int], float] | None = None,
    ):
        if num_variables < 0:
            raise ValueError("num_variables must be non-negative")
        self.num_variables = num_variables
        self.linear: dict[int, float] = {}
        for i, a in (linear or {}).items():
            if not 0 <= i < num_variables:
                raise ValueError(f"linear index {i} out of range")
            if a != 0:
                self.linear[i] = a
        self.quadratic: dict[tuple[int, int], float] = {}
        for (i, j), a in (quadratic or {}).items():
            if i == j:
                raise ValueError(f"diagonal quadratic key ({i}, {j}); fold into linear")
            if not (0 <= i < num_variables and 0 <= j < num_variables):
                raise ValueError(f"quadratic key ({i}, {j}) out of range")
            key = (i, j) if i < j else (j, i)
            if key in self.quadratic:
                raise ValueError(f"duplicate quadratic key {key}")
            if a != 0:
                self.quadratic[key] = a

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Qubo):
            return NotImplemented
        return (
            self.num_variables == other.num_variables
            and self.linear == other.linear
            and self.quadratic == other.quadratic
        )

    def __repr__(self) -> str:
        return f"Qubo(n={self.num_variables}, linear={len(self.linear)}, quadratic={len(self.quadratic)})"


def evaluate(q: Qubo, x: BinaryAssignment) -> float:
    """Energy of a 0/1 assignment; exact when all coefficients are integers."""
    if len(x) != q.num_variables:
        raise ValueError(f"assignment length {len(x)} != {q.num_variables} variables")
    for b in x:
        if b not in (0, 1):
            raise ValueError("assignment entries must be 0 or 1")
    e = 0.0
    for i, a in q.linear.items():
        if x[i]:
            e += a
    for (i, j), a in q.quadratic.items():
        if x[i] and x[j]:
            e += a
    return e


def mc_to_qubo(g: Graph, params: PenaltyParams = PenaltyParams()) -> Qubo:
    """Clique QUBO of ``g``: -reward per selected vertex, +penalty per
    selected complement edge. At the defaults the minimum energy is
    exactly minus the maximum clique size."""
    n = g.num_vertices
    if n == 0:
        raise ValueError("graph must be nonempty")
    linear = {i: -params.reward for i in range(n)}
    quadratic: dict[tuple[int, int], float] = {}
    for u in range(n):
        nbrs = g.neighbors(u)
        for v in range(u + 1, n):
            if v not in nbrs:
                quadratic[(u, v)] = params.penalty
    return Qubo(n, linear, quadratic)


def assignment_to_clique(
    g: Graph, x: BinaryAssignment, solver_name: str = "decode"
) -> CliqueResult | list[tuple[int, int]]:
    """Decode selected vertices into a clique, or report the violations.

    Returns a CliqueResult when the selected set is pairwise adjacent,
    otherwise the sorted list of selected non-adjacent pairs (data, not an
    error).
    """
    if len(x) != g.num_vertices:
        raise ValueError("assignment length does not match graph size")
    selected = [i for i, b in enumerate(x) if b]
    violations = [
        (u, v)
        for idx, u in enumerate(selected)
        for v in selected[idx + 1 :]
        if not g.has_edge(u, v)
    ]
    if violations:
        return violations
    return clique_result(g, selected, solver_name)


_CHUNK = 1 << 20


def brute_force_min(q: Qubo) -> tuple[list[int], float]:
    """Exhaustive minimum over all 2^N assignments (N <= 24).

    Assignments are enumerated by an integer counter with variable ``i``
    at bit ``i``; ties keep the first (smallest-counter) minimum.
    """
    n = q.num_variables
    if n > 24:
        raise ValueError(f"{n} variables is beyond the 2^24 enumeration guard")
    best_energy = math.inf
    best_counter = 0
    lin = sorted(q.linear.items())
    quad = sorted(q.quadratic.items())
    for start in range(0, 1 << n, _CHUNK):
        stop = min(start + _CHUNK, 1 << n)
        counters = np.arange(start, stop, dtype=np.int64)
        bits = {}
        energies = np.zeros(stop - start, dtype=np.float64)
        for i, a in lin:
            if i not in bits:
                bits[i] = ((counters >> i) & 1).astype(np.uint8)
            energies += a * bits[i]
        for (i, j), a in quad:
            for k in (i, j):
                if k not in bits:
                    bits[k] = ((counters >> k) & 1).astype(np.uint8)
            energies += a * (bits[i] & bits[j])
        idx = int(np.argmin(energies))
        if energies[idx] < best_energy:
            best_energy = float(energies[idx])
            best_counter = start + idx
    assignment = [(best_counter >> i) & 1 for i in range(n)]
    return assignment, best_energy


def write_qubo(q: Qubo) -> str:
    """Serialize to the ``N / L / Q`` text format (0-based indices)."""
    lines = [f"N {q.num_variables}"]
    lines.extend(f"L {i} {_fmt(a)}" for i, a in sorted(q.linear.items()))
    lines.extend(f"Q {i} {j} {_fmt(a)}" for (i, j), a in sorted(q.quadratic.items()))
    return "\n".join(lines) + "\n"


def _fmt(a: float) -> str:
    return str(int(a)) if float(a).is_integer() else repr(float(a))
