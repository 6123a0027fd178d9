"""Maximum-clique solving by decomposition into bounded-size subproblems.

Graphs too large for a given subsolver are shrunk by clique-preserving
k-core and edge reductions and split vertex by vertex until every piece
fits; exact recombination rules make the final clique optimal whenever
the subsolver is exact. CH-partitioning and its recombination are
library functions beside the split driver. Subsolvers include an exact
branch-and-bound oracle, two simulated annealers, a local-search descent,
and a pluggable sampler interface, plus the QUBO formulation they share
and Chimera-topology benchmark generators.
"""

from .graphs import (
    CliqueResult,
    CliqueStats,
    DimacsError,
    Graph,
    complement,
    gnp_random,
    hamming_graph,
    induced_subgraph,
    is_clique,
    parse_dimacs,
    write_dimacs,
)
from .chimera import (
    ChimeraSpec,
    ContractionRecord,
    apply_defects,
    chimera_graph,
    clique_capacity,
    contract_random_edges,
    two_coloring,
)
from .reduction import k_core, reduce_graph
from .partitioning import (
    CHPartition,
    auto_ch_partition,
    ch_partition,
    combine_ch,
    combine_split,
    vertex_split,
)
from .qubo import (
    PenaltyParams,
    Qubo,
    assignment_to_clique,
    brute_force_min,
    evaluate,
    mc_to_qubo,
    write_qubo,
)
from .solvers import (
    BudgetExceededError,
    SampleSet,
    SolverConfig,
    SolverError,
    SubproblemSolveError,
    binary_search_max_clique,
    exact_max_clique,
    get_subsolver,
    greedy_clique,
    local_search_descent,
    mock_sampler,
    sa_clique,
    sa_qubo,
    sampler_solve,
    solve_mc,
)
from .splitting import (
    SplitConfig,
    split_solve,
    sweep_vertex_limit,
)
from .bench import BenchConfig, RunRecord, emit_csv, parse_config, run_experiment

__version__ = "0.1.0"

__all__ = [
    "BenchConfig",
    "BudgetExceededError",
    "CHPartition",
    "ChimeraSpec",
    "CliqueResult",
    "CliqueStats",
    "ContractionRecord",
    "DimacsError",
    "Graph",
    "PenaltyParams",
    "Qubo",
    "RunRecord",
    "SampleSet",
    "SolverConfig",
    "SolverError",
    "SplitConfig",
    "SubproblemSolveError",
    "apply_defects",
    "assignment_to_clique",
    "auto_ch_partition",
    "binary_search_max_clique",
    "brute_force_min",
    "ch_partition",
    "chimera_graph",
    "clique_capacity",
    "combine_ch",
    "combine_split",
    "complement",
    "contract_random_edges",
    "emit_csv",
    "evaluate",
    "exact_max_clique",
    "get_subsolver",
    "gnp_random",
    "greedy_clique",
    "hamming_graph",
    "induced_subgraph",
    "is_clique",
    "k_core",
    "local_search_descent",
    "mc_to_qubo",
    "mock_sampler",
    "parse_config",
    "parse_dimacs",
    "reduce_graph",
    "run_experiment",
    "sa_clique",
    "sa_qubo",
    "sampler_solve",
    "solve_mc",
    "split_solve",
    "sweep_vertex_limit",
    "two_coloring",
    "vertex_split",
    "write_dimacs",
    "write_qubo",
]
