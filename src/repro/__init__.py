"""repro — Subgraph pattern matching over uncertain graphs with identity
linkage uncertainty.

A faithful, from-scratch Python reproduction of Moustafa, Kimmig,
Deshpande & Getoor, *"Subgraph Pattern Matching over Uncertain Graphs
with Identity Linkage Uncertainty"* (ICDE 2014, arXiv:1305.7006).

Quickstart
----------
>>> from repro import PGD, build_peg, QueryEngine, QueryGraph
>>> pgd = PGD()
>>> pgd.add_reference("r1", {"a": 0.8, "b": 0.2})
>>> pgd.add_reference("r2", "b")
>>> pgd.add_edge("r1", "r2", 0.9)
>>> peg = build_peg(pgd)
>>> engine = QueryEngine(peg, max_length=1, beta=0.05)
>>> query = QueryGraph({"u": "a", "v": "b"}, [("u", "v")])
>>> result = engine.query(query, alpha=0.5)
>>> [round(m.probability, 2) for m in result.matches]
[0.72]
"""

from repro.pgd import (
    PGD,
    LabelDistribution,
    BernoulliEdge,
    ConditionalEdge,
    MergeFunctions,
    get_merge_functions,
    register_merge_functions,
    pgd_from_edge_list,
    pair_merge_potentials,
    reference_sets_from_similarity,
)
from repro.peg import (
    ProbabilisticEntityGraph,
    Match,
    build_peg,
    enumerate_worlds,
    world_match_probability,
)
from repro.index import (
    PathIndex,
    build_path_index,
    build_context,
)
from repro.query import (
    QueryGraph,
    QueryEngine,
    QueryOptions,
    QueryResult,
    QueryPlanner,
    PlanInfo,
    exhaustive_matches,
    direct_matches,
)
from repro.relational import sql_baseline_matches
from repro.obs import (
    MetricsRegistry,
    Tracer,
    current_span,
    get_registry,
    render_trace,
)
from repro.service import QueryService, ResultCache, ServiceStats
from repro.delta import (
    AddEdge,
    AddEntity,
    MergeEntities,
    MutationLog,
    UpdateEdgeDistribution,
    UpdateLabelProbability,
    apply_mutations,
)

__version__ = "1.25.0"

__all__ = [
    "PGD",
    "LabelDistribution",
    "BernoulliEdge",
    "ConditionalEdge",
    "MergeFunctions",
    "get_merge_functions",
    "register_merge_functions",
    "pgd_from_edge_list",
    "pair_merge_potentials",
    "reference_sets_from_similarity",
    "ProbabilisticEntityGraph",
    "Match",
    "build_peg",
    "enumerate_worlds",
    "world_match_probability",
    "PathIndex",
    "build_path_index",
    "build_context",
    "QueryGraph",
    "QueryEngine",
    "QueryOptions",
    "QueryResult",
    "QueryPlanner",
    "PlanInfo",
    "exhaustive_matches",
    "direct_matches",
    "sql_baseline_matches",
    "MetricsRegistry",
    "Tracer",
    "current_span",
    "get_registry",
    "render_trace",
    "QueryService",
    "ResultCache",
    "ServiceStats",
    "AddEdge",
    "AddEntity",
    "MergeEntities",
    "MutationLog",
    "UpdateEdgeDistribution",
    "UpdateLabelProbability",
    "apply_mutations",
    "__version__",
]
