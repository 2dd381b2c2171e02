"""Online query processing (Section 5.2).

The five steps of the paper's online phase map to submodules:

1. :mod:`repro.query.decompose` — path decomposition as SET COVER
   over a histogram-based cost model, solved optimally by a bitmask DP
   within a work budget (greedy past it, or as the paper's baseline),
   with plans cached by :mod:`repro.query.plan` (keyed by canonical
   query form; a plan is a pure function of its key),
2. :mod:`repro.query.candidates` — index lookup plus node-level and
   path-level context pruning,
3. :mod:`repro.query.join_candidates` — join-candidate lookup tables,
4. :mod:`repro.query.kpartite` — the candidate k-partite graph and
   reduction by join-candidates (structure + upperbounds; the
   pure-Python reference backend) with its vectorized numpy twin in
   :mod:`repro.query.reduction` (selected via
   ``QueryOptions.reduction_backend``, the default),
5. :mod:`repro.query.matcher` — join ordering and full match generation
   (a frontier-at-a-time array join, plus its depth-first reference).

:class:`~repro.query.engine.QueryEngine` ties the offline and online
phases together; :mod:`repro.query.baselines` provides the comparison
algorithms of Section 6.2.1.
"""

from repro.query.query_graph import QueryGraph
from repro.query.decompose import QueryPath, Decomposition, decompose_query
from repro.query.engine import QueryEngine, QueryOptions, QueryResult
from repro.query.plan import PlanInfo, QueryPlanner
from repro.query.baselines import (
    exhaustive_matches,
    direct_matches,
)
from repro.query.explain import explain
from repro.query.topk import top_k_matches
from repro.query.pattern import parse_pattern

__all__ = [
    "QueryGraph",
    "QueryPath",
    "Decomposition",
    "decompose_query",
    "QueryEngine",
    "QueryOptions",
    "QueryResult",
    "QueryPlanner",
    "PlanInfo",
    "exhaustive_matches",
    "direct_matches",
    "explain",
    "top_k_matches",
    "parse_pattern",
]
