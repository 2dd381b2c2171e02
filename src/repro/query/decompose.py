"""Query path decomposition (Section 5.2.1).

Splits a query into overlapping paths of length at most ``L`` covering
every query edge, minimizing the estimated initial search-space size

``SS0(P) = prod_P C(P, α)``, with
``C(P, α) ∝ |PIndex(l_Q(V_P), α)| / (degree(P) · density(P))``.
The degree is floored at 1 (:func:`path_cost`): a path that joins
nothing costs its cardinality over its density. Only the cardinality
estimate is floored at :data:`_EPSILON`.

The minimization reduces to weighted SET COVER over the query edges.
``strategy="exact"`` (the planner's default) solves it optimally with a
dynamic program over covered-set bitmasks, within one work budget
(:data:`_EXACT_BUDGET`); past it — the complete 7-node query, or the
paper's 10-node queries — it falls back to the standard greedy
approximation: repeatedly add the path with the best efficiency (newly
covered edges divided by cost). Greedy is also selectable on its own as
the paper's approximation, and a random strategy as its "Random
decomposition" baseline.

All strategies are deterministic for a given seed: candidate paths and
tie-breaks are ordered by canonical (``repr``-based) path keys, never
by set-iteration order, so the chosen plan is stable across processes
and ``PYTHONHASHSEED`` values — a requirement for plan caching
(:mod:`repro.query.plan`).
"""

from __future__ import annotations

import math

from dataclasses import dataclass, field
from typing import Sequence

from repro.query.query_graph import QueryGraph
from repro.utils.errors import QueryError
from repro.utils.rng import ensure_rng

#: Floor applied to a cardinality estimate, so a path the histogram
#: estimates at 0 keeps a positive cost (the exact cover sums log-costs).
#: The denominator needs none: :func:`path_cost` floors the degree at 1.
_EPSILON = 1e-9

#: Exact-cover work budget: the DP runs when ``2^elements * candidates``
#: (covered-set states times the candidates one state may branch on) is
#: at most this, else ``strategy="exact"`` falls back to greedy. It
#: bounds worst-case planning at that of 14 elements with 64 candidates,
#: and lets dense queries with few edges and many candidate paths — 10
#: edges and 100 candidates at ``L=3`` — get the optimum; q(7,21) and
#: the paper's 10-node queries stay past it at every ``L``.
_EXACT_BUDGET = 1 << 20


@dataclass(frozen=True)
class QueryPath:
    """One path of a decomposition: an ordered tuple of query nodes."""

    nodes: tuple

    @property
    def length(self) -> int:
        """Number of edges on the path."""
        return len(self.nodes) - 1

    @property
    def path_edges(self) -> frozenset:
        """The query edges traversed by the path."""
        return frozenset(
            frozenset(pair) for pair in zip(self.nodes, self.nodes[1:])
        )

    def position_of(self, node) -> int:
        """Index of ``node`` on the path."""
        return self.nodes.index(node)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"QueryPath({'-'.join(map(str, self.nodes))})"


@dataclass
class Decomposition:
    """A path decomposition with join structure and coverage assignment.

    Attributes
    ----------
    paths:
        The chosen query paths, in selection order.
    join_predicates:
        ``{(i, j): ((pos_in_i, pos_in_j), ...)}`` for every unordered
        pair of overlapping paths (stored for ``i < j``): shared query
        nodes expressed as position equalities.
    joins_with:
        ``{i: frozenset of j}`` — partitions path ``i`` must join with.
    covered_nodes / covered_edges:
        ``{i: (...)}`` — exclusive assignment of every query node/edge to
        exactly one covering path (used for the w1 weights of Section
        5.2.4 so no probability is double counted).
    estimated_cost:
        The estimated search-space size of this decomposition.
    strategy_used:
        The strategy that actually produced the paths (``"exact"`` may
        report ``"greedy"`` after a size-cutoff fallback).
    """

    query: QueryGraph
    paths: list
    join_predicates: dict = field(default_factory=dict)
    joins_with: dict = field(default_factory=dict)
    covered_nodes: dict = field(default_factory=dict)
    covered_edges: dict = field(default_factory=dict)
    estimated_cost: float = 0.0
    strategy_used: str = "greedy"

    def __post_init__(self) -> None:
        self._derive_join_structure()
        self._assign_exclusive_coverage()

    def _derive_join_structure(self) -> None:
        predicates = {}
        joins: dict = {i: set() for i in range(len(self.paths))}
        for i, path_i in enumerate(self.paths):
            nodes_i = {n: p for p, n in enumerate(path_i.nodes)}
            for j in range(i + 1, len(self.paths)):
                path_j = self.paths[j]
                shared = []
                for pos_j, node in enumerate(path_j.nodes):
                    pos_i = nodes_i.get(node)
                    if pos_i is not None:
                        shared.append((pos_i, pos_j))
                if shared:
                    predicates[(i, j)] = tuple(shared)
                    joins[i].add(j)
                    joins[j].add(i)
        self.join_predicates = predicates
        self.joins_with = {i: frozenset(js) for i, js in joins.items()}

    def _assign_exclusive_coverage(self) -> None:
        assigned_nodes: set = set()
        assigned_edges: set = set()
        covered_nodes = {}
        covered_edges = {}
        for i, path in enumerate(self.paths):
            own_nodes = tuple(
                n for n in path.nodes if n not in assigned_nodes
            )
            assigned_nodes.update(own_nodes)
            own_edges = tuple(
                e for e in path.path_edges if e not in assigned_edges
            )
            assigned_edges.update(own_edges)
            covered_nodes[i] = own_nodes
            covered_edges[i] = own_edges
        missing_nodes = set(self.query.nodes) - assigned_nodes
        if missing_nodes:
            raise QueryError(
                f"decomposition does not cover query nodes {missing_nodes}"
            )
        missing_edges = set(self.query.edges) - assigned_edges
        if missing_edges:
            raise QueryError(
                f"decomposition does not cover query edges "
                f"{[tuple(e) for e in missing_edges]}"
            )
        self.covered_nodes = covered_nodes
        self.covered_edges = covered_edges

    def predicates_between(self, i: int, j: int) -> tuple:
        """Join predicates between partitions ``i`` and ``j`` as
        ``((pos_in_i, pos_in_j), ...)`` regardless of argument order."""
        if i < j:
            return self.join_predicates.get((i, j), ())
        return tuple(
            (pi, pj) for pj, pi in self.join_predicates.get((j, i), ())
        )


# ----------------------------------------------------------------------
# Candidate path enumeration and cost model
# ----------------------------------------------------------------------


def enumerate_candidate_paths(query: QueryGraph, max_length: int) -> list:
    """All simple paths of the query with 1..max_length edges.

    Single-node paths are added for isolated query nodes (they cannot be
    covered by any edge path). Each undirected path is returned once, in
    canonical orientation.
    """
    if max_length < 1:
        raise QueryError(f"max_length must be >= 1, got {max_length}")
    paths: set = set()

    def extend(nodes: tuple) -> None:
        if len(nodes) - 1 >= 1:
            fwd = nodes
            rev = tuple(reversed(nodes))
            paths.add(fwd if repr(fwd) <= repr(rev) else rev)
        if len(nodes) - 1 >= max_length:
            return
        tail = nodes[-1]
        for neighbor in query.neighbors(tail):
            if neighbor not in nodes:
                extend(nodes + (neighbor,))

    for node in query.nodes:
        extend((node,))
    result = [QueryPath(nodes) for nodes in sorted(paths, key=repr)]
    for node in query.nodes:
        if query.degree(node) == 0:
            result.append(QueryPath((node,)))
    return result


def path_degree(query: QueryGraph, path: QueryPath) -> int:
    """``degree(P) = sum of node degrees - 2 * length(P)`` (Section 5.2.1)."""
    return sum(query.degree(n) for n in path.nodes) - 2 * path.length


def path_density(query: QueryGraph, path: QueryPath) -> float:
    """``density(P) = 2K / (M(M-1))`` with ``K`` query edges among path nodes.

    Counts edges by probing the O(M²) node pairs on the path rather than
    scanning all query edges — paths are short (M <= L+1) while dense
    queries have many edges.
    """
    nodes = path.nodes
    m = len(nodes)
    if m <= 1:
        return 1.0
    k = 0
    for i, node_a in enumerate(nodes):
        for node_b in nodes[i + 1:]:
            if query.has_edge(node_a, node_b):
                k += 1
    return 2.0 * k / (m * (m - 1))


def path_cost(
    query: QueryGraph, path: QueryPath, cardinality_estimate: float
) -> float:
    """``C(P, α) ∝ |PIndex| / (max(degree(P), 1) · density(P))``.

    The degree is floored at 1. A path holding every query edge at its
    nodes — the whole query, when it is a path of at most ``L`` edges —
    has ``degree(P) = 0``: it joins nothing, so nothing downstream
    divides its candidates, and its cost is its cardinality. Left at 0
    the denominator would price such a cover at ~1e9× that, and no
    strategy would pick it. Density stays the tie-break between paths of
    equal degree. It is positive on every candidate (a path's own edges
    are query edges, and a single node has density 1).
    """
    degree = max(path_degree(query, path), 1)
    return max(cardinality_estimate, _EPSILON) / (
        degree * path_density(query, path)
    )


# ----------------------------------------------------------------------
# Decomposition strategies
# ----------------------------------------------------------------------


def decompose_query(
    query: QueryGraph,
    estimator,
    alpha: float,
    max_length: int,
    strategy: str = "greedy",
    seed=None,
) -> Decomposition:
    """Decompose ``query`` into covering paths.

    Parameters
    ----------
    estimator:
        Callable ``(label_sequence, alpha) -> float`` estimating
        ``|PIndex(X, alpha)|`` (normally the path index's histogram
        estimator).
    alpha:
        Query probability threshold.
    max_length:
        Maximum path length ``L`` (must match the index).
    strategy:
        ``"greedy"`` (paper's SET COVER approximation), ``"exact"``
        (optimal cost-product cover via bitmask DP, greedy fallback past
        the work budget) or ``"random"`` (the Random-decomposition
        baseline).
    seed:
        RNG seed for the random strategy.
    """
    candidates = enumerate_candidate_paths(query, max_length)
    if not candidates:
        raise QueryError("query has no candidate decomposition paths")
    used = strategy
    if strategy == "greedy":
        chosen, cost = _greedy_cover(query, candidates, estimator, alpha)
    elif strategy == "exact":
        result = _exact_cover(query, candidates, estimator, alpha)
        if result is None:  # past the budget: greedy is the fallback
            chosen, cost = _greedy_cover(query, candidates, estimator, alpha)
            used = "greedy"
        else:
            chosen, cost = result
    elif strategy == "random":
        chosen, cost = _random_cover(query, candidates, estimator, alpha, seed)
    else:
        raise QueryError(f"unknown decomposition strategy {strategy!r}")
    return Decomposition(
        query=query, paths=chosen, estimated_cost=cost, strategy_used=used
    )


def _path_key(path: QueryPath) -> tuple:
    """Canonical, hash-seed-independent ordering key of a query path."""
    return tuple(map(repr, path.nodes))


def _path_costs(
    query: QueryGraph,
    candidates: Sequence[QueryPath],
    estimator,
    alpha: float,
) -> list:
    return [
        path_cost(
            query, path, estimator(query.label_sequence(path.nodes), alpha)
        )
        for path in candidates
    ]


def _greedy_cover(
    query: QueryGraph,
    candidates: Sequence[QueryPath],
    estimator,
    alpha: float,
) -> tuple:
    costs = _path_costs(query, candidates, estimator, alpha)
    keys = [_path_key(path) for path in candidates]
    edge_sets = [path.path_edges for path in candidates]
    node_sets = [set(path.nodes) for path in candidates]
    uncovered_edges = set(query.edges)
    uncovered_nodes = {n for n in query.nodes if query.degree(n) == 0}
    chosen_indexes: set = set()
    chosen: list = []
    total_cost = 1.0
    while uncovered_edges or uncovered_nodes:
        best = None
        best_efficiency = -1.0
        for index, path in enumerate(candidates):
            if index in chosen_indexes:
                continue
            gain = len(edge_sets[index] & uncovered_edges)
            if uncovered_nodes:
                gain += len(node_sets[index] & uncovered_nodes)
            if gain == 0:
                continue
            efficiency = gain / costs[index]
            # Equal-efficiency ties break on the canonical path key, not
            # enumeration order, so the chosen plan is reproducible
            # across processes and PYTHONHASHSEED values (the same
            # discipline as repro.query.topk.top_k_matches).
            if efficiency > best_efficiency or (
                best is not None
                and efficiency == best_efficiency
                and keys[index] < keys[best]
            ):
                best_efficiency = efficiency
                best = index
        if best is None:
            raise QueryError("greedy cover failed to cover the query")
        chosen_indexes.add(best)
        chosen.append(candidates[best])
        total_cost *= costs[best]
        uncovered_edges -= edge_sets[best]
        uncovered_nodes -= node_sets[best]
    return chosen, total_cost


def _exact_cover(
    query: QueryGraph,
    candidates: Sequence[QueryPath],
    estimator,
    alpha: float,
):
    """Minimum-cost-product cover by dynamic programming over bitmasks.

    The universe is the query's edges plus its isolated nodes; each
    state is the set of covered elements, valued by the minimal sum of
    log-costs reaching it (the product ``SS0`` is minimized iff the log
    sum is). Branching only on candidates covering the lowest-index
    missing element keeps every cover reachable exactly once per
    selection set. Returns ``None`` past :data:`_EXACT_BUDGET` — the
    caller falls back to greedy.
    """
    # Edges are frozensets: repr() of equal frozensets is *not* stable
    # (iteration order depends on insertion history and hash seed), so
    # order them by their sorted member reprs instead.
    elements = [
        ("edge", edge)
        for edge in sorted(
            query.edges, key=lambda e: tuple(sorted(map(repr, e)))
        )
    ]
    elements += [
        ("node", node)
        for node in sorted(query.nodes, key=repr)
        if query.degree(node) == 0
    ]
    num_elements = len(elements)
    if (1 << num_elements) * len(candidates) > _EXACT_BUDGET:
        return None
    element_bit = {element: 1 << i for i, element in enumerate(elements)}
    # Canonical candidate order makes equal-cost DP outcomes (and hence
    # the cached plan) deterministic across processes.
    order = sorted(range(len(candidates)), key=lambda i: _path_key(candidates[i]))
    costs = _path_costs(query, candidates, estimator, alpha)
    masks = []
    for index in order:
        path = candidates[index]
        mask = 0
        for edge in path.path_edges:
            mask |= element_bit.get(("edge", edge), 0)
        for node in path.nodes:
            mask |= element_bit.get(("node", node), 0)
        masks.append(mask)
    log_costs = [math.log(costs[index]) for index in order]
    # The candidates covering each element, in canonical order: a state
    # branches only on those covering its lowest missing element.
    covering = [
        [
            (position, mask, log_costs[position])
            for position, mask in enumerate(masks)
            if mask >> bit & 1
        ]
        for bit in range(num_elements)
    ]
    full = (1 << num_elements) - 1
    dp: list = [None] * (full + 1)
    dp[0] = (0.0, ())
    for state in range(full):
        entry = dp[state]
        if entry is None:
            continue
        missing = ~state & full
        lowest = (missing & -missing).bit_length() - 1
        state_log, selection = entry
        for position, mask, log_cost in covering[lowest]:
            new_state = state | mask
            new_log = state_log + log_cost
            current = dp[new_state]
            if current is None or new_log < current[0]:
                dp[new_state] = (new_log, selection + (position,))
    final = dp[full]
    if final is None:
        raise QueryError("exact cover failed to cover the query")
    chosen = [candidates[order[position]] for position in final[1]]
    total_cost = 1.0
    for position in final[1]:
        total_cost *= costs[order[position]]
    return chosen, total_cost


def _random_cover(
    query: QueryGraph,
    candidates: Sequence[QueryPath],
    estimator,
    alpha: float,
    seed,
) -> tuple:
    rng = ensure_rng(seed)
    order = list(candidates)
    rng.shuffle(order)
    uncovered_edges = set(query.edges)
    uncovered_nodes = {n for n in query.nodes if query.degree(n) == 0}
    chosen: list = []
    total_cost = 1.0
    for path in order:
        gain = bool(path.path_edges & uncovered_edges) or bool(
            set(path.nodes) & uncovered_nodes
        )
        if not gain:
            continue
        chosen.append(path)
        total_cost *= path_cost(
            query, path, estimator(query.label_sequence(path.nodes), alpha)
        )
        uncovered_edges -= path.path_edges
        uncovered_nodes -= set(path.nodes)
        if not uncovered_edges and not uncovered_nodes:
            break
    if uncovered_edges or uncovered_nodes:
        raise QueryError("random cover failed to cover the query")
    return chosen, total_cost
