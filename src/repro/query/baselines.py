"""Baseline matchers (Section 6.2.1 and test oracles).

* :func:`exhaustive_matches` — the literal Definition 4/5 semantics:
  enumerate every possible world, run subgraph matching in each, and sum
  world probabilities per match. Exponential; the ground-truth oracle
  for small PEGs.
* :func:`direct_matches` — backtracking subgraph matching directly on
  ``G_U`` with exact probability pruning but no index, no decomposition
  and no reduction. Polynomially enumerable per candidate; the
  "no-index" baseline and the mid-size oracle.

Both return the same deduplicated, sorted ``Match`` lists as the
optimized engine, so results are directly comparable.
"""

from __future__ import annotations

from repro.peg.entity_graph import Match, ProbabilisticEntityGraph
from repro.peg.possible_worlds import enumerate_worlds
from repro.query.query_graph import QueryGraph


def exhaustive_matches(
    peg: ProbabilisticEntityGraph,
    query: QueryGraph,
    alpha: float,
    world_limit: int = 2_000_000,
) -> list:
    """All probabilistic matches via possible-world enumeration."""
    accumulated: dict = {}
    representative: dict = {}
    for world in enumerate_worlds(peg, limit=world_limit):
        label_of = world.label_of
        adjacency: dict = {entity: set() for entity in label_of}
        for pair in world.edges:
            entity_a, entity_b = tuple(pair)
            adjacency[entity_a].add(entity_b)
            adjacency[entity_b].add(entity_a)
        keys_in_world = set()
        for mapping in _embeddings(query, label_of, adjacency):
            key, nodes_key, edges = _canonical(peg, query, mapping)
            if key in keys_in_world:
                continue  # several embeddings, one match, one world
            keys_in_world.add(key)
            accumulated[key] = accumulated.get(key, 0.0) + world.probability
            if key not in representative:
                representative[key] = (nodes_key, edges, mapping)
    matches = []
    for key, probability in accumulated.items():
        if probability < alpha:
            continue
        nodes_key, edges, mapping = representative[key]
        matches.append(
            Match(
                nodes=nodes_key,
                edges=edges,
                mapping=tuple(
                    sorted(mapping.items(), key=lambda kv: repr(kv[0]))
                ),
                probability=probability,
            )
        )
    return sorted(matches, key=lambda m: (-m.probability, repr(m.nodes)))


def _embeddings(query: QueryGraph, label_of: dict, adjacency: dict):
    """Backtracking embeddings of the query into one certain world."""
    order = _connected_order(query)
    entities = list(label_of)

    def extend(step: int, mapping: dict):
        if step == len(order):
            yield dict(mapping)
            return
        query_node = order[step]
        label = query.label(query_node)
        anchored = [
            n for n in query.neighbors(query_node) if n in mapping
        ]
        if anchored:
            candidates = set(adjacency[mapping[anchored[0]]])
            for other in anchored[1:]:
                candidates &= adjacency[mapping[other]]
        else:
            candidates = entities
        used = set(mapping.values())
        for entity in candidates:
            if entity in used or label_of[entity] != label:
                continue
            ok = all(
                (mapping[nbr] in adjacency[entity])
                for nbr in query.neighbors(query_node)
                if nbr in mapping
            )
            if not ok:
                continue
            mapping[query_node] = entity
            yield from extend(step + 1, mapping)
            del mapping[query_node]

    yield from extend(0, {})


def direct_matches(
    peg: ProbabilisticEntityGraph, query: QueryGraph, alpha: float
) -> list:
    """Backtracking matching on ``G_U`` with exact probability pruning.

    Sound and complete: partial match probabilities only shrink as nodes
    are added (all label/edge factors are <= 1 and ``Prn`` marginals are
    monotone), so pruning at α never loses a qualifying match.
    """
    order = _connected_order(query)
    matches: dict = {}

    def partial_probability(mapping: dict) -> float:
        node_labels = {
            peg.entity_of(peg_node): query.label(query_node)
            for query_node, peg_node in mapping.items()
        }
        edges = set()
        for edge in query.edges:
            node_a, node_b = tuple(edge)
            if node_a in mapping and node_b in mapping:
                edges.add(
                    frozenset(
                        (
                            peg.entity_of(mapping[node_a]),
                            peg.entity_of(mapping[node_b]),
                        )
                    )
                )
        return peg.match_probability(node_labels, edges)

    def extend(step: int, mapping: dict) -> None:
        if step == len(order):
            _record(mapping)
            return
        query_node = order[step]
        label = query.label(query_node)
        anchored = [n for n in query.neighbors(query_node) if n in mapping]
        if anchored:
            candidates = set(peg.neighbor_ids(mapping[anchored[0]]))
            for other in anchored[1:]:
                candidates &= set(peg.neighbor_ids(mapping[other]))
            candidates = sorted(candidates)
        else:
            candidates = peg.node_ids()
        used = set(mapping.values())
        for peg_node in candidates:
            if peg_node in used:
                continue
            if peg.label_probability_id(peg_node, label) <= 0.0:
                continue
            if any(
                peg.shares_references_id(peg_node, existing)
                for existing in mapping.values()
            ):
                continue
            mapping[query_node] = peg_node
            if partial_probability(mapping) >= alpha:
                extend(step + 1, mapping)
            del mapping[query_node]

    def _record(mapping: dict) -> None:
        entity_mapping = {
            query_node: peg.entity_of(peg_node)
            for query_node, peg_node in mapping.items()
        }
        key, nodes_key, edges = _canonical(peg, query, entity_mapping)
        if key in matches:
            return
        probability = peg.match_probability(dict(nodes_key), edges)
        if probability < alpha:
            return
        matches[key] = Match(
            nodes=nodes_key,
            edges=edges,
            mapping=tuple(
                sorted(entity_mapping.items(), key=lambda kv: repr(kv[0]))
            ),
            probability=probability,
        )

    extend(0, {})
    return sorted(
        matches.values(), key=lambda m: (-m.probability, repr(m.nodes))
    )


def _connected_order(query: QueryGraph) -> list:
    """Query-node order where each node (when possible) follows a neighbor."""
    order: list = []
    placed: set = set()
    for start in query.nodes:
        if start in placed:
            continue
        stack = [start]
        while stack:
            node = stack.pop()
            if node in placed:
                continue
            order.append(node)
            placed.add(node)
            stack.extend(
                sorted(
                    (n for n in query.neighbors(node) if n not in placed),
                    key=repr,
                    reverse=True,
                )
            )
    return order


def _canonical(
    peg: ProbabilisticEntityGraph, query: QueryGraph, mapping: dict
) -> tuple:
    """``(key, nodes, edges)`` of an embedding: the key names its
    labeled subgraph order-free, so entities with equal ``repr`` stay
    apart; ``nodes`` lists it by ``repr(entity)``, equal reprs by id."""
    node_labels = {
        entity: query.label(query_node)
        for query_node, entity in mapping.items()
    }
    nodes_key = tuple(sorted(
        node_labels.items(), key=lambda kv: (repr(kv[0]), peg.id_of(kv[0]))
    ))
    edges = frozenset(
        frozenset((mapping[node_a], mapping[node_b]))
        for node_a, node_b in (tuple(edge) for edge in query.edges)
    )
    return (frozenset(node_labels.items()), edges), nodes_key, edges
