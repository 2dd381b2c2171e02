"""Finding and pruning path candidates (Section 5.2.2).

For every query path ``P`` the engine first fetches all index entries
matching ``P``'s label sequence above the threshold, then prunes them
with precomputed context information:

* node-level: a PEG node ``v`` can match a query node ``n`` only if for
  every label σ required around ``n``, ``c(v, σ) >= c(n, σ)`` and
  ``Pr(v.l = l_Q(n)) * fpu(v, σ)^c(n, σ) >= α``,
* path-level: the path's own probability times the neighborhood
  upperbound ``pu(P^u)`` times the cycle-edge probability ``cpr(P^u)``
  must reach α.

Both run as array passes over the lookup's
:class:`~repro.index.paths.PathCandidates` columns: the node test is
one boolean vector per query node over the id space, gathered per path
column; ``pu`` and ``cpr`` are per-column gathers from the context's
dense tables and the graph's columns (through
:class:`~repro.peg.arrays.PegProbabilityArrays`); the path bound is
one compare of ``((Prle * Prn) * pu) * cpr`` against α. Every float is
produced by the operations, in the order, of the scalar finder these
replaced (:class:`repro.testing.reference.ScalarCandidateFinder`, the
oracle of the lookup differential), so the kept rows are the same rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.index.builder import PathIndexBuilder
from repro.index.context import ContextInformation
from repro.index.protocol import PathIndexProtocol
from repro.obs.trace import current_span
from repro.peg.arrays import PegProbabilityArrays
from repro.peg.entity_graph import ProbabilisticEntityGraph
from repro.query.decompose import QueryPath
from repro.query.query_graph import QueryGraph


@dataclass(frozen=True)
class PathStatistics:
    """Query-side statistics of one decomposition path.

    Attributes
    ----------
    neighbors:
        ``Γ(P)`` — query nodes off the path adjacent to it.
    reverse_neighbors:
        ``rv(P, m)`` — for each ``m ∈ Γ(P)``, the path positions adjacent
        to ``m``.
    cycles:
        ``cyc`` edges as position pairs ``(i, j)`` with ``i < j``: query
        edges between path nodes that are not path edges. Each such edge
        appears exactly once.
    """

    neighbors: tuple
    reverse_neighbors: dict
    cycles: tuple


def compute_path_statistics(query: QueryGraph, path: QueryPath) -> PathStatistics:
    """Compute ``Γ(P)``, ``rv(P, m)`` and path cycles for a query path."""
    on_path = {node: pos for pos, node in enumerate(path.nodes)}
    neighbors = []
    reverse: dict = {}
    for node, pos in on_path.items():
        for adjacent in query.neighbors(node):
            if adjacent in on_path:
                continue
            if adjacent not in reverse:
                reverse[adjacent] = []
                neighbors.append(adjacent)
            reverse[adjacent].append(pos)
    path_edges = path.path_edges
    cycles = []
    nodes_set = set(path.nodes)
    for edge in query.edges:
        if edge in path_edges or not edge <= nodes_set:
            continue
        node_a, node_b = tuple(edge)
        pos_a, pos_b = on_path[node_a], on_path[node_b]
        cycles.append((min(pos_a, pos_b), max(pos_a, pos_b)))
    return PathStatistics(
        neighbors=tuple(neighbors),
        reverse_neighbors={m: tuple(ps) for m, ps in reverse.items()},
        cycles=tuple(sorted(cycles)),
    )


class CandidateFinder:
    """Retrieves and prunes candidate matches for query paths."""

    def __init__(
        self,
        peg: ProbabilisticEntityGraph,
        query: QueryGraph,
        alpha: float,
        index: PathIndexProtocol | None = None,
        context: ContextInformation | None = None,
        use_context: bool = True,
    ) -> None:
        self.peg = peg
        self.query = query
        self.alpha = float(alpha)
        self.index = index
        self.context = context
        self.use_context = bool(use_context) and context is not None
        self.arrays = PegProbabilityArrays(peg)
        self._allowed: dict = {}

    # ------------------------------------------------------------------
    # Node-level pruning
    # ------------------------------------------------------------------

    def allowed_nodes(self, query_node) -> np.ndarray:
        """Node-level context test of Section 5.2.2, for every PEG node
        at once: a boolean vector over the id space (memoized)."""
        allowed = self._allowed.get(query_node)
        if allowed is not None:
            return allowed
        query, context = self.query, self.context
        p_label = self.arrays.label_probabilities(query.label(query_node))
        allowed = p_label > 0.0
        # c(n, σ) for the labels around n.
        required: dict = {}
        for neighbor in query.neighbors(query_node):
            label = query.label(neighbor)
            required[label] = required.get(label, 0) + 1
        for sigma, count in required.items():
            cardinality, _ppu, fpu = context.columns(sigma)
            allowed &= cardinality >= count
            allowed &= p_label * np.power(fpu, count) >= self.alpha
        self._allowed[query_node] = allowed
        return allowed

    # ------------------------------------------------------------------
    # Path-level pruning
    # ------------------------------------------------------------------

    def neighborhood_upperbound(
        self, stats: PathStatistics, nodes: np.ndarray
    ) -> np.ndarray:
        """``pu(P^u)`` per row: bound on the probability of matching ``Γ(P)``.

        For each path neighbor ``m``, one adjacent path node contributes
        its full upperbound ``fpu`` and the remaining ones their partial
        upperbounds ``ppu``; the tightest choice over ``rv(P, m)`` is
        used, and bounds multiply over all neighbors.
        """
        bound = np.ones(nodes.shape[0], dtype=np.float64)
        for m in stats.neighbors:
            _c, ppu_column, fpu_column = self.context.columns(self.query.label(m))
            columns = [nodes[:, pos] for pos in stats.reverse_neighbors[m]]
            ppu_values = [ppu_column[column] for column in columns]
            ppu_product = ppu_values[0]  # the scalar's 1.0 * ppu, exactly
            for ppu in ppu_values[1:]:
                ppu_product = ppu_product * ppu
            best = None
            for column, ppu in zip(columns, ppu_values):
                # A choice whose ppu is 0 bounds by 0 (fpu <= ppu).
                rest = np.divide(
                    ppu_product, ppu, out=np.zeros_like(ppu), where=ppu > 0.0
                )
                choice = fpu_column[column] * rest
                best = choice if best is None else np.minimum(best, choice)
            bound *= best
        return bound

    def cycle_probability(
        self, path: QueryPath, stats: PathStatistics, nodes: np.ndarray
    ) -> np.ndarray:
        """``cpr(P^u)`` per row: probability of the query's cycle edges
        on the path."""
        prob = np.ones(nodes.shape[0], dtype=np.float64)
        for pos_a, pos_b in stats.cycles:
            prob *= self.arrays.edge_probabilities(
                nodes[:, pos_a],
                nodes[:, pos_b],
                self.query.label(path.nodes[pos_a]),
                self.query.label(path.nodes[pos_b]),
            )
        return prob

    # ------------------------------------------------------------------
    # Main entry point
    # ------------------------------------------------------------------

    def find(self, path: QueryPath) -> tuple:
        """Candidates of a query path: ``(pruned columns, raw index count)``.

        Falls back to on-demand enumeration when no index is attached or
        the threshold is below the index's β (the paper's footnote 1).
        """
        label_seq = self.query.label_sequence(path.nodes)
        span = current_span()
        if self.index is not None and self.alpha >= self.index.beta:
            raw = self.index.lookup(label_seq, self.alpha)
        else:
            raw = PathIndexBuilder(
                self.peg, beta=self.alpha
            ).paths_for_sequence(label_seq)
            # Marks partitions that never touched the index, so a trace
            # with zero store reads explains itself.
            span.set("on_demand", True)
        raw_count = len(raw)
        if not self.use_context:
            # Even without context pruning, node candidacy on label
            # probability is implied by the index; keep everything.
            return raw, raw_count
        keep = np.ones(raw_count, dtype=bool)
        for position, query_node in enumerate(path.nodes):
            keep &= self.allowed_nodes(query_node)[raw.nodes[:, position]]
        kept = raw.take(keep)
        stats = compute_path_statistics(self.query, path)
        bound = (
            (kept.prle * kept.prn)
            * self.neighborhood_upperbound(stats, kept.nodes)
            * self.cycle_probability(path, stats, kept.nodes)
        )
        pruned = kept.take(bound >= self.alpha)
        if span.enabled:
            span.set("node_pruned", raw_count - len(kept))
            span.set("path_pruned", len(kept) - len(pruned))
        return pruned, raw_count
