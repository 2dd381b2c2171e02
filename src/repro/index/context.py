"""Per-node context information (Section 5.1, "Context Information").

For every node ``v`` of ``G_U`` and label ``σ``, with
``N(v, σ) = {v' ∈ Γ(v) | σ ∈ L(v'), refs(v) ∩ refs(v') = ∅}``:

* cardinality       ``c(v, σ)   = |N(v, σ)|``
* partial upperbound ``ppu(v, σ) = max Pr((v, v').e = T)``
* full upperbound    ``fpu(v, σ) = max Pr(v'.l = σ) · Pr((v, v').e = T)``

For the label-correlated model (Section 5.3), the edge probability needs
``v``'s own label, which is unknown here; per the paper we maximize over
all possible labels of ``v``, keeping ``ppu``/``fpu`` valid upper bounds.

Invariant: ``fpu(v, σ) <= ppu(v, σ)`` — each ``fpu`` term is a ``ppu``
term times a label probability ``<= 1``. In particular ``ppu == 0``
implies ``fpu == 0``, which is why the tightest-choice neighbourhood
bound of Section 5.2.2 is simply 0 for a choice whose ``ppu`` is 0.

A context *is* its three dense ``(id_space, |Σ|)`` arrays — column-major,
so one label's column is contiguous and :meth:`ContextInformation.columns`
serves the online phase one gather per path column. They are what
:func:`build_context` fills, :func:`patch_context` copies and overwrites
(only the rows within one hop of a mutation batch), the scalar accessors
index and the bundle stores. Every graph version has its own context
object, so it also owns the
:class:`~repro.peg.arrays.PegProbabilityArrays` of its graph version
(:meth:`ContextInformation.probability_arrays`).
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.peg.arrays import PegProbabilityArrays
from repro.peg.entity_graph import ProbabilisticEntityGraph


class ContextInformation:
    """Dense per-(node, label) context tables for online pruning.

    ``cardinality``, ``partial_upper`` and ``full_upper`` are the
    ``(id_space, |Σ|)`` arrays of ``c``, ``ppu`` and ``fpu``; they are
    shared, never written.
    """

    def __init__(
        self,
        sigma: tuple,
        cardinality: np.ndarray,
        partial_upper: np.ndarray,
        full_upper: np.ndarray,
    ) -> None:
        self.sigma = tuple(sigma)
        self._label_pos = {label: i for i, label in enumerate(self.sigma)}
        self._tables = (cardinality, partial_upper, full_upper)
        # Built on first use; like PegProbabilityArrays' caches it is an
        # idempotent value inserted under the GIL, so concurrent readers
        # need no lock.
        self._arrays = None

    def _entry(self, table: int, node_id: int, label):
        pos = self._label_pos.get(label)
        return 0 if pos is None else self._tables[table][node_id, pos].item()

    def cardinality(self, node_id: int, label) -> int:
        """``c(v, σ)``: neighbors of ``v`` that can carry label ``σ``."""
        return self._entry(0, node_id, label)

    def partial_upperbound(self, node_id: int, label) -> float:
        """``ppu(v, σ)``: best edge probability into ``N(v, σ)``."""
        return float(self._entry(1, node_id, label))

    def full_upperbound(self, node_id: int, label) -> float:
        """``fpu(v, σ)``: best label-times-edge probability into ``N(v, σ)``."""
        return float(self._entry(2, node_id, label))

    def tables(self) -> tuple:
        """``(c, ppu, fpu)`` as dense ``(id_space, |Σ|)`` arrays."""
        return self._tables

    def columns(self, label) -> tuple:
        """``(c, ppu, fpu)`` of one label over the id space (all zero
        for a label outside ``Σ``, like the scalar accessors)."""
        pos = self._label_pos.get(label)
        if pos is None:
            return tuple(
                np.zeros(table.shape[0], dtype=table.dtype)
                for table in self._tables
            )
        return tuple(table[:, pos] for table in self._tables)

    def probability_arrays(self, peg: ProbabilisticEntityGraph):
        """The shared probability gather tables of ``peg``.

        ``peg`` must be the graph this context was built from; the
        tables then live exactly as long as the context, i.e. until the
        next mutation batch replaces it.
        """
        arrays = self._arrays
        if arrays is None:
            arrays = self._arrays = PegProbabilityArrays(peg)
        return arrays

    def as_rows(self, node_id: int) -> Mapping:
        """All three measures of one node keyed by label (for reports)."""
        return {
            label: {
                "c": self.cardinality(node_id, label),
                "ppu": self.partial_upperbound(node_id, label),
                "fpu": self.full_upperbound(node_id, label),
            }
            for label in self.sigma
        }


def _node_rows(peg: ProbabilisticEntityGraph, node: int, label_pos: dict) -> tuple:
    """``(c, ppu, fpu)`` rows of one node, from its neighbors alone (a
    tombstone has none, so its rows are all zero)."""
    counts = [0] * len(label_pos)
    ppu = [0.0] * len(label_pos)
    fpu = [0.0] * len(label_pos)
    for neighbor in peg.neighbor_ids(node):
        if peg.shares_references_id(node, neighbor):
            continue
        for label in peg.possible_labels_id(neighbor):
            pos = label_pos[label]
            counts[pos] += 1
            # Edge probability upper bound: v's own label is unknown
            # here, so maximize over it (exact for the independent
            # model, an upper bound for the conditional one).
            p_edge = peg.edge_max_probability_id(node, neighbor, None, label)
            if p_edge > ppu[pos]:
                ppu[pos] = p_edge
            p_full = peg.label_probability_id(neighbor, label) * p_edge
            if p_full > fpu[pos]:
                fpu[pos] = p_full
    return counts, ppu, fpu


def build_context(peg: ProbabilisticEntityGraph) -> ContextInformation:
    """Compute the context tables for every node of ``G_U``.

    Tables are sized by the *id space*, not the live-entity count —
    the same discipline as
    :class:`repro.peg.arrays.PegProbabilityArrays`. After live
    merges (:mod:`repro.delta`) the id range contains tombstoned slots;
    rows must stay addressable by raw node id (index lookups return
    paths whose node ids the online phase feeds straight into these
    tables), so tombstones keep an explicit all-zero row rather than
    shifting later rows onto wrong ids.
    """
    sigma = tuple(sorted(peg.sigma, key=repr))
    # Every id is "appended" to a context of no rows: one fill loop.
    dtypes = (np.int64, np.float64, np.float64)  # c, ppu, fpu
    empty = (np.zeros((0, len(sigma)), dtype) for dtype in dtypes)
    return patch_context(ContextInformation(sigma, *empty), peg, ())


def patch_context(
    context: ContextInformation, peg: ProbabilisticEntityGraph, dirty
) -> ContextInformation:
    """The context of ``peg`` after a mutation batch dirtied ``dirty``.

    A node's rows read only its own edges and its neighbors' labels, so
    the rows a batch can change are those of ``dirty ∪ Γ(dirty)`` on
    the mutated graph (a merge's survivor inherits both adjacency
    lists) plus the ids it appended; the tables are copied and those
    rows overwritten, so ``context`` stays valid for its own graph
    version. A batch that changed ``Σ`` moves every row's columns: then
    rebuild.
    """
    if tuple(sorted(peg.sigma, key=repr)) != context.sigma:
        return build_context(peg)
    size = len(peg.node_ids())
    known = context.tables()[0].shape[0]
    tables = []
    for table in context.tables():
        patched = np.zeros((size, table.shape[1]), table.dtype, order="F")
        patched[:known] = table
        tables.append(patched)
    affected = set(range(known, size))
    for node in dirty:
        affected.add(node)
        affected.update(peg.neighbor_ids(node))
    for node in affected:
        rows = _node_rows(peg, node, context._label_pos)
        for table, row in zip(tables, rows):
            table[node] = row
    return ContextInformation(context.sigma, *tables)
