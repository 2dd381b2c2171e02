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
object; the probability gathers of the online phase read the graph's
own columns (:class:`repro.peg.columns.PegColumns`), which the graph
patches in place.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.peg.columns import gather_rows
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


def _context_rows(peg: ProbabilisticEntityGraph, nodes: np.ndarray) -> tuple:
    """``(c, ppu, fpu)`` rows of ``nodes`` in one pass over the graph's
    columns: a row per (neighbour slot, neighbour label), then a count
    and two maxima per (node, label). Every neighbour is in ``N(v, σ)``:
    no edge joins entities sharing a reference (``build_peg`` and
    ``graph_add_edge`` refuse one). The edge bound maximizes over
    ``v``'s unknown label (a CPT's ``max_probability(None, σ)``)."""
    columns = peg.columns
    parent, slots = gather_rows(columns.adj_ptr, nodes)
    again, support = gather_rows(columns.sup_ptr, columns.adj[slots])
    row, slots = parent[again], slots[again]
    label = columns.sup_label[support]
    p_edge = columns.slot_base[slots]
    for at in np.flatnonzero(columns.slot_conditional[slots]).tolist():
        p_edge[at] = columns.slot_dists[slots[at]].max_probability(
            None, columns.sigma[label[at]]
        )
    shape = (nodes.size, len(columns.sigma))
    counts = np.zeros(shape, dtype=np.int64)
    np.add.at(counts, (row, label), 1)
    ppu, fpu = np.zeros(shape), np.zeros(shape)
    np.maximum.at(ppu, (row, label), p_edge)
    np.maximum.at(fpu, (row, label), columns.sup_prob[support] * p_edge)
    return counts, ppu, fpu


def build_context(peg: ProbabilisticEntityGraph) -> ContextInformation:
    """Compute the context tables for every node of ``G_U``.

    Tables are sized by the *id space*, not the live-entity count —
    the same discipline as the graph's columns. After live
    merges (:mod:`repro.delta`) the id range contains tombstoned slots;
    rows must stay addressable by raw node id (index lookups return
    paths whose node ids the online phase feeds straight into these
    tables), so tombstones keep an explicit all-zero row rather than
    shifting later rows onto wrong ids.
    """
    sigma = peg.columns.sigma
    # Every id is "appended" to a context of no rows: one fill pass.
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
    columns = peg.columns
    if columns.sigma != context.sigma:
        return build_context(peg)
    known = context.tables()[0].shape[0]
    tables = []
    for table in context.tables():
        patched = np.zeros((columns.size, table.shape[1]), table.dtype, order="F")
        patched[:known] = table
        tables.append(patched)
    dirty = np.fromiter(dirty, dtype=np.int64)
    nodes = np.unique(np.concatenate((
        np.arange(known, columns.size),
        dirty,
        columns.adj[gather_rows(columns.adj_ptr, dirty)[1]],
    )))
    for table, rows in zip(tables, _context_rows(peg, nodes)):
        table[nodes] = rows
    return ContextInformation(context.sigma, *tables)
