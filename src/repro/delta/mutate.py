"""Applying mutation operations to a live PEG, tracking dirtied nodes.

:func:`apply_op` translates one typed operation
(:mod:`repro.delta.ops`) into the PEG's graph-surgery primitives and
returns the set of *dirty* node ids — the nodes whose incident paths
may have changed. The path index's live state
(:meth:`~repro.index.path_index.PathIndex.absorb`) uses exactly this
set: a stored path is affected by a mutation **iff** it contains a
dirty node, because under the supported operation set the probability
components of a path depend only on the labels, edges and existence
marginals of its own nodes (merges are restricted to single-entity
identity components, so no other entity's marginal ever moves).
"""

from __future__ import annotations

from repro.delta.ops import (
    AddEdge,
    AddEntity,
    MergeEntities,
    UpdateEdgeDistribution,
    UpdateLabelProbability,
)
from repro.pgd.distributions import LabelDistribution
from repro.peg.entity_graph import ProbabilisticEntityGraph
from repro.utils.errors import DeltaError, ModelError


def resolve_entity_id(peg: ProbabilisticEntityGraph, references) -> int:
    """Node id of the entity with this reference set; :class:`DeltaError`
    when unknown or already merged away."""
    entity = frozenset(references)
    try:
        node_id = peg.id_of(entity)
    except KeyError:
        raise DeltaError(
            f"no entity with references {sorted(entity, key=repr)}"
        ) from None
    if peg.is_removed_id(node_id):
        raise DeltaError(
            f"entity {sorted(entity, key=repr)} was merged away; address "
            "the merged entity instead"
        )
    return node_id


def _label_dist(probabilities) -> LabelDistribution:
    try:
        return LabelDistribution(probabilities)
    except ModelError as exc:
        raise DeltaError(f"invalid label distribution: {exc}") from exc


def apply_op(peg: ProbabilisticEntityGraph, op) -> frozenset:
    """Apply one mutation; returns the dirtied node ids."""
    try:
        if isinstance(op, AddEntity):
            node_id = peg.graph_add_entity(
                op.references,
                _label_dist(op.label_probabilities),
                op.existence_probability,
            )
            return frozenset((node_id,))
        if isinstance(op, AddEdge):
            id_a = resolve_entity_id(peg, op.references_a)
            id_b = resolve_entity_id(peg, op.references_b)
            peg.graph_add_edge(id_a, id_b, op.distribution)
            return frozenset((id_a, id_b))
        if isinstance(op, UpdateLabelProbability):
            node_id = resolve_entity_id(peg, op.references)
            peg.graph_update_label(node_id, _label_dist(op.label_probabilities))
            return frozenset((node_id,))
        if isinstance(op, UpdateEdgeDistribution):
            id_a = resolve_entity_id(peg, op.references_a)
            id_b = resolve_entity_id(peg, op.references_b)
            peg.graph_update_edge(id_a, id_b, op.distribution)
            return frozenset((id_a, id_b))
        if isinstance(op, MergeEntities):
            id_a = resolve_entity_id(peg, op.references_a)
            id_b = resolve_entity_id(peg, op.references_b)
            label_dist = (
                _label_dist(op.label_probabilities)
                if op.label_probabilities is not None
                else None
            )
            merged_id = peg.graph_merge_entities(
                id_a, id_b, label_dist, op.existence_probability
            )
            return frozenset((id_a, id_b, merged_id))
    except ModelError as exc:
        raise DeltaError(f"cannot apply {op.kind}: {exc}") from exc
    raise DeltaError(f"unknown mutation operation {op!r}")
