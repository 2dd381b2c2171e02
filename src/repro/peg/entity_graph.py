"""The probabilistic entity graph ``G_U`` and match probability services.

``G_U`` (Section 4, "Finding Matches") has one node per reference set
``s`` with positive existence probability, labeled with the set ``L(s)``
of labels of non-zero probability, and an edge wherever the merged edge
existence probability is positive. All query processing operates on this
single graph; probabilities are computed from the attached component
distributions and merged label/edge distributions:

``Pr(M) = Prn(M) * Prle(M)``  (Eq. 11)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Iterable, Mapping, Tuple

from repro.pgd.distributions import LabelDistribution
from repro.peg.columns import PegColumns
from repro.peg.components import DynamicComponent, IdentityComponent
from repro.utils.errors import ModelError, QueryError

#: An entity is identified by its underlying frozen set of references.
Entity = FrozenSet


def _dist_max_probability(dist) -> float:
    """Upper bound of an edge distribution (used to pick merge winners)."""
    if dist.conditional:
        return dist.max_probability()
    return dist.probability()


@dataclass(frozen=True)
class Match:
    """A probabilistic match: labeled entity nodes plus required edges.

    Attributes
    ----------
    nodes:
        Mapping ``entity -> matched label`` (stored as a sorted tuple of
        pairs so the match is hashable).
    edges:
        Frozenset of entity pairs (each a frozenset of two entities).
    mapping:
        A representative embedding ``query node -> entity``, pairs in
        ``repr(query node)`` order. Two embeddings producing the same
        labeled subgraph are the same match; the query engine's
        matchers keep the one whose PEG node ids, read in the query's
        canonical order
        (:meth:`~repro.query.query_graph.QueryGraph.canonical_order`),
        are lexicographically least, so every plan and every renamed
        copy of the query reads the same one.
    probability:
        ``Pr(M)`` per Eq. 11.
    """

    nodes: Tuple[Tuple[Entity, object], ...]
    edges: FrozenSet[FrozenSet[Entity]]
    mapping: Tuple[Tuple[object, Entity], ...]
    probability: float

    @property
    def label_of(self) -> dict:
        """Mapping ``entity -> label`` for this match."""
        return dict(self.nodes)

    def canonical_key(self) -> tuple:
        """Key identifying the labeled subgraph independent of embedding."""
        return (self.nodes, tuple(sorted(map(sorted, self.edges), key=repr)))


class ProbabilisticEntityGraph:
    """Entity-level uncertain graph with probability services.

    Built by :func:`repro.peg.construct.build_peg`; not constructed
    directly by applications.
    """

    def __init__(
        self,
        labels: Mapping[Entity, LabelDistribution],
        edges: Mapping[FrozenSet[Entity], object],
        components: Iterable[IdentityComponent],
        conditional: bool,
    ) -> None:
        self._labels = dict(labels)
        self._edges = dict(edges)
        self.components = tuple(components)
        self.conditional = conditional
        self._component_of: dict = {}
        for component in self.components:
            for entity in component.entities:
                if entity in self._labels:
                    self._component_of[entity] = component
        missing = [e for e in self._labels if e not in self._component_of]
        if missing:
            raise ModelError(
                f"{len(missing)} entities lack an identity component"
            )
        # Live-update bookkeeping: ids of tombstoned (merged-away)
        # entities, and every reference claimed by an identity component
        # (dynamic adds must use fresh references).
        self._removed_ids: set = set()
        self._refs_in_use: set = set()
        for component in self.components:
            self._refs_in_use |= component.references
        self._id_of = {entity: node for node, entity in enumerate(self._labels)}
        #: The id view (:mod:`repro.peg.columns`), which the ``graph_*``
        #: primitives patch.
        self.columns = PegColumns(
            [(e, self._labels[e], self._component_of[e]) for e in self._labels],
            [(*map(self._id_of.__getitem__, pair), dist)
             for pair, dist in self._edges.items()],
        )

    # ------------------------------------------------------------------
    # The id view: accessors over ``self.columns``
    # ------------------------------------------------------------------

    def id_of(self, entity: Entity) -> int:
        """Dense integer id of an entity node."""
        return self._id_of[entity]

    def entity_of(self, node_id: int) -> Entity:
        """Entity (frozenset of references) for a node id."""
        return self.columns.entities[node_id]

    def node_ids(self) -> range:
        """All node ids."""
        return range(self.columns.size)

    def neighbor_ids(self, node_id: int) -> tuple:
        """Sorted neighbor ids of ``node_id``."""
        return tuple(self.columns.neighbors(node_id).tolist())

    def degree(self, node_id: int) -> int:
        """Number of neighbors of ``node_id`` in ``G_U``."""
        return self.columns.neighbors(node_id).size

    def possible_labels_id(self, node_id: int) -> tuple:
        """``L(v)`` for a node id, in support order."""
        columns = self.columns
        low, high = columns.sup_ptr[node_id:node_id + 2]
        positions = columns.sup_label[low:high].tolist()
        return tuple(map(columns.sigma.__getitem__, positions))

    def label_probability_id(self, node_id: int, label) -> float:
        """``Pr(v.l = label)`` by node id."""
        pos = self.columns.label_pos.get(label)
        return 0.0 if pos is None else self.columns.label_matrix[node_id, pos].item()

    def existence_probability_id(self, node_id: int) -> float:
        """``Pr(v.n = T)`` by node id."""
        return self.columns.existence[node_id].item()

    def component_index_id(self, node_id: int) -> int:
        """Identity-component index of a node id."""
        return self.columns.component[node_id].item()

    def edge_distribution_id(self, id_a: int, id_b: int):
        """Merged edge distribution between two node ids, or ``None``."""
        slot, found = self.columns.slots(id_a, id_b)
        return self.columns.slot_dists[slot] if found else None

    def edge_ids(self) -> list:
        """``[((id_a, id_b), merged distribution)]`` with ``id_a < id_b``."""
        return [
            (tuple(sorted(map(self._id_of.__getitem__, pair))), dist)
            for pair, dist in self._edges.items()
        ]

    def edge_probability_id(self, id_a: int, id_b: int, label_a=None, label_b=None) -> float:
        """``Pr((a, b).e = T)`` by node ids (labels required when conditional)."""
        dist = self.edge_distribution_id(id_a, id_b)
        if dist is None:
            return 0.0
        if dist.conditional:
            if label_a is None or label_b is None:
                raise QueryError(
                    "conditional PEG requires endpoint labels for edge "
                    "probabilities; use edge_max_probability_id for bounds"
                )
            return dist.probability(label_a, label_b)
        return dist.probability()

    def edge_max_probability_id(self, id_a: int, id_b: int, label_a=None, label_b=None) -> float:
        """Upper bound of the edge probability, maximizing unknown labels."""
        dist = self.edge_distribution_id(id_a, id_b)
        if dist is None:
            return 0.0
        if dist.conditional:
            return dist.max_probability(label_a, label_b)
        return dist.probability()

    def shares_references_id(self, id_a: int, id_b: int) -> bool:
        """True if the two nodes' reference sets intersect.

        Nodes in different identity components never share references, so
        the common case is answered by an integer comparison.
        """
        component = self.columns.component
        if component[id_a] != component[id_b]:
            return False
        return bool(self.entity_of(id_a) & self.entity_of(id_b))

    def existence_marginal_ids(self, node_ids: Iterable[int]) -> float:
        """``Prn`` over node ids (grouped by component, exact within each)."""
        return self.existence_marginal(
            [self.entity_of(node) for node in node_ids]
        )

    # ------------------------------------------------------------------
    # Live updates (graph surgery)
    # ------------------------------------------------------------------
    #
    # The ``graph_*`` methods mutate ``G_U`` in place, updating the
    # entity-keyed dicts and patching the id view's columns (the rows
    # they touch; new ids appended). Node ids are *stable*: new entities
    # take fresh ids at the end, merged-away entities keep their id slot
    # as a tombstone (existence probability zero, no adjacency, no
    # label), so paths stored by an offline index remain
    # addressable. Callers go through :mod:`repro.delta`, which also
    # tracks the dirtied nodes for overlay index maintenance.

    def is_removed_id(self, node_id: int) -> bool:
        """True when the id belongs to a merged-away (tombstoned) entity."""
        return node_id in self._removed_ids

    def _live_id(self, node_id: int, role: str) -> int:
        if not 0 <= node_id < self.columns.size:
            raise ModelError(f"unknown {role} node id {node_id}")
        if node_id in self._removed_ids:
            raise ModelError(
                f"{role} node id {node_id} was merged away; it cannot be "
                "mutated further"
            )
        return node_id

    def _insert_entity(
        self, entity: Entity, label_dist: LabelDistribution, existence: float
    ) -> int:
        """Append one entity as its own :class:`DynamicComponent`."""
        component = DynamicComponent(len(self.components), entity, existence)
        self.components = self.components + (component,)
        self._labels[entity] = label_dist
        self._component_of[entity] = component
        node_id = self.columns.append(entity, label_dist, component)
        self._id_of[entity] = node_id
        return node_id

    def graph_add_entity(
        self,
        references: Iterable,
        label_dist: LabelDistribution,
        existence_probability: float = 1.0,
    ) -> int:
        """Add a new entity node; returns its (fresh) node id.

        The reference set must be disjoint from every existing identity
        component — overlapping references would require re-running
        entity resolution over the affected component, which is an
        offline operation.
        """
        entity = frozenset(references)
        if not entity:
            raise ModelError("entity reference set must not be empty")
        if entity in self._id_of:
            raise ModelError(
                f"entity {sorted(entity, key=repr)} already exists"
            )
        overlap = self._refs_in_use & entity
        if overlap:
            raise ModelError(
                f"references {sorted(overlap, key=repr)} already belong to "
                "an identity component; dynamic adds need fresh references"
            )
        node_id = self._insert_entity(entity, label_dist, existence_probability)
        self._refs_in_use |= entity
        return node_id

    def graph_add_edge(self, id_a: int, id_b: int, dist) -> None:
        """Add an edge between two live entity nodes."""
        id_a = self._live_id(id_a, "edge endpoint")
        id_b = self._live_id(id_b, "edge endpoint")
        if id_a == id_b:
            raise ModelError("an entity cannot have an edge to itself")
        entity_a, entity_b = self.entity_of(id_a), self.entity_of(id_b)
        if self.shares_references_id(id_a, id_b):
            raise ModelError(
                "entities sharing references never co-exist; an edge "
                "between them is meaningless"
            )
        pair = frozenset((entity_a, entity_b))
        if pair in self._edges:
            raise ModelError(
                "edge already exists; use update_edge_distribution"
            )
        self._set_edge(id_a, id_b, dist)

    def graph_update_edge(self, id_a: int, id_b: int, dist) -> None:
        """Replace the distribution of an existing edge."""
        id_a = self._live_id(id_a, "edge endpoint")
        id_b = self._live_id(id_b, "edge endpoint")
        pair = frozenset((self.entity_of(id_a), self.entity_of(id_b)))
        if pair not in self._edges:
            raise ModelError(
                f"no edge between node ids {id_a} and {id_b}; use add_edge"
            )
        self._set_edge(id_a, id_b, dist)

    def _set_edge(self, id_a: int, id_b: int, dist) -> None:
        self._edges[frozenset((self.entity_of(id_a), self.entity_of(id_b)))] = dist
        self.columns.set_edge(id_a, id_b, dist)
        self.conditional = self.conditional or bool(dist.conditional)

    def graph_update_label(self, node_id: int, label_dist: LabelDistribution) -> None:
        """Replace the label distribution of a live entity node."""
        node_id = self._live_id(node_id, "entity")
        self._labels[self.entity_of(node_id)] = label_dist
        self.columns.set_labels(node_id, label_dist)

    def _remove_entity(self, node_id: int) -> None:
        """Tombstone one entity: drop its edges, zero its existence."""
        entity = self.entity_of(node_id)
        for other in self.neighbor_ids(node_id):
            del self._edges[frozenset((entity, self.entity_of(other)))]
        del self._labels[entity]
        del self._component_of[entity]
        self.columns.remove(node_id)
        self._removed_ids.add(node_id)

    def graph_merge_entities(
        self,
        id_a: int,
        id_b: int,
        label_dist: LabelDistribution | None = None,
        existence_probability: float | None = None,
    ) -> int:
        """Merge two entity nodes into one; returns the merged node's id.

        Both entities must be the *sole* entity of their identity
        component (always true for dynamically added entities and for
        certain resolutions); merging inside a multi-entity component
        would change the other entities' marginals and requires an
        offline rebuild. The merged entity unions the reference sets,
        inherits the union of both adjacency lists (when both sides had
        an edge to the same neighbor, the distribution with the larger
        maximum probability wins; an edge between the two merged
        entities disappears), and defaults to the average of the two
        label distributions and the maximum of the two existence
        probabilities.
        """
        id_a = self._live_id(id_a, "merge source")
        id_b = self._live_id(id_b, "merge source")
        if id_a == id_b:
            raise ModelError("cannot merge an entity with itself")
        entity_a, entity_b = self.entity_of(id_a), self.entity_of(id_b)
        for entity, node_id in ((entity_a, id_a), (entity_b, id_b)):
            component = self._component_of[entity]
            if len(component.entities) != 1:
                raise ModelError(
                    f"entity at node id {node_id} shares an identity "
                    "component with other entities; merging inside an "
                    "uncertain component requires an offline rebuild"
                )
        # Resolve and validate every input *before* the first
        # tombstone: a failure past that point would leave the graph
        # half-mutated with the overlay never told about the dirt.
        if label_dist is None:
            from repro.pgd.merge import average_labels

            label_dist = average_labels(
                [self._labels[entity_a], self._labels[entity_b]]
            )
        if existence_probability is None:
            existence_probability = max(
                self.existence_probability_id(id_a),
                self.existence_probability_id(id_b),
            )
        elif not 0.0 <= existence_probability <= 1.0:
            raise ModelError(
                "existence probability must be in [0, 1], got "
                f"{existence_probability}"
            )
        # Capture surviving neighbor edges before tombstoning.
        inherited: dict = {}
        for source in (id_a, id_b):
            for other in self.neighbor_ids(source):
                if other == id_a or other == id_b:
                    continue
                dist = self.edge_distribution_id(source, other)
                previous = inherited.get(other)
                if previous is None or (
                    _dist_max_probability(dist)
                    > _dist_max_probability(previous)
                ):
                    inherited[other] = dist
        self._remove_entity(id_a)
        self._remove_entity(id_b)
        merged = entity_a | entity_b
        merged_id = self._insert_entity(
            merged, label_dist, existence_probability
        )
        for other, dist in sorted(inherited.items()):
            self._set_edge(merged_id, other, dist)
        return merged_id

    # ------------------------------------------------------------------
    # Structure access
    # ------------------------------------------------------------------

    @property
    def entities(self) -> tuple:
        """All entity nodes (frozensets of references), insertion order."""
        return tuple(self._labels)

    @property
    def num_nodes(self) -> int:
        """Number of entity nodes in ``G_U``."""
        return len(self._labels)

    @property
    def num_edges(self) -> int:
        """Number of entity edges with positive probability."""
        return len(self._edges)

    @property
    def sigma(self) -> frozenset:
        """Label alphabet observed across all entity label distributions."""
        return frozenset(self.columns.sigma)

    def neighbors(self, entity: Entity) -> frozenset:
        """Adjacent entities of ``entity`` in ``G_U``."""
        if entity not in self._labels:
            raise ModelError(f"unknown entity {sorted(entity, key=repr)}")
        return frozenset(
            map(self.entity_of, self.neighbor_ids(self._id_of[entity]))
        )

    def refs(self, entity: Entity) -> frozenset:
        """Underlying references of an entity node (the set itself)."""
        return frozenset(entity)

    def share_references(self, entity_a: Entity, entity_b: Entity) -> bool:
        """True if the two entities have a reference in common."""
        return bool(entity_a & entity_b)

    def has_edge(self, entity_a: Entity, entity_b: Entity) -> bool:
        """True when ``G_U`` has an edge between the two entities."""
        return frozenset((entity_a, entity_b)) in self._edges

    def edges(self):
        """Iterate over ``(frozenset({e1, e2}), merged distribution)``."""
        return self._edges.items()

    def possible_labels(self, entity: Entity) -> tuple:
        """``L(entity)`` — labels with non-zero merged probability."""
        return self._labels[entity].support

    def label_distribution(self, entity: Entity) -> LabelDistribution:
        """The merged label distribution of an entity node."""
        return self._labels[entity]

    def component_of(self, entity: Entity) -> IdentityComponent:
        """The identity component containing ``entity``."""
        return self._component_of[entity]

    # ------------------------------------------------------------------
    # Probabilities
    # ------------------------------------------------------------------

    def label_probability(self, entity: Entity, label) -> float:
        """``Pr(entity.l = label)`` (merged node-label factor, Eq. 2)."""
        return self._labels[entity].probability(label)

    def edge_probability(
        self, entity_a: Entity, entity_b: Entity, label_a=None, label_b=None
    ) -> float:
        """``Pr((a, b).e = T)``, conditioned on labels when the model is conditional.

        For the independent model the labels are ignored. For the
        conditional model (Section 5.3) both endpoint labels must be
        given; raises :class:`QueryError` otherwise.
        """
        dist = self._edges.get(frozenset((entity_a, entity_b)))
        if dist is None:
            return 0.0
        if dist.conditional:
            if label_a is None or label_b is None:
                raise QueryError(
                    "conditional PEG requires endpoint labels for edge "
                    "probabilities; use edge_max_probability_id for bounds"
                )
            return dist.probability(label_a, label_b)
        return dist.probability()

    def existence_probability(self, entity: Entity) -> float:
        """``Pr(entity.n = T)`` — single-entity marginal of its component."""
        return self._component_of[entity].existence_probability(entity)

    def existence_marginal(self, entities: Iterable[Entity]) -> float:
        """``Prn`` for a set of entities: product of component marginals (Eq. 12).

        Entities are grouped by identity component; within a component the
        exact joint marginal is used, across components independence holds
        (Eq. 7). Returns zero when two entities share a reference.
        """
        by_component: dict = {}
        for entity in entities:
            component = self._component_of.get(entity)
            if component is None:
                raise ModelError(
                    f"unknown entity {sorted(entity, key=repr)}"
                )
            by_component.setdefault(component.index, (component, []))[1].append(
                entity
            )
        prob = 1.0
        for component, members in by_component.values():
            prob *= component.existence_marginal(members)
            if prob == 0.0:
                return 0.0
        return prob

    def match_probability(
        self,
        node_labels: Mapping[Entity, object],
        edges: Iterable[FrozenSet[Entity]],
    ) -> float:
        """``Pr(M) = Prn(M) * Prle(M)`` for a labeled subgraph (Eq. 11-13)."""
        prle = self.prle(node_labels, edges)
        if prle == 0.0:
            return 0.0
        return prle * self.existence_marginal(node_labels.keys())

    def prle(
        self,
        node_labels: Mapping[Entity, object],
        edges: Iterable[FrozenSet[Entity]],
    ) -> float:
        """Label-and-edge probability component ``Prle`` (Eq. 13)."""
        prob = 1.0
        for entity, label in node_labels.items():
            prob *= self.label_probability(entity, label)
            if prob == 0.0:
                return 0.0
        for pair in edges:
            entity_a, entity_b = tuple(pair)
            prob *= self.edge_probability(
                entity_a,
                entity_b,
                node_labels.get(entity_a),
                node_labels.get(entity_b),
            )
            if prob == 0.0:
                return 0.0
        return prob

    def stats(self) -> dict:
        """Summary counts for reports and tests."""
        nontrivial = [c for c in self.components if not c.is_trivial]
        return {
            "nodes": self.num_nodes,
            "edges": self.num_edges,
            "labels": len(self.sigma),
            "components": len(self.components),
            "nontrivial_components": len(nontrivial),
            "max_component_refs": max(
                (len(c.references) for c in self.components), default=0
            ),
            "conditional": self.conditional,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        s = self.stats()
        return (
            f"ProbabilisticEntityGraph(nodes={s['nodes']}, edges={s['edges']}, "
            f"components={s['components']}, conditional={s['conditional']})"
        )
