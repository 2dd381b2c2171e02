"""Identity-uncertainty components and their existence marginals.

The node-existence variables ``s.n`` partition into Markov-network
components induced by shared references (Eq. 7). Each
:class:`IdentityComponent` holds the exact distribution over its legal
configurations (exact covers of its references, see
:mod:`repro.pgm.configurations`) and answers marginal queries
``Pr(all entities in E exist)`` with memoization — the quantities the
offline phase precomputes and ``Prn`` (Eq. 12) multiplies together.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, Mapping, Sequence, Tuple

from repro.pgm.configurations import (
    ComponentConfiguration,
    enumerate_exact_covers,
)
from repro.pgm.sampling import ComponentSampler
from repro.utils.errors import ModelError

#: Components with more references than this switch from exact
#: configuration enumeration to Monte Carlo marginal estimation (the
#: paper's "approximate inference" fallback for large components).
DEFAULT_EXACT_LIMIT = 16


def _in_order_sum(values: Iterable[float]) -> float:
    """Left-to-right float sum: the arithmetic of
    :class:`repro.peg.arrays.ComponentTable` on every Python (the
    built-in ``sum`` compensates floats from 3.12 on)."""
    total = 0.0
    for value in values:
        total += value
    return total


class IdentityComponent:
    """One connected component of the node-existence Markov network.

    Small components (the common case, and the paper's assumption) carry
    the exact normalized distribution over their legal configurations;
    components with more than ``exact_limit`` references fall back to a
    seeded importance sampler (:class:`~repro.pgm.sampling.ComponentSampler`),
    in which case :attr:`configurations` is ``None`` and all marginals
    are consistent estimates.
    """

    def __init__(
        self,
        index: int,
        references: Iterable,
        entities: Iterable[FrozenSet],
        set_potentials: Mapping[FrozenSet, float],
        exact_limit: int = DEFAULT_EXACT_LIMIT,
        approx_samples: int = 4000,
    ) -> None:
        self.index = index
        self.references = frozenset(references)
        self.entities = tuple(sorted((frozenset(e) for e in entities), key=repr))
        self._marginal_cache: dict = {}
        if len(self.references) <= exact_limit:
            self._sampler = None
            self.configurations: Tuple[ComponentConfiguration, ...] | None = (
                enumerate_exact_covers(
                    self.references, self.entities, set_potentials
                )
            )
            # Single-entity marginals are needed constantly (index build,
            # pruning); precompute them eagerly.
            for entity in self.entities:
                self._marginal_cache[frozenset((entity,))] = _in_order_sum(
                    cfg.probability
                    for cfg in self.configurations
                    if entity in cfg.chosen
                )
        else:
            self.configurations = None
            # Deterministic per-component seed so results are stable.
            self._sampler = ComponentSampler(
                self.references,
                self.entities,
                set_potentials,
                num_samples=approx_samples,
                seed=0xC0FFEE + index,
            )
            for entity in self.entities:
                self._marginal_cache[frozenset((entity,))] = (
                    self._sampler.existence_probability(entity)
                )

    @property
    def is_exact(self) -> bool:
        """True when marginals come from exact enumeration."""
        return self.configurations is not None

    @property
    def is_trivial(self) -> bool:
        """True when the component has exactly one legal configuration."""
        return self.is_exact and len(self.configurations) == 1

    def existence_probability(self, entity: FrozenSet) -> float:
        """``Pr(entity.n = T)`` — marginal over the component distribution."""
        key = frozenset((frozenset(entity),))
        try:
            return self._marginal_cache[key]
        except KeyError:
            raise ModelError(
                f"entity {sorted(entity, key=repr)} is not in component {self.index}"
            ) from None

    def existence_marginal(self, entities: Iterable[FrozenSet]) -> float:
        """``Pr(all entities in `entities` exist simultaneously)``.

        Entities sharing a reference never co-occur in a configuration,
        so the marginal is zero for such inputs — matches with
        reference-sharing nodes are pruned automatically.
        """
        key = frozenset(frozenset(e) for e in entities)
        if not key:
            return 1.0
        cached = self._marginal_cache.get(key)
        if cached is not None:
            return cached
        unknown = [e for e in key if e not in set(self.entities)]
        if unknown:
            raise ModelError(
                f"entities {sorted(map(sorted, unknown))} are not in "
                f"component {self.index}"
            )
        if self.configurations is not None:
            marginal = _in_order_sum(
                cfg.probability
                for cfg in self.configurations
                if key <= cfg.chosen
            )
        else:
            marginal = self._sampler.existence_marginal(key)
        self._marginal_cache[key] = marginal
        return marginal

    def weighted_rows(self) -> tuple:
        """``(chosen sets, weights, denominator)`` a joint marginal is
        read from: :meth:`existence_marginal` of ``E`` is the in-order
        sum of the weights of the rows whose chosen set holds ``E``,
        over the denominator. The rows are the configurations (weights
        their probabilities, denominator 1.0) or, for a sampled
        component, the sampler's draws and their importance weights."""
        if self._sampler is not None:
            return self._sampler.weighted_samples()
        return (
            [cfg.chosen for cfg in self.configurations],
            [cfg.probability for cfg in self.configurations],
            1.0,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        mode = (
            f"configurations={len(self.configurations)}"
            if self.is_exact
            else "approximate"
        )
        return (
            f"IdentityComponent(index={self.index}, "
            f"references={len(self.references)}, entities={len(self.entities)}, "
            f"{mode})"
        )


class DynamicComponent:
    """A single-entity identity component created by a live update.

    Entities added (or produced by merges) after the offline phase get
    their own component with an explicitly supplied existence
    probability instead of a configuration distribution — dynamic
    updates require fresh, non-overlapping reference sets (enforced by
    :meth:`repro.peg.entity_graph.ProbabilisticEntityGraph.graph_add_entity`),
    so there is never a joint distribution to maintain. The class
    mirrors the :class:`IdentityComponent` surface the rest of the
    system consumes.
    """

    def __init__(
        self, index: int, entity: FrozenSet, existence_probability: float
    ) -> None:
        if not 0.0 <= existence_probability <= 1.0:
            raise ModelError(
                "existence probability must be in [0, 1], got "
                f"{existence_probability}"
            )
        self.index = index
        self.references = frozenset(entity)
        self.entities = (frozenset(entity),)
        self._existence = float(existence_probability)
        # Real configurations keep exact tooling — most importantly the
        # possible-worlds oracle — working over mutated graphs: the
        # entity either exists (p) or does not (1 - p).
        configurations = [
            ComponentConfiguration(
                chosen=frozenset((self.entities[0],)),
                probability=self._existence,
            )
        ]
        if self._existence < 1.0:
            configurations.append(
                ComponentConfiguration(
                    chosen=frozenset(),
                    probability=1.0 - self._existence,
                )
            )
        self.configurations: Tuple[ComponentConfiguration, ...] = tuple(
            configurations
        )

    @property
    def is_exact(self) -> bool:
        """Marginals are exact (a single entity, explicit probability)."""
        return True

    @property
    def is_trivial(self) -> bool:
        """Trivial only when the entity exists with certainty."""
        return self._existence >= 1.0

    def existence_probability(self, entity: FrozenSet) -> float:
        """``Pr(entity.n = T)`` — the supplied probability."""
        if frozenset(entity) != self.entities[0]:
            raise ModelError(
                f"entity {sorted(entity, key=repr)} is not in component "
                f"{self.index}"
            )
        return self._existence

    def existence_marginal(self, entities: Iterable[FrozenSet]) -> float:
        """Joint marginal; only the component's own entity is legal."""
        key = {frozenset(e) for e in entities}
        if not key:
            return 1.0
        if key != {self.entities[0]}:
            unknown = sorted(map(sorted, key - {self.entities[0]}))
            raise ModelError(
                f"entities {unknown} are not in component {self.index}"
            )
        return self._existence

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DynamicComponent(index={self.index}, "
            f"references={len(self.references)}, p={self._existence:.3g})"
        )


def partition_into_components(
    set_potentials: Mapping[FrozenSet, float],
) -> Sequence[Tuple[frozenset, tuple]]:
    """Group reference sets into components by shared references.

    Returns a list of ``(references, entities)`` tuples in deterministic
    order. Union-find over references; every reference set connects all
    of its references, so a (non-empty) set belongs to the component of
    the root of any one of them — the sets are grouped in one pass, not
    rescanned per component.
    """
    parent: dict = {}

    def find(x):
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra

    for entity in set_potentials:
        for ref in entity:
            parent.setdefault(ref, ref)
        refs = list(entity)
        for other in refs[1:]:
            union(refs[0], other)

    groups: dict = {}
    for ref in parent:
        groups.setdefault(find(ref), set()).add(ref)
    members: dict = {}
    for entity in set_potentials:
        members.setdefault(find(next(iter(entity))), []).append(entity)

    components = [
        (frozenset(refs), tuple(sorted(members[root], key=repr)))
        for root, refs in groups.items()
    ]
    components.sort(key=lambda item: min(repr(r) for r in item[0]))
    return components
