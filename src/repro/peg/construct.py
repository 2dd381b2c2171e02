"""PGD → PEG transformation (Definition 2 applied, offline step 1).

Builds the entity-level graph: merges label distributions per reference
set (Eq. 2), merges edge distributions per entity pair (Eq. 3 / Eq. 9),
partitions node-existence variables into identity components, and
precomputes their configuration distributions.
"""

from __future__ import annotations

from typing import FrozenSet

from repro.pgd.model import PGD
from repro.peg.components import IdentityComponent, partition_into_components
from repro.peg.entity_graph import ProbabilisticEntityGraph
from repro.utils.errors import ModelError


def build_peg(
    pgd: PGD,
    exact_component_limit: int = 16,
    approx_samples: int = 4000,
) -> ProbabilisticEntityGraph:
    """Construct the probabilistic entity graph from a PGD.

    Entities whose existence probability is zero are left out of
    ``G_U``: they cannot appear in any possible world, so no match can
    use them.

    Parameters
    ----------
    pgd:
        The reference-level description.
    exact_component_limit:
        Identity components with at most this many references use exact
        configuration enumeration; larger ones switch to Monte Carlo
        marginal estimation (the paper's approximate-inference fallback).
    approx_samples:
        Sample count for approximate components.
    """
    pgd.validate()
    set_potentials = pgd.reference_sets()

    # --- identity components and their configuration distributions -----
    components = []
    for index, (refs, entity_sets) in enumerate(
        partition_into_components(set_potentials)
    ):
        potentials = {e: set_potentials[e] for e in entity_sets}
        components.append(
            IdentityComponent(
                index,
                refs,
                entity_sets,
                potentials,
                exact_limit=exact_component_limit,
                approx_samples=approx_samples,
            )
        )

    # --- node label distributions (Eq. 2) ------------------------------
    labels = {}
    existence = {}
    for component in components:
        for entity in component.entities:
            p_exist = component.existence_probability(entity)
            existence[entity] = p_exist
            if p_exist <= 0.0:
                continue
            member_labels = [pgd.label_distribution(r) for r in entity]
            labels[entity] = pgd.merge.labels(member_labels)

    # --- entity edge distributions (Eq. 3 / Eq. 9) ----------------------
    # For each declared reference edge, attribute it to every pair of
    # disjoint entities containing its endpoints, then merge per pair.
    containing: dict = {}
    for entity in labels:
        for ref in entity:
            containing.setdefault(ref, []).append(entity)

    pair_inputs: dict = {}
    for ref_pair, dist in pgd.edges():
        ref_1, ref_2 = tuple(ref_pair)
        for entity_1 in containing.get(ref_1, ()):
            for entity_2 in containing.get(ref_2, ()):
                if entity_1 == entity_2 or (entity_1 & entity_2):
                    continue
                key = frozenset((entity_1, entity_2))
                pair_inputs.setdefault(key, []).append(dist)

    edges = {}
    for key, dists in pair_inputs.items():
        merged = pgd.merge.edges(dists)
        if _max_edge_probability(merged) > 0.0:
            edges[key] = merged

    if not labels:
        raise ModelError("PEG has no entities with positive existence probability")

    return ProbabilisticEntityGraph(
        labels=labels,
        edges=edges,
        components=components,
        conditional=pgd.has_conditional_edges,
    )


def _max_edge_probability(dist) -> float:
    if dist.conditional:
        return dist.max_probability()
    return dist.probability()
