"""Probabilistic Entity Graph (PEG) — Definition 2 and Section 4.

This package lifts a reference-level :class:`~repro.pgd.model.PGD` to the
entity level:

* :func:`~repro.peg.construct.build_peg` constructs the
  :class:`~repro.peg.entity_graph.ProbabilisticEntityGraph` ``G_U``:
  one node per reference set with merged label/edge distributions,
* identity uncertainty is captured by per-component configuration
  distributions (:mod:`repro.peg.components`), from which node-existence
  marginals ``Prn`` are computed,
* :mod:`repro.peg.possible_worlds` enumerates possible world graphs for
  small PEGs — the exact semantics of Eq. 8 and the test oracle for the
  optimized query engine.
"""

from repro.peg.entity_graph import ProbabilisticEntityGraph, Match
from repro.peg.components import IdentityComponent
from repro.peg.construct import build_peg
from repro.peg.possible_worlds import (
    enumerate_worlds,
    world_match_probability,
    PossibleWorld,
)
from repro.peg.serialize import save_peg, load_peg

__all__ = [
    "ProbabilisticEntityGraph",
    "Match",
    "IdentityComponent",
    "build_peg",
    "enumerate_worlds",
    "world_match_probability",
    "PossibleWorld",
    "save_peg",
    "load_peg",
]
