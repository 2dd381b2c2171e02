"""Identity-component configurations (Section 3).

The joint node-existence distribution of a PEG factorizes over its
identity components (Eq. 7); this package enumerates and samples each
component's valid configurations:

* :mod:`~repro.pgm.configurations` — exact-cover enumeration of valid
  node-existence configurations for identity-uncertainty components,
* :mod:`~repro.pgm.sampling` — Monte Carlo configuration sampling for
  components too large to enumerate exactly.

:mod:`repro.peg.components` turns them into existence marginals.
"""

from repro.pgm.configurations import (
    enumerate_exact_covers,
    ComponentConfiguration,
)

__all__ = [
    "enumerate_exact_covers",
    "ComponentConfiguration",
]
