"""Probability distributions attached to references and reference pairs.

Two families:

* :class:`LabelDistribution` — discrete distribution over the label
  alphabet Sigma for a reference's attribute value,
* edge-existence distributions — :class:`BernoulliEdge` for the
  independent model and :class:`ConditionalEdge` for the label-correlated
  model of Section 5.3 (a CPT keyed by the pair of endpoint labels).
"""

from __future__ import annotations

from typing import Mapping, Tuple

from repro.utils.errors import ModelError
from repro.utils.validation import check_probability, check_distribution


class LabelDistribution:
    """Discrete distribution over labels, e.g. ``{"a": 0.75, "r": 0.25}``.

    Immutable after construction; probabilities must sum to one.
    """

    __slots__ = ("_probs",)

    def __init__(self, probabilities: Mapping) -> None:
        self._probs = check_distribution(probabilities, "label distribution")

    @classmethod
    def certain(cls, label) -> "LabelDistribution":
        """Distribution putting all mass on a single label."""
        return cls({label: 1.0})

    def probability(self, label) -> float:
        """``Pr(label)``, zero for labels outside the support."""
        return self._probs.get(label, 0.0)

    @property
    def support(self) -> tuple:
        """Labels with non-zero probability, in insertion order."""
        return tuple(l for l, p in self._probs.items() if p > 0.0)

    def items(self):
        """Iterate over ``(label, probability)`` pairs."""
        return self._probs.items()

    def as_dict(self) -> dict:
        """Copy of the underlying mapping."""
        return dict(self._probs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LabelDistribution):
            return NotImplemented
        return self._probs == other._probs

    def __hash__(self) -> int:
        return hash(tuple(sorted(self._probs.items(), key=lambda kv: repr(kv[0]))))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ", ".join(f"{l!r}: {p:.3g}" for l, p in self._probs.items())
        return f"LabelDistribution({{{inner}}})"


class BernoulliEdge:
    """Independent edge-existence distribution: ``Pr(e = T) = p``."""

    __slots__ = ("_p",)

    conditional = False

    def __init__(self, probability: float) -> None:
        self._p = check_probability(probability, "edge probability")

    def probability(self, label_1=None, label_2=None) -> float:
        """``Pr(e = T)``; endpoint labels are ignored for this model."""
        return self._p

    def max_probability(self) -> float:
        """Maximum of ``Pr(e = T)`` over label contexts (trivially ``p``)."""
        return self._p

    def __eq__(self, other) -> bool:
        if not isinstance(other, BernoulliEdge):
            return NotImplemented
        return self._p == other._p

    def __hash__(self) -> int:
        return hash(("bernoulli", self._p))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BernoulliEdge({self._p:.3g})"


class ConditionalEdge:
    """Label-conditioned edge existence: ``Pr(e = T | l1, l2)`` as a CPT.

    The CPT maps unordered label pairs to probabilities. For undirected
    graphs ``(l1, l2)`` and ``(l2, l1)`` denote the same entry; the
    constructor canonicalizes keys and rejects conflicting duplicates.

    A ``default`` probability applies to label pairs absent from the CPT.
    """

    __slots__ = ("_cpt", "_default")

    conditional = True

    def __init__(self, cpt: Mapping[Tuple, float], default: float = 0.0) -> None:
        if not cpt:
            raise ModelError("conditional edge CPT must not be empty")
        self._default = check_probability(default, "default edge probability")
        canonical: dict = {}
        for key, prob in cpt.items():
            if not isinstance(key, tuple) or len(key) != 2:
                raise ModelError(
                    f"CPT keys must be (label, label) tuples, got {key!r}"
                )
            p = check_probability(prob, f"CPT[{key!r}]")
            ckey = self._canonical(key[0], key[1])
            if ckey in canonical and canonical[ckey] != p:
                raise ModelError(
                    f"conflicting CPT entries for unordered pair {ckey!r}"
                )
            canonical[ckey] = p
        self._cpt = canonical

    @staticmethod
    def _canonical(label_1, label_2) -> tuple:
        a, b = sorted((label_1, label_2), key=repr)
        return (a, b)

    def probability(self, label_1=None, label_2=None) -> float:
        """``Pr(e = T | label_1, label_2)``.

        If either label is ``None`` the caller is asking for an
        upper bound context; use :meth:`max_probability` for that instead.
        """
        if label_1 is None or label_2 is None:
            raise ModelError(
                "conditional edge probability requires both endpoint labels; "
                "use max_probability() for upper bounds"
            )
        return self._cpt.get(self._canonical(label_1, label_2), self._default)

    def max_probability(self, label_1=None, label_2=None) -> float:
        """Max of ``Pr(e = T | l1, l2)`` over label pairs consistent with args.

        Any argument left as ``None`` is maximized over. This implements
        the Section 5.3 adjustment for ``ppu``/``fpu`` where one endpoint
        label is unknown.
        """
        best = 0.0
        matched = False
        for (a, b), p in self._cpt.items():
            for l1, l2 in ((a, b), (b, a)):
                ok_1 = label_1 is None or l1 == label_1
                ok_2 = label_2 is None or l2 == label_2
                if ok_1 and ok_2:
                    best = max(best, p)
                    matched = True
        if not matched:
            return self._default
        return max(best, self._default) if self._default > 0 else best

    def items(self):
        """Iterate over ``((label_1, label_2), probability)`` CPT entries."""
        return self._cpt.items()

    @property
    def default(self) -> float:
        """Probability used for label pairs absent from the CPT."""
        return self._default

    def __eq__(self, other) -> bool:
        if not isinstance(other, ConditionalEdge):
            return NotImplemented
        return self._cpt == other._cpt and self._default == other._default

    def __hash__(self) -> int:
        return hash(
            ("conditional", self._default, tuple(sorted(self._cpt.items(), key=repr)))
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ConditionalEdge({self._cpt!r}, default={self._default:.3g})"
