"""Approximate node-existence marginals for large identity components.

The paper (Section 5.1, "Component Probabilities") assumes identity
components stay small enough for exact configuration enumeration, and
adds: *"If not, we could instead either employ an approximate inference
technique to compute the marginals, or compute them on demand using the
PGM engine."* This module implements that fallback: a self-normalized
Monte Carlo estimator over exact covers.

The sampler draws random exact covers with a greedy proposal (pick the
uncovered reference with the fewest options, choose one of its sets
proportionally to its potential) and importance-weights each sample by
``target / proposal``, which makes the estimator consistent for any
marginal ``Pr(E ⊆ chosen)``.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, Mapping, Sequence

from repro.utils.errors import ModelError
from repro.utils.rng import ensure_rng


class ComponentSampler:
    """Importance sampler over the exact covers of one component.

    Parameters
    ----------
    references:
        The component's references.
    candidate_sets:
        The reference sets available to cover them.
    set_potentials:
        ``p_s(s.x = T)`` per candidate set.
    num_samples:
        Monte Carlo sample count per marginal estimate.
    seed:
        RNG seed (estimates are deterministic given the seed).
    """

    def __init__(
        self,
        references: Iterable,
        candidate_sets: Sequence[FrozenSet],
        set_potentials: Mapping[FrozenSet, float],
        num_samples: int = 4000,
        seed=None,
    ) -> None:
        if num_samples < 1:
            raise ModelError(f"num_samples must be >= 1, got {num_samples}")
        self.references = frozenset(references)
        self.sets = [frozenset(s) for s in candidate_sets]
        self.potentials = {
            s: float(set_potentials[s]) for s in self.sets
        }
        self.num_samples = int(num_samples)
        self._rng = ensure_rng(seed)
        self._containing: dict = {r: [] for r in self.references}
        for s in self.sets:
            if not s <= self.references:
                raise ModelError(
                    f"set {sorted(s, key=repr)} is not inside the component"
                )
            for r in s:
                self._containing[r].append(s)
        for r, options in self._containing.items():
            if not options:
                raise ModelError(f"reference {r!r} has no covering set")
        self._samples = None

    # ------------------------------------------------------------------

    def _draw_cover(self):
        """One greedy randomized exact cover with its proposal density.

        Returns ``(chosen frozenset of sets, target weight, proposal
        probability)`` or ``None`` when the greedy walk dead-ends (such
        samples simply carry zero weight).
        """
        rng = self._rng
        remaining = set(self.references)
        chosen = []
        proposal = 1.0
        target = 1.0
        while remaining:
            pivot = min(
                remaining, key=lambda r: (len(self._containing[r]), repr(r))
            )
            options = [
                s for s in self._containing[pivot]
                if s <= remaining and self.potentials[s] > 0.0
            ]
            if not options:
                return None
            weights = [self.potentials[s] for s in options]
            total = sum(weights)
            pick = rng.random() * total
            cumulative = 0.0
            selected = options[-1]
            for s, w in zip(options, weights):
                cumulative += w
                if pick <= cumulative:
                    selected = s
                    break
            proposal *= self.potentials[selected] / total
            target *= self.potentials[selected] ** len(selected)
            chosen.append(selected)
            remaining -= selected
        return frozenset(chosen), target, proposal

    def _ensure_samples(self) -> None:
        if self._samples is not None:
            return
        samples = []
        for _ in range(self.num_samples):
            draw = self._draw_cover()
            if draw is None:
                continue
            chosen, target, proposal = draw
            samples.append((chosen, target / proposal))
        if not samples:
            raise ModelError(
                "sampler failed to draw any exact cover; the component may "
                "have no positive-probability configuration"
            )
        self._samples = samples

    # ------------------------------------------------------------------

    def weighted_samples(self) -> tuple:
        """``(chosen sets, weights, denominator)`` of the drawn samples,
        the denominator being the weights' running total: what
        :meth:`existence_marginal` divides by."""
        self._ensure_samples()
        denominator = 0.0
        for _, weight in self._samples:
            denominator += weight
        return (
            [chosen for chosen, _ in self._samples],
            [weight for _, weight in self._samples],
            denominator,
        )

    def existence_marginal(self, entities: Iterable[FrozenSet]) -> float:
        """Estimated ``Pr(all of `entities` chosen)`` (self-normalized)."""
        required = {frozenset(e) for e in entities}
        unknown = [e for e in required if e not in self.potentials]
        if unknown:
            raise ModelError(
                f"entities {sorted(map(sorted, unknown))} are not candidate "
                "sets of this component"
            )
        self._ensure_samples()
        numerator = 0.0
        denominator = 0.0
        for chosen, weight in self._samples:
            denominator += weight
            if required <= chosen:
                numerator += weight
        if denominator <= 0.0:
            raise ModelError("all sampler weights are zero")
        return numerator / denominator

    def existence_probability(self, entity: FrozenSet) -> float:
        """Estimated single-entity marginal."""
        return self.existence_marginal([entity])
