"""The probability bucket grid ``{β, β+γ, ..., 1}`` (Section 5.1).

Buckets are named by their lower grid point in milli-units. Whatever
places a probability on the grid — the writer filing paths, a lookup
choosing where its range scan starts, the caches that share entries
inside one milli-bucket — goes through :func:`milli` and
:class:`BucketGrid`, so no two of them can disagree by a rounding rule.
"""

from __future__ import annotations

from bisect import bisect_right

import numpy as np

from repro.index.histogram import CardinalityHistogram
from repro.utils.errors import IndexError_


def milli(probability: float) -> int:
    """Probability in milli-units — THE rounding rule of the bucket grid.

    Mixing rules broke grid boundaries: ``round`` maps the float ``0.7``
    (repr ``0.6999999...``) to 700 while truncation maps it to 699, so a
    builder and a reader disagreeing by one rule put (or look for)
    boundary probabilities one bucket low. Any single monotone rule is
    sound — lookups re-filter decoded paths against the exact float
    threshold — and ``round`` keeps human-entered grid parameters like
    ``beta=0.7`` on the buckets they name.
    """
    return int(round(probability * 1000))


class BucketGrid:
    """The grid points of one ``(β, γ)``, ascending, always ending in 1000."""

    def __init__(self, beta: float, gamma: float) -> None:
        start = milli(beta)
        if start > 1000:
            raise IndexError_(f"beta must be in (0, 1], got {beta}")
        points = list(range(start, 1001, max(1, milli(gamma))))
        if points[-1] != 1000:
            points.append(1000)
        self.beta = beta
        self.points = tuple(points)
        self._points = np.asarray(points, dtype=np.int64)

    def bucket_of(self, probability: float) -> int:
        """The largest grid point not exceeding ``probability``: where a
        lookup's range scan starts (nothing is filed below β, so a
        threshold there is a typed error, not a scan from the bottom)."""
        below = bisect_right(self.points, milli(probability)) - 1
        if below < 0:
            raise IndexError_(
                f"probability {probability} below index lower bound {self.beta}"
            )
        return self.points[below]

    def buckets_of(self, probabilities: np.ndarray) -> np.ndarray:
        """:meth:`bucket_of` of every element, for the writer: its rows
        passed the β-prune, so one that still rounds below the grid goes
        in the lowest bucket (``np.rint`` rounds halves to even exactly
        as ``round`` does)."""
        rounded = np.rint(probabilities * 1000).astype(np.int64)
        below = np.searchsorted(self._points, rounded, side="right") - 1
        return self._points[np.maximum(below, 0)]

    def histogram(self, bucket_counts: dict) -> CardinalityHistogram:
        """The cumulative histogram of one sequence's per-bucket counts."""
        return CardinalityHistogram.from_bucket_counts(
            [point / 1000.0 for point in self.points],
            [bucket_counts.get(point, 0) for point in self.points],
        )
