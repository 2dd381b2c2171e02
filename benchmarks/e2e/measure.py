"""Small measurement helpers shared by the runner, the comparison and tests."""

from __future__ import annotations

import collections
import math
import os
import platform
import resource
import statistics


def percentile(samples, q: float, timings_per_sample: int = 1) -> float:
    """Nearest-rank ``q``-th percentile of ``samples``.

    Refuses a percentile with fewer than ten timings beyond it: such a
    value is one or two outliers, not a property of the distribution.
    ``timings_per_sample`` says how many raw timings each sample was
    reduced from (the fastest of that many passes).
    """
    count = len(samples)
    if count * timings_per_sample * (100.0 - q) / 100.0 < 10.0:
        raise ValueError(
            f"p{q:g} of {count} x {timings_per_sample} timings has fewer "
            "than ten beyond it"
        )
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(count * q / 100.0) - 1)]


def median(samples) -> float:
    """Median, 0.0 for an empty list (a layer the run did not reach)."""
    return statistics.median(samples) if samples else 0.0


def mean(samples) -> float:
    return sum(samples) / len(samples) if samples else 0.0


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def peak_rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    """Peak resident set size in MiB (Linux reports ``ru_maxrss`` in KiB)."""
    return resource.getrusage(who).ru_maxrss / 1024.0


def match_digest(matches) -> collections.Counter:
    """Order-free digest of a match list: nodes, edges, 9-digit probability."""
    return collections.Counter(
        (match.nodes, match.edges, round(match.probability, 9))
        for match in matches
    )


def environment(seed: int) -> dict:
    """What a number was measured on; written into every output file."""
    import numpy

    import repro

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "repro": repro.__version__,
        "seed": seed,
    }
