"""Checker registry: every invariant checker the runner knows about."""

from repro.analysis.checkers.cache_keys import CacheKeyChecker
from repro.analysis.checkers.determinism import DeterminismChecker
from repro.analysis.checkers.error_taxonomy import ErrorTaxonomyChecker
from repro.analysis.checkers.float_equality import FloatEqualityChecker
from repro.analysis.checkers.locking import LockDisciplineChecker
from repro.analysis.checkers.shims import DeadShimChecker
from repro.analysis.flow import (
    ErrorEscapeChecker,
    LockFlowChecker,
    TransitiveBlockingChecker,
)

__all__ = [
    "CacheKeyChecker",
    "DeadShimChecker",
    "DeterminismChecker",
    "ErrorEscapeChecker",
    "ErrorTaxonomyChecker",
    "FloatEqualityChecker",
    "LockDisciplineChecker",
    "LockFlowChecker",
    "TransitiveBlockingChecker",
    "all_checkers",
]


def all_checkers() -> list:
    """One fresh instance of every registered checker."""
    return [
        DeterminismChecker(),
        LockDisciplineChecker(),
        CacheKeyChecker(),
        ErrorTaxonomyChecker(),
        FloatEqualityChecker(),
        DeadShimChecker(),
        LockFlowChecker(),
        TransitiveBlockingChecker(),
        ErrorEscapeChecker(),
    ]
