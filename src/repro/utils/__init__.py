"""Shared infrastructure: errors, RNG plumbing, timing, validation helpers."""

from repro.utils.errors import (
    ReproError,
    ModelError,
    StorageError,
    IndexError_,
    QueryError,
)
from repro.utils.rng import ensure_rng, spawn_rngs
from repro.obs.timing import Timer
from repro.utils.validation import (
    check_probability,
    check_distribution,
    check_positive,
    check_non_negative,
)

__all__ = [
    "ReproError",
    "ModelError",
    "StorageError",
    "IndexError_",
    "QueryError",
    "ensure_rng",
    "spawn_rngs",
    "Timer",
    "check_probability",
    "check_distribution",
    "check_positive",
    "check_non_negative",
]
