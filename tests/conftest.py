"""Shared fixtures: the paper's motivating example and small random PEGs.

With ``REPRO_SANITIZE=1`` this also arms the runtime concurrency
sanitizer *before* any test constructs repro objects: every repro lock
becomes a :class:`~repro.testing.sanitizer.SanitizedLock`, the classes
with ``# guarded-by:`` annotations get Eraser-style lockset checking,
and an autouse fixture fails any test that accumulated violations.
"""

from __future__ import annotations

import itertools
import math
import os
import random

import pytest

from repro.datasets import SyntheticConfig, generate_synthetic_pgd
from repro.peg import build_peg
from repro.pgd import pgd_from_edge_list
from repro.testing import sanitizer

if sanitizer.install_from_env():
    # Import *after* install so the classes' future instances pick up
    # sanitized guard locks the lockset checker can observe.
    from repro.net.client import CircuitBreaker

    sanitizer.instrument_guarded(CircuitBreaker)


@pytest.fixture(autouse=True)
def _sanitizer_clean():
    """Every test fails if it left concurrency violations behind."""
    yield
    if sanitizer.installed() and os.environ.get("REPRO_SANITIZE") == "1":
        sanitizer.assert_clean()


@pytest.fixture
def figure1_pgd():
    """The Figure-1 reference network of the paper's Section 2."""
    return pgd_from_edge_list(
        node_labels={
            "r1": {"r": 0.25, "i": 0.75},
            "r2": "a",
            "r3": "r",
            "r4": "i",
        },
        edges=[
            ("r1", "r2", 0.9),
            ("r2", "r3", 1.0),
            ("r2", "r4", 0.5),
            ("r1", "r4", 1.0),
        ],
        reference_sets=[(("r3", "r4"), 0.8)],
    )


@pytest.fixture
def figure1_peg(figure1_pgd):
    return build_peg(figure1_pgd)


@pytest.fixture(params=[None, 2], ids=["one-block", "2-row-blocks"])
def row_budget(request, monkeypatch):
    """Matcher differentials run twice: as shipped, and with every
    frontier level expanded in 2-row blocks — the bounded-memory path
    of :mod:`repro.query.matcher` must change nothing."""
    if request.param is not None:
        monkeypatch.setattr(
            "repro.query.matcher._FRONTIER_ROW_BUDGET", request.param
        )
    return request.param


def small_random_peg(
    seed: int,
    num_references: int = 60,
    uncertainty: float = 0.4,
    exact_component_limit: int = 16,
):
    """A small synthetic PEG for oracle comparisons (identity components
    past ``exact_component_limit`` references are sampled)."""
    config = SyntheticConfig(
        num_references=num_references,
        edges_per_node=2,
        num_labels=3,
        uncertainty=uncertainty,
        groups=3,
        seed=seed,
    )
    return build_peg(
        generate_synthetic_pgd(config),
        exact_component_limit=exact_component_limit,
    )


def sampled_component_peg():
    """A small PEG whose multi-entity identity components are all
    sampled: their joint marginals come from a ``ComponentSampler``."""
    peg = small_random_peg(1, uncertainty=0.6, exact_component_limit=2)
    assert not any(
        component.is_exact for component in peg.components
        if len(component.entities) > 1
    )
    return peg


def random_component(seed: int, max_references: int = 6):
    """A random identity component ``(references, set potentials)``:
    every singleton (positive, so a cover always exists) plus up to one
    multi-reference set per reference, about one in six of those with a
    zero potential."""
    rng = random.Random(seed)
    references = [f"r{i}" for i in range(rng.randint(1, max_references))]
    potentials = {
        frozenset((ref,)): rng.uniform(0.05, 1.0) for ref in references
    }
    if len(references) > 1:
        for _ in range(rng.randint(0, len(references))):
            size = rng.randint(2, min(3, len(references)))
            potentials[frozenset(rng.sample(references, size))] = (
                0.0 if rng.random() < 0.15 else rng.uniform(0.05, 1.0)
            )
    return references, potentials


def brute_force_covers(references, potentials) -> dict:
    """``Pr(S.n)`` from its definition: every assignment of the ``s.n``
    variables is kept when each reference lies in exactly one chosen set
    (Eq. 1), weighted ``prod p_s^|s|`` and normalized (Eq. 7).
    Returns ``{chosen sets: probability}`` over the positive-weight
    assignments."""
    sets = list(potentials)
    weights = {}
    for mask in itertools.product((False, True), repeat=len(sets)):
        chosen = [s for s, on in zip(sets, mask) if on]
        if sorted(r for s in chosen for r in s) != sorted(references):
            continue
        weight = math.prod(potentials[s] ** len(s) for s in chosen)
        if weight > 0.0:
            weights[frozenset(chosen)] = weight
    total = sum(weights.values())
    return {chosen: weight / total for chosen, weight in weights.items()}


def store_content(store) -> dict:
    """Everything a path store holds: ``{sequence: [(bucket, bytes)]}``."""
    return {
        seq: [(bucket, bytes(p)) for bucket, p in store.scan_buckets(seq, 0)]
        for seq in store.label_sequences()
    }


def write_format5_bundle(peg, directory: str, **build) -> None:
    """Lay out a bundle as format 5 wrote a two-shard index: the stores
    under ``shard-00/`` and ``shard-01/``, no store at the root, and an
    ``offline.meta`` saying ``version: 5, num_shards: 2``."""
    import pickle

    from repro.query import QueryEngine
    from repro.storage.kvstore import DISK_STORE_FILENAMES, DiskPathStore

    QueryEngine(peg, **build).save_offline(directory)
    for shard in ("shard-00", "shard-01"):
        os.makedirs(os.path.join(directory, shard))
    for name in DISK_STORE_FILENAMES:
        os.replace(
            os.path.join(directory, name),
            os.path.join(directory, "shard-00", name),
        )
    DiskPathStore(os.path.join(directory, "shard-01")).close()
    meta_path = os.path.join(directory, "offline.meta")
    with open(meta_path, "rb") as handle:
        meta = pickle.load(handle)
    meta.update(version=5, num_shards=2)
    with open(meta_path, "wb") as handle:
        pickle.dump(meta, handle)


@pytest.fixture
def random_peg():
    return small_random_peg(seed=42)
