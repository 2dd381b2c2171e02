"""Live updates — absorbing PEG mutations without an offline rebuild.

The paper's offline/online split assumes a frozen probabilistic entity
graph; production graphs are not frozen. This package lets a running
:class:`~repro.query.engine.QueryEngine` (and the
:class:`~repro.service.QueryService` above it) absorb typed mutations —
new references, linkage-probability revisions, entity merges — while
staying queryable and exact:

* :mod:`repro.delta.ops` — the typed operations (``add_entity``,
  ``add_edge``, ``update_label_probability``,
  ``update_edge_distribution``, ``merge_entities``),
* :mod:`repro.delta.log` — the append-only
  :class:`~repro.delta.log.MutationLog` on
  :class:`~repro.storage.recordlog.RecordLog`, replayable idempotently,
* :mod:`repro.delta.mutate` — op application and dirty-node tracking.

The index keeps itself exact through mutations: the engine's one
:class:`~repro.index.path_index.PathIndex` absorbs each batch's dirty
nodes into its own live state
(:meth:`~repro.index.path_index.PathIndex.absorb`) and folds it back
into its store on :meth:`~repro.index.path_index.PathIndex.compact`.

:func:`apply_mutations` is the engine-level entry point; it bumps the
engine's ``graph_version`` so the serving layer's caches invalidate
themselves (the version is part of every request key). A batch costs
what it touches: the index enumerates only the paths through the
nodes the batch dirtied, and the context recomputes only the rows
within one hop of them.
"""

from __future__ import annotations

from repro.delta.log import LoggedOp, MutationLog
from repro.delta.mutate import apply_op, resolve_entity_id
from repro.delta.ops import (
    OP_TYPES,
    AddEdge,
    AddEntity,
    MergeEntities,
    UpdateEdgeDistribution,
    UpdateLabelProbability,
    op_from_json,
    op_to_json,
)
from repro.index.context import patch_context
from repro.obs.metrics import get_registry
from repro.obs.timing import Timer

_APPLY_SECONDS = get_registry().histogram("repro_delta_apply_seconds")
_OPS_APPLIED = get_registry().counter("repro_delta_ops_applied_total")

__all__ = [
    "AddEdge",
    "AddEntity",
    "LoggedOp",
    "MergeEntities",
    "MutationLog",
    "OP_TYPES",
    "UpdateEdgeDistribution",
    "UpdateLabelProbability",
    "apply_mutations",
    "apply_op",
    "op_from_json",
    "op_to_json",
    "resolve_entity_id",
]


def apply_mutations(engine, ops, log: MutationLog | None = None) -> dict:
    """Apply a batch of mutations to a live engine; returns a summary.

    ``ops`` may mix plain operations and :class:`LoggedOp` entries
    (e.g. from :meth:`MutationLog.replay`); logged entries at or below
    the engine's ``applied_mutation_seq`` high-water mark are skipped,
    which is what makes replay idempotent. When ``log`` is given, every
    *plain* op is appended to it immediately after it applies
    successfully — a rejected op is never logged, so a replay of the
    log cannot re-fail at it and strand the entries behind it;
    already-logged entries are not re-logged.

    On success the engine's index absorbs the dirtied nodes
    (:meth:`~repro.index.path_index.PathIndex.absorb`), its context is
    replaced by one patched for the batch
    (:func:`~repro.index.context.patch_context`), and ``graph_version``
    is bumped — exactly once per batch; the caches of what the engine
    derives from the PEG (results, link structures) are keyed by that
    version, and probability arrays are views of the graph's own
    columns, which the ops patched. Plans are not: they depend on the
    histograms, which only compaction rewrites. If an op
    fails midway, the dirtied prefix is still absorbed and the version
    still bumped (the PEG has changed), then the error propagates.

    The summary's ``enumerated_paths`` is what the batch cost the
    index (directed partial paths expanded), ``delta_paths`` what its
    delta holds after it.
    """
    with Timer() as timer:
        summary = _apply_mutations(engine, ops, log)
    _APPLY_SECONDS.observe(timer.elapsed)
    _OPS_APPLIED.inc(summary["applied"])
    return summary


def _apply_mutations(engine, ops, log) -> dict:
    applied = 0
    skipped = 0
    dirty: set = set()
    error = None
    for entry in ops:
        if isinstance(entry, LoggedOp):
            if entry.seq <= engine.applied_mutation_seq:
                skipped += 1
                continue
            op, seq = entry.op, entry.seq
        else:
            op, seq = entry, None
        try:
            dirty |= apply_op(engine.peg, op)
        except Exception as exc:
            error = exc
            break
        applied += 1
        if seq is None and log is not None:
            seq = log.append(op)
        if seq is not None:
            engine.applied_mutation_seq = max(
                engine.applied_mutation_seq, seq
            )
    if log is not None:
        log.flush()
    if dirty:
        engine.index.absorb(engine.peg, dirty)
        engine.context = patch_context(engine.context, engine.peg, dirty)
        engine.graph_version += 1
    if error is not None:
        raise error
    return {
        "applied": applied,
        "skipped": skipped,
        "dirty_nodes": len(dirty),
        "enumerated_paths": engine.index.enumerated_paths if dirty else 0,
        "delta_paths": engine.index.delta_path_count(),
        "graph_version": engine.graph_version,
    }
