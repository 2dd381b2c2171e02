"""Live-update subsystem: mutation log, the live index, versioned caches."""

from __future__ import annotations

import os
import random

import numpy as np
import pytest

from repro.delta import (
    AddEdge,
    AddEntity,
    MergeEntities,
    MutationLog,
    UpdateEdgeDistribution,
    UpdateLabelProbability,
    apply_mutations,
    op_from_json,
    op_to_json,
)
from repro.datasets import SyntheticConfig, generate_synthetic_pgd, random_query
from repro.index.protocol import store_read_totals
from repro.pgd import BernoulliEdge, ConditionalEdge, pgd_from_edge_list
from repro.peg import build_peg
from repro.query import QueryEngine, QueryGraph, QueryOptions
from repro.service import QueryService
from repro.storage import DiskPathStore
from repro.utils.errors import DeltaError, IndexError_, ServiceError
from tests.conftest import small_random_peg, store_content
from tests.test_differential_random import (
    assert_delta_equivalence,
    bucket_records,
)


def match_keys(matches):
    return sorted(
        (m.nodes, m.edges, round(m.probability, 9)) for m in matches
    )


def path_keys(paths):
    return sorted((p.nodes, round(p.prle, 12), round(p.prn, 12)) for p in paths)


def all_sequences(engine_a, engine_b):
    """Union of canonical sequences both indexes hold stored paths of."""
    return set(engine_a.index.histograms) | set(engine_b.index.histograms)


def assert_index_agrees(engine, rebuilt, alphas=(0.1, 0.3, 0.6)):
    """Live lookups must equal a from-scratch rebuild, sequence by
    sequence."""
    for seq in all_sequences(engine, rebuilt):
        for alpha in alphas:
            got = path_keys(engine.index.lookup_canonical(seq, alpha))
            want = path_keys(rebuilt.index.lookup_canonical(seq, alpha))
            assert got == want, (seq, alpha)


def singleton_ids(peg):
    """Live node ids whose identity component has exactly one entity."""
    return [
        node
        for node in peg.node_ids()
        if not peg.is_removed_id(node)
        and len(peg.component_of(peg.entity_of(node)).entities) == 1
    ]


def refs(peg, node_id):
    return tuple(sorted(peg.entity_of(node_id), key=repr))


@pytest.fixture
def peg():
    return small_random_peg(seed=1234, num_references=40)


@pytest.fixture
def engine(peg):
    return QueryEngine(peg, max_length=2, beta=0.05)


class TestMutationOps:
    def test_json_round_trip(self):
        ops = [
            AddEntity(("x", "y"), {"A": 0.6, "B": 0.4}, 0.9),
            AddEdge(("x",), ("y",), BernoulliEdge(0.8)),
            UpdateLabelProbability(("x",), {"A": 1.0}),
            UpdateEdgeDistribution(
                ("x",), ("y",),
                ConditionalEdge({("A", "B"): 0.7}, default=0.1),
            ),
            MergeEntities(("x",), ("y",), {"A": 1.0}, 0.5),
            MergeEntities(("x",), ("y",)),
        ]
        for op in ops:
            assert op_from_json(op_to_json(op)) == op

    def test_malformed_specs_rejected(self):
        with pytest.raises(DeltaError):
            op_from_json({"op": "no_such_op"})
        with pytest.raises(DeltaError):
            op_from_json({"nodes": {}})
        with pytest.raises(DeltaError):
            op_from_json({"op": "add_entity", "refs": [1]})
        with pytest.raises(DeltaError):
            op_from_json(
                {"op": "add_edge", "refs_a": [1], "refs_b": [2],
                 "edge": "high"}
            )


class TestMutationLog:
    def test_append_replay_and_reopen(self, tmp_path):
        path = str(tmp_path / "mutations.log")
        ops = [
            AddEntity(("f1",), {"A": 1.0}),
            UpdateLabelProbability(("f1",), {"A": 0.5, "B": 0.5}),
        ]
        with MutationLog(path) as log:
            assert log.append_all(ops) == [0, 1]
            assert len(log) == 2
        with MutationLog(path) as log:
            assert len(log) == 2
            entries = log.replay()
            assert [e.seq for e in entries] == [0, 1]
            assert [e.op for e in entries] == ops
            assert log.append(ops[0]) == 2
            assert [e.seq for e in log.replay(after=1)] == [2]

    def test_torn_tail_recovery(self, tmp_path):
        """A crash mid-append must not poison replay on reopen."""
        path = str(tmp_path / "mutations.log")
        ops = [
            AddEntity(("f1",), {"A": 1.0}),
            UpdateLabelProbability(("f1",), {"A": 0.5, "B": 0.5}),
        ]
        with MutationLog(path) as log:
            log.append_all(ops)
        # Simulate the crash: a record header without its payload.
        with open(path, "ab") as handle:
            handle.write(b"\x00\x00\x01\x00" + b"partial")
        with MutationLog(path) as log:
            assert log.truncated is True
            assert len(log) == 2
            entries = log.replay()  # terminates cleanly, no raise
            assert [e.op for e in entries] == ops
            # the torn bytes were truncated away, so appends continue
            # the sequence on a well-formed log
            assert log.append(ops[0]) == 2
        with MutationLog(path) as log:
            assert log.truncated is False
            assert [e.seq for e in log.replay()] == [0, 1, 2]

    def test_a_batch_is_synced_before_apply_returns(
        self, tmp_path, peg, engine, monkeypatch
    ):
        """``flush`` is flush + ``fsync``: what ``apply_mutations``
        returned from is on disk, whole, without a ``close``."""
        path = str(tmp_path / "mutations.log")
        sigma = sorted(peg.sigma, key=repr)
        synced = []
        fsync = os.fsync

        def recording_fsync(fd):
            synced.append(os.fstat(fd).st_size)
            fsync(fd)

        monkeypatch.setattr(os, "fsync", recording_fsync)
        log = MutationLog(path)
        ops = [
            AddEntity(("sync-1",), {sigma[0]: 1.0}, 0.9),
            AddEntity(("sync-2",), {sigma[0]: 1.0}, 0.9),
        ]
        apply_mutations(engine, ops, log=log)
        assert synced == [os.path.getsize(path)] and synced[0] > 0
        with MutationLog(path) as reader:  # the writer is still open
            assert [entry.op for entry in reader.replay()] == ops
        log.close()

    def test_clean_log_not_flagged_truncated(self, tmp_path):
        path = str(tmp_path / "mutations.log")
        with MutationLog(path) as log:
            log.append(AddEntity(("f1",), {"A": 1.0}))
        with MutationLog(path) as log:
            assert log.truncated is False

    def test_replay_is_idempotent(self, tmp_path, peg, engine):
        sigma = sorted(peg.sigma, key=repr)
        anchor = singleton_ids(peg)[0]
        log = MutationLog(str(tmp_path / "mutations.log"))
        ops = [
            AddEntity(("fresh-a",), {sigma[0]: 1.0}, 0.9),
            AddEdge(refs(peg, anchor), ("fresh-a",), BernoulliEdge(0.7)),
        ]
        summary = apply_mutations(engine, ops, log=log)
        assert summary["applied"] == 2
        assert engine.graph_version == 1
        assert engine.applied_mutation_seq == 1
        before = {
            seq: path_keys(engine.index.lookup_canonical(seq, 0.1))
            for seq in engine.index.histograms
        }

        # Replaying the whole log over the same engine applies nothing.
        replayed = apply_mutations(engine, log.replay())
        assert replayed["applied"] == 0
        assert replayed["skipped"] == 2
        assert engine.graph_version == 1
        for seq, want in before.items():
            assert path_keys(engine.index.lookup_canonical(seq, 0.1)) == want

        # A cold engine over the same (already mutated) PEG replays the
        # log as a no-op too: its graph already contains the changes,
        # so replay must be guarded by the high-water mark, which a
        # warm-started engine restores by applying the log exactly once.
        log.close()


def pristine_engine():
    """An engine over the unmutated ``peg`` fixture graph: node ids are
    positional, so its lookups are what the fixture's index served
    before any batch."""
    return QueryEngine(
        small_random_peg(seed=1234, num_references=40),
        max_length=2, beta=0.05,
    )


class TestOverlayLookup:
    def test_clean_index_has_no_live_state(self, engine):
        """A built index is clean, and compacting it is a no-op that
        re-keys no plan."""
        index = engine.index
        assert index.dirty_nodes == frozenset()
        assert index.delta_path_count() == 0
        stats = index.stats()
        assert stats["dirty_nodes"] == 0
        assert stats["delta_sequences"] == stats["delta_paths"] == 0
        assert engine.compact_updates() == {
            "sequences_rewritten": 0, "paths_dropped": 0, "paths_added": 0,
        }
        assert index.histogram_epoch == 0 and engine.index is index

    def test_clean_sequences_keep_base_results(self, peg, engine):
        """Paths that avoid dirty nodes are served verbatim from the
        store."""
        base = engine.index
        base_content = {
            seq: path_keys(base.lookup_canonical(seq, 0.1))
            for seq in base.histograms
        }
        sigma = sorted(peg.sigma, key=repr)
        engine.apply_updates(
            [AddEntity(("island",), {sigma[0]: 1.0}, 0.8)]
        )
        index = engine.index
        assert index is base
        (island_id,) = index.dirty_nodes
        for seq, want in base_content.items():
            got = index.lookup_canonical(seq, 0.1)
            kept = [p for p in want if island_id not in p[0]]
            extra = [k for k in path_keys(got) if island_id in k[0]]
            assert sorted(set(path_keys(got)) - set(extra)) == kept

    def test_order_is_kept_base_rows_then_sorted_delta_rows(self, peg, engine):
        """Downstream stages are order-sensitive: surviving stored rows
        keep the store's order, delta rows follow by decreasing
        probability (ties by node ids)."""
        sigma = sorted(peg.sigma, key=repr)
        anchor = singleton_ids(peg)[0]
        pristine = pristine_engine()
        engine.apply_updates([
            AddEntity(("fresh",), {sigma[0]: 0.6, sigma[1]: 0.4}, 0.9),
            AddEdge(refs(peg, anchor), ("fresh",), BernoulliEdge(0.8)),
        ])
        index = engine.index
        dirty = index.dirty_nodes
        masked = added = 0
        for seq in all_sequences(engine, engine) | set(index._delta):
            for alpha in (0.1, 0.3):
                got = list(index.lookup_canonical(seq, alpha))
                base = list(pristine.index.lookup_canonical(seq, alpha))
                kept = [p for p in base if dirty.isdisjoint(p.nodes)]
                tail = got[len(kept):]
                assert got[:len(kept)] == kept
                assert all(not dirty.isdisjoint(p.nodes) for p in tail)
                assert all(p.probability >= alpha for p in tail)
                assert tail == sorted(
                    tail, key=lambda p: (-p.probability, p.nodes)
                )
                masked += len(base) - len(kept)
                added += len(tail)
        assert masked and added

    def test_estimate_ignores_the_delta(self, peg, engine):
        """A batch that adds paths above alpha leaves the estimate where
        it was: absorbs move no estimate (and hence no plan)."""
        sigma = sorted(peg.sigma, key=repr)
        anchor = singleton_ids(peg)[0]
        label = sigma[0]
        seq = (label,)
        before = engine.index.estimate_cardinality(seq, 0.9)
        engine.apply_updates([
            AddEntity(("fresh-b",), {label: 1.0}, 1.0),
            AddEdge(refs(peg, anchor), ("fresh-b",), BernoulliEdge(1.0)),
        ])
        assert len(engine.index._delta[seq].above(0.9)) >= 1
        assert engine.index.estimate_cardinality(seq, 0.9) == before


class TestApplyAndCompact:
    def test_each_op_kind_matches_rebuild(self, peg, engine):
        sigma = sorted(peg.sigma, key=repr)
        ids = singleton_ids(peg)
        a, b = ids[0], ids[1]
        # A pair without an existing edge, for add_edge.
        c = next(
            i for i in ids[2:]
            if a not in peg.neighbor_ids(i) and i != a
        )
        existing_edge = next(
            (i, j) for i in ids for j in peg.neighbor_ids(i) if i < j
        )
        ops = [
            AddEntity(("n-1",), {sigma[0]: 0.6, sigma[1]: 0.4}, 0.9),
            AddEdge(refs(peg, a), ("n-1",), BernoulliEdge(0.75)),
            UpdateLabelProbability(refs(peg, b), {sigma[1]: 1.0}),
            UpdateEdgeDistribution(
                refs(peg, existing_edge[0]),
                refs(peg, existing_edge[1]),
                BernoulliEdge(0.2),
            ),
            MergeEntities(refs(peg, a), refs(peg, c)),
        ]
        summary = engine.apply_updates(ops)
        assert summary["applied"] == len(ops)
        assert summary["graph_version"] == 1

        rebuilt = QueryEngine(peg, max_length=2, beta=0.05)
        assert_index_agrees(engine, rebuilt)
        stats = engine.compact_updates()
        assert stats["sequences_rewritten"] > 0
        assert engine.index.dirty_nodes == frozenset()
        assert_index_agrees(engine, rebuilt)
        # Histograms trued up: path counts match the rebuild exactly.
        assert engine.index.num_paths() == rebuilt.index.num_paths()

    def test_disk_overlay_equals_memory(self, tmp_path):
        """The live state cannot tell a disk store from an in-memory
        one: same introspection before compaction, same store content
        after — and compaction's ``store.flush()`` reaches disk."""
        plain_peg = small_random_peg(seed=1234, num_references=40)
        disk_peg = small_random_peg(seed=1234, num_references=40)
        plain = QueryEngine(plain_peg, max_length=2, beta=0.05)
        disk = QueryEngine(
            disk_peg, max_length=2, beta=0.05,
            store=DiskPathStore(str(tmp_path)),
        )
        sigma = sorted(plain_peg.sigma, key=repr)
        anchor = refs(plain_peg, singleton_ids(plain_peg)[0])
        stored_sequences = disk.index.num_sequences()
        for engine in (plain, disk):
            engine.apply_updates([
                AddEntity(("s-1",), {sigma[0]: 0.6, "fresh-label": 0.4}, 0.9),
                AddEdge(anchor, ("s-1",), BernoulliEdge(0.8)),
            ])
        assert disk.index.num_sequences() == plain.index.num_sequences()
        assert disk.index.num_sequences() > stored_sequences
        assert disk.index.num_paths() == plain.index.num_paths()

        def comparable(stats):
            return {k: v for k, v in stats.items() if k != "build_seconds"}

        plain_stats = comparable(plain.index.stats())
        disk_stats = comparable(disk.index.stats())
        # Disk and memory stores measure their footprint differently.
        assert disk_stats.pop("size_bytes") > 0
        plain_stats.pop("size_bytes")
        assert disk_stats == plain_stats

        assert disk.compact_updates() == plain.compact_updates()
        assert_index_agrees(disk, plain)

        with DiskPathStore(str(tmp_path)) as reopened:
            assert store_content(reopened) == store_content(
                plain.index.store
            )
        disk.index.store.close()

    def test_stats_count_what_the_index_serves(self, peg, engine):
        """``stats()`` and ``offline_stats()`` report the live counts:
        after a batch that adds a sequence, the paths and sequences
        ``num_paths()`` / ``num_sequences()`` count, delta included."""
        sigma = sorted(peg.sigma, key=repr)
        anchor = refs(peg, singleton_ids(peg)[0])
        stored_sequences = engine.index.num_sequences()
        engine.apply_updates([
            AddEntity(("st-1",), {sigma[0]: 0.6, "stats-label": 0.4}, 0.9),
            AddEdge(anchor, ("st-1",), BernoulliEdge(0.8)),
        ])
        index = engine.index
        assert index.num_sequences() > stored_sequences
        for stats in (index.stats(), engine.offline_stats()):
            assert stats["paths"] == index.num_paths()
            assert stats["sequences"] == index.num_sequences()
            assert stats["delta_paths"] == index.delta_path_count() > 0
            assert stats["dirty_nodes"] == len(index.dirty_nodes)

    def test_one_index_object_through_batches_and_compaction(
        self, peg, engine
    ):
        """``engine.index`` is one object from the build through every
        batch and compaction; compaction leaves it clean, serving what
        a fresh build serves, and its store keeps counting reads."""
        sigma = sorted(peg.sigma, key=repr)
        a, b = singleton_ids(peg)[:2]
        index = engine.index
        engine.apply_updates([
            UpdateLabelProbability(refs(peg, a), {sigma[0]: 1.0}),
            AddEntity(("life-1",), {sigma[1]: 1.0}, 0.9),
            AddEdge(refs(peg, a), ("life-1",), BernoulliEdge(0.8)),
        ])
        assert engine.index is index and index.dirty_nodes
        assert_index_agrees(engine, QueryEngine(peg, max_length=2, beta=0.05))
        reads = store_read_totals(index)
        assert reads[0] > 0
        engine.compact_updates()
        assert engine.index is index
        assert index.dirty_nodes == frozenset()
        assert index.delta_path_count() == 0
        compacted = store_read_totals(index)
        assert compacted[0] >= reads[0] and compacted[1] >= reads[1]
        rebuilt = QueryEngine(peg, max_length=2, beta=0.05)
        assert_index_agrees(engine, rebuilt)
        assert store_read_totals(index)[0] > compacted[0]
        engine.apply_updates([
            UpdateLabelProbability(refs(peg, b), {sigma[1]: 1.0})
        ])
        assert engine.index is index and index.dirty_nodes == {b}

    def test_save_offline_requires_compaction(self, tmp_path, peg, engine):
        sigma = sorted(peg.sigma, key=repr)
        engine.apply_updates([AddEntity(("u-1",), {sigma[0]: 1.0})])
        with pytest.raises(IndexError_):
            engine.save_offline(str(tmp_path / "bundle"))
        engine.compact_updates()
        engine.save_offline(str(tmp_path / "bundle"))
        reopened = QueryEngine.from_saved(peg, str(tmp_path / "bundle"))
        assert_index_agrees(engine, reopened)

    def test_invalid_ops_rejected(self, peg, engine):
        sigma = sorted(peg.sigma, key=repr)
        anchor = singleton_ids(peg)[0]
        existing = refs(peg, anchor)
        with pytest.raises(DeltaError):
            engine.apply_updates(
                [UpdateLabelProbability(("nope",), {sigma[0]: 1.0})]
            )
        with pytest.raises(DeltaError):
            engine.apply_updates(
                [AddEntity(existing, {sigma[0]: 1.0})]
            )
        neighbor = peg.neighbor_ids(anchor)[0]
        with pytest.raises(DeltaError):
            engine.apply_updates(
                [AddEdge(existing, refs(peg, neighbor), BernoulliEdge(0.5))]
            )
        non_neighbor = next(
            i for i in singleton_ids(peg)
            if i != anchor and i not in peg.neighbor_ids(anchor)
        )
        with pytest.raises(DeltaError):
            engine.apply_updates([
                UpdateEdgeDistribution(
                    existing, refs(peg, non_neighbor), BernoulliEdge(0.5)
                )
            ])

    def test_merge_requires_singleton_components(self, peg, engine):
        shared = next(
            (
                node
                for node in peg.node_ids()
                if len(peg.component_of(peg.entity_of(node)).entities) > 1
            ),
            None,
        )
        assert shared is not None, "fixture should have uncertain components"
        other = singleton_ids(peg)[0]
        with pytest.raises(DeltaError):
            engine.apply_updates(
                [MergeEntities(refs(peg, shared), refs(peg, other))]
            )

    def test_merged_entity_cannot_be_mutated_again(self, peg, engine):
        sigma = sorted(peg.sigma, key=repr)
        ids = singleton_ids(peg)
        a, b = ids[0], ids[1]
        refs_a = refs(peg, a)
        engine.apply_updates([MergeEntities(refs_a, refs(peg, b))])
        with pytest.raises(DeltaError):
            engine.apply_updates(
                [UpdateLabelProbability(refs_a, {sigma[0]: 1.0})]
            )


class TestIncrementalAbsorb:
    """``absorb`` patches the delta and ``apply_mutations`` the context;
    after every batch both must equal their from-scratch oracles
    (:func:`assert_delta_equivalence`: the cumulative refresh, and
    ``build_context`` of the mutated graph)."""

    def rows_through(self, index, node):
        return sum(
            int((rows.nodes == node).any(axis=1).sum())
            for rows in index._delta.values()
        )

    def test_same_node_dirtied_in_two_batches(self, peg, engine):
        sigma = sorted(peg.sigma, key=repr)
        anchor = singleton_ids(peg)[0]
        first = engine.apply_updates([
            UpdateLabelProbability(refs(peg, anchor), {sigma[0]: 1.0})
        ])
        assert_delta_equivalence(engine, "first")
        assert first["delta_paths"] == self.rows_through(engine.index, anchor)
        second = engine.apply_updates([
            UpdateLabelProbability(
                refs(peg, anchor), {sigma[1]: 0.5, sigma[2]: 0.5}
            )
        ])
        assert_delta_equivalence(engine, "second")
        # The node's first-batch rows were replaced, not added to.
        assert second["delta_paths"] == self.rows_through(engine.index, anchor)
        assert engine.index.dirty_nodes == {anchor}
        assert (sigma[0],) not in engine.index._delta

    def test_merge_leaves_no_tombstoned_id_in_delta(self, peg, engine):
        sigma = sorted(peg.sigma, key=repr)
        a, b = singleton_ids(peg)[:2]
        refs_a, refs_b = refs(peg, a), refs(peg, b)
        engine.apply_updates([UpdateLabelProbability(refs_a, {sigma[0]: 1.0})])
        assert self.rows_through(engine.index, a) > 0
        summary = engine.apply_updates([MergeEntities(refs_a, refs_b)])
        assert_delta_equivalence(engine, "merge")
        merged = peg.id_of(frozenset(refs_a) | frozenset(refs_b))
        assert engine.index.dirty_nodes == {a, b, merged}
        assert self.rows_through(engine.index, a) == 0
        assert self.rows_through(engine.index, b) == 0
        assert summary["delta_paths"] == self.rows_through(
            engine.index, merged
        ) > 0

    def test_edge_between_entities_added_by_earlier_batches(self, peg, engine):
        sigma = sorted(peg.sigma, key=repr)
        anchor = refs(peg, singleton_ids(peg)[0])
        engine.apply_updates([
            AddEntity(("late-x",), {sigma[0]: 1.0}, 1.0),
            AddEdge(anchor, ("late-x",), BernoulliEdge(0.9)),
        ])
        assert_delta_equivalence(engine, "x")
        engine.apply_updates([AddEntity(("late-y",), {sigma[1]: 1.0}, 1.0)])
        assert_delta_equivalence(engine, "y")
        engine.apply_updates([
            AddEdge(("late-x",), ("late-y",), BernoulliEdge(0.9))
        ])
        assert_delta_equivalence(engine, "x-y")
        x = peg.id_of(frozenset(("late-x",)))
        y = peg.id_of(frozenset(("late-y",)))
        both = [
            tuple(row)
            for rows in engine.index._delta.values()
            for row in rows.nodes.tolist()
            if x in row and y in row
        ]
        # ... including a length-2 path that reaches back to the anchor.
        assert any(len(row) == 3 for row in both)

    def test_failed_batch_absorbs_its_prefix(self, peg, engine):
        sigma = sorted(peg.sigma, key=repr)
        anchor = refs(peg, singleton_ids(peg)[0])
        with pytest.raises(DeltaError):
            engine.apply_updates([
                AddEntity(("half-1",), {sigma[0]: 1.0}, 0.9),
                AddEdge(anchor, ("half-1",), BernoulliEdge(0.8)),
                UpdateLabelProbability(("missing",), {sigma[0]: 1.0}),
                AddEntity(("half-2",), {sigma[0]: 1.0}, 0.9),
            ])
        assert engine.graph_version == 1
        assert frozenset(("half-2",)) not in peg.entities
        assert_delta_equivalence(engine, "prefix")
        assert self.rows_through(
            engine.index, peg.id_of(frozenset(("half-1",)))
        ) > 0

    def test_label_outside_sigma_rebuilds_context(self, peg, engine):
        sigma = sorted(peg.sigma, key=repr)
        anchor = refs(peg, singleton_ids(peg)[0])
        before = engine.context
        engine.apply_updates([
            UpdateLabelProbability(anchor, {sigma[0]: 0.5, "novel": 0.5})
        ])
        assert "novel" in engine.context.sigma
        assert "novel" not in before.sigma  # the old version is untouched
        assert_delta_equivalence(engine, "sigma grows")
        engine.apply_updates([UpdateLabelProbability(anchor, {sigma[0]: 1.0})])
        assert "novel" not in engine.context.sigma
        assert_delta_equivalence(engine, "sigma shrinks")

    def test_patched_context_leaves_the_previous_version_alone(
        self, peg, engine
    ):
        sigma = sorted(peg.sigma, key=repr)
        anchor = singleton_ids(peg)[0]
        before = engine.context
        tables = [table.copy() for table in before.tables()]
        rows = tables[0].shape[0]
        engine.apply_updates([
            UpdateLabelProbability(refs(peg, anchor), {sigma[0]: 1.0}),
            AddEntity(("ctx-new",), {sigma[1]: 1.0}, 0.9),
            AddEdge(refs(peg, anchor), ("ctx-new",), BernoulliEdge(0.8)),
        ])
        assert engine.context is not before
        assert all(
            (now == then).all() for now, then in zip(before.tables(), tables)
        )
        assert all(
            table.shape[0] == rows + 1 for table in engine.context.tables()
        )
        assert_delta_equivalence(engine, "appended row")

    def test_first_absorb_after_compact_starts_from_an_empty_delta(
        self, peg, engine
    ):
        sigma = sorted(peg.sigma, key=repr)
        a, b = singleton_ids(peg)[:2]
        engine.apply_updates([
            UpdateLabelProbability(refs(peg, a), {sigma[0]: 1.0})
        ])
        engine.compact_updates()
        summary = engine.apply_updates([
            UpdateLabelProbability(refs(peg, b), {sigma[1]: 1.0})
        ])
        assert engine.index.dirty_nodes == {b}
        assert_delta_equivalence(engine, "after compact")
        assert summary["delta_paths"] == self.rows_through(engine.index, b)
        rebuilt = QueryEngine(peg, max_length=2, beta=0.05)
        assert_index_agrees(engine, rebuilt)

    def test_dirty_mask_sees_ids_batches_appended(self, peg, engine):
        """The dirty mask spans the id space as it stands after each
        batch: a batch dirtying an id it appended itself, after
        compaction one dirtying an id an earlier batch appended, and one
        appending to a live index are masked, absorbed and compacted
        as a rebuild files them."""
        sigma = sorted(peg.sigma, key=repr)
        anchor = refs(peg, singleton_ids(peg)[0])

        def assert_mask(index):
            assert index._dirty_mask.shape == (peg.columns.size,)
            assert np.flatnonzero(index._dirty_mask).tolist() == sorted(
                index.dirty_nodes
            )

        def assert_rebuilt(step):
            rebuilt = QueryEngine(peg, max_length=2, beta=0.05)
            assert_index_agrees(engine, rebuilt)
            if engine.index.dirty_nodes:
                assert_mask(engine.index)
                assert_delta_equivalence(engine, step)
            else:
                assert bucket_records(engine.index) == bucket_records(
                    rebuilt.index
                ), step
                assert engine.index.num_paths() == rebuilt.index.num_paths()

        engine.apply_updates([
            AddEntity(("mask-x",), {sigma[0]: 1.0}, 1.0),
            AddEdge(anchor, ("mask-x",), BernoulliEdge(0.9)),
        ])
        x = peg.id_of(frozenset(("mask-x",)))
        assert x == peg.columns.size - 1 and x in engine.index.dirty_nodes
        assert_rebuilt("appended by its own batch")
        engine.compact_updates()
        assert_rebuilt("compacted")
        engine.apply_updates([
            UpdateLabelProbability(("mask-x",), {sigma[1]: 1.0}),
            AddEntity(("mask-y",), {sigma[2]: 1.0}, 1.0),
            AddEdge(("mask-x",), ("mask-y",), BernoulliEdge(0.8)),
        ])
        assert x in engine.index.dirty_nodes
        assert_rebuilt("appended by the batch before compaction")
        index = engine.index
        engine.apply_updates([
            AddEntity(("mask-z",), {sigma[0]: 1.0}, 1.0),
            AddEdge(("mask-y",), ("mask-z",), BernoulliEdge(0.7)),
        ])
        assert engine.index is index
        assert_rebuilt("appended while the index was live")
        engine.compact_updates()
        assert_rebuilt("compacted twice")

    def chain_engine(self, length=9):
        """A path graph ``c0 - c1 - ... `` with certain labels: the
        ``L``-hop neighbourhoods of its two ends are disjoint once it
        is longer than ``2L + 2`` nodes."""
        names = [f"c{i}" for i in range(length)]
        pgd = pgd_from_edge_list(
            node_labels={name: "ab"[i % 2] for i, name in enumerate(names)},
            edges=[(a, b, 0.9) for a, b in zip(names, names[1:])],
        )
        return QueryEngine(build_peg(pgd), max_length=2, beta=0.05), names

    def test_kth_absorb_costs_what_the_kth_batch_touches(self):
        """``enumerated_paths`` is a count of work: the second absorb
        pays for its own batch's neighbourhood, not for the cumulative
        dirty set."""
        both, names = self.chain_engine()
        assert len(names) > 2 * both.max_length + 2
        head = UpdateLabelProbability((names[0],), {"a": 0.5, "b": 0.5})
        tail = UpdateLabelProbability((names[-1],), {"a": 0.5, "b": 0.5})
        first = both.apply_updates([head])
        second = both.apply_updates([tail])
        assert_delta_equivalence(both, "both ends")
        assert len(both.index.dirty_nodes) == 2

        alone, _ = self.chain_engine()
        only_tail = alone.apply_updates([tail])
        assert second["enumerated_paths"] == only_tail["enumerated_paths"]
        assert second["enumerated_paths"] < (
            first["enumerated_paths"] + only_tail["enumerated_paths"]
        )
        # One batch holding both ends pays for both neighbourhoods.
        at_once, _ = self.chain_engine()
        assert at_once.apply_updates([head, tail])["enumerated_paths"] == (
            first["enumerated_paths"] + only_tail["enumerated_paths"]
        )
        # ... and a longer chain costs the same: the count follows the
        # batch's neighbourhood, not the graph.
        longer, longer_names = self.chain_engine(length=30)
        assert longer.apply_updates([
            UpdateLabelProbability((longer_names[-1],), {"a": 0.5, "b": 0.5})
        ])["enumerated_paths"] == only_tail["enumerated_paths"]
        # A batch that applies nothing enumerates nothing.
        assert apply_mutations(both, [])["enumerated_paths"] == 0


class TestServiceVersioning:
    def test_cache_never_serves_pre_mutation_results(self, peg):
        engine = QueryEngine(peg, max_length=2, beta=0.05)
        sigma = sorted(peg.sigma, key=repr)
        query = QueryGraph({"a": sigma[0], "b": sigma[1]}, [("a", "b")])
        with QueryService(engine, num_workers=2) as service:
            before = service.query(query, 0.2)
            # Second call is a cache hit.
            assert service.query(query, 0.2) is before
            assert service.stats_snapshot()["hits"] == 1

            # Raise one endpoint label to certainty: match set changes.
            target = next(
                node
                for node in singleton_ids(peg)
                if peg.label_probability_id(node, sigma[0]) > 0.0
            )
            service.apply_updates(
                [UpdateLabelProbability(refs(peg, target), {sigma[0]: 1.0})]
            )
            after = service.query(query, 0.2)
            assert after is not before
            rebuilt = QueryEngine(peg, max_length=2, beta=0.05)
            assert match_keys(after.matches) == match_keys(
                rebuilt.query(query, 0.2).matches
            )

    def test_process_executor_rejects_live_updates(self, tmp_path, peg):
        snapshot = str(tmp_path / "bundle")
        service = QueryService.build(
            peg, max_length=1, beta=0.2, snapshot_dir=snapshot,
            executor="process", num_workers=1,
        )
        try:
            with pytest.raises(ServiceError):
                service.apply_updates([AddEntity(("p-1",), {"x": 1.0})])
        finally:
            service.close()

    def test_updates_visible_under_concurrent_load(self, peg):
        engine = QueryEngine(peg, max_length=2, beta=0.05)
        sigma = sorted(peg.sigma, key=repr)
        rng = random.Random(7)
        queries = [
            random_query(2, 1, sigma, seed=rng.randrange(2**31))
            for _ in range(6)
        ]
        with QueryService(engine, num_workers=4, cache_size=64) as service:
            futures = [service.submit(q, 0.2) for q in queries for _ in (0, 1)]
            target = singleton_ids(peg)[0]
            service.apply_updates(
                [UpdateLabelProbability(refs(peg, target), {sigma[0]: 1.0})]
            )
            for future in futures:
                future.result(timeout=30)
            rebuilt = QueryEngine(peg, max_length=2, beta=0.05)
            for query in queries:
                assert match_keys(service.query(query, 0.2).matches) == \
                    match_keys(rebuilt.query(query, 0.2).matches)


class TestReviewRegressions:
    def test_invalid_merge_existence_leaves_graph_untouched(self, peg, engine):
        """Validation must precede tombstoning (no half-applied merges)."""
        ids = singleton_ids(peg)
        a, b = ids[0], ids[1]
        with pytest.raises(DeltaError):
            engine.apply_updates([
                MergeEntities(refs(peg, a), refs(peg, b),
                              existence_probability=1.5)
            ])
        assert not peg.is_removed_id(a) and not peg.is_removed_id(b)
        assert engine.graph_version == 0
        assert engine.index.dirty_nodes == frozenset()

    def test_rejected_op_is_not_logged(self, tmp_path, peg, engine):
        """A failing op must not poison the durable log for replay."""
        sigma = sorted(peg.sigma, key=repr)
        log = MutationLog(str(tmp_path / "mutations.log"))
        good = AddEntity(("log-1",), {sigma[0]: 1.0}, 0.9)
        bad = UpdateLabelProbability(("missing",), {sigma[0]: 1.0})
        good2 = AddEntity(("log-2",), {sigma[0]: 1.0}, 0.9)
        with pytest.raises(DeltaError):
            engine.apply_updates([good, bad, good2], log=log)
        # Only the successfully applied prefix was logged; a fresh
        # engine replays it cleanly.
        assert len(log) == 1
        other_peg = small_random_peg(seed=1234, num_references=40)
        other = QueryEngine(other_peg, max_length=2, beta=0.05)
        summary = apply_mutations(other, log.replay())
        assert summary["applied"] == 1
        log.close()

    def test_admission_waits_for_apply(self, peg):
        """No evaluation may overlap graph surgery, even for requests
        admitted mid-update."""
        import threading

        engine = QueryEngine(peg, max_length=2, beta=0.05)
        sigma = sorted(peg.sigma, key=repr)
        query = QueryGraph({"a": sigma[0], "b": sigma[1]}, [("a", "b")])
        in_apply = threading.Event()
        release_apply = threading.Event()
        original_apply = engine.apply_updates

        def slow_apply(ops, log=None):
            in_apply.set()
            release_apply.wait(timeout=10)
            return original_apply(ops, log=log)

        engine.apply_updates = slow_apply
        target = singleton_ids(peg)[0]
        with QueryService(engine, num_workers=2) as service:
            applier = threading.Thread(
                target=service.apply_updates,
                args=([UpdateLabelProbability(
                    refs(peg, target), {sigma[0]: 1.0}
                )],),
            )
            applier.start()
            assert in_apply.wait(timeout=10)
            # A submit issued while the update is in progress must not
            # be admitted (and must not evaluate) until it completes.
            admitted = []
            submitter = threading.Thread(
                target=lambda: admitted.append(service.submit(query, 0.2))
            )
            submitter.start()
            submitter.join(timeout=0.3)
            assert submitter.is_alive(), "admission should block during apply"
            assert service._inflight == {}
            release_apply.set()
            applier.join(timeout=10)
            submitter.join(timeout=10)
            assert not submitter.is_alive()
            result = admitted[0].result(timeout=30)
            rebuilt = QueryEngine(peg, max_length=2, beta=0.05)
            assert match_keys(result.matches) == match_keys(
                rebuilt.query(query, 0.2).matches
            )


class TestOverlayEstimates:
    """A live index estimates from its stored-path histograms alone,
    whatever batches and lookups ran before, until compaction rewrites
    them."""

    def test_estimate_is_the_pre_batch_estimate_until_compaction(
        self, peg, engine
    ):
        sigma = sorted(peg.sigma, key=repr)
        anchor, other = singleton_ids(peg)[:2]
        pristine = pristine_engine().index
        alphas = (pristine.beta, 0.3, 0.6, 0.9)

        def estimates(index, sequences) -> list:
            return [
                index.estimate_cardinality(seq, alpha)
                for seq in sequences for alpha in alphas
            ]

        engine.apply_updates([
            UpdateLabelProbability(refs(peg, anchor), {sigma[0]: 1.0}),
            AddEntity(("est-new",), {sigma[1]: 1.0}, 1.0),
            AddEdge(refs(peg, other), ("est-new",), BernoulliEdge(0.9)),
        ])
        index = engine.index
        assert index._delta
        sequences = sorted(
            set(pristine.histograms) | set(index._delta), key=repr
        )
        want = estimates(pristine, sequences)
        assert estimates(index, sequences) == want
        for seq in sequences:
            for alpha in alphas:
                index.lookup_canonical(seq, alpha)
        assert estimates(index, sequences) == want
        engine.apply_updates([
            UpdateLabelProbability(refs(peg, other), {sigma[2]: 1.0})
        ])
        assert engine.index is index
        assert estimates(index, sequences) == want
        # Compaction rewrites the histograms: the rebuild's estimates.
        engine.compact_updates()
        rebuilt = QueryEngine(peg, max_length=2, beta=0.05)
        assert estimates(engine.index, sequences) == estimates(
            rebuilt.index, sequences
        )
        assert estimates(engine.index, sequences) != want


# The end-to-end benchmark's ``live_updates`` recipe
# (benchmarks/e2e/workloads.py), copied so this module stands alone:
# graph, L, beta, query shapes, queries per shape, alpha and the
# mutation mix of its batches.
LIVE_SEED = 20140331
LIVE_GRAPH = SyntheticConfig(
    num_references=200, uncertainty=0.2, seed=LIVE_SEED
)
LIVE_SHAPES = ((2, 1), (3, 2), (3, 3), (4, 4), (4, 5))
LIVE_ALPHA = 0.5


def live_batches(peg, count: int) -> list:
    """The first ``count`` four-op batches of the ``live_updates``
    stream: 60% label revisions, 20% new entities, 20% new entities
    linked to an existing one."""
    rng = random.Random(f"{LIVE_SEED}/ops")
    sigma = tuple(f"L{i}" for i in range(LIVE_GRAPH.num_labels))

    def distribution():
        chosen = rng.sample(sigma, rng.randint(1, min(3, len(sigma))))
        weights = [rng.uniform(0.1, 1.0) for _ in chosen]
        return {
            label: weight / sum(weights)
            for label, weight in zip(chosen, weights)
        }

    live = [
        refs(peg, node) for node in peg.node_ids()
        if not peg.is_removed_id(node)
    ]
    fresh = 0
    batches = []
    for _ in range(count):
        batch = []
        for _ in range(4):
            roll = rng.random()
            if roll < 0.6:
                batch.append(
                    UpdateLabelProbability(rng.choice(live), distribution())
                )
                continue
            fresh += 1
            entity = (f"e2e-dyn-{fresh}",)
            batch.append(
                AddEntity(entity, distribution(), rng.uniform(0.6, 1.0))
            )
            if roll >= 0.8:
                batch.append(AddEdge(
                    rng.choice(live), entity,
                    BernoulliEdge(rng.uniform(0.4, 1.0)),
                ))
        batches.append(batch)
    return batches


class TestOverlayPlanDeterminism:
    """On a live index a plan is still a pure function of its cache
    key: lookups at one graph version leave every later plan's
    estimated cost unchanged."""

    def test_lookups_leave_fresh_plans_unchanged(self):
        peg = build_peg(generate_synthetic_pgd(LIVE_GRAPH))
        engine = QueryEngine(peg, max_length=2, beta=0.3)
        for batch in live_batches(peg, 3):
            engine.apply_updates(batch)
        assert engine.index.dirty_nodes
        sigma = [f"L{i}" for i in range(LIVE_GRAPH.num_labels)]
        rng = random.Random(f"{LIVE_SEED}/live_updates")
        queries = [
            random_query(nodes, edges, sigma, seed=rng.randrange(2**31))
            for nodes, edges in LIVE_SHAPES
            for _ in range(5)
        ]
        version = engine.graph_version

        def fresh_costs() -> list:
            costs = []
            for query in queries:
                engine.planner.cache.clear()
                plan, _info = engine.planner.plan(
                    query, LIVE_ALPHA, QueryOptions()
                )
                costs.append(plan.estimated_cost)
            return costs

        before = fresh_costs()
        for query in queries:
            engine.query(query, LIVE_ALPHA)
        assert engine.graph_version == version
        after = fresh_costs()
        assert [
            i for i, (first, second) in enumerate(zip(before, after))
            if first != second
        ] == []
