"""Bottom-up path-index construction (Section 5.1).

Construction starts from single-node paths (length 0) and extends
length-``l`` paths by one edge to build length-``l+1`` entries, pruning
by the lower bound β at every step — every sub-path of a β-qualified
path is itself β-qualified, so no qualifying path is missed.

The frontier holds *directed* labeled paths (each undirected path in
both orientations, which is what edge-extension needs); storage keeps
only the canonical orientation, exploiting the undirected symmetry the
paper describes.

One build path
--------------
Every build is one enumeration feeding one writer
(:func:`_write_buckets`), which only calls
:meth:`~repro.storage.kvstore.PathStore.put_bucket` — so the target may
be any store, including a hash-sharded one
(:class:`~repro.index.sharded.ShardedPathStore`). The enumeration is
where the time goes, and ``build_processes > 1`` fans it out over a
process pool: every directed path has exactly one start node, so
disjoint start-node chunks partition it with no duplicates
(:meth:`PathIndexBuilder.collect_buckets` is the per-chunk entry
point). Chunks are contiguous and merged in node order, which
reproduces the serial enumeration order exactly: a parallel build
writes the same payload bytes as a serial one.

A live update re-runs the same enumeration restricted to the paths
through the nodes it dirtied (:meth:`PathIndexBuilder.paths_through`):
same seeds, same one-edge extension, same β-prune, plus one prune — a
partial path that has not met a dirtied node yet is only extended
towards one it can still reach within ``L`` edges.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.index.path_index import PathIndex, make_histogram
from repro.index.paths import (
    IndexedPath,
    concat_payloads,
    encode_paths,
    payload_count,
)
from repro.peg.entity_graph import ProbabilisticEntityGraph
from repro.storage.kvstore import InMemoryPathStore, PathStore
from repro.utils.errors import IndexError_
from repro.obs.timing import Timer


class PathIndexBuilder:
    """Builds a :class:`~repro.index.path_index.PathIndex` over a PEG.

    Parameters
    ----------
    peg:
        The probabilistic entity graph.
    max_length:
        Maximum indexed path length ``L`` (edges per path).
    beta:
        Index lower-bound probability threshold β.
    gamma:
        Bucket resolution γ.
    store:
        Target :class:`~repro.storage.kvstore.PathStore`; defaults to a
        fresh in-memory store.
    build_processes:
        Pool workers for the enumeration. ``0`` or ``1`` enumerates
        in-process; ``> 1`` uses a ``ProcessPoolExecutor`` whose workers
        warm-start once with the PEG, giving true CPU parallelism on
        multi-core hosts.
    """

    def __init__(
        self,
        peg: ProbabilisticEntityGraph,
        max_length: int = 3,
        beta: float = 0.1,
        gamma: float = 0.1,
        store: PathStore | None = None,
        build_processes: int = 0,
    ) -> None:
        if max_length < 1:
            raise IndexError_(f"max_length must be >= 1, got {max_length}")
        if build_processes < 0:
            raise IndexError_(
                f"build_processes must be >= 0, got {build_processes}"
            )
        self.peg = peg
        self.max_length = int(max_length)
        self.beta = float(beta)
        self.gamma = float(gamma)
        self.store = store if store is not None else InMemoryPathStore()
        self.build_processes = int(build_processes)
        # component sharing fast path: a node can only share references
        # with another node if its identity component has several entities.
        self._comp_shared = self._component_sharing_flags()

    def _component_sharing_flags(self) -> list:
        counts: dict = {}
        for node in self.peg.node_ids():
            comp = self.peg.component_index_id(node)
            counts[comp] = counts.get(comp, 0) + 1
        return [
            counts[self.peg.component_index_id(node)] > 1
            for node in self.peg.node_ids()
        ]

    # ------------------------------------------------------------------

    def build(self) -> PathIndex:
        """Run the full construction and return the queryable index."""
        grid = _grid_milli(self.beta, self.gamma)
        paths_per_length: dict = {}
        entries = (
            self._parallel_entries(paths_per_length)
            if self.build_processes > 1
            else self._serial_entries(paths_per_length)
        )
        with Timer() as timer:
            histograms = _write_buckets(self.store, entries, grid)
        return PathIndex(
            store=self.store,
            max_length=self.max_length,
            beta=self.beta,
            gamma=self.gamma,
            histograms=histograms,
            build_stats={
                "paths_per_length": paths_per_length,
                "build_seconds": timer.elapsed,
            },
        )

    def collect_buckets(self, start_nodes=None) -> tuple:
        """Enumerate canonical paths without writing them to a store.

        Returns ``(per_key, paths_per_length)`` where ``per_key`` maps a
        canonical label sequence to ``{bucket: [IndexedPath, ...]}``.
        When ``start_nodes`` is given, only directed paths *starting* at
        one of those nodes are expanded — since every directed path has
        exactly one start node, disjoint slices of the node set partition
        the full enumeration with no duplicates, which is how the
        parallel build's workers restrict it.
        """
        per_key: dict = {}
        paths_per_length: dict = {}
        for length, count, level in self._levels(start_nodes):
            per_key.update(level)  # levels hold disjoint sequence lengths
            paths_per_length[length] = count
        return per_key, paths_per_length

    def _levels(self, start_nodes=None) -> Iterator[tuple]:
        """Yield ``(length, frontier size, {labels: {bucket: paths}})``
        level by level, so a consumer can hold one level's paths at a time."""
        grid = _grid_milli(self.beta, self.gamma)
        frontier = self._seed_frontier(start_nodes)
        for length in range(self.max_length + 1):
            if length:
                frontier = self._extend(frontier)
            yield length, len(frontier), self._bucket_level(frontier, grid)

    def paths_through(self, targets) -> tuple:
        """The canonical β-qualified paths containing a node of ``targets``.

        Returns ``({labels: [IndexedPath, ...]}, expanded)``, ``expanded``
        being the directed partial paths the enumeration held — its cost,
        which grows with the ``L``-hop neighbourhood of ``targets`` and
        not with the graph.
        """
        targets = frozenset(targets)
        hops = self._hops_to(targets)
        frontier = self._seed_frontier(sorted(hops))
        found: dict = {}
        expanded = 0
        for length in range(self.max_length + 1):
            if length:
                budget = self.max_length - length
                near = {n for n, hop in hops.items() if hop <= budget}
                frontier = self._extend(frontier, targets, near)
            expanded += len(frontier)
            for ids, labels, prle, prn in frontier:
                if not targets.isdisjoint(ids) and _is_canonical(ids, labels):
                    found.setdefault(labels, []).append(
                        IndexedPath(ids, prle, prn)
                    )
        return found, expanded

    def _hops_to(self, targets: frozenset) -> dict:
        """``{node: edges to the nearest target}`` within ``max_length``."""
        hops = dict.fromkeys(targets, 0)
        frontier = sorted(targets)
        for distance in range(1, self.max_length + 1):
            reached = []
            for node in frontier:
                for neighbor in self.peg.neighbor_ids(node):
                    if neighbor not in hops:
                        hops[neighbor] = distance
                        reached.append(neighbor)
            frontier = reached
        return hops

    def _serial_entries(self, paths_per_length: dict) -> Iterator[tuple]:
        """Every ``(labels, bucket, payload)`` of the index, in-process."""
        for length, count, level in self._levels():
            paths_per_length[length] = count
            yield from _encoded(level)
            # The next level is expanded while this name is still bound;
            # let go of the (already written) paths first.
            del level

    def _parallel_entries(self, paths_per_length: dict) -> Iterator[tuple]:
        """The same entries, enumerated per start-node chunk on a pool.

        Workers encode their buckets (in parallel, once per path), so
        what crosses the process boundary is payload bytes, and the
        chunks of one bucket merge by byte concatenation in chunk order.
        """
        chunks = _chunk_nodes(
            tuple(self.peg.node_ids()),
            self.build_processes * _CHUNKS_PER_WORKER,
        )
        merged: dict = {}
        with ProcessPoolExecutor(
            max_workers=self.build_processes,
            initializer=_worker_init,
            initargs=(self.peg, self.max_length, self.beta, self.gamma),
        ) as pool:
            for entries, counts in pool.map(_collect_chunk, chunks):
                for labels, bucket, payload in entries:
                    merged.setdefault((labels, bucket), []).append(payload)
                for length, count in counts.items():
                    paths_per_length[length] = (
                        paths_per_length.get(length, 0) + count
                    )
        for (labels, bucket), payloads in merged.items():
            yield labels, bucket, concat_payloads(payloads)

    # ------------------------------------------------------------------

    def _seed_frontier(self, start_nodes=None) -> list:
        """Length-0 frontier: one directed path per (node, possible label)."""
        peg = self.peg
        nodes = peg.node_ids() if start_nodes is None else start_nodes
        frontier = []
        for node in nodes:
            prn = peg.existence_probability_id(node)
            if prn <= 0.0:
                continue
            for label in peg.possible_labels_id(node):
                prle = peg.label_probability_id(node, label)
                if prle * prn >= self.beta:
                    frontier.append(((node,), (label,), prle, prn))
        return frontier

    def _extend(self, frontier: list, targets=None, near=None) -> list:
        """Extend every directed path by one edge at its tail.

        With ``targets`` (:meth:`paths_through`), a path that holds none
        of them yet only steps into ``near``: the nodes from which one
        is still within the edges the path has left.
        """
        peg = self.peg
        beta = self.beta
        comp_shared = self._comp_shared
        extended = []
        for ids, labels, prle, prn in frontier:
            tail = ids[-1]
            tail_label = labels[-1]
            id_set = set(ids)
            neighbors = peg.neighbor_ids(tail)
            if targets is not None and targets.isdisjoint(id_set):
                neighbors = [n for n in neighbors if n in near]
            for neighbor in neighbors:
                if neighbor in id_set:
                    continue
                if comp_shared[neighbor] and any(
                    peg.shares_references_id(neighbor, node) for node in ids
                ):
                    continue
                new_prn = self._extended_prn(ids, prn, neighbor)
                if new_prn <= 0.0:
                    continue
                for label in peg.possible_labels_id(neighbor):
                    p_edge = peg.edge_probability_id(
                        tail, neighbor, tail_label, label
                    )
                    if p_edge <= 0.0:
                        continue
                    p_label = peg.label_probability_id(neighbor, label)
                    new_prle = prle * p_edge * p_label
                    if new_prle * new_prn < beta:
                        continue
                    extended.append(
                        (
                            ids + (neighbor,),
                            labels + (label,),
                            new_prle,
                            new_prn,
                        )
                    )
        return extended

    def _extended_prn(self, ids: tuple, prn: float, neighbor: int) -> float:
        """``Prn`` after adding ``neighbor`` to a path's node set.

        Fast path: across components the marginal multiplies; only when
        the new node shares a non-trivial component with an existing path
        node must the joint marginal be recomputed.
        """
        peg = self.peg
        if self._comp_shared[neighbor]:
            comp = peg.component_index_id(neighbor)
            if any(peg.component_index_id(node) == comp for node in ids):
                return peg.existence_marginal_ids(ids + (neighbor,))
        return prn * peg.existence_probability_id(neighbor)

    # ------------------------------------------------------------------

    def _bucket_level(self, frontier: list, grid: Sequence[int]) -> dict:
        """A level's canonical paths as ``{labels: {bucket: paths}}``."""
        per_key: dict = {}
        for ids, labels, prle, prn in frontier:
            if not _is_canonical(ids, labels):
                continue
            prob = prle * prn
            bucket = _bucket_for(prob, grid)
            per_key.setdefault(labels, {}).setdefault(bucket, []).append(
                IndexedPath(ids, prle, prn)
            )
        return per_key


def _encoded(per_key: dict) -> Iterator[tuple]:
    """``(labels, bucket, payload)`` for every bucket of an enumeration."""
    for labels, buckets in per_key.items():
        for bucket, paths in buckets.items():
            yield labels, bucket, encode_paths(paths)


def _write_buckets(
    store: PathStore, entries: Iterable[tuple], grid: Sequence[int]
) -> dict:
    """THE store-writing routine: every bucket of every build passes here.

    Writes each ``(labels, bucket, payload)`` through
    :meth:`PathStore.put_bucket`, flushes, and returns the per-sequence
    histograms of what was written.
    """
    counts: dict = {}
    for labels, bucket, payload in entries:
        store.put_bucket(labels, bucket, payload)
        counts.setdefault(labels, {})[bucket] = payload_count(payload)
    store.flush()
    return {
        labels: make_histogram(grid, buckets)
        for labels, buckets in counts.items()
    }


# ----------------------------------------------------------------------
# Process-pool enumeration
# ----------------------------------------------------------------------

#: Chunks per pool worker: enough that one dense chunk cannot leave the
#: other workers idle, few enough that per-task overhead stays invisible.
_CHUNKS_PER_WORKER = 4

#: The current pool worker's builder (set once by the initializer — the
#: same warm-start pattern as repro.service's process executor, which
#: initializes workers from a snapshot).
_WORKER_BUILDER: PathIndexBuilder | None = None


def _worker_init(peg, max_length: int, beta: float, gamma: float) -> None:
    """Warm-start one pool worker with the shared PEG and parameters."""
    global _WORKER_BUILDER
    _WORKER_BUILDER = PathIndexBuilder(peg, max_length, beta, gamma)


def _collect_chunk(start_nodes: tuple) -> tuple:
    """Enumerate one start-node chunk; ``(encoded entries, level counts)``."""
    per_key, paths_per_length = _WORKER_BUILDER.collect_buckets(start_nodes)
    return list(_encoded(per_key)), paths_per_length


def _chunk_nodes(node_ids: tuple, num_chunks: int) -> list:
    """Contiguous chunks in node order — the order the serial enumeration
    visits start nodes, so merging chunk results in sequence reproduces it."""
    size = max(1, -(-len(node_ids) // num_chunks))
    return [node_ids[i:i + size] for i in range(0, len(node_ids), size)]


def build_path_index(
    peg: ProbabilisticEntityGraph,
    max_length: int = 3,
    beta: float = 0.1,
    gamma: float = 0.1,
    store: PathStore | None = None,
    build_processes: int = 0,
) -> PathIndex:
    """One-call façade over :class:`PathIndexBuilder`."""
    builder = PathIndexBuilder(
        peg,
        max_length=max_length,
        beta=beta,
        gamma=gamma,
        store=store,
        build_processes=build_processes,
    )
    return builder.build()


def enumerate_paths_for_sequence(
    peg: ProbabilisticEntityGraph, label_seq: Sequence, alpha: float
) -> list:
    """On-demand path enumeration for thresholds below the index's β.

    The paper's footnote: "paths with smaller probability are computed on
    demand". Performs a pruned DFS aligned to ``label_seq`` and returns
    :class:`IndexedPath` objects oriented to the requested sequence, the
    same contract as :meth:`PathIndex.lookup`.
    """
    seq = tuple(label_seq)
    if not seq:
        return []
    counts: dict = {}
    for node in peg.node_ids():
        comp = peg.component_index_id(node)
        counts[comp] = counts.get(comp, 0) + 1

    results = []

    def extend(ids: tuple, prle: float, prn: float, position: int) -> None:
        if position == len(seq):
            results.append(IndexedPath(ids, prle, prn))
            return
        label = seq[position]
        tail = ids[-1]
        tail_label = seq[position - 1]
        id_set = set(ids)
        for neighbor in peg.neighbor_ids(tail):
            if neighbor in id_set:
                continue
            if counts[peg.component_index_id(neighbor)] > 1 and any(
                peg.shares_references_id(neighbor, node) for node in ids
            ):
                continue
            p_label = peg.label_probability_id(neighbor, label)
            if p_label <= 0.0:
                continue
            p_edge = peg.edge_probability_id(tail, neighbor, tail_label, label)
            if p_edge <= 0.0:
                continue
            new_prle = prle * p_label * p_edge
            new_prn = _joint_prn(peg, counts, ids, prn, neighbor)
            if new_prle * new_prn < alpha or new_prn <= 0.0:
                continue
            extend(ids + (neighbor,), new_prle, new_prn, position + 1)

    first = seq[0]
    for node in peg.node_ids():
        p_label = peg.label_probability_id(node, first)
        prn = peg.existence_probability_id(node)
        if p_label <= 0.0 or prn <= 0.0 or p_label * prn < alpha:
            continue
        extend((node,), p_label, prn, 1)
    return results


def _joint_prn(peg, comp_counts, ids, prn, neighbor) -> float:
    comp = peg.component_index_id(neighbor)
    if comp_counts[comp] > 1 and any(
        peg.component_index_id(node) == comp for node in ids
    ):
        return peg.existence_marginal_ids(ids + (neighbor,))
    return prn * peg.existence_probability_id(neighbor)


def _milli(probability: float) -> int:
    """Probability in milli-units — THE rounding rule of the bucket grid.

    One shared rule for grid construction, builder-side bucket
    assignment and lookup-side bucket selection. Mixing rules broke
    grid boundaries: ``round`` maps the float ``0.7`` (repr
    ``0.6999999...``) to 700 while truncation maps it to 699, so a
    builder and a reader disagreeing by one rule put (or look for)
    boundary probabilities one bucket low. Any single monotone rule is
    sound — lookups re-filter decoded paths against the exact float
    threshold — and ``round`` keeps human-entered grid parameters like
    ``beta=0.7`` on the buckets they name.
    """
    return int(round(probability * 1000))


def _grid_milli(beta: float, gamma: float) -> tuple:
    start = _milli(beta)
    if start > 1000:
        raise IndexError_(f"beta must be in (0, 1], got {beta}")
    step = max(1, _milli(gamma))
    points = list(range(start, 1001, step))
    if points[-1] != 1000:
        points.append(1000)
    return tuple(points)


def _bucket_for(prob: float, grid: Sequence[int]) -> int:
    milli = _milli(prob)
    bucket = grid[0]
    for point in grid:
        if point <= milli:
            bucket = point
        else:
            break
    return bucket


def _buckets_for(probabilities: np.ndarray, grid: Sequence[int]) -> np.ndarray:
    """:func:`_bucket_for` of every element, by the same :func:`_milli`
    rule (``np.rint`` rounds halves to even exactly as ``round`` does)."""
    points = np.asarray(grid, dtype=np.int64)
    milli = np.rint(probabilities * 1000).astype(np.int64)
    below = np.searchsorted(points, milli, side="right") - 1
    return points[np.maximum(below, 0)]


def _is_canonical(ids: tuple, labels: tuple) -> bool:
    """True when the directed path is in its canonical orientation.

    The canonical orientation is the lexicographically smaller of
    ``(labels, ids)`` and its reverse (labels compared through repr);
    ties (palindromic single nodes) count as canonical.
    """
    if len(ids) == 1:
        return True
    fwd = (tuple(map(repr, labels)), ids)
    rev = (tuple(map(repr, reversed(labels))), tuple(reversed(ids)))
    return fwd <= rev
