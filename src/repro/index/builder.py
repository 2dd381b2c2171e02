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
Every producer of indexed paths is one set of enumeration rules — the
seeds, the reference-sharing and ``Prn`` tests, the factor order
``prle * p_edge * p_label``, the β-prune, the canonical orientation, all
on :class:`PathIndexBuilder` — handing ``{labels: PathCandidates}``
columns to one writer:

* the offline build enumerates level by level; ``build_processes > 1``
  fans that out over a process pool — every directed path has exactly
  one start node, so disjoint start-node chunks partition it with no
  duplicates (:meth:`PathIndexBuilder.collect_buckets` is the per-chunk
  entry point), and contiguous chunks merged in node order reproduce the
  serial enumeration order exactly: a parallel build writes the same
  payload bytes as a serial one;
* a live update re-runs the enumeration restricted to the paths through
  the nodes it dirtied (:meth:`PathIndexBuilder.paths_through`), with one
  more prune — a partial path that has not met a dirtied node yet is
  only extended towards one it can still reach within ``L`` edges;
* a threshold below the index's β is answered on demand
  (:meth:`PathIndexBuilder.paths_for_sequence`) with what a lookup on an
  index built at that threshold returns, bit for bit.

The writer: :func:`bucket_payloads` files one sequence's rows as its
``[(bucket, payload)]`` and :func:`write_buckets` puts such entries
through :meth:`~repro.storage.kvstore.PathStore.put_bucket` — so the
target may be any store, a hash-sharded one
(:class:`~repro.index.sharded.ShardedPathStore`) included. The serial
build, the pool workers and compaction
(:meth:`repro.delta.overlay.DeltaOverlayIndex.compact`) all call both.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.index.grid import BucketGrid
from repro.index.path_index import PathIndex
from repro.index.paths import (
    PathCandidates,
    concat_payloads,
    encode_path_arrays,
    payload_count,
)
from repro.index.protocol import canonical_sequence, orient_to_sequence
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
        self.grid = BucketGrid(self.beta, self.gamma)
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
        with Timer() as timer:
            if self.build_processes > 1:
                entries, paths_per_length = self._parallel_entries()
            else:  # one chunk: every start node, in this process
                per_key, paths_per_length = self.collect_buckets()
                entries = _encoded(self.grid, per_key)
            histograms = write_buckets(self.store, entries, self.grid)
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

        Returns ``({labels: PathCandidates}, paths_per_length)``, every
        sequence's rows in frontier order. When ``start_nodes`` is
        given, only directed paths *starting* at one of those nodes are
        expanded — since every directed path has exactly one start
        node, disjoint slices of the node set partition the full
        enumeration with no duplicates, which is how the parallel
        build's workers restrict it.
        """
        per_key: dict = {}
        paths_per_length: dict = {}
        frontier = self._seed_frontier(start_nodes)
        for length in range(self.max_length + 1):
            if length:
                frontier = self._extend(frontier)
            paths_per_length[length] = len(frontier)
            # Levels hold disjoint sequence lengths.
            per_key.update(_canonical_columns(frontier))
        return per_key, paths_per_length

    def paths_through(self, targets) -> tuple:
        """The canonical β-qualified paths containing a node of ``targets``.

        Returns ``({labels: PathCandidates}, expanded)``, ``expanded``
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
            found.update(_canonical_columns(frontier, targets))
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

    def paths_for_sequence(self, label_seq: Sequence) -> PathCandidates:
        """On-demand enumeration ("paths with smaller probability are
        computed on demand"), ``self.beta`` being the query's threshold.

        Returns what ``lookup(label_seq, beta)`` returns from an index
        built at this ``beta`` (rows as a set, floats bit for bit): the
        *canonical* sequence is walked depth-first from
        :meth:`_seed_frontier`'s seeds under :meth:`_extend`'s tests and
        factor order, and only canonical paths are kept.
        """
        seq = tuple(label_seq)
        canonical = canonical_sequence(seq)
        peg = self.peg
        beta = self.beta
        comp_shared = self._comp_shared
        found: list = []

        def extend(ids: tuple, prle: float, prn: float) -> None:
            if len(ids) == len(canonical):
                if _is_canonical(ids, canonical):
                    found.append((ids, prle, prn))
                return
            tail = ids[-1]
            tail_label = canonical[len(ids) - 1]
            label = canonical[len(ids)]
            for neighbor in peg.neighbor_ids(tail):
                if neighbor in ids:
                    continue
                if comp_shared[neighbor] and any(
                    peg.shares_references_id(neighbor, node) for node in ids
                ):
                    continue
                p_label = peg.label_probability_id(neighbor, label)
                if p_label <= 0.0:
                    continue
                new_prn = self._extended_prn(ids, prn, neighbor)
                if new_prn <= 0.0:
                    continue
                p_edge = peg.edge_probability_id(
                    tail, neighbor, tail_label, label
                )
                if p_edge <= 0.0:
                    continue
                new_prle = prle * p_edge * p_label
                if new_prle * new_prn >= beta:
                    extend(ids + (neighbor,), new_prle, new_prn)

        for ids, labels, prle, prn in self._seed_frontier():
            if labels == canonical[:1]:
                extend(ids, prle, prn)
        return orient_to_sequence(
            PathCandidates.from_rows(found, len(canonical)), seq
        )

    def _parallel_entries(self) -> tuple:
        """``(entries, paths_per_length)`` of the index, enumerated per
        start-node chunk on a pool.

        Workers encode their buckets (in parallel, once per path), so
        what crosses the process boundary is payload bytes, and the
        chunks of one bucket merge by byte concatenation in chunk order.
        """
        chunks = _chunk_nodes(
            tuple(self.peg.node_ids()),
            self.build_processes * _CHUNKS_PER_WORKER,
        )
        merged: dict = {}
        paths_per_length: dict = {}
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
        entries = (
            (labels, bucket, concat_payloads(payloads))
            for (labels, bucket), payloads in merged.items()
        )
        return entries, paths_per_length

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


def _canonical_columns(frontier: list, targets=None) -> dict:
    """A frontier's canonical paths (those through ``targets``, when
    given) as ``{labels: PathCandidates}``, rows in frontier order."""
    per_key: dict = {}
    for ids, labels, prle, prn in frontier:
        if targets is not None and targets.isdisjoint(ids):
            continue
        if _is_canonical(ids, labels):
            per_key.setdefault(labels, []).append((ids, prle, prn))
    return {
        labels: PathCandidates.from_rows(rows, len(labels))
        for labels, rows in per_key.items()
    }


def bucket_payloads(grid: BucketGrid, rows: PathCandidates) -> list:
    """One sequence's rows as its ``[(bucket, payload)]``, ascending:
    THE filing rule — the grid's vectorized bucket rule, a stable
    group-by (rows keep their order inside a bucket), the columnar
    codec. No row, no bucket."""
    buckets = grid.buckets_of(rows.prle * rows.prn)
    order = np.argsort(buckets, kind="stable")
    used, starts = np.unique(buckets[order], return_index=True)
    return [
        (bucket, encode_path_arrays(part.nodes, part.prle, part.prn))
        for bucket, part in zip(
            used.tolist(), map(rows.take, np.split(order, starts[1:]))
        )
    ]


def _encoded(grid: BucketGrid, per_key: dict) -> Iterator[tuple]:
    """``(labels, bucket, payload)`` for every bucket of an enumeration."""
    for labels, rows in per_key.items():
        for bucket, payload in bucket_payloads(grid, rows):
            yield labels, bucket, payload


def write_buckets(
    store: PathStore, entries: Iterable[tuple], grid: BucketGrid
) -> dict:
    """THE store-writing routine: every bucket of every build and of
    every compaction passes here. Writes each ``(labels, bucket,
    payload)`` through :meth:`PathStore.put_bucket`, flushes, and
    returns the per-sequence histograms of what was written.
    """
    counts: dict = {}
    for labels, bucket, payload in entries:
        store.put_bucket(labels, bucket, payload)
        counts.setdefault(labels, {})[bucket] = payload_count(payload)
    store.flush()
    return {
        labels: grid.histogram(buckets) for labels, buckets in counts.items()
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
    return list(_encoded(_WORKER_BUILDER.grid, per_key)), paths_per_length


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
