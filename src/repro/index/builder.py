"""Bottom-up path-index construction (Section 5.1).

Construction starts from single-node paths (length 0) and extends
length-``l`` paths by one edge to build length-``l+1`` entries, pruning
by the lower bound β at every step — every sub-path of a β-qualified
path is itself β-qualified, so no qualifying path is missed.

The frontier holds *directed* labeled paths (each undirected path in
both orientations, which is what edge-extension needs); storage keeps
only the canonical orientation, exploiting the undirected symmetry the
paper describes.

A frontier of columns
---------------------
A level is not a list of paths but four row-aligned columns: an
``(rows, l + 1)`` node matrix, a same-shape matrix of label positions
in ``sorted(Σ, key=repr)`` (so the canonical-orientation test is an
integer compare), and the ``prle`` / ``prn`` vectors. One extension
(:meth:`PathIndexBuilder._extend_block`) is a repeat + offset gather of the
tails' CSR neighbours, injectivity as column compares,
``prn * existence[neighbour]``, a second repeat over each neighbour's
label support in support order, ``p_edge > 0``, then
``(prle * p_edge) * p_label`` and the β-prune — the written factor
order, so every float is the one a per-path loop computes. Rows keep
that loop's order (start node, then sorted neighbour, then support
label), so the bytes the writer files do not depend on how the
enumeration runs. The gather tables are the PEG's own columns
(:class:`repro.peg.columns.PegColumns`), built with the graph and
patched by its mutations, never derived here.

**The joint existence rule** is the one the link builder and the
matcher follow: a row whose new node lies in a multi-entity identity
component *and* shares that component with a node already on the path
takes the whole path's joint marginal from
:meth:`repro.peg.arrays.ComponentTable.joint_existence` in place of the
product — 0.0, so the row goes, when two of its nodes share a
reference. ``fallback_rows`` counts those rows.

Depth first, one block at a time
--------------------------------
The enumeration (:meth:`PathIndexBuilder._enumerate`) never holds a
whole level. It cuts a frontier into order-preserving blocks of at most
``_FRONTIER_ROW_BUDGET`` gathered neighbour rows
(:func:`repro.peg.columns.row_blocks`, the matcher's too), and extends
each block down to the last level — filing its canonical rows at every
level on the way — before it gathers the next block, the way the
matcher's ``_expand`` walks a join. What a build holds is therefore one
block per level (its pre-prune fan-out is the budget's, not a level's)
beside the canonical rows filed so far: their node ids, ``prle``,
``prn`` and one integer naming the sequence. Blocks are visited in
frontier order, so each level's rows are filed in the order a
whole-level extension gives them. Each level is grouped by sequence
once, at the end, by moving every block straight to its grouped rows,
and the serial build releases a level's columns as soon as its last
sequence is encoded. On the ``match_heavy`` benchmark graph (200
references, L=3, β=0.5; a 4.26 MiB store) the build's tracemalloc
peak is 15.5 MiB (3.6x the store), where the level-at-a-time build it
replaced peaked at 41.1 MiB (9.6x); at 2,000 references the build's
peak RSS is ~300 MiB for a 66.5 MB store, from ~715 MiB
(``benchmarks/bench_scale.py`` measures it).

One build path
--------------
Every producer of indexed paths goes through that one ``_enumerate`` —
the seeds, the reference-sharing and ``Prn`` tests, the factor order,
the β-prune, the canonical orientation, all on
:class:`PathIndexBuilder` — handing ``{labels: PathCandidates}``
columns to one writer:

* the offline build enumerates every start node; ``build_processes > 1``
  fans that out over a process pool — every directed path has exactly
  one start node, so disjoint start-node chunks partition it with no
  duplicates (:meth:`PathIndexBuilder.collect_buckets` is the per-chunk
  entry point), and contiguous chunks merged in node order reproduce the
  serial enumeration order exactly: a parallel build writes the same
  payload bytes as a serial one;
* a live update re-runs the enumeration restricted to the paths through
  the nodes it dirtied (:meth:`PathIndexBuilder.paths_through`), with one
  more mask — a partial path that has not met a dirtied node yet is
  only extended towards one it can still reach within ``L`` edges (an
  array breadth-first search over the CSR names those nodes) — so an
  absorb expands what it touches and never the graph;
* a threshold below the index's β is answered on demand
  (:meth:`PathIndexBuilder.paths_for_sequence`: every level masked to
  its one label) with what a lookup on an index built at that
  threshold returns, bit for bit.

The tuple-at-a-time enumeration these replaced is the tests' oracle
(:class:`repro.testing.reference.TuplePathEnumeration`).

The writer: :func:`bucket_payloads` files one sequence's rows as its
``[(bucket, payload)]`` (one sort, one record matrix, one slice per
bucket) and :func:`write_buckets` puts such entries
through :meth:`~repro.storage.kvstore.PathStore.put_bucket` — so the
target may be any store, in memory or on disk. The serial build, the
pool workers and compaction
(:meth:`repro.index.path_index.PathIndex.compact`) all call both.
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
    encode_path_records,
    payload_count,
    records_payload,
)
from repro.index.protocol import canonical_sequence, orient_to_sequence
from repro.peg.arrays import component_table
from repro.peg.columns import PegColumns, gather_rows, row_blocks
from repro.peg.entity_graph import ProbabilisticEntityGraph
from repro.storage.kvstore import InMemoryPathStore, PathStore
from repro.utils.errors import IndexError_
from repro.obs.timing import Timer


#: Most neighbour rows one extension step may gather at a time: a wider
#: frontier is extended in order-preserving row blocks, each one carried
#: down to the last level before the next is gathered (the idiom and the
#: budget of :mod:`repro.query.matcher`). A block's pre-prune fan-out is
#: what the enumeration holds beyond the filed rows: at ``1 << 16`` it
#: set the ``match_heavy`` build's peak (21.5 MiB traced, against
#: 15.5 MiB here), and the build's time did not move with it.
_FRONTIER_ROW_BUDGET = 1 << 15


class _Frontier:
    """One level of directed paths, as row-aligned columns.

    ``nodes`` and ``labels`` are ``(rows, l + 1)`` matrices (labels as
    positions in the tables' ``sigma``), ``prle`` / ``prn`` the two
    probability components. ``holds`` is set by
    :meth:`PathIndexBuilder.paths_through` only: whether the row
    contains a target yet.
    """

    __slots__ = ("nodes", "labels", "prle", "prn", "holds")

    def __init__(self, nodes, labels, prle, prn, holds=None) -> None:
        self.nodes = nodes
        self.labels = labels
        self.prle = prle
        self.prn = prn
        self.holds = holds

    def __len__(self) -> int:
        return self.nodes.shape[0]

    def take(self, selector) -> "_Frontier":
        """Rows picked by a slice, a mask or an index array."""
        return _Frontier(
            self.nodes[selector], self.labels[selector],
            self.prle[selector], self.prn[selector],
            None if self.holds is None else self.holds[selector],
        )


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
        #: Extension rows that took a joint existence marginal (two
        #: nodes of one identity component on the path).
        self.fallback_rows = 0

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
        per_key, counts = self._enumerate(
            self._seed_frontier(self.peg.columns, start_nodes),
            self.max_length,
        )
        return per_key, dict(enumerate(counts))

    def paths_through(self, targets) -> tuple:
        """The canonical β-qualified paths containing a node of ``targets``.

        Returns ``({labels: PathCandidates}, expanded)``, ``expanded``
        being the directed partial paths the enumeration held — its cost,
        which grows with the ``L``-hop neighbourhood of ``targets`` and
        not with the graph: no such path leaves that neighbourhood.
        """
        tables = self.peg.columns
        hop = self._hops_to(targets)
        is_target = hop == 0
        frontier = self._seed_frontier(
            tables, np.flatnonzero(hop <= self.max_length)
        )
        frontier.holds = is_target[frontier.nodes[:, 0]]
        found, counts = self._enumerate(
            frontier, self.max_length, targets=is_target,
            near=[
                hop <= self.max_length - length
                for length in range(self.max_length + 1)
            ],
        )
        return found, sum(counts)

    def _hops_to(self, targets) -> np.ndarray:
        """Edges from every id to the nearest of ``targets``, ``max_length
        + 1`` beyond reach: a breadth-first search of array levels."""
        tables = self.peg.columns
        hop = np.full(tables.size, self.max_length + 1)
        reached = np.unique(np.fromiter(targets, dtype=np.int64))
        hop[reached] = 0
        for distance in range(1, self.max_length + 1):
            reached = np.unique(
                tables.adj[gather_rows(tables.adj_ptr, reached)[1]]
            )
            reached = reached[hop[reached] > distance]
            hop[reached] = distance
        return hop

    def paths_for_sequence(self, label_seq: Sequence) -> PathCandidates:
        """On-demand enumeration ("paths with smaller probability are
        computed on demand"), ``self.beta`` being the query's threshold.

        Returns what ``lookup(label_seq, beta)`` returns from an index
        built at this ``beta`` (rows as a set, floats bit for bit): the
        *canonical* sequence is enumerated, every level masked to its
        one label, and only the last level's canonical paths are kept.
        """
        seq = tuple(label_seq)
        canonical = canonical_sequence(seq)
        tables = self.peg.columns
        found: dict = {}
        positions = [tables.label_pos.get(label) for label in canonical]
        if None not in positions:
            depth = len(positions) - 1
            found, _counts = self._enumerate(
                self._seed_frontier(tables, label=positions[0]), depth,
                file_from=depth, labels=positions,
            )
        return orient_to_sequence(
            found.get(canonical, PathCandidates.from_rows([], len(canonical))),
            seq,
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

    def _seed_frontier(
        self, tables: PegColumns, start_nodes=None, label=None
    ) -> _Frontier:
        """Length-0 frontier: one directed path per (node, possible
        label) — per node that can carry ``label``, when given — in
        node order, then support order."""
        if start_nodes is None:
            start_nodes = np.arange(tables.size)
        starts = np.asarray(start_nodes, dtype=np.int64)
        nodes, support = gather_rows(tables.sup_ptr, starts)
        nodes = starts[nodes]
        labels = tables.sup_label[support]
        prle = tables.sup_prob[support]
        prn = tables.existence[nodes]
        keep = (prn > 0.0) & (prle * prn >= self.beta)
        if label is not None:
            keep &= labels == label
        keep = np.flatnonzero(keep)
        return _Frontier(
            nodes[keep, None], labels[keep, None], prle[keep], prn[keep]
        )

    def _enumerate(
        self, frontier: _Frontier, depth: int, file_from: int = 0,
        labels=None, targets=None, near=None,
    ) -> tuple:
        """THE enumeration of the build, a live absorb and on-demand
        lookups alike: extend the length-0 ``frontier`` to ``depth``
        edges, depth first, filing the canonical rows of every level
        from ``file_from`` on.

        Returns ``({labels: PathCandidates}, rows per level)``: the
        filed levels grouped by sequence (levels in order, sequences by
        first appearance, rows in frontier order) and every level's
        directed row count. A block of at most ``_FRONTIER_ROW_BUDGET``
        gathered neighbour rows is extended down to the last level, and
        its canonical rows filed, before the next block is gathered: the
        enumeration holds one block per level beside the filed rows,
        never a whole level. Blocks are visited in frontier order, so a
        level's rows are filed in the order a whole-level extension
        gives them. ``labels`` and ``near`` hold :meth:`_extend_block`'s
        ``label`` / ``near`` per level.
        """
        tables = self.peg.columns
        levels = [
            _Level() if length >= file_from else None
            for length in range(depth + 1)
        ]
        counts = [0] * (depth + 1)

        def descend(frontier: _Frontier, length: int) -> None:
            counts[length] += len(frontier)
            if levels[length] is not None:
                levels[length].file(
                    tables,
                    frontier if frontier.holds is None
                    else frontier.take(frontier.holds),
                )
            if length == depth:
                return
            step = length + 1
            label = None if labels is None else labels[step]
            reach = None if near is None else near[step]
            tails = frontier.nodes[:, -1]
            blocks = row_blocks(
                tables.adj_ptr[tails + 1] - tables.adj_ptr[tails],
                _FRONTIER_ROW_BUDGET,
            )
            for block in blocks:
                extended = self._extend_block(
                    tables, frontier.take(block), label, targets, reach
                )
                if len(extended):
                    descend(extended, step)

        descend(frontier, 0)
        per_key: dict = {}
        for level in levels[file_from:]:
            # Levels hold disjoint sequence lengths.
            per_key.update(level.group(tables.sigma))
        return per_key, counts

    def _extend_block(
        self, tables: PegColumns, frontier: _Frontier, label, targets, near
    ) -> _Frontier:
        """Extend every directed path of one block by one edge at its
        tail: THE enumeration step.

        Rows come out in frontier order, then neighbour order, then
        support order. With ``label`` (:meth:`paths_for_sequence`) the
        new node carries that one label. With ``targets`` and ``near``
        (boolean over the id space, :meth:`paths_through`), a path that
        holds no target yet only steps into ``near``: the nodes from
        which one is still within the edges the path has left.
        """
        parent, slots = gather_rows(tables.adj_ptr, frontier.nodes[:, -1])
        neighbor = tables.adj[slots]
        keep = np.ones(neighbor.size, dtype=bool)
        for column in frontier.nodes.T:  # a path visits a node once
            keep &= column[parent] != neighbor
        if near is not None:
            keep &= frontier.holds[parent] | near[neighbor]
        # Row numbers, not a mask: one scan serves every column.
        keep = np.flatnonzero(keep)
        parent, slots, neighbor = parent[keep], slots[keep], neighbor[keep]

        # Across identity components the existence marginal multiplies.
        # A new node that shares its component with a node already on
        # the path takes the whole path's joint marginal instead (0.0,
        # and the row goes, when two of them share a reference).
        prn = frontier.prn[parent] * tables.existence[neighbor]
        joint = np.flatnonzero(tables.keys[neighbor] >= 0)
        if joint.size:
            on_path = tables.keys[frontier.nodes[parent[joint]]]
            new = tables.keys[neighbor[joint], None]
            joint = joint[(on_path == new).any(axis=1)]
            self.fallback_rows += joint.size
            prn[joint] = component_table(self.peg).joint_existence(
                np.concatenate(
                    (frontier.nodes[parent[joint]], neighbor[joint, None]),
                    axis=1,
                ),
                tables.existence,
            )
        keep = prn > 0.0

        if label is None:  # every possible label, in support order
            keep = np.flatnonzero(keep)
            again, support = gather_rows(tables.sup_ptr, neighbor[keep])
            keep = keep[again]
            new_label = tables.sup_label[support]
            p_label = tables.sup_prob[support]
            del again, support
        else:
            p_label = tables.label_matrix[:, label][neighbor]
            keep = np.flatnonzero(keep & (p_label > 0.0))
            p_label = p_label[keep]
            new_label = np.full(keep.size, label, dtype=np.int64)
        parent, slots, neighbor = parent[keep], slots[keep], neighbor[keep]
        prn = prn[keep]
        # The pre-prune rows set the block's peak: hold no more columns
        # of them than the next step reads.
        del keep

        p_edge = tables.edge_probabilities(
            slots, frontier.labels[parent, -1], new_label
        )
        del slots
        prle = frontier.prle[parent] * p_edge * p_label
        keep = np.flatnonzero((p_edge > 0.0) & (prle * prn >= self.beta))
        parent, neighbor = parent[keep], neighbor[keep]
        return _Frontier(
            np.concatenate(
                (frontier.nodes[parent], neighbor[:, None]), axis=1
            ),
            np.concatenate(
                (frontier.labels[parent], new_label[keep, None]), axis=1
            ),
            prle[keep],
            prn[keep],
            None if targets is None
            else frontier.holds[parent] | targets[neighbor],
        )


class _Level:
    """One level's canonical rows: filed block by block in frontier order
    (:meth:`file`), grouped by sequence once (:meth:`group`).

    A filed block keeps its rows' nodes, ``prle``, ``prn`` and one
    integer per row naming its label sequence, not the label matrix
    (which it keeps only when ``len(sigma) ** width`` overflows one).
    """

    __slots__ = ("nodes", "codes", "prle", "prn")

    def __init__(self) -> None:
        self.nodes: list = []
        self.codes: list = []
        self.prle: list = []
        self.prn: list = []

    def file(self, tables: PegColumns, frontier: _Frontier) -> None:
        """Keep ``frontier``'s canonical rows.

        The canonical orientation is the lexicographically smaller of
        ``(labels, ids)`` and its reverse, labels compared through
        ``repr`` — their positions in ``sigma`` — and ties (single
        nodes) canonical.
        """
        nodes, labels = frontier.nodes, frontier.labels
        width = nodes.shape[1]
        rows = slice(None)
        if width > 1:
            # Labels decide from the outside in; under a palindrome of
            # labels the end nodes do (a path's nodes are distinct).
            canonical = nodes[:, 0] < nodes[:, -1]
            for column in reversed(range(width // 2)):
                ahead, behind = labels[:, column], labels[:, -1 - column]
                canonical = np.where(
                    ahead == behind, canonical, ahead < behind
                )
            rows = np.flatnonzero(canonical)
            nodes, labels = nodes[rows], labels[rows]
        if not nodes.shape[0]:
            return
        size = len(tables.sigma)
        if size ** width < 2 ** 62:  # one integer names a sequence
            codes = labels[:, 0]
            for column in range(1, width):
                codes = codes * size + labels[:, column]
        else:  # too many sequences for that: group() ranks the rows
            codes = labels
        self.nodes.append(nodes)
        self.codes.append(codes)
        self.prle.append(frontier.prle[rows])
        self.prn.append(frontier.prn[rows])

    def group(self, sigma: list) -> dict:
        """The filed rows as ``{labels: PathCandidates}``, sequences by
        first appearance, rows in filing order: one stable sort of the
        codes, then every block moved to its grouped rows and released,
        so no column is held twice."""
        if not self.codes:
            return {}
        width = self.nodes[0].shape[1]
        codes = np.concatenate(self.codes)
        self.codes = []
        sequences = None
        if codes.ndim == 2:  # label rows: their rank is the code
            sequences, codes = np.unique(codes, axis=0, return_inverse=True)
            codes = codes.reshape(-1)
        order = np.argsort(codes, kind="stable")
        starts = np.flatnonzero(np.diff(codes[order], prepend=-1))
        firsts = order[starts]
        if sequences is None:  # each group's labels from its integer
            sequences = np.stack(
                np.unravel_index(codes[firsts], (len(sigma),) * width), axis=1
            )
        del codes
        rank = np.empty_like(order)
        rank[order] = np.arange(order.size)
        del order
        nodes, prle, prn = (
            _scatter(parts, rank) for parts in (self.nodes, self.prle, self.prn)
        )
        bounds = np.append(starts, rank.size)
        per_key = {}
        # A group's first row is its earliest: groups by first appearance.
        for group in np.argsort(firsts).tolist():
            low, high = bounds[group], bounds[group + 1]
            key = tuple(sigma[label] for label in sequences[group].tolist())
            per_key[key] = PathCandidates(
                nodes[low:high], prle[low:high], prn[low:high]
            )
        return per_key


def _scatter(parts: list, rank: np.ndarray) -> np.ndarray:
    """One column from its consecutive blocks ``parts``, row ``i`` put at
    ``rank[i]``; each block is released once placed."""
    column = np.empty((rank.size, *parts[0].shape[1:]), dtype=parts[0].dtype)
    low = 0
    for index, part in enumerate(parts):
        parts[index] = None
        column[rank[low:low + len(part)]] = part
        low += len(part)
    return column


def bucket_payloads(grid: BucketGrid, rows: PathCandidates) -> list:
    """One sequence's rows as its ``[(bucket, payload)]``, ascending:
    THE filing rule — the grid's vectorized bucket rule, a stable
    group-by (rows keep their order inside a bucket), the columnar
    codec run once over the sorted rows and sliced per bucket. No row,
    no bucket."""
    buckets = grid.buckets_of(rows.prle * rows.prn)
    order = np.argsort(buckets, kind="stable")
    used, starts = np.unique(buckets[order], return_index=True)
    sorted_rows = rows.take(order)
    records = encode_path_records(
        sorted_rows.nodes, sorted_rows.prle, sorted_rows.prn
    )
    bounds = [*starts.tolist(), order.size]
    return [
        (bucket, records_payload(records[low:high]))
        for bucket, low, high in zip(used.tolist(), bounds, bounds[1:])
    ]


def _encoded(grid: BucketGrid, per_key: dict) -> Iterator[tuple]:
    """``(labels, bucket, payload)`` for every bucket of an enumeration,
    emptying ``per_key`` as it goes: a level's columns are released once
    its last sequence is encoded."""
    for labels in list(per_key):
        for bucket, payload in bucket_payloads(grid, per_key.pop(labels)):
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
