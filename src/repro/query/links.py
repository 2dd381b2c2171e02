"""Vectorized candidate-link construction with a versioned link cache.

:func:`repro.query.kpartite.build_candidate_links` — the pure-Python
reference — enumerates every (candidate, joinable candidate) pair
through per-vertex hash-table probes and one scalar
:func:`~repro.query.join_candidates.joined_probability` call per pair.
After PR 3 vectorized the reduction itself, that enumeration became the
online phase's dominant cost (~30x the reduce it feeds on the 30k-vertex
workload).

:func:`build_candidate_links_vectorized` replaces it with whole-array
passes per joining partition pair:

* **join-predicate matching** — the `JoinCandidateTables` key columns
  become sorted numpy id arrays; equal-key runs are found with
  ``np.argsort`` + ``np.searchsorted`` and expanded into all matching
  ``(vid, uid)`` pairs with one ``np.repeat``/arange pass, in the
  reference's (vid ascending, uid ascending) order,
* **joined-probability filter** — the same factors the scalar
  :func:`~repro.query.join_candidates.joined_probability` multiplies
  (labels in assignment order, edges in path-traversal order, existence
  marginals in assignment order) are gathered from the graph's columns
  (:class:`~repro.peg.arrays.PegProbabilityArrays`) and
  multiplied elementwise in the same per-element IEEE order, so the
  filter decisions — and the floats behind them — are bit-identical.
  Pairs whose assigned nodes share an identity component (where
  reference-sharing zeros and joint component marginals live) take
  their existence marginal from
  :meth:`~repro.peg.arrays.ComponentTable.joint_existence` in place of
  the product of gathers (``fallback_pairs`` counts them); pairs
  violating injectivity are zeroed like the reference.

:class:`LinkStructureCache` sits in front of the builder, per engine:
entries are keyed by canonical partition-pair signature × candidate
content fingerprints × milli-alpha × ``graph_version`` and hold the
*unfiltered* positive-probability pair arrays, so a hit only replays
the ``probs >= alpha`` mask. The key is the only invalidation:
``apply_updates`` bumps ``graph_version``, which re-keys every entry
(stale ones age out of the LRU); compaction leaves the PEG unchanged,
so entries stay valid across it.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.index.grid import milli
from repro.index.paths import as_candidates
from repro.obs.metrics import get_registry
from repro.peg.arrays import PegProbabilityArrays, component_table
from repro.peg.entity_graph import ProbabilisticEntityGraph
from repro.query.decompose import Decomposition
from repro.utils.lru import ResultCache

_REGISTRY = get_registry()
_LINK_CACHE_HITS = _REGISTRY.counter("repro_link_cache_hits_total")
_LINK_CACHE_MISSES = _REGISTRY.counter("repro_link_cache_misses_total")
_LINK_PAIRS = _REGISTRY.counter("repro_link_pairs_total")
_LINK_FALLBACK_PAIRS = _REGISTRY.counter("repro_link_fallback_pairs_total")


class LinkSet:
    """Per-partition-pair link arrays, the vectorized builder's output.

    ``arrays`` maps each joining ``(i, j)`` with ``i < j`` to a
    ``(rows, cols)`` pair of int64 arrays — partition-``i`` and
    partition-``j`` vertex ids, row-major sorted (vid ascending, uid
    ascending), exactly the pairs the reference builder would emit.
    Both reduction backends accept a ``LinkSet`` wherever they accept
    the reference's ``{(i, j): [(vid, uid), ...]}`` dict;
    :meth:`pair_lists` converts to that dict form (tests compare the
    two builders through it).
    """

    def __init__(self, arrays: dict, stats: dict) -> None:
        self.arrays = arrays
        #: Build statistics: backend, kept ``pairs``, cache
        #: ``hits``/``misses`` (per partition pair), and
        #: ``fallback_pairs`` (pairs with a joint existence marginal).
        self.stats = stats

    def pair_lists(self) -> dict:
        """The reference builder's ``{(i, j): [(vid, uid), ...]}`` form."""
        return {
            pair: list(zip(rows.tolist(), cols.tolist()))
            for pair, (rows, cols) in self.arrays.items()
        }

    def get(self, pair, default=None):
        """Dict-style access used by the CSR construction."""
        return self.arrays.get(pair, default)

    def items(self):
        """Iterate ``((i, j), (rows, cols))`` like the dict form."""
        return self.arrays.items()

    def num_pairs(self) -> int:
        """Total links across all partition pairs."""
        return sum(int(rows.size) for rows, _ in self.arrays.values())


class LinkStructureCache:
    """Thread-safe LRU of link structures, keyed per partition pair.

    Values are ``(rows, cols, probs)`` for *every* predicate-matched
    pair with positive joined probability — pre-alpha-filter — so one
    entry serves any threshold over the same candidate id spaces; the
    fingerprints in the key pin those id spaces to exact candidate
    content. Entries are immutable (retrieval masks into fresh arrays),
    so concurrent readers share them safely.
    """

    def __init__(self, capacity: int = 32) -> None:
        self._cache = ResultCache(capacity)

    @property
    def capacity(self) -> int:
        """Maximum number of cached partition-pair structures."""
        return self._cache.capacity

    def __len__(self) -> int:
        return len(self._cache)

    def get(self, key):
        """Cached ``(rows, cols, probs)`` for ``key``, or ``None``."""
        entry = self._cache.get(key)
        (_LINK_CACHE_MISSES if entry is None else _LINK_CACHE_HITS).inc()
        return entry

    def put(self, key, value) -> None:
        """Insert one partition-pair structure."""
        self._cache.put(key, value)

    def stats_snapshot(self) -> dict:
        """This cache's size plus the process-wide hit/miss counters."""
        return {
            "link_cache_size": len(self._cache),
            "link_cache_capacity": self._cache.capacity,
            "link_cache_hits": _LINK_CACHE_HITS.value,
            "link_cache_misses": _LINK_CACHE_MISSES.value,
        }


def pair_signature(decomposition: Decomposition, i: int, j: int) -> tuple:
    """Canonical signature of one joining partition pair.

    Label sequences of both paths plus the join-predicate position
    pairs: what the link structure depends on besides the candidate
    contents (fingerprinted separately) and the PEG (versioned
    separately).
    """
    query = decomposition.query
    return (
        tuple(query.label(node) for node in decomposition.paths[i].nodes),
        tuple(query.label(node) for node in decomposition.paths[j].nodes),
        decomposition.predicates_between(i, j),
    )


def _fingerprint(matrix: np.ndarray) -> tuple:
    """Content fingerprint of one partition's candidate node matrix."""
    data = np.ascontiguousarray(matrix)
    return (matrix.shape, hashlib.sha1(data.tobytes()).hexdigest())


def _equi_join(key_i: np.ndarray, key_j: np.ndarray) -> tuple:
    """All ``(row, col)`` index pairs with equal key tuples.

    ``key_i``/``key_j`` are ``(n, m)`` int64 key-column matrices (one
    row per candidate, one column per join predicate). Pairs come out
    in (row ascending, col ascending) order — the reference builder's
    enumeration order.
    """
    n_i, n_j = key_i.shape[0], key_j.shape[0]
    empty = np.zeros(0, dtype=np.int64)
    if n_i == 0 or n_j == 0:
        return empty, empty.copy()
    if key_i.shape[1] == 1:
        gid_i = key_i[:, 0]
        gid_j = key_j[:, 0]
    else:
        stacked = np.concatenate([key_i, key_j], axis=0)
        _, inverse = np.unique(stacked, axis=0, return_inverse=True)
        inverse = np.asarray(inverse, dtype=np.int64).reshape(-1)
        gid_i = inverse[:n_i]
        gid_j = inverse[n_i:]
    order_j = np.argsort(gid_j, kind="stable")
    sorted_j = gid_j[order_j]
    starts = np.searchsorted(sorted_j, gid_i, side="left")
    ends = np.searchsorted(sorted_j, gid_i, side="right")
    counts = ends - starts
    total = int(counts.sum())
    if total == 0:
        return empty, empty.copy()
    rows = np.repeat(np.arange(n_i, dtype=np.int64), counts)
    run_starts = np.cumsum(counts) - counts
    offsets = np.arange(total, dtype=np.int64) - np.repeat(run_starts, counts)
    cols = order_j[np.repeat(starts, counts) + offsets]
    return rows, np.asarray(cols, dtype=np.int64)


def _assignment_spec(decomposition: Decomposition, i: int, j: int) -> list:
    """Deduplicated query-node assignment order of the joined pair.

    ``(side, position, query_node)`` triples in the scalar reference's
    ``assigned``-dict insertion order: path ``i`` first, then path
    ``j``, first occurrence per query node.
    """
    spec: list = []
    seen: set = set()
    for side, path in ((0, decomposition.paths[i]), (1, decomposition.paths[j])):
        for position, query_node in enumerate(path.nodes):
            if query_node in seen:
                continue
            seen.add(query_node)
            spec.append((side, position, query_node))
    return spec


def _pair_probabilities(
    peg: ProbabilisticEntityGraph,
    decomposition: Decomposition,
    arrays: PegProbabilityArrays,
    nodes_i: np.ndarray,
    nodes_j: np.ndarray,
    i: int,
    j: int,
) -> tuple:
    """All predicate-matched pairs of ``(i, j)`` with positive probability.

    Returns ``(rows, cols, probs, fallback_count)``: vertex ids and the
    exact joined probability per surviving pair, plus how many pairs
    took a joint existence marginal (shared identity components).
    """
    query = decomposition.query
    predicates = decomposition.predicates_between(i, j)
    key_i = nodes_i[:, [pos_i for pos_i, _ in predicates]]
    key_j = nodes_j[:, [pos_j for _, pos_j in predicates]]
    rows, cols = _equi_join(key_i, key_j)
    if rows.size == 0:
        return rows, cols, np.zeros(0, dtype=np.float64), 0

    spec = _assignment_spec(decomposition, i, j)
    assigned_ids = [
        nodes_i[rows, position] if side == 0 else nodes_j[cols, position]
        for side, position, _ in spec
    ]
    position_of = {query_node: idx for idx, (_, _, query_node) in enumerate(spec)}
    m = len(spec)

    # Injectivity: distinct query nodes need distinct entities.
    valid = np.ones(rows.shape, dtype=bool)
    for a in range(m):
        for b in range(a + 1, m):
            valid &= assigned_ids[a] != assigned_ids[b]

    # Pairs with two assigned nodes in one identity component are the
    # only place reference sharing or joint existence marginals can
    # appear; they take the joint marginal below.
    keys = arrays.component_keys()
    shared_component = np.zeros(rows.shape, dtype=bool)
    for a in range(m):
        key_a = keys[assigned_ids[a]]
        for b in range(a + 1, m):
            shared_component |= key_a == keys[assigned_ids[b]]
    joint = np.flatnonzero(valid & shared_component)

    # Elementwise joined probability in the scalar reference's factor
    # order: labels in assignment order, then path-traversal edges
    # (deduplicated by query edge), then the existence marginal of the
    # assigned nodes — a product of gathers, or the joint one.
    probs = np.ones(rows.shape, dtype=np.float64)
    for idx, (_, _, query_node) in enumerate(spec):
        label_probs = arrays.label_probabilities(query.label(query_node))
        probs *= label_probs[assigned_ids[idx]]
    seen_edges: set = set()
    for path in (decomposition.paths[i], decomposition.paths[j]):
        for node_a, node_b in zip(path.nodes, path.nodes[1:]):
            edge = frozenset((node_a, node_b))
            if edge in seen_edges:
                continue
            seen_edges.add(edge)
            probs *= arrays.edge_probabilities(
                assigned_ids[position_of[node_a]],
                assigned_ids[position_of[node_b]],
                query.label(node_a),
                query.label(node_b),
            )
    existence = arrays.existence_probabilities()
    prn = np.ones(rows.shape, dtype=np.float64)
    for idx in range(m):
        prn *= existence[assigned_ids[idx]]
    if joint.size:
        prn[joint] = component_table(peg).joint_existence(
            np.stack([ids[joint] for ids in assigned_ids], axis=1), existence
        )
    probs *= prn
    probs[~valid] = 0.0
    keep = probs > 0.0
    return rows[keep], cols[keep], probs[keep], joint.size


def build_candidate_links_vectorized(
    peg: ProbabilisticEntityGraph,
    decomposition: Decomposition,
    candidates: dict,
    alpha: float,
    arrays: PegProbabilityArrays | None = None,
    cache: LinkStructureCache | None = None,
    graph_version: int = 0,
) -> LinkSet:
    """Vectorized counterpart of ``build_candidate_links``.

    Produces the exact link sets of the pure-Python reference — same
    ``(i, j)`` keys, same pairs, same (vid ascending, uid ascending)
    order — as numpy arrays, via bulk predicate joins and an
    elementwise joined-probability filter over the graph's columns
    (:class:`~repro.peg.arrays.PegProbabilityArrays`, made from ``peg``
    when ``arrays`` is omitted).

    ``cache`` (a :class:`LinkStructureCache`) short-circuits the build
    per partition pair; ``graph_version`` must then be the owning
    engine's current version so mutated PEGs never serve stale links.
    """
    alpha = float(alpha)
    if arrays is None:
        arrays = PegProbabilityArrays(peg)
    # Columns as the lookup stage left them (lists of paths, from
    # tests and the reference finder, are converted once).
    candidates = {
        index: as_candidates(found, len(decomposition.paths[index].nodes))
        for index, found in candidates.items()
    }
    fingerprints: dict = {}

    def fingerprint(index: int) -> tuple:
        value = fingerprints.get(index)
        if value is None:
            value = _fingerprint(candidates[index].nodes)
            fingerprints[index] = value
        return value

    links: dict = {}
    stats = {
        "backend": "vectorized",
        "pairs": 0,
        "cache_hits": 0,
        "cache_misses": 0,
        "fallback_pairs": 0,
    }
    for i, joined in decomposition.joins_with.items():
        for j in joined:
            if j < i:
                continue  # links are symmetric; build once per pair
            key = None
            if cache is not None:
                key = (
                    pair_signature(decomposition, i, j),
                    fingerprint(i),
                    fingerprint(j),
                    milli(alpha),
                    int(graph_version),
                )
                entry = cache.get(key)
                if entry is not None:
                    rows, cols, probs = entry
                    mask = probs >= alpha
                    links[(i, j)] = (rows[mask], cols[mask])
                    stats["cache_hits"] += 1
                    continue
                stats["cache_misses"] += 1
            rows, cols, probs, fallback = _pair_probabilities(
                peg, decomposition, arrays,
                candidates[i].nodes, candidates[j].nodes, i, j,
            )
            if cache is not None:
                cache.put(key, (rows, cols, probs))
            mask = probs >= alpha
            links[(i, j)] = (rows[mask], cols[mask])
            stats["fallback_pairs"] += fallback
    stats["pairs"] = sum(int(rows.size) for rows, _ in links.values())
    _LINK_PAIRS.inc(stats["pairs"])
    _LINK_FALLBACK_PAIRS.inc(stats["fallback_pairs"])
    return LinkSet(links, stats)
