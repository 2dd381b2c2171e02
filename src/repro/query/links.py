"""Stacked candidate-link construction with a versioned link cache.

The paper's reduction by join-candidates (Section 5.2.3) links every
candidate to the joinable candidates of each partition it joins.
:func:`repro.query.kpartite.build_candidate_links` — the pure-Python
reference — enumerates those (candidate, joinable candidate) pairs
through per-vertex hash-table probes and one scalar
:func:`~repro.query.join_candidates.joined_probability` call per pair.

:func:`build_candidate_links_vectorized` builds every joining partition
pair of a query in one stacked pass, so the number of numpy calls it
makes does not grow with the number of pairs:

* **vertex table** — the partitions' candidate node matrices stacked
  into one; a vertex's global id is its partition's offset plus its
  row, the ids :class:`~repro.query.reduction.VectorizedKPartiteGraph`
  numbers its vertices by,
* **join-predicate matching** — one equi-join over composite
  ``(pair, key columns)`` integers (where the composite would overflow
  int64, ``np.unique(axis=0)`` numbers the key rows instead), each
  pair's matches in the reference's (vid ascending, uid ascending)
  order,
* **joined-probability filter** — one assigned-id matrix padded to the
  widest pair and one factor matrix gathered from the graph's columns:
  labels in assignment order, edges in path-traversal order, existence
  marginals in assignment order, each padded with 1.0. Multiplying by
  1.0 is exact and the product runs along the factor axis in that
  order, so every link's probability is the float the scalar
  ``joined_probability`` computes, bit for bit. Links whose assigned
  nodes share an identity component (where reference-sharing zeros and
  joint component marginals live) take their existence marginal from
  :meth:`~repro.peg.arrays.ComponentTable.joint_existence`, one call
  per assignment width (``fallback_pairs`` counts them); links
  violating injectivity are dropped like the reference's,
* **entry list** — the kept links in both orientations, sorted by
  (row, col), which is (row, neighbour partition, col) order: the
  :class:`StackedLinks` the reduction adopts as it is.

The pass reads per-pair tables (:class:`_LinkPlan`) that depend on the
decomposition's shape alone — its paths, with query nodes numbered by
first appearance — so they are derived once per shape and memoized
(:func:`link_plan`): plan-cache rehydrations, queries after a live
update and renamed queries all reuse them. The per-pair builder the
stacked pass replaced is the oracle
:func:`repro.testing.reference.per_pair_links`.

:class:`LinkStructureCache` sits in front of the builder, per engine:
entries are keyed by canonical partition-pair signature × candidate
content fingerprints × milli-alpha × ``graph_version`` and hold the
*unfiltered* positive-probability links of one pair with its
``fallback_pairs`` count, so a hit only replays the ``probs >= alpha``
mask. Hits are served first; the missing pairs go through one stacked
pass. The key is the only invalidation: ``apply_updates`` bumps
``graph_version``, which re-keys every entry (stale ones age out of the
LRU); compaction leaves the PEG unchanged, so entries stay valid across
it.
"""

from __future__ import annotations

import hashlib
import itertools

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

#: Largest composite join key; past it the key rows are numbered by
#: ``np.unique(axis=0)`` instead.
_KEY_LIMIT = int(np.iinfo(np.int64).max)

#: Link plans by decomposition shape (:func:`link_plan`); a plan is a
#: pure function of its key, so entries never go stale.
_PLANS = ResultCache(256)

_NO_IDS = np.zeros(0, dtype=np.int64)


class StackedLinks:
    """The link builder's output, in the shape the reduction reads.

    ``nodes`` is the stacked vertex table: row ``offsets[i] + vid``
    holds the PEG node ids of candidate ``vid`` of partition ``i``
    (zero-padded to the widest path). ``rows`` and ``cols`` are the
    directed entry list: every link in both orientations as global
    vertex ids, sorted by (row, col) — (row, neighbour partition, col)
    order, since global ids ascend with the partition. ``pairs`` are the
    joining ``(i, j)``, ``i < j``.
    """

    def __init__(self, pairs, nodes, offsets, rows, cols, stats) -> None:
        self.pairs = pairs
        self.nodes = nodes
        self.offsets = offsets
        self.rows = rows
        self.cols = cols
        #: Build statistics: backend, kept ``pairs`` (links), cache
        #: ``hits``/``misses`` (per partition pair), and
        #: ``fallback_pairs`` (links with a joint existence marginal).
        self.stats = stats

    def pair_lists(self) -> dict:
        """The reference builder's ``{(i, j): [(vid, uid), ...]}`` form."""
        offsets = self.offsets
        row_part = np.searchsorted(offsets, self.rows, side="right") - 1
        col_part = np.searchsorted(offsets, self.cols, side="right") - 1
        lists = {}
        for i, j in self.pairs:
            mine = (row_part == i) & (col_part == j)
            lists[(i, j)] = list(zip(
                (self.rows[mine] - offsets[i]).tolist(),
                (self.cols[mine] - offsets[j]).tolist(),
            ))
        return lists


def _stack_vertices(decomposition: Decomposition, candidates: dict) -> tuple:
    """``(nodes, offsets)``: the partitions' candidate node matrices as
    one zero-padded table, partition ``i`` at rows
    ``offsets[i]:offsets[i + 1]``."""
    paths = decomposition.paths
    matrices = [
        as_candidates(candidates[i], len(path.nodes)).nodes
        for i, path in enumerate(paths)
    ]
    bounds = [0, *itertools.accumulate(len(matrix) for matrix in matrices)]
    width = max((len(path.nodes) for path in paths), default=0)
    nodes = np.zeros((bounds[-1], width), dtype=np.int64)
    for low, high, matrix in zip(bounds, bounds[1:], matrices):
        nodes[low:high, :matrix.shape[1]] = matrix
    return nodes, np.array(bounds, dtype=np.int64)


def links_from_pairs(
    decomposition: Decomposition, candidates: dict, pairs: dict
) -> StackedLinks:
    """The reference's ``{(i, j): [(vid, uid), ...]}`` links as
    :class:`StackedLinks` over ``candidates``."""
    nodes, offsets = _stack_vertices(decomposition, candidates)
    rows, cols = [_NO_IDS], [_NO_IDS]
    for (i, j), links in pairs.items():
        ids = np.array(links, dtype=np.int64).reshape(-1, 2)
        rows.append(ids[:, 0] + offsets[i])
        cols.append(ids[:, 1] + offsets[j])
    rows, cols = _entries(
        np.concatenate(rows), np.concatenate(cols), len(nodes)
    )
    stats = {
        "backend": "python",
        "pairs": sum(map(len, pairs.values())),
        "cache_hits": 0,
        "cache_misses": 0,
        "fallback_pairs": 0,
    }
    return StackedLinks(
        sorted(decomposition.join_predicates), nodes, offsets, rows, cols, stats
    )


def _entries(rows: np.ndarray, cols: np.ndarray, size: int) -> tuple:
    """Links as the directed entry list: both orientations, (row, col)
    order."""
    source = np.concatenate((rows, cols))
    target = np.concatenate((cols, rows))
    order = (source * max(size, 1) + target).argsort()
    return source[order], target[order]


class _LinkPlan:
    """The per-pair tables one decomposition's stacked pass reads.

    Positional: a query node is named by its first ``(path, position)``
    and a pair's *slots* — its assigned query nodes, path ``i``'s first,
    then path ``j``'s, first occurrence each — by ``(side, position)``,
    so one plan serves every renaming of the decomposition. Tables are
    ``(rows, pairs)``:

    * ``partitions`` ``(2, P)`` — the two partitions of every pair,
    * ``key_positions`` ``(2, P, keys)`` — the join-predicate positions
      on each side, padded by repeating the first,
    * ``gather_side`` / ``gather_pos`` / ``gather_node`` ``(R, P)`` —
      where every slot (rows ``:slots``), every edge's first endpoint
      (the next ``edges``) and second endpoint (the last ``edges``)
      reads its PEG node, and which query node's label it carries,
    * ``pad`` ``(2 slots + edges, P)`` — the factor rows a pair does not
      fill (label slots, edges, existence slots): they multiply by 1.0,
    * ``distinct`` ``(slots, slots, P)`` — the slot pairs ``a < b`` a
      pair holds, which injectivity and component sharing compare,
    * ``width`` ``(P,)`` — every pair's slot count.
    """

    def __init__(self, decomposition: Decomposition) -> None:
        paths = [path.nodes for path in decomposition.paths]
        self.pairs = pairs = sorted(decomposition.join_predicates)
        first: dict = {}
        for index, nodes in enumerate(paths):
            for position, node in enumerate(nodes):
                first.setdefault(node, (index, position))
        #: ``(path, position)`` of every distinct query node.
        self.node_refs = list(first.values())
        node_index = {node: n for n, node in enumerate(first)}
        keys, slots, edges = [], [], []
        for i, j in pairs:
            keys.append(list(zip(*decomposition.join_predicates[(i, j)])))
            slot_of: dict = {}
            pair_slots = []
            for side, nodes in ((0, paths[i]), (1, paths[j])):
                for position, node in enumerate(nodes):
                    if node not in slot_of:
                        slot_of[node] = len(pair_slots)
                        pair_slots.append((side, position, node_index[node]))
            seen: set = set()
            pair_edges = []
            for nodes in (paths[i], paths[j]):
                for a, b in zip(nodes, nodes[1:]):
                    edge = frozenset((a, b))
                    if edge not in seen:
                        seen.add(edge)
                        pair_edges.append((pair_slots[slot_of[a]],
                                           pair_slots[slot_of[b]]))
            slots.append(pair_slots)
            edges.append(pair_edges)
        count = len(pairs)
        self.slots = m = max(map(len, slots), default=0)
        self.edges = e = max(map(len, edges), default=0)
        key_width = max((len(pair_keys[0]) for pair_keys in keys), default=0)
        self.partitions = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
        self.key_positions = np.array([
            [side + side[:1] * (key_width - len(side)) for side in pair_keys]
            for pair_keys in keys
        ], dtype=np.int64).reshape(count, 2, key_width).transpose(1, 0, 2)
        # Per pair, one (side, position, node) per gather row; a padded
        # row reads the pair's first slot, whose factor ``pad`` replaces.
        gather = np.array([
            pair_slots + pair_slots[:1] * (m - len(pair_slots))
            + [a for a, _ in pair_edges] + pair_slots[:1] * (e - len(pair_edges))
            + [b for _, b in pair_edges] + pair_slots[:1] * (e - len(pair_edges))
            for pair_slots, pair_edges in zip(slots, edges)
        ], dtype=np.int64).reshape(count, m + 2 * e, 3).T
        self.gather_side = gather[0] == 1
        self.gather_pos = np.ascontiguousarray(gather[1])
        self.gather_node = np.ascontiguousarray(gather[2])
        self.width = np.array([len(s) for s in slots], dtype=np.int64)
        slot_pad = np.arange(m)[:, None] >= self.width
        edge_pad = np.arange(e)[:, None] >= [len(s) for s in edges]
        self.pad = np.concatenate((slot_pad, edge_pad, slot_pad))
        slot = np.arange(m)
        self.distinct = (slot[:, None] < slot)[..., None] & ~slot_pad


def link_plan(decomposition: Decomposition) -> _LinkPlan:
    """The decomposition's :class:`_LinkPlan`, memoized by its paths
    with every query node numbered by first appearance — all the plan
    depends on, so plan-cache rehydrations, later graph versions and
    other queries of the same shape share one."""
    first: dict = {}
    shape = tuple(
        tuple(first.setdefault(node, len(first)) for node in path.nodes)
        for path in decomposition.paths
    )
    plan = _PLANS.get(shape)
    if plan is None:
        plan = _LinkPlan(decomposition)
        _PLANS.put(shape, plan)
    return plan


def _join(plan: _LinkPlan, nodes: np.ndarray, offsets: np.ndarray,
          pairs: np.ndarray, size: int) -> tuple:
    """``(rows, cols, pair)`` of every predicate-matched candidate pair
    of the plan's ``pairs`` (global vertex ids, plan pair indices):
    pair-major, each pair's in (row ascending, col ascending) order."""
    count = pairs.size
    parts = plan.partitions[:, pairs].reshape(-1)  # left sides, then right
    lengths = (offsets[1:] - offsets[:-1])[parts]
    ends = lengths.cumsum()
    vertex = (offsets[parts] - (ends - lengths)).repeat(lengths)
    vertex += np.arange(vertex.size)
    side = np.arange(2 * count).repeat(lengths)
    positions = plan.key_positions[:, pairs].reshape(2 * count, -1)[side]
    values = nodes.reshape(-1)[vertex[:, None] * nodes.shape[1] + positions]
    pair = np.concatenate((pairs, pairs))[side]
    width = values.shape[1]
    if len(plan.pairs) * size ** width <= _KEY_LIMIT:
        composite = values @ size ** np.arange(width, dtype=np.int64)
        composite += pair * size ** width
    else:
        _, composite = np.unique(
            np.column_stack((pair, values)), axis=0, return_inverse=True
        )
        composite = composite.reshape(-1)
    split = int(ends[count - 1])
    order = composite[split:].argsort(kind="stable")
    ordered = composite[split:][order]
    low = np.searchsorted(ordered, composite[:split], side="left")
    matched = np.searchsorted(ordered, composite[:split], side="right") - low
    runs = matched.cumsum()
    at = (low - (runs - matched)).repeat(matched)
    at += np.arange(at.size)
    return (
        vertex[:split].repeat(matched),
        vertex[split:][order[at]],
        pair[:split].repeat(matched),
    )


def _stacked_pass(
    peg: ProbabilisticEntityGraph,
    decomposition: Decomposition,
    arrays: PegProbabilityArrays,
    nodes: np.ndarray,
    offsets: np.ndarray,
    pairs: np.ndarray,
) -> tuple:
    """Every predicate-matched link of the plan's ``pairs`` with positive
    joined probability: ``(rows, cols, pair, probs, fallback)``, rows
    and cols global vertex ids, pair-major as :func:`_join` leaves them;
    ``fallback`` counts per plan pair the links that took a joint
    existence marginal."""
    plan = link_plan(decomposition)
    columns = arrays.peg.columns
    rows, cols, pair = _join(plan, nodes, offsets, pairs, columns.size)
    m, e = plan.slots, plan.edges

    # Every slot's and edge endpoint's PEG node and label column.
    stride = nodes.shape[1]
    ids = nodes.reshape(-1)[
        np.where(plan.gather_side[:, pair], cols * stride, rows * stride)
        + plan.gather_pos[:, pair]
    ]
    assigned = ids[:m]
    paths, query = decomposition.paths, decomposition.query
    label_pos = columns.label_pos
    labels = np.array([
        label_pos.get(query.label(paths[path].nodes[position]), -1)
        for path, position in plan.node_refs
    ], dtype=np.int64)
    missing = labels < 0  # a label outside Σ: its factor is 0.0
    labels = np.maximum(labels, 0)[plan.gather_node[:, pair]]

    # Factor rows: labels, edges, existence marginals; padding is 1.0.
    factors = np.zeros((2 * m + e, rows.size))
    factors[:m] = columns.label_matrix[assigned, labels[:m]]
    if missing.any():
        factors[:m][missing[plan.gather_node[:m, pair]]] = 0.0
    slots, found = columns.slots(ids[m:m + e], ids[m + e:])
    if found.any():
        np.copyto(
            factors[m:m + e],
            columns.edge_probabilities(slots, labels[m:m + e], labels[m + e:]),
            where=found,
        )
    factors[m + e:] = columns.existence[assigned]
    np.copyto(factors, 1.0, where=plan.pad[:, pair])

    # Injectivity, and the links holding two nodes of one component.
    distinct = plan.distinct[:, :, pair]
    keys = columns.keys[assigned]
    valid = ~((assigned[:, None] == assigned[None]) & distinct).any(axis=(0, 1))
    shared = ((keys[:, None] == keys[None]) & distinct).any(axis=(0, 1))
    joint = (valid & shared).nonzero()[0]
    prn = np.multiply.reduce(factors[m + e:], axis=0)
    if joint.size:
        table = component_table(peg)
        widths = plan.width[pair[joint]]
        for width in np.unique(widths).tolist():
            at = joint[widths == width]
            prn[at] = table.joint_existence(
                assigned[:width, at].T, columns.existence
            )
    probs = np.multiply.reduce(factors[:m + e], axis=0)
    probs *= prn
    keep = valid & (probs > 0.0)
    fallback = np.bincount(pair[joint], minlength=len(plan.pairs))
    return rows[keep], cols[keep], pair[keep], probs[keep], fallback


def _split(plan, offsets, pairs, rows, cols, pair, probs, fallback) -> list:
    """A stacked pass's output as one ``(rows, cols, probs, fallback)``
    per plan pair of ``pairs``, in partition vertex ids (views)."""
    rows = rows - offsets[plan.partitions[0, pair]]
    cols = cols - offsets[plan.partitions[1, pair]]
    bounds = np.searchsorted(pair, np.arange(len(plan.pairs) + 1)).tolist()
    counts = fallback.tolist()
    return [
        (
            rows[bounds[p]:bounds[p + 1]],
            cols[bounds[p]:bounds[p + 1]],
            probs[bounds[p]:bounds[p + 1]],
            counts[p],
        )
        for p in pairs.tolist()
    ]


def link_probabilities(
    peg: ProbabilisticEntityGraph,
    decomposition: Decomposition,
    candidates: dict,
    arrays: PegProbabilityArrays | None = None,
) -> dict:
    """``{(i, j): (rows, cols, probs, fallback)}`` of every joining pair
    from one stacked pass: the predicate-matched links with positive
    joined probability as partition vertex ids, before any α — what a
    :class:`LinkStructureCache` entry holds."""
    if arrays is None:
        arrays = PegProbabilityArrays(peg)
    plan = link_plan(decomposition)
    nodes, offsets = _stack_vertices(decomposition, candidates)
    every = np.arange(len(plan.pairs))
    if not every.size:
        return {}
    built = _stacked_pass(peg, decomposition, arrays, nodes, offsets, every)
    return dict(zip(plan.pairs, _split(plan, offsets, every, *built)))


class LinkStructureCache:
    """Thread-safe LRU of link structures, keyed per partition pair.

    Values are ``(rows, cols, probs, fallback)``: *every*
    predicate-matched pair with positive joined probability —
    pre-alpha-filter — so one entry serves any threshold over the same
    candidate id spaces, and how many of them took a joint existence
    marginal; the fingerprints in the key pin those id spaces to exact
    candidate content. Entries are immutable (retrieval masks into
    fresh arrays), so concurrent readers share them safely.
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
        """Cached ``(rows, cols, probs, fallback)`` for ``key``, or ``None``."""
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


def pair_signature(
    labels: list, decomposition: Decomposition, i: int, j: int
) -> tuple:
    """Canonical signature of the joining partition pair ``i < j``.

    Label sequences of both paths (``labels`` holds every path's) plus
    the join-predicate position pairs: what the link structure depends
    on besides the candidate contents (fingerprinted separately) and the
    PEG (versioned separately).
    """
    return (labels[i], labels[j], decomposition.join_predicates[(i, j)])


def _fingerprint(matrix: np.ndarray) -> tuple:
    """Content fingerprint of one partition's candidate node matrix."""
    data = np.ascontiguousarray(matrix)
    return (matrix.shape, hashlib.sha1(data.tobytes()).hexdigest())


def build_candidate_links_vectorized(
    peg: ProbabilisticEntityGraph,
    decomposition: Decomposition,
    candidates: dict,
    alpha: float,
    arrays: PegProbabilityArrays | None = None,
    cache: LinkStructureCache | None = None,
    graph_version: int = 0,
) -> StackedLinks:
    """Vectorized counterpart of ``build_candidate_links``.

    Produces the exact links of the pure-Python reference — the same
    pairs of every joining ``(i, j)`` — as :class:`StackedLinks`, via
    one stacked predicate join and one joined-probability filter over
    the graph's columns (:class:`~repro.peg.arrays.PegProbabilityArrays`,
    made from ``peg`` when omitted) for all pairs at once.

    ``cache`` (a :class:`LinkStructureCache`) short-circuits the build
    per partition pair; ``graph_version`` must then be the owning
    engine's current version so mutated PEGs never serve stale links.
    """
    alpha = float(alpha)
    if arrays is None:
        arrays = PegProbabilityArrays(peg)
    plan = link_plan(decomposition)
    nodes, offsets = _stack_vertices(decomposition, candidates)
    stats = {
        "backend": "vectorized",
        "pairs": 0,
        "cache_hits": 0,
        "cache_misses": 0,
        "fallback_pairs": 0,
    }
    keys: list = []
    hits: list = []
    misses = list(range(len(plan.pairs)))
    if cache is not None and misses:
        label = decomposition.query.label
        labels = [tuple(map(label, path.nodes)) for path in decomposition.paths]
        fingerprint = [
            _fingerprint(as_candidates(candidates[i], len(path.nodes)).nodes)
            for i, path in enumerate(decomposition.paths)
        ]
        misses = []
        for p, (i, j) in enumerate(plan.pairs):
            key = (
                pair_signature(labels, decomposition, i, j),
                fingerprint[i],
                fingerprint[j],
                milli(alpha),
                int(graph_version),
            )
            keys.append(key)
            entry = cache.get(key)
            if entry is None:
                misses.append(p)
            else:
                hits.append((i, j, entry))
        stats["cache_hits"] = len(hits)
        stats["cache_misses"] = len(misses)

    rows, cols = [_NO_IDS], [_NO_IDS]
    for i, j, (pair_rows, pair_cols, probs, fallback) in hits:
        mask = probs >= alpha
        rows.append(pair_rows[mask] + offsets[i])
        cols.append(pair_cols[mask] + offsets[j])
        stats["fallback_pairs"] += fallback
    if misses:
        misses = np.array(misses, dtype=np.int64)
        built = _stacked_pass(peg, decomposition, arrays, nodes, offsets, misses)
        if cache is not None:
            entries = _split(plan, offsets, misses, *built)
            for p, entry in zip(misses.tolist(), entries):
                cache.put(keys[p], entry)
        pair_rows, pair_cols, _, probs, fallback = built
        mask = probs >= alpha
        rows.append(pair_rows[mask])
        cols.append(pair_cols[mask])
        stats["fallback_pairs"] += int(fallback.sum())
    rows = np.concatenate(rows)
    stats["pairs"] = int(rows.size)
    rows, cols = _entries(rows, np.concatenate(cols), len(nodes))
    _LINK_PAIRS.inc(stats["pairs"])
    _LINK_FALLBACK_PAIRS.inc(stats["fallback_pairs"])
    return StackedLinks(plan.pairs, nodes, offsets, rows, cols, stats)
