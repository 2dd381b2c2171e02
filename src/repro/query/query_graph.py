"""Query graphs: labeled undirected patterns (Section 4).

A query graph ``Q = (V_Q, E_Q, l_Q)`` assigns exactly one label from the
alphabet to every node. Matches must map every query node to a distinct
entity whose label set contains the query label, with every query edge
present (Definition 3, generalized to multi-label entity nodes).
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Mapping, Tuple

from repro.utils.errors import QueryError

#: Bound on canonical-labeling leaf orderings explored; only highly
#: symmetric queries (where the surviving orderings encode identically
#: anyway) ever come near it.
_CANONICAL_LEAF_CAP = 2000


def _refine(colors: list, adjacency: list) -> list:
    """1-WL refinement of ``colors`` (an int per node) to a stable
    partition: a color becomes the rank of its node's ``(color, sorted
    neighbour colors)`` signature. A bijection mapping the input
    colors of one graph onto another's maps the output colors too."""
    num_colors = len(set(colors))
    while True:
        sigs = [
            (colors[v], tuple(sorted([colors[w] for w in around])))
            for v, around in enumerate(adjacency)
        ]
        ranks = {s: i for i, s in enumerate(sorted(set(sigs)))}
        if len(ranks) == num_colors:
            return [ranks[s] for s in sigs]
        colors = [ranks[s] for s in sigs]
        num_colors = len(ranks)


def _orbit_constraints(labels: list, adjacency: list) -> list:
    """Symmetry-breaking pairs ``(base, u)``, ``base < u``, of the graph
    with node ``i`` labeled ``labels[i]`` and adjacent to
    ``adjacency[i]``, with bases in node order.

    A base's orbit under the automorphisms fixing every earlier base
    lies in its cell of the refinement that individualizes those
    bases. A cell member is in the orbit when the automorphisms found
    so far that fix the earlier bases reach it (their union-find
    closure), or else when :func:`_automorphism` finds one mapping the
    base onto it.
    """
    count = len(labels)
    palette: dict = {}
    start = [palette.setdefault(label, len(palette)) for label in labels]
    neighbours = [frozenset(around) for around in adjacency]
    found: list = []  # node -> image, one list per automorphism found
    pairs: list = []
    for base in range(count):
        colors = _refine(
            [-1 - v if v < base else c for v, c in enumerate(start)],
            adjacency,
        )
        if len(set(colors)) == count:
            break  # the stabilizer of the earlier bases is trivial
        cell = [u for u in range(count) if colors[u] == colors[base]]
        if len(cell) == 1:
            continue
        parent = list(range(count))  # orbits, as a union-find forest

        def find(v: int) -> int:
            while parent[v] != v:
                parent[v] = parent[parent[v]]
                v = parent[v]
            return v

        def absorb(image: list) -> None:
            for v in range(count):
                parent[find(v)] = find(image[v])

        for image in found:
            if all(image[v] == v for v in range(base)):
                absorb(image)
        source = _refine(
            [-1 if v == base else c for v, c in enumerate(colors)], adjacency
        )
        for u in cell:
            if find(u) == find(base):
                continue
            image = _automorphism(
                source,
                _refine(
                    [-1 if v == u else c for v, c in enumerate(colors)],
                    adjacency,
                ),
                neighbours,
            )
            if image is not None:
                found.append(image)
                absorb(image)
        pairs.extend(
            (base, u) for u in cell if u != base and find(u) == find(base)
        )
    return pairs


def _automorphism(source: list, target: list, neighbours: list):
    """A permutation ``image`` of the nodes with ``target[image[v]] ==
    source[v]`` that maps edges onto edges and non-edges onto non-edges,
    or ``None``: backtracking, nodes of the smallest cells first, each
    image checked against every node placed before it."""
    if sorted(source) != sorted(target):
        return None
    cells: dict = {}
    for w, color in enumerate(target):
        cells.setdefault(color, []).append(w)
    order = sorted(
        range(len(source)), key=lambda v: (len(cells[source[v]]), v)
    )
    image = [-1] * len(source)
    used: set = set()

    def place(k: int) -> bool:
        if k == len(order):
            return True
        v = order[k]
        for w in cells[source[v]]:
            if w in used or any(
                (x in neighbours[v]) != (image[x] in neighbours[w])
                for x in order[:k]
            ):
                continue
            image[v] = w
            used.add(w)
            if place(k + 1):
                return True
            used.discard(w)
        return False

    return image if place(0) else None


class QueryGraph:
    """Labeled undirected query pattern.

    Parameters
    ----------
    labels:
        ``{query node: label}`` — every node carries exactly one label.
    edges:
        Iterable of node pairs; undirected, no self loops, no duplicates.
    """

    def __init__(self, labels: Mapping, edges: Iterable[Tuple]) -> None:
        if not labels:
            raise QueryError("query graph needs at least one node")
        self._labels = dict(labels)
        self._edges: set = set()
        self._adjacency: dict = {node: set() for node in self._labels}
        for edge in edges:
            try:
                node_a, node_b = edge
            except (TypeError, ValueError):
                raise QueryError(f"edge {edge!r} is not a node pair") from None
            if node_a == node_b:
                raise QueryError(f"self-loop on query node {node_a!r}")
            for node in (node_a, node_b):
                if node not in self._labels:
                    raise QueryError(f"edge endpoint {node!r} is not a query node")
            key = frozenset((node_a, node_b))
            if key in self._edges:
                raise QueryError(
                    f"duplicate query edge between {node_a!r} and {node_b!r}"
                )
            self._edges.add(key)
            self._adjacency[node_a].add(node_b)
            self._adjacency[node_b].add(node_a)
        self._canonical: tuple | None = None
        self._canonical_order: tuple | None = None
        self._symmetry: tuple | None = None

    # ------------------------------------------------------------------

    @property
    def nodes(self) -> tuple:
        """Query nodes in insertion order."""
        return tuple(self._labels)

    @property
    def edges(self) -> frozenset:
        """Query edges as frozensets of node pairs."""
        return frozenset(self._edges)

    @property
    def num_nodes(self) -> int:
        """Number of query nodes."""
        return len(self._labels)

    @property
    def num_edges(self) -> int:
        """Number of query edges."""
        return len(self._edges)

    def label(self, node) -> object:
        """The label of a query node."""
        try:
            return self._labels[node]
        except KeyError:
            raise QueryError(f"unknown query node {node!r}") from None

    def neighbors(self, node) -> frozenset:
        """Adjacent query nodes."""
        try:
            return frozenset(self._adjacency[node])
        except KeyError:
            raise QueryError(f"unknown query node {node!r}") from None

    def degree(self, node) -> int:
        """Number of query neighbors of ``node``."""
        return len(self._adjacency[node])

    def has_edge(self, node_a, node_b) -> bool:
        """True when the query contains the undirected edge."""
        return frozenset((node_a, node_b)) in self._edges

    def label_sequence(self, nodes: Iterable) -> tuple:
        """Labels of a node sequence (e.g. of a decomposition path)."""
        return tuple(self._labels[node] for node in nodes)

    def neighbor_label_count(self, node, label) -> int:
        """``c(n, σ)``: neighbors of ``node`` labeled ``σ`` in the query."""
        return sum(
            1 for nbr in self._adjacency[node] if self._labels[nbr] == label
        )

    def connected_components(self) -> list:
        """Node sets of the query's connected components."""
        seen: set = set()
        components = []
        for start in self._labels:
            if start in seen:
                continue
            stack = [start]
            component = set()
            while stack:
                node = stack.pop()
                if node in component:
                    continue
                component.add(node)
                stack.extend(self._adjacency[node] - component)
            seen |= component
            components.append(frozenset(component))
        return components

    def density(self) -> float:
        """Edge density ``2|E| / (|V| (|V|-1))`` (1.0 for single nodes)."""
        n = self.num_nodes
        if n <= 1:
            return 1.0
        return 2.0 * self.num_edges / (n * (n - 1))

    # ------------------------------------------------------------------
    # Canonicalization (label-preserving isomorphism)
    # ------------------------------------------------------------------

    def canonical_form(self) -> tuple:
        """A canonical encoding invariant under node-id renaming.

        Returns ``(labels, edges)`` where ``labels`` is the tuple of node
        label ``repr`` strings in canonical order and ``edges`` the sorted
        tuple of ``(i, j)`` position pairs. Two query graphs that differ
        only by a relabeling of their node ids (a label-preserving
        isomorphism) produce the same form; the result is cached.

        Labels are encoded through ``repr`` so heterogeneous label types
        stay comparable and hashable; distinct label objects sharing a
        ``repr`` are therefore conflated.

        The memo is one of the graph's two writes after construction
        (:meth:`symmetry_constraints` is the other), and it is unlocked:
        threads sharing a graph (the wire server hands one parsed graph
        to every request repeating its text) may each compute it, and
        every computation stores equal values.
        """
        if self._canonical is None:
            order, edges = self._canonical_search()
            labels = tuple(repr(self._labels[node]) for node in order)
            self._canonical_order = order
            self._canonical = (labels, edges)
        return self._canonical

    def canonical_order(self) -> tuple:
        """This graph's nodes in canonical-form order.

        Position ``i`` of the order carries label ``canonical_form()[0][i]``
        and the edges are ``canonical_form()[1]`` in position space. Two
        isomorphic query graphs sharing a canonical form therefore map
        onto each other through their orders — position ``i`` in one
        corresponds to position ``i`` in the other — which is what lets
        :mod:`repro.query.plan` rehydrate a cached decomposition onto a
        renamed copy of the query it was planned for.
        """
        self.canonical_form()
        return self._canonical_order

    def symmetry_constraints(self) -> tuple:
        """Node pairs ``(a, b)`` that leave one embedding per match.

        Two embeddings of this query induce the same labeled subgraph
        exactly when a label-preserving automorphism (labels compared
        with ``==``) relates them. Of every such class of injective
        maps into ordered ids, exactly one gives each ``a`` a smaller
        id than its ``b``: the one whose ids, read in
        :meth:`canonical_order`, are lexicographically least.

        These are Grochow & Kellis's symmetry-breaking conditions
        (*Network motif discovery using subgraph enumeration and
        symmetry-breaking*, RECOMB 2007) over the canonical order as
        base: each node in turn comes before every other node of its
        orbit under the automorphisms fixing every node before it,
        until that stabilizer is trivial. So ``a`` always precedes
        ``b`` in :meth:`canonical_order`, and a renamed copy of this
        query gets the same pairs by canonical position. Each orbit
        member is found by one backtracking search for an automorphism
        (:func:`_orbit_constraints`); the group is never enumerated.
        Memoized under :meth:`canonical_form`'s unlocked rule.
        """
        if self._symmetry is None:
            order = self.canonical_order()
            position = {node: i for i, node in enumerate(order)}
            pairs = _orbit_constraints(
                [self._labels[node] for node in order],
                [
                    [position[m] for m in self._adjacency[node]]
                    for node in order
                ],
            )
            self._symmetry = tuple((order[a], order[b]) for a, b in pairs)
        return self._symmetry

    def signature(self) -> str:
        """Stable hex digest of :meth:`canonical_form`.

        Deterministic across processes (unlike ``hash()``), so it can key
        persistent or shared result caches.
        """
        blob = repr(self.canonical_form()).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()

    def _canonical_search(self) -> tuple:
        """Canonical ``(node order, edge encoding)`` by
        individualization-refinement with automorphism pruning
        (McKay & Piperno, *Practical graph isomorphism, II*, 2014).

        Nodes are numbered in insertion order and colored by the rank
        of their label's ``repr``; 1-WL refinement splits the colors to
        a stable partition (a color is the rank of its node's
        ``(color, sorted neighbour colors)`` signature). The first
        color class with more than one member is branched on, member by
        member, by giving the chosen node color -1 and refining again;
        a partition of singletons is a leaf, its colors the node order,
        and the first leaf with the smallest edge encoding wins.

        Two leaves of equal encoding and equal labels position by
        position differ by a label-preserving automorphism, which is
        recorded. A child in the same orbit as an explored sibling,
        under the recorded automorphisms that fix every individualized
        node above it, is skipped: its subtree is that sibling's mapped
        through an automorphism, with the same encodings, so the first
        smallest leaf is never in it. The result is therefore the
        unpruned search's (:func:`repro.testing.reference.canonical_search`)
        until the leaf cap stops either one.
        """
        nodes = tuple(self._labels)
        count = len(nodes)
        index = {node: i for i, node in enumerate(nodes)}
        adjacency = [
            [index[m] for m in self._adjacency[node]] for node in nodes
        ]
        edges = [tuple(index[node] for node in edge) for edge in self._edges]
        reprs = [repr(self._labels[node]) for node in nodes]
        palette = {s: i for i, s in enumerate(sorted(set(reprs)))}
        labels = [palette[s] for s in reprs]
        automorphisms: list = []  # node -> image, one list each
        best: list = [None, None]  # (encoding, order)
        leaves = [0]

        def leaf(colors: list) -> None:
            leaves[0] += 1
            order = [0] * count
            for v, color in enumerate(colors):
                order[color] = v
            encoding = tuple(sorted(
                (colors[a], colors[b]) if colors[a] < colors[b]
                else (colors[b], colors[a])
                for a, b in edges
            ))
            if best[0] is None or encoding < best[0]:
                best[0], best[1] = encoding, order
            elif encoding == best[0] and all(
                labels[u] == labels[v] for u, v in zip(best[1], order)
            ):
                image = [0] * count
                for u, v in zip(best[1], order):
                    image[u] = v
                automorphisms.append(image)

        def search(colors: list, prefix: tuple) -> None:
            colors = _refine(colors, adjacency)
            cells: dict = {}
            for v, color in enumerate(colors):
                cells.setdefault(color, []).append(v)
            if len(cells) == count:
                leaf(colors)
                return
            cell = cells[min(
                color for color, members in cells.items() if len(members) > 1
            )]
            parent = list(range(count))  # orbits, as a union-find forest

            def find(v: int) -> int:
                while parent[v] != v:
                    parent[v] = parent[parent[v]]
                    v = parent[v]
                return v

            absorbed = 0
            explored: list = []
            for v in cell:
                if leaves[0] >= _CANONICAL_LEAF_CAP:
                    return
                for image in automorphisms[absorbed:]:
                    if all(image[u] == u for u in prefix):
                        for u in range(count):
                            parent[find(u)] = find(image[u])
                absorbed = len(automorphisms)
                root = find(v)
                if any(find(u) == root for u in explored):
                    continue
                explored.append(v)
                individualized = list(colors)
                individualized[v] = -1
                search(individualized, prefix + (v,))

        search(labels, ())
        return tuple(nodes[v] for v in best[1]), best[0]

    def __eq__(self, other: object) -> bool:
        """Label-preserving isomorphism (at least up to node renaming)."""
        if not isinstance(other, QueryGraph):
            return NotImplemented
        if (self.num_nodes != other.num_nodes
                or self.num_edges != other.num_edges):
            return False
        return self.canonical_form() == other.canonical_form()

    def __hash__(self) -> int:
        return hash(self.canonical_form())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"QueryGraph(nodes={self.num_nodes}, edges={self.num_edges})"
