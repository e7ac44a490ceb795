"""Simple undirected graphs and the structural queries everything else builds on.

Graphs are immutable values: every mutating operation returns a new graph.
Vertex identifiers are opaque hashable objects; the order in which vertices
were supplied at construction is the canonical order used wherever a
deterministic ordering is needed (edge listings, cycle enumeration, solver
tie-breaking).
"""

from __future__ import annotations

import json
import math
from collections import deque
from itertools import repeat
from operator import add, lt, mul
from typing import Callable, Hashable, Iterable, Iterator, Mapping, TypeVar

Vertex = Hashable
T = TypeVar("T")

MIN_CYCLE_LENGTH = 3
MAX_CYCLE_LENGTH = 8

EDGELIST_HEADER = "# defcol-edgelist v1"

# Loader limits: a header past these is rejected before anything is built.
# A plane graph has at most 3n - 6 edges.
MAX_VERTICES = 200_000
MAX_EDGES = 3 * MAX_VERTICES


class Graph:
    """Immutable simple undirected graph with ordered, opaque vertex ids."""

    __slots__ = ("_order", "_index", "_adjacency", "_labels")

    def __init__(
        self,
        vertices: Iterable[Vertex],
        edges: Iterable[tuple[Vertex, Vertex]] = (),
        labels: Mapping[Vertex, str] | None = None,
    ):
        order = tuple(vertices)
        index = {v: i for i, v in enumerate(order)}
        if len(index) != len(order):
            dup = next(v for i, v in enumerate(order) if index[v] != i)
            raise ValueError(f"duplicate vertex {dup!r}")
        around: list[set[int]] = [set() for _ in order]
        get = index.get
        for u, v in edges:
            i = get(u)
            if i is None:
                raise ValueError(f"edge endpoint {u!r} is not a vertex")
            j = get(v)
            if j is None:
                raise ValueError(f"edge endpoint {v!r} is not a vertex")
            if i == j:
                raise ValueError(f"self-loop at {u!r}")
            around[i].add(j)
            around[j].add(i)
        _build(self, order, index, map(sorted, around), labels)

    # -- basic queries -------------------------------------------------

    @property
    def vertices(self) -> tuple[Vertex, ...]:
        return self._order

    @property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """For each vertex index, the ascending indices of its neighbors."""
        return self._adjacency

    @property
    def labels(self) -> dict[Vertex, str]:
        return dict(self._labels)

    @property
    def vertex_count(self) -> int:
        return len(self._order)

    @property
    def edge_count(self) -> int:
        return sum(map(len, self._adjacency)) // 2

    def __len__(self) -> int:
        return len(self._order)

    def __iter__(self) -> Iterator[Vertex]:
        return iter(self._order)

    def __contains__(self, v: Vertex) -> bool:
        return v in self._index

    def index_of(self, v: Vertex) -> int:
        return self._index[v]

    def neighbors(self, v: Vertex) -> frozenset[Vertex]:
        return frozenset(map(self._order.__getitem__, self._adjacency[self._index[v]]))

    def ordered_neighbors(self, v: Vertex) -> tuple[Vertex, ...]:
        return tuple(map(self._order.__getitem__, self._adjacency[self._index[v]]))

    def degree(self, v: Vertex) -> int:
        return len(self._adjacency[self._index[v]])

    def has_edge(self, u: Vertex, v: Vertex) -> bool:
        return self._index.get(v, -1) in self._adjacency[self._index[u]]

    def edges(self) -> list[tuple[Vertex, Vertex]]:
        """All edges (u, v) with u before v in vertex order, sorted."""
        order = self._order
        return [(order[i], order[j]) for i, ns in enumerate(self._adjacency) for j in ns if j > i]

    def label_of(self, v: Vertex) -> str | None:
        return self._labels.get(v)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (
            self._order == other._order
            and self._adjacency == other._adjacency
            and self._labels == other._labels
        )

    def __hash__(self):
        return hash((self._order, self._adjacency))

    def __repr__(self) -> str:
        return f"Graph({self.vertex_count} vertices, {self.edge_count} edges)"


def _build(g: Graph, order: tuple, index: dict, around: Iterable[list[int]],
           labels: Mapping[Vertex, str] | None) -> Graph:
    """Fill g with the vertices `order` at their `index` positions, where
    around yields each vertex's neighbor indices, ascending and repeat-free."""
    label_map = dict(labels or {})
    for v in label_map:
        if v not in index:
            raise ValueError(f"label attached to unknown vertex {v!r}")
    names = list(label_map.values())
    if len(set(names)) != len(names):
        raise ValueError("vertex labels must be unique")
    g._order = order
    g._index = index
    g._adjacency = tuple(map(tuple, around))
    g._labels = label_map
    return g


def _index_graph(n: int, ends: list[int], labels: dict[int, str]) -> Graph:
    """The graph on 0..n-1 with an edge {ends[2k], ends[2k + 1]} for each k,
    or ValueError where the constructor raises one; a self-loop or a repeat
    leaves fewer edges than pairs. Each end is appended to the other end's
    list, which is ascending and repeat-free when every pair has u < v and
    the pairs increase, as `dump_graph` writes them; else the lists are sets,
    sorted once. The neighbors are `order`'s ints, one object per vertex as
    in a constructed graph, not one per field read."""
    if max(ends, default=-1) >= n:
        raise ValueError("an edge end out of range")
    order = tuple(range(n))
    us, vs = ends[::2], ends[1::2]
    ordered = all(map(lt, us, vs))
    if ordered:
        keys = list(map(add, map(mul, us, repeat(n)), vs))
        ordered = all(map(lt, keys, keys[1:]))
    kind, put = (list, list.append) if ordered else (set, set.add)
    around = [kind() for _ in order]
    for u, v in zip(us, vs):
        put(around[u], order[v])
        put(around[v], order[u])
    return _build(Graph.__new__(Graph), order, dict(zip(order, order)),
                  around if ordered else map(sorted, around), labels)


def make_graph(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Graph on vertices 0..n-1 from an unordered pair list.

    Duplicate pairs collapse to a single edge; out-of-range indices and
    self-loops are rejected.
    """
    if n < 0:
        raise ValueError("vertex count must be non-negative")
    return Graph(range(n), edges)


def delete_vertex(g: Graph, v: Vertex) -> Graph:
    """Induced subgraph on V(g) minus v."""
    if v not in g:
        raise ValueError(f"vertex {v!r} not in graph")
    vertices = [w for w in g.vertices if w != v]
    edges = [(a, b) for a, b in g.edges() if a != v and b != v]
    labels = {w: name for w, name in g.labels.items() if w != v}
    return Graph(vertices, edges, labels)


def _iter_cycles(g: Graph, length: int) -> Iterator[tuple[int, ...]]:
    # Anchor each cycle at its lowest position: interior positions rank above
    # the anchor, and the second-vs-last comparison drops the reflected walk,
    # so each cycle appears once. walks holds one neighbor iterator per path
    # position, so the walk is depth-first in ascending adjacency order.
    adj = g.adjacency
    for s, around in enumerate(adj):
        closes = set(around)
        path = [s]
        walks = [iter(around)]
        while walks:
            for w in walks[-1]:
                if w > s and w not in path:
                    if len(path) < length - 1:
                        path.append(w)
                        walks.append(iter(adj[w]))
                        break
                    if w in closes and path[1] < w:
                        yield (*path, w)
            else:
                path.pop()
                walks.pop()


def cycles_of_length(g: Graph, length: int) -> list[tuple[Vertex, ...]]:
    """Every simple cycle on exactly `length` vertices, once up to rotation
    and reflection, in deterministic order. Supported for 3 <= length <= 8."""
    if not (MIN_CYCLE_LENGTH <= length <= MAX_CYCLE_LENGTH):
        raise ValueError(
            f"cycle length {length} outside supported range "
            f"[{MIN_CYCLE_LENGTH}, {MAX_CYCLE_LENGTH}]"
        )
    at = g.vertices.__getitem__
    return [tuple(map(at, cycle)) for cycle in _iter_cycles(g, length)]


def is_c4c5_free(g: Graph) -> bool:
    """True iff the graph has no 4-cycle and no 5-cycle.

    Vertices take turns as the anchor u in descending-degree order, and each
    is deleted once its turn ends, so every cycle is found from the first of
    its vertices to come up (after Chiba and Nishizeki, 1985). For the anchor,
    each vertex x two steps away is mapped to its midpoint a on u-a-x; a second
    midpoint closes a 4-cycle. Otherwise an edge x-y whose two midpoints differ
    and avoid x and y closes the 5-cycle u-a-x-y-d. No path is enumerated.
    """
    adj = [set(ns) for ns in g.adjacency]
    for u in sorted(range(len(adj)), key=lambda v: -len(adj[v])):
        around = adj[u]  # u leaves its neighbors' sets below: nothing reaches it again
        mid: dict[int, int] = {}
        for a in around:
            adj[a].discard(u)
            for x in adj[a]:
                if x in mid:
                    return False
                mid[x] = a
        for x, a in mid.items():
            for y in adj[x]:
                d = mid.get(y)
                if d is not None and d != a and d != x and y != a:
                    return False
    return True


def girth(g: Graph) -> int | float:
    """Length of a shortest simple cycle; math.inf for forests.

    Vertices of degree at most 1 lie on no cycle, so they are peeled off
    first, repeatedly. A BFS from each remaining root, capped once it can no
    longer beat the best cycle so far, bounds every cycle through that root;
    the root is then deleted and the peeling resumes from its neighbors.
    Candidate lengths from non-tree edges never undercount, and the BFS from
    the first root of a shortest cycle yields the exact value. Forests,
    cycles and sparse strips take near-linear time.
    """
    adj = [set(ns) for ns in g.adjacency]

    def remove(v: int) -> None:
        # Delete v, then every vertex that this leaves with degree <= 1.
        stack = [v]
        while stack:
            u = stack.pop()
            for w in adj[u]:
                adj[w].discard(u)
                if len(adj[w]) <= 1:
                    stack.append(w)
            adj[u].clear()

    for v in range(len(adj)):
        if len(adj[v]) <= 1:
            remove(v)
    best: int | float = math.inf
    for root, around in enumerate(adj):
        if not around:
            continue
        dist = {root: 0}
        parent = {root: -1}
        queue = deque([root])
        while queue:
            u = queue.popleft()
            if 2 * dist[u] >= best - 1:
                continue
            for w in adj[u]:
                if w not in dist:
                    dist[w] = dist[u] + 1
                    parent[w] = u
                    queue.append(w)
                elif parent[u] != w:
                    cand = dist[u] + dist[w] + 1
                    if cand < best:
                        best = cand
        remove(root)
    return best


def is_connected(g: Graph) -> bool:
    adj = g.adjacency
    if not adj:
        return True
    seen = {0}
    queue = deque(seen)
    while queue:
        for w in adj[queue.popleft()]:
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return len(seen) == len(adj)


# -- edge-list text format ---------------------------------------------


def _edgelist_lines(g: Graph) -> list[str]:
    """The 'n m' line, edge lines and label lines that .graph and .emb
    documents share.

    A label line is split on whitespace and documents on line breaks, so a
    label that is empty or holds a whitespace character (every line break
    is one) raises ValueError rather than write a line the loaders reject.
    """
    edges = [f"{i} {j}" for i, ns in enumerate(g.adjacency) for j in ns if j > i]
    labels = []
    for i, v in enumerate(g.vertices):
        name = g.label_of(v)
        if name is None:
            continue
        if name.split() != [name]:  # empty, or holds a whitespace character
            raise ValueError(
                f"label {name!r} of vertex {i} must be non-empty and free of whitespace"
            )
        labels.append(f"label {i} {name}")
    return [f"{g.vertex_count} {len(edges)}", *edges, *labels]


def dump_graph(g: Graph) -> str:
    """Serialize to the versioned edge-list format (0-based indices)."""
    return "\n".join([EDGELIST_HEADER, *_edgelist_lines(g)]) + "\n"


def _content_lines(text: str) -> list[str]:
    return [line for line in map(str.strip, text.splitlines()) if line and line[0] != "#"]


def _int_token(token: str) -> int:
    """Parse one integer field of the text formats: ASCII `-?[0-9]+` only.

    Bare `int()` also accepts `1_0`, `+10` and non-ASCII digits such as `١`,
    none of which the formats define. A rejected token gets the message that
    `int()` gives for the tokens it rejects too.
    """
    if token.isascii() and (token.isdigit() or token[:1] == "-" and token[1:].isdigit()):
        return int(token)
    raise ValueError(f"invalid literal for int() with base 10: {token!r}")


_NO_DIGITS = str.maketrans("", "", "0123456789")
_TO_COMMAS = str.maketrans(" \n", ",,")


def _bulk_ints(section: str, shape: str) -> list[int]:
    """The integer fields of section if deleting its ASCII digits leaves
    shape, else ValueError. With spaces and line breaks made commas, and each
    `:` that ends a field and each whole `rot` field dropped, `json.loads`
    reads the fields; it fails on an empty field, a leading zero, and a `:`
    or `rot` with digits glued on, which the strict pass rejects too."""
    if section.translate(_NO_DIGITS) != shape:
        raise ValueError("section outside the bulk shape")
    fields = ("," + section).translate(_TO_COMMAS).replace(":,", ",").removesuffix(":")
    return json.loads(f"[{fields.replace(',rot,', ',')[1:]}]")


IntReader = Callable[[str], int]


def _read_document(text: str, parse: Callable[[list[str], IntReader | None], T]) -> T:
    """parse(lines, to_int) on the content lines of a text document.

    The bulk pass (to_int None) reads each section with one `_bulk_ints`
    call and raises ValueError on any field that is not a plain decimal, as
    on all that the strict pass rejects. The strict pass then reads each
    field with to_int, `_int_token`, and gives every message. Where the bulk
    pass returns, it has read the same values from the same fields.
    """
    lines = _content_lines(text)
    try:
        return parse(lines, None)
    except ValueError:
        return parse(lines, _int_token)


def parse_graph_lines(lines: list[str], to_int: IntReader | None) -> tuple[Graph, list[str]]:
    """Parse the edge-list section; returns the graph and leftover lines.

    Integer fields are read as `_read_document` says of to_int.
    """
    if not lines:
        raise ValueError("empty graph document")
    head = lines[0].split()
    if len(head) != 2:
        raise ValueError(f"expected 'n m' header, got {lines[0]!r}")
    n, m = _bulk_ints(lines[0], " ") if to_int is None else map(to_int, head)
    if n > MAX_VERTICES:
        raise ValueError(f"vertex count {n} exceeds the limit of {MAX_VERTICES}")
    if n < 0:
        raise ValueError("vertex count must be non-negative")
    if not 0 <= m <= MAX_EDGES:
        raise ValueError(f"edge count {m} outside 0..{MAX_EDGES}")
    body = lines[1 : 1 + m]
    if to_int is None:
        ends = _bulk_ints("\n".join(body), (" \n" * m)[:-1])
    else:
        ends = []
        for line in body:
            parts = line.split()
            if len(parts) != 2:
                raise ValueError(f"malformed edge line {line!r}")
            ends += map(to_int, parts)
        if len(body) != m:
            raise ValueError(f"expected {m} edge lines, found {len(body)}")
    labels: dict[int, str] = {}
    leftover = []
    for line in lines[1 + m :]:
        parts = line.split() if line.startswith("label") else None  # a rot line is not split
        if parts and parts[0] == "label":
            if len(parts) != 3:
                raise ValueError(f"malformed label line {line!r}")
            v = _bulk_ints(parts[1], "")[0] if to_int is None else to_int(parts[1])
            if v in labels:
                raise ValueError(f"second label line for vertex {v}")
            labels[v] = parts[2]
        else:
            leftover.append(line)
    g = (_index_graph(n, ends, labels) if to_int is None
         else Graph(range(n), zip(ends[::2], ends[1::2]), labels))
    if g.edge_count != m:
        raise ValueError(f"{m} edge lines name only {g.edge_count} distinct edges")
    return g, leftover


def load_graph(text: str) -> Graph:
    g, leftover = _read_document(text, parse_graph_lines)
    ignorable = all(line.split()[0] == "rot" for line in leftover)
    if leftover and not ignorable:
        raise ValueError(f"unexpected trailing line {leftover[0]!r}")
    return g
