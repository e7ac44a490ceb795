"""Plane embeddings as rotation systems, with faces derived by face tracing.

An embedding never infers planarity: the rotation is supplied (or produced
by a generator) and certified after the fact through Euler's formula
V - E + F = 2 on the traced faces. The rotation is kept in index space; one
face walk on integer darts serves the tracer, the certificate and the audit.
"""

from __future__ import annotations

import math
from itertools import islice
from typing import Mapping, Sequence

from .graphs import (
    Graph,
    IntReader,
    Vertex,
    _bulk_ints,
    _edgelist_lines,
    _read_document,
    is_connected,
    parse_graph_lines,
)

EMBEDDING_HEADER = "# defcol-embedding v1"

Dart = tuple[Vertex, Vertex]


class PlaneEmbedding:
    """A graph together with a cyclic neighbor order at every vertex."""

    __slots__ = ("graph", "_rotation")

    def __init__(self, graph: Graph, rotation: Mapping[Vertex, Sequence[Vertex]]):
        get = graph._index.__getitem__
        if len(rotation) == len(graph.vertices):
            try:  # KeyError: a vertex without a rotation, or a foreign neighbor
                _fill(self, graph, tuple(tuple(map(get, rotation[v])) for v in graph.vertices))
                return
            except (KeyError, ValueError):
                pass
        # the bulk check failed: word the first fault, vertex by vertex
        if set(rotation) != set(graph.vertices):
            raise ValueError("rotation must list every vertex exactly once")
        for v, ns in zip(graph.vertices, graph.adjacency):
            around = tuple(rotation[v])
            listed = set(around)
            if len(around) != len(listed):
                raise ValueError(f"rotation at {v!r} repeats a neighbor")
            if listed != set(map(graph.vertices.__getitem__, ns)):
                raise ValueError(f"rotation at {v!r} does not match its neighbors")

    def rotation_of(self, v: Vertex) -> tuple[Vertex, ...]:
        g = self.graph
        return tuple(map(g.vertices.__getitem__, self._rotation[g.index_of(v)]))

    def __repr__(self) -> str:
        return f"PlaneEmbedding({self.graph!r})"


def _fill(emb: PlaneEmbedding, graph: Graph, rot: tuple) -> PlaneEmbedding:
    """emb with the index rotation rot on graph; ValueError unless each
    rot[i], sorted, is graph's ascending, repeat-free adjacency at i."""
    if tuple(map(tuple, map(sorted, rot))) != graph.adjacency:
        raise ValueError("a rotation that is not its vertex's neighbors")
    emb.graph = graph
    emb._rotation = rot
    return emb


DISCONNECTED = "graph is disconnected"
NOT_GENUS_ZERO = "embedding fails the Euler check"


def _face_walks(emb: PlaneEmbedding) -> tuple[list[list[int]], str | None]:
    """Each face of `trace_faces` as the vertex positions of its darts' tails,
    and the `certify_faces` defect. Dart (u, w) is the int u*n + w, so darts
    ascend in vertex order, then neighbor order."""
    g = emb.graph
    if not is_connected(g):
        return [], DISCONNECTED
    n = g.vertex_count
    if n == 1:
        return [[]], None  # a lone vertex still bounds the one outer face
    # the dart after each dart on its face: (u, w) is followed by (w, x),
    # where x follows u around w; each walk empties its darts
    after: dict[int, int] = {}
    for w, around in enumerate(emb._rotation):
        u = around[-1]
        wn = w * n
        for x in around:
            after[u * n + w] = wn + x
            u = x
    walks = []
    pop = after.pop
    for start in sorted(after):
        cur = pop(start, None)
        if cur is None:
            continue
        walk = [start // n]
        while cur != start:
            walk.append(cur // n)
            cur = pop(cur)
        walks.append(walk)
    return walks, None if n - g.edge_count + len(walks) == 2 else NOT_GENUS_ZERO


def trace_faces(emb: PlaneEmbedding) -> list[tuple[Dart, ...]]:
    """All faces of the embedding, each a cyclic walk of darts starting at
    its lowest dart.

    The traced walks partition the 2|E| directed edges; the face list is
    ordered by the lowest directed edge each face contains. A face's degree
    is its walk length: a cut vertex crossed twice contributes two
    incidences, and a bridge contributes both of its directions.
    """
    faces, defect = certify_faces(emb)
    if defect == DISCONNECTED:
        raise ValueError("face tracing requires a connected graph")
    return faces


def certify_faces(emb: PlaneEmbedding) -> tuple[list[tuple[Dart, ...]], str | None]:
    """Traced faces and the first defect barring a genus-zero certificate:
    DISCONNECTED (no faces are traced), NOT_GENUS_ZERO (V - E + F != 2), or
    None when the embedding is certified."""
    walks, defect = _face_walks(emb)
    at = emb.graph.vertices.__getitem__
    ids = [list(map(at, walk)) for walk in walks]
    return [tuple(zip(walk, walk[1:] + walk[:1])) for walk in ids], defect


def check_planarity_certificate(emb: PlaneEmbedding) -> bool:
    """True iff the traced faces satisfy V - E + F = 2.

    False means the rotation system realizes a higher-genus surface (as any
    rotation of a nonplanar graph must).
    """
    _, defect = _face_walks(emb)
    if defect == DISCONNECTED:
        raise ValueError("planarity certificate requires a connected graph")
    return defect is None


def embedding_from_positions(
    g: Graph, positions: Mapping[Vertex, tuple[float, float]]
) -> PlaneEmbedding:
    """Embedding read off a crossing-free straight-line drawing.

    Neighbors are ordered counterclockwise by angle; two neighbors at the
    same angle are rejected.
    """
    at = []
    for v in g.vertices:
        if v not in positions:
            raise ValueError(f"no position for vertex {v!r}")
        at.append(positions[v])
    rot = []
    for v, (x0, y0), ns in zip(g.vertices, at, g.adjacency):
        angles = [math.atan2(at[w][1] - y0, at[w][0] - x0) for w in ns]
        if len(set(angles)) != len(angles):
            raise ValueError(f"two neighbors of {v!r} share an angle")
        rot.append(tuple(w for _, w in sorted(zip(angles, ns))))
    return _fill(PlaneEmbedding.__new__(PlaneEmbedding), g, tuple(rot))


# -- embedding text format ----------------------------------------------


def dump_embedding(emb: PlaneEmbedding) -> str:
    lines = [EMBEDDING_HEADER, *_edgelist_lines(emb.graph)]
    for v, around in enumerate(emb._rotation):
        lines.append(f"rot {v}: {' '.join(map(str, around))}".rstrip())
    return "\n".join(lines) + "\n"


def _parse_embedding(lines: list[str], to_int: IntReader | None) -> PlaneEmbedding:
    """The embedding of a document's content lines. The bulk pass takes only
    `rot` lines in vertex order, which fixes their shape, straight into the
    index rotation on the graph's vertex ints; the constructor words faults."""
    g, leftover = parse_graph_lines(lines, to_int)
    if to_int is None:
        order, degrees = g.vertices, list(map(len, g.adjacency))
        shape = "\n".join(map("rot :".__add__, map(" ".__mul__, degrees)))
        fields = _bulk_ints("\n".join(leftover), shape)
        if max(fields, default=-1) >= len(order):
            raise ValueError("a rotation field out of range")
        fields = map(order.__getitem__, fields)
        rot = []
        for v, d in enumerate(degrees):  # the shape gives line v 1 + d fields
            if next(fields) != v:
                raise ValueError("rotation lines out of vertex order")
            rot.append(tuple(islice(fields, d)))
        return _fill(PlaneEmbedding.__new__(PlaneEmbedding), g, tuple(rot))
    rotation: dict[Vertex, list[Vertex]] = {}
    for line in leftover:
        parts = line.split()
        if parts[0] != "rot":
            raise ValueError(f"unexpected line {line!r} in embedding document")
        if len(parts) < 2 or not parts[1].endswith(":"):
            raise ValueError(f"malformed rotation line {line!r}")
        v = to_int(parts[1][:-1])
        if v in rotation:
            raise ValueError(f"second rotation line for vertex {v}")
        rotation[v] = list(map(to_int, parts[2:]))
    missing = [v for v in g.vertices if v not in rotation]
    if missing:
        raise ValueError(f"no rotation record for vertex {missing[0]}")
    return PlaneEmbedding(g, rotation)


def load_embedding(text: str) -> PlaneEmbedding:
    return _read_document(text, _parse_embedding)
