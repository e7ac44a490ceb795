"""Plane embeddings as rotation systems, with faces derived by face tracing.

An embedding never infers planarity: the rotation is supplied (or produced
by a generator) and certified after the fact through Euler's formula
V - E + F = 2 on the traced faces.
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
        if set(rotation) != set(graph.vertices):
            raise ValueError("rotation must list every vertex exactly once")
        rot: dict[Vertex, tuple[Vertex, ...]] = {}
        at = graph.vertices.__getitem__
        for v, ns in zip(graph.vertices, graph.adjacency):
            around = tuple(rotation[v])
            listed = set(around)
            if len(around) != len(listed):
                raise ValueError(f"rotation at {v!r} repeats a neighbor")
            if listed != set(map(at, ns)):
                raise ValueError(f"rotation at {v!r} does not match its neighbors")
            rot[v] = around
        self.graph = graph
        self._rotation = rot

    def rotation_of(self, v: Vertex) -> tuple[Vertex, ...]:
        return self._rotation[v]

    def __repr__(self) -> str:
        return f"PlaneEmbedding({self.graph!r})"


def trace_faces(emb: PlaneEmbedding) -> list[tuple[Dart, ...]]:
    """All faces of the embedding, each a cyclic walk of darts starting at
    its lowest dart.

    The traced walks partition the 2|E| directed edges; the face list is
    ordered by the lowest directed edge each face contains. A face's degree
    is its walk length: a cut vertex crossed twice contributes two
    incidences, and a bridge contributes both of its directions.
    """
    g = emb.graph
    if not is_connected(g):
        raise ValueError("face tracing requires a connected graph")
    if g.vertex_count == 1:
        return [()]  # a lone vertex still bounds the one outer face
    # the dart after each dart on its face: (u, w) is followed by (w, x),
    # where x follows u around w; each walk empties its darts
    after: dict[Dart, Dart] = {}
    for w, around in emb._rotation.items():
        u = around[-1]
        for x in around:
            after[u, w] = (w, x)
            u = x
    faces = []
    at = g.vertices.__getitem__
    for u, ns in zip(g.vertices, g.adjacency):
        for w in map(at, ns):
            start = (u, w)
            cur = after.pop(start, None)
            if cur is None:
                continue
            walk = [start]
            while cur != start:
                walk.append(cur)
                cur = after.pop(cur)
            faces.append(tuple(walk))
    return faces


DISCONNECTED = "graph is disconnected"
NOT_GENUS_ZERO = "embedding fails the Euler check"


def certify_faces(emb: PlaneEmbedding) -> tuple[list[tuple[Dart, ...]], str | None]:
    """Traced faces and the first defect barring a genus-zero certificate:
    DISCONNECTED (no faces are traced), NOT_GENUS_ZERO (V - E + F != 2), or
    None when the embedding is certified."""
    g = emb.graph
    try:
        faces = trace_faces(emb)  # checks connectivity first
    except ValueError:
        return [], DISCONNECTED
    if g.vertex_count - g.edge_count + len(faces) != 2:
        return faces, NOT_GENUS_ZERO
    return faces, None


def check_planarity_certificate(emb: PlaneEmbedding) -> bool:
    """True iff the traced faces satisfy V - E + F = 2.

    False means the rotation system realizes a higher-genus surface (as any
    rotation of a nonplanar graph must).
    """
    _, defect = certify_faces(emb)
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
    for v in g.vertices:
        if v not in positions:
            raise ValueError(f"no position for vertex {v!r}")
    rotation = {}
    for v in g.vertices:
        x0, y0 = positions[v]
        angled = []
        for w in g.ordered_neighbors(v):
            x1, y1 = positions[w]
            angled.append((math.atan2(y1 - y0, x1 - x0), w))
        angles = [a for a, _ in angled]
        if len(set(angles)) != len(angles):
            raise ValueError(f"two neighbors of {v!r} share an angle")
        angled.sort()
        rotation[v] = [w for _, w in angled]
    return PlaneEmbedding(g, rotation)


# -- embedding text format ----------------------------------------------


def dump_embedding(emb: PlaneEmbedding) -> str:
    g = emb.graph
    idx = g.index_of
    lines = [EMBEDDING_HEADER, *_edgelist_lines(g)]
    for v in g.vertices:
        around = " ".join(str(idx(w)) for w in emb.rotation_of(v))
        lines.append(f"rot {idx(v)}: {around}".rstrip())
    return "\n".join(lines) + "\n"


def _parse_embedding(lines: list[str], to_int: IntReader | None) -> tuple[Graph, dict]:
    """The graph and rotation of an embedding document's content lines. The
    bulk pass takes only `rot` lines in vertex order, which fixes their shape."""
    g, leftover = parse_graph_lines(lines, to_int)
    rotation: dict[Vertex, list[Vertex]] = {}
    if to_int is None:
        degrees = list(map(len, g.adjacency))
        shape = "\n".join(map("rot :".__add__, map(" ".__mul__, degrees)))
        fields = iter(_bulk_ints("\n".join(leftover), shape))
        for v, d in enumerate(degrees):  # the shape gives line v 1 + d fields
            if next(fields, None) != v:
                raise ValueError("rotation lines out of vertex order")
            rotation[v] = list(islice(fields, d))
        return g, rotation
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
    return g, rotation


def load_embedding(text: str) -> PlaneEmbedding:
    return PlaneEmbedding(*_read_document(text, _parse_embedding))
