"""Generators for the gadget families: the linked-triangle widget, the hub
amplifier built from it, the non-(1,k)-colorable composite, and the
triangle-attachment reduction between defect levels.

Construction order is fixed (copies j-major, i-minor; terminals keep their
base identifiers) so generated graphs and their serialized forms are
byte-identical across runs. Emitted embeddings splice each copy's rotation
into the shared terminals with the nesting that keeps the two-pole parallel
composition planar; every emitted embedding is certified through the Euler
check rather than assumed.
"""

from __future__ import annotations

from .embedding import PlaneEmbedding, check_planarity_certificate
from .graphs import MAX_EDGES, MAX_VERTICES, Graph, Vertex
from .record import Record


class GadgetResult(Record):
    """A generated graph plus its named terminal vertices."""

    def __init__(self, graph: Graph, terminals: dict[str, Vertex],
                 embedding: PlaneEmbedding | None = None):
        seen = set()
        for name, v in terminals.items():
            if v not in graph:
                raise ValueError(f"terminal {name!r} refers to missing vertex {v!r}")
            if v in seen:
                raise ValueError(f"terminal {name!r} duplicates another terminal")
            seen.add(v)
        if embedding is not None:
            if embedding.graph is not graph and embedding.graph != graph:
                raise ValueError("embedding is for a different graph")
            if not check_planarity_certificate(embedding):
                raise ValueError("emitted embedding fails the Euler check")
        self._set(locals())


def _check_size(vertices: int, edges: int) -> None:
    """Refuse, before anything is built, an output the loaders would refuse."""
    if vertices > MAX_VERTICES or edges > MAX_EDGES:
        raise ValueError(
            f"output would have {vertices} vertices and {edges} edges; "
            f"the limits are {MAX_VERTICES} and {MAX_EDGES}"
        )


def _hub_size(k: int) -> tuple[int, int]:
    """Vertex and edge count of one hub block: z, the path x1-x2-x3 and
    3(2k+1) linked-triangle copies of 4 vertices and 7 edges each."""
    copies = 3 * (2 * k + 1)
    return 4 + 4 * copies, 2 + 7 * copies


def _link_parts(prefix: str, u_id: Vertex, v_id: Vertex):
    """Vertices, edges and interior rotations of one linked-triangle copy.

    Interior vertices a, b, c, d get the given prefix; u and v are supplied
    by the caller (they are usually shared hub vertices). At u the local
    rotation is [a, b]; at v it is [c, d].
    """
    a, b, c, d = (prefix + name for name in ("a", "b", "c", "d"))
    vertices = [a, b, c, d]
    edges = [
        (u_id, a),
        (u_id, b),
        (a, b),
        (b, d),
        (c, d),
        (c, v_id),
        (d, v_id),
    ]
    rotation = {
        a: [b, u_id],
        b: [u_id, a, d],
        c: [d, v_id],
        d: [b, c, v_id],
    }
    return vertices, edges, rotation, [a, b], [c, d]


def triangle_link() -> GadgetResult:
    """Two triangles joined by a bridge edge, terminals u and v.

    Interior vertices a, b, c, d cannot all take the color u and v carry
    when that color's defect is 1: b would then see two same-colored
    neighbors. All six vertices are exposed as terminals.
    """
    inner, edges, rotation, at_u, at_v = _link_parts("", "u", "v")
    vertices = ["u", *inner, "v"]
    rotation.update(u=at_u, v=at_v)
    g = Graph(vertices, edges, {v: v for v in vertices})
    terminals = {name: name for name in vertices}
    return GadgetResult(g, terminals, PlaneEmbedding(g, rotation))


def _hub_parts(k: int, prefix: str):
    """One hub block: vertex z, path x1-x2-x3, and 2k+1 linked-triangle
    copies from z to each x_j. Returns vertices, edges, rotation, terminals.

    A copy is glued at both poles, so the copies between z and an x_j are
    parallel lanes: at z their [a, b] blocks are listed in copy order, at
    x_j the blocks appear mirrored and in reverse copy order ([d, c]),
    which is what keeps the composite planar.
    """
    z = prefix + "z"
    xs = [prefix + f"x{j}" for j in (1, 2, 3)]
    vertices = [z] + xs
    edges = [(xs[0], xs[1]), (xs[1], xs[2])]
    z_rot: list[Vertex] = []
    lanes: dict[int, list[list[Vertex]]] = {1: [], 2: [], 3: []}
    rotation: dict[Vertex, list[Vertex]] = {}
    for j in (1, 2, 3):
        x = xs[j - 1]
        for i in range(1, 2 * k + 2):
            copy_prefix = f"{prefix}h{j}_{i}_"
            verts, copy_edges, copy_rot, at_u, at_v = _link_parts(copy_prefix, z, x)
            vertices.extend(verts)
            edges.extend(copy_edges)
            rotation.update(copy_rot)
            z_rot.extend(at_u)
            lanes[j].append(at_v)
    rotation[z] = z_rot

    def mirrored(j: int) -> list[Vertex]:
        return [w for block in reversed(lanes[j]) for w in reversed(block)]

    rotation[xs[0]] = mirrored(1) + [xs[1]]
    rotation[xs[1]] = [xs[0], xs[2]] + mirrored(2)
    rotation[xs[2]] = mirrored(3) + [xs[1]]
    terminals = {"z": z, "x1": xs[0], "x2": xs[1], "x3": xs[2]}
    return vertices, edges, rotation, terminals


def hub_gadget(k: int) -> GadgetResult:
    """Hub z feeding 2k+1 linked-triangle copies into each vertex of a
    3-path x1-x2-x3; 4 + 12(2k+1) vertices, terminals z, x1, x2, x3."""
    if k < 1:
        raise ValueError("k must be at least 1")
    _check_size(*_hub_size(k))
    vertices, edges, rotation, terminals = _hub_parts(k, "")
    labels = {v: name for name, v in terminals.items()}
    g = Graph(vertices, edges, labels)
    emb = PlaneEmbedding(g, rotation)
    return GadgetResult(g, terminals, emb)


def non_1k(k: int) -> GadgetResult:
    """Three hub blocks with their hubs joined into a path z1-z2-z3.

    The composite admits no coloring in which color 1 has defect 1 and
    color 2 has defect k; terminals z1, z2, z3.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    n, m = _hub_size(k)
    _check_size(3 * n, 3 * m + 2)
    vertices: list[Vertex] = []
    edges: list[tuple[Vertex, Vertex]] = []
    rotation: dict[Vertex, list[Vertex]] = {}
    zs: list[Vertex] = []
    for t in (1, 2, 3):
        verts, block_edges, block_rot, terms = _hub_parts(k, f"s{t}.")
        vertices.extend(verts)
        edges.extend(block_edges)
        rotation.update(block_rot)
        zs.append(terms["z"])
    edges.append((zs[0], zs[1]))
    edges.append((zs[1], zs[2]))
    rotation[zs[0]] = rotation[zs[0]] + [zs[1]]
    rotation[zs[1]] = [zs[0], zs[2]] + rotation[zs[1]]
    rotation[zs[2]] = rotation[zs[2]] + [zs[1]]
    terminals = {"z1": zs[0], "z2": zs[1], "z3": zs[2]}
    labels = {v: name for name, v in terminals.items()}
    g = Graph(vertices, edges, labels)
    emb = PlaneEmbedding(g, rotation)
    return GadgetResult(g, terminals, emb)


def np_reduce(g: Graph, k: int) -> GadgetResult:
    """Attach k-1 pendant triangles to every vertex.

    The result is colorable with defects (0, k) exactly when the input is
    colorable with defects (0, 1); on inputs of girth >= 6 it stays free of
    4- and 5-cycles. At k = 1 nothing is attached, so the result equals the
    input.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    n = g.vertex_count
    _check_size(n + 2 * n * (k - 1), g.edge_count + 3 * n * (k - 1))
    vertices: list[Vertex] = list(g.vertices)
    edges: list[tuple[Vertex, Vertex]] = list(g.edges())
    for v in g.vertices:
        for i in range(1, k):
            p: Vertex = (v, i, 1)
            q: Vertex = (v, i, 2)
            vertices.extend([p, q])
            edges.extend([(v, p), (v, q), (p, q)])
    return GadgetResult(Graph(vertices, edges, g.labels), {})
