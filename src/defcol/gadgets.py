"""Generators for the gadget families: the linked-triangle widget, the hub
amplifier built from it, the non-(1,k)-colorable composite, and the
triangle-attachment reduction between defect levels.

A generator states each embedded gadget once, as its rotation system: the
graph's vertices are the rotation's keys, in key order, and its edges are
the pairs the rotation lists; the Euler check certifies the embedding
rather than assuming it. Construction order is fixed (copies j-major,
i-minor; terminals keep their base identifiers) so generated graphs and
their serialized forms are byte-identical across runs. Each copy's
rotation is spliced into the shared terminals with the nesting that keeps
the two-pole parallel composition planar.
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


def _check_k(k: int) -> None:
    """Refuse a k that is not an int (a bool is not one) or is below 1."""
    if type(k) is not int:
        raise ValueError(f"k {k!r} is not an int")
    if k < 1:
        raise ValueError("k must be at least 1")


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


def _embedded(rotation: dict[Vertex, list[Vertex]], terminals: dict[str, Vertex]) -> GadgetResult:
    """The gadget that `rotation` states, each terminal labelled with its
    name: its keys, in order, are the vertices. Each edge arrives from both
    ends; one listed at one end only makes `PlaneEmbedding` refuse the
    rotation, and a neighbor without a key makes `Graph` refuse it."""
    edges = [(v, w) for v, around in rotation.items() for w in around]
    g = Graph(rotation, edges, {v: name for name, v in terminals.items()})
    return GadgetResult(g, terminals, PlaneEmbedding(g, rotation))


def _link_parts(prefix: str, u_id: Vertex, v_id: Vertex):
    """Interior rotation and pole blocks of one linked-triangle copy.

    Interior vertices a, b, c, d get the given prefix, in that key order;
    u and v are supplied by the caller (they are usually shared hub
    vertices). At u the local rotation is [a, b]; at v it is [c, d].
    """
    a, b, c, d = (prefix + name for name in "abcd")
    rotation = {a: [b, u_id], b: [u_id, a, d], c: [d, v_id], d: [b, c, v_id]}
    return rotation, [a, b], [c, d]


def triangle_link() -> GadgetResult:
    """Two triangles joined by a bridge edge, terminals u and v.

    Interior vertices a, b, c, d cannot all take the color u and v carry
    when that color's defect is 1: b would then see two same-colored
    neighbors. All six vertices are exposed as terminals.
    """
    inner, at_u, at_v = _link_parts("", "u", "v")
    rotation = {"u": at_u, **inner, "v": at_v}
    return _embedded(rotation, {name: name for name in rotation})


def _hub_parts(k: int, prefix: str):
    """One hub block: vertex z, path x1-x2-x3, and 2k+1 linked-triangle
    copies from z to each x_j. Returns rotation and terminals; the
    rotation's keys start z, x1, x2, x3, and each copy's follow in order.

    A copy is glued at both poles, so the copies between z and an x_j are
    parallel lanes: at z their [a, b] blocks are listed in copy order, at
    x_j the lane of [c, d] blocks is listed reversed ([..., d, c]), which
    is what keeps the composite planar.
    """
    z = prefix + "z"
    x1, x2, x3 = xs = [prefix + f"x{j}" for j in (1, 2, 3)]
    rotation = dict.fromkeys([z, *xs])  # filled last; assigning keeps a key's place
    z_rot: list[Vertex] = []
    lanes = []
    for j, x in enumerate(xs, 1):
        lane: list[Vertex] = []
        for i in range(1, 2 * k + 2):
            copy_rot, at_u, at_v = _link_parts(f"{prefix}h{j}_{i}_", z, x)
            rotation.update(copy_rot)
            z_rot.extend(at_u)
            lane.extend(at_v)
        lanes.append(lane[::-1])
    rotation[z] = z_rot
    rotation[x1] = lanes[0] + [x2]
    rotation[x2] = [x1, x3] + lanes[1]
    rotation[x3] = lanes[2] + [x2]
    return rotation, {"z": z, "x1": x1, "x2": x2, "x3": x3}


def hub_gadget(k: int) -> GadgetResult:
    """Hub z feeding 2k+1 linked-triangle copies into each vertex of a
    3-path x1-x2-x3; 4 + 12(2k+1) vertices, terminals z, x1, x2, x3."""
    _check_k(k)
    _check_size(*_hub_size(k))
    return _embedded(*_hub_parts(k, ""))


def non_1k(k: int) -> GadgetResult:
    """Three hub blocks with their hubs joined into a path z1-z2-z3.

    The composite admits no coloring in which color 1 has defect 1 and
    color 2 has defect k; terminals z1, z2, z3.
    """
    _check_k(k)
    n, m = _hub_size(k)
    _check_size(3 * n, 3 * m + 2)
    (r1, t1), (r2, t2), (r3, t3) = (_hub_parts(k, f"s{t}.") for t in (1, 2, 3))
    z1, z2, z3 = t1["z"], t2["z"], t3["z"]
    rotation = {**r1, **r2, **r3}
    rotation[z1].append(z2)
    rotation[z2] = [z1, z3] + rotation[z2]
    rotation[z3].append(z2)
    return _embedded(rotation, {"z1": z1, "z2": z2, "z3": z3})


def np_reduce(g: Graph, k: int) -> GadgetResult:
    """Attach k-1 pendant triangles to every vertex.

    The result is colorable with defects (0, k) exactly when the input is
    colorable with defects (0, 1); on inputs of girth >= 6 it stays free of
    4- and 5-cycles. At k = 1 nothing is attached, so the result equals the
    input.

    v's pendants are named (v, i, 1) and (v, i, 2), so an input holding
    such an id is refused: np_reduce(np_reduce(g, 2).graph, 2) raises
    "duplicate vertex (0, 1, 1)". A loaded file names its vertices 0..n-1,
    so `defcol reduce` of a reduced file works.
    """
    _check_k(k)
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
