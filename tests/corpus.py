"""The embedding fixture corpus: small plane graphs free of 4- and 5-cycles,
spanning triangles, hexagonal patches, cut-vertex composites, the charge
arithmetic fixtures, and the generated gadgets.

Geometric fixtures are built from explicit crossing-free coordinates, so
their rotation systems come straight from the drawing.
"""

from __future__ import annotations

import math

from defcol import (
    Graph,
    PlaneEmbedding,
    embedding_from_positions,
    hub_gadget,
    make_graph,
    non_1k,
    triangle_link,
)


def k3_embedding() -> PlaneEmbedding:
    g = make_graph(3, [(0, 1), (1, 2), (0, 2)])
    return PlaneEmbedding(g, {0: [1, 2], 1: [2, 0], 2: [0, 1]})


def cycle_embedding(n: int) -> PlaneEmbedding:
    g = make_graph(n, [(i, (i + 1) % n) for i in range(n)])
    return PlaneEmbedding(g, {i: [(i - 1) % n, (i + 1) % n] for i in range(n)})


def pendant_triangle() -> PlaneEmbedding:
    g = make_graph(4, [(0, 1), (1, 2), (0, 2), (0, 3)])
    pos = {0: (0.0, 0.0), 1: (2.0, 0.0), 2: (1.0, 1.5), 3: (-1.0, -1.0)}
    return embedding_from_positions(g, pos)


def bowtie_on_opaque_ids():
    """Two triangles sharing the cut vertex "c", listed out of sorted order;
    every 2-vertex lies between a triangle and the 6-face around both."""
    ids = ["c", "b", "a", "e", "d"]
    g = Graph(ids, [("a", "b"), ("b", "c"), ("a", "c"), ("c", "d"), ("d", "e"), ("c", "e")])
    rotation = {"a": ["b", "c"], "b": ["c", "a"], "c": ["a", "d", "e", "b"],
                "d": ["e", "c"], "e": ["c", "d"]}
    return PlaneEmbedding(g, rotation)


def fused_hexagons(count: int) -> PlaneEmbedding:
    """Linear strip of edge-fused hexagons (brick-wall drawing)."""
    top = list(range(2 * count + 1))
    bottom = list(range(2 * count + 1, 4 * count + 2))
    edges = []
    for i in range(2 * count):
        edges.append((top[i], top[i + 1]))
        edges.append((bottom[i], bottom[i + 1]))
    for i in range(0, 2 * count + 1, 2):
        edges.append((top[i], bottom[i]))
    g = make_graph(4 * count + 2, edges)
    pos = {top[i]: (float(i), 1.0) for i in range(2 * count + 1)}
    pos.update({bottom[i]: (float(i), 0.0) for i in range(2 * count + 1)})
    return embedding_from_positions(g, pos)


def triangle_with_cycle(cycle_len: int) -> PlaneEmbedding:
    """Triangle sharing a single vertex with a cycle (cut-vertex composite)."""
    n = 2 + cycle_len
    edges = [(0, 1), (0, 2), (1, 2)]
    ring = [0] + list(range(3, n + 1))
    for i in range(len(ring)):
        edges.append((ring[i], ring[(i + 1) % len(ring)]))
    g = make_graph(n + 1, set(map(lambda e: tuple(sorted(e)), edges)))
    pos = {0: (0.0, 0.0), 1: (-1.4, 0.6), 2: (-1.4, -0.6)}
    radius = 2.0
    for i, v in enumerate(ring):
        angle = math.pi + 2 * math.pi * i / len(ring)
        pos[v] = (2.0 + radius * math.cos(angle), radius * math.sin(angle))
    return embedding_from_positions(g, pos)


def triangle_bridge_hexagon() -> PlaneEmbedding:
    edges = [(0, 1), (0, 2), (1, 2), (2, 3)]
    ring = list(range(3, 9))
    for i in range(6):
        edges.append((ring[i], ring[(i + 1) % 6]))
    g = make_graph(9, edges)
    pos = {0: (-3.5, 0.7), 1: (-3.5, -0.7), 2: (-2.5, 0.0)}
    for i, v in enumerate(ring):
        angle = math.pi + 2 * math.pi * i / 6
        pos[v] = (1.5 + 1.2 * math.cos(angle), 1.2 * math.sin(angle))
    return embedding_from_positions(g, pos)


def _fan_positions(center, radius, count, start, stop):
    step = (stop - start) / max(count - 1, 1)
    return [
        (
            center[0] + radius * math.cos(start + i * step),
            center[1] + radius * math.sin(start + i * step),
        )
        for i in range(count)
    ]


def face_2_6_6() -> PlaneEmbedding:
    """Triangle whose corners have degrees 2, 6, 6 (leaf fans on two corners)."""
    edges = [(0, 1), (0, 2), (1, 2)]
    n = 3
    pos = {0: (0.0, 1.2), 1: (-1.0, 0.0), 2: (1.0, 0.0)}
    for corner, (lo, hi) in ((1, (math.pi * 0.7, math.pi * 1.45)), (2, (-math.pi * 0.45, math.pi * 0.3))):
        fan = _fan_positions(pos[corner], 1.1, 4, lo, hi)
        for p in fan:
            edges.append((corner, n))
            pos[n] = p
            n += 1
    return embedding_from_positions(make_graph(n, edges), pos)


def face_2_5_8() -> PlaneEmbedding:
    """Triangle with corner degrees 2, 5, 8."""
    edges = [(0, 1), (0, 2), (1, 2)]
    n = 3
    pos = {0: (0.0, 1.2), 1: (-1.0, 0.0), 2: (1.0, 0.0)}
    fan = _fan_positions(pos[1], 1.1, 3, math.pi * 0.7, math.pi * 1.45)
    for p in fan:
        edges.append((1, n))
        pos[n] = p
        n += 1
    fan = _fan_positions(pos[2], 1.1, 6, -math.pi * 0.55, math.pi * 0.35)
    for p in fan:
        edges.append((2, n))
        pos[n] = p
        n += 1
    return embedding_from_positions(make_graph(n, edges), pos)


def _hub_with_paths(path_count: int) -> PlaneEmbedding:
    """Vertex on one triangle plus `path_count` pendant 2-paths, so the hub
    has degree path_count + 2 and each path contributes a good 2-vertex."""
    edges = [(0, 1), (0, 2), (1, 2)]
    n = 3
    pos = {0: (0.0, 0.0), 1: (1.0, 0.45), 2: (1.0, -0.45)}
    angles = _fan_positions((0.0, 0.0), 1.0, path_count, math.pi * 0.45, math.pi * 1.55)
    outer = _fan_positions((0.0, 0.0), 2.0, path_count, math.pi * 0.45, math.pi * 1.55)
    for inner_pos, outer_pos in zip(angles, outer):
        edges.append((0, n))
        pos[n] = inner_pos
        edges.append((n, n + 1))
        pos[n + 1] = outer_pos
        n += 2
    return embedding_from_positions(make_graph(n, edges), pos)


def vertex7_one_triangle() -> PlaneEmbedding:
    return _hub_with_paths(5)


def vertex11_one_triangle() -> PlaneEmbedding:
    return _hub_with_paths(9)


def star(leaves: int) -> PlaneEmbedding:
    g = make_graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])
    pos = {0: (0.0, 0.0)}
    for i in range(1, leaves + 1):
        angle = 2 * math.pi * (i - 1) / leaves
        pos[i] = (math.cos(angle), math.sin(angle))
    return embedding_from_positions(g, pos)


def theta_6() -> PlaneEmbedding:
    """Two degree-3 hubs joined by three paths of two interior vertices."""
    edges = []
    for row, (y, a, b) in enumerate([(1.0, 2, 3), (0.0, 4, 5), (-1.0, 6, 7)]):
        edges += [(0, a), (a, b), (b, 1)]
    g = make_graph(8, edges)
    pos = {0: (-1.5, 0.0), 1: (1.5, 0.0)}
    for y, a, b in [(1.0, 2, 3), (0.0, 4, 5), (-1.0, 6, 7)]:
        pos[a] = (-0.5, y)
        pos[b] = (0.5, y)
    return embedding_from_positions(g, pos)


def hexagon_pendant_path() -> PlaneEmbedding:
    edges = [(i, (i + 1) % 6) for i in range(6)] + [(0, 6), (6, 7)]
    g = make_graph(8, edges)
    pos = {i: (math.cos(math.pi / 3 * i), math.sin(math.pi / 3 * i)) for i in range(6)}
    pos[6] = (2.2, 0.3)
    pos[7] = (3.4, 0.3)
    return embedding_from_positions(g, pos)


def triangles_on_hexagon() -> PlaneEmbedding:
    """Hexagon with one pendant triangle hanging off every vertex."""
    edges = [(i, (i + 1) % 6) for i in range(6)]
    n = 6
    pos = {i: (2 * math.cos(math.pi / 3 * i), 2 * math.sin(math.pi / 3 * i)) for i in range(6)}
    for i in range(6):
        angle = math.pi / 3 * i
        for spin in (-0.25, 0.25):
            pos[n] = (
                3.2 * math.cos(angle + spin),
                3.2 * math.sin(angle + spin),
            )
            edges.append((i, n))
            n += 1
        edges.append((n - 2, n - 1))
    return embedding_from_positions(make_graph(n, edges), pos)


def corpus() -> list[tuple[str, PlaneEmbedding]]:
    return [
        ("k3", k3_embedding()),
        ("triangle_link", triangle_link().embedding),
        ("hexagon", cycle_embedding(6)),
        ("heptagon", cycle_embedding(7)),
        ("fused_hexagons_2", fused_hexagons(2)),
        ("fused_hexagons_3", fused_hexagons(3)),
        ("triangle_with_9_cycle", triangle_with_cycle(9)),
        ("triangle_with_7_cycle", triangle_with_cycle(7)),
        ("triangle_bridge_hexagon", triangle_bridge_hexagon()),
        ("face_2_6_6", face_2_6_6()),
        ("face_2_5_8", face_2_5_8()),
        ("vertex7_one_triangle", vertex7_one_triangle()),
        ("vertex11_one_triangle", vertex11_one_triangle()),
        ("star_6", star(6)),
        ("theta_6", theta_6()),
        ("hexagon_pendant_path", hexagon_pendant_path()),
        ("triangles_on_hexagon", triangles_on_hexagon()),
        ("hub_gadget_1", hub_gadget(1).embedding),
        ("non_1k_1", non_1k(1).embedding),
    ]
