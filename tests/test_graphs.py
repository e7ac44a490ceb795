import math
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import defcol.graphs as graphs_module
from defcol import (
    Graph,
    cycles_of_length,
    delete_vertex,
    dump_graph,
    girth,
    hub_gadget,
    is_c4c5_free,
    is_connected,
    load_graph,
    make_graph,
    triangle_link,
)

from oracles import cycles_by_permutation, canonical_cycle, girth_by_enumeration, identify
from strategies import graphs, graphs_with_edge

HUV_SKELETON_EDGES = [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (3, 5), (4, 5)]


def k_n(n):
    return make_graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def cycle(n):
    return make_graph(n, [(i, (i + 1) % n) for i in range(n)])


@st.composite
def forests_plus_cores(draw):
    """Small cores, some bridged to what came before, plus up to 30 tree
    vertices each joined by at most one edge, in shuffled vertex order.
    Bridges and tree vertices close no cycle, so the girth is the least
    oracle girth of the cores."""
    edges: list[tuple[int, int]] = []
    n = 0
    expected = math.inf
    for core in draw(st.lists(graphs(max_n=6), max_size=4)):
        idx = core.index_of
        edges += [(n + idx(u), n + idx(v)) for u, v in core.edges()]
        if n and draw(st.booleans()):
            edges.append((draw(st.integers(0, n - 1)), n + draw(st.integers(0, len(core) - 1))))
        expected = min(expected, girth_by_enumeration(core))
        n += len(core)
    for v in range(n, n + draw(st.integers(0, 30))):
        anchor = draw(st.integers(-1, v - 1))
        if anchor >= 0:
            edges.append((anchor, v))
        n = v + 1
    perm = draw(st.permutations(range(n)))
    return make_graph(n, [(perm[u], perm[v]) for u, v in edges]), expected


class TestMakeGraph:
    def test_k3_degrees(self):
        g = make_graph(3, [(0, 1), (1, 2), (0, 2)])
        assert [g.degree(v) for v in g.vertices] == [2, 2, 2]
        assert g.edge_count == 3

    def test_single_isolated_vertex(self):
        g = make_graph(1, [])
        assert g.vertex_count == 1
        assert g.degree(0) == 0

    def test_huv_skeleton_degree_sequence(self):
        # vertices in order (u, a, b, d, c, v)
        g = make_graph(6, HUV_SKELETON_EDGES)
        assert [g.degree(v) for v in g.vertices] == [2, 2, 3, 3, 2, 2]

    def test_duplicate_edges_collapse(self):
        g = make_graph(2, [(0, 1), (1, 0), (0, 1)])
        assert g.edge_count == 1

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            make_graph(2, [(0, 2)])

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            make_graph(2, [(1, 1)])

    def test_duplicate_vertex_rejected(self):
        with pytest.raises(ValueError):
            Graph([0, 0])

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError):
            Graph([0, 1], [], {0: "x", 1: "x"})


class TestIdentify:
    def test_bowtie_from_two_triangles(self):
        g = make_graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        merged = identify(g, 0, 3)
        assert merged.vertex_count == 5
        assert merged.degree(0) == 4
        assert merged.edge_count == 6

    def test_disjoint_merge_adds_no_edges(self):
        g = make_graph(3, [(0, 1)])
        merged = identify(g, 1, 2)
        assert merged.edges() == [(0, 1)]
        assert merged.vertex_count == 2

    def test_adjacent_pair_in_k3(self):
        # hand oracle: neighborhood union drops the loop, parallels collapse
        merged = identify(k_n(3), 0, 1)
        assert merged.vertex_count == 2
        assert merged.edges() == [(0, 2)]

    def test_merged_vertex_keeps_first_identifier(self):
        g = Graph(["p", "q", "r"], [("p", "q"), ("q", "r")], {"p": "left"})
        merged = identify(g, "p", "r")
        assert "r" not in merged
        assert merged.label_of("p") == "left"

    def test_identical_arguments_rejected(self):
        with pytest.raises(ValueError):
            identify(k_n(3), 1, 1)

    def test_missing_vertex_rejected(self):
        with pytest.raises(ValueError):
            identify(k_n(3), 0, 7)

    @given(graphs_with_edge())
    def test_identify_matches_union_collapse_oracle(self, graph_and_edge):
        g, (u, v) = graph_and_edge
        merged = identify(g, u, v)
        assert merged.vertex_count == g.vertex_count - 1
        expected = set()
        for a, b in g.edges():
            a2 = u if a == v else a
            b2 = u if b == v else b
            if a2 != b2:
                expected.add(frozenset((a2, b2)))
        assert {frozenset(e) for e in merged.edges()} == expected


class TestCycles:
    def test_k3_single_triangle(self):
        assert cycles_of_length(k_n(3), 3) == [(0, 1, 2)]

    def test_c6_has_no_c4(self):
        assert cycles_of_length(cycle(6), 4) == []

    def test_huv_skeleton_cycle_census(self):
        g = make_graph(6, HUV_SKELETON_EDGES)
        assert len(cycles_of_length(g, 3)) == 2
        assert cycles_of_length(g, 4) == []
        assert cycles_of_length(g, 5) == []

    def test_length_bounds_enforced(self):
        for bad in (2, 9):
            with pytest.raises(ValueError):
                cycles_of_length(k_n(4), bad)

    def test_deterministic_order(self):
        g = k_n(5)
        assert cycles_of_length(g, 4) == cycles_of_length(g, 4)

    @settings(max_examples=60, deadline=None)
    @given(graphs(max_n=7), st.integers(3, 7))
    def test_agrees_with_permutation_oracle(self, g, length):
        ours = cycles_of_length(g, length)
        canonical = {canonical_cycle(g, c) for c in ours}
        assert len(canonical) == len(ours)
        assert canonical == cycles_by_permutation(g, length)


def wheel(rim):
    return make_graph(rim + 1, [(i, (i + 1) % rim) for i in range(rim)]
                      + [(rim, i) for i in range(rim)])


def petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return make_graph(10, outer + spokes + inner)


@st.composite
def triangle_rich_graphs(draw, max_n=8):
    """Unions of triangles and single edges on up to max_n vertices: dense
    in triangles, which close 4- and 5-cycles only when two of them share an
    edge or are joined by a short path."""
    n = draw(st.integers(3, max_n))
    vertex = st.integers(0, n - 1)
    triples = draw(st.lists(st.tuples(vertex, vertex, vertex), max_size=4))
    edges = draw(st.lists(st.tuples(vertex, vertex), max_size=6))
    for a, b, c in triples:
        edges += [(a, b), (b, c), (a, c)]
    return make_graph(n, [(a, b) for a, b in edges if a != b])


class TestC4C5Free:
    def test_square_is_not(self):
        assert not is_c4c5_free(cycle(4))

    def test_hexagon_is(self):
        assert is_c4c5_free(cycle(6))

    @pytest.mark.parametrize(
        "g,free",
        [
            (wheel(5), False),
            (petersen(), False),  # girth 5
            (k_n(4), False),
            (make_graph(6, [(i, (i + 1) % 6) for i in range(6)] + [(0, 3)]), False),
            (hub_gadget(3).graph, True),
        ],
        ids=["wheel5", "petersen", "k4", "c6_long_chord", "hub_gadget3"],
    )
    def test_pinned(self, g, free):
        assert is_c4c5_free(g) is free

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(graphs(max_n=8), triangle_rich_graphs()))
    def test_agrees_with_permutation_oracle(self, g):
        edges = g.edges()
        expected = not cycles_by_permutation(g, 4) and not cycles_by_permutation(g, 5)
        assert is_c4c5_free(g) is expected
        assert g.edges() == edges

    def test_never_enumerates_paths(self, monkeypatch):
        calls = []
        original = graphs_module._iter_cycles

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(graphs_module, "_iter_cycles", counted)
        for g in (wheel(5), petersen(), cycle(6), hub_gadget(3).graph):
            is_c4c5_free(g)
        assert calls == []
        cycles_of_length(cycle(6), 4)
        assert len(calls) == 1

    def test_triangle_link_output(self):
        assert is_c4c5_free(triangle_link().graph)

    @settings(max_examples=60, deadline=None)
    @given(graphs_with_edge(max_n=6))
    def test_monotone_under_edge_deletion(self, graph_and_edge):
        g, (u, v) = graph_and_edge
        if not is_c4c5_free(g):
            return
        pruned = Graph(g.vertices, [e for e in g.edges() if set(e) != {u, v}])
        assert is_c4c5_free(pruned)


class TestGirth:
    def test_tree_is_acyclic(self):
        assert girth(make_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])) == math.inf

    def test_k3(self):
        assert girth(k_n(3)) == 3

    def test_hexagon_with_pendant_path(self):
        edges = [(i, (i + 1) % 6) for i in range(6)] + [(0, 6), (6, 7)]
        assert girth(make_graph(8, edges)) == 6

    @settings(max_examples=60, deadline=None)
    @given(graphs(max_n=7))
    def test_agrees_with_enumeration_oracle(self, g):
        assert girth(g) == girth_by_enumeration(g)

    @settings(max_examples=80, deadline=None)
    @given(forests_plus_cores())
    def test_forests_plus_cycles_agree_with_enumeration_oracle(self, case):
        g, expected = case
        assert girth(g) == expected

    def test_cycle_with_long_tails(self):
        edges = [(i, (i + 1) % 5) for i in range(5)]
        edges += [(i, i + 1) for i in range(5, 400)] + [(0, 5), (2, 401)]
        assert girth(make_graph(402, edges)) == 5

    def test_two_cycles_joined_by_a_path(self):
        edges = [(i, (i + 1) % 7) for i in range(7)]
        edges += [(7 + i, 7 + (i + 1) % 9) for i in range(9)] + [(0, 16), (16, 7)]
        assert girth(make_graph(17, edges)) == 7

    def test_long_cycle_is_fast(self):
        g = cycle(10_000)
        start = time.perf_counter()
        assert girth(g) == 10_000
        assert time.perf_counter() - start < 1.0


class TestDeleteVertex:
    def test_k3_minus_vertex(self):
        g = delete_vertex(k_n(3), 2)
        assert g.edges() == [(0, 1)]

    def test_star_minus_center(self):
        g = delete_vertex(make_graph(4, [(0, 1), (0, 2), (0, 3)]), 0)
        assert g.edge_count == 0
        assert g.vertex_count == 3

    def test_huv_minus_b(self):
        link = triangle_link().graph
        g = delete_vertex(link, "b")
        assert g.vertex_count == 5
        assert {frozenset(e) for e in g.edges()} == {
            frozenset(p) for p in (("u", "a"), ("c", "d"), ("c", "v"), ("d", "v"))
        }

    def test_missing_vertex_rejected(self):
        with pytest.raises(ValueError):
            delete_vertex(k_n(3), 9)


class TestProperties:
    @settings(max_examples=80, deadline=None)
    @given(graphs())
    def test_handshake(self, g):
        assert sum(g.degree(v) for v in g.vertices) == 2 * g.edge_count

    def test_is_connected(self):
        assert is_connected(k_n(3))
        assert not is_connected(make_graph(4, [(0, 1), (2, 3)]))
        assert is_connected(make_graph(0, []))


class TestEdgeListFormat:
    def test_round_trip_with_labels(self):
        g = Graph(["u", "v", "w"], [("u", "v"), ("v", "w")], {"u": "u", "w": "w"})
        text = dump_graph(g)
        back = load_graph(text)
        assert back.vertex_count == 3
        assert back.edges() == [(0, 1), (1, 2)]
        assert back.label_of(0) == "u"
        assert back.label_of(2) == "w"

    def test_comments_and_blank_lines_ignored(self):
        text = "# header\n\n3 2\n0 1\n# middle comment\n1 2\n"
        g = load_graph(text)
        assert g.edge_count == 2

    def test_malformed_rejected(self):
        with pytest.raises(ValueError):
            load_graph("3\n0 1\n")
        with pytest.raises(ValueError):
            load_graph("3 2\n0 1\n")
        with pytest.raises(ValueError):
            load_graph("2 1\n0 1\nnoise here extra\n")

    @settings(max_examples=40, deadline=None)
    @given(graphs())
    def test_round_trip_preserves_structure(self, g):
        back = load_graph(dump_graph(g))
        assert back.vertex_count == g.vertex_count
        idx = g.index_of
        assert {(idx(u), idx(v)) for u, v in g.edges()} == set(back.edges())


@st.composite
def opaque_graphs(draw):
    """Graphs on string and tuple vertex ids in shuffled order, from an edge
    list with repeats and both orientations, plus the neighbor sets that
    list implies."""
    opaque = st.one_of(st.text(max_size=3), st.tuples(st.integers(0, 3), st.text(max_size=2)))
    ids = draw(st.lists(opaque, unique=True, max_size=9))
    ids = draw(st.permutations(ids))
    pairs = [(a, b) for a in ids for b in ids if a != b]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=25)) if pairs else []
    around = {v: set() for v in ids}
    for a, b in edges:
        around[a].add(b)
        around[b].add(a)
    return Graph(ids, edges), around


class TestAdjacency:
    @settings(max_examples=150, deadline=None)
    @given(opaque_graphs())
    def test_adjacency_neighbors_and_edges_follow_vertex_order(self, case):
        g, around = case
        idx = g.index_of
        for i, v in enumerate(g.vertices):
            assert g.adjacency[i] == tuple(sorted(idx(w) for w in around[v]))
            assert g.neighbors(v) == frozenset(around[v])
            assert g.ordered_neighbors(v) == tuple(sorted(around[v], key=idx))
            assert g.degree(v) == len(around[v])
            assert all(g.has_edge(v, w) == (w in around[v]) for w in g.vertices)
        by_sort = sorted(((u, w) for u in g.vertices for w in around[u] if idx(w) > idx(u)),
                         key=lambda e: (idx(e[0]), idx(e[1])))
        assert g.edges() == by_sort
        assert g.edge_count == len(by_sort)
        back = load_graph(dump_graph(g))
        assert back.adjacency == g.adjacency
        assert dump_graph(back) == dump_graph(g)

    def test_adjacency_is_read_only(self):
        g = k_n(3)
        with pytest.raises(AttributeError):
            g.adjacency = ()
        with pytest.raises(TypeError):
            g.adjacency[0] = ()
