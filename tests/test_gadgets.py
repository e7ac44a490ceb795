import hashlib
import json
import time
from functools import partial
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from defcol import (
    GadgetResult,
    Graph,
    brute_force_oracle,
    check_planarity_certificate,
    ConstraintSet,
    cycles_of_length,
    dump_embedding,
    dump_graph,
    girth,
    hub_gadget,
    is_c4c5_free,
    is_valid_coloring,
    make_graph,
    non_1k,
    np_reduce,
    solve,
    trace_faces,
    triangle_link,
)

from defcol import gadgets
from defcol.gadgets import _hub_size
from defcol.graphs import MAX_VERTICES

from oracles import identify
from strategies import graphs

HUV_GRAPH_GOLDEN = """\
# defcol-edgelist v1
6 7
0 1
0 2
1 2
2 4
3 4
3 5
4 5
label 0 u
label 1 a
label 2 b
label 3 c
label 4 d
label 5 v
"""

GADGET_DIGESTS = json.loads((Path(__file__).parent / "gadget_digests.json").read_text())


def sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def pinned_gadgets():
    """Each generator call whose output `gadget_digests.json` pins, by its
    key there."""
    builds = {"triangle_link()": triangle_link}
    builds.update({f"hub_gadget({k})": partial(hub_gadget, k) for k in range(1, 6)})
    builds.update({f"non_1k({k})": partial(non_1k, k) for k in (*range(1, 7), 48)})
    return builds


def gadget_digests(result):
    """The sha256 of the `.graph` and `.emb` texts of a gadget, and of the
    reprs of its vertex ids, labels and terminals, which the files name
    only by index."""
    g = result.graph
    texts = {
        "graph": dump_graph(g),
        "embedding": dump_embedding(result.embedding),
        "vertices": repr(g.vertices),
        "labels": repr(g.labels),
        "terminals": repr(result.terminals),
    }
    return {name: sha(text) for name, text in texts.items()}


class TestTriangleLink:
    def test_shape(self):
        link = triangle_link()
        g = link.graph
        assert g.vertex_count == 6
        assert g.edge_count == 7
        assert len(cycles_of_length(g, 3)) == 2
        assert is_c4c5_free(g)

    def test_embedding_faces(self):
        link = triangle_link()
        assert check_planarity_certificate(link.embedding)
        assert sorted(map(len, trace_faces(link.embedding))) == [3, 3, 8]

    def test_terminals(self):
        link = triangle_link()
        assert set(link.terminals) == {"u", "a", "b", "c", "d", "v"}

    def test_forced_boundary_unsat_exhaustively(self):
        g = triangle_link().graph
        for k in (1, 2, 3):
            cons = ConstraintSet(
                forced={"u": 2, "v": 2},
                forbidden={v: frozenset({2}) for v in "abcd"},
            )
            assert brute_force_oracle(g, (1, k), cons).is_unsat

    def test_unconstrained_1_1_sat(self):
        out = brute_force_oracle(triangle_link().graph, (1, 1))
        assert out.is_sat

    def test_no_boundary_safe_coloring_with_both_terminals_2(self):
        # exhaustive form of the gadget property: u = v = 2 forces a
        # color-2 vertex among the interior neighbors of u or of v
        g = triangle_link().graph
        k = 1
        for assignment in _all_colorings(g, 2):
            if assignment["u"] != 2 or assignment["v"] != 2:
                continue
            if not _valid(g, (1, k), assignment):
                continue
            assert any(assignment[x] == 2 for x in "ab") or any(
                assignment[x] == 2 for x in "cd"
            )

    def test_golden_file(self):
        assert dump_graph(triangle_link().graph) == HUV_GRAPH_GOLDEN


def _all_colorings(g, k):
    from itertools import product

    for values in product(range(1, k + 1), repeat=g.vertex_count):
        yield dict(zip(g.vertices, values))


def _valid(g, spec, coloring):
    from defcol import is_valid_coloring

    return is_valid_coloring(g, spec, coloring)


class TestHubGadget:
    @pytest.mark.parametrize("k,expected", [(1, 40), (2, 64), (3, 88)])
    def test_vertex_count(self, k, expected):
        assert hub_gadget(k).graph.vertex_count == expected

    def test_c4c5_free_k1(self):
        assert is_c4c5_free(hub_gadget(1).graph)

    @pytest.mark.parametrize("k", [1, 2])
    def test_embedding_certified(self, k):
        assert check_planarity_certificate(hub_gadget(k).embedding)

    def test_terminals(self):
        hub = hub_gadget(1)
        assert set(hub.terminals) == {"z", "x1", "x2", "x3"}
        assert hub.graph.degree(hub.terminals["z"]) == 18

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            hub_gadget(0)

    def test_matches_identification_pipeline(self):
        # rebuild k=1 by explicit identification of nine disjoint copies
        hub = hub_gadget(1).graph
        vertices = ["z", "x1", "x2", "x3"]
        edges = [("x1", "x2"), ("x2", "x3")]
        pending = []
        for j in (1, 2, 3):
            for i in (1, 2, 3):
                p = f"h{j}_{i}_"
                vertices += [p + "u", p + "a", p + "b", p + "c", p + "d", p + "v"]
                edges += [
                    (p + "u", p + "a"),
                    (p + "u", p + "b"),
                    (p + "a", p + "b"),
                    (p + "b", p + "d"),
                    (p + "c", p + "d"),
                    (p + "c", p + "v"),
                    (p + "d", p + "v"),
                ]
                pending.append(("z", p + "u"))
                pending.append((f"x{j}", p + "v"))
        g = Graph(vertices, edges)
        for keep, merge in pending:
            g = identify(g, keep, merge)
        assert set(g.vertices) == set(hub.vertices)
        assert {frozenset(e) for e in g.edges()} == {frozenset(e) for e in hub.edges()}


class TestRotationIsTheStatement:
    """A generator lists each edge in the rotation at both of its ends, and
    the graph holds every pair listed; `PlaneEmbedding`'s match of each
    rotation against its vertex's neighbors is what catches an edge that
    one end leaves out."""

    @pytest.mark.parametrize("build, vertex", [
        (triangle_link, "d"),
        (partial(hub_gadget, 1), "h1_1_d"),
        (partial(non_1k, 1), "s1.h1_1_d"),
    ], ids=["triangle_link", "hub_gadget", "non_1k"])
    def test_edge_listed_at_one_end_only_is_refused(self, monkeypatch, build, vertex):
        link_parts = gadgets._link_parts

        def d_drops_v(prefix, u_id, v_id):
            rotation, at_u, at_v = link_parts(prefix, u_id, v_id)
            rotation[prefix + "d"].remove(v_id)
            return rotation, at_u, at_v

        monkeypatch.setattr(gadgets, "_link_parts", d_drops_v)
        with pytest.raises(ValueError) as info:
            build()
        assert str(info.value) == f"rotation at {vertex!r} does not match its neighbors"

    def test_vertex_order_is_the_key_order(self):
        triangle = {"q": ["p", "r"], "p": ["r", "q"], "r": ["q", "p"]}
        result = gadgets._embedded(triangle, {"top": "r"})
        assert result.graph.vertices == ("q", "p", "r")
        assert result.graph.labels == {"r": "top"}
        assert result.terminals == {"top": "r"}
        backwards = gadgets._embedded(dict(reversed(triangle.items())), {})
        assert backwards.graph.vertices == ("r", "p", "q")

    def test_neighbor_without_its_own_key_is_refused(self):
        with pytest.raises(ValueError) as info:
            gadgets._embedded({"p": ["q"]}, {})
        assert str(info.value) == "edge endpoint 'q' is not a vertex"


class TestNon1k:
    def test_counts_and_structure(self):
        gadget = non_1k(1)
        g = gadget.graph
        assert g.vertex_count == 120
        assert is_c4c5_free(g)
        assert check_planarity_certificate(gadget.embedding)
        zs = [gadget.terminals[t] for t in ("z1", "z2", "z3")]
        assert g.has_edge(zs[0], zs[1]) and g.has_edge(zs[1], zs[2])
        assert not g.has_edge(zs[0], zs[2])

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            non_1k(0)

    def test_not_1_1_colorable(self):
        out = solve(non_1k(1).graph, (1, 1), budget=10**7)
        assert out.is_unsat


class TestNpReduce:
    def test_single_vertex_two_triangles(self):
        out = np_reduce(make_graph(1, []), 3)
        assert out.graph.vertex_count == 5
        assert out.graph.edge_count == 6

    def test_c6_k2(self):
        c6 = make_graph(6, [(i, (i + 1) % 6) for i in range(6)])
        out = np_reduce(c6, 2)
        assert out.graph.vertex_count == 18
        assert is_c4c5_free(out.graph)

    def test_c6_k3(self):
        c6 = make_graph(6, [(i, (i + 1) % 6) for i in range(6)])
        out = np_reduce(c6, 3)
        assert out.graph.vertex_count == 30
        assert is_c4c5_free(out.graph)

    def test_k1_returns_input(self):
        c6 = make_graph(6, [(i, (i + 1) % 6) for i in range(6)])
        assert np_reduce(c6, 1).graph == c6

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            np_reduce(make_graph(1, []), 0)

    def test_equivalence_on_c6(self):
        c6 = make_graph(6, [(i, (i + 1) % 6) for i in range(6)])
        base = brute_force_oracle(c6, (0, 1))
        for k in (2,):
            reduced = solve(np_reduce(c6, k).graph, (0, k), budget=10**7)
            assert base.is_sat == reduced.is_sat

    def test_attachment_purity(self):
        g = make_graph(4, [(0, 1), (1, 2), (2, 3)])
        out = np_reduce(g, 3).graph
        added = [v for v in out.vertices if v not in (0, 1, 2, 3)]
        assert len(added) == 4 * 2 * 2
        assert len(cycles_of_length(out, 3)) == 4 * 2
        for v in added:
            assert out.degree(v) == 2
            triangles = [c for c in cycles_of_length(out, 3) if v in c]
            assert len(triangles) == 1

    @settings(max_examples=20, deadline=None)
    @given(graphs(min_n=1, max_n=6), st.integers(2, 3))
    def test_girth_six_inputs_stay_c4c5_free(self, g, k):
        if girth(g) < 6:
            return
        assert is_c4c5_free(np_reduce(g, k).graph)


class TestSizeLimits:
    """A generator refuses, before building anything, an output that the
    loaders would refuse."""

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_size_formula_matches_the_built_gadgets(self, k):
        n, m = _hub_size(k)
        hub, composite = hub_gadget(k).graph, non_1k(k).graph
        assert (hub.vertex_count, hub.edge_count) == (n, m)
        assert (composite.vertex_count, composite.edge_count) == (3 * n, 3 * m + 2)

    def test_largest_hub_inside_the_limit_passes_the_check(self, monkeypatch):
        assert _hub_size(8332) == (199_984, 349_967)
        assert _hub_size(8333)[0] > MAX_VERTICES

        class Built(Exception):
            pass

        def build(k, prefix):
            raise Built

        # The check lets k=8332 through to the build, which is not run.
        monkeypatch.setattr(gadgets, "_hub_parts", build)
        with pytest.raises(Built):
            hub_gadget(8332)
        with pytest.raises(ValueError, match="limits"):
            hub_gadget(8333)

    @pytest.mark.parametrize("build, k", [
        (hub_gadget, 10**9),
        (non_1k, 10**9),
        (non_1k, 2778),  # 3 * (4 + 12 * 5557) = 200,064 vertices
        (lambda k: np_reduce(make_graph(3, [(0, 1), (1, 2)]), k), 10**9),
        (lambda k: np_reduce(make_graph(3, [(0, 1), (1, 2)]), k), 33_334),  # 200,001
    ], ids=["hub", "non1k", "non1k_edge", "reduce", "reduce_edge"])
    def test_oversized_output_rejected_fast(self, build, k):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="limits"):
            build(k)
        assert time.perf_counter() - start < 0.5


class TestAllOutputsC4C5Free:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_hub_gadget(self, k):
        assert is_c4c5_free(hub_gadget(k).graph)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_non_1k(self, k):
        assert is_c4c5_free(non_1k(k).graph)


THREE_COLOR_GADGETS = {
    "triangle_link": triangle_link,
    **{f"hub_gadget({k})": (lambda k=k: hub_gadget(k)) for k in (1, 2, 3)},
    **{f"non_1k({k})": (lambda k=k: non_1k(k)) for k in (1, 2, 3, 6)},
    **{f"np_reduce(non_1k(1),{k})": (lambda k=k: np_reduce(non_1k(1).graph, k)) for k in (2, 3)},
}


class TestThreeColorKnownAnswers:
    """Published results say every planar graph without 4- and 5-cycles is
    (2,1,0)- and (4,0,0)-colorable (Chang, Havet, Montassier & Raspaud
    2011), (3,0,0)-colorable (Hill, Smith & Yu 2013), (1,1,0)-colorable
    (Xu, Miao & Wang 2014) and (2,0,0)-colorable (Chen, Wang, Liu & Xu
    2016). These are cited from memory, not checked here; they are why
    each solve below must be sat, since the paper's gadgets lie in that
    class. The test checks the class membership and every witness."""

    SPECS = [(2, 1, 0), (4, 0, 0), (3, 0, 0), (1, 1, 0), (2, 0, 0)]

    @pytest.mark.parametrize("name", list(THREE_COLOR_GADGETS))
    def test_sat_at_every_positive_spec(self, name):
        built = THREE_COLOR_GADGETS[name]()
        g = built.graph
        assert is_c4c5_free(g)
        if built.embedding is not None:
            assert check_planarity_certificate(built.embedding)
        for spec in self.SPECS:
            out = solve(g, spec, budget=10**5)
            assert out.is_sat, (spec, out.status)
            assert is_valid_coloring(g, spec, out.coloring)


class TestDeterminism:
    def test_outputs_byte_identical_across_builds(self):
        for build in (triangle_link, lambda: hub_gadget(1), lambda: non_1k(1)):
            first = build()
            second = build()
            assert dump_graph(first.graph) == dump_graph(second.graph)
            assert dump_embedding(first.embedding) == dump_embedding(second.embedding)

    def test_digest_file_pins_exactly_the_pinned_gadgets(self):
        assert set(GADGET_DIGESTS) == set(pinned_gadgets())

    @pytest.mark.parametrize("name", list(pinned_gadgets()))
    def test_pinned_gadget_digests(self, name):
        assert gadget_digests(pinned_gadgets()[name]()) == GADGET_DIGESTS[name]


class TestGadgetResult:
    def test_terminal_must_exist(self):
        g = make_graph(2, [(0, 1)])
        with pytest.raises(ValueError):
            GadgetResult(g, {"z": 7})

    def test_terminals_must_be_distinct(self):
        g = make_graph(2, [(0, 1)])
        with pytest.raises(ValueError):
            GadgetResult(g, {"a": 0, "b": 0})
