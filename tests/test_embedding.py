from collections import defaultdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from defcol import (
    Graph,
    PlaneEmbedding,
    check_planarity_certificate,
    dump_embedding,
    embedding_from_positions,
    load_embedding,
    make_graph,
    trace_faces,
)
from defcol.cli import main
from defcol.embedding import DISCONNECTED, NOT_GENUS_ZERO, certify_faces
from defcol.graphs import is_connected

import corpus as corpus_module
from corpus import (
    corpus,
    cycle_embedding,
    fused_hexagons,
    k3_embedding,
    pendant_triangle,
    walk_fixtures,
)
from oracles import (
    certify_faces_by_dart_dict,
    embedding_from_positions_by_ids,
    load_embedding_by_tokens,
    trace_faces_by_dart_dict,
)
from strategies import connected_rotations, rotations

CORPUS = corpus()


class TestTraceFaces:
    def test_k3_two_triangles(self):
        faces = trace_faces(k3_embedding())
        assert sorted(map(len, faces)) == [3, 3]

    def test_hexagon_two_six_faces(self):
        faces = trace_faces(cycle_embedding(6))
        assert sorted(map(len, faces)) == [6, 6]

    def test_pendant_edge_walked_twice(self):
        faces = trace_faces(pendant_triangle())
        assert sorted(map(len, faces)) == [3, 5]
        outer = max(faces, key=len)
        assert [u for u, _ in outer].count(0) == 2

    def test_deterministic_and_lowest_dart_first(self):
        emb = cycle_embedding(6)
        first = trace_faces(emb)
        second = trace_faces(emb)
        assert first == second
        assert first[0][0] == (0, 1)

    @pytest.mark.parametrize("name,emb", CORPUS, ids=[n for n, _ in CORPUS])
    def test_partitions_all_darts(self, name, emb):
        g = emb.graph
        darts = [d for f in trace_faces(emb) for d in f]
        assert len(darts) == 2 * g.edge_count
        assert len(set(darts)) == len(darts)

    @pytest.mark.parametrize("name,emb", CORPUS, ids=[n for n, _ in CORPUS])
    def test_face_degrees_sum_to_darts(self, name, emb):
        assert sum(map(len, trace_faces(emb))) == 2 * emb.graph.edge_count

    def test_disconnected_rejected(self):
        g = make_graph(4, [(0, 1), (2, 3)])
        emb = PlaneEmbedding(g, {0: [1], 1: [0], 2: [3], 3: [2]})
        with pytest.raises(ValueError):
            trace_faces(emb)

    def test_lone_vertex_bounds_one_face(self):
        emb = PlaneEmbedding(make_graph(1, []), {0: []})
        faces = trace_faces(emb)
        assert [len(f) for f in faces] == [0]
        assert check_planarity_certificate(emb)

    def test_single_edge_one_face_of_degree_two(self):
        emb = PlaneEmbedding(make_graph(2, [(0, 1)]), {0: [1], 1: [0]})
        assert [len(f) for f in trace_faces(emb)] == [2]
        assert check_planarity_certificate(emb)


WIDER = walk_fixtures()
# the connected ones, whose faces are checked against the definition
FIXED = [(name, emb) for name, emb in WIDER if is_connected(emb.graph)]


class TestFaceWalks:
    """The traced faces, checked against the definition: every dart on
    exactly one walk, each step (u, w) -> (w, the neighbor after u in the
    rotation at w), each walk starting at its lowest dart (vertex order,
    then neighbor order), faces ordered by those first darts, and the
    certificate defect set by Euler's formula."""

    @staticmethod
    def check(emb):
        g = emb.graph
        faces, defect = certify_faces(emb)
        assert faces == trace_faces(emb)
        if g.vertex_count == 1:
            assert (faces, defect) == ([()], None)
            return
        rank = {}
        for u in g.vertices:
            for w in g.ordered_neighbors(u):
                rank[(u, w)] = len(rank)
        walked = [d for f in faces for d in f]
        assert sorted(map(rank.__getitem__, walked)) == list(range(len(rank)))
        for walk in faces:
            for (u, w), after in zip(walk, walk[1:] + walk[:1]):
                around = emb.rotation_of(w)
                assert after == (w, around[(around.index(u) + 1) % len(around)])
            assert rank[walk[0]] == min(map(rank.__getitem__, walk))
        firsts = [rank[walk[0]] for walk in faces]
        assert firsts == sorted(firsts)
        euler = g.vertex_count - g.edge_count + len(faces)
        assert defect == (None if euler == 2 else NOT_GENUS_ZERO)

    @settings(max_examples=300, deadline=None)
    @given(emb=connected_rotations(max_n=9))
    def test_random_rotations(self, emb):
        self.check(emb)

    @pytest.mark.parametrize("name,emb", FIXED, ids=[n for n, _ in FIXED])
    def test_fixed_embeddings(self, name, emb):
        self.check(emb)


class TestAgainstTheDartDict:
    """The face walk on integer darts gives the faces, in the same order and
    from the same start darts, and the defect of the (u, w) dart-dict tracer
    it replaced; trace_faces and the certificate refuse the same inputs."""

    @staticmethod
    def check(emb):
        expected = certify_faces_by_dart_dict(emb)
        assert certify_faces(emb) == expected
        faces, defect = expected
        if defect == DISCONNECTED:
            for trace in (trace_faces, trace_faces_by_dart_dict):
                with pytest.raises(ValueError, match="^face tracing requires a connected graph$"):
                    trace(emb)
            with pytest.raises(ValueError):
                check_planarity_certificate(emb)
            return
        assert trace_faces(emb) == faces
        assert check_planarity_certificate(emb) is (defect is None)

    @pytest.mark.parametrize("name,emb", WIDER, ids=[n for n, _ in WIDER])
    def test_fixed_embeddings(self, name, emb):
        self.check(emb)

    def test_fixed_embeddings_cover_every_defect(self):
        defects = {certify_faces(emb)[1] for _, emb in WIDER}
        assert defects == {None, NOT_GENUS_ZERO, DISCONNECTED}

    @settings(max_examples=300, deadline=None)
    @given(emb=connected_rotations(max_n=9))
    def test_connected_rotations(self, emb):
        self.check(emb)

    @settings(max_examples=300, deadline=None)
    @given(emb=rotations(max_n=8))
    def test_any_rotation(self, emb):
        self.check(emb)


# A triangle 0 1 2 with the pendant vertex 3 at 2, as `dump_embedding` writes
# it, and each rotation fault with the message the CLI reports for it.
TRIANGLE_PENDANT = "# defcol-embedding v1\n4 4\n0 1\n0 2\n1 2\n2 3\n"
ROT_LINES = ["rot 0: 1 2", "rot 1: 2 0", "rot 2: 0 1 3", "rot 3: 2"]


def _document(*rot_lines):
    return TRIANGLE_PENDANT + "".join(line + "\n" for line in rot_lines)


def _replaced(i, line):
    return _document(*ROT_LINES[:i], *([line] if line else []), *ROT_LINES[i + 1:])


ROTATION_FAULTS = {
    "repeats a neighbor": (_replaced(0, "rot 0: 1 1"), "rotation at 0 repeats a neighbor"),
    "misses a neighbor": (_replaced(2, "rot 2: 0 1"), "rotation at 2 does not match its neighbors"),
    "adds a vertex": (_replaced(0, "rot 0: 1 2 3"), "rotation at 0 does not match its neighbors"),
    "adds a non-vertex": (_replaced(0, "rot 0: 1 2 9"),
                          "rotation at 0 does not match its neighbors"),
    "first fault in vertex order": (_document("rot 2: 0 1", "rot 1: 2 0", "rot 0: 1 1", "rot 3: 2"),
                                    "rotation at 0 repeats a neighbor"),
    "missing rot line": (_replaced(3, None), "no rotation record for vertex 3"),
    "duplicated rot line": (_document(*ROT_LINES[:2], "rot 1: 0 2", *ROT_LINES[2:]),
                            "second rotation line for vertex 1"),
    "unknown vertex": (_document(*ROT_LINES, "rot 9: 2"),
                       "rotation must list every vertex exactly once"),
    "unknown vertex for a listed one": (_replaced(3, "rot 9: 2"), "no rotation record for vertex 3"),
}


class TestRotationMessages:
    """Every rotation fault is reported in the words it had when the
    rotation was checked vertex by vertex, through the CLI and through a
    direct constructor call alike."""

    @pytest.mark.parametrize("fault", ROTATION_FAULTS)
    def test_cli_error_lines(self, fault, tmp_path, capsys):
        text, message = ROTATION_FAULTS[fault]
        path = tmp_path / "fault.emb"
        path.write_text(text)
        for argv in (["check", "lemmas", "--embedding", str(path)],
                     ["audit", "--embedding", str(path), "--ruleset", "44"]):
            assert main(argv) == 2
            out = capsys.readouterr()
            assert (out.out, out.err) == ("", f"defcol: error: {message}\n")
        with pytest.raises(ValueError) as exc:
            load_embedding_by_tokens(text)
        assert str(exc.value) == message

    def test_rot_lines_out_of_order_load(self):
        text = _document(*reversed(ROT_LINES))
        assert dump_embedding(load_embedding(text)) == _document(*ROT_LINES)

    GRAPH = Graph(["c", "b", "a", "d"], [("a", "b"), ("b", "c"), ("a", "c"), ("c", "d")])
    GOOD = {"a": ["b", "c"], "b": ["c", "a"], "c": ["a", "d", "b"], "d": ["c"]}
    WITHOUT_D = {"a": ["b", "c"], "b": ["c", "a"], "c": ["a", "d", "b"]}
    CONSTRUCTOR_FAULTS = {
        "repeats a neighbor": ({**GOOD, "b": ["c", "c"]}, "rotation at 'b' repeats a neighbor"),
        "misses a neighbor": ({**GOOD, "c": ["a", "b"]},
                              "rotation at 'c' does not match its neighbors"),
        "adds a vertex": ({**GOOD, "a": ["b", "c", "d"]},
                          "rotation at 'a' does not match its neighbors"),
        "adds a non-vertex": ({**GOOD, "a": ["b", "c", "z"]},
                              "rotation at 'a' does not match its neighbors"),
        "first fault in vertex order": ({**GOOD, "a": ["b", "b"], "d": []},
                                        "rotation at 'a' repeats a neighbor"),
        "missing vertex": (WITHOUT_D, "rotation must list every vertex exactly once"),
        "missing vertex of a defaultdict": (defaultdict(list, WITHOUT_D),
                                            "rotation must list every vertex exactly once"),
        "unknown vertex": ({**GOOD, "z": []}, "rotation must list every vertex exactly once"),
        "unknown vertex for a listed one": ({**WITHOUT_D, "z": ["c"]},
                                            "rotation must list every vertex exactly once"),
    }

    @pytest.mark.parametrize("fault", CONSTRUCTOR_FAULTS)
    def test_constructor_messages(self, fault):
        rotation, message = self.CONSTRUCTOR_FAULTS[fault]
        with pytest.raises(ValueError) as exc:
            PlaneEmbedding(self.GRAPH, rotation)
        assert str(exc.value) == message

    def test_rotation_of_gives_the_supplied_order(self):
        emb = PlaneEmbedding(self.GRAPH, self.GOOD)
        assert {v: emb.rotation_of(v) for v in "abcd"} == {v: tuple(ns) for v, ns in self.GOOD.items()}


class TestRotationValidation:
    def test_missing_neighbor_rejected(self):
        g = make_graph(3, [(0, 1), (1, 2), (0, 2)])
        with pytest.raises(ValueError):
            PlaneEmbedding(g, {0: [1], 1: [0, 2], 2: [0, 1]})

    def test_duplicated_neighbor_rejected(self):
        g = make_graph(2, [(0, 1)])
        with pytest.raises(ValueError):
            PlaneEmbedding(g, {0: [1, 1], 1: [0]})

    def test_foreign_vertex_rejected(self):
        g = make_graph(2, [(0, 1)])
        with pytest.raises(ValueError):
            PlaneEmbedding(g, {0: [1], 1: [0], 2: []})


class TestPlanarityCertificate:
    @pytest.mark.parametrize("name,emb", CORPUS, ids=[n for n, _ in CORPUS])
    def test_corpus_certified(self, name, emb):
        assert check_planarity_certificate(emb)

    @settings(max_examples=25, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_k5_never_certifies(self, rng):
        g = make_graph(5, [(i, j) for i in range(5) for j in range(i + 1, 5)])
        rotation = {}
        for v in g.vertices:
            around = list(g.ordered_neighbors(v))
            rng.shuffle(around)
            rotation[v] = around
        assert not check_planarity_certificate(PlaneEmbedding(g, rotation))

    @settings(max_examples=25, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_k33_never_certifies(self, rng):
        g = make_graph(6, [(i, j) for i in range(3) for j in range(3, 6)])
        rotation = {}
        for v in g.vertices:
            around = list(g.ordered_neighbors(v))
            rng.shuffle(around)
            rotation[v] = around
        assert not check_planarity_certificate(PlaneEmbedding(g, rotation))

    def test_disconnected_rejected(self):
        g = make_graph(4, [(0, 1), (2, 3)])
        emb = PlaneEmbedding(g, {0: [1], 1: [0], 2: [3], 3: [2]})
        with pytest.raises(ValueError):
            check_planarity_certificate(emb)


class TestPositions:
    def test_square_from_coordinates(self):
        g = make_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        pos = {0: (0.0, 0.0), 1: (1.0, 0.0), 2: (1.0, 1.0), 3: (0.0, 1.0)}
        emb = embedding_from_positions(g, pos)
        assert check_planarity_certificate(emb)

    def test_missing_position_rejected(self):
        g = make_graph(2, [(0, 1)])
        with pytest.raises(ValueError):
            embedding_from_positions(g, {0: (0.0, 0.0)})

    def test_same_rotation_as_by_ids_on_drawn_fixtures(self, monkeypatch):
        drawings = []

        def record(g, positions):
            drawings.append((g, positions))
            return embedding_from_positions(g, positions)

        monkeypatch.setattr(corpus_module, "embedding_from_positions", record)
        walk_fixtures()
        pendant_triangle()
        for count in (1, 50, 400):
            fused_hexagons(count)
        assert len(drawings) == 18
        for g, positions in drawings:
            ours = embedding_from_positions(g, positions)
            theirs = embedding_from_positions_by_ids(g, positions)
            assert ours.graph is g
            assert ours._rotation == theirs._rotation
            for v in g.vertices:
                assert ours.rotation_of(v) == theirs.rotation_of(v)

    @pytest.mark.parametrize(
        "positions,message",
        [
            ({"a": (0.0, 0.0), "b": (1.0, 0.0)}, "no position for vertex 'c'"),
            ({"a": (0.0, 0.0), "b": (1.0, 0.0), "c": (2.0, 0.0)},
             "two neighbors of 'a' share an angle"),
        ],
    )
    def test_messages_on_string_ids(self, positions, message):
        g = Graph(["b", "a", "c"], [("a", "b"), ("a", "c")])
        for build in (embedding_from_positions, embedding_from_positions_by_ids):
            with pytest.raises(ValueError, match=f"^{message}$"):
                build(g, positions)


class TestEmbeddingFormat:
    @pytest.mark.parametrize(
        "name,emb",
        [c for c in CORPUS if c[1].graph.vertex_count <= 40],
        ids=[n for n, e in CORPUS if e.graph.vertex_count <= 40],
    )
    def test_round_trip(self, name, emb):
        g = emb.graph
        idx = g.index_of
        back = load_embedding(dump_embedding(emb))
        assert back.graph.vertex_count == g.vertex_count
        for v in g.vertices:
            expected = tuple(idx(w) for w in emb.rotation_of(v))
            assert back.rotation_of(idx(v)) == expected

    def test_missing_rotation_rejected(self):
        with pytest.raises(ValueError):
            load_embedding("2 1\n0 1\nrot 0: 1\n")

    def test_garbage_line_rejected(self):
        with pytest.raises(ValueError):
            load_embedding("2 1\n0 1\nrot 0: 1\nwhat 1: 0\n")
