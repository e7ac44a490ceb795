import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from defcol import (
    PlaneEmbedding,
    check_planarity_certificate,
    dump_embedding,
    embedding_from_positions,
    load_embedding,
    make_graph,
    trace_faces,
)
from defcol.embedding import NOT_GENUS_ZERO, certify_faces

from corpus import bowtie_on_opaque_ids, corpus, cycle_embedding, k3_embedding, pendant_triangle
from strategies import connected_rotations

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


FIXED = [
    ("K1", PlaneEmbedding(make_graph(1, []), {0: []})),
    ("K2", PlaneEmbedding(make_graph(2, [(0, 1)]), {0: [1], 1: [0]})),
    ("path5", PlaneEmbedding(make_graph(5, [(i, i + 1) for i in range(4)]),
                             {0: [1], 1: [0, 2], 2: [3, 1], 3: [2, 4], 4: [3]})),
    ("bowtie", bowtie_on_opaque_ids()),
    *CORPUS,
]


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
