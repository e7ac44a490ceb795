import hashlib
import json
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from defcol import (
    CnfDocument,
    ColoringSpec,
    ConstraintSet,
    brute_force_oracle,
    export_cnf,
    hub_gadget,
    is_valid_coloring,
    make_graph,
    non_1k,
    np_reduce,
    triangle_link,
)
from defcol.cnf import CNF_HEADER

from oracles import (
    decode_cnf_model,
    dimacs_by_join,
    dpll,
    export_cnf_by_matrix,
    model_to_lits,
    parse_dimacs,
)
from strategies import graphs

CNF_DIGESTS = json.loads((Path(__file__).parent / "cnf_digests.json").read_text())


def k_n(n):
    return make_graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def sat_check(doc):
    num_vars, clauses = parse_dimacs(doc.to_dimacs())
    return dpll(clauses, num_vars)


def huv_constraints():
    """Both poles of the linked triangles forced to 2, the four inner
    vertices barred from it."""
    return ConstraintSet(
        forced={"u": 2, "v": 2},
        forbidden={v: frozenset({2}) for v in "abcd"},
    )


def pinned_instances():
    """Each instance whose DIMACS bytes `cnf_digests.json` pins, by its key
    there: (graph, spec, constraints). The hub gadgets at (2,1,0) and
    (1,0,2,3) reach counters with d >= 2 and pairwise clauses for k > 2."""
    instances = {f"non_1k({k})/1,{k}": (non_1k(k).graph, (1, k), None) for k in range(1, 7)}
    for k in (1, 2, 3):
        instances[f"triangle_link/1,{k}"] = (triangle_link().graph, (1, k), huv_constraints())
    hub = hub_gadget(2)
    forced = {hub.terminals["z"]: 2, hub.terminals["x1"]: 2}
    instances["hub_gadget(2)/1,2"] = (hub.graph, (1, 2), ConstraintSet(forced=forced))
    instances["np_reduce(non_1k(1),2)/0,2"] = (np_reduce(non_1k(1).graph, 2).graph, (0, 2), None)
    for spec in ((2, 1, 0), (1, 0, 2, 3)):
        instances[f"hub_gadget(1)/{','.join(map(str, spec))}"] = (hub_gadget(1).graph, spec, None)
    return instances


def dimacs_digest(g, spec, cons):
    return hashlib.sha256(export_cnf(g, spec, cons).to_dimacs().encode()).hexdigest()


class TestExamples:
    def test_k3_proper_two_coloring_unsat(self):
        assert sat_check(export_cnf(k_n(3), (0, 0))) is None

    def test_k3_with_slack_sat(self):
        doc = export_cnf(k_n(3), (1, 0))
        model = sat_check(doc)
        assert model is not None
        coloring = decode_cnf_model(doc, model_to_lits(model, doc.num_vars))
        assert is_valid_coloring(k_n(3), (1, 0), coloring)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_huv_forced_boundary_unsat(self, k):
        assert sat_check(export_cnf(triangle_link().graph, (1, k), huv_constraints())) is None

    def test_non_1k_cnf_unsat(self):
        # external-verification path for the 120-vertex composite
        from defcol import non_1k

        doc = export_cnf(non_1k(1).graph, (1, 1))
        assert sat_check(doc) is None

    def test_single_color_class_rejected(self):
        with pytest.raises(ValueError):
            export_cnf(k_n(3), (0,))

    def test_header_and_determinism(self):
        text = export_cnf(k_n(3), (0, 1)).to_dimacs()
        assert text.splitlines()[0] == CNF_HEADER
        assert text == export_cnf(k_n(3), (0, 1)).to_dimacs()
        assert "p cnf" in text


class TestAgainstBruteForce:
    @settings(max_examples=50, deadline=None)
    @given(graphs(max_n=6), st.sampled_from([(0, 1), (1, 1), (0, 2), (1, 0, 1), (0, 3), (3, 1)]))
    def test_verdicts_match(self, g, spec):
        doc = export_cnf(g, spec)
        model = sat_check(doc)
        verdict = brute_force_oracle(g, spec)
        assert (model is not None) == verdict.is_sat
        if model is not None:
            coloring = decode_cnf_model(doc, model_to_lits(model, doc.num_vars))
            assert is_valid_coloring(g, spec, coloring)

    @settings(max_examples=30, deadline=None)
    @given(graphs(min_n=2, max_n=5))
    def test_constrained_verdicts_match(self, g):
        cons = ConstraintSet(forced={0: 2}, forbidden={1: frozenset({2})})
        spec = (1, 1)
        doc = export_cnf(g, spec, cons)
        model = sat_check(doc)
        verdict = brute_force_oracle(g, spec, cons)
        assert (model is not None) == verdict.is_sat
        if model is not None:
            coloring = decode_cnf_model(doc, model_to_lits(model, doc.num_vars))
            assert is_valid_coloring(g, spec, coloring)
            assert coloring[0] == 2
            assert coloring[1] != 2


class TestEveryColoringHasModel:
    @settings(max_examples=25, deadline=None)
    @given(graphs(max_n=4), st.sampled_from([(0, 1), (1, 1)]))
    def test_valid_colorings_extend_to_models(self, g, spec):
        # assuming the color literals of any valid coloring never
        # contradicts the CNF: the counter chain must stay extendable
        doc = export_cnf(g, spec)
        num_vars, clauses = parse_dimacs(doc.to_dimacs())
        out = brute_force_oracle(g, spec)
        if not out.is_sat:
            return
        assumptions = []
        for v in g.vertices:
            for c in (1, 2):
                var = doc.var_map[(v, c)]
                assumptions.append(var if out.coloring[v] == c else -var)
        assert dpll(clauses, num_vars, assumptions) is not None


WHEEL6 = [(i, (i + 1) % 6) for i in range(6)] + [(i, 6) for i in range(6)]


class TestProjectionBijection:
    @pytest.mark.parametrize(
        "edges,spec",
        [
            ([(0, 1), (1, 2), (0, 2)], (0, 1)),
            ([(0, 1), (1, 2), (0, 2), (2, 3)], (1, 1)),
            ([(0, 1)], (0, 2)),
            ([(0, 1), (1, 2), (2, 3), (3, 0)], (1, 0)),
            # wheel W6 and K5: counters with d = 3 over 6 and 4 neighbors
            (WHEEL6, (3, 0)),
            (WHEEL6, (0, 3)),
            ([(i, j) for i in range(5) for j in range(i + 1, 5)], (3, 1)),
        ],
    )
    def test_model_count_equals_coloring_count(self, edges, spec):
        from itertools import product

        n = max(max(e) for e in edges) + 1
        g = make_graph(n, edges)
        doc = export_cnf(g, spec)
        valid = sum(
            1
            for assignment in product(range(1, len(spec) + 1), repeat=n)
            if is_valid_coloring(g, spec, dict(zip(g.vertices, assignment)))
        )
        num_vars, clauses = parse_dimacs(doc.to_dimacs())
        color_vars = len(doc.var_map)
        seen = 0
        while True:
            model = dpll(clauses, num_vars)
            if model is None:
                break
            seen += 1
            # block this projection onto the color variables
            clauses.append(
                tuple(-v if v in model else v for v in range(1, color_vars + 1))
            )
        assert seen == valid


class TestRecordedBytes:
    def test_dimacs_bytes_match_recorded_digests(self):
        digests = {key: dimacs_digest(*instance) for key, instance in pinned_instances().items()}
        assert digests == CNF_DIGESTS


@st.composite
def constrained_instances(draw):
    """A graph on up to 8 vertices, 2-4 colors with defects 0-3, and forced
    and forbidden colors on a few vertices, never forbidding a forced one."""
    g = draw(graphs(max_n=8))
    k = draw(st.integers(2, 4))
    spec = ColoringSpec(tuple(draw(st.lists(st.integers(0, 3), min_size=k, max_size=k))))
    vertex = st.sampled_from(g.vertices)
    forced = draw(st.dictionaries(vertex, st.integers(1, k), max_size=3))
    forbidden = draw(st.dictionaries(vertex, st.frozensets(st.integers(1, k)), max_size=3))
    forbidden = {v: cs - {forced.get(v)} for v, cs in forbidden.items()}
    return g, spec, ConstraintSet(forced=forced, forbidden=forbidden)


class TestAgainstPreviousEncoder:
    @settings(max_examples=100, deadline=None)
    @given(constrained_instances())
    def test_same_document(self, instance):
        g, spec, cons = instance
        doc = export_cnf(g, spec, cons)
        assert (doc.num_vars, doc.clauses, doc.var_map, doc.comments) == export_cnf_by_matrix(g, spec, cons)

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(0, 10**6),
        st.lists(st.lists(st.integers(), max_size=6).map(tuple), max_size=12),
        st.lists(st.text(max_size=8), max_size=3),
    )
    @example(0, [], [])
    @example(3, [(), (1, -2, 3), ()], ["c hand-built"])
    def test_same_dimacs_bytes(self, num_vars, clauses, comments):
        doc = CnfDocument(num_vars, clauses, {}, comments)
        assert doc.to_dimacs() == dimacs_by_join(num_vars, clauses, comments)


class TestDecoding:
    def test_two_colors_on_one_vertex_rejected(self):
        doc = export_cnf(make_graph(1, []), (0, 1))
        with pytest.raises(ValueError):
            decode_cnf_model(doc, [doc.var_map[(0, 1)], doc.var_map[(0, 2)]])

    def test_uncolored_vertex_rejected(self):
        doc = export_cnf(make_graph(1, []), (0, 1))
        with pytest.raises(ValueError):
            decode_cnf_model(doc, [-doc.var_map[(0, 1)], -doc.var_map[(0, 2)]])
