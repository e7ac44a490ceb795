import hashlib
import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import defcol.discharging as discharging
import defcol.embedding as embedding
from defcol import (
    ChargeLedger,
    EmbeddingAnalysis,
    Graph,
    PlaneEmbedding,
    RULES_29,
    RULES_35,
    RULES_44,
    RULESETS,
    StructureTags,
    apply_ruleset,
    build_audit,
    check_bad2_face_degrees,
    check_big_face_bad2_capacity,
    check_planarity_certificate,
    check_vertex_profiles,
    analyze,
    classify,
    dump_embedding,
    initial_charges,
    make_graph,
    negative_elements,
    non_1k,
    trace_faces,
    triangle_link,
    verify_conservation,
)
from defcol.cli import main
from defcol.discharging import (
    BAD2_INCIDENT,
    GOOD2_ADJACENT,
    THREE_FACE_INCIDENT,
    THREE_FACE_PENDANT,
    DischargeRuleSet,
    Rule,
    audit_json,
    lemmas_json,
)
from defcol.embedding import DISCONNECTED

from corpus import (
    bowtie_on_opaque_ids,
    corpus,
    cycle_embedding,
    face_2_5_8,
    face_2_6_6,
    fused_hexagons,
    k3_embedding,
    pendant_triangle,
    triangle_with_cycle,
    vertex7_one_triangle,
    vertex11_one_triangle,
    walk_fixtures,
)
from oracles import (
    VALIDATORS_BY_ITEMS,
    apply_ruleset_by_fractions,
    boundary_degeneracy,
    build_audit_by_dicts,
    certify_faces_by_dart_dict,
    classify_by_vertex_dicts,
    discharge_by_fractions,
    good_two_neighbors_by_comprehension,
    initial_charges_by_fractions,
    lemmas_by_dicts,
    replay_transfer_log,
)
from strategies import c4c5_free_rotations, connected_rotations, rotations, rulesets

CORPUS = corpus()
CORPUS_IDS = [n for n, _ in CORPUS]


# Facts the classification implies rather than stores.
def faces_of_degree_3(tags):
    return tuple(i for i, d in enumerate(tags.face_degree) if d == 3)


def bad_3_faces(tags):
    return frozenset(i for i in tags.face_bad_two if tags.face_degree[i] == 3)


def good_2_vertices(tags):
    return frozenset(
        v for v, d in tags.degree.items() if d == 2 and not tags.incident_three_faces[v]
    )


def walk_degrees(tags, i):
    """The sorted degrees around face i's walk."""
    return tuple(sorted(tags.degree[v] for v in tags.face_walk_vertices[i]))


def pendant_triangle_with_stubs():
    # triangle (0,1,2); 1 and 2 get an extra neighbor, so 0 is the only
    # 2-vertex; vertex 5 sits one edge away from the degree-3 corner 2
    g = make_graph(6, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 4), (4, 5)])
    rotation = {0: [1, 2], 1: [2, 0, 3], 2: [0, 1, 4], 3: [1], 4: [2, 5], 5: [4]}
    return PlaneEmbedding(g, rotation)


class TestClassify:
    def test_triangle_corner_flags(self):
        emb = pendant_triangle_with_stubs()
        tags = classify(emb)
        assert 0 in tags.bad_two_vertices
        assert bad_3_faces(tags)
        tri = next(iter(bad_3_faces(tags)))
        assert tags.face_degree[tri] == 3

    def test_pendant_face_detection(self):
        emb = pendant_triangle_with_stubs()
        tags = classify(emb)
        # vertex 4 is adjacent to the degree-3 vertex 2 on the triangle
        tri = faces_of_degree_3(tags)[0]
        assert tags.pendant_faces[4] == (tri,)
        assert tags.gamma[4] == 1
        assert tags.pendant_faces[5] == ()

    def test_hexagonal_patch_profile(self):
        tags = classify(fused_hexagons(2))
        assert faces_of_degree_3(tags) == ()
        for v in fused_hexagons(2).graph.vertices:
            assert tags.alpha[v] == 0
            assert tags.gamma[v] == 0
        assert any(tags.beta[v] > 0 for v in fused_hexagons(2).graph.vertices)

    def test_triangle_link_profiles(self):
        tags = classify(triangle_link().embedding)
        assert (tags.degree["b"], tags.alpha["b"], tags.beta["b"], tags.gamma["b"]) == (3, 1, 0, 1)
        assert (tags.degree["u"], tags.alpha["u"], tags.beta["u"], tags.gamma["u"]) == (2, 1, 0, 0)
        assert sorted(tags.bad_two_vertices) == ["a", "c", "u", "v"]
        assert good_2_vertices(tags) == frozenset()

    def test_classification_symmetry(self):
        for name, emb in CORPUS:
            tags = classify(emb)
            bad_three = bad_3_faces(tags)
            on_bad_face = {
                v
                for i in bad_three
                for v in tags.face_walk_vertices[i]
                if tags.degree[v] == 2
            }
            assert on_bad_face == set(tags.bad_two_vertices), name
            for i in faces_of_degree_3(tags):
                has_two = any(tags.degree[v] == 2 for v in tags.face_walk_vertices[i])
                assert (i in bad_three) == has_two, name

    def test_pendant_uniqueness_in_c4c5_free_fixtures(self):
        # the 3-vertex on a pendant face adjacent to v is unique, else a
        # 4-cycle would close through v
        for name, emb in CORPUS:
            tags = classify(emb)
            g = emb.graph
            for v in g.vertices:
                for i in tags.pendant_faces[v]:
                    witnesses = [
                        w
                        for w in tags.face_walk_vertices[i]
                        if tags.degree[w] == 3 and g.has_edge(v, w)
                    ]
                    assert len(witnesses) == 1, name


class TestInitialCharges:
    def test_formulas(self):
        emb = vertex7_one_triangle()
        ledger = initial_charges(emb)
        assert ledger.charges[("v", 0)] == Fraction(8)  # degree 7
        tags = classify(emb)
        tri = faces_of_degree_3(tags)[0]
        assert ledger.charges[("f", tri)] == Fraction(-3)
        two_vertex = next(iter(tags.bad_two_vertices))
        assert ledger.charges[("v", two_vertex)] == Fraction(-2)

    def test_face_charges(self):
        ledger = initial_charges(cycle_embedding(6))
        assert ledger.charges[("f", 0)] == Fraction(0)
        ledger = initial_charges(cycle_embedding(7))
        assert {ledger.charges[("f", 0)], ledger.charges[("f", 1)]} == {Fraction(1)}

    def test_k3_total(self):
        ledger = initial_charges(k3_embedding())
        assert [ledger.charges[("v", i)] for i in range(3)] == [Fraction(-2)] * 3
        assert ledger.total() == Fraction(-12)

    def test_takes_an_analysis(self):
        emb = vertex7_one_triangle()
        assert initial_charges(analyze(emb)) == initial_charges(emb)

    @pytest.mark.parametrize("name,emb", CORPUS, ids=CORPUS_IDS)
    def test_total_is_minus_twelve(self, name, emb):
        assert initial_charges(emb).total() == Fraction(-12)

    def test_rejects_nonplanar_rotation(self):
        g = make_graph(5, [(i, j) for i in range(5) for j in range(i + 1, 5)])
        emb = PlaneEmbedding(g, {v: list(g.ordered_neighbors(v)) for v in g.vertices})
        if check_planarity_certificate(emb):
            pytest.skip("rotation happened to be planar")
        with pytest.raises(ValueError):
            initial_charges(emb)


class TestApplyRuleset:
    def test_bad_face_2_6_6_balances_to_zero(self):
        emb = face_2_6_6()
        tags = classify(emb)
        tri = faces_of_degree_3(tags)[0]
        assert walk_degrees(tags, tri) == (2, 6, 6)
        final, log = apply_ruleset(emb, RULES_44)
        face_key = ("f", tri)
        received = [t for t in log if t.target == face_key]
        sent = [t for t in log if t.source == face_key]
        assert [(t.rule_id, t.amount) for t in received] == [("R2", 2), ("R2", 2)]
        assert [(t.rule_id, t.amount) for t in sent] == [("R6", 1)]
        assert final.charges[face_key] == 0
        # the bad 2-vertex itself also lands exactly on zero
        assert final.charges[("v", 0)] == 0

    def test_seven_vertex_balances_to_zero(self):
        emb = vertex7_one_triangle()
        final, log = apply_ruleset(emb, RULES_35)
        sends = [(t.rule_id, t.amount) for t in log if t.source == ("v", 0)]
        assert sends == [("R5", 2)] + [("R7", Fraction(6, 5))] * 5
        assert final.charges[("v", 0)] == 0

    def test_eleven_vertex_balances_to_zero(self):
        emb = vertex11_one_triangle()
        final, log = apply_ruleset(emb, RULES_29)
        sends = [(t.rule_id, t.amount) for t in log if t.source == ("v", 0)]
        assert sends == [("R5", Fraction(5, 2))] + [("R6", Fraction(3, 2))] * 9
        assert final.charges[("v", 0)] == 0

    def test_bad_face_2_5_8_balances_to_zero(self):
        emb = face_2_5_8()
        tags = classify(emb)
        tri = faces_of_degree_3(tags)[0]
        assert walk_degrees(tags, tri) == (2, 5, 8)
        final, _ = apply_ruleset(emb, RULES_35)
        assert final.charges[("f", tri)] == 0

    def test_k3_ledger(self):
        final, log = apply_ruleset(k3_embedding(), RULES_44)
        assert [t.rule_id for t in log] == ["R6"] * 6
        assert all(final.charges[("v", i)] == 0 for i in range(3))
        assert all(final.charges[("f", i)] == Fraction(-6) for i in range(2))

    def test_hexagonal_patch_interior_clean(self):
        emb = fused_hexagons(3)
        tags = classify(emb)
        final, log = apply_ruleset(emb, RULES_44)
        assert log == []
        for i, d in enumerate(tags.face_degree):
            if d == 6:
                assert final.charges[("f", i)] == 0
        for v in emb.graph.vertices:
            if tags.degree[v] == 3:
                assert final.charges[("v", v)] == 0
        negatives = {key for key, _ in negative_elements(final)}
        assert negatives == {("v", v) for v in good_2_vertices(tags)}

    @pytest.mark.parametrize("name,emb", CORPUS, ids=CORPUS_IDS)
    @pytest.mark.parametrize("ruleset", [RULES_44, RULES_35, RULES_29], ids=lambda r: r.name)
    def test_conservation_everywhere(self, name, emb, ruleset):
        initial = initial_charges(emb)
        final, log = apply_ruleset(emb, ruleset)
        assert verify_conservation(initial, final)
        assert final.total() == Fraction(-12)
        # replaying the log reproduces the final ledger exactly
        replay = dict(initial.charges)
        rule_ids = {r.rule_id for r in ruleset.rules}
        for t in log:
            assert t.rule_id in rule_ids
            replay[t.source] -= t.amount
            replay[t.target] += t.amount
        assert replay == final.charges

    def test_charges_stay_rational(self):
        final, _ = apply_ruleset(vertex7_one_triangle(), RULES_35)
        assert all(isinstance(c, Fraction) for c in final.charges.values())


class TestIntegerSums:
    """The ledger's integer sums agree with plain Fraction arithmetic under
    drawn rulesets, on the corpus and on non_1k(1..3)."""

    ANALYSES = [analyze(emb) for _, emb in CORPUS] + [
        analyze(non_1k(k).embedding) for k in (1, 2, 3)
    ]

    @settings(max_examples=40, deadline=None)
    @given(ruleset=rulesets())
    def test_ledgers_match_fraction_replay(self, ruleset):
        for analysis in self.ANALYSES:
            initial = initial_charges(analysis)
            final, log = apply_ruleset(analysis, ruleset)
            assert final.charges == replay_transfer_log(analysis.tags, log)
            for ledger in (initial, final):
                values = list(ledger.charges.values())
                assert all(type(q) is Fraction for q in values)
                assert ledger.total() == sum(values, Fraction(0))
                assert negative_elements(ledger) == [
                    (key, ledger.charges[key])
                    for key in ledger.charges
                    if ledger.charges[key] < 0
                ]

    def test_total_of_an_empty_ledger_is_zero(self):
        assert ChargeLedger({}).total() == Fraction(0)


# Rules the three rulesets lack: a window open from degree 0, so 2-vertices
# send; a window no source with a target reaches, its max_degree of 0 a
# bound and not an open end; a relation whose every source has no target on
# a hexagonal patch; and a face-sourced negative amount.
HAND_MADE = DischargeRuleSet("hand_made", (
    Rule("open", GOOD2_ADJACENT, Fraction(1, 3), 0, None),
    Rule("nothing", THREE_FACE_INCIDENT, Fraction(7, 4), 0, 0),
    Rule("pendant", THREE_FACE_PENDANT, Fraction(2, 5), 0, None),
    Rule("faces", BAD2_INCIDENT, Fraction(-1, 2), 3),
))


class TestAgainstPreviousLoops:
    """The integer core on element positions and the outward good 2-vertex
    lists give the ledgers, logs, totals and tags of the loops and the
    comprehension they replaced, values and order alike: the keyed ledger
    loop of the `*_by_fractions` copies, and the Fraction loop before it.
    The corpus holds hub_gadget(1), triangle_link() and K3."""

    FIXED = [emb for _, emb in CORPUS] + [non_1k(k).embedding for k in range(1, 7)] + [
        fused_hexagons(40), PlaneEmbedding(Graph([0]), {0: []})
    ]
    FIXED_IDS = CORPUS_IDS + [f"non_1k_{k}" for k in range(1, 7)] + ["hex40", "one_vertex"]

    @staticmethod
    def check(emb, rulesets):
        analysis = analyze(emb)
        tags = analysis.tags
        expected = good_two_neighbors_by_comprehension(emb.graph, good_2_vertices(tags))
        assert list(tags.good_two_neighbors.items()) == list(expected.items())
        assert tags.beta == {v: len(us) for v, us in expected.items()}
        initial, expected_initial = initial_charges(analysis), initial_charges_by_fractions(analysis)
        assert list(initial.charges.items()) == list(expected_initial.charges.items())
        assert initial.total() == expected_initial.total()
        for ruleset in rulesets:
            final, log = apply_ruleset(analysis, ruleset)
            expected_final, expected_log = apply_ruleset_by_fractions(analysis, ruleset)
            assert list(final.charges.items()) == list(expected_final.charges.items())
            assert log == expected_log and final.total() == expected_final.total()
            oracle = discharge_by_fractions(tags, ruleset)
            assert list(final.charges.items()) == list(oracle.items())
            assert all(type(q) is Fraction for q in final.charges.values())

    @pytest.mark.parametrize("emb", FIXED, ids=FIXED_IDS)
    def test_fixed_embeddings(self, emb):
        self.check(emb, (RULES_44, RULES_35, RULES_29, HAND_MADE))

    @settings(max_examples=150, deadline=None)
    @given(emb=c4c5_free_rotations(max_n=9), ruleset=rulesets())
    def test_drawn_rotations(self, emb, ruleset):
        assume(analyze(emb).defect is None)
        self.check(emb, (RULES_44, RULES_35, RULES_29, ruleset))

    def test_hand_made_rules_meet_their_cases(self):
        sent = {rule.rule_id: 0 for rule in HAND_MADE.rules}
        for emb in self.FIXED:
            for t in apply_ruleset(emb, HAND_MADE)[1]:
                sent[t.rule_id] += 1
        assert sent["open"] and sent["pendant"] and sent["faces"] and not sent["nothing"]
        # "nothing" has sources with targets, all outside its window
        assert any(any(classify(emb).incident_three_faces.values()) for emb in self.FIXED)
        tags = classify(fused_hexagons(3))
        assert not any(tags.pendant_faces.values())
        _, log = apply_ruleset(fused_hexagons(3), HAND_MADE)
        assert {t.rule_id for t in log} == {"open"}
        assert 2 in {tags.degree[t.source[1]] for t in log}


WALK_FIXTURES = walk_fixtures()


class TestClassifyAgainstVertexDicts:
    """The classifier on vertex positions gives every StructureTags field,
    values and key order alike, of the classifier on vertex-id dicts that it
    replaced, fed the faces of the dart-dict tracer; on rotations that are
    not genus zero too, and the analysis carries the same defect."""

    @staticmethod
    def check(emb):
        faces, defect = certify_faces_by_dart_dict(emb)
        walks, walk_defect = embedding._face_walks(emb)
        assert walk_defect == analyze(emb).defect == defect
        if defect == DISCONNECTED:
            return
        expected = classify_by_vertex_dicts(emb.graph, faces)
        got = discharging._classify(emb.graph, walks)
        for name in StructureTags._fields:
            want, have = getattr(expected, name), getattr(got, name)
            assert have == want, name
            if isinstance(want, dict):
                assert list(have) == list(want), name
        assert got == expected
        assert repr(got) == repr(expected)  # sets iterate in the same order too
        if defect is None:
            assert analyze(emb).tags == expected

    @pytest.mark.parametrize("name,emb", WALK_FIXTURES, ids=[n for n, _ in WALK_FIXTURES])
    def test_fixed_embeddings(self, name, emb):
        self.check(emb)

    @settings(max_examples=300, deadline=None)
    @given(emb=connected_rotations(max_n=9))
    def test_connected_rotations(self, emb):
        self.check(emb)

    @settings(max_examples=200, deadline=None)
    @given(emb=rotations(max_n=8))
    def test_any_rotation(self, emb):
        self.check(emb)


class TestVerifyConservation:
    def test_detects_corruption(self):
        initial = initial_charges(k3_embedding())
        corrupted = dict(initial.charges)
        corrupted[("v", 0)] += 1
        bad = ChargeLedger(corrupted)
        assert not verify_conservation(initial, bad)

    def test_identity_is_conserved(self):
        initial = initial_charges(k3_embedding())
        assert verify_conservation(initial, initial)

    def test_mismatched_elements_rejected(self):
        a = initial_charges(k3_embedding())
        b = initial_charges(cycle_embedding(6))
        with pytest.raises(ValueError, match="^ledgers cover different element sets$"):
            verify_conservation(a, b)

    def test_reordered_elements_rejected(self):
        initial = initial_charges(k3_embedding())
        reordered = ChargeLedger(dict(reversed(initial.charges.items())))
        with pytest.raises(ValueError, match="^ledgers cover different element sets$"):
            verify_conservation(initial, reordered)


class TestNegativeElements:
    def test_all_nonnegative_gives_empty(self):
        assert negative_elements(ChargeLedger({("v", 0): Fraction(1)})) == []

    def test_sorted_by_element_order(self):
        final, _ = apply_ruleset(k3_embedding(), RULES_44)
        assert negative_elements(final) == [
            (("f", 0), Fraction(-6)),
            (("f", 1), Fraction(-6)),
        ]


class TestValidators:
    def test_vacuous_pass_on_hexagonal_patch(self):
        emb = fused_hexagons(2)
        assert check_bad2_face_degrees(emb).status == "pass"
        assert check_big_face_bad2_capacity(emb).status == "pass"
        assert check_vertex_profiles(emb).status == "pass"

    def test_k3_degenerate_not_fail(self):
        emb = k3_embedding()
        assert check_bad2_face_degrees(emb).status == "degenerate"
        assert check_vertex_profiles(emb).status == "degenerate"
        assert check_big_face_bad2_capacity(emb).status == "pass"

    def test_triangle_link_profile_pass(self):
        report = check_vertex_profiles(triangle_link().embedding)
        assert report.status == "pass"
        assert all(item.status == "pass" for item in report.items)

    def test_bad2_face_degrees_fails_on_pendant_triangle(self, tmp_path, capsys):
        # the 2-vertices 1 and 2 sit between the triangle and a 5-face
        report = check_bad2_face_degrees(pendant_triangle())
        assert report.status == "fail"
        assert [(i.element, i.status, i.detail["other_degree"]) for i in report.items] == [
            (1, "fail", 5),
            (2, "fail", 5),
        ]
        path = tmp_path / "pendant_triangle.emb"
        path.write_text(dump_embedding(pendant_triangle()))
        assert main(["check", "lemmas", "--embedding", str(path)]) == 0
        reports = json.loads(capsys.readouterr().out)["reports"]
        assert reports["bad2_face_degrees"] == report.to_json()

    def test_triangle_with_long_cycle_bad2_faces(self):
        report = check_bad2_face_degrees(triangle_with_cycle(9))
        assert report.status == "pass"
        degrees = {item.detail["other_degree"] for item in report.items}
        assert degrees and all(d >= 7 for d in degrees)

    def test_triangle_link_capacity_degenerate_on_revisiting_walk(self):
        # the outer walk revisits the bridge ends, and its raw count of
        # bad 2-vertices (4) exceeds degree - 6 (2): flagged, not judged
        report = check_big_face_bad2_capacity(triangle_link().embedding)
        assert report.status == "degenerate"
        item = report.items[0]
        assert item.detail["degree"] == 8
        assert item.detail["bad2"] == 4

    def test_alt_profile_form_surfaced_but_not_judged(self):
        report = check_vertex_profiles(cycle_embedding(6))
        assert report.status == "pass"
        assert all(item.detail["alt_form_holds"] is False for item in report.items)

    def test_non_c4c5_free_is_degenerate(self):
        emb = cycle_embedding(4)
        for validator in (
            check_bad2_face_degrees,
            check_big_face_bad2_capacity,
            check_vertex_profiles,
        ):
            report = validator(emb)
            assert report.status == "degenerate"
            assert "4-cycle" in report.reason

    @pytest.mark.parametrize("name,emb", CORPUS, ids=CORPUS_IDS)
    def test_never_fail_on_corpus(self, name, emb):
        for validator in (
            check_bad2_face_degrees,
            check_big_face_bad2_capacity,
            check_vertex_profiles,
        ):
            assert validator(emb).status in ("pass", "degenerate")


class TestDegeneracyIsK3:
    @settings(max_examples=300, deadline=None)
    @given(emb=c4c5_free_rotations())
    @example(emb=k3_embedding())
    def test_matches_boundary_edge_multisets(self, emb):
        analysis = analyze(emb)
        assume(analysis.validator_reason is None)
        tags = analysis.tags
        bad2 = {i.element: i.detail.get("why") for i in check_bad2_face_degrees(analysis).items}
        profiles = check_vertex_profiles(analysis).items
        verdicts = {i.element: (bad2.get(i.element), i.status == "degenerate") for i in profiles}
        assert verdicts == boundary_degeneracy(emb, tags)
        if tags.face_degree == (3, 3):
            assert set(verdicts.values()) == {("faces share identical boundaries", True)}
        else:
            assert set(verdicts.values()) == {(None, False)}


class TestAudit:
    def test_audit_document_shape(self):
        doc = build_audit(k3_embedding(), RULES_44)
        assert doc["format"] == "defcol-audit v1"
        assert doc["conservation"] is True
        assert doc["initial_total"] == "-12"
        assert doc["final_total"] == "-12"
        assert len(doc["negative"]) == 2
        assert set(doc["validators"]) == {
            "bad2_face_degrees",
            "big_face_bad2_capacity",
            "vertex_profiles",
        }
        vertex_entries = [e for e in doc["elements"] if e["kind"] == "vertex"]
        assert all(e["final"] == "0" for e in vertex_entries)

    def test_fraction_strings(self):
        doc = build_audit(vertex7_one_triangle(), RULES_35)
        hub = next(e for e in doc["elements"] if e["kind"] == "vertex" and e["id"] == "0")
        amounts = {t["amount"] for t in hub["transfers"]}
        assert "6/5" in amounts

    def test_rulesets_registry(self):
        assert set(RULESETS) == {"44", "35", "29"}
        assert RULESETS["44"] is RULES_44



# vertex ids whose JSON needs escapes: '"', '\\', control characters and
# non-ASCII text, or tuples, whose str() is their repr
VERTEX_IDS = st.text(
    st.sampled_from(['"', "\\", "\x00", "\x1f", "\n", "\u00e9", "\u2028", "\U0001f600",
                     "a", "0"]),
    min_size=1,
    max_size=4,
) | st.tuples(st.integers(0, 9), st.text(max_size=2))


@st.composite
def relabelled_embeddings(draw):
    """A corpus fixture or a drawn rotation, its vertices renamed to drawn ids."""
    emb = draw(st.sampled_from([e for _, e in CORPUS]) | c4c5_free_rotations())
    g = emb.graph
    n = g.vertex_count
    name = dict(zip(g.vertices, draw(st.lists(VERTEX_IDS, min_size=n, max_size=n, unique=True))))
    renamed = Graph(name.values(), [(name[u], name[v]) for u, v in g.edges()])
    rotation = {name[v]: [name[u] for u in emb.rotation_of(v)] for v in g.vertices}
    return PlaneEmbedding(renamed, rotation)


def assert_audit_text_is_dict_builders(emb, ruleset):
    """audit_json writes what json.dumps writes for the dict-built document,
    and build_audit is that text parsed; inputs that cannot be classified
    raise the same error on both paths."""
    if analyze(emb).defect is not None:
        with pytest.raises(ValueError) as text_error:
            audit_json(emb, ruleset)
        with pytest.raises(ValueError) as dict_error:
            build_audit_by_dicts(emb, ruleset)
        assert str(text_error.value) == str(dict_error.value)
        return
    text = audit_json(emb, ruleset)
    assert text == json.dumps(build_audit_by_dicts(emb, ruleset), indent=2, sort_keys=True)
    assert build_audit(emb, ruleset) == json.loads(text)


class TestAuditTextAgainstDicts:
    @pytest.mark.parametrize("ruleset", sorted(RULESETS))
    @pytest.mark.parametrize("name,emb", CORPUS, ids=CORPUS_IDS)
    def test_corpus(self, name, emb, ruleset):
        assert_audit_text_is_dict_builders(emb, RULESETS[ruleset])

    @settings(max_examples=200, deadline=None)
    @given(emb=c4c5_free_rotations(), ruleset=rulesets())
    def test_drawn_rotations_and_rulesets(self, emb, ruleset):
        assert_audit_text_is_dict_builders(emb, ruleset)

    @settings(max_examples=200, deadline=None)
    @given(
        emb=relabelled_embeddings(),
        ruleset=st.sampled_from(list(RULESETS.values())) | rulesets(),
    )
    def test_vertex_ids_that_need_escapes_or_are_tuples(self, emb, ruleset):
        assert_audit_text_is_dict_builders(emb, ruleset)

    @pytest.mark.parametrize("ruleset", sorted(RULESETS))
    def test_one_vertex_with_an_empty_walk(self, ruleset):
        emb = PlaneEmbedding(Graph([0]), {0: []})
        assert build_audit(emb, RULESETS[ruleset])["elements"][1]["walk"] == []
        assert_audit_text_is_dict_builders(emb, RULESETS[ruleset])

    def test_no_negative_element(self):
        # charges always sum to -12, so only a replaced classification can
        # leave no element negative: a hexagon whose vertices claim degree
        # 7 holds 8 on each, and sends each good 2-neighbor what it receives
        analysis = reclassified(cycle_embedding(6), degree=dict.fromkeys(range(6), 7))
        doc = build_audit(analysis, RULES_35)
        assert doc["negative"] == [] and doc["initial_total"] == "48"
        assert {t["rule"] for e in doc["elements"] for t in e["transfers"]} == {"R7"}
        assert_audit_text_is_dict_builders(analysis, RULES_35)


VALIDATORS = (check_bad2_face_degrees, check_big_face_bad2_capacity, check_vertex_profiles)
AUDIT_DIGESTS = json.loads((Path(__file__).parent / "audit_digests.json").read_text())
# built before any counter is installed: generating a gadget certifies it
NON_1K = {k: non_1k(k).embedding for k in (1, 2, 3)}


def disconnected_with_4_cycle():
    g = make_graph(6, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5)])
    rotation = {0: [1, 3], 1: [2, 0], 2: [3, 1], 3: [0, 2], 4: [5], 5: [4]}
    return PlaneEmbedding(g, rotation)


def k5_rotation():
    # every rotation of K5 is nonplanar; K5 also has 4- and 5-cycles
    g = make_graph(5, [(i, j) for i in range(5) for j in range(i + 1, 5)])
    return PlaneEmbedding(g, {v: list(g.ordered_neighbors(v)) for v in g.vertices})


class TestLemmasTextAgainstDicts:
    """lemmas_json writes what json.dumps writes for the dict-built report."""

    @pytest.mark.parametrize("name,emb", CORPUS, ids=CORPUS_IDS)
    def test_corpus(self, name, emb):
        assert lemmas_json(emb) == lemmas_by_dicts(emb)

    # about half of these rotations are not genus 0
    @settings(max_examples=200, deadline=None)
    @given(connected_rotations())
    def test_drawn_rotations(self, emb):
        assert lemmas_json(emb) == lemmas_by_dicts(emb)

    @pytest.mark.parametrize(
        "emb", [disconnected_with_4_cycle(), cycle_embedding(4)], ids=["disconnected", "four_cycle"]
    )
    def test_reports_with_a_reason_and_no_items(self, emb):
        reports = json.loads(lemmas_json(emb))["reports"].values()
        assert all(r["reason"] and r["items"] == [] for r in reports)
        assert lemmas_json(emb) == lemmas_by_dicts(emb)

    def test_reads_the_validators_when_called(self, monkeypatch):
        # the benchmark's tracer swaps in wrapped validators; reports sort by name
        two = discharging.ALL_VALIDATORS[1::-1]
        monkeypatch.setattr(discharging, "ALL_VALIDATORS", two)
        text = lemmas_json(NON_1K[1])
        reports = json.loads(text)["reports"]
        assert list(reports) == ["bad2_face_degrees", "big_face_bad2_capacity"]
        assert text == json.dumps(json.loads(text), indent=2, sort_keys=True)


def reclassified(emb, **fields):
    """The analysis of `emb` with some classification fields replaced."""
    return EmbeddingAnalysis(emb, None, StructureTags(**{**vars(analyze(emb).tags), **fields}))


# The corpus never fails a validator. A bad 2-vertex beside a face of degree
# below 7 fails bad2_face_degrees. On a c4c5-free embedding the other two
# lemmas always hold, so their fail items come from a classification with
# one field replaced: five bad 2-vertices on the simple 10-face of a
# triangle and a 9-cycle, whose other big face is degenerate, and a gamma of
# 3 at a hexagon vertex of degree 2.
SHAPE_FIXTURES = CORPUS + [
    ("pendant_triangle", pendant_triangle()),
    ("bowtie_on_opaque_ids", bowtie_on_opaque_ids()),
    ("triangle_with_9_cycle_five_bad2",
     reclassified(triangle_with_cycle(9), face_bad_two={0: (1, 2), 1: (2, 1), 2: (3, 4, 5, 6, 7)})),
    ("hexagon_gamma_3",
     reclassified(cycle_embedding(6), gamma={0: 3, **dict.fromkeys(range(1, 6), 0)})),
]
SHAPE_IDS = [n for n, _ in SHAPE_FIXTURES]
EVERY_SHAPE_AND_STATUS = {
    (name, shape, status)
    for name in ("bad2_face_degrees", "big_face_bad2_capacity", "vertex_profiles")
    for shape, status in ((0, "pass"), (0, "fail"), (1, "degenerate"))
}


def item_tuples(report):
    return [(i.element, i.status, i.detail) for i in report.items]


class TestItemShapes:
    """Every item shape is written under each status it takes, byte for byte
    as the oracles write it from item-by-item validators and dicts."""

    def test_every_shape_and_status_is_written(self):
        written = set()
        for _, source in SHAPE_FIXTURES:
            analysis = analyze(source)
            assert lemmas_json(analysis) == lemmas_by_dicts(analysis)
            assert_audit_text_is_dict_builders(analysis, RULES_29)
            for validator in VALIDATORS:
                report = validator(analysis)
                written |= {(report.name, row[0], row[2]) for row in report.rows}
        assert written == EVERY_SHAPE_AND_STATUS

    @pytest.mark.parametrize("name,source", SHAPE_FIXTURES, ids=SHAPE_IDS)
    def test_reports_match_the_item_oracle(self, name, source):
        analysis = analyze(source)
        for validator, oracle in zip(VALIDATORS, VALIDATORS_BY_ITEMS):
            report, expected = validator(analysis), oracle(analysis)
            assert (report.name, report.status, report.reason) == (
                expected.name, expected.status, expected.reason)
            assert item_tuples(report) == item_tuples(expected)
            assert report.to_json() == expected.to_json()

    def test_writers_build_no_validation_item(self, monkeypatch):
        built = []
        item = discharging.ValidationItem

        def counted(*args):
            built.append(args)
            return item(*args)

        monkeypatch.setattr(discharging, "ValidationItem", counted)
        for _, source in SHAPE_FIXTURES:
            lemmas_json(source)
            audit_json(source, RULES_44)
        assert built == []
        # items are still read on demand, through the counted constructor
        assert len(check_vertex_profiles(NON_1K[1]).items) == len(built) > 0


class TestSharedAnalysis:
    @pytest.fixture
    def calls(self, monkeypatch):
        # every face trace is one face walk: `analyze` calls it as bound in
        # defcol.discharging, and trace_faces, certify_faces and the Euler
        # certificate look it up in defcol.embedding at call time
        counts = {"_face_walks": 0, "is_c4c5_free": 0}

        def counting(modules, name):
            original = getattr(modules[0], name)

            def counted(*args):
                counts[name] += 1
                return original(*args)

            for module in modules:
                monkeypatch.setattr(module, name, counted)

        counting((embedding, discharging), "_face_walks")
        counting((discharging,), "is_c4c5_free")
        return counts

    def test_one_trace_and_one_scan_per_audit(self, calls):
        build_audit(NON_1K[1], RULES_44)
        assert calls == {"_face_walks": 1, "is_c4c5_free": 1}

    def test_one_trace_and_one_scan_per_lemmas_call(self, calls, tmp_path, capsys):
        path = tmp_path / "non1k.emb"
        path.write_text(dump_embedding(NON_1K[1]))
        assert main(["check", "lemmas", "--embedding", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["kind"] == "lemmas"
        assert calls == {"_face_walks": 1, "is_c4c5_free": 1}

    def test_audit_builds_no_ledger_no_transfer_and_no_fraction_per_element(self, monkeypatch):
        built = {"ChargeLedger": 0, "Transfer": 0, "Fraction": 0}

        def counting(name):
            original = getattr(discharging, name)

            def counted(*args):
                built[name] += 1
                return original(*args)

            monkeypatch.setattr(discharging, name, counted)

        for name in built:
            counting(name)
        for ruleset in (RULES_44, RULES_35, RULES_29):
            final, _ = apply_ruleset_by_fractions(NON_1K[1], ruleset)
            built["Fraction"] = 0
            audit_json(NON_1K[1], ruleset)
            # one per distinct final charge, and one for the final total
            assert built == {"ChargeLedger": 0, "Transfer": 0,
                             "Fraction": len(set(final.charges.values())) + 1}
            assert built["Fraction"] < len(final.charges) // 10
        # the public API still builds them, through the counted constructors
        apply_ruleset(NON_1K[1], RULES_35)
        assert built["ChargeLedger"] == 1 and built["Transfer"] > 0

    def test_rules_never_scan_for_cycles(self, calls):
        classify(NON_1K[1])
        apply_ruleset(NON_1K[1], RULES_35)
        assert calls == {"_face_walks": 2, "is_c4c5_free": 0}

    @pytest.mark.parametrize(
        "emb",
        [emb for _, emb in CORPUS] + list(NON_1K.values()),
        ids=CORPUS_IDS + [f"non_1k_{k}_generated" for k in (1, 2, 3)],
    )
    def test_standalone_validators_match_shared_analysis(self, emb):
        analysis = analyze(emb)
        shared = [validator(analysis) for validator in VALIDATORS]
        assert [validator(emb) for validator in VALIDATORS] == shared

    @pytest.mark.parametrize(
        "emb,reason",
        [
            (disconnected_with_4_cycle(), "graph is disconnected"),
            (k5_rotation(), "embedding fails the Euler check"),
            (cycle_embedding(4), "graph contains a 4-cycle or 5-cycle"),
        ],
        ids=["disconnected", "not_euler", "four_cycle"],
    )
    def test_degenerate_reasons(self, emb, reason):
        for validator in VALIDATORS:
            report = validator(emb)
            assert (report.status, report.reason, report.items) == ("degenerate", reason, ())

    @pytest.mark.parametrize(
        "emb,message",
        [
            (disconnected_with_4_cycle(), "embedding graph must be connected"),
            (k5_rotation(), "embedding fails the Euler check (not genus zero)"),
        ],
        ids=["disconnected", "not_euler"],
    )
    def test_classify_errors(self, emb, message):
        calls = (classify, lambda e: apply_ruleset(e, RULES_44), lambda e: build_audit(e, RULES_44))
        for call in calls:
            with pytest.raises(ValueError) as info:
                call(emb)
            assert str(info.value) == message

    @pytest.mark.parametrize("ruleset", sorted(RULESETS))
    @pytest.mark.parametrize("name,emb", CORPUS, ids=CORPUS_IDS)
    def test_audit_bytes_match_recorded_digests(self, name, emb, ruleset):
        doc = json.dumps(build_audit(emb, RULESETS[ruleset]), indent=2, sort_keys=True)
        assert hashlib.sha256(doc.encode()).hexdigest() == AUDIT_DIGESTS[f"{name}/{ruleset}"]
