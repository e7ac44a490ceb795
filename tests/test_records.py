"""Value semantics of the package's record classes: construction, defaults,
equality, hashing, repr, immutability and their validation errors."""

from fractions import Fraction

import pytest

import defcol.discharging as discharging
from defcol import (
    ChargeLedger,
    CnfDocument,
    ColoringSpec,
    ConstraintSet,
    DischargeRuleSet,
    EmbeddingAnalysis,
    GadgetResult,
    PlaneEmbedding,
    SolveOutcome,
    StructureTags,
    Transfer,
    ValidationReport,
    analyze,
    export_cnf,
    make_graph,
    solve,
    triangle_link,
)
from defcol.discharging import Rule, ValidationItem
from defcol.embedding import DISCONNECTED

from corpus import cycle_embedding, k3_embedding

TAG_FIELDS = ("degree", "face_degree", "face_walk_vertices", "corners", "bad_two_vertices",
              "incident_three_faces", "pendant_faces", "good_two_neighbors", "face_bad_two",
              "alpha", "beta", "gamma")
GRAPH = make_graph(3, [(0, 1), (1, 2)])

# class -> (field names in order, one value per field); every record here but
# CnfDocument is frozen
RECORDS = {
    ColoringSpec: (("defects",), ((1, 2),)),
    ConstraintSet: (("forced", "forbidden"), ({0: 1}, {1: frozenset({2})})),
    SolveOutcome: (("status", "coloring", "nodes", "stats"), ("sat", {0: 1}, 3, {"decisions": 3})),
    CnfDocument: (("num_vars", "clauses", "var_map", "comments"),
                  (2, [(1, 2)], {(0, 1): 1}, ["c x"])),
    GadgetResult: (("graph", "terminals", "embedding"), (GRAPH, {"u": 0}, None)),
    StructureTags: (TAG_FIELDS, tuple(range(len(TAG_FIELDS)))),
    Transfer: (("rule_id", "source", "target", "amount"),
               ("R1", ("v", 0), ("f", 1), Fraction(1, 2))),
    ChargeLedger: (("charges",), ({("v", 0): Fraction(-6)},)),
    Rule: (("rule_id", "relation", "amount", "min_degree", "max_degree"),
           ("R2", discharging.THREE_FACE_INCIDENT, Fraction(2), 6, 7)),
    DischargeRuleSet: (("name", "rules"), ("x", ())),
    EmbeddingAnalysis: (("emb", "defect", "classified"), (None, DISCONNECTED, None)),
    ValidationItem: (("element", "status", "detail"), (0, "pass", {"why": "x"})),
    ValidationReport: (("name", "status", "rows", "reason"), ("v", "degenerate", (), "why")),
}
FROZEN = [cls for cls in RECORDS if cls is not CnfDocument]
# frozen, compared by value, and hashable when their values are
HASHABLE = {
    ColoringSpec: ((1, 2),),
    StructureTags: tuple(range(len(TAG_FIELDS))),
    Transfer: RECORDS[Transfer][1],
    Rule: RECORDS[Rule][1],
    DischargeRuleSet: ("x", (Rule("R1", discharging.GOOD2_ADJACENT, Fraction(1)),)),
    ValidationReport: RECORDS[ValidationReport][1],
    ValidationItem: (0, "pass", "not a dict"),
}
# a field value that makes the record unequal, where "other" in its last field cannot
CHANGED = {ColoringSpec: {"defects": (2, 1)}, ConstraintSet: {"forbidden": {}},
           GadgetResult: {"terminals": {}}}


def name_of(cls):
    return cls.__name__


def build(cls):
    return cls(*RECORDS[cls][1])


@pytest.mark.parametrize("cls", RECORDS, ids=name_of)
def test_positional_and_keyword_construction_agree(cls):
    names, values = RECORDS[cls]
    positional = cls(*values)
    keyword = cls(**dict(zip(names, values)))
    for name, value in zip(names, values):
        assert getattr(positional, name) == value
        assert getattr(keyword, name) == value
    if cls is not EmbeddingAnalysis:
        assert positional == keyword


@pytest.mark.parametrize("cls", RECORDS, ids=name_of)
def test_field_count_is_the_constructor_arity(cls):
    names, values = RECORDS[cls]
    with pytest.raises(TypeError):
        cls(*values, None)
    with pytest.raises(TypeError):
        cls(**dict(zip(names, values)), unknown=1)


def test_defaults():
    assert ConstraintSet() == ConstraintSet({}, {})
    assert SolveOutcome("unsat", None, 0).stats == {}
    assert CnfDocument(0, [], {}).comments == []
    assert GadgetResult(GRAPH, {}).embedding is None
    rule = Rule("R1", discharging.GOOD2_ADJACENT, Fraction(1))
    assert (rule.min_degree, rule.max_degree) == (0, None)
    report = ValidationReport("v", "pass")
    assert (report.rows, report.reason) == ((), None)


def test_mutable_defaults_are_fresh_per_instance():
    a, b = ConstraintSet(), ConstraintSet()
    assert a.forced is not b.forced and a.forbidden is not b.forbidden
    assert SolveOutcome("sat", {}, 0).stats is not SolveOutcome("sat", {}, 0).stats
    first, second = CnfDocument(0, [], {}), CnfDocument(0, [], {})
    first.comments.append("c one")
    assert second.comments == []


def test_constraint_set_copies_its_arguments():
    forced, forbidden = {0: 1}, {1: [2, 3]}
    cons = ConstraintSet(forced, forbidden)
    forced[0] = 2
    forbidden[1].append(4)
    assert cons.forced == {0: 1}
    assert cons.forbidden == {1: frozenset({2, 3})}
    assert ConstraintSet(forbidden={2: (1,)}) == ConstraintSet({}, {2: frozenset({1})})


def test_coloring_spec_stores_a_tuple():
    spec = ColoringSpec([1, 2])
    assert spec.defects == (1, 2) and spec.k == 2
    assert spec == ColoringSpec((1, 2))


@pytest.mark.parametrize("cls", [c for c in RECORDS if c is not EmbeddingAnalysis], ids=name_of)
def test_equality_is_by_class_and_fields(cls):
    names, values = RECORDS[cls]
    assert build(cls) == build(cls)
    assert not build(cls) != build(cls)
    assert build(cls) != tuple(values)
    changed = dict(zip(names, values), **CHANGED.get(cls, {names[-1]: "other"}))
    assert cls(**changed) != build(cls)


def test_equality_across_classes_with_equal_values():
    item = ValidationItem("v", "pass", ())
    report = ValidationReport("v", "pass", ())
    assert item != report and report != item
    assert not item == report
    assert Transfer("R1", ("v", 0), ("v", 1), 1) != Rule("R1", ("v", 0), ("v", 1), 1)


@pytest.mark.parametrize("cls", HASHABLE, ids=name_of)
def test_equal_values_hash_equal(cls):
    values = HASHABLE[cls]
    assert hash(cls(*values)) == hash(cls(*values)) == hash(tuple(values))
    assert len({cls(*values), cls(*values)}) == 1


@pytest.mark.parametrize("cls", [ConstraintSet, SolveOutcome, GadgetResult, ChargeLedger],
                         ids=name_of)
def test_records_holding_dicts_are_unhashable(cls):
    with pytest.raises(TypeError):
        hash(build(cls))


def test_repr():
    assert repr(ColoringSpec((1, 2))) == "ColoringSpec(defects=(1, 2))"
    assert repr(ConstraintSet({0: 1})) == "ConstraintSet(forced={0: 1}, forbidden={})"
    assert repr(SolveOutcome("sat", {0: 1}, 3)) == (
        "SolveOutcome(status='sat', coloring={0: 1}, nodes=3, stats={})")
    assert repr(CnfDocument(2, [(1, -2)], {(0, 1): 1})) == (
        "CnfDocument(num_vars=2, clauses=[(1, -2)], var_map={(0, 1): 1}, comments=[])")
    assert repr(Transfer("R1", ("v", 0), ("f", 1), Fraction(1, 2))) == (
        "Transfer(rule_id='R1', source=('v', 0), target=('f', 1), amount=Fraction(1, 2))")
    assert repr(ChargeLedger({("f", 0): Fraction(-3)})) == (
        "ChargeLedger(charges={('f', 0): Fraction(-3, 1)})")
    assert repr(Rule("R5", discharging.THREE_FACE_INCIDENT, Fraction(1), 4, 5)) == (
        "Rule(rule_id='R5', relation=('v', 'incident_three_faces', 'f'), "
        "amount=Fraction(1, 1), min_degree=4, max_degree=5)")
    assert repr(DischargeRuleSet("x", ())) == "DischargeRuleSet(name='x', rules=())"
    assert repr(ValidationItem(3, "fail", {"why": "w"})) == (
        "ValidationItem(element=3, status='fail', detail={'why': 'w'})")
    assert repr(ValidationReport("v", "pass")) == (
        "ValidationReport(name='v', status='pass', rows=(), reason=None)")
    assert repr(StructureTags(*range(12))) == "StructureTags(" + ", ".join(
        f"{name}={i}" for i, name in enumerate(TAG_FIELDS)) + ")"
    result = GadgetResult(GRAPH, {"u": 0})
    assert repr(result) == f"GadgetResult(graph={GRAPH!r}, terminals={{'u': 0}}, embedding=None)"
    analysis = EmbeddingAnalysis(None, DISCONNECTED, None)
    assert repr(analysis) == (
        f"EmbeddingAnalysis(emb=None, defect={DISCONNECTED!r}, classified=None)")


@pytest.mark.parametrize("cls", FROZEN, ids=name_of)
def test_frozen_records_refuse_assignment_and_deletion(cls):
    record = build(cls)
    names = RECORDS[cls][0]
    for name in (names[0], names[-1], "not_a_field"):
        with pytest.raises(AttributeError, match=f"^cannot assign to field '{name}'$"):
            setattr(record, name, 1)
        with pytest.raises(AttributeError, match=f"^cannot delete field '{name}'$"):
            delattr(record, name)
    assert getattr(record, names[0]) == RECORDS[cls][1][0]


def test_cnf_document_is_mutable_and_unhashable():
    doc = build(CnfDocument)
    doc.num_vars = 7
    doc.comments = []
    assert doc == CnfDocument(7, [(1, 2)], {(0, 1): 1}, [])
    del doc.comments
    assert not hasattr(doc, "comments")
    assert CnfDocument.__hash__ is None
    with pytest.raises(TypeError):
        hash(build(CnfDocument))
    assert "to_dimacs" in vars(CnfDocument)  # a plain method, rebound on the class by tracers


def test_cnf_documents_of_one_instance_are_equal():
    assert export_cnf(GRAPH, (0, 0)) == export_cnf(GRAPH, (0, 0))
    assert export_cnf(GRAPH, (0, 0)) != export_cnf(GRAPH, (1, 0))


class TestEmbeddingAnalysis:
    def test_equality_and_hash_are_identity(self):
        emb = cycle_embedding(6)
        first, second = analyze(emb), analyze(emb)
        assert first == first and first != second
        assert EmbeddingAnalysis(emb, None, first.classified) != first
        assert hash(first) == object.__hash__(first)
        assert len({first, second}) == 2

    def test_validator_reason_is_computed_once(self, monkeypatch):
        calls = []

        def counting(g):
            calls.append(g)
            return True

        monkeypatch.setattr(discharging, "is_c4c5_free", counting)
        analysis = analyze(k3_embedding())
        assert "validator_reason" not in vars(analysis)
        assert analysis.validator_reason is None
        assert analysis.validator_reason is None
        assert len(calls) == 1
        assert vars(analysis)["validator_reason"] is None

    def test_degenerate_reason_skips_the_scan(self):
        analysis = EmbeddingAnalysis(None, DISCONNECTED, None)
        assert analysis.validator_reason == DISCONNECTED
        with pytest.raises(ValueError, match="^embedding graph must be connected$"):
            analysis.tags


@pytest.mark.parametrize(
    "defects,message",
    [
        ((1, "2"), "defect '2' is not an int"),
        ((True,), "defect True is not an int"),
        ((1.0,), "defect 1.0 is not an int"),
        ((), "at least one color class is required"),
        ((1, -1), "defects must be non-negative"),
    ],
)
def test_coloring_spec_errors(defects, message):
    with pytest.raises(ValueError) as exc:
        ColoringSpec(defects)
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "forced,forbidden,message",
    [
        ({9: 1}, {}, "forced constraint on unknown vertex 9"),
        ({0: "1"}, {}, "forced color '1' is not an int"),
        ({0: 3}, {}, "forced color 3 out of range 1..2"),
        ({}, {9: {1}}, "forbidden constraint on unknown vertex 9"),
        ({}, {0: {1.5}}, "forbidden color 1.5 is not an int"),
        ({}, {0: {0}}, "forbidden color 0 out of range 1..2"),
        ({1: 2}, {1: {2}}, "vertex 1 has its forced color forbidden"),
    ],
)
def test_constraint_set_errors(forced, forbidden, message):
    cons = ConstraintSet(forced, forbidden)
    with pytest.raises(ValueError) as exc:
        solve(GRAPH, (1, 1), cons, budget=10)
    assert str(exc.value) == message
    with pytest.raises(ValueError) as exc:
        export_cnf(GRAPH, (1, 1), cons)
    assert str(exc.value) == message


def test_gadget_result_errors():
    huv = triangle_link()
    g, emb = huv.graph, huv.embedding
    assert GadgetResult(g, dict(huv.terminals), emb) == huv
    with pytest.raises(ValueError) as exc:
        GadgetResult(g, {"x": "missing"})
    assert str(exc.value) == "terminal 'x' refers to missing vertex 'missing'"
    first = next(iter(huv.terminals.values()))
    with pytest.raises(ValueError) as exc:
        GadgetResult(g, {"a": first, "b": first})
    assert str(exc.value) == "terminal 'b' duplicates another terminal"
    with pytest.raises(ValueError) as exc:
        GadgetResult(GRAPH, {}, emb)
    assert str(exc.value) == "embedding is for a different graph"
    k4 = make_graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    toroidal = PlaneEmbedding(k4, {0: (1, 2, 3), 1: (0, 2, 3), 2: (0, 1, 3), 3: (0, 1, 2)})
    with pytest.raises(ValueError) as exc:
        GadgetResult(k4, {}, toroidal)
    assert str(exc.value) == "emitted embedding fails the Euler check"
