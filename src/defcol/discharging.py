"""Structural classification of plane embeddings and the three discharging
rule systems with exact rational charge accounting.

Initial charges are 2d(v) - 6 on vertices and d(f) - 6 on faces, which sum
to exactly -12 on any Euler-certified embedding. A rule system is an
ordered list of transfers; all rules are evaluated against the initial
classification simultaneously, so transfers add up and are never chained.
All arithmetic is exact (fractions.Fraction); floats never enter a ledger.
Sums are taken on integers where they can be: a ledger total is one
integer sum of numerators over the lcm of the denominators, and discharging
keeps each charge as a numerator over the lcm of the rule amounts'
denominators (initial charges are integers), adding each rule's scaled
amount once per transfer.

Classification vocabulary:
  * a 2-vertex is bad when it lies on a 3-face, good otherwise;
  * a 3-face is bad when a 2-vertex lies on it;
  * a 3-face f is pendant to a vertex v off f when some degree-3 vertex on
    f is adjacent to v;
  * per vertex, alpha counts incident 3-faces, beta adjacent good
    2-vertices, gamma pendant 3-faces.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from json.encoder import encode_basestring_ascii
from typing import Iterator

from .embedding import DISCONNECTED, NOT_GENUS_ZERO, Face, PlaneEmbedding, certify_faces
from .graphs import Graph, Vertex, is_c4c5_free
from .report import dumps

ElementKey = tuple[str, object]  # ("v", vertex id) or ("f", face index)

PASS = "pass"
DEGENERATE = "degenerate"
FAIL = "fail"

# The relations a rule can feed. Each fixes a rule's source kind, the
# StructureTags field listing every source's targets, and the target kind.
GOOD2_ADJACENT = ("v", "good_two_neighbors", "v")
THREE_FACE_INCIDENT = ("v", "incident_three_faces", "f")
THREE_FACE_PENDANT = ("v", "pendant_faces", "f")
# Walk occurrences are counted, so a vertex the walk crosses twice receives
# twice.
BAD2_INCIDENT = ("f", "face_bad_two", "v")


@dataclass(frozen=True)
class StructureTags:
    """Complete structural classification of one embedding."""

    degree: dict[Vertex, int]
    face_degree: tuple[int, ...]
    face_walk_vertices: tuple[tuple[Vertex, ...], ...]
    corners: dict[Vertex, tuple[int, ...]]
    bad_two_vertices: frozenset[Vertex]
    incident_three_faces: dict[Vertex, tuple[int, ...]]
    pendant_faces: dict[Vertex, tuple[int, ...]]
    good_two_neighbors: dict[Vertex, tuple[Vertex, ...]]
    # the bad 2-vertices on each face's walk, by ascending face index; only
    # faces that have one are listed
    face_bad_two: dict[int, tuple[Vertex, ...]]
    alpha: dict[Vertex, int]
    beta: dict[Vertex, int]
    gamma: dict[Vertex, int]


@dataclass(frozen=True)
class Transfer:
    rule_id: str
    source: ElementKey
    target: ElementKey
    amount: Fraction


@dataclass(frozen=True)
class ChargeLedger:
    """Exact rational charge per element, in canonical element order."""

    charges: dict[ElementKey, Fraction]

    def total(self) -> Fraction:
        values = self.charges.values()
        den = math.lcm(*{q.denominator for q in values})
        return Fraction(sum(q.numerator * (den // q.denominator) for q in values), den)


@dataclass(frozen=True)
class Rule:
    """Move `amount` from every source whose degree is in the window to each
    of its targets under `relation`."""

    rule_id: str
    relation: tuple[str, str, str]
    amount: Fraction
    min_degree: int = 0
    max_degree: int | None = None

    def selects_degree(self, d: int) -> bool:
        if d < self.min_degree:
            return False
        return self.max_degree is None or d <= self.max_degree


@dataclass(frozen=True)
class DischargeRuleSet:
    name: str
    rules: tuple[Rule, ...]


def _rule(rid, amount, relation, lo, hi=None):
    return Rule(rid, relation, Fraction(amount), lo, hi)


RULES_44 = DischargeRuleSet(
    "44",
    (
        _rule("R1", 1, GOOD2_ADJACENT, 6),
        _rule("R2", 2, THREE_FACE_INCIDENT, 6),
        _rule("R3", 1, THREE_FACE_PENDANT, 6),
        _rule("R4", 1, BAD2_INCIDENT, 7),
        _rule("R5", 1, THREE_FACE_INCIDENT, 4, 5),
        _rule("R6", 1, BAD2_INCIDENT, 3, 3),
    ),
)

RULES_35 = DischargeRuleSet(
    "35",
    (
        _rule("R1", Fraction(4, 5), GOOD2_ADJACENT, 5, 5),
        _rule("R2", Fraction(8, 5), THREE_FACE_INCIDENT, 5, 5),
        _rule("R3", Fraction(4, 5), THREE_FACE_PENDANT, 5, 5),
        _rule("R4", 1, GOOD2_ADJACENT, 6, 6),
        _rule("R5", 2, THREE_FACE_INCIDENT, 6, 7),
        _rule("R6", 1, THREE_FACE_PENDANT, 6, 6),
        _rule("R7", Fraction(6, 5), GOOD2_ADJACENT, 7),
        _rule("R8", Fraction(12, 5), THREE_FACE_INCIDENT, 8),
        _rule("R9", Fraction(6, 5), THREE_FACE_PENDANT, 7),
        _rule("R10", 1, BAD2_INCIDENT, 7),
        _rule("R11", 1, THREE_FACE_INCIDENT, 4, 4),
        _rule("R12", 1, BAD2_INCIDENT, 3, 3),
    ),
)

RULES_29 = DischargeRuleSet(
    "29",
    (
        _rule("R1", Fraction(1, 2), GOOD2_ADJACENT, 4, 10),
        _rule("R2", 1, THREE_FACE_INCIDENT, 4, 4),
        _rule("R3", Fraction(1, 2), THREE_FACE_PENDANT, 4, 10),
        _rule("R4", Fraction(3, 2), THREE_FACE_INCIDENT, 5, 10),
        _rule("R5", Fraction(5, 2), THREE_FACE_INCIDENT, 11, 11),
        _rule("R6", Fraction(3, 2), GOOD2_ADJACENT, 11),
        _rule("R7", 3, THREE_FACE_INCIDENT, 12),
        _rule("R8", Fraction(3, 2), THREE_FACE_PENDANT, 11),
        _rule("R9", 1, BAD2_INCIDENT, 7),
        _rule("R10", 1, BAD2_INCIDENT, 3, 3),
    ),
)

RULESETS: dict[str, DischargeRuleSet] = {
    "44": RULES_44,
    "35": RULES_35,
    "29": RULES_29,
}


# classify's error per certify_faces defect; the validators report the defect
_CLASSIFY_ERRORS = {
    DISCONNECTED: "embedding graph must be connected",
    NOT_GENUS_ZERO: "embedding fails the Euler check (not genus zero)",
}


@dataclass(frozen=True, eq=False)
class EmbeddingAnalysis:
    """The structure of one embedding, computed once and shared by the rules,
    the validators and the audit. Build it with `analyze`.

    The c4c5 scan is computed on first use, so classifying or applying rules
    never pays for it.
    """

    emb: PlaneEmbedding
    defect: str | None  # from certify_faces; None when Euler-certified
    classified: StructureTags | None

    @property
    def tags(self) -> StructureTags:
        if self.defect is not None:
            raise ValueError(_CLASSIFY_ERRORS[self.defect])
        return self.classified

    @cached_property
    def validator_reason(self) -> str | None:
        """Why the validators cannot judge this embedding, or None."""
        if self.defect is not None:
            return self.defect
        if not is_c4c5_free(self.emb.graph):
            return "graph contains a 4-cycle or 5-cycle"
        return None


def analyze(source: PlaneEmbedding | EmbeddingAnalysis) -> EmbeddingAnalysis:
    """Trace, certify and classify an embedding once; an analysis passes
    through unchanged."""
    if isinstance(source, EmbeddingAnalysis):
        return source
    faces, defect = certify_faces(source)
    tags = None if defect else _classify(source.graph, faces)
    return EmbeddingAnalysis(source, defect, tags)


def classify(emb: PlaneEmbedding) -> StructureTags:
    """Tag every vertex and face of an Euler-certified embedding."""
    return analyze(emb).tags


def _classify(g: Graph, faces: list[Face]) -> StructureTags:
    degree = {v: g.degree(v) for v in g.vertices}
    face_degree = tuple(f.degree for f in faces)
    face_walk_vertices = tuple(f.vertices() for f in faces)
    three_faces = tuple(i for i, d in enumerate(face_degree) if d == 3)

    # face index at each corner, one per walk occurrence: d entries at degree d
    corners: dict[Vertex, list[int]] = {v: [] for v in g.vertices}
    for i, walk in enumerate(face_walk_vertices):
        for v in walk:
            corners[v].append(i)
    incident_three = {
        v: tuple(i for i in cs if face_degree[i] == 3) for v, cs in corners.items()
    }

    bad_two = frozenset(
        v for v in g.vertices if degree[v] == 2 and incident_three[v]
    )
    good_two = frozenset(
        v for v in g.vertices if degree[v] == 2 and not incident_three[v]
    )
    # Every 2-vertex on a 3-face is bad, so these lists also name the bad
    # 3-faces and their 2-vertices.
    face_bad_two = {
        i: tuple(u for u in face_walk_vertices[i] if u in bad_two)
        for i in sorted({i for v in bad_two for i in corners[v]})
    }
    # Each good 2-vertex joins its neighbors' lists in vertex order, which is
    # the ascending index order of ordered_neighbors.
    good_two_around: list[list[Vertex]] = [[] for _ in g.vertices]
    for v, around in zip(g.vertices, g.adjacency):
        if v in good_two:
            for i in around:
                good_two_around[i].append(v)
    good_two_neighbors = dict(zip(g.vertices, map(tuple, good_two_around)))

    pendant: dict[Vertex, set[int]] = {v: set() for v in g.vertices}
    for i in three_faces:
        on_face = set(face_walk_vertices[i])
        for w in face_walk_vertices[i]:
            if degree[w] != 3:
                continue
            for x in g.ordered_neighbors(w):
                if x not in on_face:
                    pendant[x].add(i)
    pendant_faces = {v: tuple(sorted(pendant[v])) for v in g.vertices}

    alpha = {v: len(incident_three[v]) for v in g.vertices}
    beta = {v: len(us) for v, us in good_two_neighbors.items()}
    gamma = {v: len(pendant_faces[v]) for v in g.vertices}

    return StructureTags(
        degree=degree,
        face_degree=face_degree,
        face_walk_vertices=face_walk_vertices,
        corners={v: tuple(cs) for v, cs in corners.items()},
        bad_two_vertices=bad_two,
        incident_three_faces=incident_three,
        pendant_faces=pendant_faces,
        good_two_neighbors=good_two_neighbors,
        face_bad_two=face_bad_two,
        alpha=alpha,
        beta=beta,
        gamma=gamma,
    )


def initial_charges(source: PlaneEmbedding | EmbeddingAnalysis) -> ChargeLedger:
    """Charge 2d(v) - 6 per vertex and d(f) - 6 per face; total is -12."""
    tags = analyze(source).tags
    charges: dict[ElementKey, Fraction] = {}
    for v, d in tags.degree.items():
        charges[("v", v)] = Fraction(2 * d - 6)
    for i, d in enumerate(tags.face_degree):
        charges[("f", i)] = Fraction(d - 6)
    return ChargeLedger(charges)  # vertices, then faces


def _rule_transfers(tags: StructureTags, rule: Rule) -> Iterator[Transfer]:
    source, targets, target = rule.relation
    degree = tags.degree if source == "v" else tags.face_degree
    for s, ts in getattr(tags, targets).items():
        if rule.selects_degree(degree[s]):
            src = (source, s)
            for t in ts:
                yield Transfer(rule.rule_id, src, (target, t), rule.amount)


def apply_ruleset(
    source: PlaneEmbedding | EmbeddingAnalysis, ruleset: DischargeRuleSet
) -> tuple[ChargeLedger, list[Transfer]]:
    """Run every rule against the initial classification; returns the final
    ledger and the complete transfer log in deterministic order."""
    _, final, log = _discharge(analyze(source), ruleset)
    return final, log


def _discharge(
    analysis: EmbeddingAnalysis, ruleset: DischargeRuleSet
) -> tuple[ChargeLedger, ChargeLedger, list[Transfer]]:
    initial = initial_charges(analysis)
    # every charge is a numerator over den, so each transfer is two integer
    # additions of its rule's step; initial charges are integers
    den = math.lcm(*{rule.amount.denominator for rule in ruleset.rules})
    nums = {key: q.numerator * den for key, q in initial.charges.items()}
    log: list[Transfer] = []
    for rule in ruleset.rules:
        step = rule.amount.numerator * (den // rule.amount.denominator)
        for t in _rule_transfers(analysis.tags, rule):
            nums[t.source] -= step
            nums[t.target] += step
            log.append(t)
    values = {num: Fraction(num, den) for num in set(nums.values())}  # one per numerator
    charges = {key: values[num] for key, num in nums.items()}
    return initial, ChargeLedger(charges), log


def verify_conservation(initial: ChargeLedger, final: ChargeLedger) -> bool:
    """Exact rational equality of totals over the same element set."""
    if list(initial.charges) != list(final.charges):
        raise ValueError("ledgers cover different element sets")
    return initial.total() == final.total()


def negative_elements(ledger: ChargeLedger) -> list[tuple[ElementKey, Fraction]]:
    """Elements with strictly negative charge, in canonical order."""
    return [(key, q) for key, q in ledger.charges.items() if q.numerator < 0]


# -- structural validators ------------------------------------------------


@dataclass(frozen=True)
class ValidationItem:
    element: object
    status: str
    detail: dict


@dataclass(frozen=True)
class ValidationReport:
    name: str
    status: str
    items: tuple[ValidationItem, ...] = ()
    reason: str | None = None

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "status": self.status,
            "reason": self.reason,
            "items": [
                {"element": str(i.element), "status": i.status, **i.detail}
                for i in self.items
            ],
        }


def _validator(name: str):
    """Make a validator from a judge of the classification of a certified,
    c4c5-free embedding. The validator takes an embedding or its analysis
    and reports an input it cannot judge as degenerate."""

    def wrap(judge):
        def validator(source: PlaneEmbedding | EmbeddingAnalysis) -> ValidationReport:
            analysis = analyze(source)
            if analysis.validator_reason:
                return ValidationReport(name, DEGENERATE, (), analysis.validator_reason)
            items = tuple(judge(analysis.tags))
            status = PASS
            if any(i.status == DEGENERATE for i in items):
                status = DEGENERATE
            if any(i.status == FAIL for i in items):
                status = FAIL
            return ValidationReport(name, status, items)

        validator.__name__ = validator.__qualname__ = judge.__name__
        validator.__doc__ = judge.__doc__
        return validator

    return wrap


def _doubly_covered_triangle(tags: StructureTags) -> bool:
    """True when the embedding is K3: in a connected plane graph, the one
    way for two distinct 3-faces to have the same boundary edge multiset.

    Each shared edge separates the two faces (with both sides on one face it
    would need more sides to appear on the other), so no other edge meets a
    boundary vertex and the graph is the boundary. Euler then forces a
    cycle, here a triangle.
    """
    return tags.face_degree == (3, 3)


@_validator("bad2_face_degrees")
def check_bad2_face_degrees(tags: StructureTags) -> Iterator[ValidationItem]:
    """Every bad 2-vertex must have its non-triangle face of degree >= 7.

    Its two faces are distinct: one is a 3-face, and a walk of length 3
    cannot hold both darts out of a 2-vertex. On a doubly-covered triangle
    (K3) they share the same boundary edges, so its vertices are flagged
    degenerate rather than judged.
    """
    doubly_covered = _doubly_covered_triangle(tags)
    for v in tags.degree:
        if v not in tags.bad_two_vertices:
            continue
        if doubly_covered:
            yield ValidationItem(v, DEGENERATE, {"why": "faces share identical boundaries"})
            continue
        f1, f2 = tags.corners[v]
        other = f2 if tags.face_degree[f1] == 3 else f1
        d = tags.face_degree[other]
        status = PASS if d >= 7 else FAIL
        yield ValidationItem(v, status, {"other_face": other, "other_degree": d})


@_validator("big_face_bad2_capacity")
def check_big_face_bad2_capacity(tags: StructureTags) -> Iterator[ValidationItem]:
    """Every simple-cycle face of degree k >= 7 carries at most k - 6
    bad-2-vertex incidences (counted with walk multiplicity).

    A 7+-face whose boundary walk revisits a vertex is reported degenerate:
    the bound is only supported on simple cycle boundaries.
    """
    for i, d in enumerate(tags.face_degree):
        if d < 7:
            continue
        walk = tags.face_walk_vertices[i]
        count = len(tags.face_bad_two.get(i, ()))
        if len(set(walk)) != len(walk):
            why = "boundary walk revisits a vertex"
            yield ValidationItem(i, DEGENERATE, {"why": why, "degree": d, "bad2": count})
        else:
            status = PASS if count <= d - 6 else FAIL
            yield ValidationItem(i, status, {"degree": d, "bad2": count, "bound": d - 6})


@_validator("vertex_profiles")
def check_vertex_profiles(tags: StructureTags) -> Iterator[ValidationItem]:
    """Per vertex: alpha <= floor(d/2) and 2*alpha + beta + gamma <= d.

    A second, differently weighted bound (2*beta + alpha + gamma <= d) is
    recorded per vertex for documentation but never judged: it fails on
    ordinary cycles, and the charge arithmetic consistently relies on the
    first form. Vertices on a doubly-covered triangle (K3) are degenerate.
    """
    doubly_covered = _doubly_covered_triangle(tags)
    for v, d in tags.degree.items():
        a, b, c = tags.alpha[v], tags.beta[v], tags.gamma[v]
        detail = {
            "degree": d,
            "alpha": a,
            "beta": b,
            "gamma": c,
            "alt_form_holds": 2 * b + a + c <= d,
        }
        if doubly_covered:
            detail["why"] = "incident 3-faces share identical boundaries"
            yield ValidationItem(v, DEGENERATE, detail)
        else:
            ok = a <= d // 2 and 2 * a + b + c <= d
            yield ValidationItem(v, PASS if ok else FAIL, detail)


ALL_VALIDATORS = (
    check_bad2_face_degrees,
    check_big_face_bad2_capacity,
    check_vertex_profiles,
)


# -- audit report ----------------------------------------------------------


def _block(members: list[str], depth: int, brackets: str = "[]") -> str:
    """Members already in JSON form, one per line, in a list or object that
    json.dumps(indent=2) writes at depth."""
    if not members:
        return brackets
    indent = "\n" + "  " * depth
    return brackets[0] + indent + "  " + ("," + indent + "  ").join(members) + indent + brackets[1]


# % templates of the audit's v1 text, by element kind where it shows, with
# members in sort_keys order. Ids, rule ids and the ruleset name fill their
# slots encoded; charges and amounts are str(Fraction), which needs no
# escaping.
_KIND = {"v": '"kind": "vertex"', "f": '"kind": "face"'}
_ELEMENT = {
    k: _block(['"degree": %d', '"final": "%s"', '"id": %s', '"initial": "%s"', kind,
               '"transfers": %s', *(['"walk": %s'] if k == "f" else [])], 2, "{}")
    for k, kind in _KIND.items()
}
# a transfer side at its source or target, by the kind of the other end
_END = {k: _block(['"id": %s', kind], 5, "{}") for k, kind in _KIND.items()}
_SENT_TO = {k: _block(['"amount": "%s"', '"rule": %s', '"sent_to": ' + end], 4, "{}")
            for k, end in _END.items()}
_RECEIVED_FROM = {k: _block(['"amount": "%s"', '"received_from": ' + end, '"rule": %s'], 4, "{}")
                  for k, end in _END.items()}
_NEGATIVE = {k: _block(['"charge": "%s"', '"id": %s', kind], 2, "{}") for k, kind in _KIND.items()}
_AUDIT = _block(['"conservation": %s', '"elements": %s', '"final_total": "%s"',
                 '"format": "defcol-audit v1"', '"initial_total": "%s"', '"negative": %s',
                 '"ruleset": %s', '"validators": %s'], 0, "{}")


def audit_json(source: PlaneEmbedding | EmbeddingAnalysis, ruleset: DischargeRuleSet) -> str:
    """Full machine-readable audit as v1 text: charges, transfers,
    conservation, negative elements, and the three structural validator
    verdicts. The ledgers and the transfer log fill the templates directly;
    only the validators go through the generic writer."""
    analysis = analyze(source)
    tags = analysis.tags
    initial, final, log = _discharge(analysis, ruleset)
    # final is built over initial's keys, so equal totals are conservation
    initial_total, final_total = initial.total(), final.total()
    ids = {key: encode_basestring_ascii(str(key[1])) for key in initial.charges}
    sides: dict[ElementKey, list[str]] = {key: [] for key in initial.charges}
    rule_id = amount = None
    for t in log:
        # each rule's transfers are one run sharing its id and amount
        if t.rule_id is not rule_id or t.amount is not amount:
            rule_id, amount = t.rule_id, t.amount
            amount_text, rule_text = str(amount), encode_basestring_ascii(rule_id)
        src, dst = t.source, t.target
        sides[src].append(_SENT_TO[dst[0]] % (amount_text, rule_text, ids[dst]))
        sides[dst].append(_RECEIVED_FROM[src[0]] % (amount_text, ids[src], rule_text))
    walk_ids = {v: ids["v", v] for v in tags.degree}
    elements = []
    for (key, q), final_q in zip(initial.charges.items(), final.charges.values()):
        kind, ident = key
        transfers = _block(sides[key], 3)
        if kind == "v":
            fields = (tags.degree[ident], final_q, ids[key], q, transfers)
        else:
            walk = _block([walk_ids[u] for u in tags.face_walk_vertices[ident]], 3)
            fields = (tags.face_degree[ident], final_q, ids[key], q, transfers, walk)
        elements.append(_ELEMENT[kind] % fields)
    negative = [_NEGATIVE[key[0]] % (q, ids[key]) for key, q in negative_elements(final)]
    validators = {report.name: report.to_json() for report in (v(analysis) for v in ALL_VALIDATORS)}
    return _AUDIT % (
        "true" if initial_total == final_total else "false",
        _block(elements, 1),
        final_total,
        initial_total,
        _block(negative, 1),
        encode_basestring_ascii(ruleset.name),
        dumps(validators, 1),
    )


def build_audit(emb: PlaneEmbedding, ruleset: DischargeRuleSet) -> dict:
    """The audit document: `audit_json`'s text, parsed."""
    return json.loads(audit_json(emb, ruleset))
