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
from fractions import Fraction
from functools import cached_property
from json.encoder import encode_basestring_ascii
from operator import attrgetter, itemgetter
from typing import Iterator

from .embedding import DISCONNECTED, NOT_GENUS_ZERO, Dart, PlaneEmbedding, certify_faces
from .graphs import Graph, Vertex, is_c4c5_free
from .record import Record
from .report import _SCALAR_WRITERS, block, dumps

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


class StructureTags(Record):
    """Complete structural classification of one embedding."""

    def __init__(
        self,
        degree: dict[Vertex, int],
        face_degree: tuple[int, ...],
        face_walk_vertices: tuple[tuple[Vertex, ...], ...],
        corners: dict[Vertex, tuple[int, ...]],
        bad_two_vertices: frozenset[Vertex],
        incident_three_faces: dict[Vertex, tuple[int, ...]],
        pendant_faces: dict[Vertex, tuple[int, ...]],
        good_two_neighbors: dict[Vertex, tuple[Vertex, ...]],
        # the bad 2-vertices on each face's walk, by ascending face index;
        # only faces that have one are listed
        face_bad_two: dict[int, tuple[Vertex, ...]],
        alpha: dict[Vertex, int],
        beta: dict[Vertex, int],
        gamma: dict[Vertex, int],
    ):
        self._set(locals())


class Transfer(Record):
    def __init__(self, rule_id: str, source: ElementKey, target: ElementKey, amount: Fraction):
        self._set(locals())


class ChargeLedger(Record):
    """Exact rational charge per element, in canonical element order."""

    def __init__(self, charges: dict[ElementKey, Fraction]):
        self._set(locals())

    def total(self) -> Fraction:
        values = self.charges.values()
        den = math.lcm(*{q.denominator for q in values})
        return Fraction(sum(q.numerator * (den // q.denominator) for q in values), den)


class Rule(Record):
    """Move `amount` from every source whose degree is in the window to each
    of its targets under `relation`."""

    def __init__(self, rule_id: str, relation: tuple[str, str, str], amount: Fraction,
                 min_degree: int = 0, max_degree: int | None = None):
        self._set(locals())

    def selects_degree(self, d: int) -> bool:
        if d < self.min_degree:
            return False
        return self.max_degree is None or d <= self.max_degree


class DischargeRuleSet(Record):
    def __init__(self, name: str, rules: tuple[Rule, ...]):
        self._set(locals())


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


class EmbeddingAnalysis(Record):
    """The structure of one embedding, computed once and shared by the rules,
    the validators and the audit. Build it with `analyze`. Two analyses are
    equal only when they are the same object.

    The c4c5 scan is computed on first use, so classifying or applying rules
    never pays for it.
    """

    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, emb: PlaneEmbedding,
                 defect: str | None,  # from certify_faces; None when Euler-certified
                 classified: StructureTags | None):
        self._set(locals())

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


def _classify(g: Graph, faces: list[tuple[Dart, ...]]) -> StructureTags:
    degree = {v: g.degree(v) for v in g.vertices}
    face_degree = tuple(map(len, faces))
    face_walk_vertices = tuple(tuple(u for u, _ in walk) for walk in faces)
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


def _rule_pairs(tags: StructureTags, rule: Rule) -> Iterator[tuple[ElementKey, ElementKey]]:
    source, targets, target = rule.relation
    degree = tags.degree if source == "v" else tags.face_degree
    for s, ts in getattr(tags, targets).items():
        if rule.selects_degree(degree[s]):
            src = (source, s)
            for t in ts:
                yield src, (target, t)


def apply_ruleset(
    source: PlaneEmbedding | EmbeddingAnalysis, ruleset: DischargeRuleSet
) -> tuple[ChargeLedger, list[Transfer]]:
    """Run every rule against the initial classification; returns the final
    ledger and the complete transfer log in deterministic order."""
    _, final, per_rule = _discharge(analyze(source), ruleset)
    log = [Transfer(rule.rule_id, src, dst, rule.amount)
           for rule, pairs in per_rule for src, dst in pairs]
    return final, log


def _discharge(
    analysis: EmbeddingAnalysis, ruleset: DischargeRuleSet
) -> tuple[ChargeLedger, ChargeLedger, list[tuple[Rule, list[tuple[ElementKey, ElementKey]]]]]:
    """The initial and final ledgers, and each rule in order with the
    (source, target) keys of its transfers."""
    initial = initial_charges(analysis)
    # every charge is a numerator over den, so each transfer is two integer
    # additions of its rule's step; initial charges are integers
    den = math.lcm(*{rule.amount.denominator for rule in ruleset.rules})
    nums = {key: q.numerator * den for key, q in initial.charges.items()}
    per_rule = []
    for rule in ruleset.rules:
        step = rule.amount.numerator * (den // rule.amount.denominator)
        pairs = list(_rule_pairs(analysis.tags, rule))
        for src, dst in pairs:
            nums[src] -= step
            nums[dst] += step
        per_rule.append((rule, pairs))
    values = {num: Fraction(num, den) for num in set(nums.values())}  # one per numerator
    charges = {key: values[num] for key, num in nums.items()}
    return initial, ChargeLedger(charges), per_rule


def verify_conservation(initial: ChargeLedger, final: ChargeLedger) -> bool:
    """Exact rational equality of totals over the same element set."""
    if list(initial.charges) != list(final.charges):
        raise ValueError("ledgers cover different element sets")
    return initial.total() == final.total()


def negative_elements(ledger: ChargeLedger) -> list[tuple[ElementKey, Fraction]]:
    """Elements with strictly negative charge, in canonical order."""
    return [(key, q) for key, q in ledger.charges.items() if q.numerator < 0]


# -- structural validators ------------------------------------------------

_CONVERT = {**_SCALAR_WRITERS, object: lambda element: encode_basestring_ascii(str(element))}


def _shape(keys: dict[str, type]) -> tuple:
    """A shape: its detail keys, in the order a judge yields their values,
    its items' v1 template at depth 4, the getter of the template's values
    from a row, and the converter of each value that does not fill a %d slot."""
    names = [None, "element", "status", *keys]  # by row position
    types = [None, object, str, *keys.values()]
    order = sorted(range(1, len(names)), key=names.__getitem__)
    template = block([encode_basestring_ascii(names[i]) + (": %d" if types[i] is int else ": %s")
                      for i in order], 4, "{}")
    convert = tuple((j, _CONVERT[types[i]]) for j, i in enumerate(order) if types[i] is not int)
    return tuple(keys), template, itemgetter(*order), convert


_SHAPES: dict[str, tuple[tuple, ...]] = {}  # each validator's item shapes, by name


class ValidationItem(Record):
    def __init__(self, element: object, status: str,
                 detail: dict):  # values are str, int, bool or None
        self._set(locals())


class ValidationReport(Record):
    """A validator's verdict; `items` and `to_json` are read from its rows."""

    def __init__(self, name: str, status: str, rows: tuple[tuple, ...] = (),
                 reason: str | None = None):
        self._set(locals())

    @property
    def items(self) -> tuple[ValidationItem, ...]:
        return tuple(ValidationItem(e, status, dict(zip(_SHAPES[self.name][shape][0], values)))
                     for shape, e, status, *values in self.rows)

    def to_json(self) -> dict:
        items = [{"element": str(i.element), "status": i.status, **i.detail} for i in self.items]
        return {"name": self.name, "status": self.status, "reason": self.reason, "items": items}


def _validator(name: str, *shapes: dict[str, type]):
    """Make a validator from a judge of a certified, c4c5-free embedding's
    classification, which yields a row (shape, element, status, *values) per
    item, values in the order of `shapes[shape]`'s keys. The validator takes
    an embedding or its analysis and reports one it cannot judge degenerate."""
    _SHAPES[name] = tuple(map(_shape, shapes))

    def wrap(judge):
        def validator(source: PlaneEmbedding | EmbeddingAnalysis) -> ValidationReport:
            analysis = analyze(source)
            if analysis.validator_reason:
                return ValidationReport(name, DEGENERATE, (), analysis.validator_reason)
            rows = tuple(judge(analysis.tags))
            statuses = set(map(itemgetter(2), rows))
            status = FAIL if FAIL in statuses else DEGENERATE if DEGENERATE in statuses else PASS
            return ValidationReport(name, status, rows)

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


@_validator("bad2_face_degrees", {"other_face": int, "other_degree": int}, {"why": str})
def check_bad2_face_degrees(tags: StructureTags) -> Iterator[tuple]:
    """Every bad 2-vertex must have its non-triangle face of degree >= 7.

    Its two faces are distinct: one is a 3-face, and a walk of length 3
    cannot hold both darts out of a 2-vertex. On a doubly-covered triangle
    (K3) they share the same boundary edges, so its vertices are flagged
    degenerate rather than judged.
    """
    doubly_covered = _doubly_covered_triangle(tags)
    for v in filter(tags.bad_two_vertices.__contains__, tags.degree):
        if doubly_covered:
            yield 1, v, DEGENERATE, "faces share identical boundaries"
            continue
        f1, f2 = tags.corners[v]
        other = f2 if tags.face_degree[f1] == 3 else f1
        d = tags.face_degree[other]
        yield 0, v, PASS if d >= 7 else FAIL, other, d


@_validator("big_face_bad2_capacity", {"degree": int, "bad2": int, "bound": int},
            {"why": str, "degree": int, "bad2": int})
def check_big_face_bad2_capacity(tags: StructureTags) -> Iterator[tuple]:
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
            yield 1, i, DEGENERATE, "boundary walk revisits a vertex", d, count
        else:
            yield 0, i, PASS if count <= d - 6 else FAIL, d, count, d - 6


_PROFILE = {"degree": int, "alpha": int, "beta": int, "gamma": int, "alt_form_holds": bool}


@_validator("vertex_profiles", _PROFILE, {**_PROFILE, "why": str})
def check_vertex_profiles(tags: StructureTags) -> Iterator[tuple]:
    """Per vertex: alpha <= floor(d/2) and 2*alpha + beta + gamma <= d.

    A second, differently weighted bound (2*beta + alpha + gamma <= d) is
    recorded per vertex for documentation but never judged: it fails on
    ordinary cycles, and the charge arithmetic consistently relies on the
    first form. Vertices on a doubly-covered triangle (K3) are degenerate.
    """
    doubly_covered = _doubly_covered_triangle(tags)
    for v, d in tags.degree.items():
        a, b, c = tags.alpha[v], tags.beta[v], tags.gamma[v]
        alt = 2 * b + a + c <= d
        if doubly_covered:
            yield 1, v, DEGENERATE, d, a, b, c, alt, "incident 3-faces share identical boundaries"
        else:
            yield 0, v, PASS if a <= d // 2 and 2 * a + b + c <= d else FAIL, d, a, b, c, alt


ALL_VALIDATORS = (
    check_bad2_face_degrees,
    check_big_face_bad2_capacity,
    check_vertex_profiles,
)


# -- audit report ----------------------------------------------------------


# % templates of the audit's v1 text, by element kind where it shows, with
# members in sort_keys order. Ids, rule ids and the ruleset name fill their
# slots encoded; charges and amounts are str(Fraction), which needs no
# escaping.
_KIND = {"v": '"kind": "vertex"', "f": '"kind": "face"'}
_ELEMENT = {
    k: block(['"degree": %d', '"final": "%s"', '"id": %s', '"initial": "%s"', kind,
              '"transfers": %s', *(['"walk": %s'] if k == "f" else [])], 2, "{}")
    for k, kind in _KIND.items()
}
# a transfer side at its source or target, by the kind of the other end
_END = {k: block(['"id": %s', kind], 5, "{}") for k, kind in _KIND.items()}
_SENT_TO = {k: block(['"amount": "%s"', '"rule": %s', '"sent_to": ' + end], 4, "{}")
            for k, end in _END.items()}
_RECEIVED_FROM = {k: block(['"amount": "%s"', '"received_from": ' + end, '"rule": %s'], 4, "{}")
                  for k, end in _END.items()}
_NEGATIVE = {k: block(['"charge": "%s"', '"id": %s', kind], 2, "{}") for k, kind in _KIND.items()}
_AUDIT = block(['"conservation": %s', '"elements": %s', '"final_total": "%s"',
                '"format": "defcol-audit v1"', '"initial_total": "%s"', '"negative": %s',
                '"ruleset": %s', '"validators": %s'], 0, "{}")
# The validators section, which the audit and `check lemmas` both write at
# depth 1: one template per report, and each item fills its shape's template.
_REPORT = block(['"items": %s', '"name": %s', '"reason": %s', '"status": %s'], 2, "{}")
_LEMMAS = block(['"format": "defcol-check v1"', '"kind": "lemmas"', '"reports": %s'], 0, "{}")


def _validators_json(analysis: EmbeddingAnalysis) -> str:
    """Every validator's report on `analysis`, by name, as v1 text at depth 1."""
    members = []
    for report in sorted((v(analysis) for v in ALL_VALIDATORS), key=attrgetter("name")):
        items = []
        for row in report.rows:
            _, template, pick, convert = _SHAPES[report.name][row[0]]
            values = list(pick(row))
            for j, to_json in convert:
                values[j] = to_json(values[j])
            items.append(template % tuple(values))
        members.append(encode_basestring_ascii(report.name) + ": " + _REPORT % (
            block(items, 3), dumps(report.name), dumps(report.reason), dumps(report.status)))
    return block(members, 1, "{}")


def audit_json(source: PlaneEmbedding | EmbeddingAnalysis, ruleset: DischargeRuleSet) -> str:
    """Full machine-readable audit as v1 text: charges, transfers,
    conservation, negative elements, and the three structural validator
    verdicts. The ledgers, the transfer log and the validator reports fill
    the templates directly."""
    analysis = analyze(source)
    tags = analysis.tags
    initial, final, per_rule = _discharge(analysis, ruleset)
    # final is built over initial's keys, so equal totals are conservation
    initial_total, final_total = initial.total(), final.total()
    ids = {key: encode_basestring_ascii(str(key[1])) for key in initial.charges}
    sides: dict[ElementKey, list[str]] = {key: [] for key in initial.charges}
    for rule, pairs in per_rule:
        amount_text, rule_text = str(rule.amount), encode_basestring_ascii(rule.rule_id)
        for src, dst in pairs:
            sides[src].append(_SENT_TO[dst[0]] % (amount_text, rule_text, ids[dst]))
            sides[dst].append(_RECEIVED_FROM[src[0]] % (amount_text, ids[src], rule_text))
    walk_ids = {v: ids["v", v] for v in tags.degree}
    elements = []
    for (key, q), final_q in zip(initial.charges.items(), final.charges.values()):
        kind, ident = key
        transfers = block(sides[key], 3)
        if kind == "v":
            fields = (tags.degree[ident], final_q, ids[key], q, transfers)
        else:
            walk = block([walk_ids[u] for u in tags.face_walk_vertices[ident]], 3)
            fields = (tags.face_degree[ident], final_q, ids[key], q, transfers, walk)
        elements.append(_ELEMENT[kind] % fields)
    negative = [_NEGATIVE[key[0]] % (q, ids[key]) for key, q in negative_elements(final)]
    return _AUDIT % (
        "true" if initial_total == final_total else "false",
        block(elements, 1),
        final_total,
        initial_total,
        block(negative, 1),
        encode_basestring_ascii(ruleset.name),
        _validators_json(analysis),
    )


def lemmas_json(source: PlaneEmbedding | EmbeddingAnalysis) -> str:
    """The `check lemmas` report as v1 text: the audit's validators section
    under `reports`."""
    return _LEMMAS % _validators_json(analyze(source))


def build_audit(emb: PlaneEmbedding, ruleset: DischargeRuleSet) -> dict:
    """The audit document: `audit_json`'s text, parsed."""
    return json.loads(audit_json(emb, ruleset))
