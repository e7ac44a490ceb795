"""Independent reference implementations used only to audit the package.

Everything here is deliberately naive: cycle enumeration over raw vertex
permutations, a tiny DPLL for checking exported CNF documents, the solver's
slack knapsack as it was before it folded runs of identical pieces at once,
the validators' degeneracy checks as they were before they judged the
classification alone, the defect rule counted vertex by vertex, with the
extension check as it was before the brute-force checks shared one predicate,
a ledger replayed one Fraction operation per transfer, the discharging loop
as it was before it summed on integers (one Fraction product per element
and rule), the good 2-vertex neighbor lists as they were before they
were built outward from each good 2-vertex, and the CNF encoder and DIMACS
writer as they were before counter variables were numbered by arithmetic
and clauses written through per-width templates, and the `.graph`/`.emb`
loaders as they were before they read integer fields with bare `int()`.
None of it shares code with the package under test, except the audit
document built as nested dicts, as `build_audit` built it before the report
was written as text, and the `check lemmas` report as the CLI wrote it
before the validators section was written through templates: they reuse
the package's analysis and discharging, so that only the rendering and the
validators differ. Their validators are the package's as they were before
the judges yielded rows: each item a `ValidationItem` with a detail dict,
rolled up and written by `to_json`. The old loaders build the package's
`Graph` and `PlaneEmbedding`, so that only the reading of the text differs.

The last section holds helpers that only tests call, moved here unchanged
from the package: `identify`, `deletion_preserves` with its
`BudgetExceededError`, and `decode_cnf_model`. `deletion_preserves` runs
the package's `solve`.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations, product
from typing import Iterable, Iterator

from defcol import (
    CnfDocument,
    ColoringSpec,
    Graph,
    PlaneEmbedding,
    Vertex,
    delete_vertex,
    solve,
)
from defcol.discharging import (
    DEGENERATE,
    FAIL,
    PASS,
    EmbeddingAnalysis,
    StructureTags,
    analyze,
    apply_ruleset,
    initial_charges,
    negative_elements,
)
from defcol.embedding import certify_faces
from defcol.graphs import MAX_EDGES, MAX_VERTICES


def canonical_cycle(g, seq):
    """Minimal index tuple over all rotations and both directions."""
    idxs = tuple(g.index_of(v) for v in seq)
    best = None
    for direction in (idxs, idxs[::-1]):
        for shift in range(len(direction)):
            cand = direction[shift:] + direction[:shift]
            if best is None or cand < best:
                best = cand
    return best


def cycles_by_permutation(g, length):
    """Every simple cycle of the given length, canonicalized, via brute
    enumeration of all vertex sequences."""
    found = set()
    for seq in permutations(g.vertices, length):
        ok = all(g.has_edge(seq[i], seq[(i + 1) % length]) for i in range(length))
        if ok:
            found.add(canonical_cycle(g, seq))
    return found


def girth_by_enumeration(g):
    for length in range(3, g.vertex_count + 1):
        if cycles_by_permutation(g, length):
            return length
    return math.inf


def parse_dimacs(text):
    num_vars = 0
    clauses = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            parts = line.split()
            assert parts[1] == "cnf"
            num_vars = int(parts[2])
            continue
        lits = [int(tok) for tok in line.split()]
        assert lits[-1] == 0
        clauses.append(tuple(lits[:-1]))
    return num_vars, clauses


def dpll(clauses, num_vars, assumptions=()):
    """Tiny complete SAT check; returns a model (set of true vars) or None."""
    assignment = {}
    for lit in assumptions:
        assignment[abs(lit)] = lit > 0

    def propagate(clauses):
        while True:
            unit = None
            for clause in clauses:
                unassigned = []
                satisfied = False
                for lit in clause:
                    val = assignment.get(abs(lit))
                    if val is None:
                        unassigned.append(lit)
                    elif (lit > 0) == val:
                        satisfied = True
                        break
                if satisfied:
                    continue
                if not unassigned:
                    return False
                if len(unassigned) == 1:
                    unit = unassigned[0]
                    break
            if unit is None:
                return True
            assignment[abs(unit)] = unit > 0

    def active(clauses):
        remaining = []
        for clause in clauses:
            satisfied = False
            rest = []
            for lit in clause:
                val = assignment.get(abs(lit))
                if val is None:
                    rest.append(lit)
                elif (lit > 0) == val:
                    satisfied = True
                    break
            if not satisfied:
                remaining.append(tuple(rest))
        return remaining

    def search(clauses):
        if not propagate(clauses):
            return False
        clauses = active(clauses)
        if not clauses:
            return True
        var = abs(clauses[0][0])
        snapshot = dict(assignment)
        for value in (True, False):
            assignment.clear()
            assignment.update(snapshot)
            assignment[var] = value
            if search(clauses):
                return True
        assignment.clear()
        assignment.update(snapshot)
        return False

    if not search([tuple(c) for c in clauses]):
        return None
    model = set()
    for var in range(1, num_vars + 1):
        if assignment.get(var, False):
            model.add(var)
    return model


def model_to_lits(model, num_vars):
    return [v if v in model else -v for v in range(1, num_vars + 1)]


def knapsack_one_at_a_time(pending, slack):
    """The solver's knapsack folding pending pieces in one at a time, with a
    Pareto filter over all pairs: False, or (attachments, reservations)
    whose chains link (chain, piece, witness) nodes back to None."""
    atts: list[int] = []
    where: dict[int, int] = {}
    for binding, _, _ in pending:
        for y in binding:
            if y not in where:
                where[y] = len(atts)
                atts.append(y)
    room = [slack[y] for y in atts]
    front: dict[tuple[int, ...], tuple | None] = {(0,) * len(atts): None}
    for binding, entries, piece in pending:
        slots = [where[y] for y in binding]
        grown: dict[tuple[int, ...], tuple] = {}
        for total, chain in front.items():
            for vec, witness in entries:
                t = list(total)
                for i, v in zip(slots, vec):
                    t[i] += v
                if all(t[i] <= room[i] for i in slots):
                    grown.setdefault(tuple(t), (chain, piece, witness))
        front = {
            t: chain for t, chain in grown.items()
            if not any(o != t and all(a <= b for a, b in zip(o, t)) for o in grown)
        }
        if not front:
            return False
    return atts, sorted(front.items(), key=lambda item: (sum(item[0]), item[0]))


def boundary_degeneracy(emb, tags):
    """Per vertex, the degeneracy verdicts of bad2_face_degrees and
    vertex_profiles by comparing faces' boundary edge multisets: the `why`
    of a degenerate bad 2-vertex (else None), and whether the vertex's
    incident 3-faces include two with the same boundary. `tags` is the
    classification of the certified embedding `emb`."""
    faces, _ = certify_faces(emb)
    boundaries = tuple(
        frozenset(Counter(frozenset(d) for d in walk).items()) for walk in faces
    )

    def coincident(i, j):
        return i != j and boundaries[i] == boundaries[j]

    verdicts = {}
    for v in tags.degree:
        why = None
        if v in tags.bad_two_vertices:
            f1, f2 = tags.corners[v]
            if f1 == f2:
                why = "one face covers both corners"
            elif coincident(f1, f2):
                why = "faces share identical boundaries"
        faces = set(tags.incident_three_faces[v])
        degenerate = len({boundaries[i] for i in faces}) < len(faces)
        verdicts[v] = (why, degenerate)
    return verdicts


def valid_by_neighbor_count(g, defects, coloring):
    """True iff every colored vertex has at most its color's defect of
    neighbors with the same color; uncolored neighbors count as none."""
    return all(
        sum(coloring.get(u) == c for u in g.neighbors(v)) <= defects[c - 1]
        for v, c in coloring.items()
    )


def always_extends_by_enumeration(g, v, defects):
    """Every coloring of g - v, one dict each, valid under the neighbor
    count, has a color for v that keeps the whole map valid."""
    colors = range(1, len(defects) + 1)
    rest = [w for w in g.vertices if w != v]
    for assignment in product(colors, repeat=len(rest)):
        cmap = dict(zip(rest, assignment))
        if not valid_by_neighbor_count(g, defects, cmap):
            continue
        if not any(valid_by_neighbor_count(g, defects, {**cmap, v: c}) for c in colors):
            return False
    return True


def replay_transfer_log(tags, log):
    """Final charges from 2d - 6 per vertex and d - 6 per face, moving each
    transfer of the log in turn with plain Fraction arithmetic."""
    charges = {("v", v): Fraction(2 * d - 6) for v, d in tags.degree.items()}
    for i, d in enumerate(tags.face_degree):
        charges[("f", i)] = Fraction(d - 6)
    for t in log:
        charges[t.source] -= t.amount
        charges[t.target] += t.amount
    return charges


def discharge_by_fractions(tags, ruleset):
    """Final charges from 2d - 6 per vertex and d - 6 per face, each rule
    adding its amount times every element's net count of transfers under it
    (received minus sent), in Fraction arithmetic."""
    charges = {("v", v): Fraction(2 * d - 6) for v, d in tags.degree.items()}
    for i, d in enumerate(tags.face_degree):
        charges[("f", i)] = Fraction(d - 6)
    for rule in ruleset.rules:
        source, targets, target = rule.relation
        degree = tags.degree if source == "v" else tags.face_degree
        net = {}  # transfers received minus sent
        for s, ts in getattr(tags, targets).items():
            if degree[s] < rule.min_degree:
                continue
            if rule.max_degree is not None and degree[s] > rule.max_degree:
                continue
            for t in ts:
                net[(source, s)] = net.get((source, s), 0) - 1
                net[(target, t)] = net.get((target, t), 0) + 1
        for key, count in net.items():
            if count:
                charges[key] += count * rule.amount
    return charges


def good_two_neighbors_by_comprehension(g, good_two):
    """Per vertex, its neighbors that are good 2-vertices, in the order of
    `ordered_neighbors`."""
    return {
        v: tuple(u for u in g.ordered_neighbors(v) if u in good_two) for v in g.vertices
    }


def export_cnf_by_matrix(g, spec, constraints):
    """(num_vars, clauses, var_map, comments) of the CNF encoding, with each
    sequential counter's variables filled into an r matrix one at a time.
    Takes a ColoringSpec and a ConstraintSet already valid for g."""
    cons = constraints
    k = spec.k

    verts = g.vertices
    idx = g.index_of
    var_map = {(v, c): idx(v) * k + c for v in verts for c in range(1, k + 1)}
    next_var = len(verts) * k
    clauses = []
    comments = [f"c x {idx(v) * k + c} : vertex {idx(v)} color {c}" for v in verts for c in range(1, k + 1)]

    for v in verts:
        xs = [var_map[(v, c)] for c in range(1, k + 1)]
        clauses.append(tuple(xs))
        for a in range(k):
            for b in range(a + 1, k):
                clauses.append((-xs[a], -xs[b]))

    for v, c in cons.forced.items():
        clauses.append((var_map[(v, c)],))
    for v, cs in cons.forbidden.items():
        for c in sorted(cs):
            clauses.append((-var_map[(v, c)],))

    for i, v in enumerate(verts):
        around = g.adjacency[i]
        for c in range(1, k + 1):
            trigger = var_map[(v, c)]
            ys = [u * k + c for u in around]
            d = spec.defects[c - 1]
            if len(ys) <= d:
                continue
            if d == 0:
                for y in ys:
                    clauses.append((-trigger, -y))
                continue
            # Sequential counter r[i][j]: among ys[0..i], at least j+1 true.
            m = len(ys)
            r = [[0] * d for _ in range(m - 1)]
            for i in range(m - 1):
                for j in range(d):
                    next_var += 1
                    r[i][j] = next_var
            clauses.append((-ys[0], r[0][0]))
            for j in range(1, d):
                clauses.append((-r[0][j],))
            for i in range(1, m - 1):
                clauses.append((-ys[i], r[i][0]))
                clauses.append((-r[i - 1][0], r[i][0]))
                for j in range(1, d):
                    clauses.append((-ys[i], -r[i - 1][j - 1], r[i][j]))
                    clauses.append((-r[i - 1][j], r[i][j]))
                clauses.append((-trigger, -ys[i], -r[i - 1][d - 1]))
            clauses.append((-trigger, -ys[m - 1], -r[m - 2][d - 1]))

    return next_var, clauses, var_map, comments


def dimacs_by_join(num_vars, clauses, comments):
    """DIMACS text with each clause's literals joined one str() at a time."""
    lines = ["c defcol-cnf v1"]
    lines.extend(comments)
    lines.append(f"p cnf {num_vars} {len(clauses)}")
    for clause in clauses:
        lines.append(" ".join(str(lit) for lit in clause) + " 0")
    return "\n".join(lines) + "\n"


# -- the structural validators, as they were before the judges yielded rows


@dataclass(frozen=True)
class ValidationItem:
    element: object
    status: str
    detail: dict  # values are str, int, bool or None


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


def _validator_by_items(name: str):
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


@_validator_by_items("bad2_face_degrees")
def check_bad2_face_degrees_by_items(tags: StructureTags) -> Iterator[ValidationItem]:
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


@_validator_by_items("big_face_bad2_capacity")
def check_big_face_bad2_capacity_by_items(tags: StructureTags) -> Iterator[ValidationItem]:
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


@_validator_by_items("vertex_profiles")
def check_vertex_profiles_by_items(tags: StructureTags) -> Iterator[ValidationItem]:
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


VALIDATORS_BY_ITEMS = (
    check_bad2_face_degrees_by_items,
    check_big_face_bad2_capacity_by_items,
    check_vertex_profiles_by_items,
)


def _key_json(key):
    kind, ident = key
    return {"kind": "vertex" if kind == "v" else "face", "id": str(ident)}


def build_audit_by_dicts(emb, ruleset):
    """Full machine-readable audit: charges, transfers, conservation,
    negative elements, and the three structural validator verdicts."""
    analysis = analyze(emb)
    tags = analysis.tags
    initial = initial_charges(analysis)
    final, log = apply_ruleset(analysis, ruleset)
    # final is built over initial's keys, so equal totals are conservation
    initial_total, final_total = initial.total(), final.total()
    per_element = {}
    for key in initial.charges:
        kind, ident = key
        entry = _key_json(key)
        if kind == "v":
            entry["degree"] = tags.degree[ident]
        else:
            entry["degree"] = tags.face_degree[ident]
            entry["walk"] = [str(u) for u in tags.face_walk_vertices[ident]]
        entry["initial"] = str(initial.charges[key])
        entry["final"] = str(final.charges[key])
        entry["transfers"] = []
        per_element[key] = entry
    for t in log:
        amount = str(t.amount)
        per_element[t.source]["transfers"].append(
            {"rule": t.rule_id, "sent_to": _key_json(t.target), "amount": amount}
        )
        per_element[t.target]["transfers"].append(
            {"rule": t.rule_id, "received_from": _key_json(t.source), "amount": amount}
        )
    return {
        "format": "defcol-audit v1",
        "ruleset": ruleset.name,
        "initial_total": str(initial_total),
        "final_total": str(final_total),
        "conservation": initial_total == final_total,
        "elements": list(per_element.values()),
        "negative": [
            {**_key_json(key), "charge": str(charge)}
            for key, charge in negative_elements(final)
        ],
        "validators": {
            report.name: report.to_json()
            for report in (v(analysis) for v in VALIDATORS_BY_ITEMS)
        },
    }


def lemmas_by_dicts(emb):
    """The `check lemmas` report as the CLI wrote it before `lemmas_json`:
    the document built as dicts, through json.dumps."""
    analysis = analyze(emb)
    return json.dumps(
        {
            "format": "defcol-check v1",
            "kind": "lemmas",
            "reports": {r.name: r.to_json() for r in (v(analysis) for v in VALIDATORS_BY_ITEMS)},
        },
        indent=2,
        sort_keys=True,
    )


# -- the text loaders, as they were before integer fields were read with int()


def _content_lines_by_loop(text: str) -> list[str]:
    out = []
    for raw in text.splitlines():
        line = raw.strip()
        if line and not line.startswith("#"):
            out.append(line)
    return out


def _int_token_by_check(token: str) -> int:
    """Parse one integer field of the text formats: ASCII `-?[0-9]+` only."""
    if token.isascii() and (token.isdigit() or token[:1] == "-" and token[1:].isdigit()):
        return int(token)
    raise ValueError(f"invalid literal for int() with base 10: {token!r}")


def parse_graph_lines_by_tokens(lines: list[str]) -> tuple[Graph, list[str]]:
    """Parse the edge-list section; returns the graph and leftover lines."""
    if not lines:
        raise ValueError("empty graph document")
    head = lines[0].split()
    if len(head) != 2:
        raise ValueError(f"expected 'n m' header, got {lines[0]!r}")
    n, m = _int_token_by_check(head[0]), _int_token_by_check(head[1])
    if n > MAX_VERTICES:
        raise ValueError(f"vertex count {n} exceeds the limit of {MAX_VERTICES}")
    if n < 0:
        raise ValueError("vertex count must be non-negative")
    if not 0 <= m <= MAX_EDGES:
        raise ValueError(f"edge count {m} outside 0..{MAX_EDGES}")
    pairs = []
    for line in lines[1 : 1 + m]:
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"malformed edge line {line!r}")
        pairs.append((_int_token_by_check(parts[0]), _int_token_by_check(parts[1])))
    if len(pairs) != m:
        raise ValueError(f"expected {m} edge lines, found {len(pairs)}")
    rest = lines[1 + m :]
    labels: dict[int, str] = {}
    leftover = []
    for line in rest:
        parts = line.split()
        if parts[0] == "label":
            if len(parts) != 3:
                raise ValueError(f"malformed label line {line!r}")
            v = _int_token_by_check(parts[1])
            if v in labels:
                raise ValueError(f"second label line for vertex {v}")
            labels[v] = parts[2]
        else:
            leftover.append(line)
    g = Graph(range(n), pairs, labels)
    if g.edge_count != m:
        raise ValueError(f"{m} edge lines name only {g.edge_count} distinct edges")
    return g, leftover


def load_graph_by_tokens(text: str) -> Graph:
    g, leftover = parse_graph_lines_by_tokens(_content_lines_by_loop(text))
    ignorable = all(line.split()[0] == "rot" for line in leftover)
    if leftover and not ignorable:
        raise ValueError(f"unexpected trailing line {leftover[0]!r}")
    return g


def load_embedding_by_tokens(text: str) -> PlaneEmbedding:
    g, leftover = parse_graph_lines_by_tokens(_content_lines_by_loop(text))
    rotation: dict[Vertex, list[Vertex]] = {}
    for line in leftover:
        parts = line.split()
        if parts[0] != "rot":
            raise ValueError(f"unexpected line {line!r} in embedding document")
        if len(parts) < 2 or not parts[1].endswith(":"):
            raise ValueError(f"malformed rotation line {line!r}")
        v = _int_token_by_check(parts[1][:-1])
        if v in rotation:
            raise ValueError(f"second rotation line for vertex {v}")
        rotation[v] = [_int_token_by_check(tok) for tok in parts[2:]]
    missing = [v for v in g.vertices if v not in rotation]
    if missing:
        raise ValueError(f"no rotation record for vertex {missing[0]}")
    return PlaneEmbedding(g, rotation)


# -- test-only helpers, as the package had them ------------------------------


def identify(g: Graph, u: Vertex, v: Vertex) -> Graph:
    """Merge v into u: neighborhoods union, loops dropped, parallels collapse.

    The merged vertex keeps u's identifier (and u's label, if any); v's
    label disappears with it.
    """
    if u == v:
        raise ValueError("cannot identify a vertex with itself")
    if u not in g:
        raise ValueError(f"vertex {u!r} not in graph")
    if v not in g:
        raise ValueError(f"vertex {v!r} not in graph")
    vertices = [w for w in g.vertices if w != v]
    edges = []
    for a, b in g.edges():
        a2 = u if a == v else a
        b2 = u if b == v else b
        if a2 != b2:
            edges.append((a2, b2))
    labels = {w: name for w, name in g.labels.items() if w != v}
    return Graph(vertices, edges, labels)


class BudgetExceededError(RuntimeError):
    """Raised where an exhaustive verdict was required but the budget ran out."""


def deletion_preserves(
    g: Graph, v: Vertex, spec: ColoringSpec | Iterable[int], *, budget: int
) -> bool:
    """True iff colorability of g - v implies colorability of g.

    A False answer exhibits v as witnessing vertex-criticality. Raises
    BudgetExceededError when either solve cannot reach a verdict.
    """
    reduced = solve(delete_vertex(g, v), spec, budget=budget)
    if reduced.exceeded_budget:
        raise BudgetExceededError("budget exhausted on the deleted-vertex subproblem")
    if reduced.is_unsat:
        return True
    whole = solve(g, spec, budget=budget)
    if whole.exceeded_budget:
        raise BudgetExceededError("budget exhausted on the full graph")
    return whole.is_sat


def decode_cnf_model(doc: CnfDocument, model: Iterable[int]) -> dict[Vertex, int]:
    """Read a coloring back off a satisfying assignment's positive literals."""
    true_vars = {lit for lit in model if lit > 0}
    coloring: dict[Vertex, int] = {}
    for (v, c), var in doc.var_map.items():
        if var in true_vars:
            if v in coloring:
                raise ValueError(f"model assigns two colors to vertex {v!r}")
            coloring[v] = c
    missing = [v for (v, _c) in doc.var_map if v not in coloring]
    if missing:
        raise ValueError(f"model leaves vertex {missing[0]!r} uncolored")
    return coloring
