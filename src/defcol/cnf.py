"""DIMACS CNF export for constrained defective colorings.

Variable layout: x(v, c) = index(v) * k + c for colors c in 1..k, so the
color variables occupy 1..n*k and auxiliary counter variables follow.
Per vertex and color, the bound "at most d same-colored neighbors" is a
sequential-counter cardinality chain over the neighbor variables, enforced
only when x(v, c) is true. Satisfying assignments project one-to-one onto
the valid constrained colorings via the color variables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from .coloring import ColoringSpec, ConstraintSet, as_spec, _validate_constraints
from .graphs import Graph, Vertex

CNF_HEADER = "c defcol-cnf v1"


@dataclass
class CnfDocument:
    num_vars: int
    clauses: list[tuple[int, ...]]
    var_map: dict[tuple[Vertex, int], int]
    comments: list[str] = field(default_factory=list)

    def var_of(self, v: Vertex, c: int) -> int:
        return self.var_map[(v, c)]

    def to_dimacs(self) -> str:
        lines = [CNF_HEADER]
        lines.extend(self.comments)
        lines.append(f"p cnf {self.num_vars} {len(self.clauses)}")
        for clause in self.clauses:
            lines.append(" ".join(str(lit) for lit in clause) + " 0")
        return "\n".join(lines) + "\n"


def export_cnf(
    g: Graph,
    spec: ColoringSpec | Iterable[int],
    constraints: ConstraintSet | None = None,
) -> CnfDocument:
    """Encode the constrained coloring instance; requires k >= 2 colors."""
    spec = as_spec(spec)
    cons = constraints or ConstraintSet()
    _validate_constraints(g, spec, cons)
    k = spec.k
    if k < 2:
        raise ValueError("CNF export needs at least two color classes")

    verts = g.vertices
    idx = g.index_of
    var_map = {(v, c): idx(v) * k + c for v in verts for c in range(1, k + 1)}
    next_var = len(verts) * k
    clauses: list[tuple[int, ...]] = []
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

    return CnfDocument(next_var, clauses, var_map, comments)


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
