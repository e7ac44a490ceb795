"""DIMACS CNF export for constrained defective colorings.

Variable layout: x(v, c) = index(v) * k + c for colors c in 1..k, so the
color variables occupy 1..n*k and auxiliary counter variables follow.
Per vertex and color, the bound "at most d same-colored neighbors" is a
sequential-counter cardinality chain over the neighbor variables, enforced
only when x(v, c) is true. Satisfying assignments project one-to-one onto
the valid constrained colorings via the color variables.
"""

from __future__ import annotations

from typing import Iterable

from .coloring import ColoringSpec, ConstraintSet, as_spec, _validate_constraints
from .graphs import Graph, Vertex
from .record import Record

CNF_HEADER = "c defcol-cnf v1"


class CnfDocument(Record):
    """A CNF instance; mutable, and so unhashable. `comments` is a new empty
    list when omitted."""

    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None

    def __init__(self, num_vars: int, clauses: list[tuple[int, ...]],
                 var_map: dict[tuple[Vertex, int], int], comments: list[str] | None = None):
        if comments is None:
            comments = []
        self._set(locals())

    def to_dimacs(self) -> str:
        """DIMACS text: the header, the comments, the `p cnf` line, then one
        line per clause, its literals and a closing 0 separated by spaces.

        Each clause goes through one `%d` template per width, so clauses
        must be tuples of ints, as `export_cnf` makes them (`%d` writes
        True as 1). An empty clause is written " 0".
        """
        clauses = self.clauses
        widest = max(map(len, clauses), default=0)
        formats = [" 0"] + ["%d " * w + "0" for w in range(1, widest + 1)]
        lines = [CNF_HEADER, *self.comments, f"p cnf {self.num_vars} {len(clauses)}"]
        lines += [formats[len(clause)] % clause for clause in clauses]
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

    n = g.vertex_count
    colors = range(1, k + 1)
    var_map = {(v, c): i * k + c for i, v in enumerate(g.vertices) for c in colors}
    next_var = n * k
    clauses: list[tuple[int, ...]] = []
    comments = [f"c x {i * k + c} : vertex {i} color {c}" for i in range(n) for c in colors]

    pairs = [(a, b) for a in colors for b in range(a + 1, k + 1)]
    for base in range(0, n * k, k):
        clauses.append(tuple(range(base + 1, base + k + 1)))
        clauses += [(-base - a, -base - b) for a, b in pairs]

    for v, c in cons.forced.items():
        clauses.append((var_map[(v, c)],))
    for v, cs in cons.forbidden.items():
        for c in sorted(cs):
            clauses.append((-var_map[(v, c)],))

    defects = spec.defects
    for i, around in enumerate(g.adjacency):
        m = len(around)
        for c in colors:
            d = defects[c - 1]
            if m <= d:
                continue
            trigger = i * k + c
            ys = [u * k + c for u in around]
            if d == 0:
                clauses += [(-trigger, -y) for y in ys]
                continue
            # Sequential counter r(t, j) = base + t*d + j + 1, t < m-1, j < d:
            # among ys[0..t], at least j+1 true.
            base = next_var
            next_var += (m - 1) * d
            clauses.append((-ys[0], base + 1))
            clauses += [(-base - 1 - j,) for j in range(1, d)]
            for t in range(1, m - 1):
                r = base + t * d + 1  # r(t, 0); r(t - 1, d - 1) is r - 1
                p = r - d  # r(t - 1, 0)
                y = -ys[t]
                clauses.append((y, r))
                clauses.append((-p, r))
                for j in range(1, d):
                    clauses.append((y, 1 - p - j, r + j))
                    clauses.append((-p - j, r + j))
                clauses.append((-trigger, y, 1 - r))
            clauses.append((-trigger, -ys[m - 1], -next_var))

    return CnfDocument(next_var, clauses, var_map, comments)
