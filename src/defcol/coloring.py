"""Defective colorings: validity semantics, an exact backtracking solver with
defect-capacity propagation, an independent brute-force oracle, and the
extension / deletion checks used by the structural validators.

A coloring with defect vector (d1, ..., dk) assigns each vertex a color in
1..k so that a vertex of color i has at most d_i neighbors of the same
color. Unsat is only ever reported after exhaustive search; running out of
node budget is a distinct outcome.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from itertools import product
from typing import Iterable, Mapping

from .graphs import Graph, Vertex, delete_vertex

BRUTE_FORCE_CAP = 10**8

SAT = "sat"
UNSAT = "unsat"
BUDGET = "budget"


class BudgetExceededError(RuntimeError):
    """Raised where an exhaustive verdict was required but the budget ran out."""


@dataclass(frozen=True)
class ColoringSpec:
    """Defect bounds (d1, ..., dk), one per color class, k >= 1.

    The order is not normalized; callers that assume d1 <= d2 must sort.
    """

    defects: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "defects", tuple(int(d) for d in self.defects))
        if len(self.defects) < 1:
            raise ValueError("at least one color class is required")
        if any(d < 0 for d in self.defects):
            raise ValueError("defects must be non-negative")

    @property
    def k(self) -> int:
        return len(self.defects)


def as_spec(spec: ColoringSpec | Iterable[int]) -> ColoringSpec:
    if isinstance(spec, ColoringSpec):
        return spec
    return ColoringSpec(tuple(spec))


@dataclass(frozen=True)
class ConstraintSet:
    """Boundary conditions: colors forced on or forbidden to single vertices."""

    forced: Mapping[Vertex, int] = field(default_factory=dict)
    forbidden: Mapping[Vertex, frozenset[int]] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "forced", dict(self.forced))
        object.__setattr__(
            self, "forbidden", {v: frozenset(cs) for v, cs in self.forbidden.items()}
        )


@dataclass(frozen=True)
class SolveOutcome:
    """Result of a solve: sat with a total coloring, exhaustive unsat, or
    budget exhaustion with the node count reached."""

    status: str
    coloring: dict[Vertex, int] | None
    nodes: int

    @property
    def is_sat(self) -> bool:
        return self.status == SAT

    @property
    def is_unsat(self) -> bool:
        return self.status == UNSAT

    @property
    def exceeded_budget(self) -> bool:
        return self.status == BUDGET

    @classmethod
    def sat(cls, coloring: dict[Vertex, int], nodes: int) -> "SolveOutcome":
        return cls(SAT, coloring, nodes)

    @classmethod
    def unsat(cls, nodes: int) -> "SolveOutcome":
        return cls(UNSAT, None, nodes)

    @classmethod
    def budget(cls, nodes: int) -> "SolveOutcome":
        return cls(BUDGET, None, nodes)


def is_valid_coloring(
    g: Graph, spec: ColoringSpec | Iterable[int], coloring: Mapping[Vertex, int]
) -> bool:
    """True iff the total assignment keeps every vertex within its defect."""
    spec = as_spec(spec)
    defects = spec.defects
    k = spec.k
    for v in g.vertices:
        if v not in coloring:
            raise ValueError(f"partial assignment: vertex {v!r} is uncolored")
    for v, c in coloring.items():
        if v not in g:
            raise ValueError(f"assignment colors unknown vertex {v!r}")
        if not (1 <= c <= k):
            raise ValueError(f"color {c} out of range 1..{k}")
    for v in g.vertices:
        c = coloring[v]
        same = sum(1 for u in g.neighbors(v) if coloring[u] == c)
        if same > defects[c - 1]:
            return False
    return True


def _validate_constraints(g: Graph, spec: ColoringSpec, cons: ConstraintSet) -> None:
    k = spec.k
    for v, c in cons.forced.items():
        if v not in g:
            raise ValueError(f"forced constraint on unknown vertex {v!r}")
        if not (1 <= c <= k):
            raise ValueError(f"forced color {c} out of range 1..{k}")
    for v, cs in cons.forbidden.items():
        if v not in g:
            raise ValueError(f"forbidden constraint on unknown vertex {v!r}")
        for c in cs:
            if not (1 <= c <= k):
                raise ValueError(f"forbidden color {c} out of range 1..{k}")
    for v, c in cons.forced.items():
        if c in cons.forbidden.get(v, frozenset()):
            raise ValueError(f"vertex {v!r} has its forced color forbidden")


def solve(
    g: Graph,
    spec: ColoringSpec | Iterable[int],
    constraints: ConstraintSet | None = None,
    *,
    budget: int,
) -> SolveOutcome:
    """Exact search for a constrained defective coloring.

    Deterministic: branches on the most-constrained vertex (fewest allowed
    colors, then highest degree, then vertex order) and tries colors in
    ascending order. Each colored vertex tracks its remaining same-color
    slack; a zeroed slack forbids that color on the uncolored neighborhood,
    which is the propagation that carries the search. Decisions live on an
    explicit stack over an undo trail, so depth is bounded by memory, not
    by the interpreter's recursion limit.

    `budget` caps the number of branching decisions; exceeding it yields a
    distinct outcome, never a fabricated Unsat.
    """
    spec = as_spec(spec)
    cons = constraints or ConstraintSet()
    _validate_constraints(g, spec, cons)
    if budget <= 0:
        raise ValueError("budget must be positive")

    defects = spec.defects
    k = spec.k
    verts = g.vertices
    n = len(verts)
    vindex = {v: i for i, v in enumerate(verts)}
    adj = [tuple(sorted(vindex[w] for w in g.neighbors(v))) for v in verts]
    # Static branching order: highest degree first, then vertex order.
    order = sorted(range(n), key=lambda i: (-len(adj[i]), i))

    full_mask = (1 << k) - 1
    allowed = [full_mask] * n
    for v, cs in cons.forbidden.items():
        m = allowed[vindex[v]]
        for c in cs:
            m &= ~(1 << (c - 1))
        allowed[vindex[v]] = m

    color = [0] * n
    ncc = [0] * (n * k)  # colored-neighbor counts, flattened [v * k + (c-1)]
    slack = [0] * n
    trail: list[tuple[int, int, int]] = []

    def forbid(x: int, c: int, queue: deque) -> bool:
        bit = 1 << (c - 1)
        m = allowed[x]
        if not (m & bit):
            return True
        trail.append((1, x, m))
        m &= ~bit
        allowed[x] = m
        if m == 0:
            return False
        if m & (m - 1) == 0:
            queue.append((x, m.bit_length()))
        return True

    def assign(x: int, c: int, queue: deque) -> bool:
        ci = c - 1
        trail.append((0, x, 0))
        color[x] = c
        slack[x] = defects[ci] - ncc[x * k + ci]
        for y in adj[x]:
            cy = color[y]
            if cy == c:
                slack[y] -= 1
                trail.append((2, y, 0))
                if slack[y] == 0:
                    for z in adj[y]:
                        if color[z] == 0 and not forbid(z, c, queue):
                            return False
            elif cy == 0:
                ncc[y * k + ci] += 1
                trail.append((3, y, ci))
                if ncc[y * k + ci] == defects[ci] + 1 and not forbid(y, c, queue):
                    return False
        if slack[x] == 0:
            for y in adj[x]:
                if color[y] == 0 and not forbid(y, c, queue):
                    return False
        return True

    def propagate(queue: deque) -> bool:
        while queue:
            x, c = queue.popleft()
            if color[x] != 0:
                continue
            if not (allowed[x] >> (c - 1)) & 1:
                return False
            if not assign(x, c, queue):
                return False
        return True

    def undo(mark: int) -> None:
        while len(trail) > mark:
            tag, x, payload = trail.pop()
            if tag == 0:
                color[x] = 0
            elif tag == 1:
                allowed[x] = payload
            elif tag == 2:
                slack[x] += 1
            else:
                ncc[x * k + payload] -= 1

    def search() -> tuple[str, int]:
        # One frame per open decision: [vertex, untried color mask, trail
        # mark, scan start]. Every vertex before the scan start in `order`
        # is colored, so the start only advances while the search descends,
        # and a frame restores its own on return.
        stack: list[list[int]] = []
        nodes = 0
        start = 0
        while True:
            while start < n and color[order[start]]:
                start += 1
            if start == n:
                return SAT, nodes
            # Propagation has colored every vertex down to one allowed color,
            # so the first uncolored vertex with two is a minimum.
            best = order[start]
            fewest = allowed[best].bit_count()
            p = start + 1
            while fewest > 2 and p < n:
                i = order[p]
                if color[i] == 0:
                    count = allowed[i].bit_count()
                    if count < fewest:
                        best, fewest = i, count
                p += 1
            stack.append([best, allowed[best], len(trail), start])
            while stack:
                frame = stack[-1]
                x, m, mark, start = frame
                undo(mark)
                if not m:
                    stack.pop()
                    continue
                nodes += 1
                if nodes > budget:
                    return BUDGET, nodes
                bit = m & -m  # colors are tried in ascending order
                frame[1] = m ^ bit
                queue: deque = deque()
                if assign(x, bit.bit_length(), queue) and propagate(queue):
                    break
            else:
                return UNSAT, nodes

    # Seed: forced colors, then vertices already down to one allowed color.
    queue: deque = deque()
    for v, c in cons.forced.items():
        queue.append((vindex[v], c))
    for i in range(n):
        m = allowed[i]
        if m == 0:
            return SolveOutcome.unsat(0)
        if m & (m - 1) == 0:
            queue.append((i, m.bit_length()))
    if not propagate(queue):
        return SolveOutcome.unsat(0)

    result, nodes = search()
    if result == SAT:
        return SolveOutcome.sat({verts[i]: color[i] for i in range(n)}, nodes)
    if result == UNSAT:
        return SolveOutcome.unsat(nodes)
    return SolveOutcome.budget(nodes)


def brute_force_oracle(
    g: Graph,
    spec: ColoringSpec | Iterable[int],
    constraints: ConstraintSet | None = None,
) -> SolveOutcome:
    """Exhaustive enumeration over all total assignments; the reference
    implementation the solver is audited against.

    Refuses instances with k**|V| above the hard cap. `nodes` reports the
    number of assignments examined.
    """
    spec = as_spec(spec)
    cons = constraints or ConstraintSet()
    _validate_constraints(g, spec, cons)

    verts = g.vertices
    n = len(verts)
    k = spec.k
    defects = spec.defects
    if k**n > BRUTE_FORCE_CAP:
        raise ValueError(f"instance exceeds brute-force cap: {k}**{n} > {BRUTE_FORCE_CAP}")

    choices = []
    for v in verts:
        if v in cons.forced:
            choices.append((cons.forced[v],))
        else:
            blocked = cons.forbidden.get(v, frozenset())
            choices.append(tuple(c for c in range(1, k + 1) if c not in blocked))
    adj = [tuple(g.index_of(w) for w in g.ordered_neighbors(v)) for v in verts]

    examined = 0
    for assignment in product(*choices):
        examined += 1
        ok = True
        for i in range(n):
            c = assignment[i]
            same = 0
            for j in adj[i]:
                if assignment[j] == c:
                    same += 1
            if same > defects[c - 1]:
                ok = False
                break
        if ok:
            return SolveOutcome.sat(dict(zip(verts, assignment)), examined)
    return SolveOutcome.unsat(examined)


def always_extends(g: Graph, v: Vertex, spec: ColoringSpec | Iterable[int]) -> bool:
    """True iff every valid coloring of g - v extends to v.

    Pure extension only: an extension must keep v within its defect and must
    not push any already-colored neighbor over its own bound.
    """
    spec = as_spec(spec)
    if v not in g:
        raise ValueError(f"vertex {v!r} not in graph")
    rest = delete_vertex(g, v)
    k = spec.k
    if k ** len(rest) > BRUTE_FORCE_CAP:
        raise ValueError("instance exceeds brute-force cap")

    rest_verts = rest.vertices
    for assignment in product(range(1, k + 1), repeat=len(rest_verts)):
        cmap = dict(zip(rest_verts, assignment))
        if not is_valid_coloring(rest, spec, cmap):
            continue
        if not any(
            is_valid_coloring(g, spec, {**cmap, v: c}) for c in range(1, k + 1)
        ):
            return False
    return True


def deletion_preserves(
    g: Graph, v: Vertex, spec: ColoringSpec | Iterable[int], *, budget: int
) -> bool:
    """True iff colorability of g - v implies colorability of g.

    A False answer exhibits v as witnessing vertex-criticality. Raises
    BudgetExceededError when either solve cannot reach a verdict.
    """
    if v not in g:
        raise ValueError(f"vertex {v!r} not in graph")
    reduced = solve(delete_vertex(g, v), spec, budget=budget)
    if reduced.exceeded_budget:
        raise BudgetExceededError("budget exhausted on the deleted-vertex subproblem")
    if reduced.is_unsat:
        return True
    whole = solve(g, spec, budget=budget)
    if whole.exceeded_budget:
        raise BudgetExceededError("budget exhausted on the full graph")
    return whole.is_sat
