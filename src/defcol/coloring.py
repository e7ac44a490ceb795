"""Defective colorings: validity semantics, an exact backtracking solver with
defect-capacity propagation, an independent brute-force oracle, and a check
on one vertex v: whether every coloring of g - v extends to v.

A coloring with defect vector (d1, ..., dk) assigns each vertex a color in
1..k so that a vertex of color i has at most d_i neighbors of the same
color. Unsat is only ever reported after exhaustive search; running out of
node budget is a distinct outcome.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from itertools import groupby, product
from typing import Iterable, Mapping

from .graphs import Graph, Vertex, delete_vertex

BRUTE_FORCE_CAP = 10**8

SAT = "sat"
UNSAT = "unsat"
BUDGET = "budget"

# Most budget vectors a closed piece's profile may range over; a piece that
# would need more stays on the main line, which is always sound. A profile
# costs up to this many exhaustive sub-searches of the piece. The hub
# gadget's linked-triangle copies, the piece the paper's constructions
# repeat, need 9 (two attachments, demand 2 each). Above 16 the pieces of
# non_1k(k) and np_reduce are single large blocks: np_reduce(non_1k(1), 2)
# has a 117-vertex piece with 19 budgets that all fail, which took most of
# the solve's time when it was profiled.
PROFILE_MAX_BUDGETS = 16


class _BudgetStop(Exception):
    """Unwinds every open search of `solve` once the decision budget runs out."""


@dataclass(frozen=True)
class ColoringSpec:
    """Defect bounds (d1, ..., dk), one per color class, k >= 1.

    The order is not normalized; callers that assume d1 <= d2 must sort.
    """

    defects: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "defects", tuple(self.defects))
        for d in self.defects:
            if type(d) is not int:
                raise ValueError(f"defect {d!r} is not an int")
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
    # Search statistics from `solve`: decisions (equal to nodes),
    # pieces_closed, cache_hits, cache_misses, max_nesting, split_visits
    # (vertices the piece searches reached beyond their seeds), pick_scans
    # (vertices the branching picks examined: the static-order scan, and
    # the entries of `lost` read with three or more colors) and
    # knapsack_sums (the candidate totals the knapsacks formed).
    stats: Mapping[str, int] = field(default_factory=dict)

    @property
    def is_sat(self) -> bool:
        return self.status == SAT

    @property
    def is_unsat(self) -> bool:
        return self.status == UNSAT

    @property
    def exceeded_budget(self) -> bool:
        return self.status == BUDGET


def is_valid_coloring(
    g: Graph, spec: ColoringSpec | Iterable[int], coloring: Mapping[Vertex, int]
) -> bool:
    """True iff the total assignment keeps every vertex within its defect."""
    spec = as_spec(spec)
    k = spec.k
    for v in g.vertices:
        if v not in coloring:
            raise ValueError(f"partial assignment: vertex {v!r} is uncolored")
    for v, c in coloring.items():
        if v not in g:
            raise ValueError(f"assignment colors unknown vertex {v!r}")
        if type(c) is not int:
            raise ValueError(f"color {c!r} is not an int")
        if not (1 <= c <= k):
            raise ValueError(f"color {c} out of range 1..{k}")
    colors = tuple(coloring[v] for v in g.vertices)
    return _within_defects(g.adjacency, spec.defects, colors)


def _within_defects(
    adj: tuple[tuple[int, ...], ...], defects: tuple[int, ...], colors: tuple[int, ...]
) -> bool:
    """True iff every vertex index i has at most defects[colors[i] - 1]
    neighbors of its own color. The brute-force checks share this rule;
    `solve` keeps its own, so solver/oracle agreement stays independent."""
    for i, nbrs in enumerate(adj):
        c = colors[i]
        same = 0
        for j in nbrs:
            if colors[j] == c:
                same += 1
        if same > defects[c - 1]:
            return False
    return True


def _validate_constraints(g: Graph, spec: ColoringSpec, cons: ConstraintSet) -> None:
    k = spec.k
    for v, c in cons.forced.items():
        if v not in g:
            raise ValueError(f"forced constraint on unknown vertex {v!r}")
        if type(c) is not int:
            raise ValueError(f"forced color {c!r} is not an int")
        if not (1 <= c <= k):
            raise ValueError(f"forced color {c} out of range 1..{k}")
    for v, cs in cons.forbidden.items():
        if v not in g:
            raise ValueError(f"forbidden constraint on unknown vertex {v!r}")
        for c in cs:
            if type(c) is not int:
                raise ValueError(f"forbidden color {c!r} is not an int")
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
    explicit stack over an undo trail.

    After every decision and its propagation that touched two or more
    uncolored vertices, the search checks whether the uncolored vertices
    around the newly colored ones fell apart into *pieces*. A lone vertex
    whose neighbors are all colored takes a color none of them has, if
    there is one. Of the other pieces the largest stays on the main line;
    every other piece is closed off. A piece touches the rest of the graph
    only through its colored neighbors, its *attachments*. An attachment
    is *binding* when it borders two or more pieces that can take its
    color and has less slack than their combined demand for it.

    Each closed piece's *profile* is computed: the Pareto-minimal budgets
    of slack on its binding attachments under which an exhaustive
    sub-search confined to the piece succeeds, each with its witness
    coloring. A piece with no binding attachment has one budget, the empty
    one. Profiles are cached by the piece's complete local instance: its
    shape (adjacency numbered by position, interned once per tuple of
    vertices), its allowed colors and its attachments' colors and slack, so
    interchangeable copies are searched once. A piece that needs none of the
    contested slack is placed at once. A knapsack over the attachments'
    slack folds the other profiles, a run of identical copies at a time,
    into the Pareto-minimal reservations; the main line branches over them,
    and each choice reserves its slack and places its witnesses.

    A closed piece is never larger than the piece that continues, so
    sub-searches nest at most log2(n) deep.

    `budget`, an int of at least 1, caps the number of decisions, summed
    over the main line and every sub-search; a cached profile costs none,
    and choosing among two or more reservations counts as a decision.
    Exceeding the budget anywhere yields a distinct outcome, never a
    fabricated Unsat.
    """
    spec = as_spec(spec)
    cons = constraints or ConstraintSet()
    _validate_constraints(g, spec, cons)
    if type(budget) is not int:
        raise ValueError(f"budget {budget!r} is not an int")
    if budget <= 0:
        raise ValueError("budget must be positive")

    defects = spec.defects
    k = spec.k
    verts = g.vertices
    n = len(verts)
    index = g.index_of
    adj = g.adjacency
    # Static branching order: highest degree first, then vertex order (the
    # sort is stable).
    order = sorted(range(n), key=[-len(a) for a in adj].__getitem__)
    rank = [0] * n
    for p, i in enumerate(order):
        rank[i] = p

    full_mask = (1 << k) - 1
    allowed = [full_mask] * n
    for v, cs in cons.forbidden.items():
        m = allowed[index(v)]
        for c in cs:
            m &= ~(1 << (c - 1))
        allowed[index(v)] = m

    color = [0] * n
    ncc = [0] * (n * k)  # colored-neighbor counts, flattened [v * k + (c-1)]
    slack = [0] * n
    owner = [0] * n  # scope: the search that may color an uncolored vertex
    # Every state change is logged as (array, index, old value) for undo(),
    # except a push onto `lost`, logged as (lost, None, None).
    trail: list[tuple[list, int | None, int | None]] = []
    # Uncolored vertices that lost a color yet kept two or more, in the
    # order they lost it: the only candidates a pick must look at besides
    # the first uncolored vertex of the static order.
    lost: list[int] = []
    stamp = [0] * n  # split(): the epoch that last reached a vertex
    reached_by = [0] * n  # split(): the search that reached it
    cache: dict[tuple, list] = {}
    shapes: dict[tuple[int, ...], int] = {}  # profile(): a piece's vertices -> its shape id
    shape_ids: dict[tuple, int] = {}  # profile(): a piece's adjacency -> its shape id
    nodes = closed = hits = misses = nesting = scopes = epoch = visits = scans = sums = 0
    # Colored-neighbor counts raised since the current decision began: with
    # fewer than two, nothing can have fallen apart and split() is skipped.
    fresh = 0

    def forbid(x: int, c: int, queue: deque) -> bool:
        bit = 1 << (c - 1)
        m = allowed[x]
        if not (m & bit):
            return True
        left = m & ~bit
        allowed[x] = left
        trail.append((allowed, x, m))
        if left & (left - 1):
            lost.append(x)
            trail.append((lost, None, None))
            return True
        if left == 0:
            return False
        queue.append((x, left.bit_length()))
        return True

    def assign(x: int, c: int, queue: deque) -> bool:
        nonlocal fresh
        ci = c - 1
        trail.append((color, x, 0))
        color[x] = c
        slack[x] = defects[ci] - ncc[x * k + ci]
        cap = defects[ci] + 1
        sid = owner[x]
        for y in adj[x]:
            cy = color[y]
            if cy == c:
                # y may border other scopes; their share of its slack is
                # reserved, so propagation stays in x's scope.
                if not restrict(y, slack[y] - 1, sid, queue):
                    return False
            elif cy == 0:
                fresh += 1
                j = y * k + ci
                trail.append((ncc, j, ncc[j]))
                ncc[j] += 1
                if ncc[j] == cap and not forbid(y, c, queue):
                    return False
        # x's uncolored neighbors share its scope.
        return slack[x] > 0 or restrict(x, 0, sid, queue)

    def restrict(y: int, left: int, sid: int, queue: deque) -> bool:
        """Set a colored vertex's slack to what is left of it; at zero its
        color is forbidden on its uncolored neighbors in scope sid."""
        trail.append((slack, y, slack[y]))
        slack[y] = left
        if left == 0:
            c = color[y]
            for z in adj[y]:
                if color[z] == 0 and owner[z] == sid and not forbid(z, c, queue):
                    return False
        return True

    def place(piece: list[int], witness: tuple[int, ...]) -> None:
        """Color a closed piece with a witness from its profile. Its
        attachments' slack is not charged: the witness fits within the
        slack reserved for it or left to it."""
        for x, c in zip(piece, witness):
            trail.append((color, x, 0))
            color[x] = c

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
        for array, i, old in reversed(trail[mark:]):
            if array is lost:
                lost.pop()
            else:
                array[i] = old
        del trail[mark:]

    def split(sid: int, mark: int) -> list[list[int]]:
        """The pieces, other than the largest, that the uncolored vertices
        of scope sid fell into around the vertices assigned since mark,
        each in branching order; empty when nothing fell apart.

        One BFS starts from each uncolored neighbor of those vertices that
        has an uncolored neighbor itself; one whose first uncolored
        neighbor is an earlier seed joins that seed's search instead. The
        others are pieces of one vertex; one that has a color none of
        its neighbors has takes it at once and is not returned. The
        searches advance a vertex at a time in turn, and two groups of
        searches merge when they meet, until one group is left, or one is
        still growing and has outgrown every finished one. A finished group
        has traced a whole piece, so no search expands more vertices than
        the largest piece returned, whatever the size of the scope.
        """
        nonlocal epoch, visits, closed
        epoch += 1
        e = epoch
        seeds = []
        # Assigning a vertex raised the colored-neighbor count of each of
        # its uncolored neighbors, which share its scope.
        for array, j, _ in trail[mark:]:
            if array is ncc:
                y = j // k
                if stamp[y] != e and not color[y]:
                    stamp[y] = e
                    reached_by[y] = -1
                    seeds.append(y)
        if len(seeds) < 2:
            return ()
        queues: list[list[int]] = []
        pieces: list[list[int]] = []  # seeds with every neighbor colored, no color free
        for y in seeds:
            for z in adj[y]:
                if not color[z]:
                    if stamp[z] == e and reached_by[z] >= 0:
                        r = reached_by[z]  # an adjacent seed: one search serves both
                        queues[r].append(y)
                    else:
                        r = len(queues)
                        queues.append([y])
                    reached_by[y] = r
                    break
            else:
                # Every neighbor is colored: a color none of them has costs
                # nobody slack, so it is taken now.
                free = allowed[y]
                for z in adj[y]:
                    free &= ~(1 << (color[z] - 1))
                if free:
                    closed += 1
                    place((y,), ((free & -free).bit_length(),))
                else:
                    pieces.append([y])
        count = len(queues)
        if count < 2:
            # A seed with an uncolored neighbor outgrows every lone one.
            return pieces[count == 0:]
        heads = [0] * count
        gid = list(range(count))  # search -> its group
        members = [[s] for s in gid]  # group -> its searches
        busy = [1] * count  # group -> its searches still growing
        groups = growing = count
        active = gid[:]
        reached = 0  # vertices the searches added
        need = -1  # once at most one group grows: its size target
        while True:
            still = []
            for s in active:
                g = gid[s]
                q = queues[s]
                h = heads[s]
                for y in adj[q[h]]:
                    if stamp[y] != e:
                        if not color[y]:
                            stamp[y] = e
                            reached_by[y] = s
                            q.append(y)
                            reached += 1
                    elif gid[reached_by[y]] != g:
                        # A finished group is a whole piece, so both still grow.
                        a, b = g, gid[reached_by[y]]
                        if len(members[a]) < len(members[b]):
                            a, b = b, a
                        for t in members[b]:
                            gid[t] = a
                        members[a] += members[b]
                        busy[a] += busy[b]
                        groups -= 1
                        if groups == 1:
                            visits += reached
                            return pieces
                        growing -= 1
                        g = a
                heads[s] = h + 1
                if h + 1 < len(q):
                    still.append(s)
                else:
                    busy[g] -= 1
                    if not busy[g]:
                        growing -= 1
            active = still
            if growing < 2:
                if need < 0:
                    # Nothing can meet the one group still growing, if any;
                    # it grows on until it is the largest.
                    size: dict[int, int] = {}
                    for s in range(count):
                        size[gid[s]] = size.get(gid[s], 0) + len(queues[s])
                    live = gid[active[0]] if active else max(size, key=size.__getitem__)
                    need = max([m for g, m in size.items() if g != live]) + reached - size[live]
                if not active or reached >= need:
                    break
        visits += reached
        return pieces + [sorted([y for s in members[g] for y in queues[s]], key=rank.__getitem__)
                         for g in size if g != live]

    def close(sid: int, pieces: list[list[int]], depth: int):
        """Close off split()'s pieces. Returns None when none is left
        pending, False on a conflict, else (attachments, reservations)."""
        nonlocal closed, sums
        demand: dict[int, int] = {}
        plans = []
        for piece in pieces:
            atts: dict[int, int] = {}  # attachment -> the piece's demand for its color
            for x in piece:
                m = allowed[x]
                for y in adj[x]:
                    c = color[y]
                    if c:
                        atts[y] = atts.get(y, 0) + ((m >> (c - 1)) & 1)
            binding = []
            box = 1
            for y, d in atts.items():
                if not d or slack[y] >= len(adj[y]):
                    continue
                total = demand.get(y)
                if total is None:
                    bit = 1 << (color[y] - 1)
                    total = demand[y] = sum(
                        1 for z in adj[y] if not color[z] and owner[z] == sid and allowed[z] & bit
                    )
                if d < total and slack[y] < total:
                    binding.append(y)
                    box *= d + 1
            # A piece with too many budgets to try stays on the main line.
            if box <= PROFILE_MAX_BUDGETS:
                plans.append((piece, atts, binding))
        closed += len(plans)
        pending = []
        for piece, atts, binding in plans:
            entries = profile(sid, piece, atts, binding, depth + 1)
            if not entries:
                return False
            if any(entries[0][0]):
                if owner[piece[0]] == sid:
                    rescope(sid, piece)  # the main line must leave it alone
                pending.append((binding, entries, piece))
            else:
                # It needs none of the contested slack: place it now.
                place(piece, entries[0][1])
        outcome, formed = _knapsack(pending, slack) if pending else (None, 0)
        sums += formed
        return outcome

    def rescope(sid: int, piece: list[int]) -> int:
        """Move a piece from scope sid to a new scope of its own."""
        nonlocal scopes
        scopes += 1
        for x in piece:
            trail.append((owner, x, owner[x]))
            owner[x] = scopes
        return scopes

    def profile(sid: int, piece: list[int], atts: dict[int, int], binding: list[int],
                depth: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
        """Pareto-minimal budget vectors over a piece's binding attachments
        under which it has a coloring, each with that coloring. A piece
        whose profile is computed moves to a scope of its own."""
        nonlocal hits, misses
        # A piece is a whole uncolored component, so its attachments are
        # exactly N(piece) - piece: the vertex tuple fixes them, their order
        # in atts and the piece's adjacency over both, numbered by position.
        verts = tuple(piece)
        shape = shapes.get(verts)
        if shape is None:
            pos = {y: -1 - j for j, y in enumerate(atts)}
            pos.update((x, i) for i, x in enumerate(piece))
            adjacency = tuple([tuple([pos[y] for y in adj[x]]) for x in piece])
            shape = shapes[verts] = shape_ids.setdefault(adjacency, len(shape_ids))
        tied = set(binding) if binding else ()
        # Equal keys mean equal local instances under the positional map,
        # and a binding budget never exceeds the piece's own demand.
        key = (
            shape,
            tuple(map(allowed.__getitem__, piece)),
            tuple([(color[y], -1 if y in tied else min(slack[y], d)) for y, d in atts.items()]),
        )
        entries = cache.get(key)
        if entries is not None:
            hits += 1
            return entries
        misses += 1
        psid = rescope(sid, piece)
        entries = []
        budgets = product(*(range(atts[y] + 1) for y in binding))
        # By increasing total, a success consumes exactly its budget: any
        # smaller feasible vector was tried first and would dominate it.
        for vec in sorted(budgets, key=lambda v: (sum(v), v)):
            if any(all(a <= b for a, b in zip(found, vec)) for found, _ in entries):
                continue
            mark = len(trail)
            queue: deque = deque()
            if (all(restrict(y, b, psid, queue) for y, b in zip(binding, vec))
                    and propagate(queue) and search(psid, piece, mark, depth)):
                entries.append((vec, tuple(color[x] for x in piece)))
            undo(mark)
        cache[key] = entries
        return entries

    def search(sid: int, scope: list[int], mark: int, depth: int) -> bool:
        """Color every vertex of scope sid; `scope` lists them in branching
        order. True leaves the coloring on the trail, False means there is
        none; either way the caller undoes to its own mark."""
        nonlocal nodes, nesting, fresh, scans
        fresh = len(trail) - mark  # bounds the caller's raised counts
        nesting = max(nesting, depth)
        lp = len(lost)
        for x in scope:
            m = allowed[x]
            if m != full_mask and m & (m - 1) and not color[x]:
                lost.append(x)
                trail.append((lost, None, None))
        # One frame per open choice: [vertex or (attachments, reservations),
        # untried colors or next reservation, trail mark, scan start, lost
        # start]. Every vertex before a scan start is colored or in another
        # scope, and stays so while the search descends.
        stack: list[list] = []
        start = 0
        size = len(scope)
        queue: deque = deque()
        while True:
            pieces = split(sid, mark) if fresh > 1 else ()
            outcome = close(sid, pieces, depth) if pieces else None
            if outcome is None:
                first = start
                while start < size and (color[scope[start]] or owner[scope[start]] != sid):
                    start += 1
                if start == size:
                    return True
                scans += start - first + 1
                best = scope[start]
                fewest = allowed[best].bit_count()
                if fewest > 2:
                    # Only a vertex that lost a color can have fewer than
                    # the first uncolored one.
                    scans += len(lost) - lp
                    while lp < len(lost) and (color[lost[lp]] or owner[lost[lp]] != sid):
                        lp += 1
                    best_rank = rank[best]
                    for i in range(lp, len(lost)):
                        x = lost[i]
                        if color[x] or owner[x] != sid:
                            continue
                        count = allowed[x].bit_count()
                        if count < fewest or (count == fewest and rank[x] < best_rank):
                            best, fewest, best_rank = x, count, rank[x]
                stack.append([best, allowed[best], len(trail), start, lp])
            elif outcome:
                stack.append([outcome, 0, len(trail), start, lp])
            while stack:
                frame = stack[-1]
                what, untried, mark, start, lp = frame
                if len(trail) > mark:
                    undo(mark)
                queue.clear()
                fresh = 0
                if type(what) is int:
                    if not untried:
                        stack.pop()
                        continue
                    nodes += 1
                    if nodes > budget:
                        raise _BudgetStop
                    bit = untried & -untried  # colors are tried in ascending order
                    frame[1] = untried ^ bit
                    ok = assign(what, bit.bit_length(), queue)
                else:
                    atts, reservations = what
                    if untried == len(reservations):
                        stack.pop()
                        continue
                    if len(reservations) > 1:
                        nodes += 1
                        if nodes > budget:
                            raise _BudgetStop
                    frame[1] = untried + 1
                    reserved, chain = reservations[untried]
                    ok = all(restrict(y, slack[y] - r, sid, queue)
                             for y, r in zip(atts, reserved) if r)
                    # The pending pieces touch only colored attachments and
                    # live in scopes of their own, so the main line never
                    # reads their colors.
                    while chain:
                        chain, piece, witness = chain
                        place(piece, witness)
                if ok and propagate(queue):
                    break
            else:
                return False

    # Seed: forced colors, then vertices already down to one allowed color.
    queue: deque = deque((index(v), c) for v, c in cons.forced.items())
    queue.extend((i, m.bit_length()) for i, m in enumerate(allowed) if m and not m & (m - 1))
    try:
        if 0 in allowed or not propagate(queue):
            result = UNSAT
        else:
            result = SAT if search(0, order, 0, 0) else UNSAT
    except _BudgetStop:
        result = BUDGET
    finally:
        # search, close and profile call each other, so their closures form
        # a cycle; breaking it lets reference counting free the solver state
        # now instead of leaving it to the cyclic garbage collector.
        search = close = profile = None
    stats = {
        "decisions": nodes,
        "pieces_closed": closed,
        "cache_hits": hits,
        "cache_misses": misses,
        "max_nesting": nesting,
        "split_visits": visits,
        "pick_scans": scans,
        "knapsack_sums": sums,
    }
    coloring = {verts[i]: color[i] for i in range(n)} if result == SAT else None
    return SolveOutcome(result, coloring, nodes, stats)


def _knapsack(pending, room):
    """Pareto-minimal slack reservations, cheapest first, for the (binding
    attachments, entries, piece) triples in `pending` within room[y] of each
    attachment y, and the count of candidate totals formed. A reservation's
    chain of (chain, vertices, colors) links places the lexicographically
    first entry sequence that reaches its total. A run of n pieces with equal
    binding and one list of one or two entries folds at once: the first c
    take the first entry and the rest the last, for c = n..0."""
    atts = list(dict.fromkeys(y for binding, _, _ in pending for y in binding))
    cap = [room[y] for y in atts]
    front: dict[tuple[int, ...], tuple | None] = {(0,) * len(atts): None}
    formed = i = 0
    while i < len(pending):
        binding, entries, _ = pending[i]
        j, options = i + 1, entries
        if len(entries) <= 2:
            while j < len(pending) and pending[j][1] is entries and pending[j][0] == binding:
                j += 1
            n = j - i
            (first, w1), (last, w2) = entries[0], entries[-1]
            options = [([c * a + (n - c) * b for a, b in zip(first, last)], w1 * c + w2 * (n - c))
                       for c in (range(n, -1, -1) if len(entries) == 2 else (n,))]
        run = [x for _, _, piece in pending[i:j] for x in piece]
        slots = [atts.index(y) for y in binding]
        grown: dict[tuple[int, ...], tuple] = {}
        for total, chain in front.items():
            for vec, colors in options:
                t = list(total)
                for s, v in zip(slots, vec):
                    t[s] += v
                if all(t[s] <= cap[s] for s in slots):
                    grown.setdefault(tuple(t), (chain, run, colors))
        formed += len(front) * len(options)
        # One total plus an antichain of options is an antichain. Otherwise
        # only a total with a smaller coordinate sum can lie below another.
        if len(front) > 1:
            kept: set[tuple[int, ...]] = set()
            for _, level in groupby(sorted(grown, key=sum), key=sum):
                kept |= {t for t in level if not any(all(a <= b for a, b in zip(o, t)) for o in kept)}
            grown = {t: chain for t, chain in grown.items() if t in kept}
        if not grown:
            return False, formed
        front, i = grown, j
    return (atts, sorted(front.items(), key=lambda item: (sum(item[0]), item[0]))), formed


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
    adj = g.adjacency

    examined = 0
    for assignment in product(*choices):
        examined += 1
        if _within_defects(adj, defects, assignment):
            return SolveOutcome(SAT, dict(zip(verts, assignment)), examined)
    return SolveOutcome(UNSAT, None, examined)


def always_extends(g: Graph, v: Vertex, spec: ColoringSpec | Iterable[int]) -> bool:
    """True iff every valid coloring of g - v extends to v.

    Pure extension only: an extension must keep v within its defect and must
    not push any already-colored neighbor over its own bound.
    """
    spec = as_spec(spec)
    rest = delete_vertex(g, v)
    k = spec.k
    if k ** len(rest) > BRUTE_FORCE_CAP:
        raise ValueError("instance exceeds brute-force cap")

    # rest keeps g's vertex order without v, so v's color splices in at p.
    p = g.index_of(v)
    adj, rest_adj, defects = g.adjacency, rest.adjacency, spec.defects
    colors = range(1, k + 1)
    for assignment in product(colors, repeat=len(rest)):
        if not _within_defects(rest_adj, defects, assignment):
            continue
        head, tail = assignment[:p], assignment[p:]
        if not any(_within_defects(adj, defects, head + (c,) + tail) for c in colors):
            return False
    return True
