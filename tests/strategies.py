"""Shared hypothesis strategies for random small graphs, embeddings and
rulesets."""

from __future__ import annotations

from fractions import Fraction

from hypothesis import strategies as st

from defcol import ConstraintSet, Graph, PlaneEmbedding, is_c4c5_free, make_graph
from defcol.discharging import (
    BAD2_INCIDENT,
    GOOD2_ADJACENT,
    THREE_FACE_INCIDENT,
    THREE_FACE_PENDANT,
    DischargeRuleSet,
    Rule,
)


@st.composite
def graphs(draw, min_n=1, max_n=7):
    n = draw(st.integers(min_n, max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    if pairs:
        edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
    else:
        edges = []
    return make_graph(n, edges)


@st.composite
def graphs_with_edge(draw, max_n=7):
    g = draw(graphs(min_n=2, max_n=max_n))
    edges = g.edges()
    if not edges:
        i = draw(st.integers(0, g.vertex_count - 2))
        return make_graph(g.vertex_count, [(i, i + 1)]), (i, i + 1)
    return g, draw(st.sampled_from(edges))


@st.composite
def connected_rotations(draw, max_n=7, c4c5_free=False):
    """A connected graph on 1..max_n vertices with a random cyclic order at
    every vertex; the rotation need not be planar.

    A random spanning tree keeps the graph connected, so bridges and cut
    vertices are common; each further drawn edge is kept, or with
    `c4c5_free` kept only when it closes no 4- or 5-cycle. In half the
    draws the vertex ids are opaque tuples listed in a shuffled order.
    """
    n = draw(st.integers(1, max_n))
    edges = {(draw(st.integers(0, b - 1)), b) for b in range(1, n)}
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n) if (a, b) not in edges]
    for pair in draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else ():
        if not c4c5_free or is_c4c5_free(make_graph(n, edges | {pair})):
            edges.add(pair)
    if draw(st.booleans()):
        g = make_graph(n, sorted(edges))
    else:
        ids = draw(st.permutations([("v", i) for i in range(n)]))
        g = Graph(ids, [(ids[a], ids[b]) for a, b in sorted(edges)])
    return PlaneEmbedding(g, {v: draw(st.permutations(g.ordered_neighbors(v))) for v in g.vertices})


def c4c5_free_rotations(max_n=7):
    """`connected_rotations` restricted to graphs free of 4- and 5-cycles."""
    return connected_rotations(max_n, c4c5_free=True)


@st.composite
def rulesets(draw):
    """1-8 rules over all four relations, each moving an amount with a
    denominator of 1-12 from sources in a degree window within 0-9, open
    above in about half the draws, so windows overlap often."""
    relations = (GOOD2_ADJACENT, THREE_FACE_INCIDENT, THREE_FACE_PENDANT, BAD2_INCIDENT)
    rules = []
    for i in range(draw(st.integers(1, 8))):
        amount = Fraction(draw(st.integers(-12, 36)), draw(st.integers(1, 12)))
        lo = draw(st.integers(0, 9))
        hi = draw(st.none() | st.integers(lo, 9))
        rules.append(Rule(f"R{i + 1}", draw(st.sampled_from(relations)), amount, lo, hi))
    return DischargeRuleSet("drawn", tuple(rules))


@st.composite
def blocks_and_separators(draw):
    """Small connected blocks (up to 5 vertices each) that meet only in 1-3
    shared separator vertices with forced colors, at a spec of up to 3
    colors.

    The blocks become separate pieces competing for the separators' slack,
    and a block often repeats the previous one, so profiles are cached too.
    Free vertices stay few enough for the brute-force oracle.
    """
    k = draw(st.integers(1, 3))
    spec = tuple(draw(st.lists(st.integers(0, 2), min_size=k, max_size=k)))
    seps = draw(st.integers(1, 3))
    room = {1: 12, 2: 10, 3: 7}[k]
    sep_pairs = [(a, b) for a in range(seps) for b in range(a + 1, seps)]
    edges = set(draw(st.lists(st.sampled_from(sep_pairs), unique=True))) if sep_pairs else set()
    n = seps
    block: set[tuple[int, int]] = set()
    size = 0
    for _ in range(draw(st.integers(2, 5))):
        if not block or draw(st.integers(0, 2)) == 0:
            size = draw(st.integers(1, 5))
            # a spanning tree keeps the block connected; separators are -1..-seps
            block = {(draw(st.integers(0, b - 1)), b) for b in range(1, size)}
            inner = [(a, b) for a in range(size) for b in range(a + 1, size)]
            block |= set(draw(st.lists(st.sampled_from(inner), unique=True))) if inner else set()
            for s in draw(st.lists(st.integers(0, seps - 1), min_size=1, unique=True)):
                touched = draw(st.lists(st.integers(0, size - 1), min_size=1, unique=True))
                block |= {(-1 - s, b) for b in touched}
        if n - seps + size > room:
            break
        edges |= {(a + n if a >= 0 else -1 - a, b + n) for a, b in block}
        n += size
    forced = {s: draw(st.integers(1, k)) for s in range(seps)}
    return make_graph(n, sorted(edges)), spec, ConstraintSet(forced=forced)



@st.composite
def knapsack_inputs(draw):
    """Pending pieces for the solver's knapsack, with the slack room of
    their attachments.

    Pieces come in runs of 1-20 copies (1-4 past two entries) that share
    one binding list and one entries list. A kind may recur in a later run;
    it may share its entries list with another kind bound elsewhere, or its
    entry vectors with another kind bound alike. Each kind binds 1-3 of
    three attachments and has 1-4 entries: a nonzero antichain sorted by
    total, as a profile's are, with a witness of its own per entry. Each
    room lies between the midpoint of the least and the most its pieces can
    demand and the most or, in half the draws, between 0, where no piece
    fits, and the most.
    """
    kinds = []
    for kind in range(draw(st.sampled_from([3, 2, 1]))):
        if kinds and draw(st.booleans()):
            binding, entries, size = kinds[-1]
            if draw(st.booleans()):
                entries = [(v, tuple(range(10 * kind + e, 10 * kind + e + size)))
                           for e, (v, _) in enumerate(entries)]
            else:
                binding = draw(st.permutations(range(3)))[:len(binding)]
            kinds.append((binding, entries, size))
            continue
        width = draw(st.sampled_from([2, 3, 1]))
        binding = draw(st.lists(st.integers(0, 2), min_size=width, max_size=width, unique=True))
        count = 1 if width == 1 else draw(st.integers(1, 4))
        if count == 1:
            vecs = [draw(st.tuples(*[st.integers(0, 3)] * width).filter(any))]
        else:
            # A first coordinate that rises while the second falls keeps
            # the entries an antichain.
            distinct = st.lists(st.integers(0, 4), min_size=count, max_size=count, unique=True)
            rest = st.tuples(*[st.integers(0, 3)] * (width - 2))
            vecs = [(a, b, *draw(rest)) for a, b in zip(sorted(draw(distinct)),
                                                           sorted(draw(distinct), reverse=True))]
        vecs.sort(key=lambda v: (sum(v), v))
        size = draw(st.integers(1, 3))
        entries = [(v, tuple(range(10 * kind + e, 10 * kind + e + size))) for e, v in enumerate(vecs)]
        kinds.append((binding, entries, size))
    pending = []
    low = dict.fromkeys(range(3), 0)
    high = dict.fromkeys(range(3), 0)
    for _ in range(draw(st.sampled_from([3, 4, 2, 1]))):
        binding, entries, size = kinds[draw(st.integers(0, len(kinds) - 1))]
        # Pieces of more than two entries fold one at a time; a few keep
        # the reference's quadratic filter fast.
        for _ in range(draw(st.integers(1, 20 if len(entries) <= 2 else 4))):
            base = 100 + 10 * len(pending)
            pending.append((binding, entries, list(range(base, base + size))))
            for i, y in enumerate(binding):
                low[y] += min(vec[i] for vec, _ in entries)
                high[y] += max(vec[i] for vec, _ in entries)
    starved = draw(st.booleans())
    room = {y: draw(st.integers(0 if starved else (low[y] + high[y]) // 2, high[y])) for y in range(3)}
    return pending, room


SPECS = [(0, 0), (0, 1), (1, 1), (0, 2), (2, 2)]
