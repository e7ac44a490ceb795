"""Acceptance suite: one test per criterion, each printing a PASS line with
its runtime once every assertion inside it has held.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; plain `pytest` runs the same checks silently.
"""

import random
import time
from fractions import Fraction

import networkx as nx
import pytest

from defcol import (
    ConstraintSet,
    RULES_29,
    RULES_35,
    RULES_44,
    apply_ruleset,
    brute_force_oracle,
    check_bad2_face_degrees,
    check_big_face_bad2_capacity,
    check_vertex_profiles,
    classify,
    girth,
    initial_charges,
    is_c4c5_free,
    is_valid_coloring,
    make_graph,
    non_1k,
    np_reduce,
    solve,
    triangle_link,
    verify_conservation,
)

from corpus import corpus, face_2_6_6, k3_embedding, vertex7_one_triangle, vertex11_one_triangle

AGREEMENT_SPECS = [(0, 0), (0, 1), (1, 1), (0, 2), (2, 2), (0, 0, 0), (1, 0, 0)]
CORPUS = corpus()


def report(criterion, description, started):
    print(f"ACCEPTANCE {criterion}: PASS - {description} ({time.time() - started:.1f}s)")


def atlas_connected_up_to_six():
    graphs = []
    for g in nx.graph_atlas_g():
        n = g.number_of_nodes()
        if 1 <= n <= 6 and nx.is_connected(g):
            graphs.append(make_graph(n, list(g.edges())))
    return graphs


def seeded_random_graphs(count, sizes, seed, p=0.35):
    rng = random.Random(seed)
    graphs = []
    for _ in range(count):
        n = rng.choice(sizes)
        edges = [
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < p
        ]
        graphs.append(make_graph(n, edges))
    return graphs


def seeded_girth_six_graphs(count, max_n, seed):
    rng = random.Random(seed)
    graphs = []
    while len(graphs) < count:
        n = rng.randint(6, max_n)
        edges = [(i, rng.randrange(i)) for i in range(1, n)]  # random tree
        g = make_graph(n, edges)
        for _ in range(3):
            i, j = rng.randrange(n), rng.randrange(n)
            if i == j or g.has_edge(i, j):
                continue
            candidate = make_graph(n, g.edges() + [(i, j)])
            if girth(candidate) >= 6:
                g = candidate
        assert girth(g) >= 6
        graphs.append(g)
    return graphs


def test_criterion_1_oracle_equivalence():
    started = time.time()
    graphs = atlas_connected_up_to_six()
    assert len(graphs) == 143
    graphs += seeded_random_graphs(200, (7, 8), seed=20260808)
    checked = 0
    for g in graphs:
        for spec in AGREEMENT_SPECS:
            fast = solve(g, spec, budget=10**7)
            slow = brute_force_oracle(g, spec)
            assert not fast.exceeded_budget
            assert fast.status == slow.status, (g.edges(), spec)
            if fast.is_sat:
                assert is_valid_coloring(g, spec, fast.coloring)
            checked += 1
    elapsed = time.time() - started
    assert elapsed < 300
    report("C1", f"solver/oracle agree on {checked} instance-spec pairs", started)


def test_criterion_2_gadget_boundary_lemma():
    started = time.time()
    g = triangle_link().graph
    for k in (1, 2, 3):
        cons = ConstraintSet(
            forced={"u": 2, "v": 2},
            forbidden={v: frozenset({2}) for v in "abcd"},
        )
        assert brute_force_oracle(g, (1, k), cons).is_unsat
        assert solve(g, (1, k), cons, budget=10**6).is_unsat
    elapsed = time.time() - started
    assert elapsed < 1
    report("C2", "u=v=2 with clean interiors is unsatisfiable for k=1..3", started)


def test_criterion_3_non_1_1_construction():
    started = time.time()
    gadget = non_1k(1)
    assert gadget.graph.vertex_count == 120
    outcome = solve(gadget.graph, (1, 1), budget=10**8)
    assert outcome.is_unsat
    elapsed = time.time() - started
    assert elapsed < 600
    report(
        "C3",
        f"120-vertex composite certified unsat for defects (1,1) in {outcome.nodes} nodes",
        started,
    )


def test_criterion_4_reduction_equivalence():
    started = time.time()
    graphs = seeded_girth_six_graphs(50, max_n=10, seed=1729)
    agreements = 0
    for g in graphs:
        base = solve(g, (0, 1), budget=10**7)
        assert not base.exceeded_budget
        for k in (2, 3):
            reduced = np_reduce(g, k).graph
            assert is_c4c5_free(reduced)
            lifted = solve(reduced, (0, k), budget=10**7)
            assert not lifted.exceeded_budget
            assert base.is_sat == lifted.is_sat, g.edges()
            agreements += 1
    elapsed = time.time() - started
    assert elapsed < 600
    report("C4", f"defect-shift reduction agreed on {agreements} instances", started)


def test_criterion_5_charge_accounting():
    started = time.time()
    assert len(CORPUS) >= 15
    for name, emb in CORPUS:
        initial = initial_charges(emb)
        assert initial.total() == Fraction(-12), name
        for ruleset in (RULES_44, RULES_35, RULES_29):
            final, _ = apply_ruleset(emb, ruleset)
            assert verify_conservation(initial, final), (name, ruleset.name)
            assert final.total() == Fraction(-12)
    report("C5", f"exact conservation on {len(CORPUS)} fixtures x 3 rule systems", started)


def test_criterion_6_arithmetic_reproduction():
    started = time.time()
    emb = face_2_6_6()
    tags = classify(emb)
    tri = tags.face_degree.index(3)
    assert tuple(sorted(tags.degree[v] for v in tags.face_walk_vertices[tri])) == (2, 6, 6)
    final, _ = apply_ruleset(emb, RULES_44)
    assert final.charges[("f", tri)] == Fraction(-3) + 2 * 2 - 1 == Fraction(0)

    emb = vertex7_one_triangle()
    final, _ = apply_ruleset(emb, RULES_35)
    assert final.charges[("v", 0)] == Fraction(8) - (2 + 5 * Fraction(6, 5)) == Fraction(0)

    emb = vertex11_one_triangle()
    final, _ = apply_ruleset(emb, RULES_29)
    assert final.charges[("v", 0)] == Fraction(16) - (9 * Fraction(3, 2) + Fraction(5, 2)) == Fraction(0)
    report("C6", "three displayed charge balances reproduce exactly", started)


def test_criterion_7_theorem_smoke():
    started = time.time()
    for name, emb in CORPUS:
        g = emb.graph
        assert is_c4c5_free(g), name
        for spec in ((4, 4), (3, 5), (2, 9)):
            outcome = solve(g, spec, budget=10**7)
            assert outcome.is_sat, (name, spec)
            assert is_valid_coloring(g, spec, outcome.coloring)
    elapsed = time.time() - started
    assert elapsed < 300
    report("C7", f"all {len(CORPUS)} fixtures colorable at (4,4), (3,5), (2,9)", started)


def test_criterion_8_structural_validators():
    started = time.time()
    validators = (
        check_bad2_face_degrees,
        check_big_face_bad2_capacity,
        check_vertex_profiles,
    )
    for name, emb in CORPUS:
        for validator in validators:
            status = validator(emb).status
            assert status in ("pass", "degenerate"), (name, validator.__name__, status)
    k3 = k3_embedding()
    assert check_bad2_face_degrees(k3).status == "degenerate"
    assert check_vertex_profiles(k3).status == "degenerate"
    report("C8", "validators pass or flag degenerate on every fixture; K3 is degenerate", started)


def test_criterion_9_non_1k_family():
    started = time.time()
    for k in (2, 3):
        gadget = non_1k(k)
        outcome = solve(gadget.graph, (1, k), budget=10**4)
        assert outcome.is_unsat, k
    elapsed = time.time() - started
    assert elapsed < 60
    report("C9", "non_1k(2) and non_1k(3) certified unsat for defects (1,k)", started)
