import json
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from defcol import (
    ColoringSpec,
    ConstraintSet,
    always_extends,
    brute_force_oracle,
    dump_graph,
    hub_gadget,
    is_valid_coloring,
    make_graph,
    non_1k,
    np_reduce,
    solve,
    triangle_link,
)
from defcol import coloring
from defcol.cli import main

from corpus import fused_hexagons
from oracles import (
    BudgetExceededError,
    always_extends_by_enumeration,
    deletion_preserves,
    knapsack_one_at_a_time,
    valid_by_neighbor_count,
)
from strategies import SPECS, blocks_and_separators, graphs, knapsack_inputs


def k_n(n):
    return make_graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def cycle(n):
    return make_graph(n, [(i, (i + 1) % n) for i in range(n)])


HUV_CONSTRAINTS = ConstraintSet(
    forced={"u": 2, "v": 2},
    forbidden={v: frozenset({2}) for v in "abcd"},
)


class TestSpecAndConstraints:
    def test_spec_validation(self):
        with pytest.raises(ValueError):
            ColoringSpec(())
        with pytest.raises(ValueError):
            ColoringSpec((1, -1))
        assert ColoringSpec((0, 1)).k == 2

    def test_unsorted_defects_accepted(self):
        assert ColoringSpec((2, 0)).defects == (2, 0)

    def test_constraint_referencing_unknown_vertex(self):
        with pytest.raises(ValueError):
            solve(k_n(3), (0, 1), ConstraintSet(forced={9: 1}), budget=10)

    def test_constraint_referencing_unknown_color(self):
        with pytest.raises(ValueError):
            solve(k_n(3), (0, 1), ConstraintSet(forced={0: 3}), budget=10)

    def test_forced_color_forbidden_rejected(self):
        cons = ConstraintSet(forced={0: 1}, forbidden={0: frozenset({1})})
        with pytest.raises(ValueError):
            solve(k_n(3), (0, 1), cons, budget=10)

    def test_fully_forbidden_vertex_is_unsat_not_error(self):
        cons = ConstraintSet(forbidden={0: frozenset({1, 2})})
        assert solve(k_n(3), (1, 1), cons, budget=10).is_unsat


class TestIsValidColoring:
    def test_k3_with_one_loose_class(self):
        assert is_valid_coloring(k_n(3), (1, 0), {0: 1, 1: 1, 2: 2})

    def test_k3_proper_two_coloring_impossible(self):
        g = k_n(3)
        for a in (1, 2):
            for b in (1, 2):
                for c in (1, 2):
                    assert not is_valid_coloring(g, (0, 0), {0: a, 1: b, 2: c})

    def test_huv_all_interior_same_color_invalid(self):
        g = triangle_link().graph
        coloring = {"u": 2, "v": 2, "a": 1, "b": 1, "c": 1, "d": 1}
        assert not is_valid_coloring(g, (1, 1), coloring)

    def test_partial_assignment_rejected(self):
        with pytest.raises(ValueError):
            is_valid_coloring(k_n(3), (0, 1), {0: 1, 1: 2})

    def test_out_of_range_color_rejected(self):
        with pytest.raises(ValueError):
            is_valid_coloring(k_n(3), (0, 1), {0: 1, 1: 2, 2: 3})

    @settings(max_examples=200, deadline=None)
    @given(graphs(max_n=8), st.data())
    def test_agrees_with_neighbor_count(self, g, data):
        k = data.draw(st.integers(1, 3))
        spec = tuple(data.draw(st.lists(st.integers(0, 2), min_size=k, max_size=k)))
        coloring = {v: data.draw(st.integers(1, k)) for v in g.vertices}
        assert is_valid_coloring(g, spec, coloring) == valid_by_neighbor_count(g, spec, coloring)


class TestSolve:
    def test_k4_unsat_for_0_1(self):
        out = solve(k_n(4), (0, 1), budget=10**6)
        assert out.is_unsat

    def test_c5_sat_for_0_1(self):
        out = solve(cycle(5), (0, 1), budget=10**6)
        assert out.is_sat
        assert is_valid_coloring(cycle(5), (0, 1), out.coloring)

    def test_huv_forced_boundary_unsat(self):
        g = triangle_link().graph
        for k in (1, 2, 3):
            out = solve(g, (1,) + (k,), HUV_CONSTRAINTS, budget=10**6)
            assert out.is_unsat

    def test_budget_exhaustion_is_reported(self):
        out = solve(k_n(4), (0, 1), budget=1)
        assert out.exceeded_budget
        assert out.coloring is None
        assert out.nodes == 2  # the second decision breached the budget

    def test_budget_must_be_positive(self):
        with pytest.raises(ValueError):
            solve(k_n(3), (0, 1), budget=0)

    def test_deterministic_witness(self):
        g = cycle(7)
        first = solve(g, (1, 1), budget=10**6)
        second = solve(g, (1, 1), budget=10**6)
        assert first == second

    def test_respects_forced_and_forbidden(self):
        g = cycle(6)
        cons = ConstraintSet(forced={0: 2}, forbidden={3: frozenset({2})})
        out = solve(g, (1, 1), cons, budget=10**6)
        assert out.is_sat
        assert out.coloring[0] == 2
        assert out.coloring[3] != 2

    def test_empty_graph(self):
        out = solve(make_graph(0, []), (0,), budget=10)
        assert out.is_sat and out.coloring == {}

    @settings(max_examples=60, deadline=None)
    @given(graphs(max_n=6), st.sampled_from(SPECS))
    def test_sat_witnesses_are_valid(self, g, spec):
        out = solve(g, spec, budget=10**6)
        if out.is_sat:
            assert is_valid_coloring(g, spec, out.coloring)


class TestBruteForceOracle:
    def test_same_verdicts_as_solve_on_examples(self):
        for g, spec in [(k_n(4), (0, 1)), (cycle(5), (0, 1)), (k_n(3), (0, 0))]:
            assert brute_force_oracle(g, spec).status == solve(g, spec, budget=10**6).status

    def test_huv_forced_boundary_unsat(self):
        g = triangle_link().graph
        assert brute_force_oracle(g, (1, 1), HUV_CONSTRAINTS).is_unsat

    def test_empty_graph_sat(self):
        out = brute_force_oracle(make_graph(0, []), (0, 1))
        assert out.is_sat and out.coloring == {}

    def test_single_vertex_one_color(self):
        out = brute_force_oracle(make_graph(1, []), (0,))
        assert out.is_sat and out.coloring == {0: 1}

    def test_cap_enforced(self):
        with pytest.raises(ValueError):
            brute_force_oracle(make_graph(40, []), (0, 1))

    @settings(max_examples=80, deadline=None)
    @given(graphs(max_n=6), st.sampled_from(SPECS))
    def test_agrees_with_solve(self, g, spec):
        assert brute_force_oracle(g, spec).status == solve(g, spec, budget=10**7).status

    @settings(max_examples=40, deadline=None)
    @given(
        graphs(max_n=5),
        st.tuples(st.integers(0, 2), st.integers(0, 2)),
        st.tuples(st.integers(0, 2), st.integers(0, 2)),
    )
    def test_monotone_in_defects(self, g, spec, bumps):
        # pointwise-dominating defect bounds preserve satisfiability
        stronger = tuple(d + b for d, b in zip(spec, bumps))
        if brute_force_oracle(g, spec).is_sat:
            assert brute_force_oracle(g, stronger).is_sat


class TestAlwaysExtends:
    def test_star_center_with_slack(self):
        g = make_graph(4, [(0, 1), (0, 2), (0, 3)])
        assert always_extends(g, 0, (1, 1))

    def test_isolated_vertex(self):
        g = make_graph(3, [(1, 2)])
        assert always_extends(g, 0, (0, 0))

    def test_k3_vertex_cannot_always_extend_properly(self):
        assert not always_extends(k_n(3), 0, (0, 0))

    def test_pendant_vertex_with_two_colors(self):
        g = make_graph(3, [(0, 1), (1, 2)])
        assert always_extends(g, 2, (0, 0))

    def test_missing_vertex_rejected(self):
        with pytest.raises(ValueError):
            always_extends(k_n(3), 9, (0, 0))

    @settings(max_examples=60, deadline=None)
    @given(graphs(max_n=7), st.data())
    def test_agrees_with_enumeration(self, g, data):
        k = data.draw(st.integers(1, 3))
        spec = tuple(data.draw(st.lists(st.integers(0, 2), min_size=k, max_size=k)))
        for v in g.vertices:
            assert always_extends(g, v, spec) == always_extends_by_enumeration(g, v, spec), v


class TestDeletionPreserves:
    def test_sat_graph_trivially_true(self):
        assert deletion_preserves(cycle(5), 0, (0, 1), budget=10**6)

    def test_k4_is_vertex_critical_for_0_1(self):
        assert not deletion_preserves(k_n(4), 0, (0, 1), budget=10**6)

    def test_single_vertex(self):
        assert deletion_preserves(make_graph(1, []), 0, (0,), budget=10)

    def test_budget_exhaustion_raises(self):
        with pytest.raises(BudgetExceededError):
            deletion_preserves(k_n(5), 0, (0, 1), budget=1)

    def test_uncolorable_deletion_is_true(self):
        # K4 = K5 - v has no (0,1)-coloring, so the implication holds vacuously
        assert deletion_preserves(k_n(5), 0, (0, 1), budget=10**6)

    @pytest.mark.parametrize("budget", [1, 2, 3])
    def test_budget_exhaustion_on_the_full_graph(self, budget):
        # K3 = K4 - v takes 1 decision and K4 takes 4
        with pytest.raises(BudgetExceededError, match="^budget exhausted on the full graph$"):
            deletion_preserves(k_n(4), 0, (0, 1), budget=budget)

    def test_full_graph_budget_just_enough(self):
        assert not deletion_preserves(k_n(4), 0, (0, 1), budget=4)


WITNESSES = json.loads((Path(__file__).parent / "solver_witnesses.json").read_text())
STATS = json.loads((Path(__file__).parent / "solver_stats.json").read_text())


def _forced_hub(k):
    hub = hub_gadget(k)
    return hub.graph, (1, k), ConstraintSet(forced={hub.terminals["z"]: 2, hub.terminals["x1"]: 2})


# name -> the (graph, spec, constraints) whose outcome solver_stats.json pins
STATS_CASES = {
    **{f"non1k_k{k}_1_{k}": lambda k=k: (non_1k(k).graph, (1, k), None)
       for k in (1, 2, 3, 4, 5, 6, 12, 24, 48)},
    **{f"non1k_k{k}_1_{k + 1}": lambda k=k: (non_1k(k).graph, (1, k + 1), None)
       for k in range(1, 7)},
    **{f"non1k_k6_{a}_{b}": lambda s=(a, b): (non_1k(6).graph, s, None)
       for a, b in ((4, 4), (3, 5), (2, 9))},
    **{f"np_reduce_k1_{k}_0_{k}": lambda k=k: (np_reduce(non_1k(1).graph, k).graph, (0, k), None)
       for k in (2, 3)},
    **{f"hub_k{k}_1_{k}": lambda k=k: _forced_hub(k) for k in range(1, 6)},
}


def path_graph(n):
    return make_graph(n, [(i, i + 1) for i in range(n - 1)])


class TestSearchPins:
    """The decision sequence is part of the contract: node counts and sat
    witnesses are pinned exactly."""

    @pytest.mark.parametrize("k, nodes", [(1, 0), (2, 0), (3, 0), (4, 0), (5, 0), (6, 0)])
    def test_hub_lemma_node_counts(self, k, nodes):
        out = solve(*_forced_hub(k), budget=10**6)
        assert out.is_unsat
        assert out.nodes == nodes
        # The 2k+1 copies between z and x1 close off at the root and share
        # one profile; no two fit the slack of z and x1 together.
        assert out.stats == {"decisions": nodes, "pieces_closed": 2 * k + 1,
                             "cache_hits": 2 * k, "cache_misses": 1, "max_nesting": 1,
                             "split_visits": 8 * k + 5, "pick_scans": 0,
                             "knapsack_sums": 2 * k + 2}

    def test_non_1k_unsat_node_count(self):
        out = solve(non_1k(1).graph, (1, 1), budget=10**6)
        assert out.is_unsat
        assert out.nodes == 18

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_non_1k_sat_witness(self, k):
        pin = WITNESSES[f"non1k_k{k}_1_{k + 1}"]
        g = non_1k(k).graph
        out = solve(g, (1, k + 1), budget=10**6)
        assert out.is_sat
        assert is_valid_coloring(g, (1, k + 1), out.coloring)
        assert out.nodes == pin["nodes"]
        assert "".join(str(out.coloring[v]) for v in g.vertices) == pin["coloring"]

    @pytest.mark.parametrize("name", sorted(STATS_CASES))
    def test_every_stat_is_pinned(self, name):
        # cache_hits and cache_misses show that the profile cache splits
        # pieces into the same local instances as when the pins were taken.
        g, spec, cons = STATS_CASES[name]()
        out = solve(g, spec, cons, budget=10**6)
        pin = STATS[name]
        assert (out.status, out.nodes, dict(out.stats)) == (pin["status"], pin["nodes"], pin["stats"])

    def test_deep_search_has_no_recursion_limit(self):
        g = path_graph(100_000)
        out = solve(g, (2, 2), budget=10**6)
        assert out.is_sat
        # Vertex 0 splits off after the first decision and takes a free color.
        assert out.nodes == 99_999
        assert is_valid_coloring(g, (2, 2), out.coloring)

    @pytest.mark.parametrize("g", [path_graph(1500), fused_hexagons(400).graph],
                             ids=["path1500", "hex1602"])
    def test_cli_solves_long_inputs(self, g, tmp_path, capsys):
        path = tmp_path / "long.graph"
        path.write_text(dump_graph(g))
        code = main(["solve", "--graph", str(path), "--spec", "2,2", "--budget", "100000"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["outcome"] == "sat"
        coloring = {g.vertices[int(i)]: c for i, c in doc["coloring"].items()}
        assert is_valid_coloring(g, (2, 2), coloring)


TWIN_A = [((0, 1), (1,)), ((1, 0), (2,))]
TWIN_B = [((0, 1), (3,)), ((1, 0), (4,))]


class TestComponentProfiles:
    @pytest.mark.parametrize("k, nodes", [(1, 18), (2, 59), (3, 59), (4, 59), (5, 59), (6, 59)])
    def test_non_1k_has_no_1k_coloring(self, k, nodes):
        out = solve(non_1k(k).graph, (1, k), budget=10**4)
        assert out.is_unsat
        assert out.nodes == nodes

    def test_piece_without_binding_attachments_is_profiled_and_cached(self):
        # 27 pieces of the reduction, 25 of them of two vertices, need no
        # contested slack; each goes through the profile cache instead of a
        # search of its own.
        out = solve(np_reduce(non_1k(1).graph, 2).graph, (0, 2), budget=10**4)
        assert out.is_unsat
        assert out.nodes == 6
        assert (out.stats["cache_hits"], out.stats["max_nesting"]) == (55, 1)

    # At (1,1) the search of non_1k(1) branches twice over two
    # reservations, so some budgets run out at a reservation choice.
    @pytest.mark.parametrize("k,spec", [(2, (1, 2)), (1, (1, 1))], ids=["non_1k_2", "non_1k_1"])
    def test_budget_stop_inside_a_sub_search_is_never_unsat(self, k, spec):
        g = non_1k(k).graph
        full = solve(g, spec, budget=10**4)
        assert full.is_unsat
        for budget in range(1, full.nodes):
            out = solve(g, spec, budget=budget)
            assert out.exceeded_budget, budget
            assert out.nodes == budget + 1
        assert solve(g, spec, budget=full.nodes) == full

    def test_cache_needs_the_whole_local_instance(self):
        hub = hub_gadget(2)
        forced = {hub.terminals["z"]: 2, hub.terminals["x1"]: 2}
        # One copy has a vertex barred from color 2: another local instance.
        cons = ConstraintSet(forced=forced, forbidden={"h1_3_a": frozenset({2})})
        out = solve(hub.graph, (1, 2), cons, budget=10**6)
        assert out.is_unsat
        assert (out.stats["cache_hits"], out.stats["cache_misses"]) == (3, 2)

    def test_same_shape_with_other_allowed_colors_is_another_instance(self):
        # Three triangles on s and a tail; color 3 is barred from the last
        # two triangles, so each of them needs one unit of s's slack.
        g = make_graph(10, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4),
                            (0, 5), (0, 6), (5, 6), (0, 7), (7, 8), (8, 9)])
        barred = {v: frozenset({3}) for v in (3, 4, 5, 6)}
        cons = ConstraintSet(forced={0: 1}, forbidden=barred)
        assert brute_force_oracle(g, (1, 0, 0), cons).is_unsat
        out = solve(g, (1, 0, 0), cons, budget=10**6)
        assert out.is_unsat
        assert (out.stats["cache_hits"], out.stats["cache_misses"]) == (1, 2)

    def test_same_shape_with_other_private_slack_is_another_instance(self):
        # Three edges hang off s (color 1) and off their own t (color 2).
        # The first and last t have a forced same-colored neighbor, so they
        # have one unit of slack where the middle one has two.
        g = make_graph(12, [(0, 3), (0, 4), (1, 2), (1, 3), (1, 4), (3, 4),
                            (0, 6), (0, 7), (5, 6), (5, 7), (6, 7),
                            (0, 10), (0, 11), (8, 9), (8, 10), (8, 11), (10, 11)])
        cons = ConstraintSet(forced={0: 1, 1: 2, 2: 2, 5: 2, 8: 2, 9: 2})
        out = solve(g, (2, 2), cons, budget=10**6)
        assert out.is_sat
        assert is_valid_coloring(g, (2, 2), out.coloring)
        assert out.stats["cache_misses"] == 2

    def test_reserved_slack_is_shared_between_pieces(self):
        # Two triangles on s, barred from color 3, each need one unit of
        # s's slack for color 1; the tail 5-6-7 stays on the main line and
        # must leave s that much.
        g = make_graph(8, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4), (0, 5), (5, 6),
                           (6, 7)])
        barred = {v: frozenset({3}) for v in (1, 2, 3, 4)}
        cons = ConstraintSet(forced={0: 1}, forbidden=barred)
        for spec, status in [((1, 0, 0), "unsat"), ((2, 0, 0), "sat"), ((3, 0, 0), "sat")]:
            out = solve(g, spec, cons, budget=10**6)
            assert out.status == brute_force_oracle(g, spec, cons).status == status, spec
            assert out.stats["pieces_closed"] == 2
            if out.is_sat:
                assert is_valid_coloring(g, spec, out.coloring)
                assert sum(out.coloring[v] == 1 for v in (1, 2, 3, 4, 5)) <= spec[0]

    def test_largest_piece_stays_on_the_main_line(self):
        # Forcing s (vertex 0) splits a 13-vertex star, reached by four
        # searches from 1..4, from the 8-vertex path 14..21, reached by one.
        # The star's searches finish first, with its hub 5 and leaves 6..13;
        # the path's search must then walk to the end of the path to find
        # that the star is larger, so the path is the piece closed off.
        edges = [(0, 14)] + [(i, i + 1) for i in range(14, 21)]
        for i in (1, 2, 3, 4):
            edges += [(0, i), (i, 5), (i, 2 * i + 4), (i, 2 * i + 5)]
        g = make_graph(22, edges)
        out = solve(g, (2, 2), ConstraintSet(forced={0: 1}), budget=10**6)
        assert out.is_sat
        assert is_valid_coloring(g, (2, 2), out.coloring)
        assert out.stats["split_visits"] == 9 + 7

    @pytest.mark.parametrize("spec", [(1, 0), (2, 1), (1, 1, 0)])
    def test_piece_with_too_many_budgets_stays_on_the_main_line(self, spec, monkeypatch):
        # Two copies of a 6-vertex path, each tied to three forced
        # separators by two vertices apiece: a copy's profile would range
        # over 3 * 3 * 3 = 27 budget vectors, more than the limit.
        edges = []
        for base in (3, 9):
            edges += [(base + i, base + i + 1) for i in range(5)]
            edges += [(s, base + 2 * s + j) for s in range(3) for j in range(2)]
        g = make_graph(15, edges)
        cons = ConstraintSet(forced={0: 1, 1: 1, 2: 1})
        assert coloring.PROFILE_MAX_BUDGETS < 27
        kept = solve(g, spec, cons, budget=10**6)
        monkeypatch.setattr(coloring, "PROFILE_MAX_BUDGETS", 27)
        profiled = solve(g, spec, cons, budget=10**6)
        assert kept.status == profiled.status == brute_force_oracle(g, spec, cons).status
        assert (kept.stats["cache_misses"], profiled.stats["cache_misses"]) == (0, 1)
        assert profiled.stats["pieces_closed"] == kept.stats["pieces_closed"] + 1
        for out in (kept, profiled):
            if out.is_sat:
                assert is_valid_coloring(g, spec, out.coloring)

    def test_non_1k_search_stays_the_same_as_k_grows(self):
        # Only the number of identical lane copies grows with k, and the
        # knapsack folds each run of them in one step: its candidate totals
        # grow linearly in k, not quadratically.
        sums = {}
        for k in (12, 24, 48):
            out = solve(non_1k(k).graph, (1, k), budget=10**4)
            assert out.is_unsat
            assert out.nodes == 59
            assert (out.stats["cache_misses"], out.stats["pieces_closed"]) == (12, 122 * k + 34)
            sums[k] = out.stats["knapsack_sums"]
        assert sums[48] <= 2 * sums[24] + 16

    @settings(max_examples=200, deadline=None)
    @given(knapsack_inputs())
    # Two runs with equal vectors but witnesses of their own: a total that
    # both reach must keep the first run's first entry on more copies.
    @example(([([0, 1], twin, [10 + i]) for i, twin in enumerate([TWIN_A] * 2 + [TWIN_B] * 2)],
              {0: 5, 1: 5}))
    def test_knapsack_matches_folding_one_piece_at_a_time(self, instance):
        pending, room = instance
        reference = knapsack_one_at_a_time(pending, room)
        result, formed = coloring._knapsack(pending, room)
        assert formed > 0
        if not any(room.values()):
            assert result is False
        if reference is False:
            assert result is False
            return

        def flatten(chain):
            # Every (vertex, color) the chain places, in pending order.
            pairs = []
            while chain:
                chain, piece, witness = chain
                pairs[:0] = zip(piece, witness)
            return pairs

        (atts, reservations), (ref_atts, ref_reservations) = result, reference
        assert atts == ref_atts
        assert [t for t, _ in reservations] == [t for t, _ in ref_reservations]
        assert [flatten(c) for _, c in reservations] == [flatten(c) for _, c in ref_reservations]

    @settings(max_examples=150, deadline=None)
    @given(blocks_and_separators())
    def test_blocks_and_separators_agree_with_oracle(self, instance):
        g, spec, cons = instance
        out = solve(g, spec, cons, budget=10**7)
        assert out.status == brute_force_oracle(g, spec, cons).status
        if out.is_sat:
            assert is_valid_coloring(g, spec, out.coloring)
            assert all(out.coloring[v] == c for v, c in cons.forced.items())
            assert all(out.coloring[v] not in cs for v, cs in cons.forbidden.items())


def cycle_graph(n):
    return make_graph(n, [(i, (i + 1) % n) for i in range(n)])


class TestScaling:
    """Doubling the input at most about doubles the work: neither the
    branching pick nor the split detection rescans the graph."""

    def test_pick_with_three_colors_is_linear(self):
        # A pick that rescanned the static order would examine 4x as many.
        once, twice = (solve(path_graph(n), (1, 1, 1), budget=10**6) for n in (4000, 8000))
        assert once.is_sat and twice.is_sat
        scans = once.stats["pick_scans"], twice.stats["pick_scans"]
        assert scans[0] <= 3 * 4000
        assert scans[1] <= 2 * scans[0] + 16

    @pytest.mark.parametrize("make, small, spec", [
        (path_graph, 2000, (1, 1, 1)),
        (path_graph, 2000, (2, 2)),
        (cycle_graph, 1001, (2, 2)),
        (lambda n: fused_hexagons(n).graph, 250, (2, 2)),
        (lambda n: fused_hexagons(n).graph, 250, (1, 1)),
    ], ids=["path_111", "path_22", "cycle_22", "hex_22", "hex_11"])
    def test_split_visits_double(self, make, small, spec):
        g, g2 = make(small), make(2 * small)
        once, twice = solve(g, spec, budget=10**6), solve(g2, spec, budget=10**6)
        assert once.is_sat and twice.is_sat
        visits = once.stats["split_visits"], twice.stats["split_visits"]
        assert visits[0] <= 2 * g.vertex_count
        assert visits[1] <= 2 * visits[0] + 16
