"""Each public entry point rejects malformed input with one exact message."""

import pytest

from defcol import (
    ColoringSpec,
    ConstraintSet,
    GadgetResult,
    Graph,
    PlaneEmbedding,
    always_extends,
    brute_force_oracle,
    embedding_from_positions,
    export_cnf,
    is_valid_coloring,
    load_embedding,
    load_graph,
    make_graph,
    solve,
    triangle_link,
)
from defcol.cli import main

from oracles import deletion_preserves, identify

EMPTY_DOCUMENT = "# defcol-edgelist v1\n"


def k_n(n):
    return make_graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


K3, K4 = k_n(3), k_n(4)

REJECTED = [
    (
        lambda: is_valid_coloring(K3, (0, 1), {0: 1, 1: 2, 2: 1, 9: 1}),
        "assignment colors unknown vertex 9",
    ),
    (lambda: is_valid_coloring(K3, (0, 1), {0: 1.5, 1: 2, 2: 1}), "color 1.5 is not an int"),
    (lambda: is_valid_coloring(K3, (0, 1), {0: 1.0, 1: 2, 2: 1}), "color 1.0 is not an int"),
    (lambda: is_valid_coloring(K3, (0, 1), {0: True, 1: 2, 2: 1}), "color True is not an int"),
    (
        lambda: solve(K3, (0, 1), ConstraintSet(forbidden={9: {1}}), budget=10),
        "forbidden constraint on unknown vertex 9",
    ),
    (
        lambda: solve(K3, (0, 1), ConstraintSet(forbidden={0: {3}}), budget=10),
        "forbidden color 3 out of range 1..2",
    ),
    # A float budget stopped after one decision, NaN never stopped, and True
    # counted as 1.
    (lambda: solve(K3, (0, 1), budget=0.5), "budget 0.5 is not an int"),
    (lambda: solve(K3, (0, 1), budget=float("nan")), "budget nan is not an int"),
    (lambda: solve(K3, (0, 1), budget=True), "budget True is not an int"),
    (lambda: solve(K3, (0, 1), budget="5"), "budget '5' is not an int"),
    (lambda: ColoringSpec((1.9, 1)), "defect 1.9 is not an int"),
    (lambda: ColoringSpec(("2", "0")), "defect '2' is not an int"),
    (lambda: solve(K3, (True, 1), budget=10), "defect True is not an int"),
    (
        lambda: solve(K3, (0, 1), ConstraintSet(forced={0: 1.5}), budget=10),
        "forced color 1.5 is not an int",
    ),
    (
        lambda: brute_force_oracle(K3, (0, 1), ConstraintSet(forced={0: 2.0})),
        "forced color 2.0 is not an int",
    ),
    (
        lambda: export_cnf(K3, (0, 1), ConstraintSet(forced={0: True})),
        "forced color True is not an int",
    ),
    (
        lambda: solve(K3, (0, 1), ConstraintSet(forbidden={0: {1.5}}), budget=10),
        "forbidden color 1.5 is not an int",
    ),
    (
        lambda: brute_force_oracle(K3, (0, 1), ConstraintSet(forbidden={0: {False}})),
        "forbidden color False is not an int",
    ),
    (
        lambda: export_cnf(K3, (0, 1), ConstraintSet(forbidden={0: {"1"}})),
        "forbidden color '1' is not an int",
    ),
    (
        lambda: always_extends(make_graph(30, []), 0, (0, 0, 0, 0)),
        "instance exceeds brute-force cap",
    ),
    (lambda: deletion_preserves(K3, 9, (0, 1), budget=10), "vertex 9 not in graph"),
    (lambda: Graph([0, 1], [], {5: "x"}), "label attached to unknown vertex 5"),
    (lambda: make_graph(-1, []), "vertex count must be non-negative"),
    (lambda: identify(K3, 9, 0), "vertex 9 not in graph"),
    (lambda: load_graph(EMPTY_DOCUMENT), "empty graph document"),
    # the structural checks of the Graph and PlaneEmbedding constructors,
    # directly and through the loaders that build them
    (lambda: Graph([0, 1, 0]), "duplicate vertex 0"),
    (lambda: Graph([0, 1], [(5, 1)]), "edge endpoint 5 is not a vertex"),
    (lambda: Graph([0, 1], [(0, 7)]), "edge endpoint 7 is not a vertex"),
    (lambda: Graph([0, 1], [(5, 7)]), "edge endpoint 5 is not a vertex"),
    (lambda: Graph([0, 1], [(1, 1)]), "self-loop at 1"),
    (lambda: Graph([0, 1], [], {0: "a", 1: "a"}), "vertex labels must be unique"),
    (lambda: load_graph("2 1\n0 5\n"), "edge endpoint 5 is not a vertex"),
    (lambda: load_graph("2 1\n1 1\n"), "self-loop at 1"),
    (lambda: load_graph("2 0\nlabel 0 a\nlabel 1 a\n"), "vertex labels must be unique"),
    (lambda: load_graph("2 0\nlabel 5 a\n"), "label attached to unknown vertex 5"),
    (lambda: load_graph("2 1\n0 1 2\n"), "malformed edge line '0 1 2'"),
    (lambda: load_graph("3 2\n0 1\n"), "expected 2 edge lines, found 1"),
    (lambda: load_graph("2 2\n0 1\n1 0\n"), "2 edge lines name only 1 distinct edges"),
    (lambda: load_graph("2 0\nlabel 0\n"), "malformed label line 'label 0'"),
    (lambda: load_graph("2 0\nlabel 0 a\nlabel 0 b\n"), "second label line for vertex 0"),
    (lambda: load_graph("2 0\nfoo 1\n"), "unexpected trailing line 'foo 1'"),
    (lambda: load_graph("2 0\nlabels 0 a\n"), "unexpected trailing line 'labels 0 a'"),
    (lambda: load_embedding("1 0\nfoo\n"), "unexpected line 'foo' in embedding document"),
    (lambda: load_embedding("1 0\nrot 0\n"), "malformed rotation line 'rot 0'"),
    (lambda: load_embedding("1 0\nrot 0:\nrot 0:\n"), "second rotation line for vertex 0"),
    (lambda: load_embedding("2 1\n0 1\nrot 0: 1\n"), "no rotation record for vertex 1"),
    (
        lambda: load_embedding("1 0\nrot 0:\nrot 5:\n"),
        "rotation must list every vertex exactly once",
    ),
    (
        lambda: PlaneEmbedding(K3, {0: [1, 2]}),
        "rotation must list every vertex exactly once",
    ),
    (
        lambda: load_embedding("2 1\n0 1\nrot 0: 1 1\nrot 1: 0\n"),
        "rotation at 0 repeats a neighbor",
    ),
    (
        lambda: load_embedding("2 1\n0 1\nrot 0:\nrot 1: 0\n"),
        "rotation at 0 does not match its neighbors",
    ),
    (
        lambda: embedding_from_positions(
            make_graph(3, [(0, 1), (0, 2)]), {0: (0, 0), 1: (1, 0), 2: (2, 0)}
        ),
        "two neighbors of 0 share an angle",
    ),
    (
        lambda: GadgetResult(make_graph(6, []), {}, triangle_link().embedding),
        "embedding is for a different graph",
    ),
    (
        lambda: GadgetResult(
            K4, {}, PlaneEmbedding(K4, {0: [1, 2, 3], 1: [0, 2, 3], 2: [0, 1, 3], 3: [0, 1, 2]})
        ),
        "emitted embedding fails the Euler check",
    ),
]


@pytest.mark.parametrize("call, message", REJECTED, ids=[m for _, m in REJECTED])
def test_rejected_with_exact_message(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


def test_cli_reports_empty_graph_document(tmp_path, capsys):
    path = tmp_path / "empty.graph"
    path.write_text(EMPTY_DOCUMENT)
    assert main(["check", "girth", "--graph", str(path)]) == 2
    assert capsys.readouterr().err == "defcol: error: empty graph document\n"
