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
