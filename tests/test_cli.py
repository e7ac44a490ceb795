import argparse
import gc
import hashlib
import json
import os
import subprocess
import sys
import time
import tracemalloc
from collections import OrderedDict
from enum import IntEnum
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from defcol import (
    RULESETS,
    cycles_of_length,
    dump_embedding,
    dump_graph,
    load_embedding,
    load_graph,
    make_graph,
    non_1k,
    triangle_link,
)
import defcol
import defcol.cli
from defcol.cli import _build_parser, _dumps, main

from corpus import corpus, fused_hexagons, k3_embedding

AUDIT_DIGESTS = json.loads((Path(__file__).parent / "audit_digests.json").read_text())
CORPUS = corpus()
# written to .emb files and audited through the CLI, which names vertices by index
CLI_INPUTS = {
    "non_1k_1": non_1k(1).embedding,
    "non_1k_2": non_1k(2).embedding,
    "fused_hexagons_3": fused_hexagons(3),
}


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def k4_file(tmp_path):
    g = make_graph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    path = tmp_path / "k4.graph"
    path.write_text(dump_graph(g))
    return str(path)


def c5_file(tmp_path):
    g = make_graph(5, [(i, (i + 1) % 5) for i in range(5)])
    path = tmp_path / "c5.graph"
    path.write_text(dump_graph(g))
    return str(path)


def huv_file(tmp_path, capsys):
    code, _, _ = run(capsys, "gadget", "huv", "--out", str(tmp_path / "huv"))
    assert code == 0
    return str(tmp_path / "huv.graph")


class TestSolveCommand:
    def test_sat_exit_zero(self, tmp_path, capsys):
        code, out, _ = run(capsys, "solve", "--graph", c5_file(tmp_path), "--spec", "0,1")
        assert code == 0
        doc = json.loads(out)
        assert doc["outcome"] == "sat"
        assert doc["coloring"]

    def test_unsat_exit_ten(self, tmp_path, capsys):
        code, out, _ = run(capsys, "solve", "--graph", k4_file(tmp_path), "--spec", "0,1")
        assert code == 10
        assert json.loads(out)["outcome"] == "unsat"

    def test_budget_exit_twenty(self, tmp_path, capsys):
        code, out, _ = run(
            capsys, "solve", "--graph", k4_file(tmp_path), "--spec", "0,1", "--budget", "1"
        )
        assert code == 20
        assert json.loads(out)["outcome"] == "budget"

    def test_big_instance_requires_budget(self, tmp_path, capsys):
        code, _, _ = run(capsys, "gadget", "s", "--k", "1", "--out", str(tmp_path / "s"))
        assert code == 0
        code, _, err = run(
            capsys, "solve", "--graph", str(tmp_path / "s.graph"), "--spec", "1,1"
        )
        assert code == 2
        assert "--budget" in err

    def test_force_forbid_by_label(self, tmp_path, capsys):
        code, _, _ = run(capsys, "gadget", "huv", "--out", str(tmp_path / "huv"))
        assert code == 0
        argv = [
            "solve", "--graph", str(tmp_path / "huv.graph"), "--spec", "1,1",
            "--force", "u=2", "--force", "v=2",
        ]
        for interior in "abcd":
            argv += ["--forbid", f"{interior}=2"]
        code, out, _ = run(capsys, *argv)
        assert code == 10

    def test_label_takes_precedence_over_index(self, tmp_path, capsys):
        # vertex 2 carries the label "0"; an unlabelled token falls back to an index
        path = tmp_path / "p3.graph"
        path.write_text("# defcol-edgelist v1\n3 2\n0 1\n1 2\nlabel 2 0\n")
        code, out, _ = run(capsys, "solve", "--graph", str(path), "--spec", "0,0,0",
                           "--force", "0=3", "--force", "1=1")
        assert code == 0
        assert json.loads(out)["coloring"] == {"0": 2, "1": 1, "2": 3}

    def test_emit_cnf(self, tmp_path, capsys):
        out_path = tmp_path / "k4.cnf"
        code, _, _ = run(
            capsys, "solve", "--graph", k4_file(tmp_path), "--spec", "0,1",
            "--emit-cnf", str(out_path),
        )
        assert code == 0
        text = out_path.read_text()
        assert text.startswith("c defcol-cnf v1")
        assert "p cnf" in text

    def test_unreadable_file(self, capsys):
        code, _, err = run(capsys, "solve", "--graph", "/no/such/file", "--spec", "0,1")
        assert code == 2
        assert "cannot read" in err

    def test_malformed_spec(self, tmp_path, capsys):
        code, _, err = run(capsys, "solve", "--graph", c5_file(tmp_path), "--spec", "a,b")
        assert code == 2


    def test_stats_are_reported(self, tmp_path, capsys):
        code, out, _ = run(capsys, "solve", "--graph", k4_file(tmp_path), "--spec", "0,1")
        doc = json.loads(out)
        assert code == 10
        assert set(doc) == {"format", "outcome", "coloring", "nodes", "budget", "stats"}
        assert doc["stats"] == {"decisions": doc["nodes"], "pieces_closed": 0,
                                "cache_hits": 0, "cache_misses": 0, "max_nesting": 0,
                                "split_visits": 0, "pick_scans": 3, "knapsack_sums": 0}


class TestForcedColors:
    @pytest.mark.parametrize("command", ["solve", "oracle"])
    def test_two_colors_forced_on_one_vertex_exit_two(self, tmp_path, capsys, command):
        path = huv_file(tmp_path, capsys)
        code, out, err = run(capsys, command, "--graph", path, "--spec", "1,1",
                             "--force", "u=1", "--force", "u=2")
        assert code == 2
        assert out == ""
        assert err == "defcol: error: vertex 0 is forced to both 1 and 2\n"

    def test_label_and_index_naming_one_vertex_conflict(self, tmp_path, capsys):
        path = huv_file(tmp_path, capsys)
        code, _, err = run(capsys, "solve", "--graph", path, "--spec", "1,1",
                           "--force", "u=1", "--force", "0=2")
        assert code == 2
        assert "forced to both" in err

    def test_identical_repeat_is_allowed(self, tmp_path, capsys):
        path = huv_file(tmp_path, capsys)
        code, out, _ = run(capsys, "solve", "--graph", path, "--spec", "1,1",
                           "--force", "u=2", "--force", "u=2")
        assert code == 0
        assert json.loads(out)["coloring"]["0"] == 2


class TestOutputErrors:
    """An output path that cannot be written exits 2 with a one-line message."""

    @pytest.mark.parametrize("command", ["gadget", "reduce", "emit-cnf", "audit"])
    def test_unwritable_output_exits_two(self, tmp_path, capsys, command):
        target = str(tmp_path / "missing" / "x")
        emb = tmp_path / "k3.emb"
        emb.write_text(dump_embedding(k3_embedding()))
        argv = {
            "gadget": ["gadget", "huv", "--out", target],
            "reduce": ["reduce", "--graph", c5_file(tmp_path), "--k", "2", "--out", target],
            "emit-cnf": ["solve", "--graph", c5_file(tmp_path), "--spec", "0,1",
                         "--emit-cnf", target],
            "audit": ["audit", "--embedding", str(emb), "--ruleset", "44", "--out", target],
        }[command]
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("defcol: error: cannot write ")
        assert err.count("\n") == 1


class TestInputErrors:
    """Malformed input exits 2 with a one-line message and no report."""

    @pytest.mark.parametrize(
        "flags,message",
        [
            (["--spec", ""], "malformed spec ''; expected e.g. 1,1"),
            (None, "either --graph or --embedding is required"),
            (["--force", "q=1"], "unknown vertex 'q'"),
            (["--force", "9999=1"], "vertex index 9999 out of range"),
            (["--force", "1"], "expected v=c, got '1'"),
            (["--force", "1=x"], "malformed color in '1=x'"),
        ],
        ids=["empty_spec", "no_input", "unknown_label", "index_out_of_range",
             "no_equals", "malformed_color"],
    )
    def test_exits_two(self, tmp_path, capsys, flags, message):
        if flags is None:
            argv = ["solve", "--spec", "1,1"]
        else:
            argv = ["solve", "--graph", c5_file(tmp_path), "--spec", "1,1", *flags]
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (2, "", f"defcol: error: {message}\n")

    @pytest.mark.parametrize(
        "command",
        [["solve", "--spec", "1,1"], ["oracle", "--spec", "1,1"], ["check", "girth"], ["check", "c4c5"]],
        ids=["solve", "oracle", "check_girth", "check_c4c5"],
    )
    def test_graph_and_embedding_together_is_a_usage_error(self, tmp_path, capsys, command):
        # --embedding was silently ignored: a 5-cycle given with a
        # triangle's embedding was solved as the 5-cycle.
        emb = tmp_path / "k3.emb"
        emb.write_text(dump_embedding(k3_embedding()))
        with pytest.raises(SystemExit) as exc:
            main([*command, "--graph", c5_file(tmp_path), "--embedding", str(emb)])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"usage: defcol {command[0]}")
        assert captured.err.endswith(
            "error: argument --embedding: not allowed with argument --graph\n")

    def test_embedding_input_solves_like_its_graph(self, tmp_path, capsys):
        code, _, _ = run(capsys, "gadget", "huv", "--out", str(tmp_path / "huv"))
        assert code == 0
        reports = [
            run(capsys, "solve", flag, str(tmp_path / f"huv.{ext}"), "--spec", "1,1",
                "--force", "u=2", "--forbid", "a=2")
            for flag, ext in (("--graph", "graph"), ("--embedding", "emb"))
        ]
        assert reports[0] == reports[1]
        assert reports[0][0] == 0


class TestOracleCommand:
    def test_matches_solve(self, tmp_path, capsys):
        path = k4_file(tmp_path)
        code_solve, out_solve, _ = run(capsys, "solve", "--graph", path, "--spec", "0,1")
        code_oracle, out_oracle, _ = run(capsys, "oracle", "--graph", path, "--spec", "0,1")
        assert code_solve == code_oracle == 10
        assert json.loads(out_solve)["outcome"] == json.loads(out_oracle)["outcome"]


class TestGadgetCommands:
    def test_huv_roundtrip_and_checks(self, tmp_path, capsys):
        code, out, _ = run(capsys, "gadget", "huv", "--out", str(tmp_path / "huv"))
        assert code == 0
        doc = json.loads(out)
        assert doc["vertex_count"] == 6
        assert set(doc["terminals"]) == {"u", "a", "b", "c", "d", "v"}
        code, out, _ = run(capsys, "check", "c4c5", "--graph", doc["files"]["graph"])
        assert code == 0
        assert json.loads(out)["c4c5_free"] is True

    def test_non1k_generation(self, tmp_path, capsys):
        code, out, _ = run(capsys, "gadget", "non1k", "--k", "1", "--out", str(tmp_path / "g"))
        assert code == 0
        doc = json.loads(out)
        assert doc["vertex_count"] == 120
        g = load_graph((tmp_path / "g.graph").read_text())
        assert g.vertex_count == 120
        assert (tmp_path / "g.emb").exists()

    def test_non1k_pipeline_is_unsat(self, tmp_path, capsys):
        code, _, _ = run(capsys, "gadget", "non1k", "--k", "1", "--out", str(tmp_path / "g"))
        assert code == 0
        code, out, _ = run(
            capsys, "solve", "--graph", str(tmp_path / "g.graph"), "--spec", "1,1",
            "--budget", "10000000",
        )
        assert code == 10
        assert json.loads(out)["outcome"] == "unsat"

    def test_byte_identical_across_runs(self, tmp_path, capsys):
        run(capsys, "gadget", "s", "--k", "1", "--out", str(tmp_path / "a"))
        run(capsys, "gadget", "s", "--k", "1", "--out", str(tmp_path / "b"))
        assert (tmp_path / "a.graph").read_bytes() == (tmp_path / "b.graph").read_bytes()
        assert (tmp_path / "a.emb").read_bytes() == (tmp_path / "b.emb").read_bytes()

    def test_reduce(self, tmp_path, capsys):
        c6 = make_graph(6, [(i, (i + 1) % 6) for i in range(6)])
        src = tmp_path / "c6.graph"
        src.write_text(dump_graph(c6))
        code, out, _ = run(
            capsys, "reduce", "--graph", str(src), "--k", "2", "--out", str(tmp_path / "r")
        )
        assert code == 0
        assert json.loads(out)["vertex_count"] == 18
        code, out, _ = run(capsys, "check", "c4c5", "--graph", str(tmp_path / "r.graph"))
        assert json.loads(out)["c4c5_free"] is True


    @pytest.mark.parametrize("command", [["gadget", "s"], ["gadget", "non1k"], ["reduce"]],
                             ids=["s", "non1k", "reduce"])
    def test_oversized_k_exits_two_fast(self, tmp_path, capsys, command):
        src = tmp_path / "p3.graph"
        src.write_text(dump_graph(make_graph(3, [(0, 1), (1, 2)])))
        if command == ["reduce"]:
            command = command + ["--graph", str(src)]
        start = time.perf_counter()
        code, out, err = run(capsys, *command, "--k", "1000000000", "--out", str(tmp_path / "x"))
        assert time.perf_counter() - start < 0.5
        assert (code, out) == (2, "")
        assert "the limits are 200000 and 600000" in err
        assert not (tmp_path / "x.graph").exists()


class TestCheckCommands:
    def test_girth(self, tmp_path, capsys):
        code, out, _ = run(capsys, "check", "girth", "--graph", c5_file(tmp_path))
        assert code == 0
        assert json.loads(out)["girth"] == 5

    def test_girth_infinite(self, tmp_path, capsys):
        path = tmp_path / "tree.graph"
        path.write_text(dump_graph(make_graph(3, [(0, 1), (1, 2)])))
        code, out, _ = run(capsys, "check", "girth", "--graph", str(path))
        assert json.loads(out)["girth"] == "infinite"

    @pytest.mark.parametrize(
        "n,edges",
        [
            (6, [(i, (i + 1) % 5) for i in range(5)] + [(5, i) for i in range(5)]),
            (9, [(i, j) for i in range(4) for j in range(i + 1, 4)]
                + [(4 + i, 4 + (i + 1) % 5) for i in range(5)]),
        ],
        ids=["wheel5", "k4_plus_c5"],
    )
    def test_c4c5_counts_when_not_free(self, tmp_path, capsys, n, edges):
        g = make_graph(n, edges)
        path = tmp_path / "g.graph"
        path.write_text(dump_graph(g))
        code, out, _ = run(capsys, "check", "c4c5", "--graph", str(path))
        assert code == 0
        assert json.loads(out) == {
            "format": "defcol-check v1",
            "kind": "c4c5",
            "c4c5_free": False,
            "cycles4": len(cycles_of_length(g, 4)),
            "cycles5": len(cycles_of_length(g, 5)),
        }

    def test_c4c5_counts_in_flat_memory(self, tmp_path, capsys):
        # K16 has 5,460 4-cycles and 52,416 5-cycles; listing them all
        # peaked at 5.1 MB
        g = make_graph(16, [(i, j) for i in range(16) for j in range(i + 1, 16)])
        path = tmp_path / "k16.graph"
        path.write_text(dump_graph(g))
        tracemalloc.start()
        try:
            code, out, _ = run(capsys, "check", "c4c5", "--graph", str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        doc = json.loads(out)
        assert (doc["cycles4"], doc["cycles5"]) == (5460, 52416)
        assert peak < 1_000_000

    def test_lemmas_requires_embedding(self, tmp_path, capsys):
        code, _, err = run(capsys, "check", "lemmas", "--graph", c5_file(tmp_path))
        assert code == 2

    def test_lemmas_report(self, tmp_path, capsys):
        path = tmp_path / "k3.emb"
        path.write_text(dump_embedding(k3_embedding()))
        code, out, _ = run(capsys, "check", "lemmas", "--embedding", str(path))
        assert code == 0
        reports = json.loads(out)["reports"]
        assert reports["bad2_face_degrees"]["status"] == "degenerate"


class TestAuditCommand:
    def test_k3_audit(self, tmp_path, capsys):
        path = tmp_path / "k3.emb"
        path.write_text(dump_embedding(k3_embedding()))
        code, out, _ = run(capsys, "audit", "--embedding", str(path), "--ruleset", "44")
        assert code == 0
        doc = json.loads(out)
        assert doc["conservation"] is True
        assert doc["final_total"] == "-12"
        assert doc["negative"]

    def test_audit_to_file(self, tmp_path, capsys):
        emb_path = tmp_path / "k3.emb"
        emb_path.write_text(dump_embedding(k3_embedding()))
        out_path = tmp_path / "audit.json"
        code, out, _ = run(
            capsys, "audit", "--embedding", str(emb_path), "--ruleset", "35",
            "--out", str(out_path),
        )
        assert code == 0
        doc = json.loads(out_path.read_text())
        assert doc["ruleset"] == "35"

    def test_unknown_ruleset(self, tmp_path, capsys):
        emb_path = tmp_path / "k3.emb"
        emb_path.write_text(dump_embedding(k3_embedding()))
        with pytest.raises(SystemExit) as exc:
            main(["audit", "--embedding", str(emb_path), "--ruleset", "99"])
        assert exc.value.code == 2
        # the same usage error as argparse gives for choices=sorted(RULESETS)
        reference = argparse.ArgumentParser(exit_on_error=False)
        reference.add_argument("--ruleset", choices=sorted(RULESETS))
        with pytest.raises(argparse.ArgumentError) as want:
            reference.parse_args(["--ruleset", "99"])
        err = capsys.readouterr().err
        assert "--ruleset {29,35,44}" in err
        assert err.splitlines()[-1] == f"defcol audit: error: {want.value}"

    def test_ruleset_choices_are_the_rulesets(self):
        assert defcol.cli.RULESET_NAMES == tuple(sorted(RULESETS))


def indented(text: str) -> str:
    """The report json.dumps(indent=2, sort_keys=True) writes for the same
    document, with print's newline."""
    return json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"


class TestReportBytes:
    """Every report is exactly the stdlib's indent=2, sort_keys=True text."""

    @pytest.mark.parametrize("ruleset", sorted(RULESETS))
    @pytest.mark.parametrize("name,emb", CORPUS, ids=[n for n, _ in CORPUS])
    def test_audit_stdout_and_file_match_recorded_digests(
        self, tmp_path, capsys, name, emb, ruleset
    ):
        text = dump_embedding(emb)
        path = tmp_path / "in.emb"
        path.write_text(text)
        # a labelled fixture comes back from its file with index vertex ids,
        # which the audit names, so its file form has digests of its own
        # (recorded from the stdlib writer's output)
        same_ids = load_embedding(text).graph.vertices == emb.graph.vertices
        key = f"{name}/{ruleset}" if same_ids else f"{name}.emb/{ruleset}"
        code, out, _ = run(capsys, "audit", "--embedding", str(path), "--ruleset", ruleset)
        assert code == 0
        assert out.endswith("}\n")
        assert hashlib.sha256(out[:-1].encode()).hexdigest() == AUDIT_DIGESTS[key]
        target = tmp_path / "audit.json"
        code, _, _ = run(capsys, "audit", "--embedding", str(path), "--ruleset", ruleset,
                         "--out", str(target))
        assert code == 0
        assert target.read_bytes() == out.encode()

    @pytest.mark.parametrize("name", sorted(CLI_INPUTS))
    def test_cli_audit_and_lemmas_stdout_match_recorded_digests(self, tmp_path, capsys, name):
        # digests of whole stdout, print's newline included, recorded from
        # the dict-building audit and the generic writer
        path = tmp_path / f"{name}.emb"
        path.write_text(dump_embedding(CLI_INPUTS[name]))
        for ruleset in sorted(RULESETS):
            code, out, _ = run(capsys, "audit", "--embedding", str(path), "--ruleset", ruleset)
            assert code == 0
            assert out.endswith("}\n")
            digest = hashlib.sha256(out.encode()).hexdigest()
            assert digest == AUDIT_DIGESTS[f"cli/{name}/{ruleset}"]
            target = tmp_path / f"{ruleset}.json"
            code, _, _ = run(capsys, "audit", "--embedding", str(path), "--ruleset", ruleset,
                             "--out", str(target))
            assert code == 0
            assert target.read_text() == out  # the report and one newline, as printed
        code, out, _ = run(capsys, "check", "lemmas", "--embedding", str(path))
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == AUDIT_DIGESTS[f"cli/{name}/lemmas"]

    def test_lemmas_and_sat_solve_reports_on_non1k(self, tmp_path, capsys):
        code, out, _ = run(capsys, "gadget", "non1k", "--k", "1", "--out", str(tmp_path / "g"))
        assert code == 0
        assert out == indented(out)
        code, out, _ = run(capsys, "check", "lemmas", "--embedding", str(tmp_path / "g.emb"))
        assert code == 0
        assert out == indented(out)
        code, out, _ = run(capsys, "solve", "--graph", str(tmp_path / "g.graph"),
                           "--spec", "4,4", "--budget", "100000")
        assert code == 0
        assert len(json.loads(out)["coloring"]) >= 100
        assert out == indented(out)


# '"', '\\', control characters, non-ASCII and astral characters, each
# drawn often, beside arbitrary code points
TRICKY = st.sampled_from(['"', "\\", "\x00", "\x1f", "\x7f", "\n", "\t", "/", "\u00e9",
                          "\u2028", "\u20ac", "\U0001f600", "\U0010ffff"])
STRINGS = st.text(st.one_of(TRICKY, st.characters()), max_size=6)


class Level(IntEnum):
    LOW = -1
    ZERO = 0
    ONE = 1
    HUGE = 2**70


class Text(str):
    pass


class Items(list):
    pass


# subclasses of the report types, which json writes as their base type
SCALARS = st.one_of(
    STRINGS,
    st.integers(-2, 2),
    st.integers(),
    st.integers(-(2**200), 2**200),
    st.booleans(),
    st.none(),
    st.sampled_from(Level),
    STRINGS.map(Text),
)


def trees(depth: int):
    """JSON trees of dicts, lists and tuples at most `depth` containers deep,
    with OrderedDicts, list subclasses and str subclass keys among them."""
    if depth == 0:
        return SCALARS
    sub = trees(depth - 1)
    return st.one_of(
        SCALARS,
        st.lists(sub, max_size=3),
        st.lists(sub, max_size=3).map(tuple),
        st.lists(sub, max_size=3).map(Items),
        st.dictionaries(STRINGS, sub, max_size=3),
        st.dictionaries(STRINGS | STRINGS.map(Text), sub, max_size=3).map(OrderedDict),
    )


class TestReportWriter:
    @settings(max_examples=300, deadline=None)
    @given(trees(8))
    def test_matches_stdlib_indent_sort_keys(self, tree):
        assert _dumps(tree) == json.dumps(tree, indent=2, sort_keys=True)

    @settings(max_examples=50, deadline=None)  # each example runs two full collections
    @given(trees(8))
    def test_leaves_no_reference_cycles(self, tree):
        # main pauses the collector, so what a report leaves must be freed
        # by reference counting alone
        enabled = gc.isenabled()
        gc.disable()
        try:
            gc.collect()
            _dumps(tree)
            assert gc.collect() == 0
        finally:
            if enabled:
                gc.enable()

    def test_deep_nesting(self):
        tree = {"leaf": "x", "empty": [{}, [], ()]}
        for i in range(300):
            tree = [tree] if i % 2 else [i, tree]
        assert _dumps(tree) == json.dumps(tree, indent=2, sort_keys=True)

    @pytest.mark.parametrize(
        "doc",
        [
            {"charge": Fraction(1, 2)},
            [Fraction(-3)],
            {1: "a"},
            {"a": {None: 1}},
            [0.5],
            Fraction(1, 3),
            1.0,
            {"a": 1, "b": 0.5, "c": "x"},
            {"a": [], "b": Fraction(1, 2)},
            ["x", 2, 0.5],
            [None, Fraction(2, 3), True],
            [{"a": [1, 0.25]}],
            {"a": {"b": [Fraction(1, 2)]}},
        ],
        ids=["fraction_value", "fraction_in_list", "int_key", "none_key", "float",
             "fraction_alone", "float_alone", "float_value_among_items",
             "fraction_value_among_items", "float_item_among_items",
             "fraction_item_among_items", "nested_float", "nested_fraction"],
    )
    def test_values_outside_the_report_types_raise(self, doc):
        # charge ledgers are stringified by build_audit, never by the writer
        with pytest.raises(TypeError):
            _dumps(doc)


class TestUsageErrors:
    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_unknown_flag(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["gadget", "huv", "--out", str(tmp_path / "x"), "--bogus"])
        assert exc.value.code == 2


def fresh_command(*argv):
    """The command line and environment that run the CLI in a new interpreter."""
    src = str(Path(defcol.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return [sys.executable, "-m", "defcol.cli", *argv], env


def fresh_run(*argv):
    """Run the CLI in a new interpreter; returns (exit code, stdout, stderr)."""
    command, env = fresh_command(*argv)
    proc = subprocess.run(command, capture_output=True, text=True, env=env)
    return proc.returncode, proc.stdout, proc.stderr


class TestClosedStdout:
    def test_reader_closing_early_gets_one_error_line(self, tmp_path, capsys):
        prefix = tmp_path / "non1k1"
        assert main(["gadget", "non1k", "--k", "1", "--out", str(prefix)]) == 0
        capsys.readouterr()
        argv = ["audit", "--embedding", f"{prefix}.emb", "--ruleset", "35"]
        assert len(run(capsys, *argv)[1]) > 2**16  # more than a pipe buffer holds
        command, env = fresh_command(*argv)
        proc = subprocess.Popen(command, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        assert proc.stdout.read(10) == b'{\n  "conse'
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 2
        # one line: no traceback, no "Exception ignored" from the exit flush
        assert err == "defcol: error: output closed before it was all written\n"


class TestMemoryExhaustion:
    """A command that runs out of memory ends with exit 2 and one stderr line."""

    @pytest.mark.parametrize("name, extra", [("solve", []), ("export_cnf", ["--emit-cnf"])],
                             ids=["solve", "emit_cnf"])
    def test_memory_error_exits_two(self, tmp_path, capsys, monkeypatch, name, extra):
        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(defcol.cli, name, exhausted)
        argv = ["solve", "--graph", huv_file(tmp_path, capsys), "--spec", "1,1"]
        if extra:
            argv += [*extra, str(tmp_path / "huv.cnf")]
        assert run(capsys, *argv) == (2, "", "defcol: error: out of memory\n")

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="needs an enforced RLIMIT_AS")
    def test_capped_address_space_exits_two(self, tmp_path):
        resource = pytest.importorskip("resource")
        cap = 1_500_000 * 1024  # what `ulimit -v 1500000` sets
        hard = resource.getrlimit(resource.RLIMIT_AS)[1]
        if hard != resource.RLIM_INFINITY and hard < cap:
            pytest.skip("the address space is already capped lower")
        n = 100_000
        path = tmp_path / "path.graph"
        path.write_text(dump_graph(make_graph(n, [(i, i + 1) for i in range(n - 1)])))
        # 3,000 zero-defect classes: the solver's n * k counts would take 2.4 GB
        command, env = fresh_command("solve", "--graph", str(path),
                                     "--spec", ",".join(["0"] * 3000), "--budget", "10")
        proc = subprocess.run(
            command, capture_output=True, text=True, env=env, timeout=120,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, hard)),
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            2, "", "defcol: error: out of memory\n")


class TestRepeatedCalls:
    """`main` builds its parser once per process; no call leaks into the next."""

    def test_parser_is_built_once(self):
        assert _build_parser() is _build_parser()

    def test_force_and_forbid_do_not_carry_over(self, tmp_path, capsys):
        plain = ["solve", "--graph", huv_file(tmp_path, capsys), "--spec", "1,1"]
        forced = [*plain, "--force", "u=2", "--force", "v=2"]
        for interior in "abcd":
            forced += ["--forbid", f"{interior}=2"]
        first = run(capsys, *forced)
        second = run(capsys, *plain)
        assert (first[0], second[0]) == (10, 0)
        assert first == fresh_run(*forced)
        assert second == fresh_run(*plain)

    def test_usage_error_leaves_no_trace(self, tmp_path, capsys):
        valid = ["solve", "--graph", huv_file(tmp_path, capsys), "--spec", "1,1"]
        with pytest.raises(SystemExit) as exc:
            main([*valid, "--force", "u=2", "--bogus"])
        assert exc.value.code == 2
        capsys.readouterr()
        assert run(capsys, *valid)[1] == fresh_run(*valid)[1]

    def test_console_script_reads_sys_argv(self, tmp_path, capsys, monkeypatch):
        path = huv_file(tmp_path, capsys)  # the parser is built by now
        argv = ["check", "c4c5", "--graph", path]
        monkeypatch.setattr(sys, "argv", ["/usr/local/bin/defcol", *argv])
        code = main()
        assert (code, capsys.readouterr().out) == fresh_run(*argv)[:2]
        monkeypatch.setattr(sys, "argv", ["another-name", "solve", "--graph", path])
        with pytest.raises(SystemExit) as exc:
            main()
        assert exc.value.code == 2
        assert capsys.readouterr().err.startswith("usage: defcol solve")


# An underscore, a sign, an Arabic-Indic digit and a leading space: bare
# int() took all four.
LOOSE_INTEGERS = ["1_0", "+1", "\u0661", " 1"]
LOOSE_IDS = ["underscore", "sign", "arabic", "space"]


class TestStrictIntegers:
    """Every integer the CLI reads is ASCII `-?[0-9]+`, as in the loaders."""

    @pytest.mark.parametrize("token", LOOSE_INTEGERS, ids=LOOSE_IDS)
    @pytest.mark.parametrize("where", ["spec", "color", "index"])
    def test_cli_errors_exit_two(self, tmp_path, capsys, where, token):
        argv = ["solve", "--graph", c5_file(tmp_path), "--spec"]
        if where == "spec":
            argv += [f"{token},1"]
            message = f"malformed spec {token + ',1'!r}; expected e.g. 1,1"
        elif where == "color":
            argv += ["1,1", "--force", f"0={token}"]
            message = f"malformed color in {'0=' + token!r}"
        else:
            argv += ["1,1", "--force", f"{token}=1"]
            message = f"unknown vertex {token!r}"
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (2, "", f"defcol: error: {message}\n")

    @pytest.mark.parametrize("token", LOOSE_INTEGERS, ids=LOOSE_IDS)
    @pytest.mark.parametrize("where", ["budget", "gadget_k", "reduce_k"])
    def test_usage_errors_exit_two(self, tmp_path, capsys, where, token):
        graph, out = c5_file(tmp_path), str(tmp_path / "x")
        argv, flag = {
            "budget": (["solve", "--graph", graph, "--spec", "1,1", "--budget", token], "--budget"),
            "gadget_k": (["gadget", "s", "--k", token, "--out", out], "--k"),
            "reduce_k": (["reduce", "--graph", graph, "--k", token, "--out", out], "--k"),
        }[where]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(f"error: argument {flag}: invalid int value: {token!r}\n")
        assert not (tmp_path / "x.graph").exists()

    def test_plain_integers_still_parse(self, tmp_path, capsys):
        assert run(capsys, "gadget", "s", "--k", "01", "--out", str(tmp_path / "s"))[0] == 0
        code, out, _ = run(capsys, "solve", "--graph", c5_file(tmp_path), "--spec", "00,01",
                           "--force", "00=02", "--budget", "0100")
        assert code == 0
        assert json.loads(out)["coloring"]["0"] == 2


@pytest.fixture
def collector():
    """Puts the cyclic collector back as it was after the test."""
    enabled = gc.isenabled()
    yield
    if enabled:
        gc.enable()
    else:
        gc.disable()


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """The huv widget's graph, non_1k(2)'s graph and embedding, and the wheel W5."""
    root = tmp_path_factory.mktemp("pause")
    huv = root / "huv.graph"
    huv.write_text(dump_graph(triangle_link().graph))
    wheel = make_graph(6, [(i, (i + 1) % 5) for i in range(5)] + [(5, i) for i in range(5)])
    (root / "w5.graph").write_text(dump_graph(wheel))
    gadget = non_1k(2)
    (root / "n2.graph").write_text(dump_graph(gadget.graph))
    (root / "n2.emb").write_text(dump_embedding(gadget.embedding))
    return root


class TestCollectorPause:
    """`main` runs each command with the cyclic collector paused and hands
    the caller's collector state back; no command leaves cyclic garbage."""

    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    @pytest.mark.parametrize(
        "argv,code",
        [
            (["solve", "--graph", "@c5", "--spec", "0,1"], 0),
            (["solve", "--graph", "@k4", "--spec", "0,1"], 10),
            (["solve", "--graph", "@k4", "--spec", "0,1", "--budget", "1"], 20),
            (["solve", "--graph", "@k4", "--spec", "x"], 2),
            (["solve", "--graph", "@k4"], SystemExit),
            (["check", "girth", "--graph", "@c5"], RuntimeError),
        ],
        ids=["sat", "unsat", "budget", "cli_error", "usage_error", "unexpected"],
    )
    def test_state_is_restored(self, tmp_path, capsys, monkeypatch, collector,
                               enabled, argv, code):
        files = {"@c5": c5_file(tmp_path), "@k4": k4_file(tmp_path)}
        argv = [files.get(a, a) for a in argv]

        def broken(g):
            assert not gc.isenabled()
            raise RuntimeError("unexpected")

        monkeypatch.setattr(defcol.cli, "girth", broken)
        (gc.enable if enabled else gc.disable)()
        if isinstance(code, int):
            assert main(argv) == code
        else:
            with pytest.raises(code):
                main(argv)
        assert gc.isenabled() is enabled

    @pytest.mark.parametrize(
        "argv,code",
        [
            (["solve", "--graph", "@huv.graph", "--spec", "1,1"], 0),
            (["solve", "--graph", "@n2.graph", "--spec", "1,2", "--budget", "100000"], 10),
            (["solve", "--graph", "@n2.graph", "--spec", "1,2", "--budget", "3"], 20),
            (["solve", "--graph", "@n2.graph", "--spec", "1,2", "--emit-cnf", "@n2.cnf"], 0),
            (["oracle", "--graph", "@huv.graph", "--spec", "1,1", "--force", "u=2"], 0),
            (["gadget", "non1k", "--k", "2", "--out", "@g"], 0),
            (["reduce", "--graph", "@n2.graph", "--k", "2", "--out", "@r"], 0),
            (["check", "girth", "--graph", "@n2.graph"], 0),
            (["check", "c4c5", "--graph", "@n2.graph"], 0),
            (["check", "c4c5", "--graph", "@w5.graph"], 0),
            (["check", "lemmas", "--embedding", "@n2.emb"], 0),
            (["audit", "--embedding", "@n2.emb", "--ruleset", "35"], 0),
            (["audit", "--embedding", "@n2.emb", "--ruleset", "29", "--out", "@a.json"], 0),
        ],
        ids=["solve_sat", "solve_unsat", "solve_budget", "solve_emit_cnf", "oracle",
             "gadget", "reduce", "check_girth", "check_c4c5", "check_c4c5_cycles",
             "check_lemmas", "audit_stdout", "audit_out"],
    )
    def test_leaves_no_cyclic_garbage(self, inputs, capsys, collector, argv, code):
        _build_parser()  # the parser lives for the whole process
        argv = [str(inputs / a[1:]) if a[0] == "@" else a for a in argv]
        gc.disable()
        gc.collect()
        assert main(argv) == code
        assert gc.collect() == 0

    def test_full_collection_when_due(self, tmp_path, capsys, monkeypatch, collector):
        starts = []

        def watch(phase, info):
            if phase == "start":
                starts.append(info["generation"])

        monkeypatch.setattr(defcol.cli, "_next_full_collection", 0.0)
        gc.enable()
        gc.callbacks.append(watch)
        try:
            assert main(["check", "girth", "--graph", c5_file(tmp_path)]) == 0
        finally:
            gc.callbacks.remove(watch)
        assert 2 in starts
        assert defcol.cli._next_full_collection > 0.0

    @pytest.mark.parametrize("enabled,due", [(True, False), (False, True)],
                             ids=["not_due", "collector_off"])
    def test_no_full_collection(self, tmp_path, capsys, monkeypatch, collector, enabled, due):
        deadline = 0.0 if due else time.monotonic() + 3600.0
        monkeypatch.setattr(defcol.cli, "_next_full_collection", deadline)
        (gc.enable if enabled else gc.disable)()
        assert main(["check", "girth", "--graph", c5_file(tmp_path)]) == 0
        assert defcol.cli._next_full_collection == deadline
