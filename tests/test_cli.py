import hashlib
import json
import os
import subprocess
import sys
import time
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
)
import defcol
from defcol.cli import _build_parser, _dumps, main

from corpus import corpus, k3_embedding

AUDIT_DIGESTS = json.loads((Path(__file__).parent / "audit_digests.json").read_text())
CORPUS = corpus()


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
SCALARS = st.one_of(
    STRINGS,
    st.integers(-2, 2),
    st.integers(),
    st.integers(-(2**200), 2**200),
    st.booleans(),
    st.none(),
)


def trees(depth: int):
    """JSON trees of dicts, lists and tuples at most `depth` containers deep."""
    if depth == 0:
        return SCALARS
    sub = trees(depth - 1)
    return st.one_of(
        SCALARS,
        st.lists(sub, max_size=3),
        st.lists(sub, max_size=3).map(tuple),
        st.dictionaries(STRINGS, sub, max_size=3),
    )


class TestReportWriter:
    @settings(max_examples=300, deadline=None)
    @given(trees(8))
    def test_matches_stdlib_indent_sort_keys(self, tree):
        assert _dumps(tree) == json.dumps(tree, indent=2, sort_keys=True)

    def test_deep_nesting(self):
        tree = {"leaf": "x", "empty": [{}, [], ()]}
        for i in range(300):
            tree = [tree] if i % 2 else [i, tree]
        assert _dumps(tree) == json.dumps(tree, indent=2, sort_keys=True)

    @pytest.mark.parametrize(
        "doc",
        [{"charge": Fraction(1, 2)}, [Fraction(-3)], {1: "a"}, {"a": {None: 1}}, [0.5]],
        ids=["fraction_value", "fraction_in_list", "int_key", "none_key", "float"],
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


def fresh_run(*argv):
    """Run the CLI in a new interpreter; returns (exit code, stdout, stderr)."""
    src = str(Path(defcol.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-m", "defcol.cli", *argv],
                          capture_output=True, text=True, env=env)
    return proc.returncode, proc.stdout, proc.stderr


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
