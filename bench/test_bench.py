"""Self-tests of the benchmark: deterministic inputs, a checker that catches
planted wrong answers, and a result format that matches BENCHMARK.json.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import io
import json
import re
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

from defcol import cli  # noqa: E402


def _files(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def _run_cli(op) -> tuple[int, str]:
    stdout = io.StringIO()
    with redirect_stdout(stdout):
        rc = cli.main(list(op.argv))
    return rc, stdout.getvalue()


def _op(ops, name):
    return next(op for op in ops if op.name == name)


@pytest.fixture
def checker():
    return checks.Checker(checks.load_pins())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_one_seed_generates_identical_bytes(tmp_path, workload):
    a = workloads.generate(workload, 11, tmp_path / "a")
    b = workloads.generate(workload, 11, tmp_path / "b")
    assert _files(tmp_path / "a" / "in") == _files(tmp_path / "b" / "in")
    def argv(ops, d):
        return [[arg.replace(str(tmp_path / d), "") for arg in op.argv] for op in ops]

    assert argv(a, "a") == argv(b, "b")
    assert len({op.name for op in a}) == len(a)


def test_seed_picks_sizes_inside_the_windows(tmp_path):
    for seed in range(6):
        ops = workloads.generate("audit", seed, tmp_path / str(seed))
        counts = sorted({int(re.search(r"hex(\d+)", op.name)[1]) for op in ops if "hex" in op.name})
        windows = workloads.AUDIT_HEX_WINDOWS
        assert len(counts) == len(windows)
        assert all(lo <= c <= hi for c, (lo, hi) in zip(counts, windows))


def test_ladder_names_match_vertex_counts(tmp_path):
    ops = workloads.generate("certify", 0, tmp_path)
    ladder = {op.name: op.expect["graph"].vertex_count
              for op in ops if op.name.startswith("ladder_")}
    assert ladder == dict(zip(workloads.LADDER_OPS, workloads.LADDER_SIZES))


def test_checker_flags_a_planted_wrong_verdict(tmp_path, checker):
    ops = workloads.generate("certify", 0, tmp_path)
    op = _op(ops, "hub_k1")
    rc, stdout = _run_cli(op)
    assert checker.check(op, rc, stdout) == ([], True)
    planted = json.loads(stdout)
    planted["outcome"] = "sat"
    planted["coloring"] = {str(i): 1 for i in range(op.expect["graph"].vertex_count)}
    violations, _ = checker.check(op, 0, json.dumps(planted))
    assert any("wrong verdict" in v for v in violations)


def test_checker_rejects_an_invalid_sat_coloring(tmp_path, checker):
    ops = workloads.generate("certify", 0, tmp_path)
    op = _op(ops, "non1k_k1_sat")
    rc, stdout = _run_cli(op)
    assert checker.check(op, rc, stdout) == ([], True)
    planted = json.loads(stdout)
    planted["coloring"] = {key: 1 for key in planted["coloring"]}
    violations, _ = checker.check(op, 0, json.dumps(planted))
    assert any("is_valid_coloring rejects" in v for v in violations)


def test_checker_flags_a_planted_changed_byte(tmp_path, checker):
    ops = workloads.generate("audit", 0, tmp_path)
    op = _op(ops, "audit_non1k_k1_44")
    rc, stdout = _run_cli(op)
    assert checker.check(op, rc, stdout) == ([], False)
    planted = stdout.replace('"-12"', '"-11"', 1)
    assert checker.check(op, rc, planted)[0] == [f"{op.name}: bytes changed for audit.non1k_k1.44"]


def test_checker_flags_a_changed_byte_in_a_written_file(tmp_path, checker):
    ops = workloads.generate("export", 0, tmp_path)
    op = _op(ops, "s_k2")
    rc, stdout = _run_cli(op)
    assert checker.check(op, rc, stdout) == ([], False)
    emb = Path(op.expect["pins"]["gadget.s_k2.emb"])
    emb.write_bytes(emb.read_bytes().replace(b"rot 0:", b"rot 0: ", 1))
    assert checker.check(op, rc, stdout)[0] == [f"{op.name}: bytes changed for gadget.s_k2.emb"]


def test_cnf_structure_check():
    good = "c defcol-cnf v1\np cnf 4 2\n1 -2 0\n3 4 0\n"
    assert checks.cnf_problems(good, 4, 2, 4) == []
    assert checks.cnf_problems(good.replace("3 4", "3 5"), 4, 2, 4)
    assert checks.cnf_problems(good.replace("p cnf 4 2", "p cnf 4 3"), 4, 3, 4)
    assert checks.cnf_problems(good, 4, 2, 6)


def test_traced_pass_records_layers_and_restores_bindings(tmp_path, checker):
    ops = workloads.generate("export", 0, tmp_path)
    original = (cli.solve, cli.ALL_VALIDATORS, cli.dump_graph)
    tracer = spans.Tracer()
    tracer.start_pass()
    with spans.instrument(tracer):
        result = run.run_pass(ops, checker, tracer)
    assert (cli.solve, cli.ALL_VALIDATORS, cli.dump_graph) == original
    assert result.failed == 0 and result.violations == []
    m = spans.pass_metrics(tracer.passes[0], (), (), set())
    assert m["cli.calls"] == len(ops)
    assert m["gadgets.vertices"] > 0 and m["cnf.clauses"] > 0
    assert m["cnf.dimacs_s"] > 0 and m["graphs.dump_s"] > 0 and m["embedding.dump_s"] > 0
    op_spans = [s for s in tracer.passes[0] if s[spans.NAME] == spans.OP_SPAN]
    assert 0 < m["cli.self_s"] < sum(s[spans.END] - s[spans.START] for s in op_spans)


def test_result_metrics_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
