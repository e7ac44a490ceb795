"""What a one-shot `defcol` process loads: the command line imports only the
layers every command needs, and `discharging` is loaded by the first
`audit` or `check lemmas`. Each case runs in a fresh interpreter, since
this process has long since imported everything."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import defcol
from defcol import dump_embedding, dump_graph, non_1k, triangle_link

SRC = Path(defcol.__file__).parents[1]
# what only dataclass records (dataclasses, and the inspect it imports) or the
# charge ledgers (discharging and its Fraction) would need
DEFERRED = ("dataclasses", "inspect", "fractions", "defcol.discharging")

# Imports defcol.cli, then runs sys.argv[2:] through main with the parser
# built and the collector paused and emptied beforehand; prints which of the
# modules named in sys.argv[1] the import added, which were loaded after the
# command, the exit code and what a full collection afterwards found.
PROBE = """
import contextlib, gc, io, json, sys
deferred = json.loads(sys.argv[1])
before = set(sys.modules)
import defcol.cli
on_import = sorted(set(deferred) & (set(sys.modules) - before))
defcol.cli._build_parser()
gc.disable()
gc.collect()
with contextlib.redirect_stdout(io.StringIO()):
    code = defcol.cli.main(sys.argv[2:])
garbage = gc.collect()
after = sorted(m for m in deferred if m in sys.modules and m not in before)
print(json.dumps({"import": on_import, "after": after, "code": code, "garbage": garbage}))
"""


def probe(*argv):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", PROBE, json.dumps(DEFERRED), *argv],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("startup")
    gadget = non_1k(1)
    (root / "n1.graph").write_text(dump_graph(gadget.graph))
    (root / "n1.emb").write_text(dump_embedding(gadget.embedding))
    (root / "huv.graph").write_text(dump_graph(triangle_link().graph))
    return root


COMMANDS = {
    "solve": (["solve", "--graph", "@n1.graph", "--spec", "1,1", "--budget", "100000"], 10),
    "solve_emit_cnf": (["solve", "--graph", "@huv.graph", "--spec", "1,1",
                        "--emit-cnf", "@huv.cnf"], 0),
    "oracle": (["oracle", "--graph", "@huv.graph", "--spec", "1,1"], 0),
    "gadget": (["gadget", "non1k", "--k", "2", "--out", "@g"], 0),
    "reduce": (["reduce", "--graph", "@n1.graph", "--k", "2", "--out", "@r"], 0),
    "check_girth": (["check", "girth", "--graph", "@n1.graph"], 0),
    "check_c4c5": (["check", "c4c5", "--embedding", "@n1.emb"], 0),
    "check_lemmas": (["check", "lemmas", "--embedding", "@n1.emb"], 0),
    "audit": (["audit", "--embedding", "@n1.emb", "--ruleset", "44"], 0),
}
LOADS_DISCHARGING = {"check_lemmas", "audit"}


@pytest.mark.parametrize("command", COMMANDS)
def test_first_command_loads_only_what_it_runs(inputs, command):
    argv, code = COMMANDS[command]
    result = probe(*[str(inputs / a[1:]) if a[0] == "@" else a for a in argv])
    assert result["import"] == []
    assert result["code"] == code
    if command in LOADS_DISCHARGING:
        assert "defcol.discharging" in result["after"]
        assert set(result["after"]) <= {"defcol.discharging", "fractions"}
    else:
        assert result["after"] == []
    assert result["garbage"] == 0


def test_package_import_loads_no_layer():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    script = "import sys, defcol; print(sorted(m for m in sys.modules if m.startswith('defcol')))"
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env=env, timeout=60, check=True).stdout
    assert out.strip() == "['defcol']"


def test_cli_import_loads_no_pathlib():
    # -S: a .pth file that site runs may import pathlib itself
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    script = "import sys, defcol.cli; print('pathlib' in sys.modules)"
    out = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True, text=True,
                         env=env, timeout=60, check=True).stdout
    assert out.strip() == "False"


def test_no_module_imports_dataclasses():
    for path in sorted((SRC / "defcol").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            assert not any(m.split(".")[0] == "dataclasses" for m in modules), path.name
