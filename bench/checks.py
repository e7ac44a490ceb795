"""Output checks: known answers, byte pins and CNF structure.

A wrong answer is a correctness violation: a wrong verdict, a sat coloring
that `is_valid_coloring` rejects, a structural value other than the one the
construction fixes, or changed bytes where bytes are pinned. It is distinct
from a failed operation, one that raised or left the exit-code contract,
which the runner counts but does not check.

CNF output is checked for structure only, because a better encoding may
legitimately change its bytes.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

CONTRACT_EXIT_CODES = frozenset({0, 10, 20, 2})
SOLVE_EXIT = {"sat": 0, "unsat": 10, "budget": 20}
# expected verdict -> outcomes that are not wrong; a budget stop is never a wrong answer
ACCEPTED = {
    "sat": {"sat", "budget"},
    "unsat": {"unsat", "budget"},
    "not_sat": {"unsat", "budget"},
}

PINS_FILE = Path(__file__).with_name("pins.json")


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def load_pins() -> dict[str, str]:
    return json.loads(PINS_FILE.read_text())


def pinned_digests(op, stdout: str) -> dict[str, str]:
    """Digest of every pinned output of one operation, by pin key."""
    return {
        key: digest(stdout.encode() if role == "stdout" else Path(role).read_bytes())
        for key, role in op.expect.get("pins", {}).items()
    }


def _output_files(op) -> list[str]:
    files = [role for role in op.expect.get("pins", {}).values() if role != "stdout"]
    if op.expect["kind"] == "cnf":
        files.append(op.expect["path"])
    return files


def cnf_problems(text: str, num_vars: int, num_clauses: int, min_vars: int) -> list[str]:
    """Structural defects of a DIMACS document against its reported size."""
    header = None
    clauses = 0
    for line in text.splitlines():
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "p":
            if header is not None:
                return ["second problem line"]
            if len(parts) != 4 or parts[1] != "cnf":
                return [f"malformed problem line {line!r}"]
            header = (int(parts[2]), int(parts[3]))
            continue
        if header is None:
            return ["clause before the problem line"]
        if parts[-1] != "0":
            return [f"clause line {clauses + 1} does not end in 0"]
        for tok in parts[:-1]:
            lit = int(tok)
            if lit == 0 or abs(lit) > header[0]:
                return [f"literal {lit} out of range 1..{header[0]}"]
        clauses += 1
    if header is None:
        return ["no problem line"]
    problems = []
    if clauses != header[1]:
        problems.append(f"header says {header[1]} clauses, file has {clauses}")
    if header != (num_vars, num_clauses):
        problems.append(f"header {header} differs from reported ({num_vars}, {num_clauses})")
    if header[0] < min_vars:
        problems.append(f"{header[0]} variables cannot hold every color variable")
    return problems


def coloring_problems(op, raw) -> list[str]:
    """Re-check a reported sat coloring against the generated graph."""
    from defcol import is_valid_coloring

    g = op.expect["graph"]
    spec = tuple(int(t) for t in op.expect["spec"].split(","))
    try:
        coloring = {}
        for index, color in raw.items():
            i = int(index)
            if not 0 <= i < g.vertex_count:
                return [f"coloring names vertex index {i} outside the graph"]
            coloring[g.vertices[i]] = color
        valid = is_valid_coloring(g, spec, coloring)
    except (AttributeError, TypeError, ValueError) as exc:
        return [f"malformed coloring: {exc}"]
    return [] if valid else ["is_valid_coloring rejects the sat coloring"]


def _solve_problems(op, rc, doc) -> tuple[list[str], bool]:
    status = doc.get("outcome")
    if status not in SOLVE_EXIT:
        return [f"unknown outcome {status!r}"], False
    problems = []
    if rc != SOLVE_EXIT[status]:
        problems.append(f"exit code {rc} does not match outcome {status}")
    expected = op.expect["verdict"]
    if status not in ACCEPTED[expected]:
        problems.append(f"wrong verdict: expected {expected}, got {status}")
    elif status == "sat":
        problems += coloring_problems(op, doc.get("coloring"))
    return problems, status in ("sat", "unsat")


def _graph_header(path: str) -> tuple[int, int] | None:
    lines = [ln for ln in Path(path).read_text().splitlines() if ln and not ln.startswith("#")]
    try:
        n, m = lines[0].split()
        return int(n), int(m)
    except (IndexError, ValueError):
        return None


def _problems(op, rc, stdout, pins) -> tuple[list[str], bool]:
    kind = op.expect["kind"]
    if kind != "solve" and rc != 0:
        return [f"exit code {rc}, expected 0"], False
    try:
        doc = json.loads(stdout)
    except ValueError:
        doc = None
    if not isinstance(doc, dict):
        return ["stdout is not one JSON object"], False
    problems: list[str] = []
    verdict = False
    if kind == "solve":
        problems, verdict = _solve_problems(op, rc, doc)
    elif kind == "girth":
        if doc.get("girth") != op.expect["value"]:
            problems.append(f"girth {doc.get('girth')!r}, expected {op.expect['value']!r}")
    elif kind == "c4c5":
        found = (doc.get("c4c5_free"), doc.get("cycles4"), doc.get("cycles5"))
        if found != (True, 0, 0):
            problems.append(f"c4c5 report {found}, expected (True, 0, 0)")
    elif kind == "gadget":
        files = list(op.expect["pins"].values())
        reported = doc.get("files")
        if not isinstance(reported, dict) or sorted(reported.values()) != sorted(files):
            problems.append(f"reported files {reported} differ from {files}")
        elif (doc.get("vertex_count"), doc.get("edge_count")) != _graph_header(files[0]):
            problems.append("reported vertex or edge count differs from the written graph")
    elif kind == "cnf":
        text = Path(op.expect["path"]).read_text()
        try:
            problems += cnf_problems(text, doc.get("vars"), doc.get("clauses"),
                                     op.expect["min_vars"])
        except ValueError as exc:
            problems.append(f"malformed DIMACS: {exc}")
    elif kind != "pinned":
        raise ValueError(f"unknown check kind {kind!r}")
    for key, found in pinned_digests(op, stdout).items():
        if key not in pins:
            problems.append(f"no byte pin recorded for {key}")
        elif pins[key] != found:
            problems.append(f"bytes changed for {key}")
    return problems, verdict


class Checker:
    """Checks completed operations; an output identical to one already
    verified for the same operation is not checked again."""

    def __init__(self, pins: dict[str, str]):
        self.pins = pins
        self._verified: dict[tuple, bool] = {}

    def check(self, op, rc: int, stdout: str) -> tuple[list[str], bool]:
        """Violations of one completed operation, each prefixed with its
        name, and whether it was a solve that reached sat or unsat."""
        try:
            files = tuple(digest(Path(p).read_bytes()) for p in _output_files(op))
        except OSError as exc:
            return [f"{op.name}: cannot read output: {exc}"], False
        key = (op.name, rc, digest(stdout.encode()), files)
        if key in self._verified:
            return [], self._verified[key]
        problems, verdict = _problems(op, rc, stdout, self.pins)
        if not problems:
            self._verified[key] = verdict
        return [f"{op.name}: {p}" for p in problems], verdict
