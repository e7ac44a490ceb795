"""Batch command-line front end.

Subcommands: solve, oracle, gadget, reduce, check, audit. All reports are
JSON on stdout; graphs and embeddings travel in the versioned text formats.
Exit codes: 0 success / Sat, 10 Unsat, 20 budget exhausted, 2 usage or
input errors, or memory exhausted.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from functools import cache
from time import monotonic

from .cnf import export_cnf
from .coloring import ConstraintSet, SolveOutcome, brute_force_oracle, solve
from .embedding import dump_embedding, load_embedding
from .gadgets import GadgetResult, hub_gadget, non_1k, np_reduce, triangle_link
from .graphs import Graph, _int_token, _iter_cycles, dump_graph, girth, is_c4c5_free, load_graph
# not called: bench/spans.py wraps it by this name
from .graphs import cycles_of_length
from .report import dumps as _dumps

EXIT_SAT = 0
EXIT_UNSAT = 10
EXIT_BUDGET = 20
EXIT_ERROR = 2

BUDGET_FREE_LIMIT = 30  # above this vertex count, solve demands a budget
DEFAULT_SMALL_BUDGET = 10**9

# sorted(discharging.RULESETS), written out so that parsing a command line
# does not load discharging, which only audit and check lemmas use
RULESET_NAMES = ("29", "35", "44")


def __getattr__(name: str):
    """discharging's `ALL_VALIDATORS` and `build_audit`, which the CLI does
    not call: bench/spans.py wraps them by these names. The first access
    loads discharging."""
    if name in ("ALL_VALIDATORS", "build_audit"):
        from . import discharging

        return getattr(discharging, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class CliError(Exception):
    pass


def _read(path: str) -> str:
    try:
        with open(path) as f:
            return f.read()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w") as f:
            f.write(text)
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc}") from exc


def _load_graph_arg(args) -> Graph:
    if args.graph:
        return load_graph(_read(args.graph))
    if args.embedding:
        return load_embedding(_read(args.embedding)).graph
    raise CliError("either --graph or --embedding is required")


def _parse_spec(text: str) -> tuple[int, ...]:
    try:
        return tuple(_int_token(tok) for tok in text.split(","))
    except ValueError as exc:
        raise CliError(f"malformed spec {text!r}; expected e.g. 1,1") from exc


def _resolve_vertex(g: Graph, by_label: dict, token: str):
    if token in by_label:
        return by_label[token]
    try:
        index = _int_token(token)
    except ValueError:
        raise CliError(f"unknown vertex {token!r}") from None
    if not (0 <= index < g.vertex_count):
        raise CliError(f"vertex index {index} out of range")
    return g.vertices[index]


def _parse_assignments(g: Graph, by_label: dict, pairs: list[str]) -> list[tuple[object, int]]:
    out = []
    for item in pairs:
        if "=" not in item:
            raise CliError(f"expected v=c, got {item!r}")
        vtok, ctok = item.split("=", 1)
        try:
            c = _int_token(ctok)
        except ValueError:
            raise CliError(f"malformed color in {item!r}") from None
        out.append((_resolve_vertex(g, by_label, vtok), c))
    return out


def _int_arg(token: str) -> int:
    """argparse's converter for integer options: ASCII `-?[0-9]+` only."""
    return _int_token(token)


_int_arg.__name__ = "int"  # argparse names it in "invalid int value: '1_0'"


def _constraints(g: Graph, args) -> ConstraintSet:
    by_label = {name: v for v, name in g.labels.items()}
    forced: dict[object, int] = {}
    for v, c in _parse_assignments(g, by_label, args.force or []):
        if forced.setdefault(v, c) != c:
            raise CliError(f"vertex {v!r} is forced to both {forced[v]} and {c}")
    forbidden: dict[object, set[int]] = {}
    for v, c in _parse_assignments(g, by_label, args.forbid or []):
        forbidden.setdefault(v, set()).add(c)
    return ConstraintSet(forced, {v: frozenset(cs) for v, cs in forbidden.items()})


def _coloring_json(g: Graph, coloring: dict | None):
    if coloring is None:
        return None
    return {str(g.index_of(v)): c for v, c in coloring.items()}


def _emit(doc: dict) -> None:
    print(_dumps(doc))


def _emit_outcome(g: Graph, outcome: SolveOutcome, budget: int | None) -> int:
    _emit({
        "format": "defcol-solve v1",
        "outcome": outcome.status,
        "coloring": _coloring_json(g, outcome.coloring),
        "nodes": outcome.nodes,
        "budget": budget,
        "stats": dict(outcome.stats),
    })
    if outcome.is_sat:
        return EXIT_SAT
    if outcome.is_unsat:
        return EXIT_UNSAT
    return EXIT_BUDGET


def _cmd_solve(args) -> int:
    g = _load_graph_arg(args)
    spec = _parse_spec(args.spec)
    cons = _constraints(g, args)
    if args.emit_cnf:
        doc = export_cnf(g, spec, cons)
        _write(args.emit_cnf, doc.to_dimacs())
        _emit({"format": "defcol-solve v1", "cnf": args.emit_cnf,
               "vars": doc.num_vars, "clauses": len(doc.clauses)})
        return EXIT_SAT
    budget = args.budget
    if budget is None:
        if g.vertex_count > BUDGET_FREE_LIMIT:
            raise CliError(
                f"instances above {BUDGET_FREE_LIMIT} vertices require --budget"
            )
        budget = DEFAULT_SMALL_BUDGET
    return _emit_outcome(g, solve(g, spec, cons, budget=budget), budget)


def _cmd_oracle(args) -> int:
    g = _load_graph_arg(args)
    spec = _parse_spec(args.spec)
    cons = _constraints(g, args)
    return _emit_outcome(g, brute_force_oracle(g, spec, cons), None)


def _write_gadget(result: GadgetResult, prefix: str) -> dict:
    g = result.graph
    files = {}
    graph_path = f"{prefix}.graph"
    _write(graph_path, dump_graph(g))
    files["graph"] = graph_path
    if result.embedding is not None:
        emb_path = f"{prefix}.emb"
        _write(emb_path, dump_embedding(result.embedding))
        files["embedding"] = emb_path
    return {
        "format": "defcol-gadget v1",
        "files": files,
        "vertex_count": g.vertex_count,
        "edge_count": g.edge_count,
        "terminals": {name: g.index_of(v) for name, v in result.terminals.items()},
    }


def _cmd_gadget(args) -> int:
    if args.kind == "huv":
        result = triangle_link()
    elif args.kind == "s":
        result = hub_gadget(args.k)
    else:
        result = non_1k(args.k)
    _emit(_write_gadget(result, args.out))
    return EXIT_SAT


def _cmd_reduce(args) -> int:
    g = load_graph(_read(args.graph))
    result = np_reduce(g, args.k)
    _emit(_write_gadget(result, args.out))
    return EXIT_SAT


def _cmd_check(args) -> int:
    if args.kind == "lemmas":
        if not args.embedding:
            raise CliError("check lemmas requires --embedding")
        from .discharging import lemmas_json

        print(lemmas_json(load_embedding(_read(args.embedding))))
        return EXIT_SAT
    doc = {"format": "defcol-check v1", "kind": args.kind}
    if args.kind == "girth":
        value = girth(_load_graph_arg(args))
        doc["girth"] = "infinite" if value == float("inf") else value
    else:
        g = _load_graph_arg(args)
        free = is_c4c5_free(g)
        doc["c4c5_free"] = free
        # counted as they are found, so memory stays flat however many there are
        doc["cycles4"] = 0 if free else sum(1 for _ in _iter_cycles(g, 4))
        doc["cycles5"] = 0 if free else sum(1 for _ in _iter_cycles(g, 5))
    _emit(doc)
    return EXIT_SAT


def _cmd_audit(args) -> int:
    from .discharging import RULESETS, audit_json

    emb = load_embedding(_read(args.embedding))
    ruleset = RULESETS[args.ruleset]
    text = audit_json(emb, ruleset)
    if args.out:
        _write(args.out, text + "\n")
        _emit({"format": "defcol-audit v1", "written": args.out})
    else:
        print(text)
    return EXIT_SAT


@cache  # built on the first call to main, reused by every later call
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="defcol")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_input_flags(p):
        source = p.add_mutually_exclusive_group()  # both given: exit 2 with usage
        source.add_argument("--graph")
        source.add_argument("--embedding")

    def add_solve_flags(p, with_budget):
        add_input_flags(p)
        p.add_argument("--spec", required=True, help="defect bounds, e.g. 1,1")
        p.add_argument("--force", action="append", metavar="V=C")
        p.add_argument("--forbid", action="append", metavar="V=C")
        if with_budget:
            p.add_argument("--budget", type=_int_arg)
            p.add_argument("--emit-cnf", metavar="OUT")

    p_solve = sub.add_parser("solve", help="exact search")
    add_solve_flags(p_solve, with_budget=True)
    p_solve.set_defaults(func=_cmd_solve)

    p_oracle = sub.add_parser("oracle", help="brute-force enumeration")
    add_solve_flags(p_oracle, with_budget=False)
    p_oracle.set_defaults(func=_cmd_oracle)

    p_gadget = sub.add_parser("gadget", help="generate a gadget graph")
    p_gadget.add_argument("kind", choices=["huv", "s", "non1k"])
    p_gadget.add_argument("--k", type=_int_arg, default=1)
    p_gadget.add_argument("--out", required=True, help="output file prefix")
    p_gadget.set_defaults(func=_cmd_gadget)

    p_reduce = sub.add_parser("reduce", help="attach defect-shifting triangles")
    p_reduce.add_argument("--graph", required=True)
    p_reduce.add_argument("--k", type=_int_arg, required=True)
    p_reduce.add_argument("--out", required=True)
    p_reduce.set_defaults(func=_cmd_reduce)

    p_check = sub.add_parser("check", help="structural checks")
    p_check.add_argument("kind", choices=["girth", "c4c5", "lemmas"])
    add_input_flags(p_check)
    p_check.set_defaults(func=_cmd_check)

    p_audit = sub.add_parser("audit", help="charge-accounting audit")
    p_audit.add_argument("--embedding", required=True)
    p_audit.add_argument("--ruleset", choices=RULESET_NAMES, required=True)
    p_audit.add_argument("--out")
    p_audit.set_defaults(func=_cmd_audit)

    return parser


# Paused commands advance none of the collector's generation counters, so a
# caller that runs commands back to back rarely reaches a full collection,
# and only a full collection empties CPython's free lists of tuples, lists,
# dicts and floats. main runs one itself once its last is this long ago.
FULL_COLLECTION_PERIOD_S = 1.0
_next_full_collection = monotonic() + FULL_COLLECTION_PERIOD_S


def _collect_if_due() -> None:
    global _next_full_collection
    now = monotonic()
    if now >= _next_full_collection:
        gc.collect()
        _next_full_collection = now + FULL_COLLECTION_PERIOD_S


def main(argv: list[str] | None = None) -> int:
    """Run one command and return its exit code.

    The command runs with the cyclic garbage collector paused, and the
    caller's collector state is restored afterwards. No command leaves
    reference cycles behind, so reference counting frees everything it
    allocates, and a collection would only rescan the report being built.
    When the collector was on, a full collection follows the command if
    main has not run one for FULL_COLLECTION_PERIOD_S.
    """
    parser = _build_parser()
    args = parser.parse_args(argv)
    collecting = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    except (CliError, ValueError) as exc:
        print(f"defcol: error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except MemoryError:
        print("defcol: error: out of memory", file=sys.stderr)
        return EXIT_ERROR
    except BrokenPipeError:  # stdout closed early: its flush at exit must not fail
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print("defcol: error: output closed before it was all written", file=sys.stderr)
        return EXIT_ERROR
    finally:
        if collecting:
            gc.enable()
            _collect_if_due()


if __name__ == "__main__":
    sys.exit(main())
