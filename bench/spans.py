"""Spans around each layer's public functions, as bound in `defcol.cli`.

For a traced pass, `instrument` replaces those bindings with wrappers that
record a span (name, start, end, parent span, operation) and a few counts
per call, and restores the originals afterwards; nothing under src/ is
edited. The wrapped names are the loaders, dumpers, graph checks, solver,
CNF encoder, audit builder and gadget builders imported by `defcol.cli`,
the `ALL_VALIDATORS` tuple (also as `build_audit` sees it in
`defcol.discharging`) and `CnfDocument.to_dimacs`. The runner opens one
`cli.main` span per operation, so a layer's self time is its spans'
duration minus the part covered by their child spans.

Spans stay in memory, one list per pass, until the run writes them out.
"""

from __future__ import annotations

import functools
import json
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

LAYERS = ("cli", "graphs", "embedding", "coloring", "cnf", "gadgets", "discharging")

OP_SPAN = "cli.main"
VALIDATORS_SPAN = "discharging.validators"
DIMACS_SPAN = "cnf.dimacs"

# name bound in defcol.cli -> span name "<layer>.<kind>"
CLI_BINDINGS = {
    "load_graph": "graphs.load",
    "girth": "graphs.girth",
    "is_c4c5_free": "graphs.c4c5",
    "cycles_of_length": "graphs.c4c5",
    "dump_graph": "graphs.dump",
    "load_embedding": "embedding.load",
    "dump_embedding": "embedding.dump",
    "solve": "coloring.solve",
    "export_cnf": "cnf.export",
    "build_audit": "discharging.audit",
    "triangle_link": "gadgets.build",
    "hub_gadget": "gadgets.build",
    "non_1k": "gadgets.build",
    "np_reduce": "gadgets.build",
}

TIMED_SPANS = tuple(dict.fromkeys([*CLI_BINDINGS.values(), VALIDATORS_SPAN, DIMACS_SPAN]))


def _solve_counts(outcome, args):
    return {"nodes": outcome.nodes, "verdicts": int(outcome.is_sat or outcome.is_unsat)}


def _audit_counts(doc, args):
    # every transfer is listed at its source and at its target
    sides = sum(len(entry["transfers"]) for entry in doc["elements"])
    return {"elements": len(doc["elements"]), "transfers": sides // 2}


COUNTERS = {
    "coloring.solve": _solve_counts,
    "discharging.audit": _audit_counts,
    "cnf.export": lambda doc, args: {"vars": doc.num_vars, "clauses": len(doc.clauses)},
    "gadgets.build": lambda result, args: {"vertices": result.graph.vertex_count},
    "graphs.girth": lambda value, args: {"n": args[0].vertex_count},
}

# per-layer count metric -> (span name, count key)
COUNT_METRICS = {
    "coloring.nodes": ("coloring.solve", "nodes"),
    "coloring.verdicts": ("coloring.solve", "verdicts"),
    "cnf.vars": ("cnf.export", "vars"),
    "cnf.clauses": ("cnf.export", "clauses"),
    "discharging.transfers": ("discharging.audit", "transfers"),
    "discharging.elements": ("discharging.audit", "elements"),
    "gadgets.vertices": ("gadgets.build", "vertices"),
}

# a span is a list of these fields
FIELDS = ("name", "op", "parent", "start", "end", "failed", "counts")
NAME, OP, PARENT, START, END, FAILED, COUNTS = range(len(FIELDS))


class Tracer:
    """Collects spans, one list per traced pass."""

    def __init__(self):
        self.passes: list[list[list]] = []
        self._open: list[int] = []
        self.op = ""

    def start_pass(self) -> None:
        self.passes.append([])

    @contextmanager
    def span(self, name: str):
        spans = self.passes[-1]
        record = [name, self.op, self._open[-1] if self._open else -1,
                  perf_counter(), 0.0, False, None]
        self._open.append(len(spans))
        spans.append(record)
        try:
            yield record
        except Exception:
            record[FAILED] = True
            raise
        finally:
            record[END] = perf_counter()
            self._open.pop()

    def wrap(self, fn, name: str):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
            if counter is not None:
                record[COUNTS] = counter(result, args)
            return result

        return traced

    def write(self, path: Path) -> None:
        doc = [
            {"pass": i, **dict(zip(FIELDS, span))}
            for i, spans in enumerate(self.passes)
            for span in spans
        ]
        path.write_text(json.dumps(doc))


@contextmanager
def instrument(tracer: Tracer):
    """Route every call the CLI makes into a layer through `tracer`."""
    import defcol.cli as cli
    import defcol.discharging as discharging
    from defcol.cnf import CnfDocument

    saved = [(cli, name, getattr(cli, name)) for name in CLI_BINDINGS]
    saved += [
        (cli, "ALL_VALIDATORS", cli.ALL_VALIDATORS),
        (discharging, "ALL_VALIDATORS", discharging.ALL_VALIDATORS),
        (CnfDocument, "to_dimacs", CnfDocument.to_dimacs),
    ]
    try:
        for name, span_name in CLI_BINDINGS.items():
            setattr(cli, name, tracer.wrap(getattr(cli, name), span_name))
        validators = tuple(tracer.wrap(v, VALIDATORS_SPAN) for v in discharging.ALL_VALIDATORS)
        cli.ALL_VALIDATORS = validators
        discharging.ALL_VALIDATORS = validators
        CnfDocument.to_dimacs = tracer.wrap(CnfDocument.to_dimacs, DIMACS_SPAN)
        yield
    finally:
        for target, name, value in saved:
            setattr(target, name, value)


def metric_units(node_ops, ladder_ops) -> dict[str, str]:
    """Every per-layer metric `pass_metrics` reports, with its unit."""
    units = {}
    for layer in LAYERS:
        units.update({f"{layer}.calls": "count", f"{layer}.failed": "count",
                      f"{layer}.self_s": "s"})
    units.update({f"{name}_s": "s" for name in TIMED_SPANS})
    units.update({name: "count" for name in COUNT_METRICS})
    units.update({
        "cli.failed_share": "ratio",
        "coloring.nodes_per_s": "1/s",
        "coloring.verdict_ratio": "ratio",
        "graphs.girth_us_per_n2": "us",
    })
    units.update({f"coloring.nodes.{op}": "count" for op in node_ops})
    units.update({f"coloring.nodes_per_s.{op.split('_')[-1]}": "1/s" for op in ladder_ops})
    return units


def pass_metrics(spans, node_ops, ladder_ops, girth_ops) -> dict[str, float]:
    """Per-layer metrics of one traced pass.

    `node_ops` report their solve's node count, `ladder_ops` their node rate
    under the suffix of their name, and the girth checks of `girth_ops`
    (inputs without a short cycle) their time per squared vertex count.
    """
    m = dict.fromkeys(metric_units(node_ops, ladder_ops), 0.0)
    covered = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            covered[span[PARENT]] += span[END] - span[START]
    girth_s = girth_n2 = 0.0
    for span, child_s in zip(spans, covered):
        name, op, duration = span[NAME], span[OP], span[END] - span[START]
        layer = name.split(".")[0]
        m[f"{layer}.calls"] += 1
        m[f"{layer}.failed"] += span[FAILED]
        m[f"{layer}.self_s"] += duration - child_s
        if name in TIMED_SPANS:
            m[f"{name}_s"] += duration
        counts = span[COUNTS] or {}
        for metric, (span_name, key) in COUNT_METRICS.items():
            if name == span_name:
                m[metric] += counts.get(key, 0)
        if name == "coloring.solve" and counts:
            if op in node_ops:
                m[f"coloring.nodes.{op}"] = counts["nodes"]
            if op in ladder_ops:
                m[f"coloring.nodes_per_s.{op.split('_')[-1]}"] = counts["nodes"] / duration
        if name == "graphs.girth" and op in girth_ops and counts:
            girth_s += duration
            girth_n2 += counts["n"] ** 2
    if m["coloring.solve_s"]:
        m["coloring.nodes_per_s"] = m["coloring.nodes"] / m["coloring.solve_s"]
    if m["coloring.calls"]:
        m["coloring.verdict_ratio"] = m["coloring.verdicts"] / m["coloring.calls"]
    if m["cli.calls"]:
        m["cli.failed_share"] = m["cli.failed"] / m["cli.calls"]
    if girth_n2:
        m["graphs.girth_us_per_n2"] = girth_s / girth_n2 * 1e6
    return m
