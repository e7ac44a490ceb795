"""Workload definitions: input generation, operation lists and the
known-answer table.

Each workload is a list of CLI operations (argv lists for
`defcol.cli.main`) over input files generated from the public gadget and
graph builders. Every operation carries its expected result and the source
of that expectation; `checks.py` compares outputs against them.

The seed fixes the order of operations within a pass and picks the path,
cycle and hex-strip sizes from narrow windows. The windows are narrow so
that two seeds do the same amount of work to within a few percent, which
keeps the benchmark's bounds meaningful across seeds.

`defcol` is imported inside the builders, not at module level, so that the
runner can time the package import as part of set-up.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("certify", "audit", "large_easy", "export")

VERDICT_BUDGET = 10**9  # large enough that every verdict instance finishes
EASY_BUDGET = 10**6
LADDER_BUDGET = 2000  # the budget-capped ladder measures node rate, not verdicts

HUB_KS = range(1, 6)
NON1K_KS = range(1, 7)
LADDER_KS = range(2, 7)
LADDER_SIZES = (192, 264, 336, 408, 480)  # vertex counts of non_1k(k) for LADDER_KS
REDUCE_CERTIFY_KS = (2, 3)
REDUCE_EXPORT_KS = range(2, 6)
GADGET_S_KS = range(1, 6)
THEOREM_SPECS = ("4,4", "3,5", "2,9")
RULESETS = ("44", "35", "29")

# audit: brick-wall hex strips, counted in hexagons (n = 4 * count + 2)
AUDIT_HEX_WINDOWS = ((50, 54), (396, 400))
# large_easy: sizes in vertices, except hex strips (hexagons). All stay
# below the seed's recursion limit at (2,2); the fixed inputs below hit it.
EASY_PATH_WINDOWS = ((290, 310), (590, 610))
EASY_CYCLE_WINDOWS = ((291, 311), (591, 611))
EASY_HEX_WINDOWS = ((48, 52), (198, 202))
EASY_SPECS = ("0,0", "1,1", "2,2")
RECURSION_PATH = 1500  # RecursionError at (2,2) on the seed
RECURSION_HEX = 400  # 1,602 vertices; RecursionError at (2,2) on the seed
LONG_PATH = 2000

# certify operations whose node counts are the seed baseline of the per-layer run
NODE_BASELINE_OPS = tuple(f"hub_k{k}" for k in HUB_KS) + ("non1k_k1_11",)
# certify operations whose node rates form the budget-capped ladder
LADDER_OPS = tuple(f"ladder_n{n}" for n in LADDER_SIZES)

SRC_C2 = "acceptance C2: brute-force oracle and solver agree"
SRC_C3 = "acceptance C3: non_1k(1) has no (1,1)-coloring"
SRC_HUB = "paper hub lemma: z=x1=2 forbids a (1,k)-coloring of hub_gadget(k)"
SRC_NON1K = "paper claim: non_1k(k) has no (1,k)-coloring; a budget stop is allowed"
SRC_REDUCE = "paper reduction lemma (acceptance C4) applied to C3: no (0,1)-coloring"
SRC_THEOREM = "paper theorems, acceptance C7: no 4-/5-cycles gives (4,4), (3,5), (2,9)"
SRC_WITNESS = "seed solver witness, re-checked with is_valid_coloring"
SRC_BUILD = "the construction"
SRC_BIPARTITE = "the construction: bipartite inputs are (0,0)-colorable, odd cycles not"
SRC_SEED_BYTES = "byte pins recorded from the seed (bench/pins.json)"
SRC_CNF = "DIMACS structure: header matches clause lines, literals in range"


@dataclass(frozen=True)
class Op:
    """One CLI operation and what a correct answer looks like.

    `expect["kind"]` selects the check in `checks.py`; `expect["pins"]`
    maps byte-pin keys to "stdout" or to the path of a written file.
    """

    name: str
    argv: tuple[str, ...]
    expect: dict
    source: str
    family: str = ""  # path, cycle or hex on large_easy


@dataclass(frozen=True)
class Inputs:
    """Writes generated input files under one directory and names outputs."""

    root: Path

    def write(self, name: str, text: str) -> str:
        path = self.root / "in" / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
        return str(path)

    def out(self, name: str) -> str:
        path = self.root / "out"
        path.mkdir(parents=True, exist_ok=True)
        return str(path / name)


# -- input builders --------------------------------------------------------


def path_graph(n: int):
    from defcol import make_graph

    return make_graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int):
    from defcol import make_graph

    return make_graph(n, [(i, (i + 1) % n) for i in range(n)])


def hex_strip(count: int):
    """Embedding of a linear strip of edge-fused hexagons (brick-wall drawing)."""
    from defcol import embedding_from_positions, make_graph

    width = 2 * count + 1
    top = list(range(width))
    bottom = list(range(width, 2 * width))
    edges = []
    for i in range(width - 1):
        edges.append((top[i], top[i + 1]))
        edges.append((bottom[i], bottom[i + 1]))
    for i in range(0, width, 2):
        edges.append((top[i], bottom[i]))
    pos = {top[i]: (float(i), 1.0) for i in range(width)}
    pos.update({bottom[i]: (float(i), 0.0) for i in range(width)})
    return embedding_from_positions(make_graph(2 * width, edges), pos)


# -- workloads ---------------------------------------------------------------


def _solve(name, path, spec, graph, verdict, source, *, budget=VERDICT_BUDGET,
           extra=(), family=""):
    argv = ("solve", "--graph", path, "--spec", spec, *extra, "--budget", str(budget))
    expect = {"kind": "solve", "verdict": verdict, "spec": spec, "graph": graph}
    return Op(name, argv, expect, source, family)


def certify_ops(rng: random.Random, inputs: Inputs) -> list[Op]:
    """Solves with known verdicts: search does nearly all the work."""
    from defcol import dump_graph, hub_gadget, non_1k, np_reduce, triangle_link

    ops = []
    for k in HUB_KS:
        g = hub_gadget(k).graph
        path = inputs.write(f"hub_k{k}.graph", dump_graph(g))
        ops.append(_solve(f"hub_k{k}", path, f"1,{k}", g, "unsat", SRC_HUB,
                          extra=("--force", "z=2", "--force", "x1=2")))
    huv = triangle_link().graph
    huv_path = inputs.write("huv.graph", dump_graph(huv))
    clean = [arg for v in "abcd" for arg in ("--forbid", f"{v}=2")]
    for k in (1, 2, 3):
        ops.append(_solve(f"huv_k{k}", huv_path, f"1,{k}", huv, "unsat", SRC_C2,
                          extra=("--force", "u=2", "--force", "v=2", *clean)))
    graphs = {k: non_1k(k).graph for k in NON1K_KS}
    paths = {k: inputs.write(f"non1k_k{k}.graph", dump_graph(g)) for k, g in graphs.items()}
    ops.append(_solve("non1k_k1_11", paths[1], "1,1", graphs[1], "unsat", SRC_C3))
    for k in NON1K_KS:
        ops.append(_solve(f"non1k_k{k}_sat", paths[k], f"1,{k + 1}", graphs[k], "sat",
                          SRC_WITNESS))
    for k in LADDER_KS:
        g = graphs[k]
        ops.append(_solve(f"ladder_n{g.vertex_count}", paths[k], f"1,{k}", g, "not_sat",
                          SRC_NON1K, budget=LADDER_BUDGET))
    for spec in THEOREM_SPECS:
        ops.append(_solve(f"theorem_{spec.replace(',', '_')}", paths[6], spec, graphs[6],
                          "sat", SRC_THEOREM))
    for k in REDUCE_CERTIFY_KS:
        g = np_reduce(graphs[1], k).graph
        path = inputs.write(f"reduce_k{k}.graph", dump_graph(g))
        ops.append(_solve(f"reduce_k{k}", path, f"0,{k}", g, "unsat", SRC_REDUCE))
    return ops


def audit_ops_for(inputs: Inputs, hex_counts) -> list[Op]:
    """Audits and lemma checks of the non_1k ladder and the given hex strips."""
    from defcol import dump_embedding, non_1k

    named = [(f"non1k_k{k}", non_1k(k).embedding) for k in NON1K_KS]
    named += [(f"hex{c}", hex_strip(c)) for c in hex_counts]
    ops = []
    for name, emb in named:
        path = inputs.write(f"{name}.emb", dump_embedding(emb))
        for rs in RULESETS:
            key = f"audit.{name}.{rs}"
            ops.append(Op(f"audit_{name}_{rs}", ("audit", "--embedding", path, "--ruleset", rs),
                          {"kind": "pinned", "pins": {key: "stdout"}}, SRC_SEED_BYTES))
        key = f"lemmas.{name}"
        ops.append(Op(f"lemmas_{name}", ("check", "lemmas", "--embedding", path),
                      {"kind": "pinned", "pins": {key: "stdout"}}, SRC_SEED_BYTES))
    return ops


def audit_ops(rng: random.Random, inputs: Inputs) -> list[Op]:
    """Charge audits and lemma checks: discharging does the work, no solver."""
    return audit_ops_for(inputs, [rng.randint(*w) for w in AUDIT_HEX_WINDOWS])


def _easy_input(inputs, name, graph, family, girth_value, kinds, specs):
    from defcol import dump_graph

    path = inputs.write(f"{name}.graph", dump_graph(graph))
    ops = []
    if "girth" in kinds:
        ops.append(Op(f"girth_{name}", ("check", "girth", "--graph", path),
                      {"kind": "girth", "value": girth_value}, SRC_BUILD, family))
    if "c4c5" in kinds:
        ops.append(Op(f"c4c5_{name}", ("check", "c4c5", "--graph", path),
                      {"kind": "c4c5"}, SRC_BUILD, family))
    odd_cycle = family == "cycle" and graph.vertex_count % 2 == 1
    for spec in specs:
        verdict = "unsat" if spec == "0,0" and odd_cycle else "sat"
        ops.append(_solve(f"solve_{name}_{spec.replace(',', '_')}", path, spec, graph,
                          verdict, SRC_BIPARTITE, budget=EASY_BUDGET, family=family))
    return ops


def large_easy_ops(rng: random.Random, inputs: Inputs) -> list[Op]:
    """Structural checks and shallow solves on long, sparse inputs."""
    both = ("girth", "c4c5")
    ops = []
    for w in EASY_PATH_WINDOWS:
        n = rng.randint(*w)
        ops += _easy_input(inputs, f"path{n}", path_graph(n), "path", "infinite", both,
                           EASY_SPECS)
    for w in EASY_CYCLE_WINDOWS:
        n = rng.randint(*w)
        ops += _easy_input(inputs, f"cycle{n}", cycle_graph(n), "cycle", n, both, EASY_SPECS)
    for w in EASY_HEX_WINDOWS:
        c = rng.randint(*w)
        ops += _easy_input(inputs, f"hex{c}", hex_strip(c).graph, "hex", 6, both, EASY_SPECS)
    ops += _easy_input(inputs, f"path{RECURSION_PATH}", path_graph(RECURSION_PATH), "path",
                       "infinite", ("c4c5",), ("0,0", "2,2"))
    ops += _easy_input(inputs, f"hex{RECURSION_HEX}", hex_strip(RECURSION_HEX).graph, "hex",
                       6, both, EASY_SPECS)
    ops += _easy_input(inputs, f"path{LONG_PATH}", path_graph(LONG_PATH), "path",
                       "infinite", ("c4c5",), ("0,0",))
    return ops


def _gadget_op(name, argv, prefix, with_embedding):
    pins = {f"gadget.{name}.graph": prefix + ".graph"}
    if with_embedding:
        pins[f"gadget.{name}.emb"] = prefix + ".emb"
    return Op(name, argv, {"kind": "gadget", "pins": pins}, SRC_SEED_BYTES)


def export_ops(rng: random.Random, inputs: Inputs) -> list[Op]:
    """The write side: generators, text serializers and the CNF encoder."""
    from defcol import dump_graph, non_1k

    ops = []
    prefix = inputs.out("huv")
    ops.append(_gadget_op("huv", ("gadget", "huv", "--out", prefix), prefix, True))
    for k in GADGET_S_KS:
        prefix = inputs.out(f"s_k{k}")
        ops.append(_gadget_op(f"s_k{k}", ("gadget", "s", "--k", str(k), "--out", prefix),
                              prefix, True))
    for k in NON1K_KS:
        prefix = inputs.out(f"non1k_k{k}")
        ops.append(_gadget_op(f"non1k_k{k}",
                              ("gadget", "non1k", "--k", str(k), "--out", prefix), prefix, True))
    graphs = {k: non_1k(k).graph for k in NON1K_KS}
    paths = {k: inputs.write(f"non1k_k{k}.graph", dump_graph(g)) for k, g in graphs.items()}
    for k in REDUCE_EXPORT_KS:
        prefix = inputs.out(f"reduce_k{k}")
        ops.append(_gadget_op(f"reduce_k{k}",
                              ("reduce", "--graph", paths[1], "--k", str(k), "--out", prefix),
                              prefix, False))
    for k in NON1K_KS:
        cnf = inputs.out(f"non1k_k{k}.cnf")
        ops.append(Op(f"cnf_non1k_k{k}",
                      ("solve", "--graph", paths[k], "--spec", f"1,{k}", "--emit-cnf", cnf),
                      {"kind": "cnf", "path": cnf, "min_vars": graphs[k].vertex_count * 2},
                      SRC_CNF))
    return ops


BUILDERS = {
    "certify": certify_ops,
    "audit": audit_ops,
    "large_easy": large_easy_ops,
    "export": export_ops,
}


def generate(workload: str, seed: int, root: Path) -> list[Op]:
    """Write the workload's inputs under `root`; return its operations in
    the seed's order."""
    rng = random.Random(f"defcol-bench:{workload}:{seed}")
    ops = BUILDERS[workload](rng, Inputs(Path(root)))
    rng.shuffle(ops)
    return ops
