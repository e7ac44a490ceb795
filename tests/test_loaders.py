"""Hostile input for the text loaders: every document either loads or is
rejected with ValueError, which the CLI turns into exit code 2."""

import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from defcol import (
    Graph,
    PlaneEmbedding,
    dump_embedding,
    dump_graph,
    hub_gadget,
    load_embedding,
    load_graph,
    make_graph,
    non_1k,
    np_reduce,
    triangle_link,
)
from defcol import graphs
from defcol.cli import main
from defcol.graphs import MAX_EDGES, MAX_VERTICES

from corpus import corpus, fused_hexagons, k3_embedding, pendant_triangle
from oracles import load_embedding_by_tokens, load_graph_by_tokens


VALID = [
    doc
    for emb in (k3_embedding(), pendant_triangle(), fused_hexagons(2), triangle_link().embedding)
    for doc in (dump_graph(emb.graph), dump_embedding(emb))
]

# int() quotes at most 200 characters of a bad token's repr; the loaders quote it whole
LONG_BAD_TOKENS = ["x" * 250, "1" * 249 + "x", "-" * 250, "x" * 249 + ":", "١" * 250]

TOKENS = st.one_of(
    st.sampled_from(
        ["0", "1", "2", "3", "7", "-1", "label", "rot", "0:", "3:", ":", "x", "#",
         "1.5", "1_0", str(MAX_VERTICES + 1), str(10**30),
         "+1", "+", "_", "a_b", "1_", "+0:", "١", "2٠", "١:", "１", "é",
         *LONG_BAD_TOKENS]
    ),
    st.text(max_size=3),
)

# str.split separates fields on any run of whitespace, ASCII or not
SEPARATORS = st.sampled_from([" ", "  ", "\t", "\x1f", "\xa0", "\u3000"])


@st.composite
def mutated_documents(draw):
    lines = draw(st.sampled_from(VALID)).splitlines()
    for _ in range(draw(st.integers(1, 4))):
        if not lines:
            lines.append(draw(TOKENS))
            continue
        i = draw(st.integers(0, len(lines) - 1))
        tokens = lines[i].split()
        op = draw(st.sampled_from(
            ["drop line", "duplicate line", "rewrite line",
             "drop token", "duplicate token", "rewrite token"]
        ))
        if op == "drop line":
            del lines[i]
        elif op == "duplicate line":
            lines.insert(i, lines[i])
        elif op == "rewrite line":
            lines[i] = draw(SEPARATORS).join(draw(st.lists(TOKENS, max_size=4)))
        elif tokens:
            j = draw(st.integers(0, len(tokens) - 1))
            if op == "drop token":
                del tokens[j]
            elif op == "duplicate token":
                tokens.insert(j, tokens[j])
            else:
                tokens[j] = draw(TOKENS)
            lines[i] = draw(SEPARATORS).join(tokens)
    return "\n".join(lines) + "\n"


@settings(max_examples=400, deadline=None)
@given(mutated_documents())
def test_mutated_documents_load_or_raise_value_error(text):
    for loader in (load_graph, load_embedding):
        try:
            loader(text)
        except ValueError:
            pass


def load_outcome(load, dump, text):
    """dump(load(text)), or the message of the ValueError that load raises."""
    try:
        value = load(text)
    except ValueError as exc:
        return "rejected", str(exc)
    return "loaded", dump(value)


@settings(max_examples=600, deadline=None)
@given(mutated_documents())
def test_loaders_agree_with_the_token_by_token_loaders(text):
    cases = ((load_graph, load_graph_by_tokens, dump_graph),
             (load_embedding, load_embedding_by_tokens, dump_embedding))
    for load, oracle, dump in cases:
        assert load_outcome(load, dump, text) == load_outcome(oracle, dump, text)


@pytest.mark.parametrize("dump, load", [(dump_graph, load_graph), (dump_embedding, load_embedding)],
                         ids=["graph", "embedding"])
def test_strict_token_reads_do_not_grow_with_the_edge_count(dump, load, monkeypatch):
    strict = graphs._int_token
    calls = []
    monkeypatch.setattr(graphs, "_int_token", lambda token: calls.append(token) or strict(token))
    counts = []
    for k in (1, 6):
        emb = non_1k(k).embedding
        calls.clear()
        load(dump(emb if dump is dump_embedding else emb.graph))
        counts.append((emb.graph.edge_count, len(calls)))
    (small, small_calls), (large, large_calls) = counts
    assert small < large and small_calls == large_calls


@pytest.mark.parametrize(
    "loader, text",
    [
        (load_graph, "3 1\n0 1\nlabel 0 a\nlabel 0 b\n"),
        (load_graph, "2 3\n0 1\n1 0\n0 1\n"),
        (load_embedding, "3 3\n0 1\n1 2\n0 2\nrot 0: 1 2\nrot 0: 2 1\nrot 1: 0 2\nrot 2: 0 1\n"),
    ],
    ids=["second label line", "repeated edge lines", "second rot line"],
)
def test_repeated_records_are_rejected(loader, text):
    with pytest.raises(ValueError):
        loader(text)


@pytest.mark.parametrize("header", [f"{MAX_VERTICES + 1} 0", f"3 {MAX_EDGES + 1}", "3000000 0", "3 -1"])
def test_oversized_or_negative_header_rejected_fast(header):
    start = time.perf_counter()
    with pytest.raises(ValueError):
        load_graph(header + "\n")
    assert time.perf_counter() - start < 0.5


def test_limit_admits_a_100k_vertex_path():
    n = 100_000
    text = f"{n} {n - 1}\n" + "".join(f"{i} {i + 1}\n" for i in range(n - 1))
    assert load_graph(text).edge_count == n - 1


def test_cli_rejects_oversized_header_with_exit_two(tmp_path, capsys):
    path = tmp_path / "huge.graph"
    path.write_text("3000000 0\n")
    start = time.perf_counter()
    assert main(["check", "girth", "--graph", str(path)]) == 2
    assert time.perf_counter() - start < 1.0
    out = capsys.readouterr()
    assert out.out == ""
    assert "exceeds the limit" in out.err


@pytest.mark.parametrize("doc", VALID, ids=[f"doc{i}" for i in range(len(VALID))])
def test_loading_builds_one_graph(doc, monkeypatch):
    # every Graph is filled by graphs._build: the constructor's and the loaders'
    built = []
    build = graphs._build

    def counting(*args):
        built.append(1)
        return build(*args)

    monkeypatch.setattr(graphs, "_build", counting)
    loader = load_embedding if doc.startswith("# defcol-embedding") else load_graph
    loader(doc)
    assert len(built) == 1


# Every integer field of the formats, in a document that loads when the field
# reads "10": the header counts of a 10-cycle, then an edge end, a label vertex,
# a rotation vertex and a rotation neighbour on an 11-vertex path.
C10_EDGES = "".join(f"{i} {(i + 1) % 10}\n" for i in range(10))
P11 = "11 10\n" + "".join(f"{i} {i + 1}\n" for i in range(10))
P11_ROT = P11 + "rot 0: 1\n" + "".join(f"rot {i}: {i - 1} {i + 1}\n" for i in range(1, 10)) + "rot 10: 9\n"
INTEGER_FIELDS = {
    "header n": (load_graph, "{t} 10\n" + C10_EDGES),
    "header m": (load_graph, "10 {t}\n" + C10_EDGES),
    "edge": (load_graph, P11.replace("9 10\n", "9 {t}\n")),
    "label": (load_graph, P11 + "label {t} end\n"),
    "rot vertex": (load_embedding, P11_ROT.replace("rot 10: 9", "rot {t}: 9")),
    "rot neighbour": (load_embedding, P11_ROT.replace("rot 9: 8 10", "rot 9: 8 {t}")),
}


@pytest.mark.parametrize("field", INTEGER_FIELDS)
def test_each_integer_field_reads_ten(field):
    loader, template = INTEGER_FIELDS[field]
    loader(template.replace("{t}", "10"))


# int() reads the first three as 10; the formats define only ASCII -?[0-9]+.
# The message quotes each bad token whole, where int()'s own would cut it.
@pytest.mark.parametrize(
    "token", ["1_0", "+10", "١٠", *LONG_BAD_TOKENS],
    ids=["underscore", "plus sign", "arabic-indic digits",
         *(f"long {t[:1]!r}..{t[-1:]!r}" for t in LONG_BAD_TOKENS)],
)
@pytest.mark.parametrize("field", INTEGER_FIELDS)
def test_integers_outside_the_format_are_rejected(field, token):
    loader, template = INTEGER_FIELDS[field]
    with pytest.raises(ValueError) as exc:
        loader(template.replace("{t}", token))
    assert str(exc.value) == f"invalid literal for int() with base 10: {token!r}"


@pytest.mark.parametrize("text, message", [
    ("-1 0\n", "vertex count must be non-negative"),
    ("3 -1\n", f"edge count -1 outside 0..{MAX_EDGES}"),
    ("007 0\nlabel -0 a\nlabel 9 b\n", "label attached to unknown vertex 9"),
    ("x 0\n", "invalid literal for int() with base 10: 'x'"),
    ("3 0\nrot :\n", "invalid literal for int() with base 10: ''"),
])
def test_integer_field_messages_are_unchanged(text, message):
    loader = load_embedding if "rot" in text else load_graph
    with pytest.raises(ValueError) as exc:
        loader(text)
    assert str(exc.value) == message


def labelled_path(names):
    """A path on opaque vertex ids listed in reverse, the i-th id labelled
    names[i], with its embedding (a path has one rotation)."""
    ids = [("v", i) for i in reversed(range(len(names)))]
    g = Graph(ids, list(zip(ids, ids[1:])), {("v", i): name for i, name in enumerate(names)})
    return g, PlaneEmbedding(g, {v: g.ordered_neighbors(v) for v in ids})


def writable(name):
    """The label rule of the text formats, character by character."""
    return name != "" and not any(c.isspace() for c in name)


@pytest.mark.parametrize("name", ["a b", "", "x\ny", "x\ry", "x\ty", "x\x0b", "\x1c",
                                  "x\x85", "x\u2028", "\u3000"])
def test_dumpers_reject_labels_their_loaders_reject(name):
    g, emb = labelled_path(["a", name])
    for dump, value in ((dump_graph, g), (dump_embedding, emb)):
        with pytest.raises(ValueError) as exc:
            dump(value)
        assert str(exc.value) == (
            f"label {name!r} of vertex 0 must be non-empty and free of whitespace"
        )


@settings(max_examples=300, deadline=None)
@given(st.lists(st.text(), min_size=1, max_size=4, unique=True))
def test_labels_round_trip_or_raise(names):
    g, emb = labelled_path(names)
    expected = {g.index_of(v): name for v, name in g.labels.items()}
    cases = ((dump_graph, g, load_graph),
             (dump_embedding, emb, lambda text: load_embedding(text).graph))
    for dump, value, load in cases:
        try:
            text = dump(value)
        except ValueError:
            assert not all(map(writable, names))
            continue
        assert all(map(writable, names))
        assert load(text).labels == expected


# -- the bulk pass and its boundaries ---------------------------------------


def path_embedding(n):
    g = make_graph(n, [(i, i + 1) for i in range(n - 1)])
    return PlaneEmbedding(g, {v: g.ordered_neighbors(v) for v in g.vertices})


def isolated_vertices_embedding():
    """A 4-vertex path, then isolated vertices 4 and 5 (`rot 4:`, `rot 5:`)."""
    g = make_graph(6, [(0, 1), (1, 2), (2, 3)])
    return PlaneEmbedding(g, {v: g.ordered_neighbors(v) for v in g.vertices})


BASES = {
    "path 2000": path_embedding(2000),
    "hex strip 400": fused_hexagons(400),
    "non_1k(6)": non_1k(6).embedding,
    "isolated vertices": isolated_vertices_embedding(),
}


def sections(text):
    """The lines of a dump, split into header lines, edge lines and the rest."""
    lines = text.splitlines()
    m = int(lines[1].split()[1])
    return lines[:2], lines[2 : 2 + m], lines[2 + m :]


def edit_edges(change):
    def edit(text):
        head, edges, rest = sections(text)
        return "\n".join(head + change(edges) + rest) + "\n"
    return edit


def edit_rest(change):
    def edit(text):
        head, edges, rest = sections(text)
        return "\n".join(head + edges + change(rest)) + "\n"
    return edit


def shuffled(edges):
    return random.Random(7).sample(edges, len(edges))


def reversed_pairs(edges):
    return [" ".join(line.split()[::-1]) for line in edges]


def repeated(orientation):
    def edit(text):
        head, edges, rest = sections(text)
        n, m = head[1].split()
        again = edges[len(edges) // 2]
        extra = again if orientation == "same" else " ".join(again.split()[::-1])
        return "\n".join([head[0], f"{n} {int(m) + 1}", *edges, extra, *rest]) + "\n"
    return edit


def first_field(edit_token, lines):
    """lines with edit_token applied to the first integer field of the first
    line that has one past its keyword."""
    out = list(lines)
    for i, line in enumerate(out):
        parts = line.split(" ")
        at = 1 if parts[0] in ("rot", "label") else 0
        if len(parts) > at:
            parts[at] = edit_token(parts[at])
            out[i] = " ".join(parts)
            return out
    return out


def padded(token):
    return "00" + token


def minus_zero(token):
    return "-" + token if token.rstrip(":") == "0" else token


def starting_with(lines, prefix):
    return [line for line in lines if line.startswith(prefix)]


def with_separator(sep):
    def edit(text):
        head, edges, rest = sections(text)
        edges = [edges[0].replace(" ", sep), *edges[1:]]
        rest = [line.replace(" ", sep, 1) if i == len(rest) // 2 else line
                for i, line in enumerate(rest)]
        return "\n".join(head + edges + rest) + "\n"
    return edit


def interleaved(filler):
    def edit(text):
        head, edges, rest = sections(text)
        middle = len(edges) // 2
        edges = [*edges[:middle], filler, *edges[middle:]]
        rest = [*rest[: len(rest) // 2], filler, *rest[len(rest) // 2 :]]
        return "\n".join(head + edges + rest) + "\n"
    return edit


def rot_out_of_order(text):
    head, edges, rest = sections(text)
    labels, rots = starting_with(rest, "label"), starting_with(rest, "rot")
    return "\n".join(head + edges + labels + rots[::-1]) + "\n"


def labels_among_rots(text):
    head, edges, rest = sections(text)
    labels, rots = starting_with(rest, "label"), starting_with(rest, "rot")
    middle = len(rots) // 2
    return "\n".join(head + edges + rots[:middle] + labels + rots[middle:]) + "\n"


def colon_moved(text):
    """The first rotation line of a vertex above 9 with its colon moved one
    digit left: `rot 12: 11 13` becomes `rot 1:2 11 13`, of the same shape."""
    head, edges, rest = sections(text)
    for i, line in enumerate(rest):
        parts = line.split(" ")
        if parts[0] == "rot" and len(parts[1]) > 2:
            rest[i] = " ".join(["rot", f"{parts[1][0]}:{parts[1][1:-1]}", *parts[2:]])
            break
    return "\n".join(head + edges + rest) + "\n"


def digits_before_rot(count):
    """The last rotation line with the first `count` digits of its vertex
    (all if None) moved in front of `rot`: `rot 1999: 1998` becomes
    `1rot 999: 1998` or `1999rot : 1998`, and `rot 5:` becomes `5rot :`.
    Deleting the digits leaves the same shape."""
    def edit(text):
        head, edges, rest = sections(text)
        rots = [i for i, line in enumerate(rest) if line.startswith("rot ")]
        if rots:
            parts = rest[rots[-1]].split(" ")
            digits = parts[1][:-1][:count]
            rest[rots[-1]] = " ".join([digits + "rot", parts[1][len(digits):], *parts[2:]])
        return "\n".join(head + edges + rest) + "\n"
    return edit


# each variant of a canonical dump, and whether the token-by-token loaders
# accept it, for both kinds or per kind
VARIANTS = {
    "canonical": (lambda text: text, True),
    "edges shuffled": (edit_edges(shuffled), True),
    "edges reversed": (edit_edges(reversed_pairs), True),
    "edges shuffled and reversed": (edit_edges(lambda e: reversed_pairs(shuffled(e))), True),
    "edge repeated": (repeated("same"), False),
    "edge repeated reversed": (repeated("reversed"), False),
    "edge end 007": (edit_edges(lambda e: first_field(padded, e)), True),
    "edge end -0": (edit_edges(lambda e: first_field(minus_zero, e)), True),
    "rot or label vertex 007": (edit_rest(lambda r: first_field(padded, r)), True),
    "rot or label vertex -0": (edit_rest(lambda r: first_field(minus_zero, r)), True),
    "two spaces": (with_separator("  "), True),
    "tab": (with_separator("\t"), True),
    "CRLF": (lambda text: text.replace("\n", "\r\n"), True),
    "blank lines inside": (interleaved(""), True),
    "comment lines inside": (interleaved("# note"), True),
    "rot lines out of order": (rot_out_of_order, True),
    "label lines among rot lines": (labels_among_rots, True),
    "rot vertex split by its colon": (colon_moved, True),
    # a .graph dump has no rot line to edit
    "vertex digits before rot": (digits_before_rot(None), {"graph": True, "embedding": False}),
    "one vertex digit before rot": (digits_before_rot(1), {"graph": True, "embedding": False}),
}


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("base", BASES)
@pytest.mark.parametrize("kind", ["graph", "embedding"])
def test_bulk_pass_boundaries_agree_with_the_token_by_token_loaders(kind, base, variant):
    emb = BASES[base]
    edit, loads = VARIANTS[variant]
    text = edit(dump_embedding(emb) if kind == "embedding" else dump_graph(emb.graph))
    cases = ((load_graph, load_graph_by_tokens, dump_graph),
             (load_embedding, load_embedding_by_tokens, dump_embedding))
    for load, oracle, dump in cases:
        assert load_outcome(load, dump, text) == load_outcome(oracle, dump, text)
    if isinstance(loads, dict):
        loads = loads[kind]
    assert (load_outcome(load_graph_by_tokens, dump_graph, text)[0] == "loaded") == loads


def canonical_documents():
    gadgets = [triangle_link(), *map(hub_gadget, (1, 2, 3)), *map(non_1k, (1, 2, 3, 6))]
    embeddings = [result.embedding for result in gadgets]
    embeddings += [fused_hexagons(k) for k in (1, 2, 50, 400)]
    embeddings += [path_embedding(n) for n in (1, 2, 2000)]
    embeddings += [emb for _, emb in corpus()] + [isolated_vertices_embedding()]
    graphs_only = [np_reduce(non_1k(1).graph, 2).graph, Graph([])]
    docs = [dump_embedding(emb) for emb in embeddings]
    docs += [dump_graph(g) for g in [*(emb.graph for emb in embeddings), *graphs_only]]
    return docs


CANONICAL = canonical_documents()


def test_canonical_dumps_take_the_bulk_pass(monkeypatch):
    def strict(token):
        raise AssertionError(f"strict pass read {token!r}")

    monkeypatch.setattr(graphs, "_int_token", strict)
    for text in CANONICAL:
        load, dump = ((load_embedding, dump_embedding) if text.startswith("# defcol-embedding")
                      else (load_graph, dump_graph))
        assert dump(load(text)) == text
        assert dump_graph(load_graph(edit_edges(shuffled)(text))) == dump_graph(load_graph(text))


@pytest.mark.parametrize("line, glued", [
    ("rot 0: 1", "0rot : 1"),
    ("rot 10: 9 11", "1rot 0: 9 11"),
    ("rot 10: 9 11", "10rot : 9 11"),
])
def test_digits_glued_to_rot_are_rejected(line, glued):
    # each glued line keeps the bulk shape once its digits are deleted
    text = dump_embedding(path_embedding(12)).replace(f"\n{line}\n", f"\n{glued}\n")
    assert glued in text
    message = f"unexpected line {glued!r} in embedding document"
    for load in (load_embedding, load_embedding_by_tokens):
        with pytest.raises(ValueError) as exc:
            load(text)
        assert str(exc.value) == message


def test_loaded_neighbors_are_the_vertex_ints():
    # one int object per vertex, as a constructed Graph has, not one per field read
    text = dump_graph(path_embedding(2000).graph)
    for g in (load_graph(text), load_graph(edit_edges(shuffled)(text))):
        assert all(v is g.vertices[v] for ns in g.adjacency for v in ns)
