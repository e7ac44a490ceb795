"""Hostile input for the text loaders: every document either loads or is
rejected with ValueError, which the CLI turns into exit code 2."""

import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from defcol import (
    Graph,
    PlaneEmbedding,
    dump_embedding,
    dump_graph,
    load_embedding,
    load_graph,
    non_1k,
    triangle_link,
)
from defcol import graphs
from defcol.cli import main
from defcol.graphs import MAX_EDGES, MAX_VERTICES

from corpus import fused_hexagons, k3_embedding, pendant_triangle
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
    built = []
    init = Graph.__init__

    def counting(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Graph, "__init__", counting)
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
