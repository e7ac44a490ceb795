"""The JSON layout of the package's reports: `block` lays out members already
in JSON form, and `dumps` writes a document through it."""

from __future__ import annotations

from json.encoder import encode_basestring_ascii

# dumps's encoders for scalars, keyed by exact type
_SCALAR_WRITERS = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): {None: "null"}.__getitem__,
}


def block(members: list[str], depth: int, brackets: str = "[]") -> str:
    """Members already in JSON form, one per line, in a list or object that
    json.dumps(indent=2) writes at depth."""
    if not members:
        return brackets
    indent = "\n" + "  " * depth
    return brackets[0] + indent + "  " + ("," + indent + "  ").join(members) + indent + brackets[1]


def dumps(doc, depth: int = 0) -> str:
    """Return exactly `json.dumps(doc, indent=2, sort_keys=True)`, or with
    `depth` > 0, the text that call writes for `doc` nested `depth` levels
    deep: its later lines indented by 2 * depth more spaces.

    The package does not call `json.dumps(indent=2)`: with `indent`, the
    stdlib encoder falls back to nested Python generators, which cost about
    as much as building an audit and leave reference cycles that only the
    cyclic collector frees. Scalars of exact type str, int, bool or None are
    written through _SCALAR_WRITERS, strings by the C escaper; dicts, lists
    and tuples recurse, and anything else takes the isinstance chain, so
    subclasses such as IntEnum members write as json writes them. Values
    are str, int, bool, None, list, tuple or dict with str keys; anything
    else, floats and Fractions included, raises TypeError.
    """
    encode = _SCALAR_WRITERS.get(type(doc))
    if encode is not None:
        return encode(doc)
    if isinstance(doc, dict):
        inner = depth + 1  # the escaper raises TypeError on a key that is not a str
        return block([encode_basestring_ascii(k) + ": " + dumps(doc[k], inner)
                      for k in sorted(doc)], depth, "{}")
    if isinstance(doc, (list, tuple)):
        inner = depth + 1
        return block([dumps(v, inner) for v in doc], depth)
    if isinstance(doc, str):
        return encode_basestring_ascii(doc)
    if isinstance(doc, int):
        return int.__repr__(doc)
    raise TypeError(f"Object of type {type(doc).__name__} is not JSON serializable")
