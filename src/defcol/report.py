"""The JSON writer for the CLI's reports and the audit's validators section."""

from __future__ import annotations

from json.encoder import encode_basestring_ascii

# dumps's encoders for container items, keyed by exact type
_SCALAR_WRITERS = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): {None: "null"}.__getitem__,
}


def dumps(doc, depth: int = 0) -> str:
    """Return exactly `json.dumps(doc, indent=2, sort_keys=True)`, or with
    `depth` > 0, the text that call writes for `doc` nested `depth` levels
    deep: its later lines indented by 2 * depth more spaces.

    With `indent`, the stdlib encoder falls back to nested Python generators,
    which cost about as much as building an audit. This writer makes one
    recursive pass that appends chunks to one list and joins them once.
    Strings are encoded by the C escaper, each distinct key is encoded once,
    and each depth's separators are built once. A container writes each item
    whose exact type is str, int, bool or None itself, through
    _SCALAR_WRITERS; only dicts, lists and tuples recurse, and anything else
    takes the isinstance chain, so subclasses such as IntEnum members write
    as json writes them. Values are str, int, bool, None, list, tuple or dict
    with str keys; anything else, floats and Fractions included, raises
    TypeError.
    """
    chunks: list[str] = []
    append = chunks.append
    scalar_writer = _SCALAR_WRITERS.get
    keys: dict[str, str] = {}
    breaks = ["\n" + "  " * d for d in range(depth + 1)]  # a newline and depth d's indent
    seps = ["," + b for b in breaks]  # seps[d]: the item separator at depth d

    def write(obj, depth: int) -> None:
        if isinstance(obj, (list, tuple, dict)):
            if not obj:
                append("{}" if isinstance(obj, dict) else "[]")
                return
            inner = depth + 1
            if inner == len(breaks):
                breaks.append(breaks[-1] + "  ")
                seps.append(seps[-1] + "  ")
            lead, sep = breaks[inner], seps[inner]
            if isinstance(obj, dict):
                append("{")
                for k in sorted(obj):
                    key = keys.get(k)
                    if key is None:
                        if not isinstance(k, str):
                            raise TypeError(f"keys must be str, not {type(k).__name__}")
                        key = keys[k] = encode_basestring_ascii(k) + ": "
                    append(lead)
                    append(key)
                    lead = sep
                    v = obj[k]
                    encode = scalar_writer(type(v))
                    if encode is None:
                        write(v, inner)
                    else:
                        append(encode(v))
                append(breaks[depth])
                append("}")
            else:
                append("[")
                for v in obj:
                    append(lead)
                    lead = sep
                    encode = scalar_writer(type(v))
                    if encode is None:
                        write(v, inner)
                    else:
                        append(encode(v))
                append(breaks[depth])
                append("]")
        elif isinstance(obj, str):
            append(encode_basestring_ascii(obj))
        elif obj is None:
            append("null")
        elif obj is True:
            append("true")
        elif obj is False:
            append("false")
        elif isinstance(obj, int):
            append(int.__repr__(obj))
        else:
            raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")

    try:
        write(doc, depth)
    finally:
        # write refers to itself through its closure cell; emptying the cell
        # lets reference counting free the closure and the chunk list
        del write
    return "".join(chunks)
