"""Key specs of model documents, and the check that a document meets one.

A dict names the keys of a JSON object and what each value must hold in
turn; the object may hold no other key.  A one-element list is a non-empty
JSON list whose items each match that element; a longer list is a JSON
list of exactly that many items, each matching the element in its place.
A string names a leaf: "int", "count" (an integer of at least 1),
"number", "string", "bool", "object" (any JSON object), or "matrix" (a
non-empty list of equal-length lists of numbers).  Sizes that tie one
field to another are each model kind's own check (``cli.models.Kind``).
"""

from __future__ import annotations

from ..errors import DataError


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


LEAVES = {
    "int": ("an integer", _is_int),
    "count": ("an integer of at least 1", lambda v: _is_int(v) and v >= 1),
    "number": ("a number", lambda v: isinstance(v, (int, float)) and not isinstance(v, bool)),
    "string": ("a string", lambda v: isinstance(v, str)),
    "bool": ("true or false", lambda v: isinstance(v, bool)),
    "object": ("a JSON object", lambda v: isinstance(v, dict)),
}


def check_keys(node, keys, path: str = "") -> None:
    """Raise a one-line DataError naming the first field of ``node``, at
    ``path``, that does not meet the spec ``keys``."""
    if keys == "matrix":
        check_keys(node, [["number"]], path)
        if len({len(row) for row in node}) > 1:
            raise DataError(f"model document field {path!r} must have rows of equal length")
        return
    if isinstance(keys, str):
        what, holds = LEAVES[keys]
        if not holds(node):
            raise DataError(f"model document field {path!r} must be {what}")
        return
    if isinstance(keys, list):
        if not isinstance(node, list) or not node:
            raise DataError(f"model document field {path!r} must be a non-empty JSON list")
        if len(keys) > 1 and len(node) != len(keys):
            raise DataError(f"model document field {path!r} must hold {len(keys)} entries")
        for i, item in enumerate(node):
            check_keys(item, keys[i % len(keys)], f"{path}[{i}]")
        return
    if not isinstance(node, dict):
        raise DataError(f"model document field {path!r} must be a JSON object")
    for key, sub in keys.items():
        where = f"{path}.{key}" if path else key
        if key not in node:
            raise DataError(f"model document is missing key {where!r}")
        check_keys(node[key], sub, where)
    extra = sorted(set(node) - set(keys))
    if extra:
        where = f"{path}.{extra[0]}" if path else extra[0]
        raise DataError(f"model document has unknown key {where!r}")
