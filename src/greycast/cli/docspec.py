"""Key specs of model documents, and the check that a document meets one.

A dict names the keys of a JSON object and what each value must hold in
turn; the object may hold no other key.  A one-element list is a non-empty
JSON list whose items each match that element; a longer list is a JSON
list of exactly that many items, each matching the element in its place.
A string names a leaf: "int", "count" (an integer from 1 to
:data:`MAX_COUNT`), "number" (finite as a float: ``json`` also reads
``NaN``, ``Infinity``, which greycast never writes, and integers beyond
the float range), "string", "bool", "object" (any JSON object), or
"matrix" (a non-empty list of equal-length lists of numbers).  Sizes that
tie one field to another are each model kind's own check
(``cli.models.Kind``).  :func:`check_keys` hands every "number" on as a
float, so an integer such as 10**30 loads as 1e30 does.
"""

from __future__ import annotations

import math

from ..errors import DataError

#: The largest count that a model doc, ``--horizon`` or ``synth --n`` may
#: give.  An ``n_fit`` and a horizon this large ask for 2 * 10**15 values,
#: which is more than any machine holds (exit 5) but inside numpy's size
#: limit, and which keeps every time index exact as a float.
MAX_COUNT = 10**15


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_finite(v) -> bool:
    if not (_is_int(v) or isinstance(v, float)):
        return False
    try:
        return math.isfinite(v)
    except OverflowError:  # an integer too large for a float
        return False


LEAVES = {
    "int": ("an integer", _is_int),
    "count": (f"an integer from 1 to {MAX_COUNT}", lambda v: _is_int(v) and 1 <= v <= MAX_COUNT),
    "number": ("a finite number", _is_finite),
    "string": ("a string", lambda v: isinstance(v, str)),
    "bool": ("true or false", lambda v: isinstance(v, bool)),
    "object": ("a JSON object", lambda v: isinstance(v, dict)),
}


def check_keys(node, keys, path: str = ""):
    """``node``, at ``path``, with each "number" leaf a float; a field that
    does not meet the spec ``keys`` raises a one-line DataError naming the
    first such field."""
    if keys == "matrix":
        rows = check_keys(node, [["number"]], path)
        if len({len(row) for row in rows}) > 1:
            raise DataError(f"model document field {path!r} must have rows of equal length")
        return rows
    if isinstance(keys, str):
        what, holds = LEAVES[keys]
        if not holds(node):
            raise DataError(f"model document field {path!r} must be {what}")
        return float(node) if keys == "number" else node
    if isinstance(keys, list):
        if not isinstance(node, list) or not node:
            raise DataError(f"model document field {path!r} must be a non-empty JSON list")
        if len(keys) > 1 and len(node) != len(keys):
            raise DataError(f"model document field {path!r} must hold {len(keys)} entries")
        return [check_keys(item, keys[i % len(keys)], f"{path}[{i}]") for i, item in enumerate(node)]
    if not isinstance(node, dict):
        raise DataError(f"model document field {path!r} must be a JSON object")
    checked = {}
    for key, sub in keys.items():
        where = f"{path}.{key}" if path else key
        if key not in node:
            raise DataError(f"model document is missing key {where!r}")
        checked[key] = check_keys(node[key], sub, where)
    extra = sorted(set(node) - set(keys))
    if extra:
        where = f"{path}.{extra[0]}" if path else extra[0]
        raise DataError(f"model document has unknown key {where!r}")
    return checked
