"""Every field of every model doc, mutated: the exit-code contract holds.

Each of the six kinds is fitted once; then every leaf of its doc (every
key, and the first two and the last item of each list) is set to each of
a fixed list of values, deleted, and, for a list, cut short by its last
item or given that item twice.  Each mutated doc runs ``greycast forecast
--horizon 3`` in process.  No exception may escape ``main``, no warning may
be raised, a nonzero exit prints exactly one line, and an exit-0 forecast
writes no ``null``.  The mutations are enumerated, not drawn.
"""

import contextlib
import io
import json
import warnings

import pytest

import greycast.cli.models as cli_models
from greycast import TrainConfig
from greycast.cli.config import MODELS, PipelineConfig
from greycast.cli.main import main
from greycast.cli.synth import synthetic_series

_VALUES = (None, "x", True, [], {}, 0, -1, 0.5, -0.5, 10**30, 2**63, 1e308, -1e308, 1e-320,
           [[1.0]])


class _Edit:
    """A mutation other than writing a value; its repr names it."""

    def __init__(self, label):
        self.label = label

    def __repr__(self):
        return self.label


_DELETE, _DROP_LAST, _REPEAT_LAST = _Edit("deleted"), _Edit("last dropped"), _Edit("last repeated")


def _paths(node, path=()):
    """The path of every key and of the first two and the last item of
    every list under ``node``."""
    if isinstance(node, dict):
        keys = list(node)
    elif isinstance(node, list):
        keys = sorted({i for i in (0, 1, len(node) - 1) if 0 <= i < len(node)})
    else:
        return
    for key in keys:
        yield path + (key,)
        yield from _paths(node[key], path + (key,))


def _mutations(doc):
    """(path, edit) for each mutation of ``doc``."""
    for path in _paths(doc):
        node = doc
        for key in path:
            node = node[key]
        edits = [*_VALUES, _DELETE]
        if isinstance(node, list) and node:
            edits += [_DROP_LAST, _REPEAT_LAST]
        for edit in edits:
            yield path, edit


def _mutated(doc, path, edit):
    doc = json.loads(json.dumps(doc))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    if edit is _DELETE:
        del parent[key]
    elif edit is _DROP_LAST:
        parent[key].pop()
    elif edit is _REPEAT_LAST:
        parent[key].append(parent[key][-1])
    else:
        parent[key] = edit
    return doc


@pytest.fixture(scope="module")
def fitted_docs():
    cfg = PipelineConfig(train=TrainConfig(epochs=20, learning_rate=0.1))
    values = synthetic_series(60, seed=3)
    return {kind: json.loads(json.dumps(cli_models.fit_model(kind, values, cfg).to_doc()))
            for kind in MODELS}


def _contract_breaches(doc, tmp_path) -> list[str]:
    """What a forecast from ``doc`` does that the exit-code contract forbids."""
    model, out = tmp_path / "m.json", tmp_path / "f.csv"
    model.write_text(json.dumps(doc))
    out.unlink(missing_ok=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        warnings.simplefilter("always")
        try:
            code = main(["forecast", "--input", str(model), "--horizon", "3", "--out", str(out)])
        except Exception as exc:  # noqa: BLE001  (the contract is what is tested)
            return [f"{type(exc).__name__} escaped main: {exc}"]
    breaches = [f"warning: {w.message}" for w in caught]
    err = stderr.getvalue()
    if code != 0 and not (err.startswith("error: ") and err.count("\n") == 1):
        breaches.append(f"exit {code} with stderr {err!r}")
    if code == 0 and "null" in out.read_text():
        breaches.append("exit 0 with a null forecast")
    return breaches


def test_every_doc_mutation_keeps_the_exit_code_contract(fitted_docs, tmp_path):
    failures, count = [], 0
    for kind, doc in fitted_docs.items():
        for path, edit in _mutations(doc):
            count += 1
            breaches = _contract_breaches(_mutated(doc, path, edit), tmp_path)
            if breaches:
                failures.append(f"{kind} {list(path)} {edit!r}: {'; '.join(breaches)}")
    assert count > 4000
    assert failures == [], f"{len(failures)} of {count} mutations:\n" + "\n".join(failures[:40])
