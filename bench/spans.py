"""Per-layer self times, recorded from outside greycast.

Each entry of :data:`SPANS` names a function where its caller looks it up
(a module attribute) and the span it is timed under.  While a
:class:`Tracer` is installed those attributes are replaced by timing
wrappers; spans nest, and a span's self time is its length minus that of
the spans it contains.  The package itself is not changed.
"""

from __future__ import annotations

import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

_MARKOV_TEST = ("classify_states", "count_transitions", "marginal_distribution", "markov_property_test")
_OTHER_WEIGHTS = ("effective_weights", "effective_degree", "accuracy_series", "min_variance_weight")
_WRITERS = ("write_json", "write_forecast_csv", "write_plot_csv")

SPANS = [
    ("greycast.cli.main", "main", "cli.main"),
    ("greycast.cli.main", "run_backtest", "cli.backtest"),
    ("greycast.cli.main", "parse_series_csv", "cli.io.parse"),
    ("greycast.cli.io", "parse_series_csv", "cli.io.parse"),
    *(("greycast.cli.main", name, "cli.io.write") for name in _WRITERS),
    *(("greycast.cli.io", name, "cli.io.write") for name in (*_WRITERS, "dump_json")),
    ("greycast.cli.main", "fit_model", "cli.models.fit"),
    ("greycast.cli.main", "assemble_hybrid", "cli.models.fit"),
    ("greycast.cli.backtest", "fit_model", "cli.models.fit"),
    ("greycast.cli.models", "fit_model", "cli.models.fit"),
    ("greycast.cli.models", "model_from_doc", "cli.models.from_doc"),
    ("greycast.cli.models", "fit_gm11", "gm.fit"),
    ("greycast.cli.models", "forecast_gm11", "gm.forecast"),
    ("greycast.cli.models", "fit_dgm", "dgm.fit"),
    ("greycast.cli.models", "forecast_dgm", "dgm.simulate"),
    ("greycast.cli.models", "fuzzy_transition_matrix", "markov.fuzzy_matrix"),
    ("greycast.cli.models", "fmarkov_correct", "markov.correct"),
    ("greycast.cli.models", "expected_drift", "markov.correct"),
    *(("greycast.cli.models", name, "markov.test") for name in _MARKOV_TEST),
    *(("greycast.markov", name, "markov.test") for name in _MARKOV_TEST),
    ("greycast.cli.models", "ignn_fit", "neural.fit_other"),
    ("greycast.neural", "train_bp", "neural.train"),
    ("greycast.cli.models", "ignn_fitted", "neural.predict"),
    ("greycast.cli.models", "ignn_forecast", "neural.predict"),
    ("greycast.cli.models", "simplex_ls_weights", "hybrid.simplex_ls"),
    ("greycast.cli.models", "optimize_relation_weights", "hybrid.grey_relation"),
    *(("greycast.cli.models", name, "hybrid.other_weights") for name in _OTHER_WEIGHTS),
    *((module, "combine_forecasts", "hybrid.combine")
      for module in ("greycast.cli.main", "greycast.cli.backtest", "greycast.cli.models")),
    ("greycast.cli.models", "evaluate", "metrics.evaluate"),
]

#: Per-layer times in seconds: (metric name, span whose self time it sums).
TIMES = [
    ("cli.main.self_s", "cli.main"),
    ("cli.io.parse_s", "cli.io.parse"),
    ("cli.io.write_s", "cli.io.write"),
    ("cli.models.fit_self_s", "cli.models.fit"),
    ("cli.models.from_doc_s", "cli.models.from_doc"),
    ("cli.backtest.self_s", "cli.backtest"),
    ("gm.fit_s", "gm.fit"),
    ("gm.forecast_s", "gm.forecast"),
    ("dgm.fit_s", "dgm.fit"),
    ("dgm.simulate_s", "dgm.simulate"),
    ("markov.fuzzy_matrix_s", "markov.fuzzy_matrix"),
    ("markov.correct_s", "markov.correct"),
    ("markov.test_s", "markov.test"),
    ("neural.train_s", "neural.train"),
    ("neural.predict_s", "neural.predict"),
    ("neural.fit_other_s", "neural.fit_other"),
    ("hybrid.simplex_ls_s", "hybrid.simplex_ls"),
    ("hybrid.grey_relation_s", "hybrid.grey_relation"),
    ("hybrid.other_weights_s", "hybrid.other_weights"),
    ("hybrid.combine_s", "hybrid.combine"),
    ("metrics.evaluate_s", "metrics.evaluate"),
]


class Tracer:
    def __init__(self):
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self._stack: list[float] = []

    def _count(self, fn, span: str, args, result) -> None:
        if span == "neural.train":
            epochs = args[2].epochs if len(args) > 2 and args[2] is not None else 2000
            self.counts["neural.sample_updates"] += len(args[1]) * epochs
        elif span == "hybrid.simplex_ls":
            self.counts["hybrid.simplex_ls_iterations"] += int(result.diagnostics["iterations"])
        elif fn.__name__ == "dump_json":  # write_json's text is counted here
            self.counts["cli.io.bytes_written"] += len(result.encode())
        elif fn.__name__ in ("write_forecast_csv", "write_plot_csv"):
            self.counts["cli.io.bytes_written"] += os.path.getsize(args[0])

    def wrap(self, fn, span: str):
        stack = self._stack

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                if span == "hybrid.combine":
                    self.counts["hybrid.combine_failed"] += 1
                raise
            finally:
                elapsed = time.perf_counter() - start
                self.self_s[span] += elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed
            self._count(fn, span, args, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        saved = []
        try:
            for module_name, attr, span in SPANS:
                module = sys.modules[module_name]
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(original, span))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def metrics(self, network_weight: float) -> dict:
        out = {name: {"value": self.self_s[span], "unit": "s"} for name, span in TIMES}
        updates = self.counts["neural.sample_updates"]
        out["neural.sample_updates"] = {"value": updates, "unit": "count"}
        out["neural.update_us"] = {
            "value": 1e6 * self.self_s["neural.train"] / updates if updates else 0.0,
            "unit": "us",
        }
        out["neural.hybrid_weight"] = {"value": network_weight, "unit": "share"}
        for name in ("hybrid.simplex_ls_iterations", "hybrid.combine_failed"):
            out[name] = {"value": self.counts[name], "unit": "count"}
        out["cli.io.bytes_written"] = {"value": self.counts["cli.io.bytes_written"], "unit": "B"}
        return out
