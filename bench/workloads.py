"""The benchmark's workloads: seeded inputs, jobs, output checks, accuracy.

A workload builds its input files from the seed, runs jobs through
greycast's public calls, and afterwards checks every job's outputs with
:mod:`checks`.  Jobs are grouped in rounds; a run always attempts whole
rounds, so the share of failed jobs does not depend on run length.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
from pathlib import Path

import numpy as np

import checks
import reference as ref

#: The CLI's default six-state residual partition; checks use it as given.
BOUNDARIES = (-0.09, -0.025, -0.01, 0.0, 0.01, 0.025, 0.09)

# Input series: exponential trend, AR(1) noise and, on grey_fleet, one level
# shift early in the series.  The trend and shift size depend only on the
# series' slot, so every seed exercises the same shapes; the seed draws the
# level, the shift position and the noise.  The noise innovations are
# standardised separately over the fitted part and over the held-out tail,
# so every series carries the same noise energy where accuracy is measured.
# A shift at a seeded position moves the held-out error of the few series
# the slower workloads can afford by 25 % from seed to seed, so those
# series have none; held-out MAPE then moves with the program, not the seed.
GROWTHS = (0.0, 0.0005, 0.001, 0.002, -0.0005)
SHIFTS = (0.0, 0.02, -0.02)
NOISE_AR = 0.3
NOISE_SD = 0.004  # innovation s.d. as a share of the series level


def make_series(rng: np.random.Generator, n: int, tail: int, slot: int, shifted: bool) -> np.ndarray:
    base = rng.uniform(80.0, 120.0)
    level = base * np.exp(GROWTHS[slot % len(GROWTHS)] * np.arange(n))
    if shifted:
        level[rng.integers(n // 5, (3 * n) // 5) :] += SHIFTS[slot % len(SHIFTS)] * base
    z = rng.standard_normal(n)
    for part in (z[: n - tail], z[n - tail :]):
        part -= part.mean()
        part /= part.std()
    noise = np.empty(n)
    value = 0.0
    for t in range(n):
        value = NOISE_AR * value + NOISE_SD * base * z[t]
        noise[t] = value
    return level + noise


def write_series(path: Path, values) -> None:
    path.write_text("value\n" + "".join(f"{float(v)!r}\n" for v in values))


def read_csv(path: Path) -> tuple[list[str], list[list[float]]]:
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    return rows[0], [[float(cell) for cell in row] for row in rows[1:]]


def run_cli(gc, argv: list[str]) -> tuple[int, str]:
    """`greycast <argv>` in process; returns (exit code, stderr)."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = gc.main.main([str(a) for a in argv])
    return code, err.getvalue()


def pooled_mape(pairs) -> float:
    actual = np.concatenate([a for a, _ in pairs])
    forecast = np.concatenate([f for _, f in pairs])
    return float(np.mean(np.abs((forecast - actual) / actual)) * 100.0)


class Workload:
    """Inputs are built in __init__; jobs are (key, callable -> (ok, output))."""

    min_rounds = 1

    def __init__(self, gc, workdir: Path, seed: int):
        self.gc = gc
        self.dir = workdir

    def warmup(self) -> None:
        raise NotImplementedError

    def round(self, r: int) -> list:
        raise NotImplementedError

    def check(self, records) -> None:
        raise NotImplementedError

    def heldout_mape(self, records) -> float:
        raise NotImplementedError

    def network_weight(self, records) -> float:
        return 0.0

    def keep(self, r: int, out):
        """What the run keeps of a job's output until the checks."""
        return out


class GreyFleet(Workload):
    """Many short series through parse, fit, doc round trip, forecast, Markov test.

    Model docs go through ``dump_json``, the serialiser ``write_json`` uses,
    and back through ``json.loads``, without a file.  At a few hundred files
    a second, creating and deleting files slowed this machine's file system
    for minutes afterwards, and each run ran up to 20 % slower than the one
    before; the other workloads write their reports to real files.
    """

    SERIES = 120  # one round; lengths spread evenly over 40..278
    TAIL = 12
    KINDS = ("gm", "dgm", "dgm_fmarkov")

    def __init__(self, gc, workdir, seed):
        super().__init__(gc, workdir, seed)
        rng = np.random.default_rng(seed)
        self.series = []
        for slot in range(self.SERIES):
            n = 40 + round(slot * (278 - 40) / (self.SERIES - 1))
            full = make_series(rng, n + self.TAIL, self.TAIL, slot, shifted=True)
            write_series(workdir / f"in{slot}.csv", full[:n])
            self.series.append(full)
        self.cfg = gc.config.PipelineConfig()
        self.partition = gc.markov.StatePartition(np.asarray(self.cfg.state_boundaries))

    def job(self, slot: int):
        gc = self.gc
        x = gc.io.parse_series_csv(self.dir / f"in{slot}.csv").values
        out = {"values": x}
        for kind in self.KINDS:
            fit = gc.models.fit_model(kind, x, self.cfg)
            doc = json.loads(gc.io.dump_json(fit.to_doc()))
            model = gc.models.model_from_doc(doc)
            forecast = model.forecast(self.TAIL)
            out[kind] = (doc, forecast)
            if kind == "dgm":
                out["dgm_fitted"] = fit.fitted
        z = gc.series.relative_residuals(x, out["dgm_fitted"]).values
        classified = gc.markov.classify_states(z, self.partition)
        counts = gc.markov.count_transitions(classified)
        occupancy = np.bincount(classified.states, minlength=self.partition.k + 1)[1:]
        marginals = gc.markov.marginal_distribution(occupancy, classified.states.size)
        out["markov"] = (z, gc.markov.markov_property_test(counts, marginals, alpha=self.cfg.alpha))
        return True, out

    def warmup(self):
        self.warm = self.job(0)[1]

    def round(self, r):
        return [(slot, lambda slot=slot: self.job(slot)) for slot in range(self.SERIES)]

    def keep(self, r, out):
        # Later rounds repeat the first; keeping a digest instead of every
        # output keeps the heap, and so the garbage collector's work, flat.
        return out if r == 0 else self.digest(out)

    def digest(self, out) -> bytes:
        parts = [out[kind][1].tobytes() for kind in self.KINDS]
        return b"".join(parts) + repr(out["markov"][1]).encode()

    def check(self, records):
        digests = {}
        for rec in records:
            if not isinstance(rec.out, bytes):
                self._check_job(rec.key, rec.out)
                digests[rec.key] = self.digest(rec.out)
        for rec in records:
            if isinstance(rec.out, bytes) and rec.out != digests[rec.key]:
                raise checks.CheckFailed(f"a repeated job on series {rec.key} gave other outputs")
        if self.digest(self.warm) != digests[0]:
            raise checks.CheckFailed("the warm-up job and job 0 gave other outputs")

    def _check_job(self, slot, out):
        full = self.series[slot]
        x = out["values"]
        if not np.array_equal(x, full[: x.size]):
            raise checks.CheckFailed(f"series {slot} parsed to different values")
        gm_doc, _ = out["gm"]
        checks.gm_doc(gm_doc, x)
        checks.dgm_doc(out["dgm"][0], x)
        fm_doc = out["dgm_fmarkov"][0]
        checks.dgm_doc(fm_doc["dgm"], x)
        checks.fuzzy_rows(fm_doc["fuzzy_probs"])
        for kind in self.KINDS:
            doc, forecast = out[kind]
            checks.model_forecast(kind, doc, forecast, x, BOUNDARIES)
        dgm_doc = out["dgm"][0]
        checks.close("DGM fitted path", out["dgm_fitted"],
                     ref.dgm_simulate(dgm_doc["beta"], dgm_doc["xi"], x.size), rtol=1e-9)
        z, report = out["markov"]
        checks.markov_test(report.chi_squared, report.threshold, z, BOUNDARIES, report.dof, report.alpha)

    def heldout_mape(self, records):
        pairs = []
        for rec in records[: self.SERIES]:
            tail = self.series[rec.key][rec.out["values"].size :]
            pairs.extend((tail, rec.out[kind][1]) for kind in self.KINDS)
        return pooled_mape(pairs)


class HybridSchemes(Workload):
    """The paper's weight comparison on grey-only components, through `greycast hybrid`."""

    POOL = 6  # distinct series; the first POOL jobs are the accuracy set
    LENGTH = 278
    TAIL = 24
    # (components, scheme, combination formula); each formula appears twice.
    # simplex_ls runs on two components only: on three, its projected
    # gradient can stop on the wrong support and return a worse answer than
    # the exact solve, on some seeds and not others (see CHANGES.md).
    CALLS = (
        ("dgm_fmarkov,dgm", "grey_relation", "arithmetic"),
        ("dgm_fmarkov,dgm", "simplex_ls", "geometric"),
        ("dgm_fmarkov,dgm", "effective_degree", "harmonic"),
        ("dgm_fmarkov,dgm", "min_variance", "arithmetic"),
        ("dgm_fmarkov,dgm,gm", "grey_relation", "harmonic"),
        ("dgm_fmarkov,dgm,gm", "effective_degree", "geometric"),
    )
    min_rounds = POOL

    def __init__(self, gc, workdir, seed):
        super().__init__(gc, workdir, seed)
        rng = np.random.default_rng(seed)
        self.series = []
        for slot in range(self.POOL):
            full = make_series(rng, self.LENGTH + self.TAIL, self.TAIL, slot, shifted=False)
            write_series(workdir / f"in{slot}.csv", full[: self.LENGTH])
            self.series.append(full)

    def call(self, slot: int, name: str, components: str, scheme: str, formula: str) -> int:
        code, _ = run_cli(self.gc, [
            "hybrid", "--input", self.dir / f"in{slot}.csv",
            "--out", self.dir / f"{name}.json", "--forecast-out", self.dir / f"{name}.csv",
            "--components", components, "--scheme", scheme, "--combine", formula,
            "--horizon", self.TAIL,
        ])
        return code

    def job(self, index: int):
        slot = index % self.POOL
        codes = [self.call(slot, f"hybrid{index}.{c}", *spec) for c, spec in enumerate(self.CALLS)]
        return all(code == 0 for code in codes), codes

    def warmup(self):
        if self.call(0, "warmup", *self.CALLS[0]) != 0:
            raise checks.CheckFailed("the warm-up hybrid call failed")

    def round(self, r):
        return [(r, lambda: self.job(r))]

    def _report(self, name: str) -> dict:
        with open(self.dir / f"{name}.json", encoding="utf-8") as handle:
            return json.load(handle)

    def _outputs(self, index: int) -> bytes:
        names = [f"hybrid{index}.{c}.{ext}" for c in range(len(self.CALLS)) for ext in ("json", "csv")]
        return b"".join((self.dir / name).read_bytes() for name in names)

    def check(self, records):
        kinds = ("gm", "dgm", "dgm_fmarkov")
        first = {}
        for rec in records:
            if not rec.ok:
                continue
            slot = rec.key % self.POOL
            if slot in first:
                if self._outputs(rec.key) != first[slot]:
                    raise checks.CheckFailed(f"a repeated hybrid job on series {slot} wrote other bytes")
                continue
            first[slot] = self._outputs(rec.key)
            x = self.series[slot][: self.LENGTH]
            own = checks.component_fits(x, kinds, BOUNDARIES, self.TAIL)
            for c, (components, scheme, formula) in enumerate(self.CALLS):
                report = self._report(f"hybrid{rec.key}.{c}")
                if (report["components"] != components.split(",")
                        or report["weights"]["scheme"] != scheme
                        or report["config"]["combine"] != formula):
                    raise checks.CheckFailed(f"hybrid report {rec.key}.{c} echoes another call")
                checks.hybrid_report(report, x, BOUNDARIES, own)
                _, rows = read_csv(self.dir / f"hybrid{rec.key}.{c}.csv")
                checks.close("hybrid forecast CSV", [row[1] for row in rows],
                             report["forecast"]["hybrid"], rtol=0)
        warm = (self.dir / "warmup.json").read_bytes()
        if warm != (self.dir / "hybrid0.0.json").read_bytes():
            raise checks.CheckFailed("a repeated hybrid call wrote a different report")

    def heldout_mape(self, records):
        pairs = []
        for rec in records[: self.POOL]:
            tail = self.series[rec.key % self.POOL][self.LENGTH :]
            for c in range(len(self.CALLS)):
                hybrid = self._report(f"hybrid{rec.key}.{c}")["forecast"]["hybrid"]
                pairs.append((tail, np.asarray(hybrid)))
        return pooled_mape(pairs)


class NnBacktest(Workload):
    """The paper's hybrid (fuzzy-Markov DGM + IGNN) in a rolling-origin backtest."""

    POOL = 6  # distinct series; the arithmetic jobs of the first two rounds
    PER_ROUND = 3  # arithmetic jobs per round, followed by one geometric job
    LENGTH = 278
    FOLDS = 5
    HORIZON = 12
    EPOCHS = 40
    # The geometric job's series does not depend on the seed: it fails on
    # every input today (IGNN forecasts come out negative), and a fixed input
    # keeps its failure, and the failed share, the same in every run.
    GEOMETRIC_SEED = 20120710
    min_rounds = POOL // PER_ROUND

    def __init__(self, gc, workdir, seed):
        super().__init__(gc, workdir, seed)
        rng = np.random.default_rng(seed)
        held = self.FOLDS * self.HORIZON
        self.series = [
            make_series(rng, self.LENGTH, held, slot, shifted=False) for slot in range(self.POOL)
        ]
        for slot, values in enumerate(self.series):
            write_series(workdir / f"in{slot}.csv", values)
        fixed = make_series(np.random.default_rng(self.GEOMETRIC_SEED), self.LENGTH, held, 0, False)
        write_series(workdir / "in_geometric.csv", fixed)
        train = {"epochs": self.EPOCHS, "learning_rate": 0.05, "seed": 0, "shuffle": True}
        (workdir / "train.json").write_text(json.dumps({"train": train}))

    def argv(self, source: str, name: str) -> list:
        return [
            "backtest", "--input", self.dir / source, "--out", self.dir / f"{name}.json",
            "--folds", self.FOLDS, "--horizon", self.HORIZON, "--scheme", "grey_relation",
            "--config", self.dir / "train.json",
        ]

    def arithmetic(self, index: int, name: str):
        argv = self.argv(f"in{index % self.POOL}.csv", name)
        code, _ = run_cli(self.gc, argv + ["--plot-out", self.dir / f"{name}.csv"])
        return code == 0, code

    def geometric(self, index: int):
        code, err = run_cli(self.gc, self.argv("in_geometric.csv", f"geo{index}") + ["--combine", "geometric"])
        return code == 0, (code, err)

    def warmup(self):
        if not self.arithmetic(0, "warmup")[0]:
            raise checks.CheckFailed("the warm-up backtest failed")

    def round(self, r):
        jobs = []
        for i in range(self.PER_ROUND):
            index = r * self.PER_ROUND + i
            jobs.append((("arithmetic", index), lambda index=index: self.arithmetic(index, f"nn{index}")))
        jobs.append((("geometric", r), lambda: self.geometric(r)))
        return jobs

    def check(self, records):
        first = {}
        for rec in records:
            kind, index = rec.key
            if kind == "geometric":
                checks.geometric_failure(*rec.out)
                continue
            if not rec.ok:
                continue
            slot = index % self.POOL
            name = f"nn{index}"
            blob = (self.dir / f"{name}.json").read_bytes() + (self.dir / f"{name}.csv").read_bytes()
            if slot in first:
                if blob != first[slot]:
                    raise checks.CheckFailed(f"repeated backtest of series {slot} wrote other bytes")
                continue
            first[slot] = blob
            header, rows = read_csv(self.dir / f"{name}.csv")
            report = json.loads((self.dir / f"{name}.json").read_text())
            checks.backtest(report, header, rows, self.series[slot],
                            self.FOLDS, self.HORIZON, BOUNDARIES)
        warm = (self.dir / "warmup.json").read_bytes() + (self.dir / "warmup.csv").read_bytes()
        if warm != first.get(0):
            raise checks.CheckFailed("the warm-up backtest and job 0 wrote different bytes")

    def heldout_mape(self, records):
        pairs = []
        for rec in records[: self.min_rounds * (self.PER_ROUND + 1)]:
            kind, index = rec.key
            if kind == "arithmetic":
                _, rows = read_csv(self.dir / f"nn{index}.csv")
                table = np.asarray(rows)
                pairs.append((table[:, 1], table[:, -1]))
        return pooled_mape(pairs)

    def network_weight(self, records):
        weights = []
        for rec in records:
            kind, index = rec.key
            if kind == "arithmetic" and rec.ok:
                report = json.loads((self.dir / f"nn{index}.json").read_text())
                col = report["components"].index("ignn")
                weights.extend(fold["weights"][col] for fold in report["folds"])
        return float(np.mean(weights)) if weights else 0.0


WORKLOADS = {
    "grey_fleet": GreyFleet,
    "hybrid_schemes": HybridSchemes,
    "nn_backtest": NnBacktest,
}
