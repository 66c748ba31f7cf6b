"""Run one benchmark workload against greycast's sources; print one JSON line.

    python3 bench/run.py --workload grey_fleet --seed 1 --seconds 30 --trace 0

Run from a checkout: greycast is imported from ``src/`` next to this
directory, never from site-packages.  The run sets up (import, inputs,
warm-up job), then runs whole rounds of jobs until ``--seconds`` have
passed, then checks every output.  The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``: with ``--trace 0`` the
end-to-end metrics, with ``--trace 1`` the per-layer ones (the calls are
timed through :mod:`spans`, so the two kinds come from separate runs).
Scratch files go to ``.bench_work/`` in the checkout and are removed.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
WORKLOAD_NAMES = ("grey_fleet", "hybrid_schemes", "nn_backtest")


@dataclass
class Record:
    key: object
    seconds: float
    ok: bool
    out: object


def require_sources() -> None:
    if not (SRC / "greycast" / "__init__.py").is_file():
        raise SystemExit(f"error: no greycast sources at {SRC}")


def import_greycast() -> SimpleNamespace:
    require_sources()
    sys.path.insert(0, str(SRC))
    names = {
        "main": "greycast.cli.main",
        "io": "greycast.cli.io",
        "models": "greycast.cli.models",
        "config": "greycast.cli.config",
        "markov": "greycast.markov",
        "series": "greycast.series",
        "errors": "greycast.errors",
    }
    gc = SimpleNamespace(**{key: importlib.import_module(mod) for key, mod in names.items()})
    if not Path(gc.main.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: greycast was imported from {gc.main.__file__}, not {SRC}")
    return gc


def set_up(workload: str, seed: int, workdir: Path):
    """Import greycast, build the inputs, finish a warm-up job; timed."""
    start = time.perf_counter()
    gc = import_greycast()
    import workloads

    wl = workloads.WORKLOADS[workload](gc, workdir, seed)
    wl.warmup()
    return gc, wl, time.perf_counter() - start


def run_rounds(gc, wl, seconds: float) -> tuple[list[Record], float]:
    records = []
    start = time.perf_counter()
    deadline = start + seconds
    r = 0
    while r < wl.min_rounds or time.perf_counter() < deadline:
        for key, job in wl.round(r):
            t0 = time.perf_counter()
            try:
                ok, out = job()
            except gc.errors.GreycastError as exc:
                ok, out = False, exc
            records.append(Record(key, time.perf_counter() - t0, ok, wl.keep(r, out)))
        r += 1
    return records, time.perf_counter() - start


def measure(args, workdir: Path) -> dict:
    gc, wl, setup_s = set_up(args.workload, args.seed, workdir)

    tracer = spans.Tracer() if args.trace else None
    with tracer.installed() if tracer else nullcontext():
        records, loop_s = run_rounds(gc, wl, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    import checks

    correct = True
    try:
        wl.check(records)
    except checks.CheckFailed as exc:
        correct = False
        print(f"check failed: {exc}", file=sys.stderr)
    done = [rec for rec in records if rec.ok]
    jobs_per_s = len(done) / loop_s
    if tracer:
        print(f"traced: {jobs_per_s:.6g} jobs/s over {len(done)} jobs")
        metrics = tracer.metrics(wl.network_weight(records))
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "jobs_per_s": {"value": jobs_per_s, "unit": "jobs/s"},
            "job_p50_s": {"value": statistics.median(r.seconds for r in done), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "heldout_mape_pct": {"value": wl.heldout_mape(records), "unit": "%"},
        }
    return {
        "correct": correct,
        "attempted": len(records),
        "failed": len(records) - len(done),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    require_sources()
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        result = measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run is still using it
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
