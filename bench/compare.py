"""Two sets of benchmark runs of the same code, compared against BENCHMARK.json.

    python3 bench/compare.py [--runs 10] [--sets 2] [--first-seed 1]
                             [--out results.json]

Runs ``--runs`` runs of every workload in BENCHMARK.json per set, each
with its own seed (the second set uses fresh seeds), one after another,
untraced.  For every workload and end-to-end metric it prints each set's
median and quartiles, the spread (quartile distance over median) against
the metric's bound, and the signed change of the second median from the
first.  The sets agree when that change, in either direction, is within
the bound.  It also checks that every run was correct and that the failed
share is the same in every run.  Exits 1 if anything is out of bounds.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def one_run(workload: str, seed: int) -> dict:
    command = SPEC["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(SPEC["run_seconds"]), "--trace", "0",
    ]
    start = time.monotonic()
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, check=True, timeout=600)
    result = json.loads(done.stdout.splitlines()[-1])
    result["wall_s"] = time.monotonic() - start
    result["seed"] = seed
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2, choices=(1, 2))
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", help="write every run's result here as JSON")
    args = parser.parse_args()
    workloads = [w["name"] for w in SPEC["workloads"]]

    sets = []
    seed = args.first_seed
    for s in range(args.sets):
        runs = {}
        for workload in workloads:
            runs[workload] = []
            for _ in range(args.runs):
                runs[workload].append(one_run(workload, seed))
                seed += 1
                print(f"set {s + 1} {workload} run {len(runs[workload])}: "
                      f"{json.dumps(runs[workload][-1])}", file=sys.stderr, flush=True)
        sets.append(runs)
    if args.out:
        Path(args.out).write_text(json.dumps(sets, indent=1))

    ok = True
    for workload in workloads:
        print(f"\n{workload}")
        shares = {(r["failed"], r["attempted"]) for runs in sets for r in runs[workload]}
        ratios = {f / a for f, a in shares}
        correct = all(r["correct"] for runs in sets for r in runs[workload])
        print(f"  correct in every run: {correct}; failed shares seen: {sorted(ratios)}")
        ok &= correct and len(ratios) == 1
        for metric in SPEC["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            line = f"  {name:18s}"
            medians = []
            for runs in sets:
                values = [r["metrics"][name]["value"] for r in runs[workload]]
                q1, med, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / med
                medians.append(med)
                line += f" | median {med:.6g} [{q1:.6g}, {q3:.6g}] spread {spread:.3f}"
                if name != "setup_s" and spread > bound:
                    ok = False
                    line += " OVER"
            if len(medians) == 2:
                change = medians[1] / medians[0] - 1
                agree = abs(change) <= bound
                ok &= agree
                line += f" | change {change:+.3f} (bound {bound}) {'agree' if agree else 'DISAGREE'}"
            print(line)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
