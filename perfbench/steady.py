"""Run workloads over several seeds and report how steady each metric is.

    python3 perfbench/steady.py --seeds 1 2 3 4 5 --seconds 20
    python3 perfbench/steady.py --workloads scan rows --seeds 1 2 --seconds 20 --trace 1

Run from the repository root.  Each run is its own run.py process, one
at a time.  For every metric this prints the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread, (q3 - q1) /
median, which is what BENCHMARK.json's bounds are set against.  With
``--trace 1`` it also prints every layer share per seed, so that a seed
not used while tuning (the held-out seed) can be compared with the rest.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
WORKLOADS = ("scan", "rows", "check", "verify")


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=900, check=False,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> tuple[float, float, float, float]:
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("nan")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", nargs="+", default=list(WORKLOADS))
    ap.add_argument("--seeds", nargs="+", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    for workload in args.workloads:
        results = []
        for seed in args.seeds:
            res = run_once(workload, seed, args.seconds, args.trace)
            results.append(res)
            print(f"{workload} seed {seed}: correct={res['correct']} "
                  f"attempted={res['attempted']} failed={res['failed']}", flush=True)
        names = list(results[0]["metrics"])
        print(f"{workload}: {'metric':<34} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8}")
        for name in names:
            vals = [r["metrics"][name]["value"] for r in results]
            if args.trace and not name.endswith(".share"):
                continue
            med, q1, q3, spread = summarize(vals)
            print(f"{workload}: {name:<34} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {spread:>8.3f}"
                  "  per seed: " + " ".join(f"{v:.4g}" for v in vals), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
