"""Run one flexconn benchmark workload and print its metrics.

    python3 perfbench/run.py --workload scan --seed 1 --seconds 20 --trace 0

Run from the repository root.  The library is imported from ``src/`` of
the same checkout, in this process, on one thread, in a closed loop: each
op starts when the previous one returns.  ``--seconds`` sizes the op list
so that one pass lasts about that long on a 2-CPU x86 box at the commit
that added the benchmark; the run makes exactly one pass.

With ``--trace 0`` it prints the end-to-end metrics; with ``--trace 1``
each op runs once untraced and once traced, and it prints the per-layer
metrics and writes the spans to ``perfbench/out/``.  Human-readable lines
come first; the last line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Every op's output is checked
(untimed) by independent code; see workloads.check.
"""

from __future__ import annotations

import os
import time

_T0 = time.perf_counter()
# one thread in every numeric library, set before numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

# set-up is repeated this many times and its median reported
SETUP_ROUNDS = 3

# the bounded end-to-end metrics, as listed in BENCHMARK.json
END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


def direct(_name, fn, *args, **kwargs):
    return fn(*args, **kwargs)


def environment() -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": git_commit(),
        "threads": {v: os.environ[v] for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def tail(latencies):
    """(percentile, value): the highest percentile with at least ten ops
    beyond it, or None under 20 ops."""
    n = len(latencies)
    if n < 20:
        return None
    return 100.0 * (n - 10) / n, sorted(latencies)[n - 11]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "flexconn" / "__init__.py").is_file():
        print(f"error: no flexconn sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import tracing
    import workloads as wl
    from oracle import OracleCache

    if args.workload not in wl.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(wl.WORKLOADS)}", file=sys.stderr)
        return 2
    w = wl.WORKLOADS[args.workload]
    tracer = tracing.Tracer(wl.MODULES) if args.trace else None

    with tempfile.TemporaryDirectory(prefix="work-", dir=BENCH_DIR) as tmp:
        work = Path(tmp)
        wl.warm_up(work)
        startup_s = time.perf_counter() - _T0

        setup_problems = []
        rounds = []
        items = None
        for r in range(SETUP_ROUNDS):
            traced = tracer is not None and r == 0
            t = time.perf_counter()
            if traced:
                tracer.install()
            try:
                built = wl.build(w, args.seed, args.seconds, work / f"round{r}", tracer.call if traced else direct)
            finally:
                if traced:
                    tracer.restore()
            rounds.append(time.perf_counter() - t)
            if items is None:
                items = built
            elif [i.inst for i in built] != [i.inst for i in items]:
                setup_problems.append(f"set-up round {r} generated other instances than round 0")
        # the op list's objects are the benchmark's, not the program's:
        # keep the collector from rescanning them during timed ops
        gc.collect()
        gc.freeze()
        setup_s = startup_s + statistics.median(rounds)

        oracle_for = OracleCache()
        latencies, traced_latencies, records = [], [], []
        ratios = defaultdict(list)
        failures, defects = [], []
        for item in items:
            res, err, dt = run_timed(wl.run_op, w, item, direct)
            latencies.append(dt)
            if tracer is not None:
                tracer.op = item.id
                tracer.install()
                try:
                    res_t, err_t, dt_t = run_timed(wl.run_op, w, item, tracer.call)
                finally:
                    tracer.restore()
                    tracer.op = None
                traced_latencies.append(dt_t)
            if err is not None:
                failures.append((item.id, err))
                continue
            try:
                problems, found = wl.check(w, item, res, oracle_for)
                rec = wl.record(w, item, res)
                for name, value in wl.ratios(w, res).items():
                    ratios[name].append(value)
            except Exception as exc:  # malformed output: fail the op, keep going
                failures.append((item.id, f"checking the output raised {type(exc).__name__}: {exc}"))
                continue
            records.append(rec)
            if tracer is not None and (err_t is not None or wl.record(w, item, res_t) != rec):
                problems.append("traced run gave other outputs than the untraced one")
            failures.extend((item.id, p) for p in problems)
            defects.extend((item.id, d) for d in found)

    failed_ids = {i for i, _ in failures}
    attempted = len(items)
    failed = len(failed_ids)
    fp = wl.fingerprint(records)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    lines = [f"workload {w.name}  seed {args.seed}  ops {attempted}  trace {args.trace}"]
    if tracer is None:
        values = {"wall_s": sum(latencies), "setup_s": setup_s, "peak_rss_mb": peak_rss_mb}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        for name, unit in END_TO_END:
            lines.append(f"  {name:<20} {values[name]:>12.6f} {unit}")
        # printed, not bounded: they move too much from one seed to the next
        lines.append(f"  {'op_s_p50':<20} {statistics.median(latencies):>12.6f} s")
        pct = tail(latencies)
        if pct is not None:
            lines.append(f"  {'op_s_tail':<20} {pct[1]:>12.6f} s  (p{pct[0]:.1f} of {attempted} ops)")
    else:
        untraced_wall, traced_wall = sum(latencies), sum(traced_latencies)
        values = tracing.layer_values(tracer.spans, untraced_wall, traced_wall, len(defects))
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in tracing.LAYER_METRICS}
        for name, unit in tracing.LAYER_METRICS:
            lines.append(f"  {name:<36} {values[name]:>14.6f} {unit}")
        lines.append(
            f"  is_feasible verdicts: {values['model.is_feasible.infeasible']} infeasible, "
            f"{values['model.is_feasible.mincut_exits']} decided by the minimum cut alone"
        )
        lines.append("  largest self times (share of traced op time):")
        for name, share in tracing.top_self(tracer.spans, traced_wall):
            lines.append(f"    {name:<34} {share:7.1%}")
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"spans-{w.name}-seed{args.seed}.jsonl"
        tracer.write_jsonl(spans_path, _T0)
        lines.append(f"  spans written to {spans_path.relative_to(ROOT)}")
    lines.append(f"  fail_frac            {failed}/{attempted} = {failed / attempted:.4f}")
    for name, xs in ratios.items():
        geomean = math.exp(statistics.fmean(math.log(x) for x in xs))
        lines.append(f"  {name:<20} {geomean:>12.6f}")
    lines.append(f"  lp_above_opt         {len(defects)} (known defect; not counted as failed)")
    lines.append(f"  fingerprint          {fp}")
    lines.append(f"  env                  {json.dumps(environment(), sort_keys=True)}")
    for problem in setup_problems:
        lines.append(f"  SETUP FAIL: {problem}")
    for item_id, reason in failures:
        lines.append(f"  FAIL {item_id}: {reason}")
    for item_id, reason in defects:
        lines.append(f"  DEFECT {item_id}: {reason}")
    print("\n".join(lines))
    result = {
        "correct": failed == 0 and not setup_problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result), flush=True)
    return 0


def run_timed(run_op, w, item, call):
    """(result, error, seconds) of one op; an exception fails the op."""
    t = time.perf_counter()
    try:
        res = run_op(w, item, call)
        err = None
    except Exception as exc:  # a raising op is a failed op; the run goes on
        res, err = None, f"{type(exc).__name__}: {exc}"
    return res, err, time.perf_counter() - t


if __name__ == "__main__":
    sys.exit(main())
