"""The benchmark's workloads: seeded op lists, the timed op, and output checks.

Every instance comes from ``gen_random`` with a seed drawn from the
workload seed, and is stored as a file that the op loads, as the CLI
does.  Op lists are stratified: each stratum (a tuple of generator
parameters) gets the same number of instances, and strata are
interleaved, so two workload seeds differ only in the instances drawn,
not in the mix.

Why each workload exists.  Shares are self time over op time in the
traced run, on a 2-CPU x86 box at the commit that added the benchmark;
seeds 1 and 99 agreed to within two points.

- ``scan``: sparse graphs at n=14.  The pure-Python scan over all 2^(n-1)
  cuts inside separation is the largest self time (about 67%; row
  building 18%, LP 5%).  A cut-scan kernel should move this workload.
  n=16..18 would make the scan dominate further, but an op would then
  take seconds, too few ops for a steady pass.
- ``rows``: small dense graphs (n=8) with high p and q.  The scan touches
  127 masks, while building candidate rows takes about 72% (LP 13%, scan
  4%).  A cut-scan change should not move it; row, pool or LP work
  should.  n=10 instances would add a heavier tail of slow solves and
  fewer ops per pass, so a run's wall time would depend more on the seed.
- ``check``: feasibility verdicts on stored instances, half of them
  infeasible.  Every infeasible verdict here exits after one Stoer-Wagner
  minimum cut, while feasible ones (and the validation in every load) run
  the full scan, about 99% of op time.  A change that helps one path and
  hurts the other shows here.  One size, n=15, keeps set-up short; n=16
  takes four times longer to generate and validate.
- ``verify``: the ``solve --with-exact`` path at two cost scales.  It is
  the only workload that runs the branch-and-bound oracle (about 35%; LP
  33%), and its tiny-cost half keeps the known LP-above-optimum defect
  visible (about a quarter of those instances).
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

from flexconn import exact, instance_io, model, relaxation, rounding
from flexconn.exact import exact_opt, separate_bruteforce
from flexconn.instance_io import gen_random, load_instance, save_instance
from flexconn.model import is_feasible
from flexconn.relaxation import DEFAULT_EPS, solve_relaxation
from flexconn.rounding import RoundingConfig, solve as rounding_solve

from oracle import CutOracle

MODULES = {
    "instance_io": instance_io,
    "model": model,
    "relaxation": relaxation,
    "rounding": rounding,
    "exact": exact,
}

# rounding's guarantee: accepted cost <= 200 ln(n) times the LP value
COST_FACTOR = 200.0
# relative slack on float comparisons between independently computed costs
REL_SLACK = 1e-9
# verify's largest final edge count.  exact_opt accepts up to 22, but its
# branch-and-bound time grows so steeply in m that a few instances near 22
# would decide a run's wall time and make it depend on the seed.
VERIFY_MAX_EDGES = 16
# fewest ops per pass; op_s_tail needs ten ops beyond its percentile
MIN_OPS = 20


@dataclass(frozen=True)
class Workload:
    name: str
    strata: tuple
    # ops per second at the commit that added the benchmark, on a 2-CPU
    # x86 box; sizes the op list so one pass lasts about --seconds there
    ops_per_s: float
    # check ops reload each instance this many times (half text, half JSON)
    ops_per_instance: int = 1


WORKLOADS = {
    w.name: w
    for w in (
        Workload("scan", ((14, 2, 1), (14, 2, 2)), 1.55),
        Workload("rows", tuple((8, p, q) for p, q in ((3, 3), (4, 2), (4, 3))), 3.7),
        Workload("check", (15,), 7.5, ops_per_instance=10),
        Workload(
            "verify",
            tuple(
                (scale, p, q)
                for scale in ((1.0, 10.0), (1e-9, 1e-6))
                for p, q in ((1, 1), (1, 2), (2, 1))
            ),
            45.0,
        ),
    )
}

# check ops: this many feasible and this many infeasible selections each
CHECK_EACH = 2


@dataclass
class Item:
    """One op: load ``path`` and run the workload's calls on it."""

    id: str
    inst: object
    path: Path
    selections: tuple = ()
    expected: tuple = ()


def _generate(w: Workload, stratum, rng: random.Random, call):
    if w.name == "scan":
        n, p, q = stratum
        return call("instance_io.gen", gen_random, n, 3 * n, 0.5, (1.0, 10.0), p, q, rng.randrange(2**31))
    if w.name == "rows":
        n, p, q = stratum
        m = rng.randint(6 * n, 8 * n)
        return call("instance_io.gen", gen_random, n, m, 0.5, (1.0, 10.0), p, q, rng.randrange(2**31))
    if w.name == "check":
        n = stratum
        return call("instance_io.gen", gen_random, n, 3 * n, 0.5, (1.0, 10.0), 2, 1, rng.randrange(2**31))
    scale, p, q = stratum
    while True:
        # repair can add edges; redraw until the instance is small enough
        n = rng.randint(6, 10)
        m = rng.randint(n + 4, VERIFY_MAX_EDGES)
        inst = call("instance_io.gen", gen_random, n, m, 0.5, scale, p, q, rng.randrange(2**31))
        if inst.m <= VERIFY_MAX_EDGES:
            return inst


def _check_selections(inst, oracle: CutOracle, rng: random.Random):
    """Sets of selections with CHECK_EACH feasible and CHECK_EACH infeasible
    members, labelled by the oracle; each selection drops every edge
    independently at one of a few rates."""
    feasible, infeasible = [], []
    for _ in range(400):
        rate = rng.choice((0.05, 0.1, 0.2))
        sel = frozenset(e for e in range(inst.m) if rng.random() >= rate)
        bucket = feasible if oracle.feasible(sel) else infeasible
        if len(bucket) < CHECK_EACH:
            bucket.append(sel)
        if len(feasible) == len(infeasible) == CHECK_EACH:
            break
    while len(feasible) < CHECK_EACH:
        feasible.append(inst.all_edges)
    while len(infeasible) < CHECK_EACH:
        infeasible.append(frozenset())
    labelled = [(s, True) for s in feasible] + [(s, False) for s in infeasible]
    rng.shuffle(labelled)
    return tuple(s for s, _ in labelled), tuple(v for _, v in labelled)


def build(w: Workload, seed: int, seconds: float, workdir: Path, call) -> list[Item]:
    """Generate the op list for one workload seed and store its instances."""
    rng = random.Random(f"{w.name}:{seed}")
    per_stratum = max(
        math.ceil(MIN_OPS / (len(w.strata) * w.ops_per_instance)),
        round(seconds * w.ops_per_s / (len(w.strata) * w.ops_per_instance)),
    )
    workdir.mkdir(parents=True, exist_ok=True)
    items = []
    for k in range(per_stratum):
        for s, stratum in enumerate(w.strata):
            inst = _generate(w, stratum, rng, call)
            base = f"{w.name}-{k * len(w.strata) + s}"
            if w.name != "check":
                path = workdir / f"{base}.fgc"
                save_instance(inst, path)
                items.append(Item(base, inst, path))
                continue
            oracle = CutOracle(inst)
            for j in range(w.ops_per_instance):
                path = workdir / (f"{base}.json" if j % 2 else f"{base}.fgc")
                if j < 2:
                    save_instance(inst, path)
                sels, expected = _check_selections(inst, oracle, rng)
                items.append(Item(f"{base}.{j}", inst, path, sels, expected))
    return items


def run_op(w: Workload, item: Item, call) -> dict:
    """The timed op: what the CLI's check or solve [--with-exact] runs."""
    inst = call("instance_io.load", load_instance, item.path)
    if w.name == "check":
        verdicts = [call("model.is_feasible", is_feasible, inst, s) for s in item.selections]
        return {"inst": inst, "verdicts": verdicts}
    relax = call("relaxation.solve_relaxation", solve_relaxation, inst)
    out = call("rounding.solve", rounding_solve, inst, RoundingConfig(), relaxation=relax)
    res = {"inst": inst, "relax": relax, "out": out}
    if w.name == "verify":
        res["exact"] = call("exact.exact_opt", exact_opt, inst)
    return res


def _fmt(x: float) -> str:
    return f"{x:.8e}"


def record(w: Workload, item: Item, res: dict) -> list:
    """The op's deterministic outputs, as hashed into the fingerprint."""
    if w.name == "check":
        return [item.id, [bool(v) for v in res["verdicts"]]]
    relax, out = res["relax"], res["out"]
    rec = [item.id, _fmt(relax.value), relax.iterations, sorted(out.selection), out.attempts_used]
    if "exact" in res:
        rec.append(_fmt(res["exact"].best_cost))
    return rec


def _cost(inst, selection) -> float:
    return math.fsum(inst.cost[e] for e in selection)


def check(w: Workload, item: Item, res: dict, oracle_for) -> tuple[list[str], list[str]]:
    """Untimed output checks.

    Returns (problems, defects).  A problem fails the op.  A defect is the
    known LP-above-optimum case (the LP value is meant to lower-bound the
    optimum), which is reported per instance and counted on its own.
    """
    problems, defects = [], []
    inst = res["inst"]
    if inst != item.inst:
        problems.append("loaded instance differs from the generated one")
        return problems, defects
    oracle = oracle_for(item.id.split(".")[0], inst)
    if w.name == "check":
        for i, (v, want) in enumerate(zip(res["verdicts"], item.expected)):
            if bool(v) != want:
                problems.append(f"selection {i}: is_feasible says {bool(v)}, cut oracle says {want}")
        return problems, defects

    relax, out = res["relax"], res["out"]
    lp = float(relax.value)
    cost = out.cost
    if not oracle.feasible(out.selection):
        problems.append("returned selection is infeasible")
    if not math.isclose(cost, _cost(inst, out.selection), rel_tol=REL_SLACK):
        problems.append(f"reported cost {cost!r} is not the selection's cost")
    if out.lp_value != lp:
        problems.append("rounding reports another LP value than the relaxation")
    cap = COST_FACTOR * math.log(inst.n) * lp
    if cost > cap * (1 + REL_SLACK):
        problems.append(f"cost {cost!r} above 200 ln(n) x LP = {cap!r}")
    if w.name == "verify":
        ex = res["exact"]
        if not oracle.feasible(ex.best_selection):
            problems.append("exact_opt selection is infeasible")
        if not math.isclose(ex.best_cost, _cost(inst, ex.best_selection), rel_tol=REL_SLACK):
            problems.append("exact_opt cost is not its selection's cost")
        if cost < ex.best_cost * (1 - REL_SLACK):
            problems.append(f"rounded cost {cost!r} below exact optimum {ex.best_cost!r}")
        if lp > ex.best_cost * (1 + REL_SLACK):
            defects.append(
                f"LP value {lp!r} above exact optimum {ex.best_cost!r} "
                f"(by {lp / ex.best_cost - 1:.2%})"
            )
        violated = separate_bruteforce(inst, relax.x, DEFAULT_EPS)
        if violated:
            problems.append(f"separate_bruteforce finds {len(violated)} violated rows at the final x")
    return problems, defects


def ratios(w: Workload, res: dict) -> dict:
    """Cost over LP value and, on verify, cost over the exact optimum."""
    if w.name == "check":
        return {}
    out = {"cost_ratio_geomean": res["out"].cost / res["relax"].value}
    if w.name == "verify":
        out["opt_ratio_geomean"] = res["out"].cost / res["exact"].best_cost
    return out


def fingerprint(records: list) -> str:
    blob = json.dumps(records, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def warm_up(workdir: Path) -> None:
    """One tiny solve and exact run, so lazily loaded solver code is in
    place before anything is timed."""
    inst = gen_random(5, 10, 0.5, (1.0, 10.0), 1, 1, 0)
    path = workdir / "warm.fgc"
    save_instance(inst, path)
    relax = solve_relaxation(load_instance(path))
    rounding_solve(inst, RoundingConfig(), relaxation=relax)
    exact_opt(inst)
