"""Command-line interface.

Subcommands: check (feasibility of an edge selection), lp (fractional
relaxation), solve (LP + randomized rounding), exact (brute-force optimum),
gen (random instance files), bench (batch runs over a generated suite),
counts (near-minimum-cut counting).  Reports are one JSON object per line,
or an aligned table with --pretty.  Exit codes: 0 success, 1 infeasible or
invalid instance, 2 parse error, 3 resource limit or internal error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .errors import (
    FlexconnError,
    GraphStructureError,
    InvalidInstanceError,
    ParseError,
)
from .exact import check_exact_size, count_cuts_at_most, exact_opt
from .graph import check_int, min_cut
from .instance_io import gen_random, load_instance, plain_token, save_instance
from .model import is_feasible
from .relaxation import solve_relaxation
from .rounding import RoundingConfig, solve as rounding_solve


def _emit(report: dict, pretty: bool) -> None:
    if pretty:
        width = max(len(k) for k in report)
        for key in sorted(report):
            print(f"{key:<{width}}  {report[key]}")
    else:
        print(json.dumps(report, sort_keys=True))


def _parse_edge_list(raw: str | None, m: int) -> frozenset[int]:
    if raw is None:
        return frozenset(range(m))
    parts = [tok for chunk in raw.split(",") for tok in chunk.split()]
    try:
        return frozenset(int(plain_token(tok)) for tok in parts)
    except ValueError:
        raise ValueError(f"--edges must be a comma-separated id list, got {raw!r}") from None


def cmd_check(args) -> int:
    inst = load_instance(args.file)
    selection = _parse_edge_list(args.edges, inst.m)
    verdict = is_feasible(inst, selection)
    report = {
        "command": "check",
        "feasible": verdict.feasible,
        "selection_size": len(selection),
    }
    if verdict.witness is not None:
        report["witness"] = sorted(verdict.witness.vertices)
    _emit(report, args.pretty)
    return 0 if verdict.feasible else 1


def cmd_lp(args) -> int:
    inst = load_instance(args.file)
    relax = solve_relaxation(inst)
    report = {
        "command": "lp",
        "lp_value": relax.value,
        "iterations": relax.iterations,
        "active_rows": len(relax.active_rows),
        "x": list(relax.x),
    }
    _emit(report, args.pretty)
    return 0


def cmd_solve(args) -> int:
    inst = load_instance(args.file)
    cfg = RoundingConfig(
        scale_constant=args.scale_c,
        max_attempts=args.max_attempts,
        seed=args.seed,
    )
    if args.with_exact:
        # refuse before the LP and rounding, whose report would be lost
        check_exact_size(inst)
    t0 = time.perf_counter()
    relax = solve_relaxation(inst)
    t1 = time.perf_counter()
    outcome = rounding_solve(inst, cfg, relaxation=relax)
    t2 = time.perf_counter()
    report = {
        "command": "solve",
        "lp_value": outcome.lp_value,
        "solution_cost": outcome.cost,
        "selection": sorted(outcome.selection),
        "attempts": outcome.attempts_used,
        "forced_set_size": outcome.forced_set_size,
        "seed": args.seed,
        "scale_constant": cfg.scale_constant,
        "separation_iterations": relax.iterations,
        "lp_seconds": round(t1 - t0, 6),
        "rounding_seconds": round(t2 - t1, 6),
    }
    if outcome.lp_value > 0:
        report["ratio"] = outcome.cost / outcome.lp_value
    if args.with_exact:
        report["exact_cost"] = exact_opt(inst).best_cost
    _emit(report, args.pretty)
    return 0


def cmd_exact(args) -> int:
    inst = load_instance(args.file)
    res = exact_opt(inst)
    report = {
        "command": "exact",
        "exact_cost": res.best_cost,
        "selection": sorted(res.best_selection),
        "nodes_explored": res.nodes_explored,
    }
    _emit(report, args.pretty)
    return 0


def cmd_gen(args) -> int:
    inst = gen_random(
        args.nodes,
        args.edges,
        args.safe_frac,
        (args.cost_min, args.cost_max),
        args.p,
        args.q,
        args.seed,
    )
    save_instance(inst, args.output)
    report = {
        "command": "gen",
        "written": str(args.output),
        "nodes": inst.n,
        "edges_requested": args.edges,
        "edges_final": inst.m,
        "seed": args.seed,
    }
    _emit(report, args.pretty)
    return 0


def cmd_counts(args) -> int:
    inst = load_instance(args.file)
    try:
        karger_bound = inst.n ** (2 * args.alpha)
    except OverflowError:
        raise ValueError(
            f"--alpha {args.alpha} puts the Karger bound n^(2 alpha) out of float range"
        ) from None
    caps = [1] * inst.m
    count = count_cuts_at_most(inst.graph, caps, args.alpha)  # refuses n > 20 first
    _, lam = min_cut(inst.graph, caps)
    report = {
        "command": "counts",
        "alpha": args.alpha,
        "min_cut": lam,
        "count": count,
        "karger_bound": karger_bound,
    }
    _emit(report, args.pretty)
    return 0


_BENCH_FIELDS = (
    "n", "m", "p", "q", "seed",
    "safe_fraction", "cost_range", "scale_constant", "solve_seed", "max_attempts",
)


def _bench_item(index: int, item: dict) -> dict:
    try:  # no coercion, as in instance_from_json; gen_random checks its arguments
        n, m, p, q, seed = (item[key] for key in ("n", "m", "p", "q", "seed"))
        for key in item:  # a misspelt optional field would run at its default
            if key not in _BENCH_FIELDS:
                raise ParseError(f"unknown field {key!r}")
        cfg = RoundingConfig(  # checks scale_constant and max_attempts itself
            scale_constant=item.get("scale_constant", 100.0),
            max_attempts=item.get("max_attempts", 64),
            seed=check_int(item.get("solve_seed", 0), "solve_seed"),
        )
        cost_range = item.get("cost_range", (1.0, 10.0))
        inst = gen_random(n, m, item.get("safe_fraction", 0.5), cost_range, p, q, seed)
    except KeyError as exc:
        raise ParseError(f"suite item {index}: missing field {exc}") from None
    except (TypeError, ValueError) as exc:  # ValueError includes ParseError, GenerationError
        raise ParseError(f"suite item {index}: {exc}") from None
    outcome = rounding_solve(inst, cfg)
    report = {
        "item": index,
        "n": inst.n,
        "m": inst.m,
        "p": p,
        "q": q,
        "seed": seed,
        "lp_value": outcome.lp_value,
        "solution_cost": outcome.cost,
        "attempts": outcome.attempts_used,
    }
    if outcome.lp_value > 0:
        report["ratio"] = outcome.cost / outcome.lp_value
    return report


def cmd_bench(args) -> int:
    with open(args.suite) as fh:
        suite = json.load(fh)
    items = suite.get("items") if isinstance(suite, dict) else None
    if not isinstance(items, list):
        raise ParseError("a suite is a JSON object with an 'items' list")
    for key in suite:  # a suite-wide setting would be silently ignored
        if key != "items":
            raise ParseError(f"unknown suite key {key!r}: a suite holds only 'items'")
    for i, item in enumerate(items):
        _emit(_bench_item(i, item), args.pretty)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flexconn",
        description="Flexible graph connectivity solver: LP relaxation with "
        "knapsack-cover cuts and randomized rounding.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--pretty", action="store_true", help="aligned table instead of JSON")

    sp = sub.add_parser("check", help="feasibility of an edge selection")
    sp.add_argument("file")
    sp.add_argument("--edges", help="comma-separated edge ids; default: all edges")
    common(sp)
    sp.set_defaults(func=cmd_check)

    sp = sub.add_parser("lp", help="solve the fractional relaxation")
    sp.add_argument("file")
    common(sp)
    sp.set_defaults(func=cmd_lp)

    sp = sub.add_parser("solve", help="LP relaxation plus randomized rounding")
    sp.add_argument("file")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--scale-c", type=float, default=100.0)
    sp.add_argument("--max-attempts", type=int, default=64)
    sp.add_argument("--with-exact", action="store_true", help="also run the exact baseline")
    common(sp)
    sp.set_defaults(func=cmd_solve)

    sp = sub.add_parser("exact", help="brute-force optimum (small instances)")
    sp.add_argument("file")
    common(sp)
    sp.set_defaults(func=cmd_exact)

    sp = sub.add_parser("gen", help="generate a random valid instance file")
    sp.add_argument("--nodes", type=int, required=True)
    sp.add_argument("--edges", type=int, required=True)
    sp.add_argument("--safe-frac", type=float, default=0.5)
    sp.add_argument("--cost-min", type=float, default=1.0)
    sp.add_argument("--cost-max", type=float, default=10.0)
    sp.add_argument("-p", type=int, required=True)
    sp.add_argument("-q", type=int, required=True)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("-o", "--output", required=True)
    common(sp)
    sp.set_defaults(func=cmd_gen)

    sp = sub.add_parser("bench", help="run a generated suite, one report line per item")
    sp.add_argument("--suite", required=True, help="JSON file with an 'items' list")
    common(sp)
    sp.set_defaults(func=cmd_bench)

    sp = sub.add_parser("counts", help="count near-minimum cuts at unit capacities")
    sp.add_argument("file")
    sp.add_argument("--alpha", type=float, required=True)
    common(sp)
    sp.set_defaults(func=cmd_counts)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (InvalidInstanceError, GraphStructureError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FlexconnError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
