"""Instance file format, JSON alternative, and the random generator.

Text format, one directive per line, `#` starts a comment:

    fgc 1
    p 1
    q 1
    nodes 2
    edge 0 1 S 5
    edge 0 1 U 1

Vertex indices are 0-based; the safety flag is S or U; costs are
nonnegative decimals.  Edge ids are assigned in file order.  Files ending
in .json carry the same data as a JSON object.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

from .errors import FieldRangeError, GenerationError, InvalidInstanceError, ParseError
from .graph import Multigraph, check_float, check_int, is_connected
from .model import FgcInstance, is_feasible, validate_instance

HEADER = "fgc"
VERSION = 1

# attempts at sampling a connected multigraph / repairing feasibility
MAX_SAMPLING_ATTEMPTS = 1000
MAX_AUGMENTATIONS = 1000


def plain_token(token: str) -> str:
    """``token`` if it holds no underscore and no non-ASCII character, else
    ValueError.  int() and float() also read "1_0" as 10 and non-ASCII
    digits, spellings that neither the format nor --edges defines."""
    if "_" in token or not token.isascii():
        raise ValueError(f"{token!r} is not plain ASCII without underscores")
    return token


def _parse_int(token: str, what: str, line: int) -> int:
    try:
        return int(plain_token(token))
    except ValueError:
        raise ParseError(f"{what} must be an integer, got {token!r}", line) from None


def _parse_cost(token: str, line: int) -> float:
    try:
        return float(plain_token(token))
    except ValueError:
        raise ParseError(f"cost must be a number, got {token!r}", line) from None


def _checked_instance(n, edges, safety, costs, p, q) -> FgcInstance:
    """Both parsers' last step: range-check n, endpoints and costs, then
    build and validate.  ``edges`` holds (u, v, text line or None)."""
    # Multigraph refuses n < 2 and endpoints out of range too, but with a
    # GraphStructureError (exit 1) and no line; here they are a
    # FieldRangeError with the edge's line (exit 2), and tests pin both
    if n < 2:
        raise FieldRangeError(f"nodes must be at least 2, got {n}")
    for e, (u, v, line) in enumerate(edges):
        if not (0 <= u < n and 0 <= v < n):
            raise FieldRangeError(f"endpoint out of range 0..{n - 1}", line)
        try:
            costs[e] = check_float(costs[e], "cost")
        except ValueError as exc:
            raise FieldRangeError(str(exc), line) from None
    graph = Multigraph(n, tuple((u, v) for u, v, _ in edges))
    inst = FgcInstance(graph, tuple(safety), tuple(costs), p, q)
    validate_instance(inst)
    return inst


def parse_instance(text: str) -> FgcInstance:
    """Parse and fully validate an instance from the text format.

    Raises ParseError (with a 1-based line number) for malformed syntax,
    FieldRangeError for out-of-range fields, GraphStructureError for a bad
    graph, and InvalidInstanceError when the full edge set is infeasible.
    """
    header_seen = False
    params: dict[str, int] = {}
    edges: list[tuple[int, int, int]] = []
    safety: list[bool] = []
    costs: list[float] = []

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        key = tokens[0]
        if not header_seen:
            if key != HEADER:
                raise ParseError(f"expected header '{HEADER} {VERSION}', got {key!r}", line_no)
            if len(tokens) != 2:
                raise ParseError("header must be exactly 'fgc <version>'", line_no)
            if _parse_int(tokens[1], "format version", line_no) != VERSION:
                raise ParseError(f"unsupported format version {tokens[1]}", line_no)
            header_seen = True
            continue
        if key in ("p", "q", "nodes"):
            if len(tokens) != 2:
                raise ParseError(f"'{key}' takes exactly one value", line_no)
            if key in params:
                raise ParseError(f"duplicate '{key}' line", line_no)
            params[key] = _parse_int(tokens[1], key, line_no)
        elif key == "edge":
            if len(tokens) != 5:
                raise ParseError("'edge' takes <u> <v> <S|U> <cost>", line_no)
            u = _parse_int(tokens[1], "endpoint", line_no)
            v = _parse_int(tokens[2], "endpoint", line_no)
            if tokens[3] not in ("S", "U"):
                raise ParseError(f"safety flag must be S or U, got {tokens[3]!r}", line_no)
            edges.append((u, v, line_no))
            safety.append(tokens[3] == "S")
            costs.append(_parse_cost(tokens[4], line_no))
        else:
            raise ParseError(f"unknown directive {key!r}", line_no)

    if not header_seen:
        raise ParseError(f"missing header '{HEADER} {VERSION}'")
    for key in ("p", "q", "nodes"):
        if key not in params:
            raise ParseError(f"missing '{key}' line")
    return _checked_instance(params["nodes"], edges, safety, costs, params["p"], params["q"])


def _format_cost(c: float) -> str:
    if c == int(c) and abs(c) < 1e15:
        return str(int(c))
    return repr(c)


def serialize_instance(inst: FgcInstance) -> str:
    """Canonical text form; parse(serialize(inst)) reproduces the instance."""
    lines = [f"{HEADER} {VERSION}", f"p {inst.p}", f"q {inst.q}", f"nodes {inst.n}"]
    for e, (u, v) in enumerate(inst.graph.edges):
        flag = "S" if inst.safe[e] else "U"
        lines.append(f"edge {u} {v} {flag} {_format_cost(inst.cost[e])}")
    return "\n".join(lines) + "\n"


def instance_to_json(inst: FgcInstance) -> dict:
    return {
        "format": HEADER,
        "version": VERSION,
        "p": inst.p,
        "q": inst.q,
        "nodes": inst.n,
        "edges": [
            [u, v, "S" if inst.safe[e] else "U", inst.cost[e]]
            for e, (u, v) in enumerate(inst.graph.edges)
        ],
    }


def instance_from_json(obj: dict) -> FgcInstance:
    """Parse and fully validate a JSON instance; coerces no field (see parse_instance)."""
    try:
        is_fgc = isinstance(obj, dict) and obj.get("format") == HEADER
        if not is_fgc or check_int(obj.get("version"), "version") != VERSION:
            raise ParseError("not a fgc/1 JSON object")
        n = check_int(obj["nodes"], "nodes")
        edges = []
        safety = []
        costs = []
        for u, v, flag, cost in obj["edges"]:
            if flag not in ("S", "U"):
                raise ParseError(f"safety flag must be S or U, got {flag!r}")
            edges.append((check_int(u, "endpoint"), check_int(v, "endpoint"), None))
            safety.append(flag == "S")
            costs.append(cost)
        p, q = check_int(obj["p"], "p"), check_int(obj["q"], "q")
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed JSON instance: {exc}") from None
    return _checked_instance(n, edges, safety, costs, p, q)


def load_instance(path: str | Path) -> FgcInstance:
    path = Path(path)
    text = path.read_text()
    if path.suffix == ".json":
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON: {exc}", exc.lineno) from None
        return instance_from_json(obj)
    return parse_instance(text)


def save_instance(inst: FgcInstance, path: str | Path) -> None:
    path = Path(path)
    if path.suffix == ".json":
        path.write_text(json.dumps(instance_to_json(inst), indent=2) + "\n")
    else:
        path.write_text(serialize_instance(inst))


def gen_random(
    n: int,
    m: int,
    safe_fraction: float,
    cost_range: tuple[float, float],
    p: int,
    q: int,
    seed: int,
) -> FgcInstance:
    """Seeded random valid instance.

    Samples uniform random multigraphs until one is connected, labels each
    edge safe with probability safe_fraction, and draws costs uniformly
    from cost_range.  If the full edge set is infeasible for (p, q), the
    graph is repaired by adding parallel unsafe edges across violated cuts,
    one per step, until it passes.  Only unsafe edges are added, so a cut
    short of p safe edges needs p+q edges in all, and at large q the
    repair gives up after MAX_AUGMENTATIONS = 1000 edges with
    GenerationError: gen_random(12, 30, 0.7, (1, 10), 2, 10**5, 1) raises
    it.

    n, m, p, q and seed are read by check_int; safe_fraction and both ends
    of cost_range by check_float, so bools and strings are refused, ints,
    numpy integers and Fractions are read as floats, and a value beyond
    float range is refused with its field named.  Every refused argument,
    and drawn costs whose total is beyond float range, raise
    GenerationError.
    """
    try:
        n, m, p, q, seed = map(check_int, (n, m, p, q, seed), ("n", "m", "p", "q", "seed"))
        safe_fraction = check_float(safe_fraction, "safe_fraction")
        lo, hi = (check_float(c, "cost_range") for c in cost_range)
    except ValueError as exc:
        raise GenerationError(str(exc)) from None
    if n < 2:
        raise GenerationError(f"need at least 2 vertices, got {n}")
    if m < n - 1:
        raise GenerationError(f"{m} edges cannot connect {n} vertices")
    if safe_fraction > 1:
        raise GenerationError(f"safe_fraction must be in [0, 1], got {safe_fraction}")
    if lo > hi:
        raise GenerationError(f"cost range must satisfy 0 <= lo <= hi < inf, got {cost_range}")
    if p < 1 or q < 0:
        raise GenerationError(f"need p >= 1 and q >= 0, got p={p}, q={q}")

    rng = random.Random(seed)
    for _ in range(MAX_SAMPLING_ATTEMPTS):
        edges = []
        for _ in range(m):
            u = rng.randrange(n)
            v = rng.randrange(n - 1)
            if v >= u:
                v += 1
            edges.append((min(u, v), max(u, v)))
        if is_connected(n, edges):
            break
    else:
        raise GenerationError(
            f"no connected multigraph with n={n}, m={m} found "
            f"in {MAX_SAMPLING_ATTEMPTS} attempts"
        )
    safety = [rng.random() < safe_fraction for _ in range(m)]
    costs = [rng.uniform(lo, hi) for _ in range(m)]

    for _ in range(MAX_AUGMENTATIONS):
        try:
            inst = FgcInstance(Multigraph(n, tuple(edges)), tuple(safety), tuple(costs), p, q)
        except InvalidInstanceError as exc:  # p and q were checked above: the costs' total
            raise GenerationError(str(exc)) from None
        verdict = is_feasible(inst, inst.all_edges)
        if verdict:
            break
        # a canonical side never holds vertex 0: join the side to it
        edges.append((0, min(verdict.witness.vertices)))
        safety.append(False)
        costs.append(rng.uniform(lo, hi))
    else:
        raise GenerationError("feasibility repair did not converge")
    # the loop's last verdict found the full edge set feasible
    return inst
