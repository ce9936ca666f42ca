"""Text and JSON instance formats plus the random generator."""

import hashlib
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flexconn import (
    FgcInstance,
    FieldRangeError,
    GenerationError,
    GraphStructureError,
    InvalidInstanceError,
    ParseError,
    gen_random,
    instance_from_json,
    instance_to_json,
    is_feasible_direct,
    load_instance,
    parse_instance,
    save_instance,
    serialize_instance,
)

from flexconn import instance_io, model

from instances import named_corpus, two_vertex

SAMPLE = """\
# two vertices, one safe and two unsafe parallel edges
fgc 1
p 1
q 1
nodes 2
edge 0 1 S 5
edge 0 1 U 1   # ids follow file order
edge 0 1 U 1
"""


def test_parse_sample():
    inst = parse_instance(SAMPLE)
    assert inst == two_vertex()


def test_round_trip_text():
    for name, inst in named_corpus():
        assert parse_instance(serialize_instance(inst)) == inst, name


def test_round_trip_json():
    for name, inst in named_corpus():
        blob = json.dumps(instance_to_json(inst))
        assert instance_from_json(json.loads(blob)) == inst, name


def test_round_trip_files(tmp_path):
    inst = two_vertex()
    for fname in ("inst.fgc", "inst.json"):
        path = tmp_path / fname
        save_instance(inst, path)
        assert load_instance(path) == inst


def test_serialize_formats_integral_costs_without_dot():
    text = serialize_instance(two_vertex())
    assert "edge 0 1 S 5\n" in text
    assert "5.0" not in text


def test_serialize_preserves_fractional_costs():
    inst = parse_instance("fgc 1\np 1\nq 0\nnodes 2\nedge 0 1 S 0.1\n")
    assert inst.cost == (0.1,)
    assert parse_instance(serialize_instance(inst)).cost == (0.1,)


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("p 1\nq 1\nnodes 2\nedge 0 1 S 1\n", "header"),
        ("fgc 2\np 1\nq 1\nnodes 2\nedge 0 1 S 1\n", "version"),
        ("fgc 1\np 1\nnodes 2\nedge 0 1 S 1\n", "missing 'q'"),
        ("fgc 1\np 1\np 2\nq 1\nnodes 2\nedge 0 1 S 1\n", "duplicate"),
        ("fgc 1\np one\nq 1\nnodes 2\nedge 0 1 S 1\n", "integer"),
        ("fgc 1\np 1\nq 1\nnodes 2\nedge 0 1 X 1\n", "safety flag"),
        ("fgc 1\np 1\nq 1\nnodes 2\nedge 0 1 S\n", "edge"),
        ("fgc 1\np 1\nq 1\nnodes 2\nedge 0 1 S abc\n", "number"),
        ("fgc 1\np 1\nq 1\nnodes 2\nwidget 3\nedge 0 1 S 1\n", "unknown directive"),
    ],
)
def test_parse_errors(text, fragment):
    with pytest.raises(ParseError) as exc:
        parse_instance(text)
    assert fragment in str(exc.value)


@pytest.mark.parametrize(
    "line, fragment",
    [
        ("nodes 1_0", "nodes must be an integer, got '1_0'"),
        ("nodes \u0662", "nodes must be an integer"),
        ("edge 0 \uff11 S 1", "endpoint must be an integer"),
        ("edge 0 1 S \u0661", "cost must be a number"),
        ("edge 0 1 S 1_0.5", "cost must be a number, got '1_0.5'"),
    ],
)
def test_parse_refuses_underscores_and_non_ascii_digits(line, fragment):
    # int() and float() read "1_0" as 10 and the Arabic-Indic digit one as 1
    lines = ["fgc 1", "p 1", "q 0", "nodes 2", "edge 0 1 S 1"]
    at = 3 if line.startswith("nodes") else 4
    lines[at] = line
    with pytest.raises(ParseError) as exc:
        parse_instance("\n".join(lines) + "\n")
    assert type(exc.value) is ParseError
    assert exc.value.line == at + 1
    assert fragment in str(exc.value)


def test_parse_error_carries_line_number():
    with pytest.raises(ParseError) as exc:
        parse_instance("fgc 1\np 1\nq 1\nnodes 2\nedge 0 1 X 1\n")
    assert exc.value.line == 5
    assert "line 5:" in str(exc.value)


@pytest.mark.parametrize(
    "text",
    [
        "fgc 1\np 1\nq 1\nnodes 1\n",
        "fgc 1\np 1\nq 1\nnodes 2\nedge 0 2 S 1\nedge 0 1 U 1\n",
        "fgc 1\np 1\nq 1\nnodes 2\nedge 0 1 S -1\n",
        "fgc 1\np 1\nq 1\nnodes 2\nedge 0 1 S inf\n",
    ],
)
def test_field_range_errors(text):
    with pytest.raises(FieldRangeError):
        parse_instance(text)


def test_parse_rejects_self_loop_via_graph_check():
    with pytest.raises(GraphStructureError):
        parse_instance("fgc 1\np 1\nq 1\nnodes 2\nedge 1 1 S 1\nedge 0 1 U 1\n")


def test_parse_rejects_infeasible_edge_set():
    # one unsafe edge cannot give p = 1, q = 1
    with pytest.raises(InvalidInstanceError) as exc:
        parse_instance("fgc 1\np 1\nq 1\nnodes 2\nedge 0 1 U 1\n")
    assert exc.value.code == "infeasible-edges"


def test_parse_rejects_bad_params():
    with pytest.raises(InvalidInstanceError) as exc:
        parse_instance("fgc 1\np 0\nq 1\nnodes 2\nedge 0 1 S 1\n")
    assert exc.value.code == "params"


def test_json_errors():
    with pytest.raises(ParseError):
        instance_from_json({"format": "other"})
    for top in ([1, 2], "x"):  # obj.get raised AttributeError
        with pytest.raises(ParseError, match="not a fgc/1 JSON object"):
            instance_from_json(top)
    with pytest.raises(ParseError):
        instance_from_json({"format": "fgc", "version": 1, "p": 1, "q": 0})
    with pytest.raises(FieldRangeError):
        instance_from_json(
            {"format": "fgc", "version": 1, "p": 1, "q": 0, "nodes": 2,
             "edges": [[0, 1, "S", -3]]}
        )


JSON_BASE = {
    "format": "fgc",
    "version": 1,
    "p": 1,
    "q": 0,
    "nodes": 2,
    "edges": [[0, 1, "S", 1.0], [0, 1, "U", 2]],
}


def _json_with(path, value):
    obj = json.loads(json.dumps(JSON_BASE))
    target = obj
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return obj


@pytest.mark.parametrize(
    "edge, bad",
    [
        ("edge 0 2 U 1", [0, 2, "U", 1.0]),
        ("edge 0 1 U -1", [0, 1, "U", -1.0]),
        ("edge 0 1 U nan", [0, 1, "U", math.nan]),
    ],
)
def test_field_range_errors_carry_the_line_in_text_only(edge, bad):
    with pytest.raises(FieldRangeError) as exc:
        parse_instance(f"fgc 1\np 1\nq 1\nnodes 2\nedge 0 1 S 1\n{edge}\n")
    assert exc.value.line == 6
    with pytest.raises(FieldRangeError) as exc:
        instance_from_json(_json_with(("edges", 1), bad))
    assert exc.value.line is None


@pytest.mark.parametrize("version", [True, 1.0, "1", None])
def test_json_version_must_be_the_integer_one(version):
    # True and 1.0 compared equal to 1 and loaded as version 1
    with pytest.raises(ParseError, match="version"):
        instance_from_json(_json_with(("version",), version))


def test_json_base_object_loads():
    inst = instance_from_json(JSON_BASE)
    assert (inst.p, inst.q, inst.n, inst.cost) == (1, 0, 2, (1.0, 2.0))


@pytest.mark.parametrize(
    "path, value",
    [
        (("p",), 1.7),
        (("p",), True),
        (("q",), 0.9),
        (("nodes",), 2.5),
        (("edges", 1, 0), 0.9),
        (("edges", 1, 1), True),
        (("edges", 0, 3), "3"),
        (("edges", 0, 3), True),
    ],
)
def test_json_rejects_non_integer_or_non_numeric_field(path, value):
    # each of these used to be coerced (1.7 -> 1, true -> 1, "3" -> 3.0)
    with pytest.raises(ParseError):
        instance_from_json(_json_with(path, value))


def test_json_rejects_integer_cost_beyond_float_range():
    obj = json.loads(json.dumps(JSON_BASE).replace("2]]", "1" + "0" * 400 + "]]"))
    with pytest.raises(ParseError, match="cost is out of float range"):
        instance_from_json(obj)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_json_round_trip_property(data):
    n = data.draw(st.integers(2, 6), label="n")
    m = data.draw(st.integers(n - 1, 2 * n), label="m")
    p = data.draw(st.integers(1, 3), label="p")
    q = data.draw(st.integers(0, 3), label="q")
    base = gen_random(n, m, 0.5, (1, 10), p, q, seed=data.draw(st.integers(0, 2**16)))
    cost = st.floats(0, 1e12, allow_nan=False) | st.integers(0, 10**6)
    costs = data.draw(st.lists(cost, min_size=base.m, max_size=base.m), label="costs")
    inst = FgcInstance(base.graph, base.safe, tuple(costs), p, q)
    assert instance_from_json(instance_to_json(inst)) == inst
    assert instance_from_json(json.loads(json.dumps(instance_to_json(inst)))) == inst


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_text_round_trip_property(data):
    n = data.draw(st.integers(2, 6), label="n")
    m = data.draw(st.integers(n - 1, 2 * n), label="m")
    p = data.draw(st.integers(1, 3), label="p")
    q = data.draw(st.integers(0, 3), label="q")
    base = gen_random(n, m, 0.5, (1, 10), p, q, seed=data.draw(st.integers(0, 2**16)))
    cost = st.floats(0, 1e12, allow_nan=False) | st.integers(0, 10**6)
    costs = data.draw(st.lists(cost, min_size=base.m, max_size=base.m), label="costs")
    inst = FgcInstance(base.graph, base.safe, tuple(costs), p, q)
    assert parse_instance(serialize_instance(inst)) == inst


_TEXT_TOKENS = (
    st.sampled_from(["S", "U", "#", "nan", "inf", "1e400", "-0", "0.5"])
    | st.integers(-3, 12).map(str)
    | st.integers().map(str)
    | st.text(max_size=6)
)
_TEXT_LINE = (
    st.tuples(
        st.sampled_from(["fgc", "p", "q", "nodes", "edge"]), st.lists(_TEXT_TOKENS, max_size=5)
    ).map(lambda t: " ".join([t[0], *t[1]]))
    | st.text(max_size=20)
)


@st.composite
def _edited_instance_texts(draw):
    """A valid instance's text with a few lines inserted, replaced, deleted
    or swapped, so that most texts get past the header and parameters."""
    lines = draw(st.sampled_from([SAMPLE, serialize_instance(named_corpus()[6][1])])).splitlines()
    for _ in range(draw(st.integers(0, 4))):
        i = draw(st.integers(0, len(lines)))
        edit = draw(st.sampled_from(["insert", "replace", "delete", "swap"]))
        if edit == "insert":
            lines.insert(i, draw(_TEXT_LINE))
        elif i < len(lines):
            if edit == "replace":
                lines[i] = draw(_TEXT_LINE)
            elif edit == "delete":
                del lines[i]
            else:
                j = draw(st.integers(0, len(lines) - 1))
                lines[i], lines[j] = lines[j], lines[i]
    return "\n".join(lines)


@settings(max_examples=300, deadline=None)
@given(text=_edited_instance_texts() | st.text())
def test_parse_instance_returns_an_instance_or_a_typed_error(text):
    # the error types parse_instance documents; anything else is a bug
    try:
        inst = parse_instance(text)
    except (ParseError, GraphStructureError, InvalidInstanceError):
        return
    assert isinstance(inst, FgcInstance)
    assert parse_instance(serialize_instance(inst)) == inst


def test_load_reports_json_syntax_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ParseError):
        load_instance(path)


def test_gen_random_is_deterministic():
    a = gen_random(6, 10, 0.5, (1, 10), 1, 1, seed=42)
    b = gen_random(6, 10, 0.5, (1, 10), 1, 1, seed=42)
    assert a == b
    c = gen_random(6, 10, 0.5, (1, 10), 1, 1, seed=43)
    assert a != c


def test_gen_random_produces_valid_feasible_instances():
    for seed in range(8):
        inst = gen_random(5, 9, 0.4, (0, 5), 2, 1, seed=seed)
        assert inst.n == 5
        assert inst.m >= 9  # repair may add edges
        assert is_feasible_direct(inst, inst.all_edges).feasible
        assert all(c >= 0 for c in inst.cost)


def test_gen_random_repairs_high_q():
    # q = 4 forces augmentation on a sparse graph
    inst = gen_random(4, 3, 0.0, (1, 2), 1, 4, seed=0)
    assert inst.m > 3
    assert is_feasible_direct(inst, inst.all_edges).feasible


# gen_random(n, m, safe_fraction, cost_range, p, q, seed) -> (edges the
# repair added, first 16 hex digits of the sha256 of serialize_instance),
# recorded before the min cut's phase loop was rewritten; the repair
# follows each witness cut, so these pin min_cut's choice among tied cuts
GEN_RANDOM_PINS = [
    ((8, 12, 0.3, (1.0, 10.0), 2, 1, 1), (4, "1b2c955426923b7b")),
    ((10, 20, 0.5, (1.0, 10.0), 2, 2, 1), (10, "3690bfabadbebe7d")),
    ((9, 14, 0.5, (1.0, 10.0), 1, 6, 3), (11, "7e38d472eea61031")),
    ((12, 30, 0.7, (1.0, 10.0), 2, 8, 2), (24, "4937d7ce111980f7")),
    ((6, 8, 0.0, (1e-9, 1e-6), 1, 2, 1), (5, "e310023a05ee925c")),
    ((15, 45, 0.5, (1.0, 10.0), 2, 1, 1), (2, "cb1f2fdadb5751d3")),
    ((20, 40, 0.5, (1.0, 10.0), 2, 2, 2), (20, "d96b5956fa004c30")),
]


@pytest.mark.parametrize("args, want", GEN_RANDOM_PINS)
def test_gen_random_repair_is_pinned(args, want):
    inst = gen_random(*args)
    digest = hashlib.sha256(serialize_instance(inst).encode()).hexdigest()[:16]
    assert (inst.m - args[1], digest) == want


def test_gen_random_checks_each_instance_once(monkeypatch):
    verdicts = []
    for module in (instance_io, model):
        check = module.is_feasible
        monkeypatch.setattr(
            module, "is_feasible", lambda inst, f, check=check: verdicts.append(1) or check(inst, f)
        )
    inst = gen_random(10, 20, 0.5, (1.0, 10.0), 2, 2, 1)
    # one verdict per repair step and one for the instance returned
    assert len(verdicts) == inst.m - 20 + 1


def test_gen_random_checks_the_cost_total():
    # drawn costs summing beyond float range raised FgcInstance's
    # InvalidInstanceError, so `flexconn gen` exited 1 as for a bad file
    with pytest.raises(GenerationError, match="total cost is beyond float range"):
        gen_random(2, 3, 1.0, (1e308, 1.5e308), 1, 0, 0)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(n=1, m=3, safe_fraction=0.5, cost_range=(0, 1), p=1, q=0, seed=0),
        dict(n=4, m=2, safe_fraction=0.5, cost_range=(0, 1), p=1, q=0, seed=0),
        dict(n=4, m=5, safe_fraction=1.5, cost_range=(0, 1), p=1, q=0, seed=0),
        dict(n=4, m=5, safe_fraction=0.5, cost_range=(2, 1), p=1, q=0, seed=0),
        dict(n=4, m=5, safe_fraction=0.5, cost_range=(-1, 1), p=1, q=0, seed=0),
        dict(n=4, m=5, safe_fraction=0.5, cost_range=(0, 1), p=0, q=1, seed=0),
        dict(n=4, m=5, safe_fraction=0.5, cost_range=(0, float("inf")), p=1, q=0, seed=0),
        dict(n=4, m=5, safe_fraction=0.5, cost_range=(float("nan"), 1), p=1, q=0, seed=0),
        # "0.5" and ("1", 10) raised an untyped TypeError, True was read as 1.0,
        # and 10**400 passed the range test and died in rng.uniform
        dict(n=4, m=5, safe_fraction="0.5", cost_range=(0, 1), p=1, q=0, seed=0),
        dict(n=4, m=5, safe_fraction=True, cost_range=(0, 1), p=1, q=0, seed=0),
        dict(n=4, m=5, safe_fraction=0.5, cost_range=("1", 10), p=1, q=0, seed=0),
        dict(n=4, m=5, safe_fraction=0.5, cost_range=(1, 10**400), p=1, q=0, seed=0),
    ],
)
def test_gen_random_rejects_bad_arguments(kwargs):
    with pytest.raises(GenerationError):
        gen_random(**kwargs)


@pytest.mark.parametrize(
    "field, bad",
    [
        ("n", 6.0), ("m", 12.0), ("p", 2.5), ("q", 0.5), ("p", True), ("q", False),
        ("seed", 0.5), ("seed", "a"),
    ],
)
def test_gen_random_refuses_non_integer_sizes_and_parameters(monkeypatch, field, bad):
    # p = 2.5 once gave an instance with p = 2.5, and m = 12.0 died in range();
    # seeds 0.5 and "a" were hashed by random.Random
    sampled = []
    monkeypatch.setattr(instance_io, "is_connected", lambda *a: sampled.append(1) or True)
    args = dict(n=6, m=12, safe_fraction=0.5, cost_range=(1, 10), p=2, q=1, seed=3)
    args[field] = bad
    with pytest.raises(GenerationError, match=f"{field} must be an integer"):
        gen_random(**args)
    assert sampled == []


def test_gen_random_reads_numpy_integers_as_ints():
    # np.int64(3) as the seed raised an untyped TypeError
    args = (6, 12, 0.5, (1, 10), 2, 1)
    assert gen_random(*map(np.int64, args[:2]), *args[2:], np.int64(3)) == gen_random(*args, 3)


def test_gen_random_reads_numpy_floats_and_fractions_as_floats():
    want = gen_random(6, 12, 0.5, (1.0, 10.0), 2, 1, 3)
    assert gen_random(6, 12, np.float64(0.5), (np.float64(1), np.float64(10)), 2, 1, 3) == want
    assert gen_random(6, 12, Fraction(1, 2), (Fraction(1), Fraction(10)), 2, 1, 3) == want


def test_all_safe_instance_reduces_to_edge_connectivity():
    # with every edge safe, feasibility of F is just p-edge-connectivity,
    # so a generated all-safe instance must keep p parallel paths
    inst = gen_random(5, 12, 1.0, (1, 3), 2, 2, seed=7)
    assert all(inst.safe[e] for e in range(12))  # repairs would append unsafe
    assert is_feasible_direct(inst, inst.all_edges).feasible
