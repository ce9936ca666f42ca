"""Graph core: cuts, exact minimum cut, threshold enumeration."""

import hashlib
import math
import random
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flexconn import (
    Cut,
    GraphStructureError,
    Multigraph,
    TooLargeError,
    capacities,
    cut_edges,
    enumerate_cuts_below,
    gen_random,
    min_cut,
)
from flexconn import graph
from flexconn.exact import all_cut_capacities
from flexconn.graph import canonical_masks, crossing_matrix

from instances import cycle_graph


def random_connected(rng: random.Random, n: int, m: int) -> Multigraph:
    # random spanning tree plus extra edges; guarantees connectivity
    edges = [(rng.randrange(v), v) for v in range(1, n)]
    for _ in range(max(0, m - (n - 1))):
        u = rng.randrange(n)
        v = rng.randrange(n - 1)
        if v >= u:
            v += 1
        edges.append((min(u, v), max(u, v)))
    return Multigraph(n, tuple(edges))


def test_multigraph_rejects_self_loop():
    with pytest.raises(GraphStructureError):
        Multigraph(3, ((0, 1), (1, 1)))


def test_multigraph_rejects_disconnected():
    with pytest.raises(GraphStructureError):
        Multigraph(4, ((0, 1), (2, 3)))


def test_multigraph_rejects_tiny():
    with pytest.raises(GraphStructureError):
        Multigraph(1, ())


def test_multigraph_rejects_bad_endpoint():
    with pytest.raises(GraphStructureError):
        Multigraph(3, ((0, 3),))


def test_multigraph_refuses_float_endpoints():
    # int(1.7) once made (0, 1.7) the edge (0, 1)
    with pytest.raises(GraphStructureError, match="integers"):
        Multigraph(3, ((0, 1.7), (1, 2)))
    assert Multigraph(3, ((np.int64(0), 1), (1, np.int32(2)))).edges == ((0, 1), (1, 2))


@pytest.mark.parametrize("edges", [((False, True),), ((0, 1), (1, True))])
def test_multigraph_refuses_bool_endpoints(edges):
    # operator.index(True) is 1, so ((False, True),) once read as the edge (0, 1)
    with pytest.raises(GraphStructureError, match="bool"):
        Multigraph(3 if len(edges) > 1 else 2, edges)


@pytest.mark.parametrize("value", [np.int64(3), np.int8(-3), 2**70])
def test_check_int_reads_ints_and_numpy_integers_as_ints(value):
    assert graph.check_int(value, "x") == int(value)
    assert type(graph.check_int(value, "x")) is int


@pytest.mark.parametrize("value", [True, np.bool_(True), 3.0, np.float64(3), "3", None])
def test_check_int_refuses_everything_else(value):
    with pytest.raises(ValueError, match="x must be an integer"):
        graph.check_int(value, "x")


def test_multigraph_reads_a_numpy_vertex_count_as_an_int():
    # n was stored as np.int64, and 1 << (n - 1) overflowed in the cut scan
    g = Multigraph(np.int64(70), cycle_graph(70).edges)
    assert type(g.n) is int
    assert len(enumerate_cuts_below(g, [1] * 70, 3)) == 70 * 69 // 2


@pytest.mark.parametrize("n", [3.0, "3"])
def test_multigraph_refuses_a_non_integer_vertex_count(n):
    # 3.0 and "3" raised an untyped TypeError
    with pytest.raises(GraphStructureError, match="n must be an integer"):
        Multigraph(n, ((0, 1), (1, 2)))


def test_multigraph_allows_parallel_edges():
    g = Multigraph(2, ((0, 1), (0, 1)))
    assert g.m == 2


@pytest.mark.parametrize(
    "vertex, error", [(True, "bool"), (1.0, "not an integer"), ("1", "not an integer")]
)
def test_cut_from_vertices_refuses_non_integers(vertex, error):
    # True once read as vertex 1, and 1.0 raised an untyped TypeError
    with pytest.raises(ValueError, match=error):
        Cut.from_vertices(4, [vertex])


def test_cut_from_vertices_reads_numpy_integers_as_ints():
    # np.int64 once gave an np.int64 side_mask, without the to_bytes that
    # crossing_matrix reads
    cut = Cut.from_vertices(4, [np.int64(2)])
    assert cut.side_mask == 0b100 and type(cut.side_mask) is int
    # an np.int64 n made 1 << n wrap, so the side {0} was not complemented
    assert Cut.from_vertices(np.int64(70), [0]).side_mask == (1 << 70) - 2
    assert crossing_matrix(cycle_graph(4), [cut.side_mask]).tolist() == [
        [False, True, True, False]
    ]


@pytest.mark.parametrize(
    "n, side_mask, error",
    [(3, 2.0, "side_mask"), (3.0, 2, "n must"), ("3", 2, "n must"), (3, True, "side_mask")],
)
def test_cut_refuses_non_integer_fields(n, side_mask, error):
    # 2.0, 3.0 and "3" raised an untyped TypeError from >>
    with pytest.raises(ValueError, match=error):
        Cut(n, side_mask)


@pytest.mark.parametrize("n", [-1, 0, 1, np.int64(-1)])
def test_cut_refuses_fewer_than_two_vertices_by_name(n):
    # Cut(-1, 2) raised "negative shift count", naming no field
    with pytest.raises(ValueError, match=f"n must be at least 2, got {int(n)}"):
        Cut(n, 2)


def test_cut_reads_numpy_integers_as_ints():
    cut = Cut(np.int64(3), np.int64(2))
    assert (type(cut.n), type(cut.side_mask)) == (int, int)
    assert cut == Cut(3, 2) and hash(cut) == hash(Cut(3, 2))


def test_cut_canonical_side_excludes_vertex_zero():
    c = Cut.from_vertices(4, {0, 2})
    assert c.vertices == frozenset({1, 3})
    with pytest.raises(ValueError):
        Cut(4, 0b0101)  # vertex 0 on the side
    with pytest.raises(ValueError):
        Cut.from_vertices(4, {0, 1, 2, 3})
    with pytest.raises(ValueError):
        Cut.from_vertices(4, set())


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 8), st.data())
def test_cut_complement_canonicalizes_identically(n, data):
    side = data.draw(
        st.sets(st.integers(0, n - 1), min_size=1, max_size=n - 1), label="side"
    )
    rest = set(range(n)) - side
    if not rest:
        return
    a = Cut.from_vertices(n, side)
    b = Cut.from_vertices(n, rest)
    assert a == b
    g = cycle_graph(n) if n >= 3 else Multigraph(2, ((0, 1),))
    assert cut_edges(g, a) == cut_edges(g, b)


def test_cut_edges_triangle_and_path():
    tri = Multigraph(3, ((0, 1), (1, 2), (0, 2)))
    assert cut_edges(tri, Cut.from_vertices(3, {0})) == {0, 2}
    path = Multigraph(3, ((0, 1), (1, 2)))
    assert cut_edges(path, Cut.from_vertices(3, {1})) == {0, 1}


def test_cut_edges_four_cycle_antipodal():
    g = cycle_graph(4)
    assert cut_edges(g, Cut.from_vertices(4, {0, 2})) == {0, 1, 2, 3}


def test_cut_edges_rejects_mismatched_graph():
    g = cycle_graph(4)
    with pytest.raises(ValueError):
        cut_edges(g, Cut.from_vertices(5, {1}))


def test_crossing_matrix_matches_cut_edges_past_64_vertices():
    # masks wider than an int64 must not wrap
    rng = random.Random(53)
    n = 70
    edges = [(rng.randrange(v), v) for v in range(1, n)]
    edges += [tuple(sorted(rng.sample(range(n), 2))) for _ in range(80)]
    g = Multigraph(n, tuple(edges))
    masks = [rng.randrange(1, 1 << (n - 1)) << 1 for _ in range(200)]
    masks += [1 << (n - 1), ((1 << n) - 1) ^ 1, 1 << 63, 1 << 64]
    cross = crossing_matrix(g, masks)
    assert cross.shape == (len(masks), g.m)
    for mask, row in zip(masks, cross):
        assert set(row.nonzero()[0].tolist()) == cut_edges(g, Cut(n, mask))


def test_min_cut_triangle_unit():
    _, value = min_cut(Multigraph(3, ((0, 1), (1, 2), (0, 2))), [1, 1, 1])
    assert value == 2


def test_min_cut_four_cycle_unit():
    _, value = min_cut(cycle_graph(4), [1, 1, 1, 1])
    assert value == 2


def test_min_cut_parallel_edges():
    cut, value = min_cut(Multigraph(2, ((0, 1),) * 3), [6, 2, 2])
    assert value == 10
    assert cut.vertices == frozenset({1})


def test_min_cut_rejects_bad_capacities():
    g = cycle_graph(4)
    with pytest.raises(ValueError):
        min_cut(g, [1, 1, 1])
    with pytest.raises(ValueError):
        min_cut(g, [1, 1, 1, -1])


@pytest.mark.parametrize(
    "bad, message",
    [
        (np.float32(1.0), "not float32"),
        (np.float32("nan"), "not float32"),  # once died in list.remove
        (True, "not bool"),
        (np.bool_(True), "not bool"),
        ("1", "not str"),
        (math.nan, "not finite"),
        (math.inf, "not finite"),
        (-1e-300, "negative"),
    ],
)
def test_capacities_of_other_types_or_nan_are_refused(bad, message):
    # one check for min_cut and every cut scan, naming the edge
    g = cycle_graph(4)
    caps = [1, 1.0, bad, Fraction(1, 2)]
    with pytest.raises(ValueError, match=f"edge 2 .*{message}"):
        min_cut(g, caps)
    with pytest.raises(ValueError, match=f"edge 2 .*{message}"):
        enumerate_cuts_below(g, caps, 3)


@pytest.mark.parametrize("n", [6, 21])
def test_float32_capacities_are_refused_on_every_route(n):
    # float32 capacities were summed as float32 objects at n <= 20 and
    # raised an untyped TypeError in the flow search past it
    g = Multigraph(n, tuple((v, v + 1) for v in range(n - 1)))
    with pytest.raises(ValueError, match="edge 0 .*float32"):
        enumerate_cuts_below(g, [np.float32(1.0)] * g.m, 2)


def test_numpy_integer_and_float64_capacities_are_taken():
    g = cycle_graph(4)
    assert min_cut(g, [np.int64(1)] * 4)[1] == 2
    cuts = enumerate_cuts_below(g, [np.float64(1.0), 1.0, np.int32(1), 1], 3)
    assert len(cuts) == 6


@pytest.mark.parametrize("route", ["min_cut", "enumerate_cuts_below", "all_cut_capacities"])
def test_numpy_int64_capacities_past_2_63_do_not_wrap(route):
    # np.int64 capacities were summed as np.int64 and wrapped past 2^63: the
    # scan listed all three cuts at -2^63, and min_cut and the reference
    # scan died on a numpy overflow warning (min_cut then in list.remove)
    g = cycle_graph(3)
    caps = [np.int64(2**62)] * 3
    if route == "min_cut":
        cut, value = min_cut(g, caps)
        pairs = [(cut.side_mask, value)]
    elif route == "enumerate_cuts_below":
        pairs = [(c.side_mask, c.capacity) for c in enumerate_cuts_below(g, caps, 2**64)]
        assert enumerate_cuts_below(g, caps, 2**63) == []
    else:
        pairs = all_cut_capacities(g, caps)
    assert pairs and all(cap == 2**63 and type(cap) is int for _, cap in pairs)
    assert len(pairs) == (1 if route == "min_cut" else 3)


@pytest.mark.parametrize(
    "huge", [10**400, Fraction(10**400, 3), 10**308], ids=["int", "fraction", "two_in_range"]
)
def test_floats_beside_exact_capacities_beyond_float_range_are_refused(huge):
    # 1.0 + 10^400 has no float value: the scans raised an untyped
    # OverflowError("int too large to convert to float"), while min_cut
    # happened to return; 10^308 fits a float, but two of them do not
    g = cycle_graph(3)
    caps = [1.0, huge, huge if huge == 10**308 else 1]
    for route in (min_cut, all_cut_capacities, lambda g, c: enumerate_cuts_below(g, c, 2)):
        with pytest.raises(ValueError, match="mix floats with exact values"):
            route(g, caps)
    # exact capacities alone, and floats beside exact ones in float range, are summed
    assert min_cut(g, [1, huge, huge])[1] == 1 + huge
    assert min_cut(g, [1.0, 2**1000, Fraction(1, 3)])[1] == 1.0 + Fraction(1, 3)


@pytest.mark.parametrize("kind", ["int", "fraction", "int_fraction"])
def test_exact_capacities_are_summed_as_integers_past_2_63(monkeypatch, kind):
    # ints and Fractions are re-summed as integers over their common
    # denominator: in int64 while the total is below 2^63, as Python ints
    # above; each kept cut's capacity is an int for ints, else a Fraction
    monkeypatch.setattr(graph, "CUT_BLOCK", 2)  # the table's shortlist too
    rng = random.Random(63)
    g = random_connected(rng, 7, 14)
    draw = {
        "int": lambda: rng.randint(1, 9) * 2**60,
        "fraction": lambda: Fraction(rng.randint(1, 9), 2**30 + rng.randint(0, 2)),
        "int_fraction": lambda: rng.choice([rng.randint(0, 3), Fraction(rng.randint(1, 5), 3)]),
    }[kind]
    caps = [draw() for _ in range(g.m)]
    table = all_cut_capacities(g, caps)
    existing = sorted({cap for _, cap in table})
    for threshold in (existing[len(existing) // 2], existing[-1] + 1, float(existing[3])):
        cuts = enumerate_cuts_below(g, caps, threshold)
        expected = sorted((cap, mask) for mask, cap in table if cap < threshold)
        assert [(c.capacity, c.side_mask) for c in cuts] == expected
        want = int if kind == "int" else Fraction
        assert cuts and all(type(c.capacity) is want for c in cuts)


def test_min_cut_attains_reported_value():
    rng = random.Random(7)
    for _ in range(50):
        g = random_connected(rng, rng.randint(2, 8), rng.randint(3, 14))
        caps = [rng.randint(0, 6) for _ in range(g.m)]
        cut, value = min_cut(g, caps)
        assert sum(caps[e] for e in cut_edges(g, cut)) == value


def test_min_cut_matches_exhaustive_scan():
    rng = random.Random(11)
    for _ in range(60):
        g = random_connected(rng, rng.randint(2, 9), rng.randint(3, 16))
        caps = [rng.randint(0, 9) for _ in range(g.m)]
        _, value = min_cut(g, caps)
        assert value == min(cap for _, cap in all_cut_capacities(g, caps))


def test_min_cut_generic_over_fractions():
    g = cycle_graph(4)
    caps = [Fraction(1, 3)] * 4
    _, value = min_cut(g, caps)
    assert value == Fraction(2, 3)


MIN_CUT_CAPACITIES = {
    "unit": lambda rng, m: [1] * m,
    "int": lambda rng, m: [rng.randint(0, 5) for _ in range(m)],
    "float": lambda rng, m: [rng.choice((0.0, rng.uniform(0, 3))) for _ in range(m)],
    "zero_float": lambda rng, m: [0.0] * m,
    "fraction": lambda rng, m: [Fraction(rng.randint(0, 6), rng.randint(1, 4)) for _ in range(m)],
    "int_fraction": lambda rng, m: [
        rng.choice((rng.randint(0, 3), Fraction(rng.randint(0, 6), 3))) for _ in range(m)
    ],
    "int_float": lambda rng, m: [
        rng.choice((rng.randint(0, 3), rng.uniform(0, 3))) for _ in range(m)
    ],
}


def _min_cut_results(kind: str) -> list[tuple[int, str, str]]:
    """(side_mask, repr(value), type name) of min_cut on 69 seeded graphs,
    n = 2 to 24 at m = n-1, 1.5n and 3n (so parallel edges), plus, for unit
    capacities, complete graphs, cycles and doubled cycles, which tie at
    every pick."""
    rng = random.Random(f"min-cut-{kind}")
    graphs = [
        random_connected(rng, n, m) for n in range(2, 25) for m in (n - 1, n + n // 2, 3 * n)
    ]
    if kind == "unit":
        for n in range(2, 13):
            everything = [(u, v) for v in range(n) for u in range(v)]
            graphs += [Multigraph(n, tuple(everything)), cycle_graph(n)]
            graphs.append(Multigraph(n, cycle_graph(n).edges * 2))
    out = []
    for g in graphs:
        cut, value = min_cut(g, MIN_CUT_CAPACITIES[kind](rng, g.m))
        out.append((cut.side_mask, repr(value), type(value).__name__))
    return out


# sha256 of repr(_min_cut_results(kind)), first 16 hex digits, recorded
# from the phase loop that recomputed each pick's maximum in a second pass
# over a dict of scores: the side mask, the value and its type must not
# move
MIN_CUT_PINS = {
    "unit": "0afccbbd069643a6",
    "int": "bc8d007e59e6fb65",
    "float": "3a39672f467a399e",
    "zero_float": "b9580509203d0881",
    "fraction": "7df4462301efb8d2",
    "int_fraction": "f8ecc8e8029794eb",
    "int_float": "8d7a9f7f5fa2c286",
}


@pytest.mark.parametrize("kind", sorted(MIN_CUT_PINS))
def test_min_cut_results_are_pinned(kind):
    results = _min_cut_results(kind)
    digest = hashlib.sha256(repr(results).encode()).hexdigest()[:16]
    assert digest == MIN_CUT_PINS[kind]


def test_enumerate_four_cycle_threshold_three():
    g = cycle_graph(4)
    cuts = enumerate_cuts_below(g, [1, 1, 1, 1], 3)
    assert len(cuts) == 6
    assert all(c.capacity == 2 for c in cuts)
    # the antipodal pair cut has capacity 4 and is excluded
    masks = {c.side_mask for c in cuts}
    assert Cut.from_vertices(4, {1, 3}).side_mask not in masks


def test_enumerate_empty_at_min_cut_threshold():
    g = cycle_graph(5)
    _, lam = min_cut(g, [1] * 5)
    assert enumerate_cuts_below(g, [1] * 5, lam) == []


def test_enumerate_cycle_arc_count():
    for n in range(4, 10):
        g = cycle_graph(n)
        cuts = enumerate_cuts_below(g, [1] * n, 2.5)
        assert len(cuts) == n * (n - 1) // 2


def test_enumerate_sorted_and_capacity_cached():
    rng = random.Random(3)
    g = random_connected(rng, 6, 11)
    caps = [rng.randint(1, 5) for _ in range(g.m)]
    cuts = enumerate_cuts_below(g, caps, 100)
    keys = [(c.capacity, c.side_mask) for c in cuts]
    assert keys == sorted(keys)
    assert len(cuts) == 2 ** (g.n - 1) - 1  # threshold above every capacity
    for c in cuts[:5]:
        assert c.capacity == sum(caps[e] for e in cut_edges(g, c))


def test_enumerate_threshold_is_strict_and_exact():
    # every capacity type meets the threshold exactly, with no slop
    g = Multigraph(2, ((0, 1),))
    assert enumerate_cuts_below(g, [2.0], 2.0) == []
    assert len(enumerate_cuts_below(g, [2.0 * (1 - 1e-12)], 2.0)) == 1
    assert len(enumerate_cuts_below(g, [math.nextafter(2.0, 0)], 2.0)) == 1
    assert len(enumerate_cuts_below(g, [2.0], 2.0 + 1e-6)) == 1
    assert len(enumerate_cuts_below(g, [Fraction(2.0 * (1 - 1e-12))], 2.0)) == 1
    assert len(enumerate_cuts_below(g, [Fraction(199, 100)], 2)) == 1
    assert enumerate_cuts_below(g, [2], 2) == []
    assert len(enumerate_cuts_below(g, [1], 2)) == 1


@pytest.mark.parametrize("n", [21, 22])
@pytest.mark.parametrize("kind", ["float", "mixed"])
def test_enumerate_float_capacities_past_the_limit_match_the_table(monkeypatch, n, kind):
    # past the limit the flow search takes float and mixed capacities too;
    # lifted to 22, the float table's shortlist lists the same cuts at
    # p(p+q) and separation's 2p(p+q)
    p, q = 2, 2
    inst = gen_random(n, 3 * n, 0.4, (1, 10), p, q, 1)
    rng = random.Random(n)
    if kind == "float":
        x = [rng.uniform(0.5, 1.0) for _ in range(inst.m)]
    else:
        x = [rng.choice([1, rng.uniform(0.5, 1.0)]) for _ in range(inst.m)]
    caps = capacities(inst, x)
    assert any(type(c) is int for c in caps) == (kind == "mixed")
    for threshold in (p * (p + q), 2 * p * (p + q)):
        flow = enumerate_cuts_below(inst.graph, caps, threshold)
        with monkeypatch.context() as patch:
            patch.setattr(graph, "TABLE_LIMIT", 22)
            table = enumerate_cuts_below(inst.graph, caps, threshold)
        assert flow
        assert [(c.side_mask, c.capacity) for c in flow] == [
            (c.side_mask, c.capacity) for c in table
        ]


def test_enumerate_past_the_limit_runs_the_flow_route():
    # a path's cuts below 2 are its 20 single edges, each of capacity 1
    n = 21
    g = Multigraph(n, tuple((v, v + 1) for v in range(n - 1)))
    cuts = enumerate_cuts_below(g, [1] * g.m, 2)
    assert [c.side_mask for c in cuts] == sorted(((1 << n) - (1 << v)) for v in range(1, n))
    assert all(c.capacity == 1 for c in cuts)
    assert enumerate_cuts_below(g, [1] * g.m, 1) == []
    # a 22-cycle's cuts below 3 edges are its C(22, 2) pairs of edges
    g = cycle_graph(22)
    caps = [Fraction(1, 3)] * g.m
    assert enumerate_cuts_below(g, caps, Fraction(2, 3)) == []  # strictly below only
    cuts = enumerate_cuts_below(g, caps, Fraction(3, 4))
    assert len(cuts) == 231 == len({c.side_mask for c in cuts})
    assert all(c.capacity == Fraction(2, 3) and type(c.capacity) is Fraction for c in cuts)
    assert [c.side_mask for c in cuts] == sorted(c.side_mask for c in cuts)


def test_enumerate_rejects_bad_arguments(monkeypatch):
    g = cycle_graph(4)
    with pytest.raises(ValueError):
        enumerate_cuts_below(g, [1] * 4, 0)
    monkeypatch.setattr(graph, "TABLE_LIMIT", 3)  # the flow search's candidates
    with pytest.raises(ValueError):
        enumerate_cuts_below(g, [1] * 4, 0)
    with pytest.raises(ValueError):
        enumerate_cuts_below(g, [1] * 3, 2)


@pytest.mark.parametrize("route", ["exhaustive", "flow"])
@pytest.mark.parametrize("threshold", [math.inf, math.nan])
def test_enumerate_rejects_non_finite_threshold(monkeypatch, route, threshold):
    # every float capacity is below inf and none below NaN; a flow never reaches inf
    if route == "flow":
        monkeypatch.setattr(graph, "TABLE_LIMIT", 4)
    with pytest.raises(ValueError, match="threshold"):
        enumerate_cuts_below(cycle_graph(5), [1] * 5, threshold)


# every mask at n = 6, the float cut table at n = 14, the flow search at n = 21
@pytest.mark.parametrize("n", [6, 14, 21])
@pytest.mark.parametrize("threshold", [np.float32(2.5), True, "3"])
def test_thresholds_of_other_types_are_refused_on_every_route(n, threshold):
    # np.float32 overflowed a cast or raised an untyped TypeError, True was
    # read as 1 and "3" raised an untyped TypeError; the capacities' rule
    # now reads the threshold too
    g = cycle_graph(n)
    for caps in ([1] * n, [1.0] * n, [Fraction(1)] * n):
        with pytest.raises(ValueError, match="threshold must be an int, float or Fraction"):
            enumerate_cuts_below(g, caps, threshold)


def test_numpy_thresholds_are_read_as_int_and_float():
    g = cycle_graph(6)
    for caps in ([1] * 6, [1.0] * 6, [Fraction(1)] * 6):
        assert enumerate_cuts_below(g, caps, np.int64(3)) == enumerate_cuts_below(g, caps, 3)
        assert enumerate_cuts_below(g, caps, np.float64(2.5)) == enumerate_cuts_below(g, caps, 2.5)
    with pytest.raises(ValueError, match="threshold must be positive"):
        enumerate_cuts_below(g, [1] * 6, np.int64(0))


def test_numpy_float_capacities_meet_the_threshold_as_floats():
    # np.float64 and Python float capacities are summed and compared alike:
    # on a unit triangle at 2(1 + 1e-10), just above every cut, both list
    # all three cuts, each of capacity 2.0
    g = cycle_graph(3)
    threshold = 2 * (1 + 1e-10)
    cuts = enumerate_cuts_below(g, [1.0] * 3, threshold)
    assert len(cuts) == 3 and all(c.capacity == 2.0 for c in cuts)
    assert enumerate_cuts_below(g, [np.float64(1.0)] * 3, threshold) == cuts


def test_enumerate_sums_float_capacities_in_edge_order():
    # 1e16 + 1.0 rounds back to 1e16, so the cut is 1e16 summed left to
    # right but 1.0000000000000014e16 summed pairwise
    g = Multigraph(2, ((0, 1),) * 16)
    caps = [1e16] + [1.0] * 15
    assert all_cut_capacities(g, caps) == [(0b10, 1e16)]
    assert [(c.side_mask, c.capacity) for c in enumerate_cuts_below(g, caps, 2e16)] == [
        (0b10, 1e16)
    ]


@pytest.mark.parametrize("cuts", [1, 3])
def test_cut_sums_are_left_to_right_in_blocks_of_any_size(cuts):
    # 1e16 then more than 8 ones: a sum that adds ones together first
    # (numpy's pairwise sum of one contiguous row, or a BLAS dot) lands
    # above 1e16; left to right each one rounds away.  At n = 2 the scan's
    # one block holds one cut; at n = 3 it holds three, two summing to 1e16.
    k = 16
    caps = [1e16] + [1.0] * k
    g = Multigraph(2, ((0, 1),) * (k + 1))
    if cuts == 3:
        caps.append(1.0)
        g = Multigraph(3, g.edges + ((1, 2),))
    assert float(np.sum(caps[: k + 1])) > 1e16
    blocks = list(graph.CutScan(g).blocks(caps, 2e16))
    assert [len(masks) for masks, _, _ in blocks] == [cuts]
    table = all_cut_capacities(g, caps)
    assert [cap for _, cap in table].count(1e16) == (1 if cuts == 1 else 2)
    assert [(c.side_mask, c.capacity) for c in enumerate_cuts_below(g, caps, 2e16)] == sorted(
        table, key=lambda item: (item[1], item[0])
    )


def _flow_cuts_below(g, caps, threshold):
    # enumerate_cuts_below with its candidates from the flow search
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(graph, "TABLE_LIMIT", g.n - 1)
        return enumerate_cuts_below(g, caps, threshold)


def _flow_against_table(g, caps, threshold):
    expected = sorted((cap, mask) for mask, cap in all_cut_capacities(g, caps) if cap < threshold)
    cuts = _flow_cuts_below(g, caps, threshold)
    assert [(c.capacity, c.side_mask) for c in cuts] == expected
    return cuts


def test_flow_keeps_fraction_capacities():
    rng = random.Random(61)
    for n in (6, 10, 14):
        g = random_connected(rng, n, 2 * n)
        caps = [Fraction(rng.randint(1, 9), rng.randint(1, 7)) for _ in range(g.m)]
        _, lam = min_cut(g, caps)
        existing = sorted({cap for _, cap in all_cut_capacities(g, caps)})
        # 8/5 of the min cut, and one equal to an existing capacity (strictly below only)
        for threshold in (lam * Fraction(8, 5), existing[len(existing) // 20]):
            cuts = _flow_against_table(g, caps, threshold)
            assert cuts and all(type(c.capacity) is Fraction for c in cuts)


def test_flow_agrees_with_all_cut_capacities():
    rng = random.Random(13)
    for trial in range(30):
        n = 4 + trial % 11
        g = random_connected(rng, n, rng.randint(n + 2, 2 * n + 4))
        caps = [rng.randint(0, 4) for _ in range(g.m)]
        _, lam = min_cut(g, caps)
        existing = sorted({cap for _, cap in all_cut_capacities(g, caps)})
        for threshold in (1.6 * lam + 0.1, existing[min(3, len(existing) - 1)], existing[-1] + 1):
            _flow_against_table(g, caps, threshold)


# capacity draws for the flow search, which scales every type to integers
FLOW_DRAWS = {
    "float": lambda rng: rng.uniform(0.1, 5.0),
    "float64": lambda rng: np.float64(rng.uniform(0.1, 5.0)),
    "tiny": lambda rng: rng.uniform(0.1, 5.0) * 1e-300,
    "mixed": lambda rng: rng.choice([rng.randint(0, 4), rng.uniform(0.1, 3.0)]),
    "fraction": lambda rng: Fraction(rng.randint(1, 30), rng.randint(1, 7)),
    "huge": lambda rng: rng.randint(1, 9) * 2**60 + rng.randint(0, 3),
}


@pytest.mark.parametrize("kind", sorted(FLOW_DRAWS))
def test_flow_agrees_with_all_cut_capacities_for_every_capacity_type(kind):
    # the flow search's masks, re-summed by the scan, are the cuts whose sum
    # in the capacities' own type is below the cutoff, as on the table route
    rng = random.Random(sorted(FLOW_DRAWS).index(kind))
    for trial in range(10):
        n = 6 + trial % 7
        g = random_connected(rng, n, rng.randint(n + 2, 2 * n + 4))
        caps = [FLOW_DRAWS[kind](rng) for _ in range(g.m)]
        table = all_cut_capacities(g, caps)
        existing = sorted({cap for _, cap in table if cap > 0})
        for threshold in (existing[0] * 3 / 2, existing[len(existing) // 3], existing[-1] * 2):
            expected = sorted((cap, mask) for mask, cap in table if cap < threshold)
            flow = _flow_cuts_below(g, caps, threshold)
            assert [(c.capacity, c.side_mask) for c in flow] == expected, (trial, threshold)
            assert flow == enumerate_cuts_below(g, caps, threshold)


@pytest.mark.parametrize("first", [1.0, 1])
def test_flow_keeps_a_cut_whose_rounded_sum_is_below_the_cutoff(first):
    # 1 + 2^-53 + 2^-53 sums to 1.0 in floats but is 1 + 2^-52 exactly, the
    # threshold, so the exact flow prunes the cut unless its limit takes the
    # float table's rounding margin; mixed capacities need it too.
    g = Multigraph(2, ((0, 1),) * 3)
    caps = [first, 2**-53, 2**-53]
    threshold = 1 + 2**-52
    assert all_cut_capacities(g, caps) == [(0b10, 1.0)]
    table = [(c.side_mask, c.capacity) for c in enumerate_cuts_below(g, caps, threshold)]
    assert table == [(0b10, 1.0)]
    assert [(c.side_mask, c.capacity) for c in _flow_cuts_below(g, caps, threshold)] == table


@pytest.mark.parametrize("n", [21, 22])
@pytest.mark.parametrize("p, q", [(2, 2), (3, 2)])
@pytest.mark.parametrize("kind", ["int", "fraction"])
def test_flow_matches_the_table_just_past_the_limit(monkeypatch, n, p, q, kind):
    # at the limit's default the flow search lists the candidates; lifted to
    # 22, the float table's shortlist does, at is_feasible's threshold
    # bound + 1 and separation's 2p(p+q)
    inst = gen_random(n, 3 * n, 0.4, (1, 10), p, q, 1)
    rng = random.Random(n)
    if kind == "int":
        x = [1] * inst.m
    else:
        x = [Fraction(rng.randint(2, 3), 3) for _ in range(inst.m)]
    caps = capacities(inst, x)
    for threshold in (p * (p + q - 1) + q * (p - 1) + 1, 2 * p * (p + q)):
        flow = enumerate_cuts_below(inst.graph, caps, threshold)
        with monkeypatch.context() as patch:
            patch.setattr(graph, "TABLE_LIMIT", 22)
            table = enumerate_cuts_below(inst.graph, caps, threshold)
        assert flow
        assert [(c.side_mask, c.capacity) for c in flow] == [
            (c.side_mask, c.capacity) for c in table
        ]
        assert all(type(c.capacity) is type(caps[0]) for c in flow)


def test_flow_shortcut_below_min_cut():
    g = cycle_graph(6)
    assert _flow_cuts_below(g, [1] * 6, 2) == []
    assert len(_flow_cuts_below(g, [1] * 6, 3)) == 15


def _flat_blocks(blocks):
    return [
        (mask, value, row)
        for masks, values, cross in blocks
        for mask, value, row in zip(masks, values, cross.tolist())
    ]


@pytest.mark.parametrize("n", [6, 13, 14])
def test_a_prepared_scan_reused_matches_fresh_scans(monkeypatch, n):
    # one CutScan run at many capacity vectors and block sizes, as
    # separation runs it once per round, yields the cuts, capacities and
    # crossing rows of a scan built for each run; at block 2 the matrix
    # stored at the full block size is sliced, while a fresh scan
    # shortlists with the capacity table
    rng = random.Random(200 + n)
    g = random_connected(rng, n, 2 * n)
    scan = graph.CutScan(g)
    for block in (graph.CUT_BLOCK, 2, graph.CUT_BLOCK):
        monkeypatch.setattr(graph, "CUT_BLOCK", block)
        for trial in range(3):
            caps = [rng.uniform(0.1, 5.0) for _ in range(g.m)]
            threshold = 2 * min_cut(g, caps)[1]
            reused = _flat_blocks(scan.blocks(caps, threshold))
            assert reused == _flat_blocks(graph.CutScan(g).blocks(caps, threshold)), (block, trial)
            cuts = enumerate_cuts_below(g, caps, threshold)
            assert sorted((mask, value) for mask, value, _ in reused) == sorted(
                (c.side_mask, c.capacity) for c in cuts
            )
            assert all(len(row) == g.m for _, _, row in reused)


def test_a_scan_builds_its_crossing_matrix_at_construction(monkeypatch):
    # up to n = 13 at CUT_BLOCK = 4096 the one matrix comes with the scan,
    # and its runs build none; past that, or at a smaller CUT_BLOCK then,
    # each run builds one per block of its table shortlist
    built = []
    cross = graph.crossing_matrix
    monkeypatch.setattr(
        graph, "crossing_matrix", lambda g, masks: built.append(len(masks)) or cross(g, masks)
    )
    rng = random.Random(7)
    small, large = random_connected(rng, 13, 26), random_connected(rng, 14, 28)
    scan = graph.CutScan(small)
    assert built == [4095]
    list(scan.blocks([1] * small.m, 100))
    assert built == [4095]
    graph.CutScan(large)
    assert built == [4095]
    monkeypatch.setattr(graph, "CUT_BLOCK", 2048)
    list(graph.CutScan(small).blocks([1] * small.m, 100))
    assert built == [4095, 2048, 2047]


def test_canonical_masks_cover_all_bipartitions():
    masks = list(canonical_masks(4))
    assert len(masks) == 7
    assert all(not (mask & 1) for mask in masks)
    assert masks == sorted(masks)


def test_enumerate_exact_beyond_float_range():
    # Fractions and ints past float range, and ints whose cut sums pass 2^53,
    # where float64 (or an int64 sum compared with a float) would round
    rng = random.Random(5)
    g = random_connected(rng, 6, 10)
    for draw, as_float in (
        (lambda: Fraction(rng.randint(1, 9) * 10**400, 7), False),
        (lambda: rng.randint(1, 9) * 10**400, False),
        (lambda: 2**52 + rng.randint(0, 3), True),
    ):
        caps = [draw() for _ in range(g.m)]
        table = all_cut_capacities(g, caps)
        threshold = sorted(cap for _, cap in table)[10]
        for limit in (threshold, float(threshold)) if as_float else (threshold,):
            expected = sorted((cap, mask) for mask, cap in table if cap < limit)
            cuts = enumerate_cuts_below(g, caps, limit)
            assert [(c.capacity, c.side_mask) for c in cuts] == expected


@pytest.mark.parametrize("kind", ["int", "fraction"])
def test_table_shortlist_beyond_float_range(monkeypatch, kind):
    # capacities p + q.[safe] at q = 10^400 do not fit the float cut table,
    # so its shortlist is the flow search's, exactly the cuts below the
    # threshold and not every mask; CUT_BLOCK below 2^(n-1) - 1 sends
    # enumeration through the table at n <= 12 too
    rng = random.Random(17)
    q = 10**400
    for n in (4, 9, 12):
        g = random_connected(rng, n, 2 * n)
        caps = [2 + q * rng.randint(0, 1) for _ in range(g.m)]
        if kind == "fraction":
            caps = [Fraction(c, rng.randint(1, 7)) for c in caps]
        assert max(caps) > sys.float_info.max
        table = all_cut_capacities(g, caps)
        existing = sorted({cap for _, cap in table})
        for threshold in (existing[1], existing[len(existing) // 3], existing[-1] + 1):
            below = sorted(mask for mask, cap in table if cap < threshold)
            assert graph._table_shortlist(g, caps, threshold, math.inf) == below
            with monkeypatch.context() as patch:
                patch.setattr(graph, "CUT_BLOCK", 2)
                cuts = enumerate_cuts_below(g, caps, threshold)
            expected = sorted((cap, mask) for mask, cap in table if cap < threshold)
            assert [(c.capacity, c.side_mask) for c in cuts] == expected


@pytest.mark.parametrize("kind", ["float", "int"])
@pytest.mark.parametrize("block", [4096, 2])
def test_enumerate_keeps_cuts_whose_table_sums_overflow(monkeypatch, kind, block):
    # each capacity fits a float but their sum does not: the table, forced
    # by CUT_BLOCK = 2, once lost every cut built from an overflowed
    # intermediate and listed only masks 4 and 8
    monkeypatch.setattr(graph, "CUT_BLOCK", block)
    g = Multigraph(4, ((0, 1), (1, 2), (1, 3), (0, 2), (0, 3)))
    if kind == "float":
        caps, threshold = [1.0, 1e308, 1e308, 1.0, 1.0], 1.5e308
    else:
        caps, threshold = [1, 10**308, 10**308, 1, 1], 15 * 10**307
    cuts = enumerate_cuts_below(g, caps, threshold)
    expected = sorted((cap, mask) for mask, cap in all_cut_capacities(g, caps) if cap < threshold)
    assert [(c.capacity, c.side_mask) for c in cuts] == expected
    assert {c.side_mask for c in cuts} == {14, 4, 6, 8, 10}
    assert cuts[0].capacity == 3


# The three candidate sources, each forced at small n: every canonical mask
# (the default while they fit in one block), the float table (CUT_BLOCK below
# 2^(n-1) - 1) and the flow search (TABLE_LIMIT below n).
SOURCES = {"every": {}, "table": {"CUT_BLOCK": 2}, "flow": {"TABLE_LIMIT": 3}}

# capacities whose sums pass float range, or which do themselves
OVERFLOW_DRAWS = {
    "float": lambda rng: rng.choice([1.0, rng.uniform(0.2, 1.0) * 1e308]),
    "int": lambda rng: rng.choice([1, rng.randint(2, 9) * 10**307]),
    "beyond": lambda rng: rng.choice([2, rng.randint(1, 9) * 10**400]),
    "fraction": lambda rng: Fraction(rng.randint(1, 9) * 10**307, rng.randint(1, 7)),
}


@pytest.mark.parametrize("source", sorted(SOURCES))
@pytest.mark.parametrize("kind", sorted(OVERFLOW_DRAWS))
def test_enumerate_exact_where_sums_pass_float_range(monkeypatch, source, kind):
    # the reference's own sums, in the capacities' type (a float sum past
    # float range is inf), strictly below thresholds in and beyond float range
    for name, value in SOURCES[source].items():
        monkeypatch.setattr(graph, name, value)
    rng = random.Random(sorted(OVERFLOW_DRAWS).index(kind))
    for n in (4, 6, 9):
        g = random_connected(rng, n, 2 * n)
        caps = [OVERFLOW_DRAWS[kind](rng) for _ in range(g.m)]
        table = all_cut_capacities(g, caps)
        existing = sorted({cap for _, cap in table if cap < math.inf})
        assert kind == "beyond" or not 4 * sum(map(float, caps)) < math.inf
        for threshold in (
            existing[len(existing) // 2],
            existing[-1],
            10**400,
            Fraction(10**401, 3),
        ):
            expected = sorted((cap, mask) for mask, cap in table if cap < threshold)
            cuts = enumerate_cuts_below(g, caps, threshold)
            assert [(c.capacity, c.side_mask) for c in cuts] == expected, (n, threshold)


def test_float_capacities_below_a_threshold_beyond_float_range_use_the_table(monkeypatch):
    # every float sum is below 10^400, so every cut is listed, by the table
    # and not by the slower flow search
    monkeypatch.setattr(graph, "_flow_shortlist", None)
    rng = random.Random(14)
    g = random_connected(rng, 14, 42)
    caps = [rng.uniform(0.5, 2.0) for _ in range(g.m)]
    for threshold in (10**400, Fraction(10**401, 3)):
        cuts = enumerate_cuts_below(g, caps, threshold)
        assert sorted(c.side_mask for c in cuts) == list(canonical_masks(14))


@pytest.mark.parametrize("threshold", [2**53 + 1, Fraction(2**54 + 1, 2)])
def test_float_sums_meet_a_threshold_between_floats_exactly(threshold):
    # 2^53 + 1 and 2^53 + 1/2 round to the float 2^53, which a cut of
    # capacity 2.0^53 is exactly below
    g = Multigraph(2, ((0, 1),))
    assert float(threshold) == 2.0**53
    assert [c.capacity for c in enumerate_cuts_below(g, [2.0**53], threshold)] == [2.0**53]
    assert enumerate_cuts_below(g, [2.0**53 + 2], threshold) == []


# Exhaustive enumeration re-sums every canonical mask while all 2^(n-1) - 1
# fit in one CUT_BLOCK (n <= 13) and shortlists them with the float cut table
# above that.  n = 2, 3 and 13 are the smallest and largest without the
# table; at n = 14 and 15 the table's last doubling steps give 2^13 - 1 and
# 2^14 - 1 masks, so a mask lost or repeated there shows against the
# reference scan.
BLOCK_SIZES = [2, 3, 13, 14, 15]


@pytest.mark.parametrize("n", BLOCK_SIZES)
@pytest.mark.parametrize("kind", ["int", "float", "fraction"])
def test_enumerate_matches_reference_scan_across_blocks(monkeypatch, n, kind):
    tables = []
    build_table = graph._cut_capacity_table
    monkeypatch.setattr(
        graph, "_cut_capacity_table", lambda *a: tables.append(1) or build_table(*a)
    )
    rng = random.Random(100 + n)
    g = random_connected(rng, n, 2 * n)
    draw = {
        "int": lambda: rng.randint(1, 5),
        "float": lambda: rng.uniform(0.1, 5.0),
        "fraction": lambda: Fraction(rng.randint(1, 30), rng.randint(1, 7)),
    }[kind]
    caps = [draw() for _ in range(g.m)]
    table = all_cut_capacities(g, caps)
    existing = sorted({cap for _, cap in table})
    mid = existing[len(existing) // 2]
    near = mid + mid / 10**10  # just above an existing capacity
    cases = [
        existing[-1] + 1,  # every mask qualifies, so a lost mask shows
        mid,  # equal to an existing capacity: strictly below only
        near,
    ]
    for threshold in cases:
        expected = sorted((cap, mask) for mask, cap in table if cap < threshold)
        cuts = enumerate_cuts_below(g, caps, threshold)
        assert [(c.side_mask, c.capacity) for c in cuts] == [
            (mask, cap) for cap, mask in expected
        ]
    assert len(tables) == (len(cases) if n >= 14 else 0)
