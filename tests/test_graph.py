"""Graph core: cuts, exact minimum cut, threshold enumeration."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flexconn import (
    Cut,
    GraphStructureError,
    Multigraph,
    TooLargeError,
    cut_edges,
    enumerate_cuts_below,
    min_cut,
)
from flexconn import graph
from flexconn.exact import all_cut_capacities
from flexconn.graph import CUT_REL_TOL, canonical_masks, crossing_matrix

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


def test_multigraph_allows_parallel_edges():
    g = Multigraph(2, ((0, 1), (0, 1)))
    assert g.m == 2


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


def test_enumerate_threshold_is_strict_with_relative_slop():
    # the slop applies to float capacities only; the rest compare exactly
    g = Multigraph(2, ((0, 1),))
    assert enumerate_cuts_below(g, [2.0], 2.0) == []
    assert enumerate_cuts_below(g, [2.0 * (1 - 1e-12)], 2.0) == []  # within slop
    assert len(enumerate_cuts_below(g, [2.0], 2.0 + 1e-6)) == 1
    assert len(enumerate_cuts_below(g, [Fraction(2.0 * (1 - 1e-12))], 2.0)) == 1
    assert len(enumerate_cuts_below(g, [Fraction(199, 100)], 2)) == 1
    assert enumerate_cuts_below(g, [2], 2) == []
    assert len(enumerate_cuts_below(g, [1], 2)) == 1


def test_enumerate_exhaustive_refuses_large_graphs():
    n = 21
    edges = tuple((v, v + 1) for v in range(n - 1))
    g = Multigraph(n, edges)
    with pytest.raises(TooLargeError):
        enumerate_cuts_below(g, [1] * g.m, 2)


def test_enumerate_rejects_bad_arguments():
    g = cycle_graph(4)
    with pytest.raises(ValueError):
        enumerate_cuts_below(g, [1] * 4, 0)
    with pytest.raises(ValueError):
        enumerate_cuts_below(g, [1] * 4, 2, mode="magic")
    with pytest.raises(ValueError):
        # threshold 10x the minimum cut exceeds the default alpha cap
        enumerate_cuts_below(g, [1] * 4, 20, mode="contraction")


@pytest.mark.parametrize("mode", ["exhaustive", "contraction"])
@pytest.mark.parametrize("threshold", [math.inf, math.nan])
def test_enumerate_rejects_non_finite_threshold(mode, threshold):
    # inf - 1e-9 * inf is NaN, which no capacity is below
    with pytest.raises(ValueError, match="threshold"):
        enumerate_cuts_below(cycle_graph(5), [1] * 5, threshold, mode)


def test_enumerate_sums_float_capacities_in_edge_order():
    # 1e16 + 1.0 rounds back to 1e16, so the cut is 1e16 summed left to
    # right but 1.0000000000000014e16 summed pairwise
    g = Multigraph(2, ((0, 1),) * 16)
    caps = [1e16] + [1.0] * 15
    assert all_cut_capacities(g, caps) == [(0b10, 1e16)]
    assert [(c.side_mask, c.capacity) for c in enumerate_cuts_below(g, caps, 2e16)] == [
        (0b10, 1e16)
    ]


def test_contraction_keeps_fraction_capacities():
    rng = random.Random(61)
    g = random_connected(rng, 6, 11)
    caps = [Fraction(rng.randint(1, 9), rng.randint(1, 7)) for _ in range(g.m)]
    _, lam = min_cut(g, caps)
    threshold = lam * Fraction(8, 5)
    expected = sorted((cap, mask) for mask, cap in all_cut_capacities(g, caps) if cap < threshold)
    cuts = enumerate_cuts_below(g, caps, threshold, "contraction")
    assert [(c.capacity, c.side_mask) for c in cuts] == expected
    assert all(type(c.capacity) is Fraction for c in cuts)


def test_contraction_agrees_with_exhaustive():
    rng = random.Random(13)
    for trial in range(30):
        g = random_connected(rng, rng.randint(4, 7), rng.randint(6, 12))
        caps = [rng.randint(1, 4) for _ in range(g.m)]
        _, lam = min_cut(g, caps)
        threshold = 1.6 * lam
        exhaustive = enumerate_cuts_below(g, caps, threshold)
        contraction = enumerate_cuts_below(
            g, caps, threshold, mode="contraction", delta=1e-6, seed=trial
        )
        assert [c.side_mask for c in exhaustive] == [c.side_mask for c in contraction]


def test_contraction_shortcut_below_min_cut():
    g = cycle_graph(6)
    assert enumerate_cuts_below(g, [1] * 6, 2, mode="contraction") == []


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
    near = mid + mid / 10**10  # within CUT_REL_TOL above an existing capacity
    rel_tol = CUT_REL_TOL if kind == "float" else 0  # exact types get no slop
    cases = [
        existing[-1] + 1,  # every mask qualifies, so a lost mask shows
        mid,  # equal to an existing capacity: strictly below only
        near,
    ]
    for threshold in cases:
        cutoff = threshold - rel_tol * threshold
        expected = sorted((cap, mask) for mask, cap in table if cap < cutoff)
        cuts = enumerate_cuts_below(g, caps, threshold)
        assert [(c.side_mask, c.capacity) for c in cuts] == [
            (mask, cap) for cap, mask in expected
        ]
    assert len(tables) == (len(cases) if n >= 14 else 0)
