"""Shared test corpus: tiny hand-checkable instances plus seeded random ones.

The hand-built instances carry values verified by hand (LP optimum, exact
optimum, violation tables); tests assert against those frozen numbers.
"""

from flexconn import Cut, FgcInstance, Multigraph, constraint_row, gen_random, lp_solve
from flexconn.graph import canonical_masks


def two_vertex() -> FgcInstance:
    """Two vertices: safe edge cost 5, two unsafe edges cost 1; p=1 q=1.

    Unique cut needs 1 safe or 2 total edges.  LP optimum 2 at x=(0,1,1);
    exact optimum {u1,u2} cost 2.
    """
    g = Multigraph(2, ((0, 1), (0, 1), (0, 1)))
    return FgcInstance(g, (True, False, False), (5.0, 1.0, 1.0), 1, 1)


def two_vertex_pricey() -> FgcInstance:
    """Same but the second unsafe edge costs 10; exact optimum {s1} cost 5."""
    g = Multigraph(2, ((0, 1), (0, 1), (0, 1)))
    return FgcInstance(g, (True, False, False), (5.0, 1.0, 10.0), 1, 1)


def triangle_p1q0() -> FgcInstance:
    """Unit-cost safe triangle with p=1 q=0: the spanning tree problem.

    LP optimum 1.5 at x = (1/2, 1/2, 1/2); exact optimum 2.
    """
    g = Multigraph(3, ((0, 1), (1, 2), (0, 2)))
    return FgcInstance(g, (True, True, True), (1.0, 1.0, 1.0), 1, 0)


def gadget_f1() -> FgcInstance:
    """p=2 q=4, one cut of 1 safe + 3 unsafe unit edges.

    At x = 1 the J={safe} row reads 3 >= 5 and the J={3 unsafe} row reads
    3 >= 6, both violated; the most violated candidate is J_{0,3} at 3.
    The instance itself is infeasible as an FGC instance (E fails the cut
    characterization), so only row arithmetic is tested on it.
    """
    g = Multigraph(2, ((0, 1),) * 4)
    return FgcInstance(g, (True, False, False, False), (1.0,) * 4, 2, 4)


def strengthening_gadget() -> FgcInstance:
    """p=2 q=4 with a cheap infeasible pattern and pricey repairs.

    Cheap edges: safe s1 and unsafe u1..u3, cost 1 each.  Pricey: safe s2
    cost 10, unsafe u4, u5 cost 10.  The plain covering LP is happy with
    the cheap pattern (capacity 12 = p(p+q)) at value 4; the knapsack-cover
    rows force value 11 = exact optimum {s1, s2}.
    """
    g = Multigraph(2, ((0, 1),) * 6)
    safe = (True, False, False, False, True, False)
    cost = (1.0, 1.0, 1.0, 1.0, 10.0, 10.0)
    return FgcInstance(g, safe, cost, 2, 4)


def four_cycle_unsafe() -> FgcInstance:
    """4-cycle, all unsafe, distinct costs, p=1 q=1.

    Every nontrivial cut has at least 2 edges, so E is feasible.
    """
    g = Multigraph(4, ((0, 1), (1, 2), (2, 3), (0, 3)))
    return FgcInstance(g, (False,) * 4, (1.0, 2.0, 3.0, 4.0), 1, 1)


def basic_lp_value(inst: FgcInstance) -> float:
    """Value of the basic covering LP, the p(p+q) capacitated formulation
    the knapsack-cover rows strengthen: every cut's J-empty row at once
    (2^(n-1) - 1 rows, so small n only), with no separation involved."""
    rows = [constraint_row(inst, Cut(inst.n, mask), ()) for mask in canonical_masks(inst.n)]
    return lp_solve(rows, inst.cost, inst.m)[1]


def cycle_graph(n: int) -> Multigraph:
    return Multigraph(n, tuple((v, (v + 1) % n) for v in range(n)))


def random_instance(seed: int, n=6, m=12, safe_fraction=0.5, p=1, q=1) -> FgcInstance:
    return gen_random(n, m, safe_fraction, (1.0, 9.0), p, q, seed)


def named_corpus() -> list[tuple[str, FgcInstance]]:
    """Valid instances (E feasible) used across cross-module tests."""
    items = [
        ("two_vertex", two_vertex()),
        ("two_vertex_pricey", two_vertex_pricey()),
        ("triangle_p1q0", triangle_p1q0()),
        ("strengthening_gadget", strengthening_gadget()),
        ("four_cycle_unsafe", four_cycle_unsafe()),
        ("rand_p1_q0", random_instance(101, n=5, m=9, p=1, q=0)),
        ("rand_p1_q1", random_instance(102, n=6, m=12, p=1, q=1)),
        ("rand_p2_q1", random_instance(103, n=5, m=11, safe_fraction=0.7, p=2, q=1)),
        ("rand_p2_q4", random_instance(104, n=4, m=10, safe_fraction=0.6, p=2, q=4)),
        ("rand_p3_q2", random_instance(105, n=4, m=12, safe_fraction=0.7, p=3, q=2)),
        ("rand_sparse", random_instance(106, n=8, m=14, safe_fraction=0.4, p=1, q=1)),
    ]
    return items
