"""Cut-characterization oracle that checks the benchmark's outputs.

It shares no code with flexconn: the crossing edges of every canonical
bipartition (vertex 0 on the excluded side) are tabulated once per
instance with numpy, so checking a selection is one matrix product.  A
selection F is feasible iff every cut holds at least p safe or at least
p+q edges of F.  Keeping the oracle in the benchmark means it
stays independent when the library's own scans are rewritten, and it is
fast enough that the untimed checks do not dominate a run.
"""

from __future__ import annotations

import numpy as np


class CutOracle:
    def __init__(self, inst):
        n = inst.n
        sides = np.arange(1, 1 << (n - 1), dtype=np.int64) << 1
        bits = (sides[:, None] >> np.arange(n)) & 1
        u = np.array([a for a, _ in inst.graph.edges])
        v = np.array([b for _, b in inst.graph.edges])
        # float64 so the products run in BLAS; the counts stay exact
        self.cross = (bits[:, u] ^ bits[:, v]).astype(np.float64)
        self.safe = np.array(inst.safe, dtype=np.float64)
        self.p, self.q, self.m = inst.p, inst.q, inst.m

    def feasible(self, selection) -> bool:
        f = np.zeros(self.m)
        f[sorted(selection)] = 1.0
        total, safe = (self.cross @ np.stack([f, f * self.safe], axis=1)).T
        return bool(np.all((safe >= self.p) | (total >= self.p + self.q)))


class OracleCache:
    """The oracle of the latest instance.  Ops on one instance run one after
    another, and holding no more keeps the benchmark's own memory out of
    the measured peak RSS."""

    def __init__(self):
        self._key = None
        self._oracle = None

    def __call__(self, key, inst) -> CutOracle:
        if key != self._key:
            self._key, self._oracle = key, CutOracle(inst)
        return self._oracle
