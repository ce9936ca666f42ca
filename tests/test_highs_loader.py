"""scipy's HiGHS bindings are loaded from their extension file, without
importing scipy.optimize, and shared with scipy when it is imported too."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import flexconn
from flexconn import relaxation, save_instance

from instances import two_vertex

# The directory the suite imported flexconn from: the checkout's src/, or
# site-packages when the suite runs against an installed package.
PACKAGE_ROOT = Path(flexconn.__file__).resolve().parent.parent
TESTS = Path(__file__).resolve().parent


def _python(args, cwd):
    env = {**os.environ, "PYTHONPATH": str(PACKAGE_ROOT)}
    out = subprocess.run(
        [sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr
    return out


def _imported(importtime_log: str) -> set[str]:
    # -X importtime lines read "import time: self | cumulative | name"
    return {
        line.rsplit("|", 1)[1].strip()
        for line in importtime_log.splitlines()
        if line.startswith("import time:") and line.count("|") == 2
    }


def test_import_leaves_scipy_optimize_out(tmp_path):
    code = "import flexconn, sys; assert 'scipy.optimize' not in sys.modules; print(flexconn.__file__)"
    out = _python(["-c", code], tmp_path)
    assert Path(out.stdout.strip()).resolve() == Path(flexconn.__file__).resolve()


def test_solve_command_leaves_scipy_optimize_out(tmp_path):
    path = tmp_path / "two_vertex.fgc"
    save_instance(two_vertex(), path)
    out = _python(["-X", "importtime", "-m", "flexconn", "solve", str(path)], tmp_path)
    assert '"command": "solve"' in out.stdout
    names = _imported(out.stderr)
    assert "flexconn.relaxation" in names
    assert "scipy" in names
    assert "scipy.optimize" not in names


# Both orders: scipy.optimize imported after flexconn, and before it.  Either
# way there is one _core module, and flexconn's LP and scipy's linprog run.
_SHARED = """
import sys
{first}
{second}
from scipy.optimize import linprog
from scipy.optimize._highspy import _core
from flexconn import relaxation
from flexconn.relaxation import constraint_row, lp_solve
from flexconn.graph import Cut
from instances import two_vertex

assert relaxation._highs is _core is sys.modules["scipy.optimize._highspy._core"]
inst = two_vertex()
row = constraint_row(inst, Cut.from_vertices(inst.n, {{0}}), frozenset())
x, value = lp_solve([row], inst.cost, inst.m)
assert row.lhs(x) >= row.rhs - 1e-7 and value > 0
res = linprog([1.0, 2.0], A_ub=[[-1.0, -1.0]], b_ub=[-1.0], bounds=(0, 1), method="highs")
assert res.status == 0 and abs(res.fun - 1.0) < 1e-9
"""


@pytest.mark.parametrize("scipy_first", [False, True])
def test_bindings_are_shared_with_scipy_optimize(tmp_path, scipy_first):
    imports = ["import flexconn", "import scipy.optimize"]
    first, second = imports[::-1] if scipy_first else imports
    code = _SHARED.format(first=first, second=second)
    _python(["-c", f"import sys; sys.path.insert(0, {str(TESTS)!r})\n" + code], tmp_path)


def test_later_scipy_optimize_import_leaves_no_core_attribute(tmp_path):
    # The import system sets a package's attribute for a submodule only when
    # it loads the submodule itself; flexconn registered _core in
    # sys.modules first, and setting the attribute would need the parent
    # package, the import flexconn avoids.  Lookups by import still work.
    code = """
import sys
import flexconn
import scipy.optimize
from flexconn import relaxation
package = sys.modules["scipy.optimize._highspy"]
assert not hasattr(package, "_core")
from scipy.optimize._highspy import _core
assert _core is relaxation._highs
"""
    _python(["-c", code], tmp_path)


def test_missing_bindings_raise_import_error_naming_the_path(tmp_path, monkeypatch):
    monkeypatch.delitem(sys.modules, "scipy.optimize._highspy._core")
    stem = os.path.join(str(tmp_path), "optimize", "_highspy", "_core")
    with pytest.raises(ImportError, match=re.escape(stem)) as exc:
        relaxation._load_highs_core([str(tmp_path)])
    assert "scipy>=1.17,<1.18" in str(exc.value)


def test_loader_reuses_the_loaded_module(tmp_path):
    assert relaxation._load_highs_core([str(tmp_path)]) is relaxation._highs


# flexconn's models share HiGHS, and its one per-process task scheduler,
# with scipy: a solve after scipy's linprog has run in the same process must
# give what it gives in a fresh one.
_RELAXATION = """
import sys
sys.path.insert(0, {tests!r})
{first}
from flexconn import solve_relaxation
from instances import named_corpus
result = solve_relaxation(dict(named_corpus())["rand_p3_q2"])
print(repr((result.value, result.x, result.iterations)))
"""

_LINPROG = """
from scipy.optimize import linprog
res = linprog([1.0, 2.0], A_ub=[[-1.0, -1.0]], b_ub=[-1.0], bounds=(0, 1), method="highs")
assert res.status == 0
"""


def test_relaxation_after_scipy_linprog_matches_a_fresh_process(tmp_path):
    fresh, after = (
        _python(["-c", _RELAXATION.format(tests=str(TESTS), first=code)], tmp_path).stdout
        for code in ("", _LINPROG)
    )
    assert after == fresh
    _, x, iterations = ast.literal_eval(fresh)
    assert iterations > 1 and any(0 < v < 1 for v in x)
