"""Every exported name and every name the benchmark's tracer wraps resolves."""

import ast
from pathlib import Path

import flexconn

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_every_exported_name_resolves():
    missing = [name for name in flexconn.__all__ if not hasattr(flexconn, name)]
    assert missing == []
    namespace = {}
    exec("from flexconn import *", namespace)
    assert set(flexconn.__all__) <= set(namespace)
    # the rational simplex lives beside the tests that certify the float LP
    assert "lp_solve_exact" not in flexconn.__all__
    assert not hasattr(flexconn, "lp_solve_exact")
    assert not hasattr(flexconn.relaxation, "lp_solve_exact")


def _traced_bindings() -> tuple:
    # read, not imported: the benchmark's own files stay untouched
    tree = ast.parse(TRACING.read_text(), str(TRACING))
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["BINDINGS"]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"no BINDINGS in {TRACING}")


def test_every_traced_binding_resolves():
    # the traced benchmark replaces each (module, attribute) by a wrapper,
    # so a binding dropped from the package would only fail a traced run
    bindings = _traced_bindings()
    assert bindings
    for holder, attr, *_ in bindings:
        module = getattr(flexconn, holder)
        assert callable(getattr(module, attr, None)), f"{holder}.{attr}"
