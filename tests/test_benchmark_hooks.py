"""The benchmark's trace hooks name functions that exist in spectheta.

perfbench/tracing.py wraps each (module, attribute) of its HOOKS table
and lists a target it cannot find as missing, so a renamed or deleted
function silently drops a layer from the traced metrics.  The table is
read from the source, without running or importing the benchmark.
"""

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _hooks():
    tree = ast.parse(TRACING.read_text(), str(TRACING))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "HOOKS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no HOOKS table in {TRACING}")


def test_every_trace_hook_resolves():
    hooks = _hooks()
    assert hooks
    missing = []
    for module, attr, _, _ in hooks:
        # The lookup tracing.install does before it wraps a target.
        owner = importlib.import_module(module)
        *outer, leaf = attr.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
        if owner is None or not callable(vars(owner).get(leaf)):
            missing.append(f"{module}.{attr}")
    assert missing == []
