"""Every liemult name that the benchmark's tracer wraps still exists.

`perfbench/tracing.py` wraps entry points by (module, attribute) name and
fails at install time when one is gone.  The lists are read from the file
as literals, so this test imports neither the harness nor numpy.
"""

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _wrapped_names() -> dict[str, tuple]:
    lists = {}
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name) and target.id in ("SPANNED", "COUNTED"):
                lists[target.id] = ast.literal_eval(node.value)
    return lists


def test_every_wrapped_name_resolves():
    lists = _wrapped_names()
    assert set(lists) == {"SPANNED", "COUNTED"} and all(lists.values())
    missing = []
    for metric, module, attr in lists["SPANNED"] + lists["COUNTED"]:
        mod = importlib.import_module(f"liemult.{module}")
        if "." in attr:  # a method, looked up where the tracer replaces it
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name, None)
            found = cls is not None and meth in vars(cls)
        else:
            found = callable(getattr(mod, attr, None))
        if not found:
            missing.append((metric, module, attr))
    assert missing == []
