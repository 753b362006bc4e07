import importlib
import sys

from liemult.catalog import CatalogId, Family, make_catalog
from liemult.fields import rationals
from liemult.report import build_report


def _wrap_everywhere(monkeypatch, module_name, name, make):
    """Replace a function in its module and in every liemult module that imported it."""
    original = getattr(importlib.import_module(module_name), name)
    wrapper = make(original)
    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("liemult") and getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, wrapper)


def test_build_report_computes_each_invariant_once(monkeypatch):
    calls = {"cochain_complex": 0, "classify": 0}
    sweeping = []

    def counted(name):
        def make(fn):
            def wrapped(*args, **kwargs):
                if not sweeping:
                    calls[name] += 1
                return fn(*args, **kwargs)
            return wrapped
        return make

    def sweep(fn):
        def wrapped(*args, **kwargs):
            sweeping.append(fn)
            try:
                return fn(*args, **kwargs)
            finally:
                sweeping.pop()
        return wrapped

    _wrap_everywhere(monkeypatch, "liemult.cohomology", "cochain_complex", counted("cochain_complex"))
    _wrap_everywhere(monkeypatch, "liemult.classify", "classify", counted("classify"))
    _wrap_everywhere(monkeypatch, "liemult.cohomology", "epicenter", sweep)

    L = make_catalog(CatalogId(Family.L5_8), rationals())
    report = build_report(L, digest="x", want_oracle=True)
    assert report["ok"] and report["oracle"]["capable"] is True
    # one multiplier computation and one classification outside the sweep
    assert calls == {"cochain_complex": 1, "classify": 1}
