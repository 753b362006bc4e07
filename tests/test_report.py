import importlib
import sys

import liemult.algebra as algebra
from liemult.catalog import CatalogId, Family, make_catalog
from liemult.fields import gf, rationals
from liemult.report import build_report


def _wrap_everywhere(monkeypatch, module_name, name, make):
    """Replace a function in its module and in every liemult module that imported it."""
    original = getattr(importlib.import_module(module_name), name)
    wrapper = make(original)
    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("liemult") and getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, wrapper)


def test_build_report_computes_each_invariant_once(monkeypatch):
    calls = {"cochain_complex": 0, "classify": 0, "center": 0}

    def counted(name):
        def make(fn):
            def wrapped(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapped
        return make

    _wrap_everywhere(monkeypatch, "liemult.cohomology", "cochain_complex", counted("cochain_complex"))
    _wrap_everywhere(monkeypatch, "liemult.classify", "classify", counted("classify"))
    # series() computes Z(L) as the annihilator of the adjoint matrix; series().center reads it
    monkeypatch.setattr(algebra, "annihilator", counted("center")(algebra.annihilator))

    # over GF(5) the epicenter reads L's own complex; over Q it needs the mod-5
    # reduction's, and the reduction is a second algebra with its own series
    for field, algebras in ((gf(5), 1), (rationals(), 2)):
        calls.update(cochain_complex=0, classify=0, center=0)
        L = make_catalog(CatalogId(Family.L5_8), field)
        report = build_report(L, digest="x", want_oracle=True)
        assert report["ok"] and report["oracle"]["capable"] is True
        assert calls == {"cochain_complex": algebras, "classify": 1, "center": algebras}
