"""Spans and counts at liemult's layer boundaries, installed from outside the package.

Every listed public function is wrapped where it is defined and in every
liemult module that imported it with `from .x import y`; methods are
wrapped on their class.  A span records its name, start, end, parent span
and op id in flat arrays kept in memory until `write`.  A layer's self time
is its spans' time minus the time their child spans cover; calls run on one
thread and nest, so child intervals never overlap.  The hottest entry
points (scalar coercion, residue construction, `Matrix` construction and
`LieAlgebra.bracket`) are counted but get no span.
"""

from __future__ import annotations

import statistics
import sys
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

LAYERS = ("fields", "linalg", "algebra", "catalog", "classify", "formulas",
          "cohomology", "verify", "report", "document", "cli")

# (span name, defining module, attribute); rref is split by field at call time
SPANNED = (
    ("linalg.rref", "linalg", "rref"),
    ("linalg.span", "linalg", "Subspace.span"),
    ("linalg.kernel", "linalg", "kernel"),
    ("algebra.validate", "algebra", "LieAlgebra.validate"),
    ("algebra.change_basis", "algebra", "LieAlgebra.change_basis"),
    ("algebra.series", "algebra", "LieAlgebra.series"),
    ("algebra.derived_subalgebra", "algebra", "LieAlgebra.derived_subalgebra"),
    ("algebra.quotient", "algebra", "LieAlgebra.quotient"),
    ("catalog.make_catalog", "catalog", "make_catalog"),
    ("classify.classify", "classify", "classify"),
    ("classify.stem_decompose", "classify", "stem_decompose"),
    ("formulas.functor_report", "formulas", "functor_report"),
    ("cohomology.cochain_complex", "cohomology", "cochain_complex"),
    ("cohomology.schur_dim_oracle", "cohomology", "schur_dim_oracle"),
    ("cohomology.epicenter", "cohomology", "epicenter"),
    ("verify.cross_check", "verify", "cross_check"),
    ("report.build_report", "report", "build_report"),
    ("document.loads_algebra", "document", "loads_algebra"),
    ("cli.main", "cli", "main"),
)
COUNTED = (
    ("fields.fp_new", "fields", "Fp.__init__"),
    ("fields.coerce", "fields", "FieldSpec.of"),
    ("linalg.matrix_new", "linalg", "Matrix.__init__"),
    ("algebra.bracket", "algebra", "LieAlgebra.bracket"),
)
Z_BUCKETS = (3, 4, 5, 6)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.stack: list[int] = []
        self.op_id = -1
        self.counts: Counter = Counter()
        self.errors: Counter = Counter()
        self.epicenter_prime: dict[int, int] = {}
        self._undo: list = []

    def _name_id(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def _span(self, layer: str, pick, fn, note=None):
        tracer = self
        layer_of = self._layer_of

        def wrapped(*args, **kwargs):
            idx = len(tracer.start)
            stack = tracer.stack
            parent = stack[-1] if stack else -1
            tracer.name.append(pick(args))
            tracer.parent.append(parent)
            tracer.op.append(tracer.op_id)
            if note is not None:
                note(idx, args)
            tracer.end.append(0.0)
            stack.append(idx)
            tracer.start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                if parent < 0 or layer_of(tracer.name[parent]) != layer:
                    tracer.errors[layer] += 1
                raise
            finally:
                tracer.end[idx] = perf_counter()
                stack.pop()

        return wrapped

    def _count(self, metric: str, layer: str, fn):
        tracer = self
        counts = self.counts

        def wrapped(*args, **kwargs):
            counts[metric] += 1
            try:
                return fn(*args, **kwargs)
            except BaseException:
                stack = tracer.stack
                if not stack or tracer._layer_of(tracer.name[stack[-1]]) != layer:
                    tracer.errors[layer] += 1
                raise

        return wrapped

    def _layer_of(self, name_id: int) -> str:
        return self.names[name_id].split(".", 1)[0]

    def _install(self, module: str, attr: str, make):
        mod = sys.modules[f"liemult.{module}"]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            raw = cls.__dict__[meth]
            if isinstance(raw, classmethod):
                setattr(cls, meth, classmethod(make(raw.__func__)))
            else:
                setattr(cls, meth, make(raw))
            self._undo.append((cls, meth, raw))
            return
        orig = getattr(mod, attr)
        wrapper = make(orig)
        for name, m in list(sys.modules.items()):
            if name == "liemult" or name.startswith("liemult."):
                for key, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, key, wrapper)
                        self._undo.append((m, key, orig))

    def install(self):
        """Wrap every listed entry point; `uninstall` restores the originals."""
        for metric, module, attr in COUNTED:
            self._install(module, attr, lambda fn, m=metric: self._count(m, m.split(".")[0], fn))
        for span, module, attr in SPANNED:
            layer = span.split(".")[0]
            if span == "linalg.rref":
                ids = {True: self._name_id("linalg.rref_p"), False: self._name_id("linalg.rref_q")}

                def pick(args, ids=ids):
                    return ids[args[0].field.is_prime_field]

                def note(idx, args):
                    m = args[0]
                    kind = "p" if m.field.is_prime_field else "q"
                    self.counts[f"linalg.rref_{kind}.cells"] += m.rows * m.cols
            else:
                nid = self._name_id(span)

                def pick(args, nid=nid):
                    return nid

                note = None
                if span == "cohomology.epicenter":
                    def note(idx, args):
                        self.epicenter_prime[idx] = args[0].field.p

            self._install(module, attr, lambda fn, layer=layer, pick=pick, note=note:
                          self._span(layer, pick, fn, note))

    def uninstall(self):
        for owner, key, orig in reversed(self._undo):
            setattr(owner, key, orig)
        self._undo.clear()

    # -- results -------------------------------------------------------------

    def _arrays(self):
        return (np.array(self.start, dtype=np.float64), np.array(self.end, dtype=np.float64),
                np.array(self.name, dtype=np.int32), np.array(self.parent, dtype=np.int32))

    def epicenter_calls(self) -> list[tuple[int, int, float]]:
        """(p, central lines swept, inclusive ms) per epicenter call.

        Lines are counted as the quotients the sweep built directly under
        that call: one per line.
        """
        start, end, name, parent = self._arrays()
        quo = self.names.index("algebra.quotient")
        lines = Counter(parent[(name == quo) & (parent >= 0)].tolist())
        return [(p, lines[idx], 1e3 * (end[idx] - start[idx]))
                for idx, p in self.epicenter_prime.items()]

    def metrics(self) -> dict[str, float]:
        start, end, name, parent = self._arrays()
        dur = end - start
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_s = dur - child
        calls = np.bincount(name, minlength=len(self.names))
        self_ms = 1e3 * np.bincount(name, weights=self_s, minlength=len(self.names))
        out: dict[str, float] = {}
        for i, span in enumerate(self.names):
            out[f"{span}.calls"] = int(calls[i])
            out[f"{span}.self_ms"] = float(self_ms[i])
        for metric, _, _ in COUNTED:
            out[metric] = self.counts[metric]
        for kind in ("q", "p"):
            out[f"linalg.rref_{kind}.cells"] = self.counts[f"linalg.rref_{kind}.cells"]
        for layer in LAYERS:
            out[f"{layer}.errors"] = self.errors[layer]
        epi = self.epicenter_calls()
        out["cohomology.epicenter.lines"] = sum(lines for _, lines, _ in epi)
        by_z: dict[int, list[float]] = {}
        for p, lines, ms in epi:
            z = 0
            while (p**z - 1) // (p - 1) < lines:
                z += 1
            by_z.setdefault(z, []).append(ms)
        for z in Z_BUCKETS:
            out[f"cohomology.epicenter.z{z}_ms"] = statistics.median(by_z[z]) if z in by_z else 0.0
        return out

    def write(self, path):
        """Save every span: name, start, end, parent index and op id."""
        start, end, name, parent = self._arrays()
        np.savez_compressed(path, names=np.array(self.names), start=start, end=end,
                            name=name, parent=parent,
                            op=np.array(self.op, dtype=np.int32))
