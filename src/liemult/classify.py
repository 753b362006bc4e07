"""Stem-plus-abelian decomposition and invariant-fingerprint classification.

Every non-abelian finite-dimensional nilpotent Lie algebra splits as
T + A with A abelian and T a stem algebra (Z(T) contained in T^2), and
Z(T) = Z(L) ∩ L^2.  `stem_decompose` realizes the split by greedy basis
extension and returns the change of basis.

`classify` recognizes algebras with derived subalgebra of dimension at
most 2 by the invariant tuple (dim L^2, nilpotency class, stem dimension,
Heisenberg rank).  This is fingerprinting, not isomorphism testing: the
tuple separates the named catalog families from each other (enforced by
round-trip tests), but an uncatalogued class-2 stem whose dimension
collides with a named family (possible at stem dimension 6 or 7) is
reported as that family.  Catalog-generated inputs are always recognized
correctly; arbitrary tables get the best-effort verdict, and the
cross-check harness surfaces any resulting formula/oracle mismatch.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import LieAlgebra, SeriesReport
from .catalog import Family
from .linalg import EchelonBasis, Matrix


@dataclass(frozen=True)
class StemDecomposition:
    basis_change: Matrix  # rows: stem basis first, then the central abelian part
    stem_dim: int
    abelian_dim: int


def stem_decompose(L: LieAlgebra) -> StemDecomposition:
    """Split L as stem ⊕ central abelian, emitting the basis change.

    C = Z(L) ∩ L^2 is extended to a basis of Z(L); the extension spans the
    abelian summand A'.  The stem is built over L^2 by greedily adding
    standard basis vectors independent of A', so it contains L^2 and is
    closed under the bracket.  Raises on abelian input, where "stem" would
    be meaningless.
    """
    if L.is_abelian:
        raise ValueError("abelian algebras have no stem decomposition")
    derived = L.derived_subalgebra()
    center = L.center()
    core = center.intersect(derived)
    central_complement = core.complement_within(center)

    acc = EchelonBasis(L.field, L.dim, derived.basis_rows())
    for row in central_complement.basis_rows():
        if not acc.add(row):
            raise AssertionError("central complement overlaps the derived subalgebra")
    stem_rows = list(derived.basis_rows())
    for i in range(L.dim):
        e = L.basis_vector(i)
        if acc.add(e):
            stem_rows.append(e)
    abelian_rows = list(central_complement.basis_rows())
    rows = stem_rows + abelian_rows
    if len(rows) != L.dim:
        raise AssertionError("basis extension did not reach full dimension")
    p = Matrix(L.field, rows, cols=L.dim)
    return StemDecomposition(p, len(stem_rows), len(abelian_rows))


def _rank_from_series(n: int, series: SeriesReport) -> int:
    spread = n - series.center.dim
    if spread <= 0 or spread % 2 != 0:
        raise ValueError("center dimension inconsistent with a Heisenberg structure")
    return spread // 2


def heisenberg_rank(L: LieAlgebra) -> int:
    """Rank m with L isomorphic to H(m) + A(n-2m-1); needs dim L^2 = 1."""
    series = L.series()
    if not series.is_nilpotent:
        raise ValueError("algebra is not nilpotent")
    if series.derived_dim != 1:
        raise ValueError(f"heisenberg_rank needs dim L^2 = 1, got {series.derived_dim}")
    return _rank_from_series(L.dim, series)


@dataclass(frozen=True)
class Classification:
    """Structured verdict; family is None when dim L^2 > 2 (out of scope)."""

    family: Family | None
    rank: int | None  # Heisenberg rank, when family is HEISENBERG
    abelian: int  # dimension of the abelian summand A(k)
    n: int
    derived_dim: int
    nil_class: int
    center_dim: int
    stem_dim: int
    capable: bool | None  # None when out of scope

    @property
    def in_scope(self) -> bool:
        return self.family is not None

    def describe(self) -> str:
        if self.family is None:
            return f"out of scope (dim L^2 = {self.derived_dim} > 2)"
        if self.family is Family.ABELIAN:
            return f"A({self.n})"
        core = self.family.value
        if self.family is Family.HEISENBERG:
            core = f"H({self.rank})"
        elif self.family in (Family.GEN_HEISENBERG_RANK2, Family.STEM_CLASS3_DIM2):
            core = f"{self.family.value}[dim {self.stem_dim}]"
        if self.abelian:
            return f"{core} + A({self.abelian})"
        return core


_ALWAYS_CAPABLE = (Family.L4_3, Family.L5_5, Family.L5_8, Family.L6_22, Family.L6_7_2, Family.L1)


def _capable_by_family(family: Family, rank: int | None, n: int) -> bool:
    if family is Family.ABELIAN:
        return n > 1
    if family is Family.HEISENBERG:
        return rank == 1
    return family in _ALWAYS_CAPABLE


def classify(L: LieAlgebra) -> Classification:
    series = L.series()
    if not series.is_nilpotent:
        raise ValueError("algebra is not nilpotent")
    n = L.dim
    d = series.derived_dim
    cls = series.nilpotency_class
    zdim = series.center.dim

    if d == 0:
        return Classification(Family.ABELIAN, None, n, n, 0, cls, zdim, 0, n > 1)

    if d == 1:
        m = _rank_from_series(n, series)
        fam = Family.HEISENBERG
        return Classification(fam, m, n - 2 * m - 1, n, 1, cls, zdim, 2 * m + 1,
                              _capable_by_family(fam, m, n))

    if d == 2:
        s = stem_decompose(L).stem_dim
        if cls == 2:
            fam = {5: Family.L5_8, 6: Family.L6_22, 7: Family.L1}.get(s, Family.GEN_HEISENBERG_RANK2)
            if s == 6 and L.field.char == 2:
                fam = Family.L6_7_2
        elif cls == 3:
            fam = {4: Family.L4_3, 5: Family.L5_5}.get(s, Family.STEM_CLASS3_DIM2)
        else:
            raise AssertionError(f"dim L^2 = 2 forces class 2 or 3, got {cls}")
        return Classification(fam, None, n - s, n, 2, cls, zdim, s,
                              _capable_by_family(fam, None, n))

    return Classification(None, None, 0, n, d, cls, zdim,
                          stem_decompose(L).stem_dim, None)
