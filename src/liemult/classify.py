"""Stem-plus-abelian decomposition and invariant-fingerprint classification.

Every non-abelian finite-dimensional nilpotent Lie algebra splits as
T + A with A abelian and T a stem algebra (Z(T) contained in T^2), and
Z(T) = Z(L) ∩ L^2.  `stem_decompose` realizes the split with one RREF
of L^2, Z(L) and the standard basis, all read from `L.series()`, and
returns the change of basis.

`classify` recognizes algebras with derived subalgebra of dimension at
most 2 by the invariant tuple (dim L^2, nilpotency class, stem dimension,
Heisenberg rank); a stem with dim L^2 = 2 is the row of `catalog.STEMS`
with its dimension, class and characteristic, if there is one.  Class-2
stems with dim L^2 = 2 of dimension >= 7 are also told apart by
`has_rank2_member`: whether some member of the pencil aB1 + bB2
of alternating forms that the bracket induces has rank 2 (pencils are
classified by the ranks of their members: Scharlau, Math. Z. 1976).  At
dimension 7 it separates the capable L1 from the non-capable stems.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import lcm

from .algebra import LieAlgebra
from .catalog import STEMS, Family
from .linalg import Matrix, kernel, rref


@dataclass(frozen=True)
class StemDecomposition:
    basis_change: Matrix  # rows: stem basis first, then the central abelian part
    stem_dim: int
    abelian_dim: int


def stem_decompose(L: LieAlgebra) -> StemDecomposition:
    """Split L as stem ⊕ central abelian, emitting the basis change.

    A greedy extension, read off the pivot columns of one RREF of the
    transposed stack [L^2 basis; Z(L) basis; identity]: the Z(L) basis
    rows that are pivots span a complement A' of Z(L) ∩ L^2 in Z(L), the
    abelian summand; the standard basis vectors that are pivots then
    complete L^2 to the stem, which is closed under the bracket because it
    contains L^2.  Raises on abelian input, where "stem" would be
    meaningless.
    """
    if L.is_abelian:
        raise ValueError("abelian algebras have no stem decomposition")
    derived = L.derived_subalgebra().basis._rows()
    centre = L.series().center.basis._rows()
    d, z = len(derived), len(centre)
    candidates = derived + centre + Matrix.identity(L.field, L.dim)._rows()
    picked = rref(Matrix._from_rows(L.field, candidates, L.dim).transpose()).pivots
    abelian_rows = [candidates[c] for c in picked if d <= c < d + z]
    stem_rows = [candidates[c] for c in picked if c < d or c >= d + z]
    rows = stem_rows + abelian_rows
    if len(rows) != L.dim:
        raise AssertionError("basis extension did not reach full dimension")
    p = Matrix._from_rows(L.field, rows, L.dim)
    return StemDecomposition(p, len(stem_rows), len(abelian_rows))


def has_rank2_member(L: LieAlgebra) -> bool:
    """Whether some member aB1 + bB2 of L's pencil of forms has rank 2 (class 2, dim L^2 = 2).

    B1, B2 are the coordinates of [x_i, x_j] along the RREF basis of L^2, on
    the coordinates outside Z(L)'s pivots: the entries of the stored table at
    L^2's pivots, read on ints over one common denominator (scaling both forms
    by one unit changes no member's rank).  A member has rank 2 when its 4x4
    sub-Pfaffians, binary quadratics in (a, b), vanish: when (a^2, ab, b^2) is
    in the kernel of their coefficient rows.  Over the algebraic closure a
    kernel of dim >= 2 meets that conic, and a line (x, y, z) lies on it iff
    y^2 = xz, tested on the kernel row's ints (mod p over GF(p)).  Nothing is
    enumerated, so the test is exact over Q and GF(p).
    """
    series = L.series()
    if series.nilpotency_class != 2 or series.derived_dim != 2:
        raise ValueError("has_rank2_member needs class 2 and dim L^2 = 2")
    c1, c2 = series.lower_central[1].pivots
    keep = [j for j in range(L.dim) if j not in series.center.pivots]
    zero = ([0] * L.dim, 1)
    brackets = {pair: L._table.get(pair, zero) for pair in combinations(keep, 2)}
    den = lcm(*[d for _, d in brackets.values()])

    coords = {}  # den·B1 and den·B2 at each pair: [x_i, x_j] read at L^2's pivots
    for pair, (ints, d) in brackets.items():
        coords[pair] = ints[c1] * (den // d), ints[c2] * (den // d)

    def product(p, q):  # (u1 a + v1 b)(u2 a + v2 b) as coefficients of a^2, ab, b^2
        (u1, v1), (u2, v2) = coords[p], coords[q]
        return u1 * u2, u1 * v2 + v1 * u2, v1 * v2

    rows = []
    for i, j, k, l in combinations(keep, 4):  # Pf = B_ij B_kl - B_ik B_jl + B_il B_jk
        terms = zip(product((i, j), (k, l)), product((i, k), (j, l)), product((i, l), (j, k)))
        rows.append(([s - t + u for s, t, u in terms], 1))
    null = kernel(Matrix._from_rows(L.field, rows, 3))
    if null.dim != 1:
        return null.dim > 1
    (x, y, z), _ = null.basis._rows()[0]  # y^2 = xz is homogeneous, so the row's den cancels
    p = L.field.p
    return y * y == x * z if p is None else (y * y - x * z) % p == 0


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
    rank2_member: bool | None = None  # has_rank2_member, for class-2 rank-2 stems of dim >= 7

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


def classify(L: LieAlgebra) -> Classification:
    series = L.series()
    if not series.is_nilpotent:
        raise ValueError("algebra is not nilpotent")
    n = L.dim
    d = series.derived_dim
    cls = series.nilpotency_class
    zdim = series.center.dim

    if d == 0:
        return Classification(Family.ABELIAN, None, n, n, 0, cls, zdim, 0)

    if d == 1:  # L = H(m) + A(k) with Z(L) = L^2 + A(k), so n - dim Z = 2m
        if (n - zdim) % 2:
            raise AssertionError(f"dim L^2 = 1 forces an even n - dim Z, got {n - zdim}")
        m = (n - zdim) // 2
        return Classification(Family.HEISENBERG, m, n - 2 * m - 1, n, 1, cls, zdim, 2 * m + 1)

    if d == 2:
        if cls not in (2, 3):
            raise AssertionError(f"dim L^2 = 2 forces class 2 or 3, got {cls}")
        s = stem_decompose(L).stem_dim
        rank2 = has_rank2_member(L) if cls == 2 and s >= 7 else None
        fam = Family.GEN_HEISENBERG_RANK2 if cls == 2 else Family.STEM_CLASS3_DIM2
        if not rank2:
            fam = next((f for f, t in STEMS.items()
                        if (t.dim, t.nil_class) == (s, cls) and t.allows(L.field.char)), fam)
        return Classification(fam, None, n - s, n, 2, cls, zdim, s, rank2)

    return Classification(None, None, 0, n, d, cls, zdim, stem_decompose(L).stem_dim)
