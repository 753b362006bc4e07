"""Lie algebras given by structure constant tables.

A :class:`LieAlgebra` is a basis x_0, ..., x_{n-1} (0-based internally;
documents and printed output use 1-based indices) together with the
coefficient vectors of [x_i, x_j] for i < j.  Antisymmetry is structural:
[x_j, x_i] is -[x_i, x_j] by definition and [x_i, x_i] = 0.  The Jacobi
identity is *checked*, not assumed; :meth:`LieAlgebra.validate` returns
the list of violating triples, empty exactly when the table is a Lie
algebra.  The residuals are the nonzero rows of d2·d1 in the cochain
complex (:func:`liemult.cohomology.jacobi_residuals`), read first on the
triples of the coordinates outside Z(L)'s pivots, whose d2 rows the
algebra keeps for :func:`~liemult.cohomology.cochain_complex`.

The table is stored once, as one canonical codec row (ints, den) per pair
(:meth:`~liemult.fields.FieldSpec.canonical`); ``table`` decodes it into
field scalars on each read, as ``Matrix.data`` does.  ``quotient``,
``change_basis``, ``direct_sum`` and ``reduce_mod_p`` build their results
from integer rows through ``LieAlgebra._from_rows``, as ``Matrix._from_rows``
builds a matrix.  ``structure_vector`` and ``quotient`` read single brackets
from those rows, negated for i > j.  Other brackets are read off the n x n²
adjoint matrix that :func:`~liemult.linalg.alternating` lays out from them:
row j is ad(x_j) written row by row, so its block i is [x_i, x_j], and ad(v)
for any set of vectors v is one product of their rows with it:
``bracket(u, v)`` is ``u @ ad(v)``, a lower central step L^{k+1} spans the
rows of ad(u) over a basis of L^k, and ``change_basis`` takes all n ad(p_j)
from one product.  L^2 is the span of the table's vectors, the rows of d1 up
to sign.  Every bracket lies in L^2, so Z(L) is the :func:`annihilator` of
the n x n·d matrix that ``alternating`` lays out from the table's entries at
L^2's pivots.

Characteristic subspaces (derived subalgebra, lower central series,
center) are returned as :class:`~liemult.linalg.Subspace` values in the
coordinates of the given basis.  An algebra and its table are read-only,
so :meth:`LieAlgebra.series` and :meth:`LieAlgebra.validate` are each
computed once per algebra, and L^2 and Z(L) are read from the series.  At
nilpotency class 2 or 3 the derived series is L, L^2, 0 with no product, as
[L^2, L^2] lies in L^4 = 0; the general loop runs only at class >= 4 and
on algebras that are not nilpotent.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping, NamedTuple, Sequence

from .fields import FieldSpec
from .linalg import Matrix, Subspace, alternating, annihilator, invert, rref


class JacobiViolation(NamedTuple):
    i: int
    j: int
    k: int
    residual: tuple


class LieAlgebra:
    __slots__ = ("field", "dim", "labels", "_table", "_adjoint", "_series", "_violations", "_d2")

    def __init__(
        self,
        field: FieldSpec,
        dim: int,
        brackets: Mapping[tuple[int, int], Sequence] = MappingProxyType({}),
        labels: Sequence[str] | None = None,
    ):
        if dim < 0:
            raise ValueError("negative dimension")
        rows = {}
        for (i, j), coeffs in brackets.items():
            if not (0 <= i < j < dim):
                raise ValueError(f"bad bracket pair ({i}, {j}) for dimension {dim}")
            vec = [field.of(x) for x in coeffs]
            if len(vec) != dim:
                raise ValueError(f"bracket ({i}, {j}) has {len(vec)} coefficients, need {dim}")
            rows[(i, j)] = field.encode(vec)
        if labels is not None:
            labels = tuple(labels)
            if len(labels) != dim:
                raise ValueError("labels length must equal dim")
        self._store(field, dim, rows, labels)

    @classmethod
    def _from_rows(
        cls, field: FieldSpec, dim: int, rows: Mapping[tuple[int, int], tuple[list[int], int]], labels: tuple | None = None
    ) -> "LieAlgebra":
        """The algebra with [x_i, x_j] = ints / den for each (i, j): (ints, den) in rows, i < j, stored canonically."""
        canonical = field.canonical
        algebra = object.__new__(cls)
        algebra._store(field, dim, {pair: canonical(ints, den) for pair, (ints, den) in rows.items()}, labels)
        return algebra

    def _store(self, field: FieldSpec, dim: int, rows: dict, labels: tuple | None) -> None:
        """Keep the canonical rows that are not zero, in pair order, and build the adjoint matrix from them."""
        table = {pair: row for pair, row in sorted(rows.items()) if any(row[0])}
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "labels", labels or tuple([f"x{i+1}" for i in range(dim)]))
        object.__setattr__(self, "_table", table)
        object.__setattr__(self, "_series", None)
        object.__setattr__(self, "_violations", None)
        object.__setattr__(self, "_d2", None)
        # row j is ad(x_j) read row by row: its block i is [x_i, x_j]
        object.__setattr__(self, "_adjoint", alternating(field, dim, table, dim))

    @property
    def table(self) -> Mapping[tuple[int, int], tuple]:
        """The nonzero [x_i, x_j] for i < j as field scalars, in pair order, decoded on each read."""
        decode = self.field.decode
        return MappingProxyType({pair: tuple(decode(ints, den)) for pair, (ints, den) in self._table.items()})

    def __setattr__(self, name, value):
        raise AttributeError("LieAlgebra is immutable")

    # -- basic bracket machinery -------------------------------------------

    def structure_vector(self, i: int, j: int) -> tuple:
        """[x_i, x_j] for 0 <= i, j < dim, decoded from the table: -[x_j, x_i] when i > j."""
        n = self.dim
        if not (0 <= i < n and 0 <= j < n):
            raise IndexError(f"basis index out of range for dim {n}: ({i}, {j})")
        ints, den = self._table.get((min(i, j), max(i, j)), ([0] * n, 1))
        return tuple(self.field.decode(ints if i < j else [-x for x in ints], den))

    def _ads(self, vectors: Matrix) -> list[Matrix]:
        """ad(v) for each row v of vectors, from one product with the adjoint matrix."""
        n = self.dim
        blocks = (vectors @ self._adjoint)._rows(n)  # row i of ad(v) is block i of v's row
        return [Matrix._from_rows(self.field, blocks[k * n:(k + 1) * n], n) for k in range(vectors.rows)]

    def ad(self, v: Sequence) -> Matrix:
        """The n x n matrix of x ↦ [x, v]: row i is [x_i, v]."""
        n = self.dim
        if len(v) != n:
            raise ValueError(f"vector has {len(v)} coordinates, need {n}")
        return self._ads(Matrix(self.field, [[self.field.of(x) for x in v]], cols=n))[0]

    def bracket(self, u: Sequence, v: Sequence) -> tuple:
        """Bilinear extension of the table to coordinate vectors: u @ ad(v)."""
        u = [self.field.of(x) for x in u]
        return (Matrix(self.field, [u], cols=self.dim) @ self.ad(v)).data[0]

    @property
    def is_abelian(self) -> bool:
        return not self._table

    def validate(self) -> list[JacobiViolation]:
        """Jacobi residuals, the nonzero rows of d2·d1; computed once and kept.

        The d2 rows that certify a valid table stay on the algebra too, for
        the oracle (:func:`liemult.cohomology.jacobi_residuals`).
        """
        if self._violations is None:
            from .cohomology import jacobi_residuals  # cohomology imports this module

            object.__setattr__(self, "_violations", tuple(jacobi_residuals(self)))
        return list(self._violations)

    # -- subspace machinery -------------------------------------------------

    def bracket_span(self, u: Subspace, v: Subspace) -> Subspace:
        """Span of [a, b] over basis vectors a of u, b of v."""
        if u.ambient != self.dim or v.ambient != self.dim:
            raise ValueError("subspace ambient dimension must match the algebra")
        rows = [r for m in self._ads(v.basis) for r in (u.basis @ m)._rows()]
        return rref(Matrix._from_rows(self.field, rows, self.dim))

    def derived_subalgebra(self) -> Subspace:
        """L^2, read from the series (L itself when L is perfect or zero)."""
        return self.series().derived

    def series(self) -> "SeriesReport":
        """Lower central series, derived series, center, nilpotency class.

        Computed on the first call and kept: the algebra cannot change.
        """
        if self._series is not None:
            return self._series
        n, field = self.dim, self.field
        lower = [Subspace.full(field, n)]
        nxt = rref(Matrix._from_rows(field, self._table.values(), n))  # L^2 spans the table vectors
        while nxt.dim < lower[-1].dim:  # a series that stabilizes above zero is not nilpotent
            lower.append(nxt)
            if nxt.dim == 0:
                break
            # [L, L^k] is spanned by the rows of ad(u) over a basis of L^k
            nxt = rref(Matrix._from_rows(field, (nxt.basis @ self._adjoint)._rows(n), n))
        nilpotent = lower[-1].dim == 0 or self.dim == 0
        cls = len(lower) - 1 if nilpotent else None
        derived = list(lower[:2])  # L and L^2; a perfect L stops at L
        if cls in (2, 3):  # [L^2, L^2] lies in L^4 = 0
            derived.append(lower[-1])
        while len(derived) > 1 and derived[-1].dim:
            nxt = self.bracket_span(derived[-1], derived[-1])
            if nxt.dim == derived[-1].dim:
                break
            derived.append(nxt)
        # [x_i, x_j] lies in L^2, so it is zero exactly when its entries at
        # L^2's pivots are: Z(L) annihilates the table read at those d columns
        pivots = lower[min(1, len(lower) - 1)].pivots
        at_pivots = {pair: ([ints[c] for c in pivots], den) for pair, (ints, den) in self._table.items()}
        if field.p is None:  # over Q those entries may share a factor with den
            at_pivots = {pair: field.canonical(*row) for pair, row in at_pivots.items()}
        center = annihilator(alternating(field, n, at_pivots, len(pivots)))
        series = SeriesReport(tuple(lower), tuple(derived), center, cls)
        object.__setattr__(self, "_series", series)
        return series

    # -- constructions --------------------------------------------------------

    def quotient(self, ideal: Subspace) -> tuple["LieAlgebra", Matrix]:
        """Quotient by an ideal, with the coordinate projection matrix.

        The quotient basis is the non-pivot coordinates of the ideal's RREF
        basis, which makes the construction deterministic.  Returns (L/I, P)
        where P is dim x quot_dim and row-vector coordinates map by v @ P.
        """
        if ideal.ambient != self.dim:
            raise ValueError("ideal ambient dimension must match the algebra")
        n = self.dim
        keep = [j for j in range(n) if j not in ideal.pivots]
        q = len(keep)
        proj = ideal.quotient_map()
        if any(not (m @ proj).is_zero() for m in self._ads(ideal.basis)):
            raise ValueError("subspace is not an ideal")  # [L, I] has a nonzero image in L/I
        pairs = [(a, b) for b in range(q) for a in range(b)]
        zero = ([0] * n, 1)  # keep is increasing, so keep[a] < keep[b]
        brackets = Matrix._from_rows(self.field, [self._table.get((keep[a], keep[b]), zero) for a, b in pairs], n)
        labels = tuple([self.labels[j] for j in keep])
        return LieAlgebra._from_rows(self.field, q, dict(zip(pairs, (brackets @ proj)._rows())), labels), proj

    def change_basis(self, p: Matrix) -> "LieAlgebra":
        """Conjugate the table: row i of p is the i-th new basis vector."""
        if p.field != self.field:
            raise ValueError("field mismatch")
        if p.shape != (self.dim, self.dim):
            raise ValueError("basis change must be square of matching size")
        pinv = invert(p)  # raises on singular input
        n = self.dim
        pairs = [(i, j) for j in range(n) for i in range(j)]
        # [p_i, p_j] for i < j: row i of p[:j] @ ad(p_j)
        rows = p._rows()
        old = [r for j, m in enumerate(self._ads(p)) for r in (Matrix._from_rows(self.field, rows[:j], n) @ m)._rows()]
        new = Matrix._from_rows(self.field, old, n) @ pinv
        return LieAlgebra._from_rows(self.field, n, dict(zip(pairs, new._rows())))


@dataclass(frozen=True)
class SeriesReport:
    lower_central: tuple[Subspace, ...]
    derived_series: tuple[Subspace, ...]
    center: Subspace
    nilpotency_class: int | None  # None marks a non-nilpotent algebra

    @property
    def is_nilpotent(self) -> bool:
        return self.nilpotency_class is not None

    @property
    def derived(self) -> Subspace:
        """L^2; a perfect L keeps only L in lower_central, and L^2 = L."""
        return self.lower_central[min(1, len(self.lower_central) - 1)]

    @property
    def derived_dim(self) -> int:
        return self.derived.dim

    def lower_central_dims(self) -> tuple[int, ...]:
        return tuple(s.dim for s in self.lower_central)

    def derived_series_dims(self) -> tuple[int, ...]:
        return tuple(s.dim for s in self.derived_series)


def direct_sum(a: LieAlgebra, b: LieAlgebra) -> LieAlgebra:
    """Block direct sum; summands keep their brackets and do not interact."""
    if a.field != b.field:
        raise ValueError("direct sum requires a common field")
    table = {pair: (ints + [0] * b.dim, den) for pair, (ints, den) in a._table.items()}
    for (i, j), (ints, den) in b._table.items():
        table[(a.dim + i, a.dim + j)] = ([0] * a.dim + ints, den)
    return LieAlgebra._from_rows(a.field, a.dim + b.dim, table)


def reduce_mod_p(L: LieAlgebra, p: int) -> LieAlgebra:
    """Reduce a rational structure table mod p.

    Requires every coefficient denominator to be a unit mod p.  The result
    satisfies Jacobi automatically (residuals reduce to zero), but series
    dimensions can differ from the rational ones when coefficients vanish
    mod p; callers interpret the reduction in its own field.
    """
    if L.field.is_prime_field:
        raise ValueError("algebra is already over a prime field")
    source = L.field
    for ints, den in L._table.values():
        if den % p == 0:  # den is the lcm of the denominators, and p is prime
            bad = next(x for x in source.decode(ints, den) if source.ratio(x)[1] % p == 0)
            raise ValueError(f"coefficient {bad} has denominator divisible by {p}")
    return LieAlgebra._from_rows(FieldSpec(p), L.dim, L._table, L.labels)
