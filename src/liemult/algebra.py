"""Lie algebras given by structure constant tables.

A :class:`LieAlgebra` is a basis x_0, ..., x_{n-1} (0-based internally;
documents and printed output use 1-based indices) together with the
coefficient vectors of [x_i, x_j] for i < j.  Antisymmetry is structural:
[x_j, x_i] is -[x_i, x_j] by definition and [x_i, x_i] = 0.  The Jacobi
identity is *checked*, not assumed; :meth:`LieAlgebra.validate` returns
the list of violating triples, empty exactly when the table is a Lie
algebra.  The residuals are the nonzero rows of d2·d1 in the cochain
complex (:func:`liemult.cohomology.jacobi_residuals`), the identity
that :func:`~liemult.cohomology.cochain_complex` requires before it
builds a spanning set of the rows of d2: C(k,3) + d·z rows, where
z = dim Z(L), k = n - z and d = dim L^2.

Brackets are read off one n x n² matrix built with the algebra from the
table's integer codec form: row j of this adjoint matrix is ad(x_j) written
row by row, so its block i is [x_i, x_j].
:meth:`LieAlgebra.structure_vector` (i, j) decodes block i of row j, and
ad(v) for any set of vectors v is one product of their rows with the
matrix: ``bracket(u, v)`` is ``u @ ad(v)``, a lower central step L^{k+1}
spans the rows of ad(u) over a basis of L^k, ``change_basis`` takes all n
ad(p_j) from one product, and Z(L) is the :func:`annihilator` of the
matrix.  L^2 is the span of the table's vectors, the rows of d1 up to
sign, read as the matrix's blocks at the table's pairs; the d2 rows in
:mod:`liemult.cohomology` are assembled from the table's entries.  All of
these stay integer rows; field scalars are made only for the tables of
the algebras that ``quotient`` and ``change_basis`` return.

Characteristic subspaces (derived subalgebra, lower central series,
center) are returned as :class:`~liemult.linalg.Subspace` values in the
coordinates of the given basis.  An algebra and its table are read-only,
so :meth:`LieAlgebra.series` and :meth:`LieAlgebra.validate` are each
computed once per algebra, and L^2 and Z(L) are read from the series.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm
from types import MappingProxyType
from typing import Mapping, NamedTuple, Sequence

from .fields import FieldSpec
from .linalg import Matrix, Subspace, annihilator, invert, rref


class JacobiViolation(NamedTuple):
    i: int
    j: int
    k: int
    residual: tuple


class LieAlgebra:
    __slots__ = ("field", "dim", "table", "labels", "_adjoint", "_series", "_violations")

    def __init__(
        self,
        field: FieldSpec,
        dim: int,
        brackets: Mapping[tuple[int, int], Sequence] = MappingProxyType({}),
        labels: Sequence[str] | None = None,
    ):
        if dim < 0:
            raise ValueError("negative dimension")
        table: dict[tuple[int, int], tuple] = {}
        for (i, j), coeffs in brackets.items():
            if not (0 <= i < j < dim):
                raise ValueError(f"bad bracket pair ({i}, {j}) for dimension {dim}")
            # tuple() of a list, not of a generator: a generator's tuple is
            # resized and freed onto the free list of its final size, which
            # fills with up to 2,000 blocks that only a full collection empties
            vec = tuple([field.of(x) for x in coeffs])
            if len(vec) != dim:
                raise ValueError(f"bracket ({i}, {j}) has {len(vec)} coefficients, need {dim}")
            if any(vec):
                table[(i, j)] = vec
        if labels is not None:
            labels = tuple(labels)
            if len(labels) != dim:
                raise ValueError("labels length must equal dim")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "table", MappingProxyType(dict(sorted(table.items()))))
        object.__setattr__(self, "labels", labels or tuple([f"x{i+1}" for i in range(dim)]))
        object.__setattr__(self, "_series", None)
        object.__setattr__(self, "_violations", None)
        # row j is ad(x_j) read row by row: its block i is [x_i, x_j], over the
        # lcm of the denominators of its blocks
        blocks: list[list] = [[] for _ in range(dim)]
        for (i, j), vec in table.items():
            ints, den = field.encode(vec)
            blocks[j].append((i, ints, den))
            blocks[i].append((j, [-x for x in ints], den))
        rows = []
        for row_blocks in blocks:
            den = lcm(*[d for _, _, d in row_blocks])
            row = [0] * (dim * dim)
            for i, ints, d in row_blocks:
                row[i * dim:(i + 1) * dim] = ints if d == den else [x * (den // d) for x in ints]
            rows.append((row, den))
        object.__setattr__(self, "_adjoint", Matrix._from_rows(field, rows, dim * dim))

    def __setattr__(self, name, value):
        raise AttributeError("LieAlgebra is immutable")

    # -- basic bracket machinery -------------------------------------------

    def structure_vector(self, i: int, j: int) -> tuple:
        """[x_i, x_j] for 0 <= i, j < dim: block i of row j of the adjoint matrix, decoded."""
        n = self.dim
        if not (0 <= i < n and 0 <= j < n):
            raise IndexError(f"basis index out of range for dim {n}: ({i}, {j})")
        flat, dens = self._adjoint._flat, self._adjoint._dens
        start = j * n * n + i * n
        return tuple(self.field.decode(flat[start:start + n], dens[j]))

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
        return not self.table

    def validate(self) -> list[JacobiViolation]:
        """Jacobi residuals, the nonzero rows of d2·d1; computed once and kept."""
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
        blocks = self._adjoint._rows(n)  # L^2 spans the table vectors: [x_i, x_j] is block i of row j
        nxt = rref(Matrix._from_rows(field, [blocks[j * n + i] for i, j in self.table], n))
        while nxt.dim < lower[-1].dim:  # a series that stabilizes above zero is not nilpotent
            lower.append(nxt)
            if nxt.dim == 0:
                break
            # [L, L^k] is spanned by the rows of ad(u) over a basis of L^k
            nxt = rref(Matrix._from_rows(field, (nxt.basis @ self._adjoint)._rows(n), n))
        nilpotent = lower[-1].dim == 0 or self.dim == 0
        cls = len(lower) - 1 if nilpotent else None
        derived = list(lower[:2])  # L and L^2; a perfect L stops at L
        while len(derived) > 1 and derived[-1].dim:
            nxt = self.bracket_span(derived[-1], derived[-1])
            if nxt.dim == derived[-1].dim:
                break
            derived.append(nxt)
        center = annihilator(self._adjoint)  # x with ad(x) = 0
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
        blocks = self._adjoint._rows(n)  # [x_a, x_b] is block a of row b
        brackets = Matrix._from_rows(self.field, [blocks[keep[b] * n + keep[a]] for a, b in pairs], n)
        table = dict(zip(pairs, (brackets @ proj).data))
        labels = tuple([self.labels[j] for j in keep])
        return LieAlgebra(self.field, q, table, labels), proj

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
        return LieAlgebra(self.field, n, dict(zip(pairs, new.data)))


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
    n = a.dim + b.dim
    zero = a.field.zero
    table = {}
    for (i, j), vec in a.table.items():
        table[(i, j)] = tuple(vec) + (zero,) * b.dim
    for (i, j), vec in b.table.items():
        table[(a.dim + i, a.dim + j)] = (zero,) * a.dim + tuple(vec)
    return LieAlgebra(a.field, n, table)


def reduce_mod_p(L: LieAlgebra, p: int) -> LieAlgebra:
    """Reduce a rational structure table mod p.

    Requires every coefficient denominator to be a unit mod p.  The result
    satisfies Jacobi automatically (residuals reduce to zero), but series
    dimensions can differ from the rational ones when coefficients vanish
    mod p; callers interpret the reduction in its own field.
    """
    if L.field.is_prime_field:
        raise ValueError("algebra is already over a prime field")
    source, target = L.field, FieldSpec(p)
    table = {}
    for key, vec in L.table.items():
        ints, den = source.encode(vec)
        if den % p == 0:  # den is the lcm of the denominators, and p is prime
            bad = next(x for x in vec if source.ratio(x)[1] % p == 0)
            raise ValueError(f"coefficient {bad} has denominator divisible by {p}")
        table[key] = target.decode(ints, den)
    return LieAlgebra(target, L.dim, table, L.labels)
