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
builds d2.

Brackets of coordinate vectors come from :meth:`LieAlgebra.ad`, the n x n
matrix of x ↦ [x, v] built in one pass over the table: ``bracket(u, v)``
is ``u @ ad(v)`` and ``change_basis`` takes the new brackets from n products
``P @ ad(p_j)``.  Brackets of basis vectors are read off the table directly,
with no multiply-add: ``series`` reads the n maps ``ad(x_j)`` off it
(row i is :meth:`LieAlgebra.structure_vector` (i, j)), L^{k+1} spans
``L^k.basis @ ad(x_j)`` and Z(L) is their :func:`annihilator`; L^2 is the
span of the table's own vectors, the rows of d1 up to sign; and the d2 rows
in :mod:`liemult.cohomology` are assembled from the table's entries.

Characteristic subspaces (derived subalgebra, lower central series,
center) are returned as :class:`~liemult.linalg.Subspace` values in the
coordinates of the given basis.  An algebra and its table are read-only,
so :meth:`LieAlgebra.series` and :meth:`LieAlgebra.validate` are each
computed once per algebra, and L^2 and Z(L) are read from the series.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping, NamedTuple, Sequence

from .fields import FieldSpec
from .linalg import Matrix, Subspace, annihilator, invert


class JacobiViolation(NamedTuple):
    i: int
    j: int
    k: int
    residual: tuple


class LieAlgebra:
    __slots__ = ("field", "dim", "table", "labels", "_series", "_violations")

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
            vec = tuple(field.of(x) for x in coeffs)
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
        object.__setattr__(self, "labels", labels or tuple(f"x{i+1}" for i in range(dim)))
        object.__setattr__(self, "_series", None)
        object.__setattr__(self, "_violations", None)

    def __setattr__(self, name, value):
        raise AttributeError("LieAlgebra is immutable")

    # -- basic bracket machinery -------------------------------------------

    def structure_vector(self, i: int, j: int) -> tuple:
        """[x_i, x_j] for any i, j, with antisymmetry applied."""
        if i == j:
            return (self.field.zero,) * self.dim
        if i < j:
            vec = self.table.get((i, j))
            if vec is None:
                return (self.field.zero,) * self.dim
            return vec
        vec = self.table.get((j, i))
        if vec is None:
            return (self.field.zero,) * self.dim
        return tuple(-x for x in vec)

    def ad(self, v: Sequence) -> Matrix:
        """The n x n matrix of x ↦ [x, v]: row i is [x_i, v]."""
        n = self.dim
        if len(v) != n:
            raise ValueError(f"vector has {len(v)} coordinates, need {n}")
        v = [self.field.of(x) for x in v]
        rows = [[self.field.zero] * n for _ in range(n)]
        for (i, j), vec in self.table.items():
            for r, c in ((i, v[j]), (j, -v[i])):
                if c:
                    rows[r] = [a + c * b for a, b in zip(rows[r], vec)]
        return Matrix(self.field, rows, cols=n)

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
        vecs = [r for b in v.basis.data for r in (u.basis @ self.ad(b)).data]
        return Subspace.span(self.field, self.dim, vecs)

    def derived_subalgebra(self) -> Subspace:
        """L^2, read from the series (L itself when L is perfect or zero)."""
        return self.series().derived

    def series(self) -> "SeriesReport":
        """Lower central series, derived series, center, nilpotency class.

        Computed on the first call and kept: the algebra cannot change.
        """
        if self._series is not None:
            return self._series
        n = self.dim
        # ad(x_j), read off the table: row i is [x_i, x_j]
        maps = [Matrix(self.field, [self.structure_vector(i, j) for i in range(n)], cols=n) for j in range(n)]
        lower = [Subspace.full(self.field, self.dim)]
        nxt = Subspace.span(self.field, self.dim, self.table.values())  # L^2
        while nxt.dim < lower[-1].dim:  # a series that stabilizes above zero is not nilpotent
            lower.append(nxt)
            if nxt.dim == 0:
                break
            nxt = Subspace.span(self.field, self.dim, [r for m in maps for r in (nxt.basis @ m).data])
        nilpotent = lower[-1].dim == 0 or self.dim == 0
        cls = len(lower) - 1 if nilpotent else None
        derived = list(lower[:2])  # L and L^2; a perfect L stops at L
        while len(derived) > 1 and derived[-1].dim:
            nxt = self.bracket_span(derived[-1], derived[-1])
            if nxt.dim == derived[-1].dim:
                break
            derived.append(nxt)
        center = annihilator(self.field, self.dim, [m.data for m in maps])
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
        keep = [j for j in range(self.dim) if j not in ideal.pivots]
        q = len(keep)
        proj = Matrix(self.field, ideal.quotient_map(), cols=q)
        if not (self.bracket_span(Subspace.full(self.field, self.dim), ideal).basis @ proj).is_zero():
            raise ValueError("subspace is not an ideal")  # [L, I] has a nonzero image in L/I
        pairs = [(a, b) for b in range(q) for a in range(b)]
        brackets = Matrix(self.field, [self.structure_vector(keep[a], keep[b]) for a, b in pairs], cols=self.dim)
        table = dict(zip(pairs, (brackets @ proj).data))
        labels = tuple(self.labels[j] for j in keep)
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
        old = []  # [p_i, p_j] for i < j: row i of p[:j] @ ad(p_j)
        for j in range(n):
            old.extend((Matrix(self.field, p.data[:j], cols=n) @ self.ad(p.data[j])).data)
        new = Matrix(self.field, old, cols=n) @ pinv
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
