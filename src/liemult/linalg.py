"""Dense exact linear algebra over Q and GF(p).

Conventions used throughout the package:

* vectors are rows, and a matrix acts on the right of a row vector;
* ``kernel(m)`` is the right null space ``{x : m @ x^T = 0}``, returned
  with solution vectors as rows;
* a :class:`Subspace` stores its basis in reduced row echelon form, which
  makes the representation canonical (equal subspaces compare equal).

Everything is exact.  Rational elimination runs on ``Fraction`` entries;
prime-field elimination round-trips through an int64 numpy array reduced
mod p (integers only, values stay below p^2, so no overflow and no
floating point).
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .fields import FieldSpec


class Matrix:
    """Immutable dense matrix over one FieldSpec."""

    __slots__ = ("field", "rows", "cols", "data")

    def __init__(self, field: FieldSpec, data: Iterable[Iterable], cols: int | None = None):
        grid = tuple(tuple(field.of(x) for x in row) for row in data)
        if grid:
            width = len(grid[0])
            if any(len(r) != width for r in grid):
                raise ValueError("ragged matrix rows")
            if cols is not None and cols != width:
                raise ValueError(f"expected {cols} columns, got {width}")
        else:
            width = 0 if cols is None else cols
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "rows", len(grid))
        object.__setattr__(self, "cols", width)
        object.__setattr__(self, "data", grid)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    @classmethod
    def identity(cls, field: FieldSpec, n: int) -> "Matrix":
        one, zero = field.one, field.zero
        return cls(field, [[one if i == j else zero for j in range(n)] for i in range(n)], cols=n)

    @classmethod
    def zeros(cls, field: FieldSpec, rows: int, cols: int) -> "Matrix":
        zero = field.zero
        return cls(field, [[zero] * cols for _ in range(rows)], cols=cols)

    @classmethod
    def stack(cls, mats: Sequence["Matrix"]) -> "Matrix":
        if not mats:
            raise ValueError("nothing to stack")
        field, cols = mats[0].field, mats[0].cols
        if any(m.field != field or m.cols != cols for m in mats):
            raise ValueError("stack requires equal fields and column counts")
        rows = [row for m in mats for row in m.data]
        return cls(field, rows, cols=cols)

    def row(self, i: int) -> tuple:
        return self.data[i]

    def transpose(self) -> "Matrix":
        if self.rows == 0:
            return Matrix(self.field, [[] for _ in range(self.cols)], cols=0)
        return Matrix(self.field, zip(*self.data), cols=self.rows)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.field != other.field:
            raise ValueError("field mismatch in matrix product")
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: {self.shape} @ {other.shape}")
        zero = self.field.zero
        cols_other = list(zip(*other.data)) if other.rows else []
        out = []
        for r in self.data:
            if cols_other:
                out.append([_dot(r, c, zero) for c in cols_other])
            else:
                out.append([zero] * other.cols)
        return Matrix(self.field, out, cols=other.cols)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def is_zero(self) -> bool:
        return not any(any(row) for row in self.data)

    def neg(self) -> "Matrix":
        return Matrix(self.field, [[-x for x in row] for row in self.data], cols=self.cols)

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and self.shape == other.shape
            and self.data == other.data
        )

    def __hash__(self):
        return hash((self.field, self.shape, self.data))

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in row) for row in self.data)
        return f"Matrix({self.field}, {self.rows}x{self.cols}: {body})"


def _dot(u, v, zero):
    acc = zero
    for a, b in zip(u, v):
        if a and b:
            acc = acc + a * b
    return acc


def _rref_rational(grid: list[list], cols: int) -> tuple[list[list], list[int]]:
    pivots: list[int] = []
    r = 0
    nrows = len(grid)
    for c in range(cols):
        if r == nrows:
            break
        pr = next((i for i in range(r, nrows) if grid[i][c]), None)
        if pr is None:
            continue
        if pr != r:
            grid[r], grid[pr] = grid[pr], grid[r]
        piv = grid[r][c]
        if piv != 1:
            grid[r] = [x / piv for x in grid[r]]
        prow = grid[r]
        for i in range(nrows):
            if i == r:
                continue
            f = grid[i][c]
            if f:
                grid[i] = [x - f * y for x, y in zip(grid[i], prow)]
        pivots.append(c)
        r += 1
    return grid, pivots


def _rref_prime(grid: list[list], cols: int, p: int) -> tuple[list[list], list[int]]:
    from .fields import Fp

    a = np.array([[x.val for x in row] for row in grid], dtype=np.int64)
    pivots: list[int] = []
    r = 0
    nrows = a.shape[0]
    for c in range(cols):
        if r == nrows:
            break
        nz = np.flatnonzero(a[r:, c])
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            a[[r, pr]] = a[[pr, r]]
        piv = int(a[r, c])
        if piv != 1:
            a[r] = a[r] * pow(piv, -1, p) % p
        col = a[:, c].copy()
        col[r] = 0
        other = np.flatnonzero(col)
        if other.size:
            a[other] = (a[other] - np.outer(col[other], a[r])) % p
        pivots.append(c)
        r += 1
    out = [[Fp(int(v), p) for v in row] for row in a]
    return out, pivots


def rref(m: Matrix) -> tuple[Matrix, int]:
    """Reduced row echelon form and rank.  Shape is preserved."""
    if m.rows == 0 or m.cols == 0:
        return m, 0
    grid = [list(row) for row in m.data]
    if m.field.is_prime_field:
        grid, pivots = _rref_prime(grid, m.cols, m.field.p)
    else:
        grid, pivots = _rref_rational(grid, m.cols)
    return Matrix(m.field, grid, cols=m.cols), len(pivots)


def pivot_columns(reduced: Matrix) -> tuple[int, ...]:
    """Pivot column indices of a matrix already in RREF."""
    pivots = []
    for row in reduced.data:
        for j, x in enumerate(row):
            if x:
                pivots.append(j)
                break
    return tuple(pivots)


def kernel(m: Matrix) -> "Subspace":
    """Right null space {x : m @ x^T = 0} as a Subspace of F^cols."""
    reduced, rank = rref(m)
    n = m.cols
    pivots = pivot_columns(reduced)
    pivot_set = set(pivots)
    free = [j for j in range(n) if j not in pivot_set]
    zero, one = m.field.zero, m.field.one
    vecs = []
    for f in free:
        v = [zero] * n
        v[f] = one
        for r, c in enumerate(pivots):
            v[c] = -reduced.data[r][f]
        vecs.append(v)
    return Subspace.span(m.field, n, vecs)


def invert(m: Matrix) -> Matrix:
    """Inverse of a square matrix; raises ValueError when singular."""
    if m.rows != m.cols:
        raise ValueError("only square matrices can be inverted")
    n = m.rows
    if n == 0:
        return m
    eye = Matrix.identity(m.field, n)
    aug = Matrix(m.field, [list(r) + list(e) for r, e in zip(m.data, eye.data)], cols=2 * n)
    reduced, _ = rref(aug)
    if pivot_columns(reduced)[:n] != tuple(range(n)):
        raise ValueError("singular matrix")
    return Matrix(m.field, [row[n:] for row in reduced.data], cols=n)


class Subspace:
    """A subspace of F^ambient with a canonical (RREF) basis."""

    __slots__ = ("field", "ambient", "basis", "pivots")

    def __init__(self, field: FieldSpec, ambient: int, basis: Matrix, pivots: tuple[int, ...]):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "pivots", pivots)

    def __setattr__(self, name, value):
        raise AttributeError("Subspace is immutable")

    @classmethod
    def span(cls, field: FieldSpec, ambient: int, vectors: Iterable[Iterable]) -> "Subspace":
        m = Matrix(field, vectors, cols=ambient)
        if m.cols != ambient:
            raise ValueError(f"vectors of length {m.cols} in ambient dimension {ambient}")
        reduced, rank = rref(m)
        basis = Matrix(field, reduced.data[:rank], cols=ambient)
        return cls(field, ambient, basis, pivot_columns(basis))

    @classmethod
    def zero(cls, field: FieldSpec, ambient: int) -> "Subspace":
        return cls.span(field, ambient, [])

    @classmethod
    def full(cls, field: FieldSpec, ambient: int) -> "Subspace":
        return cls.span(field, ambient, Matrix.identity(field, ambient).data)

    @property
    def dim(self) -> int:
        return self.basis.rows

    def basis_rows(self) -> tuple[tuple, ...]:
        return self.basis.data

    def reduce(self, vec: Sequence) -> list:
        """Residual of vec after subtracting its projection onto the basis."""
        v = [self.field.of(x) for x in vec]
        if len(v) != self.ambient:
            raise ValueError("ambient dimension mismatch")
        for row, pc in zip(self.basis.data, self.pivots):
            f = v[pc]
            if f:
                v = [a - f * b for a, b in zip(v, row)]
        return v

    def contains(self, vec: Sequence) -> bool:
        return not any(self.reduce(vec))

    def contains_subspace(self, other: "Subspace") -> bool:
        self._check_compatible(other)
        return all(self.contains(r) for r in other.basis.data)

    def sum(self, other: "Subspace") -> "Subspace":
        self._check_compatible(other)
        return Subspace.span(self.field, self.ambient, self.basis.data + other.basis.data)

    def intersect(self, other: "Subspace") -> "Subspace":
        """Kernel-of-stacked-bases intersection.

        (a, b) with a@U - b@V = 0 range over the left kernel of the stack
        [U; -V]; each such a@U is an intersection vector.
        """
        self._check_compatible(other)
        if self.dim == 0 or other.dim == 0:
            return Subspace.zero(self.field, self.ambient)
        stacked = Matrix.stack([self.basis, other.basis.neg()])
        coeffs = kernel(stacked.transpose())
        vecs = []
        zero = self.field.zero
        for c in coeffs.basis.data:
            a = c[: self.dim]
            vec = [zero] * self.ambient
            for coef, row in zip(a, self.basis.data):
                if coef:
                    vec = [x + coef * y for x, y in zip(vec, row)]
            vecs.append(vec)
        return Subspace.span(self.field, self.ambient, vecs)

    def _check_compatible(self, other: "Subspace"):
        if self.field != other.field:
            raise ValueError("field mismatch")
        if self.ambient != other.ambient:
            raise ValueError(
                f"ambient dimension mismatch: {self.ambient} vs {other.ambient}"
            )

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.field == other.field
            and self.ambient == other.ambient
            and self.basis == other.basis
        )

    def __hash__(self):
        return hash((self.field, self.ambient, self.basis))

    def __repr__(self):
        return f"Subspace(dim {self.dim} of F^{self.ambient})"


def random_invertible(field: FieldSpec, n: int, rng) -> Matrix:
    """Seeded random invertible matrix built from elementary operations.

    A product of shear operations and a row permutation, so it is
    invertible by construction and keeps entries small.
    """
    rows = [list(r) for r in Matrix.identity(field, n).data]
    if n > 1:
        for _ in range(3 * n):
            i = rng.randrange(n)
            j = rng.randrange(n)
            if i == j:
                continue
            if field.is_prime_field:
                s = field.of(rng.randrange(1, field.p))
            else:
                s = field.of(rng.choice((-2, -1, 1, 2)))
            rows[i] = [a + s * b for a, b in zip(rows[i], rows[j])]
        rng.shuffle(rows)
    return Matrix(field, rows, cols=n)
