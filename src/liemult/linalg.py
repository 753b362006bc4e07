"""Dense exact linear algebra over Q and GF(p).

Conventions used throughout the package:

* vectors are rows, and a matrix acts on the right of a row vector;
* ``kernel(m)`` is the right null space ``{x : m @ x^T = 0}``, returned
  with solution vectors as rows;
* a :class:`Subspace` stores its basis in reduced row echelon form, which
  makes the representation canonical (equal subspaces compare equal);
* a :class:`Matrix` stores scalars of its field as given and checks only its
  shape: values are coerced where they enter the package, so ``FieldSpec.of``
  runs here only in :func:`random_invertible`.

Everything is exact.  Elimination and products run on Python ints through
the field's integer codec, :meth:`~liemult.fields.FieldSpec.encode` and
:meth:`~liemult.fields.FieldSpec.decode`; ``encode`` raises ``TypeError`` on
an entry of another field.  ``rref`` returns the row space of its matrix as a
:class:`Subspace`: the nonzero rows of the reduced form and their pivot
columns, which every caller reads instead of rescanning the rows.  Both
fields share one elimination loop: fraction-free Gauss-Jordan on Python
ints (Bareiss, Math. Comp. 1968), with gcd-reduced multipliers in place of
Bareiss's exact division.  Only the normaliser depends on the field: a
rational row is kept primitive (divided by the gcd of its entries), a GF(p)
row is reduced mod p after each update.  Field scalars are created only by
the final division of each pivot row by its pivot.  A product ``a @ b``
encodes b once, flattened over one denominator, and each row of a once; it
sums each entry on ints over b's nonzero columns only, and its field scalars
are made only by decoding each output row over the product of the two
denominators.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from operator import mul
from typing import Callable, Iterable

from .fields import FieldSpec


@dataclass(frozen=True, slots=True)
class Matrix:
    """Immutable dense matrix of scalars of one FieldSpec, stored as given; only the shape is checked."""

    field: FieldSpec
    data: Iterable[Iterable]
    cols: int | None = None

    def __post_init__(self):
        grid = tuple(map(tuple, self.data))
        width = len(grid[0]) if grid else self.cols or 0
        if any(len(r) != width for r in grid):
            raise ValueError("ragged matrix rows")
        if self.cols is not None and self.cols != width:
            raise ValueError(f"expected {self.cols} columns, got {width}")
        object.__setattr__(self, "data", grid)
        object.__setattr__(self, "cols", width)

    @classmethod
    def identity(cls, field: FieldSpec, n: int) -> "Matrix":
        one, zero = field.one, field.zero
        return cls(field, [[one if i == j else zero for j in range(n)] for i in range(n)], cols=n)

    def transpose(self) -> "Matrix":
        if self.rows == 0:
            return Matrix(self.field, [[] for _ in range(self.cols)], cols=0)
        return Matrix(self.field, zip(*self.data), cols=self.rows)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        """The product on Python ints over other's nonzero columns (see the module docstring)."""
        if self.field != other.field:
            raise ValueError("field mismatch in matrix product")
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: {self.shape} @ {other.shape}")
        field, width = self.field, other.cols
        flat, den = field.encode([x for row in other.data for x in row])
        columns = [(j, col) for j in range(width) if any(col := flat[j::width])]
        out = []
        for row in self.data:
            ints, d = field.encode(row)
            acc = [0] * width
            for j, col in columns:
                acc[j] = sum(map(mul, ints, col))
            out.append(field.decode(acc, d * den))
        return Matrix(field, out, cols=width)

    @property
    def rows(self) -> int:
        return len(self.data)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def is_zero(self) -> bool:
        return not any(any(row) for row in self.data)

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in row) for row in self.data)
        return f"Matrix({self.field}, {self.rows}x{self.cols}: {body})"


def _gauss_jordan(rows: list[list[int]], cols: int, normalise: Callable[[list], list]) -> list[int]:
    """Fraction-free Gauss-Jordan on integer rows, in place; returns the pivot columns.

    Row i is cleared at a pivot column by ``a·row_i − f·row_pivot`` with
    ``a`` and ``f`` first divided by ``gcd(piv, f)``, then passed through
    ``normalise``.  ``a`` divides the pivot, a nonzero integer or a residue
    in [1, p), so it is a unit of the field, and each row stays a nonzero
    multiple of the row that elimination on field entries would hold: the
    same pivots are chosen, and dividing each pivot row by its pivot gives
    the canonical RREF.
    """
    pivots: list[int] = []
    r = 0
    nrows = len(rows)
    for c in range(cols):
        if r == nrows:
            break
        pr = next((i for i in range(r, nrows) if rows[i][c]), None)
        if pr is None:
            continue
        if pr != r:
            rows[r], rows[pr] = rows[pr], rows[r]
        prow = rows[r]
        piv = prow[c]
        for i in range(nrows):
            f = rows[i][c]
            if f and i != r:
                g = gcd(piv, f)
                a, f = piv // g, f // g
                rows[i] = normalise([a * x - f * y for x, y in zip(rows[i], prow)])
        pivots.append(c)
        r += 1
    return pivots


def _primitive(row: list[int]) -> list[int]:
    """The row divided by the gcd of its entries."""
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


def rref(m: Matrix) -> "Subspace":
    """The row space of m: its reduced row echelon basis and pivot columns.

    The basis holds the pivot rows only, so the rank is ``rref(m).dim``.
    """
    field, p = m.field, m.field.p
    rows = [field.encode(row)[0] for row in m.data]
    if p is None:  # the normaliser; encoded GF(p) rows are residues already
        normalise = _primitive
        rows = [_primitive(row) for row in rows]
    else:
        normalise = lambda row: [x % p for x in row]
    pivots = _gauss_jordan(rows, m.cols, normalise)
    grid = [field.decode(row, row[c]) for row, c in zip(rows, pivots)]
    return Subspace(Matrix(field, grid, cols=m.cols), tuple(pivots))


def kernel(m: Matrix) -> "Subspace":
    """Right null space {x : m @ x^T = 0}: the columns of the row space's quotient map."""
    return Subspace.span(m.field, m.cols, zip(*rref(m).quotient_map()))


def annihilator(m: Matrix) -> "Subspace":
    """{x : x @ m = 0}: the kernel of m's nonzero columns."""
    return kernel(Matrix(m.field, [col for col in zip(*m.data) if any(col)], cols=m.rows))


def invert(m: Matrix) -> Matrix:
    """Inverse of a square matrix; raises ValueError when singular."""
    if m.rows != m.cols:
        raise ValueError("only square matrices can be inverted")
    n = m.rows
    if n == 0:
        return m
    eye = Matrix.identity(m.field, n)
    aug = Matrix(m.field, [list(r) + list(e) for r, e in zip(m.data, eye.data)], cols=2 * n)
    rowspace = rref(aug)
    if rowspace.pivots[:n] != tuple(range(n)):
        raise ValueError("singular matrix")
    return Matrix(m.field, [row[n:] for row in rowspace.basis.data], cols=n)


@dataclass(frozen=True, slots=True)
class Subspace:
    """A subspace of F^ambient with a canonical (RREF) basis and its pivot columns."""

    basis: Matrix
    pivots: tuple[int, ...]

    @property
    def field(self) -> FieldSpec:
        return self.basis.field

    @property
    def ambient(self) -> int:
        return self.basis.cols

    @classmethod
    def span(cls, field: FieldSpec, ambient: int, vectors: Iterable[Iterable]) -> "Subspace":
        return rref(Matrix(field, vectors, cols=ambient))

    @classmethod
    def full(cls, field: FieldSpec, ambient: int) -> "Subspace":
        return cls.span(field, ambient, Matrix.identity(field, ambient).data)

    @property
    def dim(self) -> int:
        return self.basis.rows

    def quotient_map(self) -> list[list]:
        """The projection F^n -> F^n/U, as n rows in the free (non-pivot) coordinates.

        Row i is e_i's image: a unit vector when column i is free, and minus
        the free part of its basis row when i is a pivot, as that row is e_i
        plus its free part.  The kernel is exactly U: ``v @ map`` is v minus
        the basis rows scaled by v's pivot entries, read on the free columns.
        """
        pivot_row = dict(zip(self.pivots, self.basis.data))
        free = [c for c in range(self.ambient) if c not in pivot_row]
        zero, one = self.field.zero, self.field.one
        return [
            [-pivot_row[i][f] for f in free] if i in pivot_row else [one if f == i else zero for f in free]
            for i in range(self.ambient)
        ]

    def contains_subspace(self, other: "Subspace") -> bool:
        """Whether other lies in self: other's basis times the quotient map is zero.

        The product raises ValueError on a field or ambient mismatch.
        """
        return (other.basis @ Matrix(self.field, self.quotient_map(), cols=self.ambient - self.dim)).is_zero()

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
