"""Dense exact linear algebra over Q and GF(p).

Conventions used throughout the package:

* vectors are rows, and a matrix acts on the right of a row vector;
* ``kernel(m)`` is the right null space ``{x : m @ x^T = 0}``, returned
  with solution vectors as rows;
* a :class:`Subspace` stores its basis in reduced row echelon form, which
  makes the representation canonical (equal subspaces compare equal).

A :class:`Matrix` holds the field codec's form of its rows and nothing
else: one flat row-major list of Python ints and one denominator per row,
each row kept canonical by :meth:`~liemult.fields.FieldSpec.canonical`
(lowest terms with a positive denominator over Q, residues in [0, p) over 1
over GF(p)).  Equality and hashing compare these integers.
``Matrix(field, data, cols)`` checks the shape of its rows of scalars and
encodes them with :meth:`~liemult.fields.FieldSpec.encode`, which raises
``TypeError`` on an entry of another field; ``Matrix._from_rows`` stores
integer rows, and ``_rows``, ``_flat`` and ``_dens`` read them back: that is
the integer interface inside the package.  ``data`` decodes the rows into
field scalars on each read and keeps nothing.  Every operation here, d2, and
the matrices that ``alternating`` lays out (the adjoint and pairing matrices)
read and build the integer form, so no field scalar is made between them.
``rref``, the quotient map, ``identity``, ``alternating``, ``annihilator``'s
columns and d2's rows are canonical by construction (each docstring says
why) and pass a ``_Codec`` to the same constructor; ``canonical`` runs only
on other rows: through ``_from_rows`` for products, ``transpose``,
``invert`` and rows read off a product, and on d2's wedges.

Everything is exact.  ``rref`` returns the row space of its matrix as a
:class:`Subspace`: the nonzero rows of the reduced form and their pivot
columns, which every caller reads instead of rescanning the rows.  Both
fields share one elimination loop: fraction-free Gauss-Jordan on Python
ints (Bareiss, Math. Comp. 1968), with gcd-reduced multipliers in place of
Bareiss's exact division.  A row update touches only the columns where
the pivot row is nonzero, as those are all it can change.  Only the update
depends on the field.  Over GF(p) the pivot row is first scaled by the
inverse of its pivot, each other row loses f times it, reduced mod p, and
each pivot row is stored over 1.  Over Q a row is first scaled by its
multiplier ``a`` (when ``a`` is not 1), then loses f times the pivot row on
that support, and is kept primitive (divided by the gcd of its entries);
each pivot row is stored over its pivot.

A product ``a @ b`` reads b over one common denominator and sums each entry
on ints over b's nonzero columns only; each output row is stored over the
product of the two denominators.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm
from operator import mul
from typing import Iterable

from .fields import FieldSpec


class _Codec:
    """Canonical integer rows passed as a Matrix's data: row i is flat[i*cols:(i+1)*cols] / dens[i]."""

    __slots__ = ("flat", "dens")

    def __init__(self, flat: list[int], dens: list[int]):
        self.flat, self.dens = flat, dens


class Matrix:
    """Immutable dense matrix over one FieldSpec, held as canonical integer rows."""

    __slots__ = ("field", "cols", "rows", "_flat", "_dens")

    def __init__(self, field: FieldSpec, data: Iterable[Iterable], cols: int | None = None):
        if type(data) is _Codec:
            flat, dens = data.flat, data.dens
        else:
            grid = [tuple(row) for row in data]
            width = len(grid[0]) if grid else cols or 0
            if any(len(r) != width for r in grid):
                raise ValueError("ragged matrix rows")
            if cols is not None and cols != width:
                raise ValueError(f"expected {cols} columns, got {width}")
            cols = width
            flat, dens = [], []
            encode = field.encode
            for row in grid:
                ints, den = encode(row)
                flat += ints
                dens.append(den)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "rows", len(dens))
        object.__setattr__(self, "_flat", flat)
        object.__setattr__(self, "_dens", dens)

    @classmethod
    def _from_rows(cls, field: FieldSpec, rows: Iterable[tuple[list[int], int]], cols: int) -> "Matrix":
        """The matrix whose rows are ints / den for each (ints, den) in rows, stored canonically."""
        flat: list[int] = []
        dens: list[int] = []
        canonical = field.canonical
        for ints, den in rows:
            ints, den = canonical(ints, den)
            flat += ints
            dens.append(den)
        return cls(field, _Codec(flat, dens), cols)

    def _rows(self, width: int | None = None) -> list[tuple[list[int], int]]:
        """(ints, den) of each row in turn, or of each width-wide piece of each row."""
        flat, dens = self._flat, self._dens
        w = self.cols if width is None else width
        if not w:
            return [([], d) for d in dens]
        per = self.cols // w
        return [(flat[k * w:(k + 1) * w], dens[k // per]) for k in range(len(dens) * per)]

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    @property
    def data(self) -> tuple[tuple, ...]:
        """The entries as field scalars, decoded on each read."""
        c, decode = self.cols, self.field.decode
        return tuple([tuple(decode(self._flat[i * c:(i + 1) * c], d)) for i, d in enumerate(self._dens)])

    @classmethod
    def identity(cls, field: FieldSpec, n: int) -> "Matrix":
        """The n x n identity, built canonical: unit rows over 1."""
        return cls(field, _Codec([int(i == j) for i in range(n) for j in range(n)], [1] * n), n)

    def transpose(self) -> "Matrix":
        c = self.cols
        flat, den = _common(self._flat, self._dens, c)
        return Matrix._from_rows(self.field, [(flat[j::c], den) for j in range(c)], self.rows)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        """The product on Python ints over other's nonzero columns (see the module docstring)."""
        if self.field != other.field:
            raise ValueError("field mismatch in matrix product")
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: {self.shape} @ {other.shape}")
        c, width = self.cols, other.cols
        flat, den = _common(other._flat, other._dens, width)
        columns = [(j, col) for j in range(width) if any(col := flat[j::width])]
        left = self._flat
        rows = []
        for i, d in enumerate(self._dens):
            ints = left[i * c:(i + 1) * c]
            acc = [0] * width
            for j, col in columns:
                acc[j] = sum(map(mul, ints, col))
            rows.append((acc, d * den))
        return Matrix._from_rows(self.field, rows, width)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def is_zero(self) -> bool:
        return not any(self._flat)

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.field == other.field and self.shape == other.shape
                and self._flat == other._flat and self._dens == other._dens)

    def __hash__(self):
        return hash((self.field, self.rows, self.cols, tuple(self._flat), tuple(self._dens)))

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in row) for row in self.data)
        return f"Matrix({self.field}, {self.rows}x{self.cols}: {body})"


def _common(flat: list[int], dens: list[int], cols: int) -> tuple[list[int], int]:
    """The entries over one denominator: (ints, den) with entry k = ints[k] / den."""
    den = lcm(*dens)
    if all(d == den for d in dens):
        return flat, den
    out: list[int] = []
    for i, d in enumerate(dens):
        row = flat[i * cols:(i + 1) * cols]
        out += row if d == den else [x * (den // d) for x in row]
    return out, den


def _gauss_jordan(rows: list[list[int]], cols: int, p: int | None) -> list[int]:
    """Fraction-free Gauss-Jordan on integer rows, in place; returns the pivot columns.

    When column c gets its pivot at row r, rows r.. are zero in every column
    before c: each earlier column was either cleared as a pivot column or had
    no nonzero entry at or below r.  So the pivot row is zero before c, and
    clearing row i at c changes only the columns where the pivot row is
    nonzero.  Over GF(p) the pivot row is first scaled by its pivot's
    inverse, and each other row becomes ``row_i − f·row_pivot`` mod p on the
    pivot row's support.  Over Q row i becomes ``a·row_i − f·row_pivot``
    with ``a`` and ``f`` first divided by ``gcd(piv, f)``: scaled by ``a``,
    then cleared on the pivot row's support, then made primitive (divided
    by the gcd of its entries).  ``a`` divides the pivot, a nonzero integer,
    so each row stays a nonzero multiple of the row that elimination on
    field entries would hold: the same pivots are chosen, and dividing each
    pivot row by its pivot gives the canonical RREF (over GF(p) the pivots
    are 1 already).
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
        if p is not None and piv != 1:
            inv = pow(piv, -1, p)
            prow[c:] = [y * inv % p for y in prow[c:]]
        support = None  # built once the first row needs clearing
        for i in range(nrows):
            row = rows[i]
            f = row[c]
            if not f or i == r:
                continue
            if support is None:
                support = [(j, y) for j in range(c, cols) if (y := prow[j])]
            if p is not None:
                for j, y in support:
                    row[j] = (row[j] - f * y) % p
                continue
            g = gcd(piv, f)
            a, f = piv // g, f // g
            if a != 1:
                row = [a * x for x in row]
            for j, y in support:
                row[j] -= f * y
            rows[i] = _primitive(row)
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
    Only the row space is read, so the row denominators are dropped.  Each
    basis row is built canonical, as itself over its pivot entry: over
    GF(p) the pivot is 1 and every entry a residue, and over Q every row is
    primitive, so the only fix is the sign, as a negative pivot negates it.
    """
    field, p, c = m.field, m.field.p, m.cols
    flat = m._flat
    rows = [flat[i * c:(i + 1) * c] for i in range(m.rows)]
    if p is None:  # stored GF(p) rows are residues already
        rows = [_primitive(row) for row in rows]
    pivots = _gauss_jordan(rows, c, p)
    flat = []
    for row, j in zip(rows, pivots):
        flat += row if row[j] > 0 else [-x for x in row]
    return Subspace(Matrix(field, _Codec(flat, [abs(row[j]) for row, j in zip(rows, pivots)]), c), tuple(pivots))


def kernel(m: Matrix) -> "Subspace":
    """Right null space {x : m @ x^T = 0}: the columns of the row space's quotient map."""
    return rref(rref(m).quotient_map().transpose())


def annihilator(m: Matrix) -> "Subspace":
    """{x : x @ m = 0}: the kernel of m's nonzero columns.

    The columns are read over one denominator; scaling a row keeps its kernel.
    They are built canonical: integers over 1 (residues, over GF(p)).
    """
    c = m.cols
    flat, _ = _common(m._flat, m._dens, c)
    columns = [col for j in range(c) if any(col := flat[j::c])]
    return kernel(Matrix(m.field, _Codec([x for col in columns for x in col], [1] * len(columns)), m.rows))


def alternating(field: FieldSpec, n: int, values: dict, width: int) -> Matrix:
    """The n x n·width matrix of an alternating f: block i of row j is f(x_i, x_j).

    ``values`` maps i < j to f(x_i, x_j) as a canonical (ints, den); f(x_j,
    x_i) is its negative, f is zero on the diagonal and at an absent pair,
    and each row is over the lcm of its blocks' denominators.  The rows are
    built canonical: over GF(p) every den is 1 and a negated residue x is
    p - x, and over Q an lcm of canonical blocks is in lowest terms, as for
    each prime dividing it the block carrying its full power has an entry
    prime to it and a scale factor prime to it.
    """
    p, w = field.p, n * width
    blocks: list[list] = [[] for _ in range(n)]
    for (i, j), (ints, den) in values.items():
        blocks[j].append((i, ints, den))
        blocks[i].append((j, [-x for x in ints] if p is None else [p - x if x else 0 for x in ints], den))
    flat = [0] * (n * w)
    dens = []
    for j, row_blocks in enumerate(blocks):
        den = lcm(*[d for _, _, d in row_blocks])
        for i, ints, d in row_blocks:
            start = j * w + i * width
            flat[start:start + width] = ints if d == den else [x * (den // d) for x in ints]
        dens.append(den)
    return Matrix(field, _Codec(flat, dens), w)


def invert(m: Matrix) -> Matrix:
    """Inverse of a square matrix; raises ValueError when singular."""
    if m.rows != m.cols:
        raise ValueError("only square matrices can be inverted")
    n = m.rows
    if n == 0:
        return m
    aug = []  # row i is den_i times [m_i | e_i], which spans the same rows
    for i, (ints, den) in enumerate(m._rows()):
        unit = [0] * n
        unit[i] = den
        aug.append((ints + unit, 1))
    rowspace = rref(Matrix._from_rows(m.field, aug, 2 * n))
    if rowspace.pivots[:n] != tuple(range(n)):
        raise ValueError("singular matrix")
    return Matrix._from_rows(m.field, rowspace.basis._rows(n)[1::2], n)


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
        return cls(Matrix.identity(field, ambient), tuple(range(ambient)))

    @property
    def dim(self) -> int:
        return self.basis.rows

    def quotient_map(self) -> Matrix:
        """The projection F^n -> F^n/U, an n x (n - dim) Matrix in the free (non-pivot) coordinates.

        Row i is e_i's image: a unit vector when column i is free, and minus
        the free part of its basis row when i is a pivot, as that row is e_i
        plus its free part.  The kernel is exactly U: ``v @ map`` is v minus
        the basis rows scaled by v's pivot entries, read on the free columns.
        The rows are built canonical: unit rows over 1, and a basis row's free
        part over its den, in lowest terms as the pivot entry (1) equals den;
        over GF(p) a nonzero residue x negates to p - x.
        """
        n, p = self.ambient, self.field.p
        basis, basis_dens = self.basis._flat, self.basis._dens
        pivot_row = {c: r for r, c in enumerate(self.pivots)}
        free = [c for c in range(n) if c not in pivot_row]
        flat: list[int] = []
        for i in range(n):
            r = pivot_row.get(i)
            if r is None:
                flat += [int(f == i) for f in free]
            else:
                part = [basis[r * n + f] for f in free]
                flat += [-x for x in part] if p is None else [p - x if x else 0 for x in part]
        dens = [basis_dens[pivot_row[i]] if i in pivot_row else 1 for i in range(n)]
        return Matrix(self.field, _Codec(flat, dens), len(free))

    def contains_subspace(self, other: "Subspace") -> bool:
        """Whether other lies in self: other's basis times the quotient map is zero.

        The product raises ValueError on a field or ambient mismatch.
        """
        return (other.basis @ self.quotient_map()).is_zero()

    def __repr__(self):
        return f"Subspace(dim {self.dim} of F^{self.ambient})"


def random_invertible(field: FieldSpec, n: int, rng) -> Matrix:
    """Seeded random invertible matrix built from elementary operations.

    A product of shear operations and a row permutation, so it is
    invertible by construction and keeps entries small.  The shear factors
    are drawn from [1, p) over GF(p) and from {-2, -1, 1, 2} over Q.
    """
    p = field.p
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    if n > 1:
        for _ in range(3 * n):
            i = rng.randrange(n)
            j = rng.randrange(n)
            if i == j:
                continue
            s = rng.randrange(1, p) if p is not None else rng.choice((-2, -1, 1, 2))
            row = [a + s * b for a, b in zip(rows[i], rows[j])]
            rows[i] = row if p is None else [x % p for x in row]
        rng.shuffle(rows)
    return Matrix._from_rows(field, [(row, 1) for row in rows], n)
