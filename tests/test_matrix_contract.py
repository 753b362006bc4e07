"""The matrix contract: a `Matrix` holds canonical integer rows, and only inputs coerce.

A `Matrix` stores one flat list of ints and one denominator per row, each
row in the codec's canonical form (lowest terms with a positive denominator
over Q, residues over 1 over GF(p)), and `data` decodes field scalars on
each read.  One built from scalars through `Matrix(field, data, cols)`
checks their shape and encodes them at once: an entry of another field
raises `TypeError` where the matrix is built.  Values from outside the
package are coerced, or rejected, where they enter: `FieldSpec.parse`,
`LieAlgebra.__init__`, `LieAlgebra.ad` and `bracket`, and the catalog's
parameter.  Every result of `rref`, `@`, `transpose`, `invert`, `kernel`,
`annihilator` and the quotient map is built from integers, and decodes to
what the scalar references in `conftest` compute.
"""

import random
from fractions import Fraction
from math import gcd

import pytest
from conftest import product_by_scalars, random_class3, random_rank2_stem, reduce, rref_by_fractions, rref_mod_p
from hypothesis import given, settings, strategies as st

from liemult import LieAlgebra
from liemult.catalog import CatalogId, Family, make_catalog
from liemult.cli import main
from liemult.document import dumps_algebra
from liemult.fields import Fp, gf, rationals
from liemult.linalg import Matrix, Subspace, alternating, annihilator, invert, kernel, random_invertible, rref
from liemult.verify import builtin_suite, cross_check

QQ = rationals()
G5 = gf(5)


def test_every_matrix_built_holds_scalars_of_its_field(monkeypatch, tmp_path, capsys):
    built = []
    init = Matrix.__init__

    def recording(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(Matrix, "__init__", recording)
    for prime in (5, 2):
        for name, algebra, cap in builtin_suite(prime):
            assert cross_check(algebra, name, cap).ok, name
    for name, cid, field in (
        ("l55.json", CatalogId(Family.L5_5), QQ),
        ("l622.json", CatalogId(Family.L6_22, param=1, abelian=1), gf(3)),
    ):
        path = tmp_path / name
        path.write_text(dumps_algebra(make_catalog(cid, field)))
        assert main(["report", str(path), "--oracle", "--randomize-basis", "--seed", "7"]) == 0
    rng = random.Random(20261032)  # sweep-style: stems plus abelian summands, written in a random basis
    for k, (cid, field) in enumerate((
        (CatalogId(Family.L5_8, abelian=2), gf(3)),
        (CatalogId(Family.L4_3, abelian=2), gf(3)),
        (CatalogId(Family.L6_22, param=1, abelian=2), gf(7)),
        (CatalogId(Family.HEISENBERG, rank=2, abelian=1), gf(7)),
    )):
        L = make_catalog(cid, field)
        path = tmp_path / f"sweep{k}.json"
        path.write_text(dumps_algebra(L.change_basis(random_invertible(field, L.dim, rng))))
        assert main(["report", str(path), "--oracle"]) == 0
    # Z(L) reads the table at L^2's pivot (x3): there [x1, x2] = 1/3 x3 + 1/6 x4 is 2/6
    assert LieAlgebra(QQ, 4, {(0, 1): (0, 0, Fraction(1, 3), Fraction(1, 6))}).series().center.dim == 2
    capsys.readouterr()
    assert len(built) > 1000
    foreign = [(m.field, x) for m in built for row in m.data for x in row if not m.field.owns(x)]
    assert foreign == []
    for m in built:
        _assert_canonical(m)


def test_bracket_and_ad_coerce_int_vectors_and_reject_foreign_residues():
    L = make_catalog(CatalogId(Family.HEISENBERG, rank=1), G5)  # [x1, x2] = x3
    assert L.bracket([1, 0, 0], [0, 2, 0]) == (G5.zero, G5.zero, G5.of(2))
    assert L.ad([0, 1, 0]) == Matrix(G5, [[G5.zero, G5.zero, G5.one], [G5.zero] * 3, [G5.zero] * 3])
    foreign = [Fp(1, 7), 0, 0]
    with pytest.raises(TypeError):
        L.bracket(foreign, [0, 1, 0])
    with pytest.raises(TypeError):
        L.bracket([0, 1, 0], foreign)
    with pytest.raises(TypeError):
        L.ad(foreign)


@pytest.mark.parametrize("coeff", [Fp(1, 7), Fraction(1, 2)])
def test_lie_algebra_rejects_coefficients_outside_its_field(coeff):
    with pytest.raises(TypeError):
        LieAlgebra(G5, 3, {(0, 1): (0, 0, coeff)})


def test_matrix_checks_shape():
    one = QQ.one
    with pytest.raises(ValueError, match="ragged"):
        Matrix(QQ, [[one, one], [one]])
    with pytest.raises(ValueError, match="expected 3 columns"):
        Matrix(QQ, [[one, one]], cols=3)
    assert Matrix(QQ, [], cols=3).shape == (0, 3)


@pytest.mark.parametrize(
    "field, entry",
    [(G5, Fp(6, 7)), (QQ, 0.5), (G5, 1), (QQ, 1)],
    ids=["residue-mod-7-in-GF5", "float-in-Q", "int-in-GF5", "int-in-Q"],
)
def test_foreign_entry_raises_type_error_at_rref_and_product(field, entry):
    """No rref or product can reach a foreign entry: its matrix is refused where it is built."""
    with pytest.raises(TypeError, match="is not a"):
        Matrix(field, [[entry, field.one]])
    with pytest.raises(TypeError, match="is not a"):
        Subspace.span(field, 2, [[entry, field.one]])


# -- the integer form against the scalar references -----------------------------

FIELDS = [QQ, gf(2), gf(3), G5]


def _entries(field):
    if field.is_prime_field:
        return st.integers(0, field.p - 1).map(field.of)
    return st.fractions(min_value=-4, max_value=4, max_denominator=6)


@st.composite
def _grid(draw, field, rows=None, cols=None):
    """(rows of scalars as tuples, their width)."""
    r = draw(st.integers(0, 4)) if rows is None else rows
    c = draw(st.integers(0, 4)) if cols is None else cols
    grid = draw(st.lists(st.lists(_entries(field), min_size=c, max_size=c), min_size=r, max_size=r))
    return tuple(map(tuple, grid)), c


def _matrix(field, rows=None, cols=None):
    return _grid(field, rows, cols).map(lambda g: Matrix(field, g[0], cols=g[1]))


def _reference_rref(field, grid, cols):
    """(reduced nonzero rows as scalars, pivots) from the conftest eliminations."""
    if field.is_prime_field:
        rows, pivots = rref_mod_p([[x.val for x in row] for row in grid], cols, field.p)
        rows = [[field.of(x) for x in row] for row in rows]
    else:
        rows, pivots = rref_by_fractions([list(row) for row in grid], cols)
    return [tuple(row) for row in rows[:len(pivots)]], tuple(pivots)


def _reference_kernel(field, grid, cols):
    """RREF basis of {x : grid @ x^T = 0}, solved from the reference RREF by hand."""
    rows, pivots = _reference_rref(field, grid, cols)
    free = [f for f in range(cols) if f not in pivots]
    vectors = []
    for f in free:
        v = [field.zero] * cols
        v[f] = field.one
        for row, pc in zip(rows, pivots):
            v[pc] = -row[f]
        vectors.append(v)
    return _reference_rref(field, vectors, cols)


def _assert_canonical(m):
    flat, dens = m._flat, m._dens
    assert len(flat) == m.rows * m.cols and len(dens) == m.rows
    for i, den in enumerate(dens):
        row = flat[i * m.cols:(i + 1) * m.cols]
        if m.field.is_prime_field:
            assert den == 1 and all(0 <= x < m.field.p for x in row)
        else:
            assert den > 0 and gcd(den, *row) == 1


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(FIELDS), st.data())
def test_integer_form_decodes_to_the_scalar_references(field, data):
    grid, c = data.draw(_grid(field))
    m = Matrix(field, grid, cols=c)
    assert m.data == grid
    other = data.draw(_matrix(field, rows=m.cols))

    rowspace = rref(m)
    assert (list(rowspace.basis.data), rowspace.pivots) == _reference_rref(field, grid, m.cols)
    product = m @ other
    assert product.data == product_by_scalars(m, other).data
    transposed = m.transpose()
    columns = [[row[j] for row in grid] for j in range(m.cols)]
    assert transposed.shape == (m.cols, m.rows) and transposed.data == tuple(map(tuple, columns))
    ker = kernel(m)
    assert (list(ker.basis.data), ker.pivots) == _reference_kernel(field, grid, m.cols)
    ann = annihilator(m)
    assert (list(ann.basis.data), ann.pivots) == _reference_kernel(field, columns, m.rows)
    qmap = rowspace.quotient_map()
    free = [c for c in range(m.cols) if c not in rowspace.pivots]
    for i in range(m.cols):
        assert list(qmap.data[i]) == [reduce(rowspace, [field.one if k == i else field.zero for k in range(m.cols)])[f]
                                      for f in free]
    results = [rowspace.basis, product, transposed, ker.basis, ann.basis, qmap]
    square = data.draw(_matrix(field, rows=m.cols, cols=m.cols))
    if rref(square).dim == square.rows:
        inverse = invert(square)
        assert product_by_scalars(square, inverse).data == Matrix.identity(field, square.rows).data
        results.append(inverse)
    else:
        with pytest.raises(ValueError, match="singular"):
            invert(square)
    for result in results + [m, other, square]:
        _assert_canonical(result)
        again = Matrix(field, result.data, cols=result.cols)
        assert again == result and hash(again) == hash(result)


# -- producers that build their rows canonical ------------------------------------


def _rebuilt(m):
    """m through the canonicalising path, from its own rows: equal to m exactly when m is canonical."""
    return Matrix._from_rows(m.field, m._rows(), m.cols)


def _random_rows(field, rng, rows, cols):
    """Rows of scalars with zero rows and a negative leading entry common over Q."""
    if field.is_prime_field:
        entries = [field.of(x) for x in range(field.p)]
    else:
        entries = [Fraction(a, b) for a in range(-4, 5) for b in (1, 2, 3, 6)]
    return [[field.zero] * cols if rng.random() < 0.2 else [rng.choice(entries) for _ in range(cols)] for _ in range(rows)]


def test_every_producer_builds_canonical_rows(monkeypatch):
    # rref, the quotient map, identity, alternating, annihilator's columns, d2
    # and the table's rows as stored skip FieldSpec.canonical; each must equal
    # its rows canonicalised
    import liemult.cohomology as cohomology
    import liemult.linalg as linalg

    columns = []
    real_kernel = linalg.kernel
    monkeypatch.setattr(linalg, "kernel", lambda m: columns.append(m) or real_kernel(m))
    rng = random.Random(20261032)
    negative_leads = 0
    for field in FIELDS:
        for case in range(60):
            r, c = rng.randint(0, 5), rng.randint(0, 5)
            grid = _random_rows(field, rng, r, c)
            m = Matrix(field, grid, cols=c)
            rowspace = rref(m)
            reference = _reference_rref(field, grid, c)
            assert (list(rowspace.basis.data), rowspace.pivots) == reference, (field, case)
            if not field.is_prime_field:
                negative_leads += any(next((x for x in row if x), 0) < 0 for row in grid)
            columns.clear()
            annihilator(m)
            n = rng.randint(0, 4)
            width = rng.randint(0, 3)
            values = {(i, j): field.encode(_random_rows(field, rng, 1, width)[0])
                      for j in range(n) for i in range(j) if rng.random() < 0.6}
            laid = alternating(field, n, values, width)

            def f(i, j):
                if (i, j) in values:
                    return list(field.decode(*values[(i, j)]))
                if (j, i) in values:
                    return [-x for x in field.decode(*values[(j, i)])]
                return [field.zero] * width

            assert laid == Matrix(field, [[x for i in range(n) for x in f(i, j)] for j in range(n)], cols=n * width)
            for result in (rowspace.basis, rowspace.quotient_map(), Matrix.identity(field, c), laid, columns[0]):
                assert _rebuilt(result) == result, (field, case)
        for k in range(6):
            base = random_class3(field, 2 + k % 3, rng) if k % 2 else random_rank2_stem(field, 5 + k % 3, rng)
            L = base.change_basis(random_invertible(field, base.dim, rng))
            d2 = cohomology.cochain_complex(L)
            assert _rebuilt(d2) == d2 and _rebuilt(L._stored()) == L._stored(), (field, k)
    assert negative_leads >= 20
    # the edges: zero rows only, width 0, identity(0), the zero and the full subspace
    for field in FIELDS:
        for m in (Matrix(field, [[field.zero] * 3] * 2), Matrix(field, [], cols=0), Matrix(field, [[], []], cols=0)):
            assert _rebuilt(rref(m).basis) == rref(m).basis and _rebuilt(rref(m).quotient_map()) == rref(m).quotient_map()
        assert Matrix.identity(field, 0) == Matrix._from_rows(field, [], 0) and Matrix.identity(field, 0).shape == (0, 0)
        assert Subspace.full(field, 3).quotient_map() == Matrix._from_rows(field, [([], 1)] * 3, 0)
        assert alternating(field, 3, {}, 2) == Matrix._from_rows(field, [([0] * 6, 1)] * 3, 6)
        assert alternating(field, 0, {}, 2).shape == (0, 0)
    # a negative pivot over Q, and negation over GF(2) and GF(3), where p - x matters
    assert rref(Matrix(QQ, [[QQ.of(-2), QQ.one, QQ.of(3)]])).basis._rows() == [([2, -1, -3], 2)]
    for p in (2, 3):
        field = gf(p)
        one = field.one
        q = rref(Matrix(field, [[one, one, field.zero]])).quotient_map()
        assert q._rows() == [([p - 1, 0], 1), ([1, 0], 1), ([0, 1], 1)] and _rebuilt(q) == q
        laid = alternating(field, 2, {(0, 1): ([1], 1)}, 1)
        assert laid._rows() == [([0, p - 1], 1), ([1, 0], 1)] and _rebuilt(laid) == laid
