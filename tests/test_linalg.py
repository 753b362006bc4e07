import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    d2_by_brackets,
    heisenberg,
    intersect,
    product_by_scalars,
    reduce,
    rref_by_fractions,
    rref_mod_p,
    scalars,
    subspace_sum,
)

from liemult.catalog import CatalogId, Family, make_catalog
from liemult.fields import Fp, gf, rationals
from liemult.linalg import Matrix, Subspace, alternating, annihilator, invert, kernel, random_invertible, rref

QQ = rationals()
G5 = gf(5)


# -- strategies ---------------------------------------------------------------

rational_entries = st.fractions(min_value=-4, max_value=4, max_denominator=3)
residue_entries = st.integers(min_value=0, max_value=4).map(G5.of)


def matrices(entries, field):
    return st.integers(min_value=0, max_value=5).flatmap(
        lambda r: st.integers(min_value=1, max_value=5).flatmap(
            lambda c: st.lists(
                st.lists(entries, min_size=c, max_size=c), min_size=r, max_size=r
            ).map(lambda rows: Matrix(field, rows, cols=c))
        )
    )


# -- frozen examples ----------------------------------------------------------

def test_rref_identity():
    m = Matrix.identity(QQ, 3)
    r = rref(m)
    assert r.basis == m and r.pivots == (0, 1, 2) and r.dim == 3


def test_rref_zero():
    r = rref(Matrix(QQ, scalars(QQ, [[0] * 4] * 2)))
    assert r.basis == Matrix(QQ, [], cols=4) and r.pivots == () and r.dim == 0
    assert r.ambient == 4


def test_rref_dependent_rows():
    r = rref(Matrix(QQ, scalars(QQ, [[1, 2], [2, 4]])))
    assert r.pivots == (0,)
    assert r.basis == Matrix(QQ, scalars(QQ, [[1, 2]]))


def test_kernel_identity_and_zero():
    assert kernel(Matrix.identity(QQ, 3)).dim == 0
    assert kernel(Matrix(QQ, scalars(QQ, [[0] * 3] * 2))) == Subspace.full(QQ, 3)


def test_kernel_difference_row():
    # solve x - y = 0 by hand: the line spanned by (1, 1)
    ker = kernel(Matrix(QQ, scalars(QQ, [[1, -1]])))
    assert ker == Subspace.span(QQ, 2, scalars(QQ, [[1, 1]]))


def test_invert_round_trip_and_singular():
    rng = random.Random(3)
    for field in (QQ, G5):
        p = random_invertible(field, 4, rng)
        assert p @ invert(p) == Matrix.identity(field, 4)
    with pytest.raises(ValueError):
        invert(Matrix(QQ, scalars(QQ, [[1, 2], [2, 4]])))
    with pytest.raises(ValueError):
        invert(Matrix(QQ, scalars(QQ, [[1, 2, 3], [4, 5, 6]])))


# -- property tests -----------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(matrices(rational_entries, QQ))
def test_rank_nullity_rational(m):
    assert rref(m).dim + kernel(m).dim == m.cols


@settings(max_examples=60, deadline=None)
@given(matrices(residue_entries, G5))
def test_rank_nullity_prime(m):
    assert rref(m).dim + kernel(m).dim == m.cols


@settings(max_examples=60, deadline=None)
@given(st.one_of(matrices(rational_entries, QQ), matrices(residue_entries, G5)), st.data())
def test_quotient_map_projects_modulo_row_space(m, data):
    u = rref(m)
    q = u.ambient - u.dim
    proj = u.quotient_map()
    assert proj.shape == (u.ambient, q)
    assert (u.basis @ proj).is_zero()
    entries = residue_entries if m.field.is_prime_field else rational_entries
    v = data.draw(st.lists(entries, min_size=m.cols, max_size=m.cols))
    free = [c for c in range(u.ambient) if c not in u.pivots]
    assert [reduce(u, v)[c] for c in free] == list((Matrix(m.field, [v]) @ proj).data[0])


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([(QQ, rational_entries), (G5, residue_entries)]), st.integers(1, 5), st.data())
def test_contains_subspace_matches_sum_reference(field_entries, n, data):
    # U contains V exactly when U + V = U; V is drawn at random, as U itself,
    # as 0, as one vector's span, as combinations of U's basis rows or as U
    # plus one vector
    field, entries = field_entries
    vectors = st.lists(entries, min_size=n, max_size=n)
    u = Subspace.span(field, n, data.draw(st.lists(vectors, max_size=n)))
    kind = data.draw(st.sampled_from(["random", "self", "zero", "line", "inside", "extend"]))
    if kind == "self":
        v = u
    elif kind == "zero":
        v = Subspace.span(field, n, [])
    elif kind == "line":
        v = Subspace.span(field, n, [data.draw(vectors)])
    elif kind == "inside":
        coeffs = data.draw(st.lists(st.lists(entries, min_size=u.dim, max_size=u.dim), max_size=3))
        v = Subspace.span(field, n, (Matrix(field, coeffs, cols=u.dim) @ u.basis).data)
    elif kind == "extend":
        v = Subspace.span(field, n, u.basis.data + (tuple(data.draw(vectors)),))
    else:
        v = Subspace.span(field, n, data.draw(st.lists(vectors, max_size=n)))
    assert u.contains_subspace(v) == (subspace_sum(u, v) == u)
    assert v.contains_subspace(u) == (subspace_sum(u, v) == v)
    if kind in ("self", "zero", "inside"):
        assert u.contains_subspace(v)
    if kind == "extend":
        assert v.contains_subspace(u)


@settings(max_examples=60, deadline=None)
@given(matrices(rational_entries, QQ))
def test_rref_idempotent(m):
    r = rref(m)
    assert rref(r.basis) == r
    assert r == Subspace.span(m.field, m.cols, m.data)


@settings(max_examples=40, deadline=None)
@given(matrices(residue_entries, G5))
def test_kernel_annihilates_prime(m):
    ker = kernel(m)
    if ker.dim:
        product = m @ ker.basis.transpose()
        assert product.is_zero()


@settings(max_examples=40, deadline=None)
@given(matrices(rational_entries, QQ))
def test_kernel_annihilates_rational(m):
    ker = kernel(m)
    if ker.dim:
        assert (m @ ker.basis.transpose()).is_zero()


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.lists(rational_entries, min_size=4, max_size=4), min_size=0, max_size=4),
    st.lists(st.lists(rational_entries, min_size=4, max_size=4), min_size=0, max_size=4),
)
def test_grassmann_identity(urows, vrows):
    u = Subspace.span(QQ, 4, urows)
    v = Subspace.span(QQ, 4, vrows)
    assert u.dim + v.dim == subspace_sum(u, v).dim + intersect(u, v).dim


# -- subspaces ---------------------------------------------------------------

def test_subspace_sum_intersect_examples():
    e1, e2 = scalars(QQ, [[1, 0, 0], [0, 1, 0]])
    u = Subspace.span(QQ, 3, [e1])
    v = Subspace.span(QQ, 3, [e2])
    assert subspace_sum(u, v).dim == 2
    assert intersect(u, v).dim == 0
    assert subspace_sum(u, u) == u
    assert intersect(u, u) == u


def test_intersection_content():
    u = Subspace.span(QQ, 3, scalars(QQ, [[1, 0, 0], [0, 1, 0]]))
    v = Subspace.span(QQ, 3, scalars(QQ, [[0, 1, 0], [0, 0, 1]]))
    w = intersect(u, v)
    assert w == Subspace.span(QQ, 3, scalars(QQ, [[0, 1, 0]]))


def test_subspace_canonical_representation():
    a = Subspace.span(QQ, 3, scalars(QQ, [[1, 1, 0], [0, 1, 1]]))
    b = Subspace.span(QQ, 3, scalars(QQ, [[1, 0, -1], [2, 1, -1]]))
    assert a == b  # same row space, any generating set


def test_contains_and_reduce():
    s = Subspace.span(QQ, 3, scalars(QQ, [[1, 0, 2]]))
    assert s.contains_subspace(Subspace.span(QQ, 3, scalars(QQ, [[2, 0, 4]])))
    assert not s.contains_subspace(Subspace.span(QQ, 3, scalars(QQ, [[1, 1, 2]])))
    assert not s.contains_subspace(Subspace.span(QQ, 3, scalars(QQ, [[1, 0, 2], [0, 1, 0]])))  # one row of two inside
    assert reduce(s, [3, 0, 6]) == [Fraction(0)] * 3


def test_ambient_mismatch_rejected():
    u = Subspace.full(QQ, 3)
    v = Subspace.full(QQ, 4)
    with pytest.raises(ValueError):
        u.contains_subspace(v)
    with pytest.raises(ValueError):
        v.contains_subspace(u)
    w = Subspace.full(G5, 3)
    with pytest.raises(ValueError, match="field mismatch"):
        u.contains_subspace(w)
    with pytest.raises(ValueError, match="field mismatch"):
        w.contains_subspace(u)


# -- the integer product vs the product on field scalars -----------------------

PRODUCT_FIELDS = (QQ, gf(2), gf(3), G5)
# denominators that are distinct primes, so one row's lcm is their product
prime_denominator_entries = st.builds(Fraction, st.integers(-30, 30), st.sampled_from([1, 2, 3, 5, 7, 11, 999983]))


def product_entries(field):
    if field.p is None:
        nonzero = st.one_of(rational_entries, prime_denominator_entries)
    else:
        nonzero = st.integers(0, field.p - 1).map(field.of)
    return st.one_of(st.just(field.zero), nonzero)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(PRODUCT_FIELDS), st.integers(0, 4), st.integers(0, 4), st.integers(0, 5), st.data())
def test_product_matches_scalar_reference(field, k, m, w, data):
    entries = product_entries(field)
    a = data.draw(st.lists(st.lists(entries, min_size=m, max_size=m), min_size=k, max_size=k))
    b = data.draw(st.lists(st.lists(entries, min_size=w, max_size=w), min_size=m, max_size=m))
    zero_rows = data.draw(st.sets(st.integers(0, 3)))
    zero_cols = data.draw(st.sets(st.integers(0, 4)))
    a = [[field.zero] * m if i in zero_rows else row for i, row in enumerate(a)]
    b = [[field.zero if j in zero_cols else x for j, x in enumerate(row)] for row in b]
    left, right = Matrix(field, a, cols=m), Matrix(field, b, cols=w)
    product = left @ right
    assert product == product_by_scalars(left, right)
    assert product.shape == (k, w)
    assert all(field.owns(x) for row in product.data for x in row)


def test_product_edge_shapes():
    for field in PRODUCT_FIELDS:
        zero, one = field.zero, field.one
        assert Matrix(field, [], cols=3) @ Matrix.identity(field, 3) == Matrix(field, [], cols=3)
        # inner dimension 0: a k x 0 times a 0 x m matrix is the k x m zero matrix
        empty = Matrix(field, [[]] * 2, cols=0) @ Matrix(field, [], cols=3)
        assert empty == Matrix(field, [[zero] * 3] * 2, cols=3)
        assert Matrix(field, [[one, one]]) @ Matrix(field, [[zero, one], [zero, one]]) == Matrix(
            field, [[zero, one + one]]
        )
        with pytest.raises(ValueError, match="shape mismatch"):
            Matrix.identity(field, 2) @ Matrix.identity(field, 3)
        with pytest.raises(ValueError, match="field mismatch"):
            Matrix.identity(field, 2) @ Matrix.identity(gf(7), 2)
    # rows whose entries have distinct prime denominators, on both sides
    left = Matrix(QQ, [[Fraction(1, 2), Fraction(1, 3)], [Fraction(-5, 7), Fraction(0)]])
    right = Matrix(QQ, [[Fraction(1, 11), Fraction(0), Fraction(2, 13)], [Fraction(3, 17), Fraction(0), Fraction(1)]])
    expected = [
        [Fraction(1, 22) + Fraction(1, 17), Fraction(0), Fraction(1, 13) + Fraction(1, 3)],
        [Fraction(-5, 77), Fraction(0), Fraction(-10, 91)],
    ]
    assert left @ right == Matrix(QQ, expected) == product_by_scalars(left, right)


# -- elimination over GF(p) vs elimination on residues -----------------------

def _prime_matrix(rng, p):
    """Residues with zero, duplicate and dependent rows."""
    r, c = rng.randrange(1, 9), rng.randrange(1, 9)
    rows = []
    for _ in range(r):
        kind = rng.random()
        if kind < 0.1:
            rows.append([0] * c)
        elif rows and kind < 0.25:
            rows.append(list(rng.choice(rows)))
        elif rows and kind < 0.45:
            u, v = rng.choice(rows), rng.choice(rows)
            a, b = rng.randrange(p), rng.randrange(p)
            rows.append([(a * x + b * y) % p for x, y in zip(u, v)])
        else:
            rows.append([rng.randrange(p) for _ in range(c)])
    return rows, c


def test_prime_rref_matches_reference():
    rng = random.Random(11)
    for p in (2, 3, 5, 7):
        field = gf(p)
        cases = [_prime_matrix(rng, p) for _ in range(60)]
        cases += [([], k) for k in range(4)]  # 0 x k
        cases += [([[]] * k, 0) for k in range(1, 4)]  # k x 0
        for base in (
            heisenberg(field, 5),
            make_catalog(CatalogId(Family.L1, abelian=2), field),
        ):
            L = base.change_basis(random_invertible(field, base.dim, rng))
            d2 = d2_by_brackets(L)
            cases.append(([[x.val for x in row] for row in d2.data], d2.cols))
        for rows, cols in cases:
            grid, pivots = rref_mod_p(rows, cols, p)
            r = rref(Matrix(field, scalars(field, rows), cols=cols))
            assert r.pivots == tuple(pivots)
            assert r.basis == Matrix(field, scalars(field, grid[: len(pivots)]), cols=cols)
            assert not any(any(row) for row in grid[len(pivots):])
            assert all(type(x) is Fp for row in r.basis.data for x in row)


# -- alternating maps vs a scalar layout ---------------------------------------

def _rref_by_scalars(field, rows, cols):
    """The reference elimination of rows of field scalars: (reduced rows as scalars, pivot columns)."""
    if field.p is None:
        return rref_by_fractions(rows, cols)
    grid, pivots = rref_mod_p([[x.val for x in row] for row in rows], cols, field.p)
    return scalars(field, grid), pivots


def test_alternating_matches_a_scalar_layout():
    # block i of row j is f(x_i, x_j): the given vector for i < j, its negative
    # for i > j, zero on the diagonal and for an absent pair
    rng = random.Random(29)
    rational = [Fraction(x) for x in (-2, -1, 0, 1, 3)] + [Fraction(-1, 2), Fraction(2, 15), Fraction(5, 7)]
    for field in (QQ, gf(2), gf(3), G5):
        p = field.p
        entries = [field.of(x) for x in range(p)] if p else rational
        for n in range(7):
            for width in range(4):
                for case in range(4):
                    vectors = {}
                    for i in range(n):
                        for j in range(i + 1, n):
                            kind = rng.random()
                            if kind < 0.25:
                                continue  # absent
                            vec = [field.zero] * width if kind < 0.4 else [rng.choice(entries) for _ in range(width)]
                            vectors[(i, j)] = vec
                    zero = [field.zero] * width
                    grid = []
                    for j in range(n):
                        row = []
                        for i in range(n):
                            if (i, j) in vectors:
                                row += vectors[(i, j)]
                            elif (j, i) in vectors:
                                row += [-x for x in vectors[(j, i)]]
                            else:
                                row += zero
                        grid.append(row)
                    values = {}
                    for pair, vec in vectors.items():
                        ints, den = field.encode(vec)
                        k = 1 if p else rng.choice((1, 2, 3))  # over Q, not always in lowest terms
                        values[pair] = ([x * k for x in ints], den * k)
                    m = alternating(field, n, values, width)
                    assert m.shape == (n, n * width)
                    assert m.data == tuple(tuple(row) for row in grid), (field, n, width, case)
                    # {x : x @ m = 0} is the right kernel of m's transpose
                    reduced, pivots = _rref_by_scalars(field, [list(col) for col in zip(*grid)], n)
                    kernel_rows = []
                    for f in (c for c in range(n) if c not in pivots):
                        vec = [field.zero] * n
                        vec[f] = field.one
                        for r, c in enumerate(pivots):
                            vec[c] = -reduced[r][f]
                        kernel_rows.append(vec)
                    basis, kernel_pivots = _rref_by_scalars(field, kernel_rows, n)
                    expected = Subspace(Matrix(field, basis[: len(kernel_pivots)], cols=n), tuple(kernel_pivots))
                    assert annihilator(m) == expected, (field, n, width, case)


def test_pivot_columns_shape():
    r = rref(Matrix(QQ, scalars(QQ, [[0, 1, 2], [0, 0, 0], [0, 1, 3]])))
    assert r.pivots == (1, 2)
    assert r.basis == Matrix(QQ, scalars(QQ, [[0, 1, 0], [0, 0, 1]]))


# -- integer elimination over Q vs elimination on Fractions -------------------

def _wide_scalar(rng):
    if rng.random() < 0.3:
        return Fraction(0)
    if rng.random() < 0.3:
        return Fraction(rng.randint(-3, 3))
    return Fraction(rng.randint(-10**12, 10**12), rng.randint(1, 10**6))


def _wide_rational_matrix(rng):
    """Wide numerators and denominators, with zero, duplicate and dependent rows."""
    r, c = rng.randrange(1, 9), rng.randrange(1, 9)
    rows = []
    for _ in range(r):
        kind = rng.random()
        if kind < 0.1:
            rows.append([Fraction(0)] * c)
        elif rows and kind < 0.25:
            rows.append(list(rng.choice(rows)))
        elif rows and kind < 0.45:
            u, v = rng.choice(rows), rng.choice(rows)
            a, b = _wide_scalar(rng), _wide_scalar(rng)
            rows.append([a * x + b * y for x, y in zip(u, v)])
        else:
            rows.append([_wide_scalar(rng) for _ in range(c)])
    return Matrix(QQ, rows, cols=c)


def test_rref_rational_matches_fraction_reference():
    rng = random.Random(2024)
    cases = [_wide_rational_matrix(rng) for _ in range(190)]
    cases += [Matrix(QQ, [], cols=k) for k in range(4)]  # 0 x k
    cases += [Matrix(QQ, [[]] * k, cols=0) for k in range(1, 4)]  # k x 0
    cases += [
        Matrix(QQ, scalars(QQ, [[-2, 4, 1], [0, -3, 5], [-4, 8, 2]])),  # negative pivots, a duplicate up to scale
        Matrix(QQ, scalars(QQ, [[0, 0], [0, -7], [0, 0]])),
        Matrix(QQ, scalars(QQ, [[Fraction(-10**12, 999983), 1], [1, Fraction(1, 10**6)]])),
    ]
    for base in (
        heisenberg(QQ, 5),
        make_catalog(CatalogId(Family.L6_22, param=1, abelian=2), QQ),
    ):
        L = base.change_basis(random_invertible(QQ, base.dim, rng))
        cases.append(d2_by_brackets(L))
    for m in cases:
        grid, pivots = rref_by_fractions([list(row) for row in m.data], m.cols)
        r = rref(m)
        assert r.pivots == tuple(pivots)
        assert r.basis == Matrix(QQ, grid[: len(pivots)], cols=m.cols)
        assert not any(any(row) for row in grid[len(pivots):])
        assert all(type(x) is Fraction for row in r.basis.data for x in row)


# -- the pivot-row support update vs both references ---------------------------

def _elimination_rows(rng, r, c, entry):
    """r x c rows of entry(): zero rows, a zero column, repeated rows, and rows
    that vanish partway (combinations of two earlier rows, so they are cleared
    once those rows' pivots have been used)."""
    dead = rng.randrange(c) if c else None
    rows = []
    for _ in range(r):
        kind = rng.random()
        if kind < 0.1:
            row = [0] * c
        elif rows and kind < 0.2:
            row = list(rng.choice(rows))
        elif len(rows) > 1 and kind < 0.45:
            u, v = rng.sample(rows, 2)
            a, b = entry(), entry()
            row = [a * x + b * y for x, y in zip(u, v)]
        else:
            row = [entry() if rng.random() < 0.6 else 0 for _ in range(c)]
        if dead is not None:
            row[dead] = 0
        rows.append(row)
    rng.shuffle(rows)
    return rows


def _elimination_shapes(rng):
    """Small random shapes, tall n·q x n, wide C(k,3) x C(n,2), and 0 x m."""
    shapes = [(rng.randrange(1, 9), rng.randrange(1, 9)) for _ in range(40)]
    shapes += [(n * q, n) for n, q in ((4, 3), (5, 4), (6, 2))]
    shapes += [(comb(k, 3), comb(n, 2)) for k, n in ((4, 6), (5, 7), (6, 8))]
    shapes += [(0, m) for m in range(4)]
    return shapes


def test_elimination_matches_both_references_on_every_shape():
    # the support update and the GF(p) pivot scaling against Gauss-Jordan on
    # field entries: pivots other than 1 everywhere, and over Q pivots that do
    # not divide the entry they clear (2 against 3, 3/7 against 5)
    rng = random.Random(30)
    for p in (2, 3, 5, 7):
        field = gf(p)
        for r, c in _elimination_shapes(rng):
            rows = _elimination_rows(rng, r, c, lambda: rng.randrange(1, p))
            grid, pivots = rref_mod_p(rows, c, p)
            got = rref(Matrix(field, scalars(field, rows), cols=c))
            assert got.pivots == tuple(pivots), (p, rows)
            assert got.basis == Matrix(field, scalars(field, grid[: len(pivots)]), cols=c), (p, rows)
    values = [Fraction(v) for v in (2, 3, -2, -3, 5, -6)] + [Fraction(3, 7), Fraction(-5, 2), Fraction(4, 9)]
    for r, c in _elimination_shapes(rng):
        rows = _elimination_rows(rng, r, c, lambda: rng.choice(values))
        rows = [[Fraction(x) for x in row] for row in rows]
        grid, pivots = rref_by_fractions([list(row) for row in rows], c)
        got = rref(Matrix(QQ, rows, cols=c))
        assert got.pivots == tuple(pivots), rows
        assert got.basis == Matrix(QQ, grid[: len(pivots)], cols=c), rows
    # a pivot that does not divide the entry below it, in a row that later vanishes
    rows = [[Fraction(2), Fraction(1), Fraction(0)], [Fraction(3), Fraction(5), Fraction(1)],
            [Fraction(5), Fraction(6), Fraction(1)]]
    grid, pivots = rref_by_fractions([list(row) for row in rows], 3)
    assert rref(Matrix(QQ, rows)).basis == Matrix(QQ, grid[: len(pivots)], cols=3)
    assert rref(Matrix(QQ, rows)).dim == 2
