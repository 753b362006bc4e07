import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from liemult.fields import gf, rationals
from liemult.linalg import (
    Matrix,
    Subspace,
    invert,
    kernel,
    pivot_columns,
    random_invertible,
    rref,
)

QQ = rationals()
G5 = gf(5)


# -- strategies ---------------------------------------------------------------

rational_entries = st.fractions(min_value=-4, max_value=4, max_denominator=3)
residue_entries = st.integers(min_value=0, max_value=4)


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
    reduced, rank = rref(m)
    assert reduced == m and rank == 3


def test_rref_zero():
    m = Matrix.zeros(QQ, 2, 4)
    reduced, rank = rref(m)
    assert reduced == m and rank == 0


def test_rref_dependent_rows():
    m = Matrix(QQ, [[1, 2], [2, 4]])
    reduced, rank = rref(m)
    assert rank == 1
    assert reduced == Matrix(QQ, [[1, 2], [0, 0]])


def test_kernel_identity_and_zero():
    assert kernel(Matrix.identity(QQ, 3)).dim == 0
    assert kernel(Matrix.zeros(QQ, 2, 3)) == Subspace.full(QQ, 3)


def test_kernel_difference_row():
    # solve x - y = 0 by hand: the line spanned by (1, 1)
    ker = kernel(Matrix(QQ, [[1, -1]]))
    assert ker == Subspace.span(QQ, 2, [[1, 1]])


def test_invert_round_trip_and_singular():
    rng = random.Random(3)
    for field in (QQ, G5):
        p = random_invertible(field, 4, rng)
        assert p @ invert(p) == Matrix.identity(field, 4)
    with pytest.raises(ValueError):
        invert(Matrix(QQ, [[1, 2], [2, 4]]))
    with pytest.raises(ValueError):
        invert(Matrix(QQ, [[1, 2, 3], [4, 5, 6]]))


# -- property tests -----------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(matrices(rational_entries, QQ))
def test_rank_nullity_rational(m):
    _, rank = rref(m)
    assert rank + kernel(m).dim == m.cols


@settings(max_examples=60, deadline=None)
@given(matrices(residue_entries, G5))
def test_rank_nullity_prime(m):
    _, rank = rref(m)
    assert rank + kernel(m).dim == m.cols


@settings(max_examples=60, deadline=None)
@given(matrices(rational_entries, QQ))
def test_rref_idempotent(m):
    reduced, rank = rref(m)
    again, rank2 = rref(reduced)
    assert again == reduced and rank2 == rank


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
    assert u.dim + v.dim == u.sum(v).dim + u.intersect(v).dim


# -- subspaces ---------------------------------------------------------------

def test_subspace_sum_intersect_examples():
    e1 = [1, 0, 0]
    e2 = [0, 1, 0]
    u = Subspace.span(QQ, 3, [e1])
    v = Subspace.span(QQ, 3, [e2])
    assert u.sum(v).dim == 2
    assert u.intersect(v).dim == 0
    assert u.sum(u) == u
    assert u.intersect(u) == u


def test_intersection_content():
    u = Subspace.span(QQ, 3, [[1, 0, 0], [0, 1, 0]])
    v = Subspace.span(QQ, 3, [[0, 1, 0], [0, 0, 1]])
    w = u.intersect(v)
    assert w == Subspace.span(QQ, 3, [[0, 1, 0]])


def test_subspace_canonical_representation():
    a = Subspace.span(QQ, 3, [[1, 1, 0], [0, 1, 1]])
    b = Subspace.span(QQ, 3, [[1, 0, -1], [2, 1, -1]])
    assert a == b  # same row space, any generating set


def test_contains_and_reduce():
    s = Subspace.span(QQ, 3, [[1, 0, 2]])
    assert s.contains([2, 0, 4])
    assert not s.contains([1, 1, 2])
    assert s.reduce([3, 0, 6]) == [Fraction(0)] * 3


def test_ambient_mismatch_rejected():
    u = Subspace.full(QQ, 3)
    v = Subspace.full(QQ, 4)
    with pytest.raises(ValueError):
        u.sum(v)
    with pytest.raises(ValueError):
        u.intersect(v)


# -- the prime-field fast path vs an independent reference --------------------

def _reference_rank_mod_p(rows, p):
    """Plain bookkeeping Gaussian elimination, no numpy."""
    grid = [list(r) for r in rows]
    rank = 0
    cols = len(grid[0]) if grid else 0
    for c in range(cols):
        piv = next((i for i in range(rank, len(grid)) if grid[i][c] % p), None)
        if piv is None:
            continue
        grid[rank], grid[piv] = grid[piv], grid[rank]
        inv = pow(grid[rank][c], -1, p)
        grid[rank] = [x * inv % p for x in grid[rank]]
        for i in range(len(grid)):
            if i != rank and grid[i][c] % p:
                f = grid[i][c]
                grid[i] = [(x - f * y) % p for x, y in zip(grid[i], grid[rank])]
        rank += 1
    return rank


def test_prime_rref_matches_reference():
    rng = random.Random(11)
    for p in (2, 5, 7):
        field = gf(p)
        for _ in range(25):
            r = rng.randrange(1, 7)
            c = rng.randrange(1, 7)
            rows = [[rng.randrange(p) for _ in range(c)] for _ in range(r)]
            m = Matrix(field, rows, cols=c)
            _, rank = rref(m)
            assert rank == _reference_rank_mod_p(rows, p)


def test_pivot_columns_shape():
    reduced, rank = rref(Matrix(QQ, [[0, 1, 2], [0, 0, 0], [0, 1, 3]]))
    assert pivot_columns(reduced) == (1, 2)
    assert rank == 2
