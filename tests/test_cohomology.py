import random
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest

from conftest import (
    d1_by_table,
    d2_by_brackets,
    free_two_step,
    heisenberg,
    jacobi_breaker,
    jacobi_residuals_by_brackets,
    non_nilpotent,
    out_of_scope_algebra,
    random_class3,
    random_rank2_stem,
    rank2_stem_zoo,
    stem6_class3,
    sweep_epicenter,
)

from liemult import LieAlgebra, cohomology, direct_sum
from liemult.catalog import CatalogId, Family, make_catalog
from liemult.classify import has_rank2_member
from liemult.cohomology import (
    ComplexIntegrityError,
    cochain_complex,
    epicenter,
    oracle_report,
    pair_basis,
    schur_dim_oracle,
    triple_basis,
)
from liemult.fields import gf, rationals
from liemult.linalg import Matrix, Subspace, random_invertible, rref

QQ = rationals()
G2 = gf(2)
G3 = gf(3)
G5 = gf(5)
G7 = gf(7)


def test_bases_are_lexicographic_and_frozen():
    assert pair_basis(4) == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    assert triple_basis(4) == [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
    assert pair_basis(1) == [] and triple_basis(2) == []


def test_l4_3_differentials_bit_for_bit():
    # hand expansion of (d w)(x_a, x_b, x_c) for [x1,x2]=x3, [x1,x3]=x4:
    # triple (1,2,3) reads -w(x3,x3) + w(x4,x2) = -w_{24};
    # triple (1,2,4) reads -w(x3,x4)           = -w_{34}; the rest vanish.
    # The package builds d2 only; d1 is the test-side reference, pinned here too.
    L = make_catalog(CatalogId(Family.L4_3), QQ)
    pairs = pair_basis(4)
    d1_expected = [[QQ.zero] * 4 for _ in range(6)]
    d1_expected[pairs.index((0, 1))][2] = QQ.of(-1)
    d1_expected[pairs.index((0, 2))][3] = QQ.of(-1)
    assert d1_by_table(L) == Matrix(QQ, d1_expected)
    assert rref(d1_by_table(L)).dim == L.derived_subalgebra().dim == 2

    d2_expected = [[QQ.zero] * 6 for _ in range(4)]
    d2_expected[0][pairs.index((1, 3))] = QQ.of(-1)  # triple (0,1,2)
    d2_expected[1][pairs.index((2, 3))] = QQ.of(-1)  # triple (0,1,3)
    assert d2_by_brackets(L) == Matrix(QQ, d2_expected)

    # Z(L) = <x4>, so K = {x1, x2, x3}: the one triple inside K, then the
    # wedges of L^2 = <x3, x4> with x4: x3∧x4 = w_{34}, while x4∧x4 = 0 is
    # not built, as x4 is a row of both RREF bases
    adapted = [[QQ.zero] * 6 for _ in range(2)]
    adapted[0][pairs.index((1, 3))] = QQ.of(-1)  # triple (0,1,2)
    adapted[1][pairs.index((2, 3))] = QQ.of(1)  # x3∧x4
    assert cochain_complex(L) == Matrix(QQ, adapted)
    assert rref(cochain_complex(L)) == rref(d2_by_brackets(L))


def test_valid_prime_field_tables_decode_no_residual(monkeypatch):
    # in a random basis a valid GF(p) table's residual integers can be nonzero
    # and vanish mod p; each is reduced before the zero test, so no scalar is
    # decoded, and a real violation still lists what the brackets give
    from liemult.fields import FieldSpec

    def unreduced(L):
        """The rows of d2·d1 on integers, not reduced mod p."""
        table = L._table
        for _, row in cohomology._d2_rows(table, triple_basis(L.dim), L.field.p):
            yield [sum(-c * table[pq][0][l] for pq, c in row.items() if pq in table) for l in range(L.dim)]

    decoded, vanishing = [], 0
    real = FieldSpec.decode
    monkeypatch.setattr(FieldSpec, "decode", lambda self, ints, den: decoded.append(ints) or real(self, ints, den))
    rng = random.Random(20261032)
    for field in (G3, G5):
        for case in range(12):
            base = random_rank2_stem(field, 6 + case % 4, rng) if case % 2 else random_class3(field, 2 + case % 4, rng)
            L = base.change_basis(random_invertible(field, base.dim, rng))
            vanishing += sum(any(r) for r in unreduced(L))
            assert L.validate() == [], (field, case)
    assert decoded == []
    assert vanishing > 100  # rows whose integers are nonzero and vanish mod p
    for field in (G2, G3, G5):
        L = jacobi_breaker(field)
        for M in (L, L.change_basis(random_invertible(field, 3, rng))):
            assert M.validate() == jacobi_residuals_by_brackets(M) != [], field


def test_complex_is_actually_a_complex():
    for L in (
        make_catalog(CatalogId(Family.L1), QQ),
        make_catalog(CatalogId(Family.L6_7_2, param=1), G2),
        stem6_class3(G5),
    ):
        assert (cochain_complex(L) @ d1_by_table(L)).is_zero()


def _d2_reference_cases(field, rng):
    for _ in range(6):
        yield random_class3(field, rng.randint(2, 5), rng)
        yield random_rank2_stem(field, rng.randint(5, 8), rng)
    r2 = non_nilpotent(field)
    yield direct_sum(r2, r2)  # z = 0
    yield direct_sum(direct_sum(r2, r2), r2)
    for n in (0, 1, 2, 4):
        yield LieAlgebra(field, n)  # z = n


def test_d2_matches_bracket_reference():
    # the same row space as d2 evaluated on unit 2-cochains, in random bases,
    # from C(k,3) + d·z - s(s+1)/2 rows, where s vectors are rows of both
    # RREF bases (their u∧u and one of u∧c, c∧u are not built); d1 comes
    # from the test side, so d2 . d1 = 0 and rank d1 = dim L^2 stay checked
    rng = random.Random(20261018)
    for field in (G2, G3, G5, QQ):
        for L in _d2_reference_cases(field, rng):
            L = L.change_basis(random_invertible(field, L.dim, rng))
            d2, d1 = cochain_complex(L), d1_by_table(L)
            derived, center = L.derived_subalgebra(), L.series().center
            z = center.dim
            s = sum(row in center.basis.data for row in derived.basis.data)
            assert d2.shape == (comb(L.dim - z, 3) + derived.dim * z - s * (s + 1) // 2, comb(L.dim, 2))
            assert rref(d2) == rref(d2_by_brackets(L))
            assert (d2 @ d1).is_zero()
            assert rref(d1).dim == L.derived_subalgebra().dim


def test_integrity_check_rejects_jacobi_violation():
    with pytest.raises(ComplexIntegrityError):
        cochain_complex(jacobi_breaker(QQ))


def test_exterior_centre_refuses_a_row_space_beyond_im_d3():
    # with all of Λ²L as the row space, L∧L = 0 and every x would be in Z^∧(L)
    L = heisenberg(G5, 1)
    with pytest.raises(ComplexIntegrityError, match="not central"):
        cohomology._exterior_centre(L, Subspace.full(G5, len(pair_basis(L.dim))))


@pytest.mark.parametrize("field", [QQ, G2, G3], ids=str)
def test_free_two_step_multiplier_is_witt(field):
    # M(F(g)) is the degree-3 part of the free Lie algebra: (g^3 - g)/3 (Witt)
    rng = random.Random(26)
    for g in (3, 4, 5):
        L = free_two_step(field, g)
        L = L.change_basis(random_invertible(field, L.dim, rng))
        assert oracle_report(L).schur == (g**3 - g) // 3


def test_multiplier_abelian():
    for n in range(0, 8):
        assert schur_dim_oracle(LieAlgebra(QQ, n)) == n * (n - 1) // 2


def test_multiplier_heisenberg():
    assert schur_dim_oracle(heisenberg(QQ, 1)) == 2
    for m in (2, 3, 4):
        assert schur_dim_oracle(heisenberg(QQ, m)) == 2 * m * m - m - 1


GOLDEN = [
    (CatalogId(Family.L5_8), QQ, 6),
    (CatalogId(Family.L6_22, param=1), gf(3), 8),
    (CatalogId(Family.L6_22, param=1), QQ, 8),
    (CatalogId(Family.L6_7_2, param=0), G2, 8),
    (CatalogId(Family.L6_7_2, param=1), G2, 8),
    (CatalogId(Family.L1), QQ, 9),
    (CatalogId(Family.L4_3), QQ, 2),
    (CatalogId(Family.L5_5), QQ, 4),
]


@pytest.mark.parametrize("cid,field,expected", GOLDEN)
def test_multiplier_named_stems(cid, field, expected):
    assert schur_dim_oracle(make_catalog(cid, field)) == expected


def test_multiplier_basis_invariant():
    rng = random.Random(31)
    for field in (QQ, G5):
        L = make_catalog(CatalogId(Family.L5_5, abelian=1), field)
        base = schur_dim_oracle(L)
        for _ in range(4):
            moved = L.change_basis(random_invertible(field, L.dim, rng))
            assert schur_dim_oracle(moved) == base


def test_multiplier_field_stability():
    # catalog values match across Q, GF(5), GF(7) wherever characteristic allows
    ids = [
        CatalogId(Family.L4_3),
        CatalogId(Family.L5_5),
        CatalogId(Family.L5_8),
        CatalogId(Family.L6_22, param=1),
        CatalogId(Family.L1),
        CatalogId(Family.HEISENBERG, rank=2, abelian=1),
        CatalogId(Family.ABELIAN, abelian=4),
    ]
    for cid in ids:
        values = {schur_dim_oracle(make_catalog(cid, f)) for f in (QQ, G5, G7)}
        assert len(values) == 1, cid


def test_exterior_tensor_named_stems():
    table = [
        (CatalogId(Family.L5_8), QQ, 8, 14),
        (CatalogId(Family.L6_22, param=1), gf(3), 10, 20),
        (CatalogId(Family.L6_7_2, param=1), G2, 10, 20),
        (CatalogId(Family.L1), QQ, 11, 26),
        (CatalogId(Family.L4_3), QQ, 4, 7),
        (CatalogId(Family.L5_5), QQ, 6, 12),
    ]
    for cid, field, wedge, tensor in table:
        r = oracle_report(make_catalog(cid, field))
        assert r.exterior == wedge
        assert r.tensor == tensor


def test_exterior_tensor_abelian():
    r = oracle_report(LieAlgebra(QQ, 3))
    assert r.exterior == 3
    assert r.tensor == 9


def test_regime_guard(monkeypatch):
    # the multiplier is fine for any table; the rest needs dim L^2 <= 2
    def no_sweep(L):
        raise AssertionError("out-of-scope tables must not be swept")

    monkeypatch.setattr(cohomology, "epicenter", no_sweep)
    monkeypatch.setattr(cohomology, "_exterior_centre", no_sweep)
    for field, prime in ((QQ, 5), (G5, None)):
        r = oracle_report(out_of_scope_algebra(field), capability_prime=prime)
        assert r.schur == 3
        assert (r.exterior, r.tensor, r.capable) == (None, None, None)
        assert (r.epicenter_prime, r.epicenter_dim, r.sweep_error) == (None, None, None)


def test_epicenter_heisenberg():
    assert epicenter(heisenberg(G5, 1)).dim == 0  # capable

    h2 = heisenberg(G5, 2)
    epi = epicenter(h2)
    assert epi == h2.series().center  # unicentral
    assert epi.dim != 0


def test_epicenter_named_stems():
    assert epicenter(make_catalog(CatalogId(Family.L4_3), G5)).dim == 0
    assert epicenter(make_catalog(CatalogId(Family.L1), G5)).dim == 0
    assert epicenter(make_catalog(CatalogId(Family.L6_7_2, param=1), G2)).dim == 0


def test_epicenter_class3_stem_is_center():
    T = stem6_class3(G5)
    epi = epicenter(T)
    assert epi.dim == 1
    assert epi == T.series().center


def test_epicenter_contained_in_center():
    for L in (heisenberg(G5, 2), stem6_class3(G5), direct_sum(heisenberg(G5, 1), LieAlgebra(G5, 2))):
        assert L.series().center.contains_subspace(epicenter(L))


def test_epicenter_ignores_abelian_summands():
    for make in (
        lambda f: make_catalog(CatalogId(Family.L4_3), f),
        lambda f: make_catalog(CatalogId(Family.L5_8), f),
        lambda f: heisenberg(f, 2),
        lambda f: stem6_class3(f),
    ):
        T = make(G5)
        padded = direct_sum(T, LieAlgebra(G5, 2))
        assert epicenter(padded).dim == epicenter(T).dim


def test_epicenter_over_rationals():
    assert epicenter(heisenberg(QQ, 1)).dim == 0
    for L in (heisenberg(QQ, 2), stem6_class3(QQ)):
        assert epicenter(L) == L.series().center
    # in random bases the wedge rows carry several denominators, so the
    # pairing rows are put over the lcm of their blocks'
    h2 = LieAlgebra(QQ, 5, {(0, 1): (0, 0, 0, 0, Fraction(1, 3)), (2, 3): (0, 0, 0, 0, Fraction(2, 7))})
    f3 = free_two_step(QQ, 3)
    for s in (1, 2, 3):
        L = h2.change_basis(random_invertible(QQ, 5, random.Random(s)))
        centre = epicenter(L)
        assert centre == L.series().center and centre.dim == 1, s
        assert epicenter(f3.change_basis(random_invertible(QQ, f3.dim, random.Random(s)))).dim == 0, s


def _random_two_step(field, rng):
    """[x_i, x_j] for generators i < j: a random vector in the top d coordinates.

    A third of the brackets are zero, so some generators come out central.
    """
    g, d = rng.randrange(2, 6), rng.randrange(1, 4)
    table = {
        (i, j): [0] * g + [rng.randrange(field.p) for _ in range(d)]
        for i, j in combinations(range(g), 2)
        if rng.randrange(3)
    }
    return LieAlgebra(field, g + d, table)


def _epicenter_cases():
    rng = random.Random(20261018)
    for field in (G2, G3, G5):
        yield from rank2_stem_zoo(field)
        yield "stem6_class3", stem6_class3(field)
        h13 = direct_sum(heisenberg(field, 1), heisenberg(field, 3))
        yield "H(1)+H(3)", h13.change_basis(random_invertible(field, h13.dim, rng))
        made = 0
        while made < 16:
            L = _random_two_step(field, rng)
            if not 1 <= L.derived_subalgebra().dim <= 3 or L.series().center.dim > 4:
                continue
            if made % 2:
                L = L.change_basis(random_invertible(field, L.dim, rng))
            made += 1
            yield f"two-step #{made}", L


def test_epicenter_matches_line_sweep():
    cases = list(_epicenter_cases())
    assert len(cases) >= 60
    for name, L in cases:
        assert epicenter(L) == sweep_epicenter(L), f"{name} over {L.field}"


def test_capability_abelian():
    assert epicenter(LieAlgebra(G5, 1)).dim != 0
    assert epicenter(LieAlgebra(G5, 2)).dim == 0
    assert epicenter(LieAlgebra(G5, 3)).dim == 0


def test_noncapable_rank2_admissible_values():
    # a non-capable rank-2 stem has multiplier (n-2)(n-3)/2 when its pencil of
    # forms has a rank-2 member, two less when it has none
    found_noncapable = 0
    for name, L in rank2_stem_zoo(G5):
        n = L.dim
        top = (n - 2) * (n - 3) // 2
        if epicenter(L).dim == 0:
            continue
        found_noncapable += 1
        assert schur_dim_oracle(L) == (top if has_rank2_member(L) else top - 2), name
    assert found_noncapable >= 3


def test_h1_plus_h1_is_capable():
    # 6-dim rank-2 stem: lands in the capable 6-dim family over odd characteristic
    assert epicenter(direct_sum(heisenberg(G5, 1), heisenberg(G5, 1))).dim == 0


def test_epicenter_intermediate_dimensions():
    # the sweep distinguishes partial obstructions from unicentral ones:
    # in H(1)+H(2) only the H(2) center direction obstructs capability,
    # while H(2)+H(2) is unicentral (epicenter = whole 2-dim center)
    mixed = direct_sum(heisenberg(G5, 1), heisenberg(G5, 2))
    epi = epicenter(mixed)
    assert epi.dim == 1 and epi != mixed.series().center
    twin = direct_sum(heisenberg(G5, 2), heisenberg(G5, 2))
    assert epicenter(twin) == twin.series().center


def test_oracle_report_bundle():
    r = oracle_report(make_catalog(CatalogId(Family.L5_8), G5))
    assert (r.schur, r.exterior, r.tensor) == (6, 8, 14)
    assert r.epicenter_dim == 0 and r.capable is True
    assert r.epicenter_prime == 5 and r.sweep_error is None

    r = oracle_report(make_catalog(CatalogId(Family.L5_8), QQ))
    assert (r.schur, r.exterior, r.tensor) == (6, 8, 14)
    assert r.epicenter_dim is None and r.capable is None

    r = oracle_report(out_of_scope_algebra(QQ))
    assert r.schur == 10 - 4 - 3  # C(5,2) - rank d2 - dim L^2, computed below
    assert r.exterior is None and r.tensor is None


def test_out_of_scope_multiplier_value():
    # cross-check the value frozen above: rank(d2) for this table is 4
    L = out_of_scope_algebra(QQ)
    assert rref(cochain_complex(L)).dim == 4
    assert schur_dim_oracle(L) == 3
