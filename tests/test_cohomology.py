import random

import pytest

from conftest import jacobi_breaker, out_of_scope_algebra, rank2_stem_zoo, stem6_class3

from liemult import abelian, cohomology, direct_sum, heisenberg
from liemult.catalog import CatalogId, Family, make_catalog
from liemult.cohomology import (
    ComplexIntegrityError,
    cochain_complex,
    epicenter,
    is_capable_oracle,
    oracle_report,
    pair_basis,
    schur_dim_oracle,
    triple_basis,
)
from liemult.fields import gf, rationals
from liemult.linalg import Matrix, random_invertible

QQ = rationals()
G2 = gf(2)
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
    L = make_catalog(CatalogId(Family.L4_3), QQ)
    cc = cochain_complex(L)
    pairs = pair_basis(4)
    d1_expected = Matrix.zeros(QQ, 6, 4).data
    d1_expected = [list(r) for r in d1_expected]
    d1_expected[pairs.index((0, 1))][2] = QQ.of(-1)
    d1_expected[pairs.index((0, 2))][3] = QQ.of(-1)
    assert cc.d1 == Matrix(QQ, d1_expected)

    d2_expected = [[QQ.zero] * 6 for _ in range(4)]
    d2_expected[0][pairs.index((1, 3))] = QQ.of(-1)  # triple (0,1,2)
    d2_expected[1][pairs.index((2, 3))] = QQ.of(-1)  # triple (0,1,3)
    assert cc.d2 == Matrix(QQ, d2_expected)
    assert cc.derived_dim == 2


def test_complex_is_actually_a_complex():
    for L in (
        make_catalog(CatalogId(Family.L1), QQ),
        make_catalog(CatalogId(Family.L6_7_2, param=1), G2),
        stem6_class3(G5),
    ):
        cc = cochain_complex(L)
        assert (cc.d2 @ cc.d1).is_zero()


def test_integrity_check_rejects_jacobi_violation():
    with pytest.raises(ComplexIntegrityError):
        cochain_complex(jacobi_breaker(QQ))


def test_multiplier_abelian():
    for n in range(0, 8):
        assert schur_dim_oracle(abelian(QQ, n)) == n * (n - 1) // 2


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
    r = oracle_report(abelian(QQ, 3))
    assert r.exterior == 3
    assert r.tensor == 9


def test_regime_guard(monkeypatch):
    # the multiplier is fine for any table; the rest needs dim L^2 <= 2
    def no_sweep(L):
        raise AssertionError("out-of-scope tables must not be swept")

    monkeypatch.setattr(cohomology, "epicenter", no_sweep)
    for field, prime in ((QQ, 5), (G5, None)):
        r = oracle_report(out_of_scope_algebra(field), capability_prime=prime)
        assert r.schur == 3
        assert (r.exterior, r.tensor, r.capable) == (None, None, None)
        assert (r.epicenter_prime, r.epicenter_dim, r.sweep_error) == (None, None, None)


def test_epicenter_heisenberg():
    h1 = heisenberg(G5, 1)
    assert epicenter(h1).dim == 0
    assert is_capable_oracle(h1)

    h2 = heisenberg(G5, 2)
    epi = epicenter(h2)
    assert epi == h2.center()  # unicentral
    assert not is_capable_oracle(h2)


def test_epicenter_named_stems():
    assert is_capable_oracle(make_catalog(CatalogId(Family.L4_3), G5))
    assert is_capable_oracle(make_catalog(CatalogId(Family.L1), G5))
    assert is_capable_oracle(make_catalog(CatalogId(Family.L6_7_2, param=1), G2))


def test_epicenter_class3_stem_is_center():
    T = stem6_class3(G5)
    epi = epicenter(T)
    assert epi.dim == 1
    assert epi == T.center()


def test_epicenter_contained_in_center():
    for L in (heisenberg(G5, 2), stem6_class3(G5), direct_sum(heisenberg(G5, 1), abelian(G5, 2))):
        assert L.center().contains_subspace(epicenter(L))


def test_epicenter_ignores_abelian_summands():
    for make in (
        lambda f: make_catalog(CatalogId(Family.L4_3), f),
        lambda f: make_catalog(CatalogId(Family.L5_8), f),
        lambda f: heisenberg(f, 2),
        lambda f: stem6_class3(f),
    ):
        T = make(G5)
        padded = direct_sum(T, abelian(G5, 2))
        assert epicenter(padded).dim == epicenter(T).dim


def test_epicenter_needs_prime_field():
    with pytest.raises(ValueError):
        epicenter(heisenberg(QQ, 1))


def test_capability_abelian():
    assert not is_capable_oracle(abelian(G5, 1))
    assert is_capable_oracle(abelian(G5, 2))
    assert is_capable_oracle(abelian(G5, 3))


def test_noncapable_rank2_admissible_values():
    # non-capable rank-2 stems carry one of the two admissible multiplier values
    found_noncapable = 0
    for name, L in rank2_stem_zoo(G5):
        n = L.dim
        top = (n - 2) * (n - 3) // 2
        if is_capable_oracle(L):
            continue
        found_noncapable += 1
        assert schur_dim_oracle(L) in {top - 2, top}, name
    assert found_noncapable >= 3


def test_h1_plus_h1_is_capable():
    # 6-dim rank-2 stem: lands in the capable 6-dim family over odd characteristic
    assert is_capable_oracle(direct_sum(heisenberg(G5, 1), heisenberg(G5, 1)))


def test_epicenter_intermediate_dimensions():
    # the sweep distinguishes partial obstructions from unicentral ones:
    # in H(1)+H(2) only the H(2) center direction obstructs capability,
    # while H(2)+H(2) is unicentral (epicenter = whole 2-dim center)
    mixed = direct_sum(heisenberg(G5, 1), heisenberg(G5, 2))
    epi = epicenter(mixed)
    assert epi.dim == 1 and epi != mixed.center()
    twin = direct_sum(heisenberg(G5, 2), heisenberg(G5, 2))
    assert epicenter(twin) == twin.center()


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
    from liemult.linalg import rref

    L = out_of_scope_algebra(QQ)
    cc = cochain_complex(L)
    assert rref(cc.d2)[1] == 4
    assert schur_dim_oracle(L) == 3
