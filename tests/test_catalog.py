from fractions import Fraction

import pytest

from conftest import heisenberg, unit

from liemult.algebra import LieAlgebra, direct_sum
from liemult.catalog import CONSTRUCTIBLE, STEMS, CatalogId, Family, make_catalog
from liemult.document import dumps_algebra
from liemult.fields import gf, rationals

QQ = rationals()
G2 = gf(2)
G3 = gf(3)
G5 = gf(5)

# (family, param, field, dim, dim L^2, class, dim Z)
PROFILES = [
    (Family.L4_3, None, QQ, 4, 2, 3, 1),
    (Family.L5_5, None, QQ, 5, 2, 3, 1),
    (Family.L5_8, None, QQ, 5, 2, 2, 2),
    (Family.L6_22, 1, QQ, 6, 2, 2, 2),
    (Family.L6_22, 0, G3, 6, 2, 2, 2),
    (Family.L6_7_2, 0, G2, 6, 2, 2, 2),
    (Family.L6_7_2, 1, G2, 6, 2, 2, 2),
    (Family.L1, None, QQ, 7, 2, 2, 2),
]


@pytest.mark.parametrize("family,param,field,dim,derived,cls,zdim", PROFILES)
def test_catalog_profiles(family, param, field, dim, derived, cls, zdim):
    L = make_catalog(CatalogId(family, param=param), field)
    assert L.dim == dim
    assert L.validate() == []
    rep = L.series()
    assert rep.derived_dim == derived
    assert rep.nilpotency_class == cls
    assert rep.center.dim == zdim


def test_heisenberg_profile():
    for m in (1, 2, 4):
        H = heisenberg(QQ, m)
        assert H.dim == 2 * m + 1
        assert H.validate() == []
        rep = H.series()
        assert rep.derived_dim == 1
        assert rep.nilpotency_class == 2
        assert rep.center.dim == 1


def test_abelian_summand():
    L = make_catalog(CatalogId(Family.HEISENBERG, rank=2, abelian=3), QQ)
    assert L.dim == 8
    rep = L.series()
    assert rep.derived_dim == 1
    assert rep.center.dim == 4


def test_heisenberg_plus_abelian_center():
    # H(1) + A(n-3) has a 1-dim derived subalgebra and an (n-2)-dim center
    for n in (4, 6, 9):
        L = direct_sum(heisenberg(QQ, 1), LieAlgebra(QQ, n - 3))
        rep = L.series()
        assert rep.derived_dim == 1
        assert rep.center.dim == n - 2


def test_characteristic_guards():
    with pytest.raises(ValueError):
        make_catalog(CatalogId(Family.L6_22, param=1), G2)
    with pytest.raises(ValueError):
        make_catalog(CatalogId(Family.L6_7_2, param=0), QQ)
    with pytest.raises(ValueError):
        make_catalog(CatalogId(Family.L6_7_2, param=0), G5)


def test_parameter_lands_in_table():
    L = make_catalog(CatalogId(Family.L6_22, param=2), G5)
    assert L.table[(1, 3)][5] == G5.of(2)
    L0 = make_catalog(CatalogId(Family.L6_22, param=0), QQ)
    assert (1, 3) not in L0.table  # eps = 0 row is dropped as zero
    Leta = make_catalog(CatalogId(Family.L6_7_2, param=1), G2)
    assert Leta.table[(1, 3)][5] == G2.one
    assert Leta.table[(2, 3)] == (G2.zero,) * 4 + (G2.one, G2.one)


def test_abelian_family_total_dim():
    A = make_catalog(CatalogId(Family.ABELIAN, abelian=5), QQ)
    assert A.dim == 5 and A.is_abelian


def test_unbuildable_ids_rejected():
    with pytest.raises(ValueError):
        make_catalog(CatalogId(Family.GEN_HEISENBERG_RANK2), QQ)
    with pytest.raises(ValueError):
        make_catalog(CatalogId(Family.STEM_CLASS3_DIM2), QQ)
    with pytest.raises(ValueError):
        make_catalog(CatalogId(Family.HEISENBERG), QQ)  # rank missing
    with pytest.raises(ValueError):
        make_catalog(CatalogId(Family.HEISENBERG, rank=0), QQ)
    with pytest.raises(ValueError):
        make_catalog(CatalogId(Family.L4_3, abelian=-1), QQ)


def test_fields_the_family_does_not_take_are_rejected():
    # param belongs to the stems with a flag, rank to H; each is refused elsewhere
    for cid in (
        CatalogId(Family.L4_3, param=5),
        CatalogId(Family.L1, param=0),
        CatalogId(Family.ABELIAN, param=1, abelian=2),
        CatalogId(Family.HEISENBERG, rank=1, param=1),
    ):
        with pytest.raises(ValueError, match="takes no parameter"):
            make_catalog(cid, QQ)
    for cid in (
        CatalogId(Family.ABELIAN, rank=3),
        CatalogId(Family.L5_8, rank=1),
        CatalogId(Family.L6_22, rank=2, param=1),
    ):
        with pytest.raises(ValueError, match="takes no rank"):
            make_catalog(cid, QQ)
    assert make_catalog(CatalogId(Family.L6_22, param=5), QQ).dim == 6
    assert make_catalog(CatalogId(Family.L6_7_2, param=1), G2).dim == 6


def test_total_dim_bookkeeping():
    cid = CatalogId(Family.L5_8, abelian=4)
    assert cid.base_dim() == 5
    assert make_catalog(cid, QQ).dim == 9
    assert set(CONSTRUCTIBLE) == {
        Family.ABELIAN, Family.HEISENBERG, Family.L4_3, Family.L5_5,
        Family.L5_8, Family.L6_22, Family.L6_7_2, Family.L1,
    }


def test_one_table_equals_the_core_plus_its_abelian_summand(monkeypatch):
    # make_catalog lays out core + A(k) as one table of width base + k and
    # builds one algebra; it must equal direct_sum(core, A(k)) in every stored
    # form and in the document it writes
    stores = []
    real_store = LieAlgebra._store
    monkeypatch.setattr(LieAlgebra, "_store", lambda self, *a: stores.append(self) or real_store(self, *a))
    ids = [(CatalogId(Family.L6_22, param=Fraction(3, 4)), QQ)]
    for family in CONSTRUCTIBLE:
        for field in (QQ, G2, G3, G5):
            if family in STEMS and not STEMS[family].allows(field.char):
                continue
            ranks = (1, 2, 3) if family is Family.HEISENBERG else (None,)
            ids += [(CatalogId(family, rank=m), field) for m in ranks]
    checked = 0
    for cid, field in ids:
        core = make_catalog(cid, field)
        for k in range(4):
            stores.clear()
            L = make_catalog(CatalogId(cid.family, cid.rank, cid.param, cid.abelian + k), field)
            assert len(stores) == 1, (cid, field, k)  # one LieAlgebra per call
            if cid.family is Family.ABELIAN:  # A(k) has no core: its total dimension is k
                assert L.dim == k and L.is_abelian
                continue
            reference = direct_sum(core, LieAlgebra(field, k))
            assert (L.dim, L.table, L.labels) == (reference.dim, reference.table, reference.labels), (cid, field, k)
            assert L._adjoint == reference._adjoint and dumps_algebra(L) == dumps_algebra(reference), (cid, field, k)
            if cid.family is Family.HEISENBERG:  # the central generator is x_{2m+1}, not the last one
                assert L.structure_vector(0, 1) == tuple(map(field.of, unit(L.dim, 2 * cid.rank))), (cid, field, k)
            checked += 1
    assert checked == 4 * (len(ids) - 4)  # every id but A over the four fields
