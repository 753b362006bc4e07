import random

import pytest

from conftest import (
    heisenberg,
    intersect,
    out_of_scope_algebra,
    random_rank2_stem,
    rank2_member_by_enumeration,
    rank2_stem_zoo,
    stem6_class3,
    stem7_rank2,
)

from liemult import LieAlgebra, direct_sum
from liemult.catalog import CatalogId, Family, make_catalog
from liemult.classify import classify, has_rank2_member, stem_decompose
from liemult.formulas import functor_report
from liemult.fields import gf, rationals
from liemult.linalg import Matrix, random_invertible

QQ = rationals()
G2 = gf(2)
G3 = gf(3)
G5 = gf(5)


def _stem_block(L, decomposition):
    """Extract the stem as its own algebra from the decomposed basis."""
    moved = L.change_basis(decomposition.basis_change)
    s = decomposition.stem_dim
    table = {}
    for (i, j), vec in moved.table.items():
        assert j < s, "bracket touches the abelian block"
        assert not any(vec[s:]), "bracket leaves the stem block"
        table[(i, j)] = vec[:s]
    return moved, LieAlgebra(L.field, s, table)


def test_stem_decompose_split_summand():
    L = direct_sum(heisenberg(QQ, 1), LieAlgebra(QQ, 2))
    d = stem_decompose(L)
    assert (d.stem_dim, d.abelian_dim) == (3, 2)


def test_stem_decompose_after_basis_change():
    rng = random.Random(23)
    L = direct_sum(heisenberg(QQ, 2), LieAlgebra(QQ, 1))
    for _ in range(4):
        moved = L.change_basis(random_invertible(QQ, L.dim, rng))
        d = stem_decompose(moved)
        assert (d.stem_dim, d.abelian_dim) == (5, 1)


def test_stem_decompose_stem_input():
    L = make_catalog(CatalogId(Family.L4_3), QQ)
    d = stem_decompose(L)
    assert (d.stem_dim, d.abelian_dim) == (4, 0)


def test_stem_decompose_rejects_abelian():
    with pytest.raises(ValueError):
        stem_decompose(LieAlgebra(QQ, 3))


def test_stem_center_is_center_cap_derived():
    from liemult.linalg import Matrix, Subspace, invert

    rng = random.Random(9)
    for base in (
        direct_sum(heisenberg(QQ, 1), LieAlgebra(QQ, 3)),
        make_catalog(CatalogId(Family.L5_5, abelian=2), QQ),
        make_catalog(CatalogId(Family.L6_22, param=1, abelian=1), QQ),
        make_catalog(CatalogId(Family.L6_7_2, param=1, abelian=1), G2),
        dict(rank2_stem_zoo(G3))["stem7"],
    ):
        L = base.change_basis(random_invertible(base.field, base.dim, rng))
        core = intersect(L.series().center, L.derived_subalgebra())
        d = stem_decompose(L)
        moved, stem = _stem_block(L, d)
        assert stem.validate() == []
        assert stem.derived_subalgebra().dim == L.derived_subalgebra().dim
        # Z(T) equals Z(L) ∩ L^2 as a subspace, transported to the new basis
        pinv = invert(d.basis_change)
        transported = []
        for row in core.basis.data:
            new_coords = (Matrix(L.field, [row]) @ pinv).data[0]
            assert not any(new_coords[d.stem_dim:])  # lands inside the stem block
            transported.append(new_coords[: d.stem_dim])
        assert stem.series().center == Subspace.span(L.field, d.stem_dim, transported)
        # the abelian block really is central and bracket-free
        assert moved.series().center.dim >= d.abelian_dim


def test_heisenberg_rank_values():
    assert classify(heisenberg(QQ, 1)).rank == 1
    L = direct_sum(heisenberg(QQ, 3), LieAlgebra(QQ, 4))
    assert L.series().center.dim == 5
    assert classify(L).rank == 3


def test_classify_abelian():
    c = classify(LieAlgebra(QQ, 1))
    assert c.family is Family.ABELIAN and not functor_report(c).capable
    c = classify(LieAlgebra(QQ, 6))
    assert c.family is Family.ABELIAN and functor_report(c).capable
    assert c.abelian == 6 and c.stem_dim == 0


def test_classify_heisenberg_families():
    c = classify(direct_sum(heisenberg(QQ, 1), LieAlgebra(QQ, 4)))
    assert c.family is Family.HEISENBERG and c.rank == 1 and c.abelian == 4
    assert functor_report(c).capable

    c = classify(heisenberg(QQ, 2))
    assert c.family is Family.HEISENBERG and c.rank == 2 and c.abelian == 0
    assert not functor_report(c).capable


CATALOG_IDS = [
    (CatalogId(Family.L4_3), QQ),
    (CatalogId(Family.L4_3, abelian=3), G5),
    (CatalogId(Family.L5_5, abelian=1), QQ),
    (CatalogId(Family.L5_8, abelian=2), QQ),
    (CatalogId(Family.L6_22, param=1, abelian=1), QQ),
    (CatalogId(Family.L6_22, param=2, abelian=0), gf(3)),
    (CatalogId(Family.L6_7_2, param=0, abelian=2), gf(2)),
    (CatalogId(Family.L6_7_2, param=1, abelian=0), gf(2)),
    (CatalogId(Family.L1, abelian=1), QQ),
    (CatalogId(Family.HEISENBERG, rank=2, abelian=2), G5),
    (CatalogId(Family.ABELIAN, abelian=4), QQ),
]


@pytest.mark.parametrize("cid,field", CATALOG_IDS)
def test_classify_round_trip(cid, field):
    L = make_catalog(cid, field)
    c = classify(L)
    assert c.family is cid.family
    assert c.abelian == cid.abelian
    if cid.family is Family.HEISENBERG:
        assert c.rank == cid.rank
    assert c.n == cid.base_dim() + cid.abelian


@pytest.mark.parametrize("cid,field", CATALOG_IDS)
def test_classify_basis_change_invariant(cid, field):
    rng = random.Random(f"{cid.family.value}/{cid.abelian}")  # str seeds ignore PYTHONHASHSEED
    L = make_catalog(cid, field)
    moved = L.change_basis(random_invertible(field, L.dim, rng))
    assert classify(moved) == classify(L)


def test_classify_class3_big_stem():
    c = classify(stem6_class3(QQ))
    assert c.family is Family.STEM_CLASS3_DIM2
    assert c.stem_dim == 6 and c.abelian == 0
    assert functor_report(c).capable is False

    c = classify(direct_sum(stem6_class3(QQ), LieAlgebra(QQ, 2)))
    assert c.family is Family.STEM_CLASS3_DIM2 and c.abelian == 2


def test_classify_gen_heisenberg_rank2():
    L = direct_sum(heisenberg(QQ, 1), heisenberg(QQ, 2))  # 8-dim rank-2 stem
    c = classify(L)
    assert c.family is Family.GEN_HEISENBERG_RANK2
    assert c.stem_dim == 8 and not functor_report(c).capable


def test_classify_known_fingerprint_collision():
    # A non-capable 7-dim rank-2 stem shares (class, stem dim) with the capable
    # L1; a rank-2 member of its pencil of forms tells the two apart.
    c = classify(stem7_rank2(QQ))
    assert c.family is Family.GEN_HEISENBERG_RANK2
    assert c.stem_dim == 7 and c.rank2_member
    fr = functor_report(c)
    assert not fr.capable and fr.schur == 10
    c = classify(make_catalog(CatalogId(Family.L1), QQ))
    assert c.family is Family.L1 and c.rank2_member is False


def test_has_rank2_member():
    expected = {"H(1)+H(1)": True, "H(1)+H(2)": True, "H(2)+H(2)": False, "stem7": True}
    rng = random.Random(31)
    for field in (QQ, G2, G3):
        zoo = rank2_stem_zoo(field) + [("L1", make_catalog(CatalogId(Family.L1), field))]
        for name, L in zoo:
            moved = direct_sum(L, LieAlgebra(field, 1))
            moved = moved.change_basis(random_invertible(field, moved.dim, rng))
            assert has_rank2_member(L) == has_rank2_member(moved) == expected.get(name, False)
    for L in (heisenberg(QQ, 2), stem6_class3(QQ), LieAlgebra(QQ, 3)):
        with pytest.raises(ValueError):
            has_rank2_member(L)


def test_class3_stems_have_one_dim_top():
    # class-3 stems with dim L^2 = 2 have L^3 = Z of dimension 1
    for L in (
        make_catalog(CatalogId(Family.L4_3), QQ),
        make_catalog(CatalogId(Family.L5_5), QQ),
        stem6_class3(QQ),
    ):
        rep = L.series()
        assert rep.lower_central_dims()[2] == 1
        assert rep.center == rep.lower_central[2]


def test_classify_out_of_scope():
    c = classify(out_of_scope_algebra(QQ))
    assert not c.in_scope
    assert c.family is None
    with pytest.raises(ValueError):
        functor_report(c)
    assert c.derived_dim == 3
    assert "out of scope" in c.describe()


def test_classify_rejects_non_nilpotent():
    from conftest import non_nilpotent

    with pytest.raises(ValueError):
        classify(non_nilpotent(QQ))


def test_rank2_zoo_members_are_rank2_stems():
    for name, L in rank2_stem_zoo(QQ):
        rep = L.series()
        assert rep.derived_dim == 2, name
        assert rep.nilpotency_class == 2, name
        assert rep.center == rep.lower_central[1], name  # Z = L^2: stem, rank 2


def test_integer_pencil_test_matches_enumeration():
    # seeded class-2 stems with dim L^2 = 2 of dim 7-9, every second one in a
    # random basis, against the p + 1 members of the pencil over GF(p)
    rng = random.Random(30)
    for field in (G2, G3, G5):
        for k in range(12):
            L = random_rank2_stem(field, 7 + k % 3, rng)
            if k % 2:
                L = L.change_basis(random_invertible(field, L.dim, rng))
            assert has_rank2_member(L) == rank2_member_by_enumeration(L), (field, k)


def test_integer_pencil_test_is_invariant_under_rational_scaling():
    # a diagonal basis change with denominators 3 and 7 puts the table over
    # several denominators, and a random basis change after it mixes them;
    # the verdict is that of the given basis, and L1 (no rank-2 member) is
    # still classified as L1, capable
    scale = [QQ.parse(s) for s in ("1/3", "2/7", "-1", "3", "5/21", "1/7", "-7/3", "1", "4/3")]

    def diagonal(n):
        return Matrix(QQ, [[scale[i % len(scale)] if i == j else QQ.zero for j in range(n)] for i in range(n)])

    rng = random.Random(30)
    L1 = make_catalog(CatalogId(Family.L1), QQ)
    cases = rank2_stem_zoo(QQ) + [("L1", L1)]
    cases += [(f"random{s}", random_rank2_stem(QQ, s, rng)) for s in (7, 8, 9, 7, 8, 9)]
    for name, L in cases:
        moved = L.change_basis(diagonal(L.dim))
        assert moved.table != L.table, name
        assert has_rank2_member(moved) == has_rank2_member(L), name
        dense = moved.change_basis(random_invertible(QQ, L.dim, rng))
        assert has_rank2_member(dense) == has_rank2_member(L), name
    c = classify(L1.change_basis(diagonal(L1.dim)))
    assert c.family is Family.L1 and c.rank2_member is False
    assert functor_report(c).capable is True
