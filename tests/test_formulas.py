from dataclasses import replace

import pytest

from conftest import heisenberg, stem6_class3

from liemult import LieAlgebra, direct_sum
from liemult.catalog import STEMS, CatalogId, Family, make_catalog
from liemult.classify import classify
from liemult.cohomology import schur_dim_oracle
from liemult.fields import gf, rationals
from liemult.formulas import functor_report

QQ = rationals()
G2 = gf(2)


def cls_of(cid, field=QQ):
    return classify(make_catalog(cid, field))


def fr_of(cid, field=QQ):
    return functor_report(cls_of(cid, field))


# multiplier / exterior / tensor of the six named stems at their base dimension
BASE_POINTS = [
    (CatalogId(Family.L5_8), QQ, 6, 8, 14),
    (CatalogId(Family.L6_22, param=1), QQ, 8, 10, 20),
    (CatalogId(Family.L6_7_2, param=1), G2, 8, 10, 20),
    (CatalogId(Family.L1), QQ, 9, 11, 26),
    (CatalogId(Family.L4_3), QQ, 2, 4, 7),
    (CatalogId(Family.L5_5), QQ, 4, 6, 12),
]


def test_base_points_cover_stem_table():
    assert sorted(cid.family.value for cid, *_ in BASE_POINTS) == sorted(f.value for f in STEMS)


@pytest.mark.parametrize("cid,field,m,wedge,tensor", BASE_POINTS)
def test_named_stem_base_points(cid, field, m, wedge, tensor):
    # every row of the stem table is checked against its own algebra and the oracle
    stem = STEMS[cid.family]
    L = make_catalog(cid, field)
    c = classify(L)
    assert (c.family, c.stem_dim, c.nil_class, c.abelian) == (cid.family, stem.dim, stem.nil_class, 0)
    assert schur_dim_oracle(L) == stem.schur
    fr = functor_report(c)
    assert (fr.schur, fr.exterior, fr.tensor) == (m, wedge, tensor)
    if stem.char2 is not None:
        refused = QQ if stem.char2 else G2
        with pytest.raises(ValueError, match="requires characteristic"):
            make_catalog(cid, refused)


def test_abelian_values():
    for n in range(0, 8):
        fr = fr_of(CatalogId(Family.ABELIAN, abelian=n))
        assert fr.schur == n * (n - 1) // 2
        assert fr.exterior == n * (n - 1) // 2
        assert fr.tensor == n * n
        assert fr.corank == 0
        assert fr.capable == (n != 1)  # A(0) = A(1)/Z(A(1)) is capable


def test_heisenberg_values():
    assert fr_of(CatalogId(Family.HEISENBERG, rank=1)).schur == 2
    # (n-1)(n-2)/2 - 1 at n = 5 agrees with the rank form 2m^2 - m - 1
    assert fr_of(CatalogId(Family.HEISENBERG, rank=2)).schur == 5 == 2 * 4 - 2 - 1
    for m in (2, 3, 4):
        assert fr_of(CatalogId(Family.HEISENBERG, rank=m)).schur == 2 * m * m - m - 1


def test_heisenberg_with_summand():
    fr = fr_of(CatalogId(Family.HEISENBERG, rank=2, abelian=1))  # n = 6
    assert fr.schur == 9
    assert fr.corank == 6
    assert not fr.capable
    fr = fr_of(CatalogId(Family.HEISENBERG, rank=1, abelian=1))  # n = 4
    assert fr.corank == 2  # n - 2


def test_l4_3_with_summand():
    assert fr_of(CatalogId(Family.L4_3, abelian=2)).schur == 7  # n = 6: (n-1)(n-4)/2 + 2


# the multiplier of T + A(k) as the paper states it, in the total dimension n
PAPER_SCHUR = [
    (CatalogId(Family.L5_8), QQ, lambda n: n * (n - 5) // 2 + 6),
    (CatalogId(Family.L6_22, param=1), QQ, lambda n: (n + 1) * (n - 6) // 2 + 8),
    (CatalogId(Family.L6_7_2, param=1), G2, lambda n: (n + 1) * (n - 6) // 2 + 8),
    (CatalogId(Family.L1), QQ, lambda n: (n + 2) * (n - 7) // 2 + 9),
    (CatalogId(Family.L4_3), QQ, lambda n: (n - 1) * (n - 4) // 2 + 2),
    (CatalogId(Family.L5_5), QQ, lambda n: n * (n - 5) // 2 + 4),
    (CatalogId(Family.HEISENBERG, rank=1), QQ, lambda n: (n - 1) * (n - 2) // 2 + 1),
    (CatalogId(Family.HEISENBERG, rank=2), QQ, lambda n: (n - 1) * (n - 2) // 2 - 1),
    (CatalogId(Family.HEISENBERG, rank=3), G2, lambda n: (n - 1) * (n - 2) // 2 - 1),
    (CatalogId(Family.ABELIAN), QQ, lambda n: n * (n - 1) // 2),
]
PAPER_VERDICTS = [  # the open-ended verdicts: (n-2)(n-3)/2, minus 2 with no rank-2 member
    (stem6_class3, Family.STEM_CLASS3_DIM2, lambda n: (n - 2) * (n - 3) // 2),
    (lambda f: direct_sum(heisenberg(f, 1), heisenberg(f, 2)), Family.GEN_HEISENBERG_RANK2,
     lambda n: (n - 2) * (n - 3) // 2),
    (lambda f: direct_sum(heisenberg(f, 2), heisenberg(f, 2)), Family.GEN_HEISENBERG_RANK2,
     lambda n: (n - 2) * (n - 3) // 2 - 2),
]


def test_corank_closed_forms():
    for k in range(0, 5):
        for cid, field, paper in PAPER_SCHUR:
            c = cls_of(replace(cid, abelian=k), field)
            fr = functor_report(c)
            assert fr.schur == paper(c.n), (cid, k)
            assert fr.corank == c.n * (c.n - 1) // 2 - paper(c.n)
        for build, family, paper in PAPER_VERDICTS:
            c = classify(direct_sum(build(QQ), LieAlgebra(QQ, k)))
            assert (c.family, c.abelian) == (family, k)
            assert functor_report(c).schur == paper(c.n), (family, k)
        assert fr_of(CatalogId(Family.HEISENBERG, rank=1, abelian=k)).corank == (3 + k) - 2
        assert fr_of(CatalogId(Family.L5_8, abelian=k)).corank == 2 * (5 + k) - 6
        assert fr_of(CatalogId(Family.L6_22, param=1, abelian=k)).corank == 2 * (6 + k) - 5
        assert fr_of(CatalogId(Family.L6_7_2, param=1, abelian=k), G2).corank == 2 * (6 + k) - 5
        assert fr_of(CatalogId(Family.L1, abelian=k)).corank == 2 * (7 + k) - 2
        assert fr_of(CatalogId(Family.L4_3, abelian=k)).corank == 2 * (4 + k) - 4
        assert fr_of(CatalogId(Family.L5_5, abelian=k)).corank == 2 * (5 + k) - 4


def test_noncapable_class3_stem_values():
    fr = functor_report(classify(stem6_class3(QQ)))
    n = 6
    assert fr.schur == (n - 2) * (n - 3) // 2 == 6
    assert fr.exterior == 8
    assert fr.tensor == n * n - 4 * n + 6 == 18
    assert fr.corank == 2 * n - 3 == 9
    assert not fr.capable
    assert fr.rule == "noncapable-class3-stem"


def test_noncapable_class2_admissible_set():
    # the pencil invariant picks one of the two values (n-2)(n-3)/2 - 2, (n-2)(n-3)/2
    L = direct_sum(heisenberg(QQ, 1), heisenberg(QQ, 2))  # 8-dim stem with a rank-2 member
    c = classify(L)
    n = 8
    top = (n - 2) * (n - 3) // 2
    assert c.rank2_member is True
    fr = functor_report(c)
    assert fr.schur == top == 15
    assert fr.corank == 2 * n - 3
    assert fr.exterior == top + 2
    assert fr.rule == "noncapable-class2-rank2"
    assert not fr.capable
    L = direct_sum(heisenberg(QQ, 2), heisenberg(QQ, 2))  # 10-dim stem, no rank-2 member
    c = classify(L)
    n = 10
    top = (n - 2) * (n - 3) // 2
    assert c.rank2_member is False
    fr = functor_report(c)
    assert fr.schur == top - 2 == 26
    assert fr.corank == 2 * n - 1
    assert fr.rule == "noncapable-class2-rank2"
    assert not fr.capable


def test_exact_sequence_identities():
    ids = [
        CatalogId(Family.HEISENBERG, rank=1, abelian=2),
        CatalogId(Family.L4_3, abelian=1),
        CatalogId(Family.L5_8, abelian=3),
        CatalogId(Family.L1, abelian=2),
        CatalogId(Family.ABELIAN, abelian=5),
    ]
    classes = [cls_of(cid) for cid in ids]
    classes.append(classify(direct_sum(heisenberg(QQ, 1, 1), heisenberg(QQ, 2))))
    for c in classes:
        n, d = c.n, c.derived_dim
        fr = functor_report(c)
        assert fr.schur + d == fr.exterior
        assert fr.exterior + fr.square == fr.tensor
        assert fr.schur + fr.corank == n * (n - 1) // 2


def test_square_dim():
    # m(m+1)/2 with m = n - dim L^2
    assert fr_of(CatalogId(Family.L5_8)).square == 6  # n = 5, dim L^2 = 2
    assert fr_of(CatalogId(Family.L1)).square == 15  # n = 7
    assert fr_of(CatalogId(Family.ABELIAN, abelian=4)).square == 10
    assert fr_of(CatalogId(Family.ABELIAN)).square == 0


def test_direct_sum_additivity_on_heisenberg():
    # H(1) + A(k): the multiplier adds the pieces plus the abelianization product
    for k in (0, 1, 2, 3):
        parts = 2 + k * (k - 1) // 2 + 2 * k
        assert fr_of(CatalogId(Family.HEISENBERG, rank=1, abelian=k)).schur == parts


def test_out_of_scope_raises():
    from conftest import out_of_scope_algebra

    c = classify(out_of_scope_algebra(QQ))
    with pytest.raises(ValueError):
        functor_report(c)


def test_functor_report_bundle():
    fr = functor_report(cls_of(CatalogId(Family.L5_8)))
    assert (fr.schur, fr.exterior, fr.tensor, fr.square, fr.corank) == (6, 8, 14, 6, 4)
    assert fr.capable
    assert fr.rule == "capable-L5_8"


def test_capability_table():
    assert fr_of(CatalogId(Family.HEISENBERG, rank=1, abelian=5)).capable
    assert not fr_of(CatalogId(Family.HEISENBERG, rank=3, abelian=2)).capable
    assert fr_of(CatalogId(Family.L6_22, param=1, abelian=1)).capable
    assert fr_of(CatalogId(Family.L6_7_2, param=0), G2).capable
    assert not functor_report(classify(direct_sum(stem6_class3(QQ), LieAlgebra(QQ, 1)))).capable
