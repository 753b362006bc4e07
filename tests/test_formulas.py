from dataclasses import replace

import pytest

from conftest import stem6_class3

from liemult import abelian, direct_sum, heisenberg
from liemult.catalog import STEMS, CatalogId, Family, make_catalog
from liemult.classify import classify
from liemult.cohomology import schur_dim_oracle
from liemult.fields import gf, rationals
from liemult.formulas import (
    corank,
    exterior_dim,
    functor_report,
    is_capable,
    rule_id,
    schur_dim,
    square_dim,
    tensor_dim,
)

QQ = rationals()
G2 = gf(2)


def cls_of(cid, field=QQ):
    return classify(make_catalog(cid, field))


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
    assert schur_dim(c) == m
    assert exterior_dim(c) == wedge
    assert tensor_dim(c) == tensor
    if stem.char2 is not None:
        refused = QQ if stem.char2 else G2
        with pytest.raises(ValueError, match="requires characteristic"):
            make_catalog(cid, refused)


def test_abelian_values():
    for n in range(0, 8):
        c = cls_of(CatalogId(Family.ABELIAN, abelian=n))
        assert schur_dim(c) == n * (n - 1) // 2
        assert exterior_dim(c) == n * (n - 1) // 2
        assert tensor_dim(c) == n * n
        assert corank(c) == 0
        assert is_capable(c) == (n != 1)  # A(0) = A(1)/Z(A(1)) is capable


def test_heisenberg_values():
    c = cls_of(CatalogId(Family.HEISENBERG, rank=1))
    assert schur_dim(c) == 2
    c = cls_of(CatalogId(Family.HEISENBERG, rank=2))
    # (n-1)(n-2)/2 - 1 at n = 5 agrees with the rank form 2m^2 - m - 1
    assert schur_dim(c) == 5 == 2 * 4 - 2 - 1
    for m in (2, 3, 4):
        c = cls_of(CatalogId(Family.HEISENBERG, rank=m))
        assert schur_dim(c) == 2 * m * m - m - 1


def test_heisenberg_with_summand():
    c = cls_of(CatalogId(Family.HEISENBERG, rank=2, abelian=1))  # n = 6
    assert schur_dim(c) == 9
    assert corank(c) == 6
    assert not is_capable(c)
    c = cls_of(CatalogId(Family.HEISENBERG, rank=1, abelian=1))  # n = 4
    assert corank(c) == 2  # n - 2


def test_l4_3_with_summand():
    c = cls_of(CatalogId(Family.L4_3, abelian=2))  # n = 6
    assert schur_dim(c) == 7  # (n-1)(n-4)/2 + 2


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
            assert schur_dim(c) == paper(c.n), (cid, k)
            assert corank(c) == c.n * (c.n - 1) // 2 - paper(c.n)
        for build, family, paper in PAPER_VERDICTS:
            c = classify(direct_sum(build(QQ), abelian(QQ, k)))
            assert (c.family, c.abelian) == (family, k)
            assert schur_dim(c) == paper(c.n), (family, k)
        assert corank(cls_of(CatalogId(Family.HEISENBERG, rank=1, abelian=k))) == (3 + k) - 2
        assert corank(cls_of(CatalogId(Family.L5_8, abelian=k))) == 2 * (5 + k) - 6
        assert corank(cls_of(CatalogId(Family.L6_22, param=1, abelian=k))) == 2 * (6 + k) - 5
        assert corank(cls_of(CatalogId(Family.L6_7_2, param=1, abelian=k), G2)) == 2 * (6 + k) - 5
        assert corank(cls_of(CatalogId(Family.L1, abelian=k))) == 2 * (7 + k) - 2
        assert corank(cls_of(CatalogId(Family.L4_3, abelian=k))) == 2 * (4 + k) - 4
        assert corank(cls_of(CatalogId(Family.L5_5, abelian=k))) == 2 * (5 + k) - 4


def test_noncapable_class3_stem_values():
    c = classify(stem6_class3(QQ))
    n = 6
    assert schur_dim(c) == (n - 2) * (n - 3) // 2 == 6
    assert exterior_dim(c) == 8
    assert tensor_dim(c) == n * n - 4 * n + 6 == 18
    assert corank(c) == 2 * n - 3 == 9
    assert not is_capable(c)
    assert rule_id(c) == "noncapable-class3-stem"


def test_noncapable_class2_admissible_set():
    # the pencil invariant picks one of the two values (n-2)(n-3)/2 - 2, (n-2)(n-3)/2
    L = direct_sum(heisenberg(QQ, 1), heisenberg(QQ, 2))  # 8-dim stem with a rank-2 member
    c = classify(L)
    n = 8
    top = (n - 2) * (n - 3) // 2
    assert c.rank2_member is True
    assert schur_dim(c) == top == 15
    assert corank(c) == 2 * n - 3
    assert exterior_dim(c) == top + 2
    assert rule_id(c) == "noncapable-class2-rank2"
    assert not is_capable(c)
    L = direct_sum(heisenberg(QQ, 2), heisenberg(QQ, 2))  # 10-dim stem, no rank-2 member
    c = classify(L)
    n = 10
    top = (n - 2) * (n - 3) // 2
    assert c.rank2_member is False
    assert schur_dim(c) == top - 2 == 26
    assert corank(c) == 2 * n - 1
    assert rule_id(c) == "noncapable-class2-rank2"
    assert not is_capable(c)


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
        assert schur_dim(c) + d == exterior_dim(c)
        assert exterior_dim(c) + square_dim(n, d) == tensor_dim(c)
        assert schur_dim(c) + corank(c) == n * (n - 1) // 2


def test_square_dim():
    assert square_dim(5, 2) == 6
    assert square_dim(7, 2) == 15
    assert square_dim(4, 0) == 10
    assert square_dim(0, 0) == 0


def test_direct_sum_additivity_on_heisenberg():
    # H(1) + A(k): the multiplier adds the pieces plus the abelianization product
    for k in (0, 1, 2, 3):
        c = cls_of(CatalogId(Family.HEISENBERG, rank=1, abelian=k))
        parts = 2 + k * (k - 1) // 2 + 2 * k
        assert schur_dim(c) == parts


def test_out_of_scope_raises():
    from conftest import out_of_scope_algebra

    c = classify(out_of_scope_algebra(QQ))
    for fn in (schur_dim, exterior_dim, tensor_dim, corank, is_capable, rule_id):
        with pytest.raises(ValueError):
            fn(c)
    with pytest.raises(ValueError):
        functor_report(c)


def test_functor_report_bundle():
    fr = functor_report(cls_of(CatalogId(Family.L5_8)))
    assert (fr.schur, fr.exterior, fr.tensor, fr.square, fr.corank) == (6, 8, 14, 6, 4)
    assert fr.capable
    assert fr.rule == "capable-L5_8"


def test_capability_table():
    assert is_capable(cls_of(CatalogId(Family.HEISENBERG, rank=1, abelian=5)))
    assert not is_capable(cls_of(CatalogId(Family.HEISENBERG, rank=3, abelian=2)))
    assert is_capable(cls_of(CatalogId(Family.L6_22, param=1, abelian=1)))
    assert is_capable(cls_of(CatalogId(Family.L6_7_2, param=0), G2))
    assert not is_capable(classify(direct_sum(stem6_class3(QQ), abelian(QQ, 1))))
