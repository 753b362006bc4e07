import pytest

from conftest import stem6_class3

from liemult import abelian, direct_sum, heisenberg
from liemult.catalog import CatalogId, Family, make_catalog
from liemult.classify import classify
from liemult.fields import gf, rationals
from liemult.formulas import (
    admissible,
    corank,
    exterior_dim,
    exterior_is_abelian,
    functor_report,
    is_capable,
    matches,
    rule_id,
    schur_dim,
    square_dim,
    shift,
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


@pytest.mark.parametrize("cid,field,m,wedge,tensor", BASE_POINTS)
def test_named_stem_base_points(cid, field, m, wedge, tensor):
    c = cls_of(cid, field)
    assert schur_dim(c) == m
    assert exterior_dim(c) == wedge
    assert tensor_dim(c) == tensor


def test_abelian_values():
    for n in range(0, 8):
        c = cls_of(CatalogId(Family.ABELIAN, abelian=n))
        assert schur_dim(c) == n * (n - 1) // 2
        assert exterior_dim(c) == n * (n - 1) // 2
        assert tensor_dim(c) == n * n
        assert corank(c) == 0
        assert is_capable(c) == (n > 1)


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


def test_corank_closed_forms():
    for k in range(0, 5):
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
    L = direct_sum(heisenberg(QQ, 1), heisenberg(QQ, 2))  # 8-dim rank-2 stem
    c = classify(L)
    n = 8
    top = (n - 2) * (n - 3) // 2
    value = schur_dim(c)
    assert admissible(value) == (top - 2, top)
    assert matches(value, top) and matches(value, top - 2) and not matches(value, top - 1)
    assert admissible(corank(c)) == (2 * n - 3, 2 * n - 1)
    assert admissible(exterior_dim(c)) == (top, top + 2)
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
    for cid in ids:
        c = cls_of(cid)
        n, d = c.n, c.derived_dim
        assert shift(schur_dim(c), d) == exterior_dim(c)
        assert shift(exterior_dim(c), square_dim(n, d)) == tensor_dim(c)
        assert shift(corank(c), 0) == corank(c)
        total = n * (n - 1) // 2
        for s_val, t_val in zip(admissible(schur_dim(c)), reversed(admissible(corank(c)))):
            assert s_val + t_val == total


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


def test_exterior_is_abelian_everywhere_in_scope():
    for cid in (
        CatalogId(Family.HEISENBERG, rank=1),
        CatalogId(Family.L4_3),
        CatalogId(Family.L5_5, abelian=2),
        CatalogId(Family.ABELIAN, abelian=3),
    ):
        assert exterior_is_abelian(cls_of(cid))


def test_out_of_scope_raises():
    from conftest import out_of_scope_algebra

    c = classify(out_of_scope_algebra(QQ))
    for fn in (schur_dim, exterior_dim, tensor_dim, corank, is_capable, exterior_is_abelian, rule_id):
        with pytest.raises(ValueError):
            fn(c)
    with pytest.raises(ValueError):
        functor_report(c)


def test_functor_report_bundle():
    fr = functor_report(cls_of(CatalogId(Family.L5_8)))
    assert (fr.schur, fr.exterior, fr.tensor, fr.square, fr.corank) == (6, 8, 14, 6, 4)
    assert fr.capable and fr.exterior_abelian
    assert fr.rule == "capable-L5_8"


def test_capability_table():
    assert is_capable(cls_of(CatalogId(Family.HEISENBERG, rank=1, abelian=5)))
    assert not is_capable(cls_of(CatalogId(Family.HEISENBERG, rank=3, abelian=2)))
    assert is_capable(cls_of(CatalogId(Family.L6_22, param=1, abelian=1)))
    assert is_capable(cls_of(CatalogId(Family.L6_7_2, param=0), G2))
    assert not is_capable(classify(direct_sum(stem6_class3(QQ), abelian(QQ, 1))))
