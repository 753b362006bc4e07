import random

import pytest

from conftest import (
    box_verdicts,
    class2_pencils,
    class3_normal_forms,
    fifth_scaled_l58,
    non_nilpotent,
    out_of_scope_algebra,
    random_class3,
    random_rank2_stem,
    rank2_member_by_enumeration,
    wrong_stem_multiplier,
)

from liemult import LieAlgebra, direct_sum
from liemult.catalog import CatalogId, Family, make_catalog
from liemult.classify import has_rank2_member
from liemult.fields import gf, rationals
from liemult.linalg import random_invertible
from liemult.verify import builtin_suite, cross_check

QQ = rationals()
G5 = gf(5)


def test_cross_check_passes_on_catalog():
    r = cross_check(make_catalog(CatalogId(Family.L6_22, param=1), QQ), "x", capability_prime=5)
    assert r.ok
    assert {c.quantity for c in r.checks} == {"schur", "exterior", "tensor", "corank", "capable"}
    assert r.oracle.schur == 8
    assert r.functors.rule == "capable-L6_22"


def test_cross_check_without_capability():
    r = cross_check(make_catalog(CatalogId(Family.L4_3), QQ))
    assert r.ok
    assert {c.quantity for c in r.checks} == {"schur", "exterior", "tensor", "corank"}
    assert r.oracle.capable is None


def test_cross_check_skips_capability_when_reduction_fails():
    r = cross_check(fifth_scaled_l58(QQ), "fifth", capability_prime=5)
    assert r.ok
    assert {c.quantity for c in r.checks} == {"schur", "exterior", "tensor", "corank"}
    assert r.oracle.capable is None and r.oracle.epicenter_prime is None
    assert "denominator divisible by 5" in r.oracle.sweep_error
    r = cross_check(fifth_scaled_l58(QQ), "fifth", capability_prime=7)
    assert r.ok and r.oracle.capable is True and r.oracle.epicenter_prime == 7


def test_cross_check_prime_field_uses_own_field():
    r = cross_check(make_catalog(CatalogId(Family.L5_8), G5), "l58")
    assert r.ok and r.oracle.capable is True


def test_cross_check_flags_mismatch(monkeypatch):
    wrong_stem_multiplier(monkeypatch)
    r = cross_check(make_catalog(CatalogId(Family.L5_8), G5), "l58")
    assert not r.ok
    failing = {c.quantity for c in r.checks if not c.ok}
    assert failing == {"schur", "exterior", "tensor", "corank"}


def test_cross_check_passes_on_random_pencils():
    # class-2 stems with dim L^2 = 2 outside the catalog: per field, ten of
    # stem dimension 7-10 and thirty of dimension 5-6, an abelian summand
    # A(0-2), a random basis; over Q the capability check needs a reduction
    # prime, so there the four dimensions are compared
    rng = random.Random("random-pencils")
    seen = set()
    families = set()
    for field in (gf(2), gf(3), G5, QQ):
        for case in range(40):
            s = rng.randint(7, 10) if case < 10 else rng.randint(5, 6)
            L = direct_sum(random_rank2_stem(field, s, rng), LieAlgebra(field, rng.randint(0, 2)))
            L = L.change_basis(random_invertible(field, L.dim, rng))
            r = cross_check(L, f"pencil{s}")
            assert r.ok, (field, case, [c for c in r.checks if not c.ok])
            families.add(r.classification.family)
            if s < 7:  # classify reads the pencil from stem dimension 7 on
                assert r.classification.rank2_member is None
                continue
            rank2 = has_rank2_member(L)
            if field.is_prime_field:
                assert rank2 == rank2_member_by_enumeration(L), (field, case)
            seen.add((s == 7, rank2))
            assert r.classification.rank2_member == rank2
    assert seen == {(True, True), (True, False), (False, True), (False, False)}
    assert {Family.L5_8, Family.L6_22, Family.L6_7_2} <= families


def test_cross_check_passes_on_random_class3():
    # class 3 with dim L^2 = 2 outside the catalog: 2-5 generators, an
    # abelian summand A(0-2), a random basis
    rng = random.Random("random-class3")
    stems = set()
    for field in (gf(2), gf(3), G5, QQ):
        for case in range(30):
            L = direct_sum(random_class3(field, rng.randint(2, 5), rng), LieAlgebra(field, rng.randint(0, 2)))
            L = L.change_basis(random_invertible(field, L.dim, rng))
            r = cross_check(L, f"class3-{case}")
            assert r.ok, (field, case, [c for c in r.checks if not c.ok])
            assert r.classification.nil_class == 3
            stems.add((r.classification.family, r.classification.stem_dim))
    assert {(Family.L4_3, 4), (Family.L5_5, 5)} <= stems
    assert {(Family.STEM_CLASS3_DIM2, 6), (Family.STEM_CLASS3_DIM2, 7)} <= stems


@pytest.mark.parametrize("p, expected", [
    (2, {"L6_7_2": 106, "L5_8 + A(1)": 18}),
    (3, {"L6_22": 1356, "L5_8 + A(1)": 96}),
])
def test_cross_check_exhaustive_class2_dim6(p, expected):
    """Every class-2 algebra of dim 6 with dim L^2 = 2 over GF(p), up to a change of basis.

    L^2 is central, so the bracket is a pencil (B1, B2) of alternating forms
    on V = L/L^2, of dim 4, with values in L^2 = <x5, x6>.  GL(V) brings B1
    to the Darboux form of its rank, e12 or e12 + e34, and B2 runs over all
    p^6 alternating forms on V.  The pairs with dim L^2 = 2 are kept; they
    cover every such algebra, most of them many times.  Each one is
    cross-checked, capability included, and the verdicts are pinned.
    """
    assert box_verdicts(class2_pencils(gf(p), 6)) == expected


@pytest.mark.parametrize("p, gens, expected", [
    (2, (2, 3, 4, 5), {
        "L4_3": 2, "L4_3 + A(1)": 4, "L4_3 + A(2)": 8, "L4_3 + A(3)": 16,
        "L5_5": 4, "L5_5 + A(1)": 24, "L5_5 + A(2)": 112,
        "stem_class3_dim2[dim 6]": 32, "stem_class3_dim2[dim 6] + A(1)": 448,
        "stem_class3_dim2[dim 7]": 448,
    }),
    (3, (2, 3, 4), {
        "L4_3": 3, "L4_3 + A(1)": 9, "L4_3 + A(2)": 27,
        "L5_5": 18, "L5_5 + A(1)": 216, "stem_class3_dim2[dim 6]": 486,
    }),
])
def test_cross_check_exhaustive_class3(p, gens, expected):
    """Every class-3 algebra with dim L^2 = 2 on g generators over GF(p), up to a change of basis.

    L^3 is a line <z> in L^2 = <y, z>, and class 3 puts L^3 in the centre, so
    [x, y] = phi(x) z for a linear form phi that vanishes on L^2, and phi is
    not zero, as L^3 = [L, L^2] is spanned by [L, y].  Take x1 with
    phi(x1) = 1 and the other generators x2, ..., xg in ker phi, so [x1, y] = z
    and [xi, y] = 0 for i >= 2.  Jacobi on (x1, xi, xj), i, j >= 2, reads
    [[xi, xj], x1] = 0 once [xi, y] = [xj, y] = 0 and z is central, so the
    y-part of [xi, xj] is zero.  The y-part of [x1, xi], i >= 2, is a linear
    form psi on ker phi.  It is not zero: y lies in L^2 = [L, L], and no
    other bracket of basis vectors has a y-part.  A basis change inside
    ker phi makes psi 1 at x2 and 0 at x3, ..., xg.  So L is
    [x1, x2] = y, [x1, y] = z plus a 2-form w from the generators into z,
    and these p^C(g,2) tables, over g = dim L/L^2, cover every such algebra
    (the shape of `random_class3`).  Each one is cross-checked, capability
    included, and the verdicts are pinned: 1,098 algebras over GF(2), 759
    over GF(3).
    """
    field = gf(p)
    assert box_verdicts(L for g in gens for L in class3_normal_forms(field, g)) == expected


def test_run_suite_sorted_and_green():
    # cross-check the builtin suite the way `liemult check` does: one report per entry, in name order
    reports = sorted((cross_check(alg, name, cap) for name, alg, cap in builtin_suite()), key=lambda r: r.name)
    assert [r.name for r in reports] == sorted(name for name, _, _ in builtin_suite())
    assert all(r.ok for r in reports)
    assert sum(len(r.checks) for r in reports) >= 150


def test_cross_check_out_of_scope_has_no_checks():
    # dim L^2 = 3: the oracle runs, no closed form applies, and nothing can disagree
    r = cross_check(out_of_scope_algebra(QQ), "f", capability_prime=5)
    assert r.ok and r.functors is None and r.checks == ()
    assert not r.classification.in_scope
    assert (r.oracle.schur, r.oracle.exterior, r.oracle.capable) == (3, None, None)
    with pytest.raises(ValueError, match="not nilpotent"):
        cross_check(non_nilpotent(QQ))


def test_builtin_suite_composition():
    entries = builtin_suite()
    names = [name for name, _, _ in entries]
    assert len(entries) >= 30
    assert len(set(names)) == len(names)
    for required in ("L5_8[Q]", "L6_22(1)[GF(3)]", "L6_7_2(0)[GF(2)]", "L1[Q]", "A(4)[Q]"):
        assert required in names
    # every rational entry, A(5) and A(6) included, gets the capability check mod 5
    assert all(prime == 5 for _, alg, prime in entries if not alg.field.is_prime_field)
