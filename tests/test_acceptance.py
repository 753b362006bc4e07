"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
Every assertion is exact integer equality; no tolerances anywhere.
"""

import random
import time

from conftest import rank2_stem_zoo, stem6_class3

from liemult import abelian, cohomology, direct_sum, heisenberg
from liemult.catalog import CatalogId, Family, make_catalog
from liemult.classify import classify
from liemult.cohomology import (
    ComplexIntegrityError,
    cochain_complex,
    epicenter,
    is_capable_oracle,
    oracle_report,
    schur_dim_oracle,
)
from liemult.fields import gf, rationals
from liemult.formulas import corank, exterior_dim, matches, schur_dim, tensor_dim
from liemult.linalg import Subspace, random_invertible, rref

QQ = rationals()
G2 = gf(2)
G3 = gf(3)
G5 = gf(5)
G7 = gf(7)

#: algebras the criteria touch, re-checked explicitly by criterion 10
TOUCHED = []


def _touch(L):
    TOUCHED.append(L)
    return L


def _passed(num, text):
    print(f"criterion {num:2d} PASS: {text}")


GOLDEN_SIX = [
    ("L5_8", CatalogId(Family.L5_8), QQ, 6, 8, 14),
    ("L6_22(1)/GF(3)", CatalogId(Family.L6_22, param=1), G3, 8, 10, 20),
    ("L6_22(1)/Q", CatalogId(Family.L6_22, param=1), QQ, 8, 10, 20),
    ("L6_7_2(0)", CatalogId(Family.L6_7_2, param=0), G2, 8, 10, 20),
    ("L6_7_2(1)", CatalogId(Family.L6_7_2, param=1), G2, 8, 10, 20),
    ("L1", CatalogId(Family.L1), QQ, 9, 11, 26),
    ("L4_3", CatalogId(Family.L4_3), QQ, 2, 4, 7),
    ("L5_5", CatalogId(Family.L5_5), QQ, 4, 6, 12),
]


def test_criterion_01_golden_multiplier_table():
    start = time.perf_counter()
    for name, cid, field, m_expected, _, _ in GOLDEN_SIX:
        L = _touch(make_catalog(cid, field))
        c = classify(L)
        assert schur_dim(c) == m_expected, name
        assert schur_dim_oracle(L) == m_expected, name
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"golden table took {elapsed:.2f}s"
    _passed(1, f"multiplier table (6, 8, 8, 9, 2, 4) by formula and oracle in {elapsed:.2f}s")


def test_criterion_02_exterior_tensor_table():
    for name, cid, field, _, wedge, tensor in GOLDEN_SIX:
        L = _touch(make_catalog(cid, field))
        r = oracle_report(L)
        assert r.exterior == wedge, name
        assert r.tensor == tensor, name
    _passed(2, "exterior/tensor table (8,14) (10,20) (10,20) (11,26) (4,7) (6,12)")


def test_criterion_03_heisenberg_family():
    for m in range(1, 5):
        for k in range(0, 4):
            L = _touch(heisenberg(G5, m, k))
            c = classify(L)
            formula = schur_dim(c)
            oracle = schur_dim_oracle(L)
            assert formula == oracle, (m, k)
            if k == 0:
                expected = 2 if m == 1 else 2 * m * m - m - 1
                assert oracle == expected, (m, k)
            assert is_capable_oracle(L) == (m == 1), (m, k)
    _passed(3, "H(m)+A(k) grid m<=4 k<=3: formula = oracle, capable over GF(5) iff m = 1")


def test_criterion_04_abelian_family():
    for n in range(1, 9):
        L = _touch(abelian(QQ, n))
        c = classify(L)
        assert schur_dim(c) == n * (n - 1) // 2 == schur_dim_oracle(L)
        assert tensor_dim(c) == n * n == oracle_report(L).tensor
        assert corank(c) == 0
    _passed(4, "A(n) n<=8: multiplier n(n-1)/2, tensor n^2, corank 0")


CAPABLE_SWEEPS = [
    (CatalogId(Family.HEISENBERG, rank=1), QQ, lambda n: n - 2),
    (CatalogId(Family.L5_8), QQ, lambda n: 2 * n - 6),
    (CatalogId(Family.L6_22, param=1), QQ, lambda n: 2 * n - 5),
    (CatalogId(Family.L6_7_2, param=1), G2, lambda n: 2 * n - 5),
    (CatalogId(Family.L1), QQ, lambda n: 2 * n - 2),
    (CatalogId(Family.L4_3), QQ, lambda n: 2 * n - 4),
    (CatalogId(Family.L5_5), QQ, lambda n: 2 * n - 4),
]


def test_criterion_05_capable_family_closed_forms():
    checked = 0
    for cid, field, corank_form in CAPABLE_SWEEPS:
        for k in range(0, 5):
            swept = CatalogId(cid.family, rank=cid.rank, param=cid.param, abelian=k)
            L = _touch(make_catalog(swept, field))
            c = classify(L)
            n = L.dim
            assert schur_dim(c) == schur_dim_oracle(L), (cid.family, k)
            r = oracle_report(L)
            assert exterior_dim(c) == r.exterior, (cid.family, k)
            assert tensor_dim(c) == r.tensor, (cid.family, k)
            assert corank(c) == corank_form(n), (cid.family, k)
            checked += 1
    assert checked == 35
    _passed(5, "closed forms for all capable families, abelian summands swept to base+4")


def test_criterion_06_noncapable_class3_stem():
    T = _touch(stem6_class3(G5))
    assert T.validate() == []
    rep = T.series()
    assert rep.nilpotency_class == 3
    assert rep.derived_dim == 2
    assert rep.center.intersect(rep.lower_central[1]) == rep.center  # stem: Z in L^2
    n = T.dim
    c = classify(T)
    assert schur_dim(c) == (n - 2) * (n - 3) // 2 == 6
    assert schur_dim_oracle(T) == 6
    r = oracle_report(T)
    assert r.exterior == 8
    assert r.tensor == n * n - 4 * n + 6 == 18
    epi = epicenter(T)
    assert epi.dim == 1 and epi == T.center()
    _passed(6, "6-dim class-3 stem: multiplier 6, exterior 8, tensor 18, unicentral over GF(5)")


def _random_in_scope(rng):
    field = rng.choice((G5, G5, G7, G3, QQ, QQ))
    char = field.char
    menu = []
    menu.append(("A", None))
    menu.append(("H", rng.randrange(1, 4)))
    for fam in (Family.L4_3, Family.L5_5, Family.L5_8, Family.L1):
        menu.append((fam, None))
    if char != 2:
        menu.append((Family.L6_22, rng.randrange(0, 3)))
    fam, extra = rng.choice(menu)
    max_dim = 9 if char == 0 else 11
    if fam == "A":
        cid = CatalogId(Family.ABELIAN, abelian=rng.randrange(1, 7))
    elif fam == "H":
        cid = CatalogId(Family.HEISENBERG, rank=extra, abelian=rng.randrange(0, 4))
    elif fam is Family.L6_22:
        cid = CatalogId(fam, param=extra, abelian=rng.randrange(0, 4))
    else:
        cid = CatalogId(fam, abelian=rng.randrange(0, 4))
    if cid.total_dim() > max_dim:
        return None
    L = make_catalog(cid, field)
    return L.change_basis(random_invertible(field, L.dim, rng))


def test_criterion_07_exact_sequence_suite(monkeypatch):
    # capability is not under test here, and its sweep is exponential in dim Z(L)
    monkeypatch.setattr(cohomology, "epicenter", lambda L: Subspace.zero(L.field, L.dim))
    rng = random.Random(20260810)
    produced = 0
    while produced < 200:
        L = _random_in_scope(rng)
        if L is None:
            continue
        produced += 1
        _touch(L)
        d = L.derived_subalgebra().dim
        m = L.dim - d
        schur = schur_dim_oracle(L)
        r = oracle_report(L)
        wedge, tensor = r.exterior, r.tensor
        assert wedge - schur == d
        assert tensor - wedge == m * (m + 1) // 2
    _passed(7, "200 seeded random instances: exterior-schur = dim L^2, tensor-exterior = m(m+1)/2")


_PAIR_POOL = [
    CatalogId(Family.ABELIAN, abelian=1),
    CatalogId(Family.ABELIAN, abelian=2),
    CatalogId(Family.ABELIAN, abelian=3),
    CatalogId(Family.HEISENBERG, rank=1),
    CatalogId(Family.HEISENBERG, rank=2),
    CatalogId(Family.L4_3),
    CatalogId(Family.L5_5),
    CatalogId(Family.L5_8),
    CatalogId(Family.L6_22, param=1),
    CatalogId(Family.L1),
]


def test_criterion_08_direct_sum_multiplier():
    rng = random.Random(8157)
    done = 0
    while done < 50:
        field = rng.choice((QQ, G5, G7))
        a_id, b_id = rng.choice(_PAIR_POOL), rng.choice(_PAIR_POOL)
        total = a_id.total_dim() + b_id.total_dim()
        if total > (10 if field.char == 0 else 12):
            continue
        A = make_catalog(a_id, field)
        B = make_catalog(b_id, field)
        S = _touch(direct_sum(A, B))
        a_ab = A.dim - A.derived_subalgebra().dim
        b_ab = B.dim - B.derived_subalgebra().dim
        expected = schur_dim_oracle(A) + schur_dim_oracle(B) + a_ab * b_ab
        assert schur_dim_oracle(S) == expected, (a_id, b_id, field)
        done += 1
    _passed(8, "50 seeded catalog pairs: multiplier of the sum adds parts plus ab-product")


def test_criterion_09_rank2_admissible_set():
    noncapable = 0
    for name, L in rank2_stem_zoo(G5):
        _touch(L)
        n = L.dim
        top = (n - 2) * (n - 3) // 2
        value = schur_dim_oracle(L)
        if is_capable_oracle(L):
            continue
        noncapable += 1
        assert value in {top - 2, top}, (name, value, top)
        c = classify(direct_sum(L, abelian(G5, 1)))
        if c.family is Family.GEN_HEISENBERG_RANK2:
            assert matches(schur_dim(c), schur_dim_oracle(direct_sum(L, abelian(G5, 1))))
    assert noncapable >= 3
    _passed(9, f"{noncapable} non-capable rank-2 stems, multiplier always in the admissible pair")


def test_criterion_10_harness_integrity():
    # the complex builder enforces both identities on every construction; it
    # must genuinely reject a broken table ...
    from conftest import jacobi_breaker

    try:
        cochain_complex(jacobi_breaker(QQ))
    except ComplexIntegrityError:
        pass
    else:
        raise AssertionError("integrity checks are not active")

    # ... and an explicit sweep over every algebra the criteria touched.
    # When this test runs standalone, rebuild a representative population.
    population = list(TOUCHED)
    if not population:
        rng = random.Random(20260810)
        population = [make_catalog(cid, field) for _, cid, field, *_ in GOLDEN_SIX]
        population += [heisenberg(G5, m, k) for m in (1, 2, 3, 4) for k in (0, 1)]
        population += [abelian(QQ, n) for n in range(1, 9)]
        population += [stem6_class3(G5)] + [L for _, L in rank2_stem_zoo(G5)]
        while len(population) < 80:
            L = _random_in_scope(rng)
            if L is not None:
                population.append(L)
    else:
        assert len(population) >= 250
    for L in population:
        cc = cochain_complex(L, check=False)
        assert (cc.d2 @ cc.d1).is_zero()
        assert rref(cc.d1)[1] == L.derived_subalgebra().dim
    _passed(10, f"d2.d1 = 0 and rank(d1) = dim L^2 re-verified on {len(population)} touched algebras")
