import pytest

from conftest import fifth_scaled_l58, out_of_scope_algebra, stem7_rank2

from liemult.catalog import CatalogId, Family, make_catalog
from liemult.fields import gf, rationals
from liemult.verify import builtin_suite, cross_check, run_suite

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


def test_cross_check_flags_mismatch():
    r = cross_check(stem7_rank2(G5), "stem7")
    assert not r.ok
    failing = {c.quantity for c in r.checks if not c.ok}
    assert "schur" in failing or "capable" in failing


def test_cross_check_rejects_out_of_scope():
    with pytest.raises(ValueError):
        cross_check(out_of_scope_algebra(QQ))


def test_builtin_suite_composition():
    entries = builtin_suite()
    names = [name for name, _, _ in entries]
    assert len(entries) >= 30
    assert len(set(names)) == len(names)
    for required in ("L5_8[Q]", "L6_22(1)[GF(3)]", "L6_7_2(0)[GF(2)]", "L1[Q]", "A(4)[Q]"):
        assert required in names


def test_run_suite_sorted_and_green():
    entries = builtin_suite()
    reports = run_suite(entries)
    assert [r.name for r in reports] == sorted(r.name for r in reports)
    assert all(r.ok for r in reports)
    assert sum(len(r.checks) for r in reports) >= 150
