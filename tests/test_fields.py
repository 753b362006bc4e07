import ast
import re
from fractions import Fraction
from pathlib import Path

import pytest

from liemult.fields import FieldSpec, Fp, gf, rationals


def test_prime_validation():
    assert gf(2).p == 2
    assert gf(97).p == 97
    for bad in (0, 1, 4, 6, 9, 100):
        with pytest.raises(ValueError):
            FieldSpec(bad)
    with pytest.raises(ValueError):
        FieldSpec(2**31 + 11)  # beyond the cap that bounds the primality test


def test_characteristic_and_kind():
    assert rationals().char == 0
    assert not rationals().is_prime_field
    assert gf(5).char == 5
    assert gf(5).is_prime_field


def test_rational_parse_rejects_floats():
    q = rationals()
    assert q.parse("3/4") == Fraction(3, 4)
    assert q.parse("-2") == Fraction(-2)
    for bad in ("1.5", "1e3", "0x10", "3 / 4", ""):
        with pytest.raises(ValueError):
            q.parse(bad)


def test_rational_parse_rejects_zero_denominator():
    for bad in ("1/0", "-3/0", "0/0"):
        with pytest.raises(ValueError, match="zero denominator"):
            rationals().parse(bad)


def test_rational_lowest_terms():
    q = rationals()
    x = q.parse("6/4")
    assert (x.numerator, x.denominator) == (3, 2)
    y = q.parse("-6/4")
    assert (y.numerator, y.denominator) == (-3, 2)


def test_prime_parse_canonical_residue():
    g = gf(7)
    assert g.parse("9") == Fp(2, 7)
    assert g.parse("-1") == Fp(6, 7)
    with pytest.raises(ValueError):
        g.parse("1/2")


def test_fp_arithmetic():
    g = gf(5)
    a, b = g.of(3), g.of(4)
    assert a + b == g.of(2)
    assert a - b == g.of(4)
    assert a * b == g.of(2)
    assert a / b == a * g.of(4)  # 4^-1 = 4 mod 5
    assert -a == g.of(2)
    assert not g.zero
    assert g.one
    with pytest.raises(ZeroDivisionError):
        a / g.zero


def test_no_cross_field_mixing():
    with pytest.raises(TypeError):
        Fp(1, 5) + Fp(1, 7)
    with pytest.raises(TypeError):
        Fp(1, 5) + Fraction(1)
    with pytest.raises(TypeError):
        gf(5).of(Fp(1, 7))
    with pytest.raises(TypeError):
        rationals().of(Fp(1, 7))


def test_format_round_trip():
    q = rationals()
    for text in ("0", "1", "-3/4", "22/7"):
        assert q.format(q.parse(text)) == text
    g = gf(11)
    for text in ("0", "1", "10"):
        assert g.format(g.parse(text)) == text


def test_exact_addition_is_order_independent():
    # 1/3 + 1/7 + ... regrouped must agree bit for bit, no rounding anywhere
    q = rationals()
    terms = [q.parse(f"1/{k}") for k in range(1, 25)]
    left = sum(terms[1:], terms[0])
    right = sum(reversed(terms[:-1]), terms[-1])
    assert left == right


def test_integer_codec():
    q, g = rationals(), gf(7)
    row = [q.parse(t) for t in ("0", "-3/4", "5/6", "2")]
    assert q.encode(row) == ([0, -9, 10, 24], 12)
    assert q.decode(*q.encode(row)) == row
    assert [q.ratio(x) for x in row] == [(0, 1), (-3, 4), (5, 6), (2, 1)]
    assert q.encode([]) == ([], 1)
    res = [g.of(x) for x in (0, 3, 6)]
    assert g.encode(res) == ([0, 3, 6], 1) and g.ratio(res[1]) == (3, 1)
    assert g.decode(*g.encode(res)) == res
    # any integers over a unit: a rational row reduces mod 7 through the codec
    assert g.decode(*q.encode(row)) == [g.zero, g.of(-3) / g.of(4), g.of(5) / g.of(6), g.of(2)]
    assert g.decode([14, 3], 3) == [g.zero, g.one]
    with pytest.raises(ValueError):
        g.decode([1], 7)  # 7 is no unit mod 7
    for field, entry in ((g, Fp(1, 5)), (g, 1), (q, 1), (q, 0.5), (q, Fp(1, 7))):
        with pytest.raises(TypeError, match=re.escape(f"is not a {field} scalar")):
            field.encode([field.zero, entry])


def test_canonical_row_form():
    q, g = rationals(), gf(7)
    assert q.canonical([2, -4, 0], -6) == ([-1, 2, 0], 3)  # lowest terms, positive denominator
    assert q.canonical([0, 0], 5) == ([0, 0], 1)
    assert q.canonical([3, 5], 1) == ([3, 5], 1)
    assert q.canonical(*q.encode([q.parse("1/6"), q.parse("-3/4")])) == q.encode([q.parse("1/6"), q.parse("-3/4")])
    assert g.canonical([9, -1, 7], 1) == ([2, 6, 0], 1)
    assert g.canonical([1, 2], 3) == ([5, 3], 1)  # 3^-1 = 5 mod 7
    assert g.canonical([], 1) == ([], 1)


def test_zero_and_one_are_made_once_per_field():
    for field in (rationals(), gf(5)):
        assert field.zero is field.zero and field.one is field.one
        assert (field.zero, field.one) == (field.of(0), field.of(1))


def test_integer_modules_name_no_scalar_type():
    """linalg, algebra, cohomology and classify reach scalars only through the codec.

    They name neither scalar type nor what one is made of (`.val`,
    `.as_integer_ratio`), so the codec in this module is the one place that
    knows.  The sources are parsed, so docstrings and comments may say
    anything.
    """
    src = Path(__file__).resolve().parents[1] / "src" / "liemult"
    types = {"Fraction", "Fp"}
    named = []
    for module in ("linalg", "algebra", "cohomology", "classify"):
        for node in ast.walk(ast.parse((src / f"{module}.py").read_text())):
            if isinstance(node, ast.Name) and node.id in types:
                named.append((module, node.lineno, node.id))
            elif isinstance(node, ast.alias) and node.name in types:
                named.append((module, node.lineno, node.name))
            elif isinstance(node, ast.Attribute) and node.attr in types | {"val", "as_integer_ratio"}:
                named.append((module, node.lineno, node.attr))
    assert named == []
