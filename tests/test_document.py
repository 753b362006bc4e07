import json
import random

import pytest

from liemult.catalog import CatalogId, Family, make_catalog
from liemult.document import (
    DocumentError,
    algebra_from_document,
    algebra_to_document,
    document_digest,
    dumps_algebra,
    field_to_json,
    loads_algebra,
)
from liemult.algebra import LieAlgebra
from liemult.fields import gf, rationals

QQ = rationals()


def test_round_trip_catalog():
    for cid, field in [
        (CatalogId(Family.L4_3), QQ),
        (CatalogId(Family.L6_7_2, param=1), gf(2)),
        (CatalogId(Family.HEISENBERG, rank=2, abelian=1), gf(5)),
        (CatalogId(Family.ABELIAN, abelian=3), QQ),
    ]:
        L = make_catalog(cid, field)
        back = loads_algebra(dumps_algebra(L))
        assert back.field == L.field
        assert back.dim == L.dim
        assert back.table == L.table
        assert back.labels == L.labels


def test_canonical_serialization_is_stable():
    L = make_catalog(CatalogId(Family.L5_5), QQ)
    assert dumps_algebra(L) == dumps_algebra(loads_algebra(dumps_algebra(L)))


def test_field_forms():
    doc = {"field": "rationals", "dim": 1}
    assert algebra_from_document(doc).field == QQ
    doc = {"field": {"prime": 7}, "dim": 1}
    assert algebra_from_document(doc).field == gf(7)
    for bad in ("Q", {"prime": 6}, {"prime": "5"}, {"p": 5}, 5):
        with pytest.raises(DocumentError):
            algebra_from_document({"field": bad, "dim": 1})


def _doc(brackets, dim=3, field="rationals"):
    return {"field": field, "dim": dim, "brackets": brackets}


def test_bracket_validation():
    good = _doc([{"i": 1, "j": 2, "coeffs": ["0", "0", "1"]}])
    L = algebra_from_document(good)
    assert L.table[(0, 1)] == (QQ.of(0), QQ.of(0), QQ.of(1))

    with pytest.raises(DocumentError):  # duplicate pair
        algebra_from_document(
            _doc(
                [
                    {"i": 1, "j": 2, "coeffs": ["0", "0", "1"]},
                    {"i": 1, "j": 2, "coeffs": ["0", "0", "2"]},
                ]
            )
        )
    with pytest.raises(DocumentError):  # i >= j
        algebra_from_document(_doc([{"i": 2, "j": 2, "coeffs": ["0", "0", "1"]}]))
    with pytest.raises(DocumentError):  # out of range
        algebra_from_document(_doc([{"i": 1, "j": 4, "coeffs": ["0", "0", "1"]}]))
    with pytest.raises(DocumentError):  # wrong arity
        algebra_from_document(_doc([{"i": 1, "j": 2, "coeffs": ["0", "1"]}]))
    with pytest.raises(DocumentError):  # extra key
        algebra_from_document(_doc([{"i": 1, "j": 2, "coeffs": ["0", "0", "1"], "x": 1}]))


def test_scalars_are_strings_and_exact():
    with pytest.raises(DocumentError):  # bare number
        algebra_from_document(_doc([{"i": 1, "j": 2, "coeffs": [0, 0, 1]}]))
    with pytest.raises(DocumentError):  # float literal
        algebra_from_document(_doc([{"i": 1, "j": 2, "coeffs": ["0", "0", "1.5"]}]))
    with pytest.raises(DocumentError):  # fraction over GF(p)
        algebra_from_document(
            _doc([{"i": 1, "j": 2, "coeffs": ["0", "0", "1/2"]}], field={"prime": 5})
        )
    ok = algebra_from_document(_doc([{"i": 1, "j": 2, "coeffs": ["0", "0", "-3/4"]}]))
    assert ok.table[(0, 1)][2] == QQ.parse("-3/4")


def test_zero_denominator_rejected():
    with pytest.raises(DocumentError, match=r"bracket \(1, 2\): zero denominator"):
        algebra_from_document(_doc([{"i": 1, "j": 2, "coeffs": ["0", "0", "1/0"]}]))


def test_top_level_strictness():
    with pytest.raises(DocumentError):
        algebra_from_document({"field": "rationals", "dim": 2, "extra": 1})
    with pytest.raises(DocumentError):
        algebra_from_document({"dim": 2})
    with pytest.raises(DocumentError):
        algebra_from_document({"field": "rationals"})
    with pytest.raises(DocumentError):
        algebra_from_document({"field": "rationals", "dim": -1})
    with pytest.raises(DocumentError):
        algebra_from_document({"field": "rationals", "dim": 2, "labels": ["a"]})
    with pytest.raises(DocumentError):
        loads_algebra("{not json")


def test_one_based_indexing():
    doc = _doc([{"i": 1, "j": 3, "coeffs": ["0", "1", "0"]}])
    L = algebra_from_document(doc)
    assert (0, 2) in L.table
    out = algebra_to_document(L)
    assert out["brackets"][0]["i"] == 1 and out["brackets"][0]["j"] == 3


def test_digest_stability():
    L = make_catalog(CatalogId(Family.L4_3), QQ)
    d1 = document_digest(algebra_to_document(L))
    d2 = document_digest(json.loads(dumps_algebra(L)))
    assert d1 == d2 and len(d1) == 64
    other = make_catalog(CatalogId(Family.L5_5), QQ)
    assert document_digest(algebra_to_document(other)) != d1


def _document_by_scalars(L):
    """The document of L written from its decoded table with field.format."""
    brackets = [{"i": i + 1, "j": j + 1, "coeffs": [L.field.format(x) for x in vec]}
                for (i, j), vec in sorted(L.table.items())]
    return {"field": field_to_json(L.field), "dim": L.dim, "brackets": brackets, "labels": list(L.labels)}


def test_residue_reader_matches_the_scalar_path():
    # literals read straight into codec rows give the algebra, the document
    # and the digest that parsing each literal into a scalar gives
    rng = random.Random(30)
    literals = ["-3", "+7", " 12 ", "-0", "0", "1234567890123456789012345678901234567890"]
    for field in (gf(2), gf(5), gf(7), QQ):
        pool = literals + (["-4/6", " 3/7 ", "+10/15"] if field == QQ else [])
        for n in range(2, 6):
            brackets = {}
            for i in range(n):
                for j in range(i + 1, n):
                    if rng.random() < 0.7:
                        brackets[(i, j)] = [rng.choice(pool) for _ in range(n)]
            doc = {"field": field_to_json(field), "dim": n,
                   "brackets": [{"i": i + 1, "j": j + 1, "coeffs": c} for (i, j), c in brackets.items()]}
            read = loads_algebra(json.dumps(doc))
            parsed = LieAlgebra(field, n, {pair: [field.parse(c) for c in cs] for pair, cs in brackets.items()})
            assert read._table == parsed._table and read._adjoint == parsed._adjoint
            assert read.table == parsed.table
            assert dumps_algebra(read) == dumps_algebra(parsed) == json.dumps(_document_by_scalars(parsed), indent=2) + "\n"
            assert document_digest(algebra_to_document(read)) == document_digest(_document_by_scalars(parsed))


def test_literal_errors_keep_their_messages():
    cases = [
        ({"prime": 5}, ["0", "1/2"], "bracket (1, 2): not an integer literal: '1/2'"),
        ({"prime": 5}, ["1/2", 3], "bracket (1, 2): not an integer literal: '1/2'"),
        ({"prime": 5}, [3, "1/2"], "coefficients are exact scalar strings, got 3 in (1, 2)"),
        ("rationals", ["1.5", "0"], "bracket (1, 2): not an exact rational literal: '1.5'"),
        ("rationals", ["0", 1], "coefficients are exact scalar strings, got 1 in (1, 2)"),
        ("rationals", [None, "1/0"], "coefficients are exact scalar strings, got None in (1, 2)"),
        ("rationals", [" 1/0 ", "0"], "bracket (1, 2): zero denominator: '1/0'"),
        ("rationals", ["x", "1/0"], "bracket (1, 2): not an exact rational literal: 'x'"),
    ]
    for field, coeffs, message in cases:
        doc = {"field": field, "dim": 2, "brackets": [{"i": 1, "j": 2, "coeffs": coeffs}]}
        with pytest.raises(DocumentError) as err:
            algebra_from_document(doc)
        assert str(err.value) == message
