"""The JSON algebra-document format.

A document is a JSON object with keys:

    field     "rationals" or {"prime": p}
    dim       n >= 0
    brackets  list of {"i": int, "j": int, "coeffs": [n scalar strings]}
              with 1 <= i < j <= n (1-based, matching the x_1..x_n labels);
              pairs not listed are zero; duplicates are rejected
    labels    optional list of n basis names

Scalars travel as exact strings ("-3/4", "2"); float literals are
rejected.  Serialization is canonical (sorted bracket pairs, fixed key
order), so identical algebras produce byte-identical documents.
"""

from __future__ import annotations

import hashlib
import json

from .algebra import LieAlgebra
from .fields import FieldSpec, rationals


class DocumentError(ValueError):
    pass


def field_from_json(obj) -> FieldSpec:
    if obj == "rationals":
        return rationals()
    if isinstance(obj, dict) and set(obj) == {"prime"}:
        p = obj["prime"]
        if not isinstance(p, int) or isinstance(p, bool):
            raise DocumentError(f"prime must be an integer, got {p!r}")
        try:
            return FieldSpec(p)
        except ValueError as exc:
            raise DocumentError(str(exc)) from None
    raise DocumentError(f'field must be "rationals" or {{"prime": p}}, got {obj!r}')


def field_to_json(field: FieldSpec):
    return {"prime": field.p} if field.is_prime_field else "rationals"


def algebra_from_document(doc) -> LieAlgebra:
    if not isinstance(doc, dict):
        raise DocumentError("document must be a JSON object")
    allowed = {"field", "dim", "brackets", "labels"}
    unknown = set(doc) - allowed
    if unknown:
        raise DocumentError(f"unknown document keys: {sorted(unknown)}")
    if "field" not in doc or "dim" not in doc:
        raise DocumentError('document needs "field" and "dim"')
    field = field_from_json(doc["field"])
    dim = doc["dim"]
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 0:
        raise DocumentError(f"dim must be a non-negative integer, got {dim!r}")

    table = {}
    brackets = doc.get("brackets", [])
    if not isinstance(brackets, list):
        raise DocumentError("brackets must be a list")
    for entry in brackets:
        if not isinstance(entry, dict) or set(entry) != {"i", "j", "coeffs"}:
            raise DocumentError(f"bracket entries need exactly i, j, coeffs: {entry!r}")
        i, j, coeffs = entry["i"], entry["j"], entry["coeffs"]
        if any(isinstance(x, bool) or not isinstance(x, int) for x in (i, j)) or not 1 <= i < j <= dim:
            raise DocumentError(f"bracket pair must satisfy 1 <= i < j <= {dim}: ({i}, {j})")
        if (i - 1, j - 1) in table:
            raise DocumentError(f"duplicate bracket pair ({i}, {j})")
        if not isinstance(coeffs, list) or len(coeffs) != dim:
            raise DocumentError(f"bracket ({i}, {j}) needs {dim} coefficients")
        try:
            table[(i - 1, j - 1)] = field.read_row(coeffs)
        except TypeError as exc:  # carries the first entry that is not a string
            raise DocumentError(
                f"coefficients are exact scalar strings, got {exc.args[0]!r} in ({i}, {j})"
            ) from None
        except ValueError as exc:
            raise DocumentError(f"bracket ({i}, {j}): {exc}") from None

    labels = doc.get("labels")
    if labels is not None:
        if (
            not isinstance(labels, list)
            or len(labels) != dim
            or not all(isinstance(s, str) for s in labels)
        ):
            raise DocumentError(f"labels must be {dim} strings")
        labels = tuple(labels)
    return LieAlgebra._from_rows(field, dim, table, labels)


def algebra_to_document(L: LieAlgebra) -> dict:
    brackets = []
    for (i, j), (ints, den) in L._table.items():  # in pair order
        brackets.append(
            {
                "i": i + 1,
                "j": j + 1,
                "coeffs": L.field.format_row(ints, den),
            }
        )
    return {
        "field": field_to_json(L.field),
        "dim": L.dim,
        "brackets": brackets,
        "labels": list(L.labels),
    }


def loads_algebra(text: str) -> LieAlgebra:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"invalid JSON: {exc}") from None
    return algebra_from_document(doc)


def dumps_algebra(L: LieAlgebra) -> str:
    return json.dumps(algebra_to_document(L), indent=2) + "\n"


def document_digest(doc: dict) -> str:
    canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()
