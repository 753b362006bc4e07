"""Machine-readable analysis reports with stable key order.

Reports degrade gracefully: inputs with dim L^2 > 2 keep their series data
and (with the oracle enabled) the brute-force multiplier, with the formula
block marked not applicable; non-nilpotent inputs stop after the series
block.  All numbers are exact integers; two-valued formulas appear as
sorted arrays.
"""

from __future__ import annotations

from dataclasses import asdict

from .algebra import LieAlgebra
from .classify import classify
from .cohomology import OracleReport, oracle_report
from .document import field_to_json
from .formulas import functor_report, rule_id
from .verify import _formula_json, compare

DEFAULT_SWEEP_PRIME = 5


def _oracle_json(oracle: OracleReport) -> dict:
    block = asdict(oracle)  # field order is the report's key order
    if block["sweep_error"] is None:
        del block["sweep_error"]
    return block


def build_report(
    L: LieAlgebra,
    digest: str,
    want_oracle: bool = False,
    sweep_prime: int | None = None,
    randomized_seed: int | None = None,
) -> dict:
    """Assemble the full report dict; report["ok"] is False on any mismatch."""
    series = L.series()
    report = {
        "input": {
            "digest": digest,
            "field": field_to_json(L.field),
            "dim": L.dim,
            "randomized_basis": randomized_seed is not None,
            "seed": randomized_seed,
        },
        "series": {
            "nilpotent": series.is_nilpotent,
            "class": series.nilpotency_class,
            "lower_central_dims": list(series.lower_central_dims()),
            "derived_series_dims": list(series.derived_series_dims()),
            "derived_dim": series.derived_dim,
            "center_dim": series.center.dim,
        },
    }
    if not series.is_nilpotent:
        report["classification"] = {"applicable": False, "reason": "not nilpotent"}
        report["functors"] = {"applicable": False}
        report["ok"] = True
        return report

    c = classify(L)
    oracle = oracle_report(L, sweep_prime or DEFAULT_SWEEP_PRIME) if want_oracle else None
    if not c.in_scope:
        report["classification"] = {
            "applicable": False,
            "reason": f"dim L^2 = {c.derived_dim} > 2",
            "stem_dim": c.stem_dim,
        }
        report["functors"] = {"applicable": False}
        if oracle is not None:
            report["oracle"] = _oracle_json(oracle)
            report["checks"] = []
        report["ok"] = True
        return report

    report["classification"] = {
        "applicable": True,
        "family": c.family.value,
        "rank": c.rank,
        "abelian_summand": c.abelian,
        "stem_dim": c.stem_dim,
        "description": c.describe(),
    }
    fr = functor_report(c)
    report["functors"] = {
        "applicable": True,
        "rule": rule_id(c),
        "schur": _formula_json(fr.schur),
        "exterior": _formula_json(fr.exterior),
        "tensor": _formula_json(fr.tensor),
        "square": fr.square,
        "corank": _formula_json(fr.corank),
        "capable": fr.capable,
        "exterior_abelian": fr.exterior_abelian,
    }
    ok = True
    if oracle is not None:
        checks = compare(c, fr, oracle)
        report["oracle"] = _oracle_json(oracle)
        report["checks"] = [
            {"quantity": ch.quantity, "formula": ch.formula, "oracle": ch.oracle, "pass": ch.ok}
            for ch in checks
        ]
        ok = all(ch.ok for ch in checks)
    report["ok"] = ok
    return report
