"""Machine-readable analysis reports with stable key order.

Reports degrade gracefully: inputs with dim L^2 > 2 keep their series data
and (with the oracle enabled) the brute-force multiplier, with the formula
block marked not applicable; non-nilpotent inputs stop after the series
block.  All numbers are exact integers; each `functors.*` value and each
`checks[].formula` is one integer or boolean, never a list.
"""

from __future__ import annotations

from dataclasses import asdict

from .algebra import LieAlgebra
from .classify import classify
from .cohomology import OracleReport
from .document import field_to_json
from .formulas import functor_report
from .verify import DEFAULT_REDUCTION_PRIME, cross_check


def _oracle_json(oracle: OracleReport) -> dict:
    block = asdict(oracle)  # field order is the report's key order
    if block["sweep_error"] is None:
        del block["sweep_error"]
    return block


def build_report(
    L: LieAlgebra,
    digest: str,
    want_oracle: bool = False,
    sweep_prime: int = DEFAULT_REDUCTION_PRIME,
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

    if want_oracle:
        checked = cross_check(L, capability_prime=sweep_prime)
        c, fr = checked.classification, checked.functors
    else:
        c = classify(L)
        fr = functor_report(c) if c.in_scope else None
    if fr is None:
        report["classification"] = {
            "applicable": False,
            "reason": f"dim L^2 = {c.derived_dim} > 2",
            "stem_dim": c.stem_dim,
        }
    else:
        report["classification"] = {
            "applicable": True,
            "family": c.family.value,
            "rank": c.rank,
            "abelian_summand": c.abelian,
            "stem_dim": c.stem_dim,
            "description": c.describe(),
        }
    # FunctorReport's field order is the key order
    report["functors"] = {"applicable": True, **asdict(fr)} if fr else {"applicable": False}
    if want_oracle:
        report["oracle"] = _oracle_json(checked.oracle)
        report["checks"] = [
            {"quantity": ch.quantity, "formula": ch.formula, "oracle": ch.oracle, "pass": ch.ok}
            for ch in checked.checks
        ]
    report["ok"] = checked.ok if want_oracle else True
    return report
