"""Check one op's output against its reference values.

`check` takes a report in the JSON shape `liemult report --oracle` prints
and returns the list of problems (empty when the output is right).  A
report that says MISMATCH (formula != oracle) is not a problem by itself:
for random pencils that is the known fingerprint collision, and the
benchmark counts it separately.  For catalog-derived inputs a mismatch
always comes with a disagreement with the paper's values, so it fails.
"""

from __future__ import annotations

from math import comb

from inputs import Expected


def _values(v) -> set:
    return set(v) if isinstance(v, list) else {v}


def _consistency(rep: dict, exp: Expected) -> list[str]:
    """Relations every in-scope report must satisfy, closed form or not."""
    n, d = exp.n, exp.derived_dim
    pairs = comb(n, 2)
    sq = (n - d) * (n - d + 1) // 2
    fr, orc = rep["functors"], rep["oracle"]
    problems = []
    if orc["exterior"] != orc["schur"] + d:
        problems.append("oracle exterior != schur + dim L^2")
    if orc["tensor"] != orc["exterior"] + sq:
        problems.append("oracle tensor != exterior + m(m+1)/2")
    schur = _values(fr["schur"])
    if _values(fr["exterior"]) != {s + d for s in schur}:
        problems.append("formula exterior != schur + dim L^2")
    if _values(fr["tensor"]) != {s + d + sq for s in schur}:
        problems.append("formula tensor != exterior + m(m+1)/2")
    if _values(fr["corank"]) != {pairs - s for s in schur}:
        problems.append("formula corank != C(n,2) - schur")
    if orc["capable"] is not None:
        if orc["epicenter_prime"] != exp.sweep_prime:
            problems.append(f"swept GF({orc['epicenter_prime']}), expected GF({exp.sweep_prime})")
        if orc["capable"] != (orc["epicenter_dim"] == 0):
            problems.append("oracle capable disagrees with its epicenter dim")
    oracle_of = {
        "schur": orc["schur"], "exterior": orc["exterior"], "tensor": orc["tensor"],
        "corank": pairs - orc["schur"], "capable": orc["capable"],
    }
    for ch in rep["checks"]:
        q = ch["quantity"]
        if ch["oracle"] != oracle_of[q] or _values(ch["formula"]) != _values(fr[q]):
            problems.append(f"check {q} does not quote the formula and oracle blocks")
        if ch["pass"] != (ch["oracle"] in _values(ch["formula"])):
            problems.append(f"check {q} verdict is wrong")
    if rep["ok"] != all(ch["pass"] for ch in rep["checks"]):
        problems.append("ok flag disagrees with the checks")
    return problems


def check(rep: dict, exp: Expected, closed_form: bool) -> list[str]:
    """Problems with one report; `closed_form` is False for random pencils."""
    problems = []
    series = rep["series"]
    got = (rep["input"]["dim"], series["derived_dim"], series["center_dim"])
    if not series["nilpotent"] or got != (exp.n, exp.derived_dim, exp.center_dim):
        return [f"(dim, dim L^2, dim Z) = {got}, expected {(exp.n, exp.derived_dim, exp.center_dim)}"]
    orc = rep["oracle"]
    if exp.schur is not None and orc["schur"] != exp.schur:
        problems.append(f"oracle multiplier {orc['schur']}, expected {exp.schur}")
    if exp.derived_dim > 2:
        if rep["functors"]["applicable"] or rep["classification"]["applicable"]:
            problems.append("out-of-scope input reported as classified")
        if (orc["exterior"], orc["tensor"], orc["capable"]) != (None, None, None):
            problems.append("out-of-scope input has exterior, tensor or capability values")
        if not rep["ok"]:
            problems.append("out-of-scope report is not ok")
        return problems
    if not rep["functors"]["applicable"]:
        return problems + ["in-scope input has no formula values"]
    problems += _consistency(rep, exp)
    if (orc["capable"] is None) != (exp.sweep_prime is None):
        problems.append("capability sweep ran where it should not, or did not run")
    if closed_form:
        fr = rep["functors"]
        pairs = comb(exp.n, 2)
        want = {"schur": exp.schur, "exterior": exp.exterior, "tensor": exp.tensor,
                "corank": pairs - exp.schur}
        got = {"schur": orc["schur"], "exterior": orc["exterior"], "tensor": orc["tensor"],
               "corank": pairs - orc["schur"]}
        for q, v in want.items():
            if got[q] != v or fr[q] != v:
                problems.append(f"{q}: formula {fr[q]}, oracle {got[q]}, expected {v}")
        if exp.capable is not None and (fr["capable"], orc["capable"]) != (exp.capable, exp.capable):
            problems.append(f"capable: formula {fr['capable']}, oracle {orc['capable']}, expected {exp.capable}")
    return problems


def cross_check_json(r, sweep_prime: int | None) -> dict:
    """A `verify.cross_check` result in the shape of the report JSON."""

    def dims(v):  # a two-valued closed form is a frozenset; the report prints it sorted
        return sorted(v) if isinstance(v, frozenset) else v

    c, fr, orc = r.classification, r.functors, r.oracle
    return {
        "input": {"dim": c.n},
        "series": {"nilpotent": True, "derived_dim": c.derived_dim, "center_dim": c.center_dim},
        "classification": {"applicable": c.in_scope},
        "functors": {
            "applicable": True,
            "schur": dims(fr.schur), "exterior": dims(fr.exterior), "tensor": dims(fr.tensor),
            "corank": dims(fr.corank), "capable": fr.capable,
        },
        "oracle": {
            "schur": orc.schur, "exterior": orc.exterior, "tensor": orc.tensor,
            "epicenter_prime": sweep_prime if orc.capable is not None else None,
            "epicenter_dim": orc.epicenter_dim, "capable": orc.capable,
        },
        "checks": [
            {"quantity": ch.quantity,
             "formula": list(ch.formula) if isinstance(ch.formula, tuple) else ch.formula,
             "oracle": ch.oracle, "pass": ch.ok}
            for ch in r.checks
        ],
        "ok": r.ok,
    }
