"""Formula-vs-oracle cross checking and the built-in verification suite.

`cross_check` classifies an algebra, evaluates every closed form, runs the
cohomological brute-force computation of the same quantities, and reports a
per-quantity verdict that `report --oracle` renders; the brute-force side is
`cohomology.oracle_report`.  Every closed form is one integer (or boolean),
so a check is `==`.
Capability is compared directly for prime-field algebras, and on the mod-p
reduction of a rational table when a reduction prime is supplied and every
denominator is a unit mod p (by default `DEFAULT_REDUCTION_PRIME`, 5, the
smallest odd prime clear of the characteristic-2 special cases).

`builtin_suite` assembles the golden instances: the six named stems over
their stated fields, Heisenberg and abelian grids, and abelian-summand
sweeps of every capable family.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import LieAlgebra
from .catalog import STEMS, CatalogId, Family, make_catalog
from .classify import Classification, classify
from .cohomology import OracleReport, oracle_report
from .fields import gf, rationals
from .formulas import FunctorReport, functor_report


@dataclass(frozen=True)
class Check:
    quantity: str
    formula: int | bool
    oracle: int | bool
    ok: bool


@dataclass(frozen=True)
class CrossCheckReport:
    name: str
    classification: Classification
    functors: FunctorReport | None  # None when dim L^2 > 2
    oracle: OracleReport
    checks: tuple[Check, ...]
    ok: bool


def _compare(c: Classification, fr: FunctorReport, oracle: OracleReport) -> tuple[Check, ...]:
    """One check per quantity; capability only when the oracle swept."""
    quantities = [
        ("schur", fr.schur, oracle.schur),
        ("exterior", fr.exterior, oracle.exterior),
        ("tensor", fr.tensor, oracle.tensor),
        ("corank", fr.corank, c.n * (c.n - 1) // 2 - oracle.schur),
    ]
    checks = [Check(q, f, o, f == o) for q, f, o in quantities]
    if oracle.capable is not None:
        checks.append(Check("capable", fr.capable, oracle.capable, fr.capable == oracle.capable))
    return tuple(checks)


def cross_check(
    L: LieAlgebra, name: str = "", capability_prime: int | None = None
) -> CrossCheckReport:
    """Compare every closed form against the brute-force value for one algebra.

    A nilpotent L with dim L^2 > 2 has no closed form: it gets the oracle
    values, no functors and no checks.  A rational table whose reduction mod
    `capability_prime` fails gets no capability check; the reason is in
    `oracle.sweep_error`.
    """
    c = classify(L)
    fr = functor_report(c) if c.in_scope else None
    oracle = oracle_report(L, capability_prime)
    checks = _compare(c, fr, oracle) if fr else ()
    return CrossCheckReport(name, c, fr, oracle, checks, all(ch.ok for ch in checks))


DEFAULT_REDUCTION_PRIME = 5

SuiteEntry = tuple[str, LieAlgebra, "int | None"]


def builtin_suite(prime: int = DEFAULT_REDUCTION_PRIME) -> list[SuiteEntry]:
    """Golden instances: (name, algebra, reduction prime for rational entries)."""
    qq = rationals()
    gp = gf(prime)
    g2 = gf(2)
    g3 = gf(3)
    entries: list[SuiteEntry] = []

    def add(name, algebra, cap_prime=None):
        entries.append((name, algebra, cap_prime))

    def named(family, field, param=None, extra=0):
        return make_catalog(CatalogId(family, param=param, abelian=extra), field)

    # The six named stems over their stated fields.
    add("L4_3[Q]", named(Family.L4_3, qq), prime)
    add("L5_5[Q]", named(Family.L5_5, qq), prime)
    add("L5_8[Q]", named(Family.L5_8, qq), prime)
    add("L6_22(1)[Q]", named(Family.L6_22, qq, param=1), prime)
    add("L6_22(1)[GF(3)]", named(Family.L6_22, g3, param=1))
    add("L6_7_2(0)[GF(2)]", named(Family.L6_7_2, g2, param=0))
    add("L6_7_2(1)[GF(2)]", named(Family.L6_7_2, g2, param=1))
    add("L1[Q]", named(Family.L1, qq), prime)

    # Same stems over GF(prime), exercising the direct epicenter path.
    add(f"L4_3[GF({prime})]", named(Family.L4_3, gp))
    add(f"L5_5[GF({prime})]", named(Family.L5_5, gp))
    add(f"L5_8[GF({prime})]", named(Family.L5_8, gp))
    if STEMS[Family.L6_22].allows(prime):
        add(f"L6_22(1)[GF({prime})]", named(Family.L6_22, gp, param=1))
    add(f"L1[GF({prime})]", named(Family.L1, gp))

    # Heisenberg grid with abelian summands.
    for m in (1, 2, 3):
        for k in (0, 1, 2):
            alg = make_catalog(CatalogId(Family.HEISENBERG, rank=m, abelian=k), gp)
            add(f"H({m})+A({k})[GF({prime})]", alg)
    add(f"H(4)[GF({prime})]", make_catalog(CatalogId(Family.HEISENBERG, rank=4), gp))

    # Abelian algebras.
    for n in range(1, 7):
        add(f"A({n})[Q]", make_catalog(CatalogId(Family.ABELIAN, abelian=n), qq), prime)

    # Abelian-summand sweeps of the capable families.
    for k in (1, 2):
        add(f"H(1)+A({k})[Q]",
            make_catalog(CatalogId(Family.HEISENBERG, rank=1, abelian=k), qq), prime)
        add(f"L4_3+A({k})[Q]", named(Family.L4_3, qq, extra=k), prime)
        add(f"L5_5+A({k})[Q]", named(Family.L5_5, qq, extra=k), prime)
        add(f"L5_8+A({k})[Q]", named(Family.L5_8, qq, extra=k), prime)
        add(f"L6_22(1)+A({k})[Q]", named(Family.L6_22, qq, param=1, extra=k), prime)
        add(f"L1+A({k})[Q]", named(Family.L1, qq, extra=k), prime)
        add(f"L6_7_2(1)+A({k})[GF(2)]", named(Family.L6_7_2, g2, param=1, extra=k))

    return entries
