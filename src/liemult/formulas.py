"""Closed-form dimensions keyed on the classification verdict.

All formulas are stated in terms of the total dimension n (abelian
summand included), and every value is one exact integer.  A non-capable
class-2 rank-2 stem has multiplier (n-2)(n-3)/2 when its pencil of forms
has a rank-2 member (`Classification.rank2_member`), two less when not.
Derived quantities:

    exterior  = multiplier + dim L^2          (kernel of the commutator map)
    square    = m(m+1)/2,  m = n - dim L^2    (diagonal summand of the tensor square)
    tensor    = exterior + square
    corank    = n(n-1)/2 - multiplier
"""

from __future__ import annotations

from dataclasses import dataclass

from .catalog import Family
from .classify import Classification


def _half(x: int) -> int:
    if x % 2:
        raise AssertionError(f"odd value where an even product was expected: {x}")
    return x // 2


def _require_in_scope(c: Classification):
    if not c.in_scope:
        raise ValueError("classification is out of scope (dim L^2 > 2)")


def rule_id(c: Classification) -> str:
    """Which closed form applies; self-describing, used in report verdicts."""
    _require_in_scope(c)
    fam = c.family
    if fam is Family.ABELIAN:
        return "abelian"
    if fam is Family.HEISENBERG:
        return "heisenberg-rank1" if c.rank == 1 else "heisenberg-rank-ge2"
    if fam is Family.GEN_HEISENBERG_RANK2:
        return "noncapable-class2-rank2"
    if fam is Family.STEM_CLASS3_DIM2:
        return "noncapable-class3-stem"
    return f"capable-{fam.value}"


def schur_dim(c: Classification) -> int:
    """Multiplier dimension by family."""
    _require_in_scope(c)
    n = c.n
    fam = c.family
    if fam is Family.ABELIAN:
        return _half(n * (n - 1))
    if fam is Family.HEISENBERG:
        base = _half((n - 1) * (n - 2))
        return base + 1 if c.rank == 1 else base - 1
    if fam is Family.L5_8:
        return _half(n * (n - 5)) + 6
    if fam in (Family.L6_22, Family.L6_7_2):
        return _half((n + 1) * (n - 6)) + 8
    if fam is Family.L1:
        return _half((n + 2) * (n - 7)) + 9
    if fam is Family.L4_3:
        return _half((n - 1) * (n - 4)) + 2
    if fam is Family.L5_5:
        return _half(n * (n - 5)) + 4
    if fam is Family.GEN_HEISENBERG_RANK2:
        top = _half((n - 2) * (n - 3))
        return top if c.rank2_member else top - 2
    if fam is Family.STEM_CLASS3_DIM2:
        return _half((n - 2) * (n - 3))
    raise AssertionError(f"unhandled family {fam}")


def square_dim(n: int, derived_dim: int) -> int:
    """dim of the diagonal summand: m(m+1)/2 with m = n - dim L^2."""
    m = n - derived_dim
    return _half(m * (m + 1))


def exterior_dim(c: Classification) -> int:
    return schur_dim(c) + c.derived_dim


def tensor_dim(c: Classification) -> int:
    return exterior_dim(c) + square_dim(c.n, c.derived_dim)


def corank(c: Classification) -> int:
    return _half(c.n * (c.n - 1)) - schur_dim(c)


def is_capable(c: Classification) -> bool:
    _require_in_scope(c)
    return bool(c.capable)


@dataclass(frozen=True)
class FunctorReport:
    rule: str
    schur: int
    exterior: int
    tensor: int
    square: int
    corank: int
    capable: bool


def functor_report(c: Classification) -> FunctorReport:
    _require_in_scope(c)
    return FunctorReport(
        rule=rule_id(c),
        schur=schur_dim(c),
        exterior=exterior_dim(c),
        tensor=tensor_dim(c),
        square=square_dim(c.n, c.derived_dim),
        corank=corank(c),
        capable=is_capable(c),
    )
