"""Closed-form dimensions keyed on the classification verdict.

All formulas are stated in terms of the total dimension n (abelian
summand included).  Values are exact integers; the one genuinely
ambiguous case, a non-capable class-2 rank-2 stem plus abelian summand,
yields a two-element admissible set (a frozenset), which the brute-force
side pins down per instance.  Derived quantities:

    exterior  = multiplier + dim L^2          (kernel of the commutator map)
    square    = m(m+1)/2,  m = n - dim L^2    (diagonal summand of the tensor square)
    tensor    = exterior + square
    corank    = n(n-1)/2 - multiplier
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .catalog import Family
from .classify import Classification

DimValue = Union[int, frozenset]


def _half(x: int) -> int:
    if x % 2:
        raise AssertionError(f"odd value where an even product was expected: {x}")
    return x // 2


def shift(value: DimValue, delta: int) -> DimValue:
    if isinstance(value, int):
        return value + delta
    return frozenset(v + delta for v in value)


def admissible(value: DimValue) -> tuple[int, ...]:
    """Sorted tuple of admissible integers (singleton for determined values)."""
    if isinstance(value, int):
        return (value,)
    return tuple(sorted(value))


def matches(value: DimValue, observed: int) -> bool:
    if isinstance(value, int):
        return observed == value
    return observed in value


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


def schur_dim(c: Classification, n: int | None = None) -> DimValue:
    """Multiplier dimension by family."""
    _require_in_scope(c)
    n = c.n if n is None else n
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
        return frozenset((top - 2, top))
    if fam is Family.STEM_CLASS3_DIM2:
        return _half((n - 2) * (n - 3))
    raise AssertionError(f"unhandled family {fam}")


def square_dim(n: int, derived_dim: int) -> int:
    """dim of the diagonal summand: m(m+1)/2 with m = n - dim L^2."""
    m = n - derived_dim
    return _half(m * (m + 1))


def exterior_dim(c: Classification, n: int | None = None) -> DimValue:
    n = c.n if n is None else n
    return shift(schur_dim(c, n), c.derived_dim)


def tensor_dim(c: Classification, n: int | None = None) -> DimValue:
    n = c.n if n is None else n
    return shift(exterior_dim(c, n), square_dim(n, c.derived_dim))


def corank(c: Classification, n: int | None = None) -> DimValue:
    n = c.n if n is None else n
    total = _half(n * (n - 1))
    value = schur_dim(c, n)
    if isinstance(value, int):
        return total - value
    return frozenset(total - v for v in value)


def is_capable(c: Classification) -> bool:
    _require_in_scope(c)
    return bool(c.capable)


def exterior_is_abelian(c: Classification) -> bool:
    """The exterior square is abelian for every in-scope case."""
    _require_in_scope(c)
    if c.nil_class <= 2:
        return True
    if c.nil_class == 3 and c.derived_dim == 2:
        return True
    raise AssertionError("in-scope classifications have class <= 3 and dim L^2 <= 2")


@dataclass(frozen=True)
class FunctorReport:
    schur: DimValue
    exterior: DimValue
    tensor: DimValue
    square: int
    corank: DimValue
    capable: bool
    exterior_abelian: bool
    rule: str


def functor_report(c: Classification) -> FunctorReport:
    _require_in_scope(c)
    return FunctorReport(
        schur=schur_dim(c),
        exterior=exterior_dim(c),
        tensor=tensor_dim(c),
        square=square_dim(c.n, c.derived_dim),
        corank=corank(c),
        capable=is_capable(c),
        exterior_abelian=exterior_is_abelian(c),
        rule=rule_id(c),
    )
