"""Closed-form dimensions keyed on the classification verdict.

Every value is one exact integer.  The multiplier of L = T + A(k), with T
a stem of dimension s, comes from the direct-sum rule

    dim M(A + B) = dim M(A) + dim M(B) + dim(A/A^2) dim(B/B^2)

(Batten, Moneyhun and Stitzinger, Comm. Algebra 1996):

    multiplier = M(T) + k(k-1)/2 + (s - dim L^2) k

M(T) is the `catalog.STEMS` row of a named stem; (s-1)(s-2)/2 + 1 for
H(1) and (s-1)(s-2)/2 - 1 for H(m), m >= 2; 0 for A(k); and (s-2)(s-3)/2
for the two open-ended verdicts, two less for a rank-2 stem whose pencil of
forms has no rank-2 member (`Classification.rank2_member`).
Derived quantities, with n = s + k:

    exterior  = multiplier + dim L^2          (kernel of the commutator map)
    square    = m(m+1)/2,  m = n - dim L^2    (diagonal summand of the tensor square)
    tensor    = exterior + square
    corank    = n(n-1)/2 - multiplier
"""

from __future__ import annotations

from dataclasses import dataclass

from .catalog import STEMS, Family
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


def _stem_schur(c: Classification) -> int:
    """dim M(T) for the stem T of dimension s = c.stem_dim."""
    s = c.stem_dim
    fam = c.family
    if fam is Family.ABELIAN:
        return 0
    if fam is Family.HEISENBERG:
        base = _half((s - 1) * (s - 2))
        return base + 1 if c.rank == 1 else base - 1
    if fam in STEMS:
        return STEMS[fam].schur
    top = _half((s - 2) * (s - 3))
    if fam is Family.GEN_HEISENBERG_RANK2 and not c.rank2_member:
        return top - 2
    return top


def schur_dim(c: Classification) -> int:
    """Multiplier dimension: M(T) plus what the summand A(k) adds."""
    _require_in_scope(c)
    k = c.abelian
    return _stem_schur(c) + _half(k * (k - 1)) + (c.stem_dim - c.derived_dim) * k


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
    if c.family is Family.ABELIAN:
        return c.n != 1  # A(0) = A(1)/Z(A(1)); A(1) is the one abelian non-capable algebra
    if c.family is Family.HEISENBERG:
        return c.rank == 1
    return c.family in STEMS


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
