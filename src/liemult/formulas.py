"""Closed-form dimensions keyed on the classification verdict.

`functor_report(c)` is the one entry point: it returns every closed form
for the verdict `c`, each one exact integer, with the multiplier computed
once.  The multiplier of L = T + A(k), with T a stem of dimension s, comes
from the direct-sum rule

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


def _stem(c: Classification) -> tuple[str, int, bool]:
    """(rule, dim M(T), capable) for the verdict's stem T of dimension s = c.stem_dim."""
    s, fam = c.stem_dim, c.family
    if fam is Family.ABELIAN:
        # A(0) = A(1)/Z(A(1)); A(1) is the one abelian non-capable algebra
        return "abelian", 0, c.n != 1
    if fam is Family.HEISENBERG:
        base = _half((s - 1) * (s - 2))
        if c.rank == 1:
            return "heisenberg-rank1", base + 1, True
        return "heisenberg-rank-ge2", base - 1, False
    if fam in STEMS:
        return f"capable-{fam.value}", STEMS[fam].schur, True
    top = _half((s - 2) * (s - 3))
    if fam is Family.GEN_HEISENBERG_RANK2:
        return "noncapable-class2-rank2", top if c.rank2_member else top - 2, False
    return "noncapable-class3-stem", top, False


@dataclass(frozen=True)
class FunctorReport:
    rule: str  # which closed form applies; self-describing, used in report verdicts
    schur: int
    exterior: int
    tensor: int
    square: int
    corank: int
    capable: bool


def functor_report(c: Classification) -> FunctorReport:
    if not c.in_scope:
        raise ValueError("classification is out of scope (dim L^2 > 2)")
    rule, stem_schur, capable = _stem(c)
    n, d, k = c.n, c.derived_dim, c.abelian
    schur = stem_schur + _half(k * (k - 1)) + (c.stem_dim - d) * k
    exterior = schur + d
    square = _half((n - d) * (n - d + 1))
    corank = _half(n * (n - 1)) - schur
    return FunctorReport(rule, schur, exterior, exterior + square, square, corank, capable)
