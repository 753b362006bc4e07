"""Shared constructions for the test suite.

The explicit stem tables here are hand-expanded and re-validated in the
tests; they exercise structure outside the named catalog families.
"""

from __future__ import annotations

from liemult import LieAlgebra, direct_sum, heisenberg
from liemult.fields import FieldSpec


def unit(n: int, k: int):
    return tuple(1 if i == k else 0 for i in range(n))


def stem6_class3(field: FieldSpec) -> LieAlgebra:
    """6-dim class-3 stem with 2-dim derived subalgebra.

    [x1,x2] = x5, [x1,x5] = x6, [x3,x4] = x6.  Then L^2 = <x5,x6>,
    L^3 = Z = <x6>, and x3, x4 are tied into the brackets so nothing
    central escapes L^2.
    """
    return LieAlgebra(
        field,
        6,
        {(0, 1): unit(6, 4), (0, 4): unit(6, 5), (2, 3): unit(6, 5)},
    )


def stem7_rank2(field: FieldSpec) -> LieAlgebra:
    """7-dim class-2 stem with Z = L^2 of dimension 2, not the catalog one.

    [x1,x2] = x6, [x1,x3] = x7, [x4,x5] = x6.  The pencil of induced
    alternating forms degenerates to rank 2 along one line, which the
    7-dim catalog stem's pencil never does, so the two are not isomorphic
    and this one is not capable.
    """
    return LieAlgebra(
        field,
        7,
        {(0, 1): unit(7, 5), (0, 2): unit(7, 6), (3, 4): unit(7, 5)},
    )


def rank2_stem_zoo(field: FieldSpec) -> list[tuple[str, LieAlgebra]]:
    """Class-2 stems with Z = L^2 of dimension 2, capable and not."""
    return [
        ("H(1)+H(1)", direct_sum(heisenberg(field, 1), heisenberg(field, 1))),
        ("H(1)+H(2)", direct_sum(heisenberg(field, 1), heisenberg(field, 2))),
        ("H(2)+H(2)", direct_sum(heisenberg(field, 2), heisenberg(field, 2))),
        ("stem7", stem7_rank2(field)),
    ]


def fifth_scaled_l58(field: FieldSpec) -> LieAlgebra:
    """L5_8 with [x1,x2] = x4/5: rescaling x4 gives the catalog table."""
    fifth = field.parse("1/5")
    return LieAlgebra(
        field,
        5,
        {(0, 1): tuple(fifth * c for c in unit(5, 3)), (0, 2): unit(5, 4)},
    )


def out_of_scope_algebra(field: FieldSpec) -> LieAlgebra:
    """dim L^2 = 3: [x1,x2] = x3, [x1,x3] = x4, [x2,x3] = x5."""
    return LieAlgebra(
        field,
        5,
        {(0, 1): unit(5, 2), (0, 2): unit(5, 3), (1, 2): unit(5, 4)},
    )


def jacobi_breaker(field: FieldSpec) -> LieAlgebra:
    """[x1,x2] = x1, [x1,x3] = x2 violates Jacobi on (x1, x2, x3)."""
    return LieAlgebra(field, 3, {(0, 1): unit(3, 0), (0, 2): unit(3, 1)})


def non_nilpotent(field: FieldSpec) -> LieAlgebra:
    """[x1,x2] = x2: solvable, not nilpotent."""
    return LieAlgebra(field, 2, {(0, 1): unit(2, 1)})
