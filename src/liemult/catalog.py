"""Constructors for the named small nilpotent Lie algebras.

Bracket tables (1-based generator indices, all other pairs zero):

    A(n)            abelian, no brackets
    H(m)            [x1,x2] = ... = [x_{2m-1},x_{2m}] = x_{2m+1}

The six named stems of the paper, L4_3, L5_5, L5_8, L6_22(eps),
L6_7_2(eta) and L1, are the rows of `STEMS`: each row holds the stem's
presentation, its dimension, class and characteristic, and its multiplier.
`make_catalog` appends an abelian summand A(k) after the core generators.
The two open-ended classification verdicts (rank-2 generalized Heisenberg,
class-3 stem of derived dimension 2) are family names only and cannot be
constructed here.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .algebra import LieAlgebra, direct_sum
from .fields import FieldSpec, Scalar


class Family(str, Enum):
    ABELIAN = "A"
    HEISENBERG = "H"
    L4_3 = "L4_3"
    L5_5 = "L5_5"
    L5_8 = "L5_8"
    L6_22 = "L6_22"
    L6_7_2 = "L6_7_2"
    L1 = "L1"
    GEN_HEISENBERG_RANK2 = "gen_heisenberg_rank2"
    STEM_CLASS3_DIM2 = "stem_class3_dim2"


PARAM = "param"  # a fourth bracket entry: the term is scaled by the family parameter


@dataclass(frozen=True)
class Stem:
    """One named stem T: its presentation and the invariants the paper states for it."""

    dim: int
    nil_class: int
    char2: bool | None  # True: characteristic 2 only; False: characteristic != 2 only; None: any
    schur: int  # dim M(T)
    brackets: tuple  # (i, j, k[, PARAM]): x_k is a term of [x_i, x_j], 1-based
    flag: str | None = None  # the CLI option that sets the parameter
    default: int | None = None  # the parameter when none is given
    note: str = ""  # what the catalog listing says of the parameter

    def allows(self, char: int) -> bool:
        return self.char2 is None or self.char2 == (char == 2)


#: the named stems, in CLI listing order
STEMS = {
    Family.L4_3: Stem(4, 3, None, 2, ((1, 2, 3), (1, 3, 4))),
    Family.L5_5: Stem(5, 3, None, 4, ((1, 2, 3), (1, 3, 5), (2, 4, 5))),
    Family.L5_8: Stem(5, 2, None, 6, ((1, 2, 4), (1, 3, 5))),
    Family.L6_22: Stem(
        6, 2, False, 8, ((1, 2, 5), (3, 4, 5), (1, 3, 6), (2, 4, 6, PARAM)),
        flag="eps", default=1, note="--eps parameter",
    ),
    Family.L6_7_2: Stem(
        6, 2, True, 8, ((1, 2, 5), (3, 4, 5), (3, 4, 6), (1, 3, 6), (2, 4, 6, PARAM)),
        flag="eta", default=0, note="--eta in {0,1}",
    ),
    Family.L1: Stem(7, 2, None, 9, ((1, 2, 6), (3, 4, 6), (1, 5, 7), (2, 3, 7))),
}

#: families make_catalog can build, in CLI listing order
CONSTRUCTIBLE = (Family.ABELIAN, Family.HEISENBERG, *STEMS)


@dataclass(frozen=True)
class CatalogId:
    family: Family
    rank: int | None = None  # Heisenberg rank m
    param: Scalar | int | None = None  # eps for L6_22, eta for L6_7_2
    abelian: int = 0  # appended abelian summand A(k); total dim for ABELIAN

    def base_dim(self) -> int:
        if self.family is Family.ABELIAN:
            return 0
        if self.family is Family.HEISENBERG:
            if self.rank is None or self.rank < 1:
                raise ValueError("Heisenberg rank m >= 1 required")
            return 2 * self.rank + 1
        if self.family not in STEMS:
            raise ValueError(f"family {self.family.value} has no fixed presentation")
        return STEMS[self.family].dim


def _core_table(id: CatalogId, field: FieldSpec, n: int) -> dict:
    fam, param = id.family, None
    if fam is Family.ABELIAN:
        return {}
    if fam is Family.HEISENBERG:
        brackets = [(2 * i + 1, 2 * i + 2, n) for i in range(id.rank)]
    else:
        stem = STEMS[fam]
        if not stem.allows(field.char):
            raise ValueError(f"{fam.value} requires characteristic {'2' if stem.char2 else '!= 2'}")
        brackets = stem.brackets
        if stem.flag is not None:
            param = field.of(stem.default if id.param is None else id.param)
    zero, one, rows = field.zero, field.one, {}
    for i, j, k, *scaled in brackets:
        row = rows.setdefault((i - 1, j - 1), [zero] * n)
        row[k - 1] = param if scaled else one
    return rows


def make_catalog(id: CatalogId, field: FieldSpec) -> LieAlgebra:
    """Build the named algebra plus its abelian summand over the given field."""
    if id.abelian < 0:
        raise ValueError("abelian summand must be >= 0")
    base = id.base_dim()
    if id.rank is not None and id.family is not Family.HEISENBERG:
        raise ValueError(f"family {id.family.value} takes no rank")
    if id.param is not None and (id.family not in STEMS or STEMS[id.family].flag is None):
        raise ValueError(f"family {id.family.value} takes no parameter")
    core = LieAlgebra(field, base, _core_table(id, field, base))
    if id.abelian == 0:
        return core
    return direct_sum(core, LieAlgebra(field, id.abelian))
