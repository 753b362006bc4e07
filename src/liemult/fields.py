"""Exact scalar fields: the rationals and prime fields GF(p).

Rational scalars are ``fractions.Fraction`` values (always in lowest terms
with positive denominator).  Prime-field scalars are :class:`Fp` residues,
stored canonically in ``[0, p)``.  Both support ``+ - * /``, unary ``-``,
and truthiness as the zero test, so code that computes on scalars (the
closed forms, and the references in the tests) is written once,
field-agnostically.

:meth:`FieldSpec.parse` (a catalog parameter) and :meth:`FieldSpec.of` (tables,
vectors, parameters) run only where values enter the package; a document's
literals are read by :meth:`FieldSpec.read_row` straight into codec rows and
printed back by :meth:`FieldSpec.format_row`, with no scalar made.  So an
:class:`Fp` is made only by :meth:`FieldSpec.of`, :meth:`FieldSpec.parse`
and :meth:`FieldSpec.decode` (and once for each of ``zero`` and ``one``).

Code that computes on Python ints goes through the integer codec,
:meth:`FieldSpec.encode`, :meth:`FieldSpec.ratio` and :meth:`FieldSpec.decode`,
so no other module knows what a scalar is made of.  A row in codec form is
``(ints, den)``, the scalars ``ints / den``; :meth:`FieldSpec.canonical`
gives the one form of each row that a ``Matrix`` stores, so a ``Matrix``
holds integers only and makes field scalars when its entries are read.
``zero`` and ``one`` are made once per ``FieldSpec``.

Scalars from different fields never mix; mixing raises ``TypeError``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from typing import Sequence, Union

_RAT_RE = re.compile(r"^[+-]?\d+(/\d+)?$")
_INT_RE = re.compile(r"^[+-]?\d+$")

# Primes are capped so that the trial division in `_is_prime` stays short:
# at most sqrt(2^31)/2, about 23,000, odd divisors per modulus.
_MAX_PRIME = 2**31


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


class Fp:
    """A residue mod p.  Arithmetic stays within one modulus."""

    __slots__ = ("val", "p")

    def __init__(self, val: int, p: int):
        self.val = val % p
        self.p = p

    def _match(self, other) -> "Fp":
        if not isinstance(other, Fp):
            raise TypeError(f"cannot mix Fp with {type(other).__name__}")
        if other.p != self.p:
            raise TypeError(f"modulus mismatch: GF({self.p}) vs GF({other.p})")
        return other

    def __add__(self, other):
        other = self._match(other)
        return Fp(self.val + other.val, self.p)

    def __sub__(self, other):
        other = self._match(other)
        return Fp(self.val - other.val, self.p)

    def __mul__(self, other):
        other = self._match(other)
        return Fp(self.val * other.val, self.p)

    def __truediv__(self, other):
        other = self._match(other)
        if other.val == 0:
            raise ZeroDivisionError("division by zero in GF(p)")
        return Fp(self.val * pow(other.val, -1, self.p), self.p)

    def __neg__(self):
        return Fp(-self.val, self.p)

    def __bool__(self):
        return self.val != 0

    def __eq__(self, other):
        return isinstance(other, Fp) and other.p == self.p and other.val == self.val

    def __hash__(self):
        return hash((self.val, self.p))

    def __repr__(self):
        return f"Fp({self.val}, {self.p})"

    def __str__(self):
        return str(self.val)


Scalar = Union[Fraction, Fp]


@dataclass(frozen=True)
class FieldSpec:
    """The rationals (``p is None``) or the prime field GF(p)."""

    p: int | None = None

    def __post_init__(self):
        if self.p is not None:
            if not isinstance(self.p, int) or not _is_prime(self.p):
                raise ValueError(f"not a prime: {self.p!r}")
            if self.p >= _MAX_PRIME:
                raise ValueError(f"prime too large (must be < 2^31): {self.p}")

    @property
    def is_prime_field(self) -> bool:
        return self.p is not None

    @property
    def char(self) -> int:
        return self.p or 0

    @cached_property
    def zero(self) -> Scalar:
        return Fraction(0) if self.p is None else Fp(0, self.p)

    @cached_property
    def one(self) -> Scalar:
        return Fraction(1) if self.p is None else Fp(1, self.p)

    def of(self, x) -> Scalar:
        """Coerce an int, Fraction, or same-field scalar into this field."""
        if self.p is None:
            if isinstance(x, Fraction):
                return x
            if isinstance(x, int):
                return Fraction(x)
        else:
            if isinstance(x, Fp):
                if x.p != self.p:
                    raise TypeError(f"residue mod {x.p} used in GF({self.p})")
                return x
            if isinstance(x, int):
                return Fp(x, self.p)
        raise TypeError(f"cannot coerce {x!r} into {self}")

    def owns(self, x) -> bool:
        if self.p is None:
            return isinstance(x, Fraction)
        return isinstance(x, Fp) and x.p == self.p

    def parse(self, text: str) -> Scalar:
        """Parse an exact scalar literal: "-3/4" or "12" (no floats); see :meth:`read_row`."""
        return self.decode(*self.read_row([text]))[0]

    def read_row(self, texts: Sequence[str]) -> tuple[list[int], int]:
        """Exact scalar literals ("-3/4", " 12 "; no floats) as one codec row (ints, den).

        Over GF(p) a literal is an integer, read mod p, and den is 1; over Q
        den is the lcm of the literals' denominators.  No scalar is made.
        The first entry that is not a string raises TypeError with that entry
        as its one argument, and the first literal that is not exact raises
        ValueError.
        """
        nums, dens = [], []
        p = self.p
        for text in texts:
            if not isinstance(text, str):
                raise TypeError(text)
            text = text.strip()
            if p is not None:
                if not _INT_RE.match(text):
                    raise ValueError(f"not an integer literal: {text!r}")
                nums.append(int(text) % p)
                continue
            if not _RAT_RE.match(text):
                raise ValueError(f"not an exact rational literal: {text!r}")
            num, _, den = text.partition("/")
            den = int(den) if den else 1
            if not den:
                raise ValueError(f"zero denominator: {text!r}")
            nums.append(int(num))
            dens.append(den)
        if p is not None:
            return nums, 1
        den = lcm(*dens)
        return [x * (den // d) for x, d in zip(nums, dens)], den

    def format_row(self, ints: Sequence[int], den: int) -> list[str]:
        """The literals of the scalars ints / den, as :meth:`format` prints them, for a unit den.

        Over GF(p) these are the residues, and no scalar is made.
        """
        p = self.p
        if p is None:
            return [str(x) for x in self.decode(ints, den)]
        inv = pow(den, -1, p)
        return [str(x * inv % p) for x in ints]

    def encode(self, row: Sequence[Scalar]) -> tuple[list[int], int]:
        """(ints, den) with row = ints / den, in the canonical form of
        :meth:`canonical`: over Q, den is the lcm of the denominators; over
        GF(p), ints are the residues and den is 1.

        Raises TypeError on an entry that this field does not own.
        """
        p = self.p
        if p is not None:
            return [x.val if isinstance(x, Fp) and x.p == p else self._foreign(x) for x in row], 1
        ratios = [x.as_integer_ratio() if isinstance(x, Fraction) else self._foreign(x) for x in row]
        den = lcm(*[d for _, d in ratios])
        return [n * (den // d) for n, d in ratios], den

    def ratio(self, x: Scalar) -> tuple[int, int]:
        """(num, den) with x = num / den: lowest terms over Q, (residue, 1) over GF(p)."""
        return x.as_integer_ratio() if self.p is None else (x.val, 1)

    def decode(self, ints: Sequence[int], den: int) -> list[Scalar]:
        """The scalars ints / den, for any ints and a unit den: one inverse per call."""
        zero, p = self.zero, self.p
        if p is None:
            return [Fraction(x, den) if x else zero for x in ints]
        inv = pow(den, -1, p)
        return [Fp(x * inv, p) if x else zero for x in ints]

    def canonical(self, ints: list[int], den: int) -> tuple[list[int], int]:
        """The one (ints, den) that stands for the row ints / den, for any ints and a unit den.

        Over Q the row is in lowest terms: den > 0 and gcd(den, *ints) = 1,
        so den is the lcm of the entries' denominators (1 for a zero row).
        Over GF(p) the ints are residues in [0, p) and den is 1.
        """
        p = self.p
        if p is None:
            if den == 1:
                return ints, 1
            if den < 0:
                ints, den = [-x for x in ints], -den
            g = gcd(den, *ints)
            return ([x // g for x in ints], den // g) if g > 1 else (ints, den)
        if den == 1:
            return (ints, 1) if not ints or 0 <= min(ints) and max(ints) < p else ([x % p for x in ints], 1)
        inv = pow(den, -1, p)
        return [x * inv % p for x in ints], 1

    def format(self, x: Scalar) -> str:
        return str(x) if self.owns(x) else self._foreign(x)

    def _foreign(self, x):
        raise TypeError(f"{x!r} is not a {self} scalar")

    def __str__(self):
        return "Q" if self.p is None else f"GF({self.p})"


_RATIONALS = FieldSpec()


def rationals() -> FieldSpec:
    return _RATIONALS


def gf(p: int) -> FieldSpec:
    return FieldSpec(p)
