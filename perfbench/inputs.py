"""Seeded benchmark inputs and the reference values each op is checked against.

Every document is written here from the benchmark's own bracket tables and
its own GF(p) arithmetic, so a change to liemult's catalog or basis
generators does not change what the benchmark feeds it.  Two exceptions are
by design: `suite` runs `liemult.verify.builtin_suite(5)`, exactly the work
`liemult check` does, and `rational` has liemult randomize each basis
(`--randomize-basis --seed S`).

Reference values come from the source paper's multiplier table, combined
over direct sums with M(A + B) = M(A) + M(B) + dim(A/A^2) dim(B/B^2).
Random pencils have no closed form; for them the benchmark computes
dim L^2 and dim Z(L) with its own rank computations and checks the report
for self-consistency.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass
from math import comb

SUITE_PRIME = 5  # builtin_suite(5) and the default sweep prime for Q inputs

# name -> (dim, brackets) with 0-based pairs and sparse {target: coeff}
_STEMS = {
    "L4_3": (4, {(0, 1): {2: 1}, (0, 2): {3: 1}}),
    "L5_5": (5, {(0, 1): {2: 1}, (0, 2): {4: 1}, (1, 3): {4: 1}}),
    "L5_8": (5, {(0, 1): {3: 1}, (0, 2): {4: 1}}),
    "L6_22": (6, {(0, 1): {4: 1}, (2, 3): {4: 1}, (0, 2): {5: 1}, (1, 3): {5: 1}}),
    "L6_7_2": (6, {(0, 1): {4: 1}, (2, 3): {4: 1, 5: 1}, (0, 2): {5: 1}, (1, 3): {5: 1}}),
    "L1": (7, {(0, 1): {5: 1}, (2, 3): {5: 1}, (0, 4): {6: 1}, (1, 2): {6: 1}}),
}
# the paper's multiplier and centre dimension of each stem; dim L^2 = 2 for all
_STEM_SCHUR = {"L4_3": 2, "L5_5": 4, "L5_8": 6, "L6_22": 8, "L6_7_2": 8, "L1": 9}
_STEM_CENTRE = {"L4_3": 1, "L5_5": 1, "L5_8": 2, "L6_22": 2, "L6_7_2": 2, "L1": 2}
_FREE_SCHUR = {3: 8, 4: 20}  # F(g), the free 2-step nilpotent algebra on g generators


@dataclass(frozen=True)
class Block:
    """One direct summand: a stem name, "H" (rank m), "A" (dim n) or "F" (g gens)."""

    kind: str
    arg: int = 0

    def table(self) -> tuple[int, dict]:
        if self.kind in _STEMS:
            return _STEMS[self.kind]
        if self.kind == "A":
            return self.arg, {}
        if self.kind == "H":
            m = self.arg
            return 2 * m + 1, {(2 * i, 2 * i + 1): {2 * m: 1} for i in range(m)}
        if self.kind == "F":
            g = self.arg
            pairs = [(i, j) for i in range(g) for j in range(i + 1, g)]
            return g + len(pairs), {pq: {g + t: 1} for t, pq in enumerate(pairs)}
        raise ValueError(f"unknown block {self.kind}")

    def invariants(self) -> tuple[int, int, int, int]:
        """(dim, dim L^2, dim Z(L), multiplier) from the paper's table."""
        k, a = self.kind, self.arg
        if k in _STEMS:
            return _STEMS[k][0], 2, _STEM_CENTRE[k], _STEM_SCHUR[k]
        if k == "A":
            return a, 0, a, comb(a, 2)
        if k == "H":
            return 2 * a + 1, 1, 1, 2 if a == 1 else 2 * a * a - a - 1
        if k == "F":
            return a + comb(a, 2), comb(a, 2), comb(a, 2), _FREE_SCHUR[a]
        raise ValueError(f"unknown block {k}")

    def label(self) -> str:
        return self.kind if self.kind in _STEMS else f"{self.kind}({self.arg})"


@dataclass(frozen=True)
class Expected:
    """What a correct analysis of one input says.

    `schur` is None for pencils (no closed form); `exterior`/`tensor` are
    None out of scope.  `capable` is None when no sweep runs or no closed
    form is known.  `lines` is the number of central lines the epicenter
    sweep must visit: (p^z - 1)/(p - 1), or 0 when no sweep runs.
    """

    n: int
    derived_dim: int
    center_dim: int
    schur: int | None
    exterior: int | None
    tensor: int | None
    capable: bool | None
    sweep_prime: int | None
    lines: int


def lines_for(p: int | None, z: int) -> int:
    return 0 if p is None else (p**z - 1) // (p - 1)


def _capable(blocks: tuple[Block, ...]) -> bool:
    """Capability of stem + A(k) for the named capable families, H(m) and A(n)."""
    core = [b for b in blocks if b.kind != "A"]
    if not core:
        return sum(b.arg for b in blocks) > 1
    (stem,) = core
    return stem.kind in _STEMS or (stem.kind == "H" and stem.arg == 1)


def expected_for(blocks: tuple[Block, ...], sweep_prime: int | None) -> Expected:
    n = d = z = schur = ab = 0
    for b in blocks:
        bn, bd, bz, bm = b.invariants()
        schur += bm + ab * (bn - bd)
        n, d, z, ab = n + bn, d + bd, z + bz, ab + bn - bd
    if d > 2:  # out of scope: liemult reports the multiplier only and runs no sweep
        return Expected(n, d, z, schur, None, None, None, None, 0)
    exterior = schur + d
    m = n - d
    return Expected(n, d, z, schur, exterior, exterior + m * (m + 1) // 2,
                    _capable(blocks) if sweep_prime else None, sweep_prime,
                    lines_for(sweep_prime, z))


# -- documents ---------------------------------------------------------------


def direct_sum(blocks: tuple[Block, ...]) -> tuple[int, dict]:
    n, table = 0, {}
    for b in blocks:
        bn, bt = b.table()
        for (i, j), vec in bt.items():
            table[(n + i, n + j)] = {n + k: c for k, c in vec.items()}
        n += bn
    return n, table


def document(field, n: int, table: dict) -> str:
    """Canonical document text: sorted pairs, fixed key order, exact strings."""
    brackets = []
    for (i, j), vec in sorted(table.items()):
        coeffs = [str(vec.get(k, 0)) for k in range(n)]
        if any(c != "0" for c in coeffs):
            brackets.append({"i": i + 1, "j": j + 1, "coeffs": coeffs})
    return json.dumps({"field": field, "dim": n, "brackets": brackets}) + "\n"


def _rank_mod_p(rows: list[list[int]], p: int) -> int:
    rows = [r[:] for r in rows]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        pr = next((i for i in range(rank, len(rows)) if rows[i][c] % p), None)
        if pr is None:
            continue
        rows[rank], rows[pr] = rows[pr], rows[rank]
        inv = pow(rows[rank][c], -1, p)
        rows[rank] = [x * inv % p for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][c] % p:
                f = rows[i][c]
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _inverse_mod_p(m: list[list[int]], p: int) -> list[list[int]] | None:
    n = len(m)
    aug = [row[:] + [int(i == j) for j in range(n)] for i, row in enumerate(m)]
    for c in range(n):
        pr = next((i for i in range(c, n) if aug[i][c] % p), None)
        if pr is None:
            return None
        aug[c], aug[pr] = aug[pr], aug[c]
        inv = pow(aug[c][c], -1, p)
        aug[c] = [x * inv % p for x in aug[c]]
        for i in range(n):
            if i != c and aug[i][c]:
                f = aug[i][c]
                aug[i] = [(x - f * y) % p for x, y in zip(aug[i], aug[c])]
    return [row[n:] for row in aug]


def dense_basis_change(n: int, table: dict, p: int, rng: random.Random) -> dict:
    """The table in a uniformly random basis of GF(p)^n (rows of P are the new basis)."""
    while True:
        P = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
        Pinv = _inverse_mod_p(P, p)
        if Pinv is not None:
            break
    out = {}
    for a in range(n):
        for b in range(a + 1, n):
            v = [0] * n  # [y_a, y_b] in old coordinates
            for (k, l), vec in table.items():
                c = (P[a][k] * P[b][l] - P[a][l] * P[b][k]) % p
                if c:
                    for t, x in vec.items():
                        v[t] += c * x
            new = {t: sum(v[s] * Pinv[s][t] for s in range(n)) % p for t in range(n)}
            new = {t: x for t, x in new.items() if x}
            if new:
                out[(a, b)] = new
    return out


def random_pencil(n: int, p: int, rng: random.Random) -> tuple[dict, int]:
    """A 2-step algebra: [x_i, x_j] = a_ij z1 + b_ij z2 on n - 2 generators.

    Each of a_ij, b_ij is a random unit with probability 1/2, else 0.
    Redrawn until dim L^2 = 2, so every input is a genuine pencil of two
    forms.  Returns (table, dim Z(L)).
    """
    g = n - 2
    pairs = [(i, j) for i in range(g) for j in range(i + 1, g)]
    while True:
        table = {}
        for pq in pairs:
            vec = {}
            for t in (g, g + 1):
                if rng.random() < 0.5:
                    vec[t] = rng.randrange(1, p)
            if vec:
                table[pq] = vec
        forms = [[table.get(pq, {}).get(t, 0) for pq in pairs] for t in (g, g + 1)]
        if _rank_mod_p(forms, p) == 2:
            break
    # x in span(x_1..x_g) is central iff both forms vanish on it
    rows = []
    for t in (g, g + 1):
        for j in range(g):
            row = [0] * g
            for i in range(g):
                if i != j:
                    a, b = min(i, j), max(i, j)
                    c = table.get((a, b), {}).get(t, 0)
                    row[i] = c if i < j else -c
            rows.append(row)
    return table, 2 + g - _rank_mod_p(rows, p)


# -- workloads ---------------------------------------------------------------


@dataclass(frozen=True)
class Input:
    """One op's input: a document for `liemult report`, its extra CLI flags, its reference."""

    name: str
    doc: str
    flags: tuple[str, ...]
    expected: Expected
    pencil: bool = False


# sweep inputs from the catalog: (blocks, primes, random basis?), centre dims 2..6.
# The z = 6 op is a third of a pass; it keeps the catalog basis so that its
# cost, which moves by 30% with the basis, does not vary with the seed.
SWEEP_CATALOG = (
    ((Block("L4_3"), Block("A", 1)), (3, 5, 7), True),  # z = 2
    ((Block("L5_5"), Block("A", 2)), (3, 5), True),  # z = 3
    ((Block("L6_22"), Block("A", 1)), (3, 5, 7), True),  # z = 3
    ((Block("L1"), Block("A", 1)), (3,), True),  # z = 3
    ((Block("L4_3"), Block("A", 3)), (3,), True),  # z = 4
    ((Block("L5_8"), Block("A", 2)), (3,), True),  # z = 4
    ((Block("H", 1), Block("A", 4)), (3,), True),  # z = 5
    ((Block("H", 1), Block("A", 5)), (3,), False),  # z = 6, 364 lines
)
SWEEP_PENCIL_DIMS = (6, 7, 8, 9)
SWEEP_PENCIL_PRIMES = (3, 5, 7)
SWEEP_PENCIL_COPIES = 2


def sweep_inputs(seed: int) -> list[Input]:
    """Capability over GF(3), GF(5), GF(7): dense-basis catalog algebras and random pencils."""
    rng = random.Random(f"sweep/{seed}")
    out = []
    for blocks, primes, dense in SWEEP_CATALOG:
        n, table = direct_sum(blocks)
        label = "+".join(b.label() for b in blocks)
        for p in primes:
            doc = document({"prime": p}, n, dense_basis_change(n, table, p, rng) if dense else table)
            out.append(Input(f"{label}[GF({p})]", doc, (), expected_for(blocks, p)))
    for p in SWEEP_PENCIL_PRIMES:
        for n in SWEEP_PENCIL_DIMS * SWEEP_PENCIL_COPIES:
            table, z = random_pencil(n, p, rng)
            exp = Expected(n, 2, z, None, None, None, None, p, lines_for(p, z))
            out.append(Input(f"pencil{n}[GF({p})]", document({"prime": p}, n, table), (), exp, True))
    return out


# (blocks, copies); copy k of input i gets the fixed basis seed S = 1000 i + k.
# With --randomize-basis one op's cost moves up to 3x with S (L4_3: 11-38 ms,
# H(4): 0.28-0.83 s); with S drawn from the workload seed, ops_per_s spread by
# 0.40 (IQR/median) over five seeds, so S is fixed and the workload, like
# `suite`, takes no seed.
RATIONAL_BLOCKS = (
    ((Block("L4_3"),), 4),
    ((Block("L5_5"),), 4),
    ((Block("L5_8"),), 4),
    ((Block("L6_22"),), 2),
    ((Block("L1"),), 2),
    ((Block("H", 2),), 4),
    ((Block("H", 3),), 2),
    ((Block("H", 4),), 1),
    ((Block("F", 3),), 4),
    ((Block("F", 4),), 1),
    ((Block("H", 1), Block("H", 1), Block("H", 1)), 2),
)


def rational_inputs() -> list[Input]:
    """Q documents in the catalog basis; liemult randomizes each copy's basis."""
    out = []
    for i, (blocks, copies) in enumerate(RATIONAL_BLOCKS):
        n, table = direct_sum(blocks)
        doc = document("rationals", n, table)
        name = "+".join(b.label() for b in blocks) + "[Q]"
        for k in range(copies):
            flags = ("--randomize-basis", "--seed", str(1000 * i + k))
            out.append(Input(name, doc, flags, expected_for(blocks, SUITE_PRIME)))
    return out


_SUITE_NAME = re.compile(
    r"^(?P<stem>L4_3|L5_5|L5_8|L6_22|L6_7_2|L1|H|A)(\((?P<arg>\d+)\))?"
    r"(\+A\((?P<k>\d+)\))?\[(Q|GF\((?P<p>\d+)\))\]$"
)


def suite_expected(name: str, cap_prime: int | None) -> Expected:
    """Reference values for a builtin_suite entry, parsed from its name."""
    m = _SUITE_NAME.match(name)
    if m is None:
        raise ValueError(f"unrecognized suite entry {name!r}")
    stem = m["stem"]
    blocks = [Block(stem, int(m["arg"])) if stem in ("H", "A") else Block(stem)]
    if m["k"] and int(m["k"]):
        blocks.append(Block("A", int(m["k"])))
    p = int(m["p"]) if m["p"] else cap_prime
    return expected_for(tuple(blocks), p)
