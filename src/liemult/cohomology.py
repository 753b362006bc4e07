"""Brute-force invariants from degree-2 cohomology with trivial coefficients.

This module is the independent check on every closed form in
:mod:`liemult.formulas`: it never dispatches on a classification, only on
the structure constants.

Basis orderings are fixed and bit-reproducible: degree-2 cochains are
indexed by pairs (i, j), i < j, in lexicographic order, degree-3 cochains
by lexicographic triples (i, j, k), i < j < k.  The differentials for a
1-cochain f and a 2-cochain w are

    (d1 f)(x, y)    = -f([x, y])
    (d2 w)(x, y, z) = -w([x,y], z) + w([x,z], y) - w([y,z], x)

so d2 . d1 = 0 is exactly the Jacobi identity: row (i, j, k) of the
product is the residual [[xi,xj],xk] + [[xj,xk],xi] + [[xk,xi],xj].
`jacobi_residuals` computes its nonzero rows, and it is the only Jacobi
check in the package: `LieAlgebra.validate` keeps its result on the
algebra, and `cochain_complex` refuses an algebra whose list is not
empty.  A valid table is certified by the C(k,3) triples of the k = n - z
coordinates that are not pivots of Z(L), z = dim Z(L); only a table that
fails there is run over every triple, to list each violation.  d1 is
never built: its rows are the negated table vectors, so its rank is
dim L^2, the span that `LieAlgebra.series` already keeps.

Only the row space of d2 is ever read, and `cochain_complex` returns a
smaller matrix with that row space over the C(n,2) pairs: the C(k,3) d2
rows that certified Jacobi, kept on the algebra, and at most d·z wedges
of L^2's basis with Z(L)'s, d = dim L^2 (see `cochain_complex`), so
building it makes no field scalar.  The multiplier dimension is

    C(n,2) - rank(d2) - dim L^2.

The row space of d2 is im ∂₃ in Λ²L, so the nonabelian exterior square
is L∧L = Λ²L / rowspace(d2) (Ellis), of dimension q = C(n,2) - rank(d2).
The epicenter Z*(L) equals the exterior centre
Z^∧(L) = {x : x∧y = 0 in L∧L for all y} (Niroomand, Parvizi and Russo,
J. Algebra 2013).  It is the :func:`~liemult.linalg.annihilator` of the
n x nq pairing matrix whose row j is x ↦ x∧x_j, in the q coordinates of
L∧L read off the RREF of d2 (integer rows, as d2 is), laid out by
:func:`~liemult.linalg.alternating` as Z(L)'s matrix is from the table: a
polynomial computation over any field.  The result is checked to lie in
Z(L), which it must when the rows of d2 span im ∂₃ of a Lie algebra.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import gcd, lcm

from .algebra import JacobiViolation, LieAlgebra, reduce_mod_p
from .linalg import Matrix, Subspace, _Codec, alternating, annihilator, rref


def pair_basis(n: int) -> list[tuple[int, int]]:
    return list(combinations(range(n), 2))

def triple_basis(n: int) -> list[tuple[int, int, int]]:
    return list(combinations(range(n), 3))


class ComplexIntegrityError(ValueError):
    pass


def _d2_rows(vectors: dict, triples, p: int | None):
    """Row (i, j, k) of d2 as (den, {pair: int}): its nonzero entries are the ints over den.

    `vectors` is the algebra's table in the field's codec form (ints, den).
    The row is canonical: over Q, in lowest terms over a divisor of the lcm
    of the (up to three) table vectors' own denominators; over GF(p),
    residues over 1.
    """
    support = {pair: (den, [(l, c, -c) for l, c in enumerate(ints) if c]) for pair, (ints, den) in vectors.items()}
    get = support.get
    for (i, j, k) in triples:
        terms = ((get((i, j)), k, True), (get((i, k)), j, False), (get((j, k)), i, True))
        den = 1 if p is not None else lcm(*[t[0] for t, _, _ in terms if t])
        row: dict[tuple[int, int], int] = {}
        for t, other, negate in terms:
            if t is None:
                continue
            d, entries = t
            scale = den // d
            # adds ±w([..], x_other); w is alternating, so w(x_l, x_other) = -w(x_other, x_l)
            for l, c, minus_c in entries:
                if l != other:
                    if negate != (l > other):
                        c = minus_c
                    key = (l, other) if l < other else (other, l)
                    row[key] = row[key] + c * scale if key in row else c * scale
        if p is not None:
            yield 1, {key: c % p for key, c in row.items() if c % p}
            continue
        row = {key: c for key, c in row.items() if c}
        g = gcd(den, *row.values())
        yield (den, row) if g == 1 else (den // g, {key: c // g for key, c in row.items()})


def _noncentral_rows(L: LieAlgebra) -> list[tuple[int, dict]]:
    """The d2 rows of the C(k,3) triples inside K, built on the first call and kept on L.

    K is the k = n - z columns that are not pivots of Z(L)'s RREF basis.
    """
    if L._d2 is None:
        inside = [i for i in range(L.dim) if i not in L.series().center.pivots]
        object.__setattr__(L, "_d2", list(_d2_rows(L._table, combinations(inside, 3), L.field.p)))
    return L._d2


def _residual(row_den: int, row: dict, L: LieAlgebra) -> tuple | None:
    """The d2 row times d1, a Jacobi residual, as field scalars; None when it is zero."""
    field, vectors = L.field, L._table
    groups: dict[int, list[int]] = {}  # term denominator -> integer residual
    for pair, a in row.items():
        entry = vectors.get(pair)
        if entry is not None:
            vec, den = entry
            d = row_den * den
            acc = groups.get(d)
            groups[d] = [-a * b for b in vec] if acc is None else [x - a * b for x, b in zip(acc, vec)]
    if field.p is not None:  # one group, over 1: reduce it before the zero test
        groups = {d: [x % field.p for x in acc] for d, acc in groups.items()}
    nonzero = [(d, acc) for d, acc in groups.items() if any(acc)]
    if not nonzero:
        return None
    residual = [field.zero] * L.dim  # the row's field scalars, made only now
    for d, acc in nonzero:
        residual = [r + s if s else r for r, s in zip(residual, field.decode(acc, d))]
    return tuple(residual) if any(residual) else None


def jacobi_residuals(L: LieAlgebra) -> list[JacobiViolation]:
    """The nonzero rows of d2·d1, indexed by triple.

    Row (i, j, k) is J(x_i, x_j, x_k) = [[xi,xj],xk] + [[xj,xk],xi] +
    [[xk,xi],xj].  Row (l, m) of d1 is -[x_l, x_m], so the product visits
    only the d2 entries whose pair has a nonzero bracket.

    The rows of the triples inside K (see `_noncentral_rows`) are read
    first, and decide the whole table.  For any antisymmetric table J is
    trilinear and alternating, and J(x, y, c) = 0 for c in Z(L), since
    every bracket with c is zero; Jacobi is not used.  The x_i for i in K
    and the RREF basis of Z(L) are a basis of L, so J vanishes exactly
    when it vanishes on the C(k,3) triples inside K.  Only when one of
    them has a nonzero residual does the pass run over all C(n,3) triples,
    so the list holds every violating triple, in order.  The rows stay on
    L for `cochain_complex`.

    The product runs on Python ints.  Each table vector is the field's
    codec form (integers over one denominator), and each d2 row is integers
    over its own denominator.  A row keeps one integer vector per term
    denominator, the d2 row's times the vector's, and field scalars are
    decoded only for the row's residual.  The denominators are grouped, not
    cleared to one lcm for the whole table: on a dense dim-12 table whose
    792 entries have distinct 7-digit prime denominators, that lcm has
    about 4,750 digits, every product carries it, and the check runs about
    40 times longer than with the groups.
    """
    if not any(_residual(den, row, L) for den, row in _noncentral_rows(L)):
        return []
    triples = triple_basis(L.dim)
    rows = _d2_rows(L._table, triples, L.field.p)
    return [JacobiViolation(*t, r) for t, (den, row) in zip(triples, rows) if (r := _residual(den, row, L))]


def cochain_complex(L: LieAlgebra) -> Matrix:
    """A spanning set of im ∂₃ adapted to Z(L), as rows over the C(n,2) pairs.

    With c_1..c_z the RREF basis of Z(L), u_1..u_d that of L^2 and K the
    k = n - z columns that are not pivots of Z(L), the rows are the d2 rows
    of the C(k,3) triples inside K, which `validate()` kept, then the
    wedges u_a∧c_b, with entry (i, j) equal to u_i c_j - u_j c_i.
    {x_i : i in K} and the c_b are a basis of L and ∂₃ is trilinear, so
    ∂₃(x_i, x_j, c) = -[x_i, x_j]∧c spans L^2∧Z(L) and a triple with two
    central vectors gives 0: the row space is that of d2 for any
    alternating table.  A vector that is a row of both RREF bases gives
    no u∧u, which is 0, and only one of u∧c and c∧u = -u∧c.  Refuses a
    table that breaks Jacobi.
    """
    if L.validate():
        raise ComplexIntegrityError(
            "d2 . d1 != 0; the bracket table violates the Jacobi identity"
        )
    series = L.series()
    pairs = pair_basis(L.dim)
    column = {pq: c for c, pq in enumerate(pairs)}
    width, d2 = len(column), _noncentral_rows(L)
    flat = [0] * (width * len(d2))  # the d2 rows, canonical as _d2_rows yields them; the wedges are not
    dens = []
    for r, (den, entries) in enumerate(d2):
        for pq, c in entries.items():
            flat[r * width + column[pq]] = c
        dens.append(den)
    us = list(zip(series.derived.basis._rows(), series.derived.pivots))
    cs = list(zip(series.center.basis._rows(), series.center.pivots))
    shared = {pivot for u, pivot in us if (u, pivot) in cs}  # rows of both RREF bases
    canonical = L.field.canonical
    for (u, du), pu in us:
        for (c, dc), pc in cs:
            if pu in shared and pc in shared and pu >= pc:
                continue  # u∧u = 0, and c∧u = -u∧c is kept once
            ints, den = canonical([u[i] * c[j] - u[j] * c[i] for i, j in pairs], du * dc)
            flat += ints
            dens.append(den)
    return Matrix(L.field, _Codec(flat, dens), width)


def schur_dim_oracle(L: LieAlgebra) -> int:
    """dim of the multiplier: C(n,2) - rank(d2) - dim L^2."""
    d2 = cochain_complex(L)
    return d2.cols - rref(d2).dim - L.derived_subalgebra().dim


def _exterior_centre(L: LieAlgebra, rowspace: Subspace) -> Subspace:
    """Z^∧(L) = {x : x∧y = 0 in L∧L for all y}, read off the row space of d2.

    L∧L = Λ²L / rowspace(d2), so x_i∧x_j has the q = dim L∧L coordinates of
    row (i, j) of `rowspace.quotient_map()`.  The result is the annihilator of
    the n x n·q pairing matrix whose row j is x ↦ x∧x_j, laid out by
    :func:`~liemult.linalg.alternating` as Z(L)'s matrix is for the bracket.
    """
    series = L.series()
    if not series.is_nilpotent:
        raise ValueError("algebra is not nilpotent")
    n = L.dim
    wedge = dict(zip(pair_basis(n), rowspace.quotient_map()._rows()))  # x_i∧x_j for i < j
    centre = annihilator(alternating(L.field, n, wedge, rowspace.ambient - rowspace.dim))
    if not series.center.contains_subspace(centre):
        raise ComplexIntegrityError("exterior centre is not central: the rows of d2 are not im ∂₃")
    return centre


def epicenter(L: LieAlgebra) -> Subspace:
    """Z*(L), as the exterior centre Z^∧(L), over any field."""
    return _exterior_centre(L, rref(cochain_complex(L)))


@dataclass(frozen=True)
class OracleReport:
    schur: int
    exterior: int | None  # None when dim L^2 > 2
    tensor: int | None
    epicenter_prime: int | None  # the field of the epicenter; None when none was computed
    epicenter_dim: int | None
    capable: bool | None
    sweep_error: str | None = None  # why a rational table could not be reduced


def oracle_report(L: LieAlgebra, capability_prime: int | None = None) -> OracleReport:
    """Every brute-force value, from one cochain complex and one rref(d2).

    For dim L^2 <= 2 the exterior and tensor squares follow from the
    multiplier (exterior = M(L) + dim L^2, tensor = exterior + m(m+1)/2),
    and the epicenter is read off the same RREF when L's field is prime;
    a rational L is checked on its reduction mod `capability_prime` when
    one is given.  A reduction that fails leaves capability undecided and
    records the reason.
    """
    d2 = cochain_complex(L)
    rowspace = rref(d2)
    d = L.derived_subalgebra().dim
    schur = d2.cols - rowspace.dim - d
    if d > 2:
        return OracleReport(schur, None, None, None, None, None)
    exterior = schur + d
    m = L.dim - d
    tensor = exterior + m * (m + 1) // 2
    if L.field.is_prime_field:
        epi = _exterior_centre(L, rowspace).dim
        return OracleReport(schur, exterior, tensor, L.field.p, epi, epi == 0)
    if capability_prime is None:
        return OracleReport(schur, exterior, tensor, None, None, None)
    try:
        target = reduce_mod_p(L, capability_prime)
    except ValueError as exc:
        return OracleReport(schur, exterior, tensor, None, None, None, str(exc))
    epi = epicenter(target).dim
    return OracleReport(schur, exterior, tensor, capability_prime, epi, epi == 0)
