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

so d2 . d1 = 0 is exactly the Jacobi identity.  Both that product and
rank(d1) = dim L^2 are verified on every complex built here; the
multiplier dimension is then

    C(n,2) - rank(d2) - dim L^2.

The epicenter sweep needs a finite field: it enumerates all one-dimensional
central subspaces <z> and keeps those with
dim M(L) = dim M(L/<z>) - dim(L^2 ∩ <z>), which characterizes membership
in the epicenter.  The collected set must form a subspace; this is checked
by counting, not assumed.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product

from .algebra import LieAlgebra, reduce_mod_p
from .linalg import Matrix, Subspace, rref


def pair_basis(n: int) -> list[tuple[int, int]]:
    return list(combinations(range(n), 2))

def triple_basis(n: int) -> list[tuple[int, int, int]]:
    return list(combinations(range(n), 3))


@dataclass(frozen=True)
class CochainComplexSlice:
    """d1: n -> C(n,2) and d2: C(n,2) -> C(n,3), rows indexed by target basis."""

    n: int
    d1: Matrix
    d2: Matrix
    derived_dim: int


class ComplexIntegrityError(ValueError):
    pass


def _d1_matrix(L: LieAlgebra, pairs) -> Matrix:
    rows = [[-x for x in L.structure_vector(i, j)] for (i, j) in pairs]
    return Matrix(L.field, rows, cols=L.dim)


def _d2_matrix(L: LieAlgebra, pairs, triples) -> Matrix:
    zero = L.field.zero
    idx = {pq: t for t, pq in enumerate(pairs)}
    ncols = len(pairs)
    rows = []
    for (i, j, k) in triples:
        row = [zero] * ncols

        def accumulate(vec, other, sign):
            # contributes sign * w([..], x_other) with w alternating
            for l, c in enumerate(vec):
                if not c:
                    continue
                if l < other:
                    row[idx[(l, other)]] = row[idx[(l, other)]] + (c if sign > 0 else -c)
                elif l > other:
                    row[idx[(other, l)]] = row[idx[(other, l)]] - (c if sign > 0 else -c)

        accumulate(L.structure_vector(i, j), k, -1)
        accumulate(L.structure_vector(i, k), j, +1)
        accumulate(L.structure_vector(j, k), i, -1)
        rows.append(row)
    return Matrix(L.field, rows, cols=ncols)


def _check_d2_d1_zero(L: LieAlgebra, d2: Matrix, pair_index: dict):
    zero = L.field.zero
    ntriples = d2.rows
    for k in range(L.dim):
        acc = [zero] * ntriples
        touched = False
        for (i, j), vec in L.table.items():
            c = vec[k]
            if not c:
                continue
            touched = True
            col = pair_index[(i, j)]
            acc = [a - c * d2.data[t][col] for t, a in enumerate(acc)]
        if touched and any(acc):
            raise ComplexIntegrityError(
                "d2 . d1 != 0; the bracket table violates the Jacobi identity"
            )


def cochain_complex(L: LieAlgebra, check: bool = True) -> CochainComplexSlice:
    """Assemble the degree-(1,2,3) slice; integrity-checked by default."""
    pairs = pair_basis(L.dim)
    triples = triple_basis(L.dim)
    d1 = _d1_matrix(L, pairs)
    d2 = _d2_matrix(L, pairs, triples)
    derived_dim = L.derived_subalgebra().dim
    if check:
        _check_d2_d1_zero(L, d2, {pq: t for t, pq in enumerate(pairs)})
        rank_d1 = rref(d1)[1]
        if rank_d1 != derived_dim:
            raise ComplexIntegrityError(
                f"rank(d1) = {rank_d1} but dim L^2 = {derived_dim}"
            )
    return CochainComplexSlice(L.dim, d1, d2, derived_dim)


def schur_dim_oracle(L: LieAlgebra) -> int:
    """dim of the multiplier: C(n,2) - rank(d2) - dim L^2."""
    cc = cochain_complex(L)
    rank_d2 = rref(cc.d2)[1]
    npairs = cc.d2.cols
    return npairs - rank_d2 - cc.derived_dim


def _central_lines(field, basis_rows, p: int):
    """All one-dimensional subspaces of the span, one normalized vector each."""
    d = len(basis_rows)
    residues = [field.of(r) for r in range(p)]
    one = field.one
    zero = field.zero
    for lead in range(d):
        for tail in product(range(p), repeat=d - 1 - lead):
            coeffs = [zero] * lead + [one] + [residues[t] for t in tail]
            vec = None
            for c, row in zip(coeffs, basis_rows):
                if not c:
                    continue
                scaled = [c * x for x in row]
                vec = scaled if vec is None else [a + b for a, b in zip(vec, scaled)]
            yield tuple(vec)


def epicenter(L: LieAlgebra) -> Subspace:
    """Z*(L) over a prime field, by sweeping the central lines.

    A nonzero central z lies in the epicenter iff quotienting by <z>
    drops the multiplier dimension by exactly dim(L^2 ∩ <z>).
    """
    if not L.field.is_prime_field:
        raise ValueError("epicenter sweep needs a prime field (finite enumeration)")
    series = L.series()
    if not series.is_nilpotent:
        raise ValueError("algebra is not nilpotent")
    center = series.center
    if center.dim == 0:
        return Subspace.zero(L.field, L.dim)
    derived = L.derived_subalgebra()
    m_full = schur_dim_oracle(L)
    p = L.field.p

    members = []
    for z in _central_lines(L.field, center.basis_rows(), p):
        line = Subspace.span(L.field, L.dim, [z])
        quotient, _ = L.quotient(line)
        drop = 1 if derived.contains(z) else 0
        if schur_dim_oracle(quotient) - drop == m_full:
            members.append(z)

    span = Subspace.span(L.field, L.dim, members)
    expected = (p ** span.dim - 1) // (p - 1)
    if len(members) != expected:
        raise ComplexIntegrityError(
            f"epicenter candidate set is not a subspace: {len(members)} lines "
            f"found, a {span.dim}-dim subspace has {expected}"
        )
    return span


def is_capable_oracle(L: LieAlgebra) -> bool:
    """Capability: the epicenter vanishes."""
    return epicenter(L).dim == 0


@dataclass(frozen=True)
class OracleReport:
    schur: int
    exterior: int | None  # None when dim L^2 > 2
    tensor: int | None
    epicenter_prime: int | None  # the field swept; None when no sweep ran
    epicenter_dim: int | None
    capable: bool | None
    sweep_error: str | None = None  # why a rational table could not be reduced


def oracle_report(L: LieAlgebra, capability_prime: int | None = None) -> OracleReport:
    """Every brute-force value, from one multiplier and at most one sweep.

    For dim L^2 <= 2 the exterior and tensor squares follow from the
    multiplier (exterior = M(L) + dim L^2, tensor = exterior + m(m+1)/2),
    and capability is swept: in L's own field when that is prime, else on
    the reduction mod `capability_prime` when one is given.  A reduction
    that fails leaves capability undecided and records the reason.
    """
    d = L.derived_subalgebra().dim
    schur = schur_dim_oracle(L)
    if d > 2:
        return OracleReport(schur, None, None, None, None, None)
    exterior = schur + d
    m = L.dim - d
    tensor = exterior + m * (m + 1) // 2
    target = error = None
    if L.field.is_prime_field:
        target = L
    elif capability_prime is not None:
        try:
            target = reduce_mod_p(L, capability_prime)
        except ValueError as exc:
            error = str(exc)
    if target is None:
        return OracleReport(schur, exterior, tensor, None, None, None, error)
    epi = epicenter(target).dim
    return OracleReport(schur, exterior, tensor, target.field.p, epi, epi == 0)
