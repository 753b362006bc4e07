"""Shared constructions for the test suite.

The explicit stem tables here are hand-expanded and re-validated in the
tests; they exercise structure outside the named catalog families.
`sweep_epicenter` is the line-sweep reference for `cohomology.epicenter`,
`jacobi_residuals_by_brackets` the bracket-based reference for
`LieAlgebra.validate`, `d2_by_brackets` the full C(n,3)-row d2, whose row space
`cohomology.cochain_complex` spans with fewer rows, `d1_by_table` the first
differential, which the package never builds, `rref_by_fractions` the elimination on
`Fraction` entries that `linalg.rref` replaced over Q, `rref_mod_p`
the elimination on residues that `linalg.rref` is checked against over
GF(p), `product_by_scalars` the product on field scalars that `Matrix.__matmul__`
is checked against, and `reduce` the row-by-row residual modulo a subspace, the
reference for `Subspace.quotient_map` and `Subspace.contains_subspace`.
`heisenberg` builds H(m) + A(k) through `make_catalog`, and `free_two_step`
the free 2-step nilpotent algebra F(g), outside the paper's scope.  `wrong_stem_multiplier` plants an error in the closed forms for the
tests that check a mismatch is caught.  `bracket_by_table`,
`center_by_equations`, `change_basis_by_pairs` and `series_by_brackets`
read the table pair by pair, as `LieAlgebra` did before it read every
bracket off its adjoint matrix; no reference calls the code it checks.
`scalars` coerces literal rows into a field, as a `Matrix` requires.  `subspace_sum` and
`intersect` are the subspace operations the tests need and the package
does not.  `random_rank2_stem` draws class-2 stems with dim L^2 = 2,
`random_class3` class-3 algebras with dim L^2 = 2; `filiform` and
`strictly_upper_triangular` are class-4 inputs (for n = 5 and m = 5) whose
derived series takes the general loop;
`class2_pencils` and `class3_normal_forms` enumerate every class-2 pencil
and class-3 normal form of a given size over GF(p) for the exhaustive
boxes, and `box_verdicts` cross-checks each algebra of a box and tallies
its verdicts; and `rank2_member_by_enumeration` is the reference for
`classify.has_rank2_member` over GF(p): it ranks each of the p + 1 members
of the pencil.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations, product

import liemult.formulas as formulas
from liemult import CatalogId, Family, LieAlgebra, direct_sum, make_catalog
from liemult.algebra import JacobiViolation
from liemult.cohomology import ComplexIntegrityError, schur_dim_oracle
from liemult.fields import FieldSpec
from liemult.linalg import Matrix, Subspace, invert, kernel, rref
from liemult.verify import cross_check


def unit(n: int, k: int):
    return tuple(1 if i == k else 0 for i in range(n))


def scalars(field, rows):
    """The rows with each entry coerced into field, as a Matrix requires."""
    return [[field.of(x) for x in row] for row in rows]


def heisenberg(field: FieldSpec, m: int, extra_abelian: int = 0) -> LieAlgebra:
    """H(m) + A(extra_abelian), from the catalog."""
    return make_catalog(CatalogId(Family.HEISENBERG, rank=m, abelian=extra_abelian), field)


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


def random_rank2_stem(field: FieldSpec, s: int, rng) -> LieAlgebra:
    """A random class-2 stem of dimension s with dim L^2 = Z(L) = 2.

    [x_i, x_j] = a_ij x_{s-1} + b_ij x_s on the s - 2 generators, each
    coefficient zero with probability 1/2, else a random nonzero scalar;
    redrawn until the centre is exactly L^2.  Half the draws plant a
    rank-2 member: b_ij is nonzero on one pair only.
    """
    g = s - 2
    nonzero = range(1, field.p) if field.is_prime_field else (-2, -1, 1, 2)
    pairs = [(i, j) for i in range(g) for j in range(i + 1, g)]
    while True:
        planted = rng.choice(pairs) if rng.random() < 0.5 else None
        table = {}
        for pair in pairs:
            vec = [0] * s
            if rng.random() < 0.5:
                vec[g] = rng.choice(nonzero)
            if pair == planted or (planted is None and rng.random() < 0.5):
                vec[g + 1] = rng.choice(nonzero)
            table[pair] = vec
        L = LieAlgebra(field, s, table)
        series = L.series()
        if series.derived_dim == 2 and series.center.dim == 2:
            return L


def random_class3(field: FieldSpec, g: int, rng) -> LieAlgebra:
    """A random class-3 algebra with dim L^2 = 2 on g >= 2 generators.

    Basis x_1..x_g, y, z with [x1,x2] = y and [x1,y] = z, plus a random
    2-form on the generators into z: [x_i, x_j] gains w_ij z, each w_ij
    zero with probability 1/2.  Jacobi holds for every w, since only x1
    brackets with y and z is central.  A degenerate form leaves some
    generator combinations central, so the draw may carry an abelian summand.
    """
    nonzero = range(1, field.p) if field.is_prime_field else (-2, -1, 1, 2)
    n = g + 2
    table = {(0, g): unit(n, g + 1)}
    for i in range(g):
        for j in range(i + 1, g):
            vec = list(unit(n, g)) if (i, j) == (0, 1) else [0] * n
            if rng.random() < 0.5:
                vec[g + 1] = rng.choice(nonzero)
            table[(i, j)] = vec
    return LieAlgebra(field, n, table)


def filiform(field: FieldSpec, n: int) -> LieAlgebra:
    """The standard filiform algebra: [x1, x_i] = x_{i+1} for 2 <= i < n, of class n - 1."""
    return LieAlgebra(field, n, {(0, i): unit(n, i + 1) for i in range(1, n - 1)})


def strictly_upper_triangular(field: FieldSpec, m: int) -> LieAlgebra:
    """n_m, the strictly upper-triangular m x m matrices: [E_ij, E_jk] = E_ik, basis E_ij in pair order.

    Its class is m - 1, and at m = 5 (dim 10) [L^2, L^2] = span E_15 is not 0.
    """
    basis = list(combinations(range(m), 2))
    n = len(basis)
    table = {}
    for a, b in combinations(range(n), 2):
        (i, j), (k, l) = basis[a], basis[b]
        vec = [0] * n
        if j == k:
            vec[basis.index((i, l))] = 1
        if l == i:
            vec[basis.index((k, j))] = -1
        if any(vec):
            table[(a, b)] = vec
    return LieAlgebra(field, n, table)


def class2_pencils(field: FieldSpec, dim: int):
    """Every pencil (B1, B2) on the dim - 2 generators with B1 in Darboux form.

    [x_i, x_j] = B1_ij x_{dim-1} + B2_ij x_dim: B1 runs over e12, e12 + e34,
    ... and B2 over every alternating form.  Yields the algebras with
    dim L^2 = 2, in a fixed order.
    """
    g = dim - 2
    pairs = list(combinations(range(g), 2))
    for rank in range(1, g // 2 + 1):
        b1 = {(2 * t, 2 * t + 1) for t in range(rank)}
        for b2 in product(range(field.p), repeat=len(pairs)):
            table = {pair: [0] * g + [int(pair in b1), c] for pair, c in zip(pairs, b2)}
            L = LieAlgebra(field, dim, table)
            if L.series().derived_dim == 2:
                yield L


def class3_normal_forms(field: FieldSpec, g: int):
    """[x1,x2] = y, [x1,y] = z plus every 2-form w from the g generators into z.

    The shape of `random_class3`, enumerated: [x_i, x_j] gains w_ij z for
    every pair of generators, (1, 2) included, so p^C(g,2) algebras.
    """
    n = g + 2
    pairs = list(combinations(range(g), 2))
    for w in product(range(field.p), repeat=len(pairs)):
        table = {(0, g): unit(n, g + 1)}
        for (i, j), c in zip(pairs, w):
            table[(i, j)] = [0] * g + [int((i, j) == (0, 1)), c]
        yield LieAlgebra(field, n, table)


def box_verdicts(algebras) -> Counter:
    """Cross-check every algebra, capability included; the histogram of verdicts."""
    verdicts = Counter()
    for L in algebras:
        r = cross_check(L)
        assert r.ok and len(r.checks) == 5, (L.table, [c for c in r.checks if not c.ok])
        verdicts[r.classification.describe()] += 1
    return verdicts


def rank2_member_by_enumeration(L: LieAlgebra) -> bool:
    """Whether some aB1 + bB2, (a:b) in P^1(GF(p)), has rank 2; by p + 1 rrefs.

    B1 and B2 are the n x n matrices of the two coordinates of [x_i, x_j]
    along a basis of L^2, read through the pivot columns of its RREF.
    """
    field, n = L.field, L.dim
    c1, c2 = L.derived_subalgebra().pivots
    forms = [[[L.structure_vector(i, j)[c] for j in range(n)] for i in range(n)] for c in (c1, c2)]
    members = [(field.one, field.zero)] + [(field.of(t), field.one) for t in range(field.p)]
    for a, b in members:
        grid = [[a * u + b * v for u, v in zip(r1, r2)] for r1, r2 in zip(*forms)]
        if rref(Matrix(field, grid, cols=n)).dim == 2:
            return True
    return False


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


def free_two_step(field: FieldSpec, g: int) -> LieAlgebra:
    """F(g): the free 2-step nilpotent algebra on g generators, [x_i, x_j] = y_ij for i < j."""
    pairs = list(combinations(range(g), 2))
    n = g + len(pairs)
    return LieAlgebra(field, n, {pair: unit(n, g + k) for k, pair in enumerate(pairs)})


def jacobi_breaker(field: FieldSpec) -> LieAlgebra:
    """[x1,x2] = x1, [x1,x3] = x2 violates Jacobi on (x1, x2, x3)."""
    return LieAlgebra(field, 3, {(0, 1): unit(3, 0), (0, 2): unit(3, 1)})


def non_nilpotent(field: FieldSpec) -> LieAlgebra:
    """[x1,x2] = x2: solvable, not nilpotent."""
    return LieAlgebra(field, 2, {(0, 1): unit(2, 1)})


def wrong_stem_multiplier(monkeypatch, error=lambda c: 1):
    """Add `error(c)` to M(T) in every closed form, so the multiplier and all it fixes go wrong."""
    real = formulas._stem

    def wrong(c):
        rule, schur, capable = real(c)
        return rule, schur + error(c), capable

    monkeypatch.setattr(formulas, "_stem", wrong)


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


def sweep_epicenter(L: LieAlgebra) -> Subspace:
    """Z*(L) over a prime field, by sweeping the central lines.

    A nonzero central z lies in the epicenter iff quotienting by <z>
    drops the multiplier dimension by exactly dim(L^2 ∩ <z>).  The cost
    is (p^d - 1)/(p - 1) multipliers for d = dim Z(L).
    """
    if not L.field.is_prime_field:
        raise ValueError("epicenter sweep needs a prime field (finite enumeration)")
    series = L.series()
    if not series.is_nilpotent:
        raise ValueError("algebra is not nilpotent")
    center = series.center
    if center.dim == 0:
        return Subspace.span(L.field, L.dim, [])
    derived = L.derived_subalgebra()
    m_full = schur_dim_oracle(L)
    p = L.field.p

    members = []
    for z in _central_lines(L.field, center.basis.data, p):
        line = Subspace.span(L.field, L.dim, [z])
        quotient, _ = L.quotient(line)
        drop = 0 if any(reduce(derived, z)) else 1
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


def bracket_by_table(L: LieAlgebra, u, v) -> tuple:
    """Bilinear extension of the table to coordinate vectors."""
    zero = L.field.zero
    out = [zero] * L.dim
    u = [L.field.of(x) for x in u]
    v = [L.field.of(x) for x in v]
    for (i, j), vec in L.table.items():
        coef = u[i] * v[j] - u[j] * v[i]
        if coef:
            out = [a + coef * b for a, b in zip(out, vec)]
    return tuple(out)


def center_by_equations(L: LieAlgebra) -> Subspace:
    """Kernel of the stacked adjoint equations sum_i z_i c_{ij}^k = 0."""
    n = L.dim
    zero = L.field.zero
    rows: dict[tuple[int, int], list] = {}

    def row_for(key):
        if key not in rows:
            rows[key] = [zero] * n
        return rows[key]

    for (a, b), vec in L.table.items():
        for k, coef in enumerate(vec):
            if not coef:
                continue
            r = row_for((b, k))
            r[a] = r[a] + coef
            r = row_for((a, k))
            r[b] = r[b] - coef
    if not rows:
        return Subspace.full(L.field, n)
    eqs = Matrix(L.field, [rows[key] for key in sorted(rows)], cols=n)
    return kernel(eqs)


def change_basis_by_pairs(L: LieAlgebra, p: Matrix) -> LieAlgebra:
    """Conjugate the table: row i of p is the i-th new basis vector."""
    pinv = invert(p)  # raises on singular input
    table = {}
    for i in range(L.dim):
        for j in range(i + 1, L.dim):
            old = bracket_by_table(L, p.data[i], p.data[j])
            new = Matrix(L.field, [old], cols=L.dim) @ pinv
            vec = new.data[0]
            if any(vec):
                table[(i, j)] = vec
    return LieAlgebra(L.field, L.dim, table)


def series_by_brackets(L: LieAlgebra) -> tuple[tuple[Subspace, ...], tuple[Subspace, ...]]:
    """Lower central and derived series, each term spanned by pairwise brackets."""

    def bracket_span(u, v):
        vecs = [bracket_by_table(L, a, b) for a in u.basis.data for b in v.basis.data]
        return Subspace.span(L.field, L.dim, vecs)

    full = Subspace.full(L.field, L.dim)
    lower = [full]
    while True:
        nxt = bracket_span(lower[-1], full)
        if nxt.dim == lower[-1].dim:
            break  # stabilized; nilpotent only if already zero
        lower.append(nxt)
        if nxt.dim == 0:
            break
    derived = list(lower[:2])  # L and L^2; a perfect L stops at L
    while len(derived) > 1 and derived[-1].dim:
        nxt = bracket_span(derived[-1], derived[-1])
        if nxt.dim == derived[-1].dim:
            break
        derived.append(nxt)
    return tuple(lower), tuple(derived)


def jacobi_residuals_by_brackets(L: LieAlgebra) -> list[JacobiViolation]:
    """[[xi,xj],xk] + [[xj,xk],xi] + [[xk,xi],xj] over all triples, by brackets."""
    violations = []
    n = L.dim
    e = Matrix.identity(L.field, n).data
    for i in range(n):
        ei = e[i]
        for j in range(i + 1, n):
            ej = e[j]
            bij = L.structure_vector(i, j)
            for k in range(j + 1, n):
                ek = e[k]
                term = bracket_by_table(L, bij, ek)
                term2 = bracket_by_table(L, L.structure_vector(j, k), ei)
                term3 = bracket_by_table(L, L.structure_vector(k, i), ej)
                residual = tuple(a + b + c for a, b, c in zip(term, term2, term3))
                if any(residual):
                    violations.append(JacobiViolation(i, j, k, residual))
    return violations


def d1_by_table(L: LieAlgebra) -> Matrix:
    """d1: C^1 -> C^2, (d1 f)(x, y) = -f([x, y]); row (i, j), i < j, is -[x_i, x_j]."""
    rows = [[-x for x in L.structure_vector(i, j)] for i, j in combinations(range(L.dim), 2)]
    return Matrix(L.field, rows, cols=L.dim)


def d2_by_brackets(L: LieAlgebra) -> Matrix:
    """d2: C^2 -> C^3, one column per unit 2-cochain, by evaluating brackets.

    Column (a, b) is w = x_a^* ∧ x_b^*, w(u, v) = u_a v_b - u_b v_a, and
    row (i, j, k) is (d2 w)(x_i, x_j, x_k) = -w([x_i,x_j], x_k)
    + w([x_i,x_k], x_j) - w([x_j,x_k], x_i).
    """
    n = L.dim
    e = Matrix.identity(L.field, n).data
    bracket = {(i, j): L.structure_vector(i, j) for i, j in combinations(range(n), 2)}
    columns = []
    for a, b in combinations(range(n), 2):

        def w(u, v):
            return u[a] * v[b] - u[b] * v[a]

        columns.append([
            -w(bracket[i, j], e[k]) + w(bracket[i, k], e[j]) - w(bracket[j, k], e[i])
            for i, j, k in combinations(range(n), 3)
        ])
    return Matrix(L.field, [list(row) for row in zip(*columns)], cols=len(columns))


def rref_by_fractions(grid: list[list], cols: int) -> tuple[list[list], list[int]]:
    """Gauss-Jordan on Fraction entries: (reduced rows, pivot columns)."""
    pivots: list[int] = []
    r = 0
    nrows = len(grid)
    for c in range(cols):
        if r == nrows:
            break
        pr = next((i for i in range(r, nrows) if grid[i][c]), None)
        if pr is None:
            continue
        if pr != r:
            grid[r], grid[pr] = grid[pr], grid[r]
        piv = grid[r][c]
        if piv != 1:
            grid[r] = [x / piv for x in grid[r]]
        prow = grid[r]
        for i in range(nrows):
            if i == r:
                continue
            f = grid[i][c]
            if f:
                grid[i] = [x - f * y for x, y in zip(grid[i], prow)]
        pivots.append(c)
        r += 1
    return grid, pivots


def rref_mod_p(grid: list[list[int]], cols: int, p: int) -> tuple[list[list[int]], list[int]]:
    """Gauss-Jordan on residues mod p: (reduced rows in [0, p), pivot columns)."""
    grid = [[x % p for x in row] for row in grid]
    pivots: list[int] = []
    r = 0
    nrows = len(grid)
    for c in range(cols):
        if r == nrows:
            break
        pr = next((i for i in range(r, nrows) if grid[i][c]), None)
        if pr is None:
            continue
        grid[r], grid[pr] = grid[pr], grid[r]
        inv = pow(grid[r][c], -1, p)
        grid[r] = [x * inv % p for x in grid[r]]
        prow = grid[r]
        for i in range(nrows):
            f = grid[i][c]
            if f and i != r:
                grid[i] = [(x - f * y) % p for x, y in zip(grid[i], prow)]
        pivots.append(c)
        r += 1
    return grid, pivots


def _dot(u, v, zero):
    """The sum of the products of u and v's nonzero pairs, one field scalar at a time."""
    acc = zero
    for a, b in zip(u, v):
        if a and b:
            acc = acc + a * b
    return acc


def product_by_scalars(a: Matrix, b: Matrix) -> Matrix:
    """a @ b summed on field scalars, entry by entry."""
    columns = list(zip(*b.data)) if b.rows else [()] * b.cols
    return Matrix(a.field, [[_dot(r, c, a.field.zero) for c in columns] for r in a.data], cols=b.cols)


def reduce(u: Subspace, vec) -> list:
    """Residual of vec after subtracting, row by row, its projection onto u's basis."""
    v = [u.field.of(x) for x in vec]
    if len(v) != u.ambient:
        raise ValueError("ambient dimension mismatch")
    for row, pc in zip(u.basis.data, u.pivots):
        f = v[pc]
        if f:
            v = [a - f * b for a, b in zip(v, row)]
    return v


def subspace_sum(u: Subspace, v: Subspace) -> Subspace:
    """u + v, the span of both bases."""
    return Subspace.span(u.field, u.ambient, u.basis.data + v.basis.data)


def intersect(u: Subspace, v: Subspace) -> Subspace:
    """u ∩ v by the kernel of the stacked bases.

    (a, b) with a@U - b@V = 0 range over the left kernel of the stack
    [U; -V]; each such a@U is an intersection vector.
    """
    if u.field != v.field or u.ambient != v.ambient:
        raise ValueError("intersect needs subspaces of one field and ambient dimension")
    if u.dim == 0 or v.dim == 0:
        return Subspace.span(u.field, u.ambient, [])
    negated = [[-x for x in row] for row in v.basis.data]
    stacked = Matrix(u.field, list(u.basis.data) + negated, cols=u.ambient)
    coeffs = kernel(stacked.transpose())
    vecs = []
    zero = u.field.zero
    for c in coeffs.basis.data:
        vec = [zero] * u.ambient
        for coef, row in zip(c[: u.dim], u.basis.data):
            if coef:
                vec = [x + coef * y for x, y in zip(vec, row)]
        vecs.append(vec)
    return Subspace.span(u.field, u.ambient, vecs)
