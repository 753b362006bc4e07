import random
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest

from conftest import (
    bracket_by_table,
    center_by_equations,
    change_basis_by_pairs,
    filiform,
    heisenberg,
    jacobi_breaker,
    jacobi_residuals_by_brackets,
    non_nilpotent,
    random_class3,
    random_rank2_stem,
    rank2_stem_zoo,
    scalars,
    series_by_brackets,
    strictly_upper_triangular,
    unit,
)

from liemult import LieAlgebra, direct_sum, reduce_mod_p
from liemult.catalog import CatalogId, Family, make_catalog
from liemult.fields import gf, rationals
from liemult.linalg import Matrix, Subspace, random_invertible

QQ = rationals()
G5 = gf(5)


def l4_3(field=QQ):
    return make_catalog(CatalogId(Family.L4_3), field)


def test_construction_normalizes():
    L = LieAlgebra(QQ, 3, {(0, 1): [0, 0, 1], (0, 2): [0, 0, 0]})
    assert (0, 2) not in L.table  # zero rows dropped
    assert L.labels == ("x1", "x2", "x3")


def test_construction_rejects_bad_tables():
    with pytest.raises(ValueError):
        LieAlgebra(QQ, 3, {(1, 0): [0, 0, 1]})  # needs i < j
    with pytest.raises(ValueError):
        LieAlgebra(QQ, 3, {(0, 3): [0, 0, 1]})  # out of range
    with pytest.raises(ValueError):
        LieAlgebra(QQ, 3, {(0, 1): [0, 0]})  # short coefficient vector
    with pytest.raises(ValueError):
        LieAlgebra(QQ, 2, {}, labels=("a",))


def test_structure_vector_antisymmetry():
    L = heisenberg(QQ, 1)
    assert L.structure_vector(0, 1) == unit(3, 2)
    assert L.structure_vector(1, 0) == tuple(-x for x in unit(3, 2))
    assert not any(L.structure_vector(1, 1))


@pytest.mark.parametrize("i, j", [(3, 0), (-1, 0), (0, 3), (0, -1)])
def test_structure_vector_rejects_an_index_out_of_range(i, j):
    L = heisenberg(QQ, 1)  # dim 3: (3, 0) would read [x_0, x_1], (-1, 0) nothing
    with pytest.raises(IndexError):
        L.structure_vector(i, j)


def test_bracket_bilinear():
    L = l4_3()
    u = [1, 2, 0, 0]
    v = [0, 1, 3, 0]
    # [x1 + 2x2, x2 + 3x3] = [x1,x2] + 3[x1,x3] = x3 + 3 x4
    assert L.bracket(u, v) == (0, 0, 1, 3)


def test_ad_and_bracket_reject_wrong_length():
    for L in (heisenberg(QQ, 1), l4_3()):
        n = L.dim
        u = unit(n, 0)
        for v in ([1] * (n - 1), [1] * n + [7]):
            with pytest.raises(ValueError, match="coordinates"):
                L.ad(v)
            with pytest.raises(ValueError, match="coordinates"):
                L.bracket(u, v)


def test_validate_abelian_and_heisenberg():
    assert LieAlgebra(QQ, 4).validate() == []
    assert heisenberg(QQ, 1).validate() == []
    assert heisenberg(G5, 3).validate() == []


def test_validate_detects_violation():
    bad = jacobi_breaker(QQ)
    violations = bad.validate()
    assert len(violations) == 1
    v = violations[0]
    assert (v.i, v.j, v.k) == (0, 1, 2)
    assert any(v.residual)


def _random_table(field, n, rng, two_step, entries=None):
    """Random small brackets; a two-step table is always a Lie algebra.

    A two-step table brackets the first g generators into the last n - g
    coordinates, so every double bracket vanishes; otherwise each pair gets
    a random vector with probability 1/2, which rarely satisfies Jacobi.
    """
    if entries is None:
        entries = range(field.p) if field.is_prime_field else (-2, -1, 0, 0, 1, 2, Fraction(1, 2))
    g = rng.randrange(n + 1) if two_step else n  # generators with brackets
    low = g if two_step else 0  # coordinates kept zero
    table = {
        pq: [0] * low + [rng.choice(entries) for _ in range(n - low)]
        for pq in combinations(range(g), 2)
        if rng.randrange(2)
    }
    return LieAlgebra(field, n, table)


def test_validate_matches_bracket_reference():
    # values and order of the d2·d1 rows against the triple loop over brackets
    rng = random.Random(20261018)
    invalid = total = 0
    for field in (QQ, gf(2), gf(3), G5):
        for n in range(8):
            for case in range(6):
                L = _random_table(field, n, rng, two_step=case % 3 == 0)
                if case % 2:
                    L = L.change_basis(random_invertible(field, n, rng))
                expected = jacobi_residuals_by_brackets(L)
                assert L.validate() == expected, (field, n, case)
                invalid += bool(expected)
                total += 1
    assert min(invalid, total - invalid) >= 50  # both kinds are well represented


def test_validate_verdict_is_invariant_under_change_of_basis():
    # the Jacobiator is trilinear, so a basis change fails Jacobi exactly when
    # the table does: `report --randomize-basis` validates the copy alone
    rng = random.Random(20261022)
    kinds = {False: 0, True: 0}
    for field in (QQ, gf(2), gf(3), G5):
        for n in range(8):
            for case in range(6):
                L = _random_table(field, n, rng, two_step=case % 3 == 0)
                invalid = bool(L.validate())
                copy = L.change_basis(random_invertible(field, n, rng))
                assert bool(copy.validate()) == invalid, (field, n, case)
                kinds[invalid] += 1
    assert min(kinds.values()) >= 50, kinds  # both kinds are well represented


def test_validate_matches_bracket_reference_on_mixed_denominators():
    # the integer residuals keep one vector per term denominator: coprime
    # denominators must not cancel or merge, and a residue near 2^31 must
    # reduce mod p only in the final residual
    rng = random.Random(20261019)
    fractions = (0, 0, 1, Fraction(1, 3), Fraction(-2, 7), Fraction(5, 11), Fraction(4, 9), Fraction(1, 6))
    kinds = dict.fromkeys([(f, bad) for f in ("Q", "GF(2147483647)") for bad in (False, True)], 0)
    for field, entries in ((QQ, fractions), (gf(2**31 - 1), None)):
        for n in range(3, 8):
            for case in range(8):
                L = _random_table(field, n, rng, two_step=case % 4 < 2, entries=entries)
                if case % 2:
                    L = L.change_basis(random_invertible(field, n, rng))
                expected = jacobi_residuals_by_brackets(L)
                assert L.validate() == expected, (field, n, case)
                kinds[str(field), bool(expected)] += 1
    assert min(kinds.values()) >= 15, kinds  # both kinds, over both fields


def test_validate_hand_expanded_residuals():
    # [x1,x2] = 1/3 x3, [x1,x3] = 2/5 x4, [x2,x4] = 3/7 x1: on (1,2,3)
    # [[x1,x2],x3] + [[x2,x3],x1] + [[x3,x1],x2] = 0 + 0 + 2/5·3/7 x1, and on
    # (2,3,4) [[x2,x3],x4] + [[x3,x4],x2] + [[x4,x2],x3] = -3/7·2/5 x4
    L = LieAlgebra(QQ, 4, {(0, 1): (0, 0, Fraction(1, 3), 0), (0, 2): (0, 0, 0, Fraction(2, 5)), (1, 3): (Fraction(3, 7), 0, 0, 0)})
    residual = Fraction(6, 35)
    assert L.validate() == [(0, 1, 2, (residual, 0, 0, 0)), (1, 2, 3, (0, 0, 0, -residual))]
    assert L.validate() == jacobi_residuals_by_brackets(L)


def test_validate_reads_only_noncentral_triples(monkeypatch):
    # J is trilinear, alternating and zero on a central argument, so a valid
    # table is certified by the C(k,3) triples of the k coordinates that are
    # not pivots of Z(L); a violation anywhere shows on one of them, and the
    # list then comes from every triple.  The centres are planted: basis
    # vectors that appear in no bracket, hidden by a random basis.
    import liemult.cohomology as cohomology

    read = []
    real = cohomology._d2_rows

    def recording(vectors, triples, p):
        triples = list(triples)
        read.append(triples)
        return real(vectors, triples, p)

    monkeypatch.setattr(cohomology, "_d2_rows", recording)
    rng = random.Random(20261020)
    kinds = {"valid": 0, "invalid": 0, "valid, z < n": 0}
    for field in (QQ, gf(2), gf(3), G5):
        for n in range(1, 9):
            for case in range(8):
                planted = set(rng.sample(range(n), rng.randint(1, max(1, n // 3))))
                base = _random_table(field, n, rng, two_step=case % 2 == 0)
                table = {pq: vec for pq, vec in base.table.items() if not planted & set(pq)}
                L = LieAlgebra(field, n, table).change_basis(random_invertible(field, n, rng))
                read.clear()
                expected = jacobi_residuals_by_brackets(L)
                assert L.validate() == expected, (field, n, case)
                if expected:
                    kinds["invalid"] += 1
                    continue
                center = L.series().center
                assert center.dim >= len(planted)
                inside = [i for i in range(n) if i not in center.pivots]
                assert [len(t) for t in read] == [comb(n - center.dim, 3)], (field, n, case)
                assert all(set(t) <= set(inside) for t in read[0]), (field, n, case)
                kinds["valid"] += 1
                kinds["valid, z < n"] += center.dim < n
    assert min(kinds.values()) >= 40, kinds


def test_constructions_match_the_table_they_decode_to():
    # change_basis, quotient, direct_sum and reduce_mod_p build from integer
    # rows; each must be the algebra its own decoded table describes
    rng = random.Random(20261021)
    fractions = (-2, -1, 0, 0, 1, 2, Fraction(1, 2), Fraction(-3, 5), Fraction(2, 15))
    named = 0
    for field in (QQ, gf(2), gf(3), G5):
        for n in range(8):
            for case in range(4):
                entries = fractions if field == QQ else None
                L = _random_table(field, n, rng, two_step=case % 2 == 0, entries=entries)
                other = _random_table(field, rng.randrange(4), rng, two_step=True, entries=entries)
                built = [L.change_basis(random_invertible(field, n, rng)), direct_sum(L, other), direct_sum(other, L)]
                built += [L.quotient(ideal)[0] for ideal in (L.series().center, L.derived_subalgebra())]
                if field == QQ:
                    for p in (2, 3, 5):
                        try:
                            built.append(reduce_mod_p(L, p))
                        except ValueError as exc:
                            bad = Fraction(str(exc).split()[1])
                            assert str(exc) == f"coefficient {bad} has denominator divisible by {p}"
                            assert any(bad in vec for vec in L.table.values()) and bad.denominator % p == 0
                            named += 1
                for R in built:
                    again = LieAlgebra(R.field, R.dim, dict(R.table), R.labels)
                    assert again.table == R.table and again._adjoint == R._adjoint, (field, n, case)
    assert named >= 10


def sl2(field):
    """[e,f] = h, [e,h] = -2e, [f,h] = 2f: perfect outside characteristic 2."""
    return LieAlgebra(field, 3, {(0, 1): (0, 0, 1), (0, 2): (-2, 0, 0), (1, 2): (0, 2, 0)})


def test_ad_matches_table_references():
    # structure_vector (read from the table), bracket, bracket_span, both
    # series chains and change_basis (read off the adjoint matrix) and the
    # center (the annihilator of the table at L^2's pivots), against the
    # pair-by-pair readings of the table in conftest
    rng = random.Random(20261019)
    kinds = {"non-nilpotent": 0, "perfect": 0, "invalid": 0}
    for field in (QQ, gf(2), gf(3), G5):
        entries = range(field.p) if field.is_prime_field else (-2, -1, 0, 1, 3, Fraction(-1, 2))
        algebras = [sl2(field), non_nilpotent(field), direct_sum(sl2(field), non_nilpotent(field))]
        algebras += [_random_table(field, n, rng, two_step=case % 2 == 0) for n in range(8) for case in range(6)]
        for L in algebras:
            n = L.dim
            vectors = list(Matrix.identity(field, n).data)
            vectors += [[rng.choice(entries) for _ in range(n)] for _ in range(3)]
            for u in vectors:
                for v in vectors:
                    assert L.bracket(u, v) == bracket_by_table(L, u, v), (field, n)
            zero = (field.zero,) * n
            for i in range(n):
                for j in range(n):
                    expected = L.table.get((i, j)) or tuple(-x for x in L.table.get((j, i), zero))
                    assert L.structure_vector(i, j) == expected, (field, n, i, j)
            u, v = (Subspace.span(field, n, scalars(field, [[rng.choice(entries) for _ in range(n)] for _ in range(k)])) for k in (2, 3))
            pairwise = [bracket_by_table(L, a, b) for a in u.basis.data for b in v.basis.data]
            assert L.bracket_span(u, v) == Subspace.span(field, n, pairwise), (field, n)
            assert L.series().center == center_by_equations(L), (field, n)
            series = L.series()
            assert (series.lower_central, series.derived_series) == series_by_brackets(L), (field, n)
            p = random_invertible(field, n, rng)
            moved = L.change_basis(p)
            assert dict(moved.table) == dict(change_basis_by_pairs(L, p).table), (field, n)
            kinds["non-nilpotent"] += not series.is_nilpotent
            kinds["perfect"] += n > 0 and series.derived_dim == n
            kinds["invalid"] += bool(L.validate())
    assert min(kinds.values()) >= 20, kinds


def test_validate_is_computed_once(monkeypatch):
    import liemult.cohomology as cohomology

    calls = []
    real = cohomology.jacobi_residuals
    monkeypatch.setattr(cohomology, "jacobi_residuals", lambda L: calls.append(L) or real(L))
    bad = jacobi_breaker(G5)
    first = bad.validate()
    first.clear()  # the caller's copy; the kept list is unaffected
    assert bad.validate() == jacobi_residuals_by_brackets(bad) != []
    assert calls == [bad]


def test_bracket_span_cases():
    full = Subspace.full(QQ, 3)
    assert LieAlgebra(QQ, 3).bracket_span(full, full).dim == 0

    h = heisenberg(QQ, 1)
    span = h.bracket_span(Subspace.full(QQ, 3), Subspace.full(QQ, 3))
    assert span == Subspace.span(QQ, 3, scalars(QQ, [unit(3, 2)]))

    L = l4_3()
    derived = L.derived_subalgebra()
    span = L.bracket_span(derived, Subspace.full(QQ, 4))
    assert span == Subspace.span(QQ, 4, scalars(QQ, [unit(4, 3)]))  # [L^2, L] = <x4>


def test_series_abelian():
    rep = LieAlgebra(QQ, 5).series()
    assert rep.nilpotency_class == 1
    assert rep.lower_central_dims() == (5, 0)
    assert rep.center.dim == 5
    assert rep.derived_dim == 0


def test_series_l4_3():
    rep = l4_3().series()
    assert rep.lower_central_dims() == (4, 2, 1, 0)
    assert rep.nilpotency_class == 3
    assert rep.center == Subspace.span(QQ, 4, scalars(QQ, [unit(4, 3)]))
    assert rep.derived_series_dims() == (4, 2, 0)


def test_series_l5_8():
    L = make_catalog(CatalogId(Family.L5_8), QQ)
    rep = L.series()
    assert rep.nilpotency_class == 2
    assert rep.derived_dim == 2
    assert rep.center == Subspace.span(QQ, 5, scalars(QQ, [unit(5, 3), unit(5, 4)]))


def test_series_flags_non_nilpotent():
    rep = non_nilpotent(QQ).series()
    assert not rep.is_nilpotent
    assert rep.nilpotency_class is None
    assert rep.lower_central_dims() == (2, 1)


def test_derived_subalgebra_reads_the_series():
    cases = [LieAlgebra(QQ, 0), LieAlgebra(QQ, 3), non_nilpotent(QQ), sl2(QQ), sl2(G5)]
    cases += [L for _, L in rank2_stem_zoo(QQ)]
    for L in cases:
        full = Subspace.full(L.field, L.dim)
        assert L.derived_subalgebra() == L.bracket_span(full, full)
    for L in (sl2(QQ), sl2(G5)):
        assert L.validate() == []
        rep = L.series()
        assert L.derived_subalgebra() == Subspace.full(L.field, 3)  # perfect: L^2 = L
        assert not rep.is_nilpotent
        assert rep.lower_central_dims() == rep.derived_series_dims() == (3,)
        assert rep.derived_dim == 3


def test_series_is_computed_once():
    L = l4_3()
    assert L.series() is L.series()
    assert L.derived_subalgebra() is L.series().lower_central[1]
    with pytest.raises(TypeError):
        L.table[(0, 1)] = (0, 0, 0, 1)


def test_series_builds_each_ad_once(monkeypatch):
    # L^2 is the span of the table's vectors; every lower central step after
    # it is one product with the adjoint matrix; [L^2, L^2] takes none at
    # class 3, as it lies in L^4 = 0; Z(L)
    # is the annihilator of the table's entries at L^2's pivots, laid out as
    # ad(e_j) read at those pivots, and nothing calls ad
    import liemult.algebra as algebra

    calls, products, annihilated = [], [], []
    real_ad, real_matmul, real_annihilator = LieAlgebra.ad, Matrix.__matmul__, algebra.annihilator
    monkeypatch.setattr(LieAlgebra, "ad", lambda self, v: calls.append(v) or real_ad(self, v))
    monkeypatch.setattr(Matrix, "__matmul__", lambda a, b: products.append(b) or real_matmul(a, b))
    monkeypatch.setattr(algebra, "annihilator", lambda m: annihilated.append(m) or real_annihilator(m))
    for field in (QQ, G5):
        L = direct_sum(l4_3(field), LieAlgebra(field, 2)).change_basis(random_invertible(field, 6, random.Random(3)))
        calls.clear()
        products.clear()
        annihilated.clear()
        assert L.series().lower_central_dims() == (6, 2, 1, 0)
        assert L.series().center.dim == 3
        assert calls == []
        steps = len(L.series().lower_central) - 2  # L^3 and L^4, each from the term before
        assert sum(m is L._adjoint for m in products) == steps
        (m,) = annihilated  # Z(L), the one annihilator of the series
        pivots = L.derived_subalgebra().pivots
        rows = [[row[c] for row in real_ad(L, e).data for c in pivots] for e in Matrix.identity(field, 6).data]
        assert m == Matrix(field, rows, cols=6 * len(pivots))  # row j is ad(e_j) at L^2's pivots


def test_series_shortcut_matches_brackets(monkeypatch):
    # at class 2 and 3 [L^2, L^2] lies in L^4 = 0, so the derived series is
    # L, L^2, 0 with no bracket_span; class 4 and the non-nilpotent still
    # take the general loop, which finds [L^2, L^2] != 0 on n_5
    spans = []
    real = LieAlgebra.bracket_span
    monkeypatch.setattr(LieAlgebra, "bracket_span", lambda self, u, v: spans.append(u) or real(self, u, v))
    rng = random.Random(20261032)
    derived_dims = set()
    for field in (QQ, gf(2), gf(3), G5):
        cases = [(random_class3(field, g, rng), 3) for g in range(2, 6)]
        cases += [(random_rank2_stem(field, s, rng), 2) for s in (5, 6)]
        cases += [(filiform(field, 5), 4), (strictly_upper_triangular(field, 5), 4), (non_nilpotent(field), None)]
        for base, cls in cases:
            L = base.change_basis(random_invertible(field, base.dim, rng))
            spans.clear()
            series = L.series()
            assert series.nilpotency_class == cls, (field, cls)
            assert (series.lower_central, series.derived_series) == series_by_brackets(L), (field, cls)
            assert (spans == []) == (cls in (2, 3)), (field, cls)
            derived_dims.add(series.derived_series_dims())
    assert {(5, 3, 0), (10, 6, 1, 0)} <= derived_dims  # filiform and n_5


def test_quotient_by_zero_is_isomorphic_copy():
    L = l4_3()
    q, proj = L.quotient(Subspace.span(QQ, 4, []))
    assert q.table == L.table
    assert proj.shape == (4, 4)


def test_quotient_heisenberg_by_center():
    h = heisenberg(QQ, 1)
    q, _ = h.quotient(h.series().center)
    assert q.dim == 2 and q.is_abelian


def test_quotient_l4_3_by_top():
    L = l4_3()
    q, proj = L.quotient(Subspace.span(QQ, 4, scalars(QQ, [unit(4, 3)])))
    assert q.dim == 3
    assert q.table == heisenberg(QQ, 1).table  # induced table is [x1,x2] = x3

    def project(vec):
        return (Matrix(QQ, scalars(QQ, [vec])) @ proj).data[0]

    # the projection is a bracket homomorphism
    u, v = (1, 2, 3, 4), (0, 1, 1, 0)
    assert project(L.bracket(u, v)) == q.bracket(project(u), project(v))


def test_quotient_requires_ideal():
    L = l4_3()
    with pytest.raises(ValueError):
        L.quotient(Subspace.span(QQ, 4, scalars(QQ, [unit(4, 0)])))  # <x1> is not an ideal


def test_quotient_builds_one_quotient_map(monkeypatch):
    L = heisenberg(QQ, 2, 1)  # H(2) + A(1), divided by its centre <x5, x6>
    center = L.series().center  # the centre is a kernel, itself read off a quotient map
    calls = []
    real = Subspace.quotient_map
    monkeypatch.setattr(Subspace, "quotient_map", lambda self: calls.append(self) or real(self))
    q, _ = L.quotient(center)
    assert (q.dim, len(calls)) == (4, 1)


def test_quotient_class_never_grows():
    rng = random.Random(5)
    L = make_catalog(CatalogId(Family.L5_5, abelian=1), QQ)
    base_class = L.series().nilpotency_class
    center = L.series().center
    for row in center.basis.data:
        q, _ = L.quotient(Subspace.span(QQ, L.dim, [row]))
        qrep = q.series()
        assert qrep.is_nilpotent and qrep.nilpotency_class <= base_class


def test_direct_sum_block_structure():
    s = direct_sum(LieAlgebra(QQ, 2), LieAlgebra(QQ, 3))
    assert s.dim == 5 and s.is_abelian

    s = direct_sum(heisenberg(QQ, 1), LieAlgebra(QQ, 3))
    rep = s.series()
    assert rep.derived_dim == 1
    assert rep.center.dim == 4  # n - 2 with n = 6

    both = direct_sum(heisenberg(QQ, 1), l4_3())
    rep = both.series()
    assert rep.derived_dim == 1 + 2
    assert rep.center.dim == 1 + 1
    assert rep.nilpotency_class == max(2, 3)


def test_direct_sum_field_mismatch():
    with pytest.raises(ValueError):
        direct_sum(LieAlgebra(QQ, 1), LieAlgebra(G5, 1))


def test_change_basis_preserves_everything():
    rng = random.Random(17)
    for field in (QQ, G5):
        L = make_catalog(CatalogId(Family.L5_5, abelian=1), field)
        base = L.series()
        for _ in range(5):
            p = random_invertible(field, L.dim, rng)
            moved = L.change_basis(p)
            assert moved.validate() == []
            rep = moved.series()
            assert rep.lower_central_dims() == base.lower_central_dims()
            assert rep.center.dim == base.center.dim
            assert rep.derived_series_dims() == base.derived_series_dims()


def test_change_basis_requires_invertible():
    L = heisenberg(QQ, 1)
    with pytest.raises(ValueError):
        L.change_basis(Matrix(QQ, scalars(QQ, [[1, 0, 0], [0, 1, 0], [1, 1, 0]])))


def test_abelianization_dimension():
    for L in (heisenberg(QQ, 2), l4_3(), make_catalog(CatalogId(Family.L1), QQ)):
        rep = L.series()
        full = Subspace.full(QQ, L.dim)
        assert L.bracket_span(full, full) == rep.lower_central[1]
        ab, _ = L.quotient(L.derived_subalgebra())
        assert ab.is_abelian
        assert ab.dim == L.dim - rep.derived_dim


def test_reduce_mod_p():
    L = LieAlgebra(QQ, 3, {(0, 1): [QQ.parse("1/2"), QQ.of(0), QQ.of(1)]})
    red = reduce_mod_p(L, 5)
    assert red.field == G5
    assert red.table[(0, 1)] == (G5.of(3), G5.of(0), G5.of(1))  # 1/2 = 3 mod 5
    with pytest.raises(ValueError):
        reduce_mod_p(L, 2)  # denominator 2 collapses
    with pytest.raises(ValueError):
        reduce_mod_p(red, 5)  # already prime
