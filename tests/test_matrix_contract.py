"""The scalar contract: a `Matrix` holds scalars of its field, and only inputs coerce.

`Matrix` checks shape only and stores its entries as given, so every
matrix the package builds must already hold scalars of its field.  An
entry of another field raises `TypeError` at the first `rref` or product,
where the field codec encodes it.  Values
from outside the package are coerced, or rejected, where they enter:
`FieldSpec.parse`, `LieAlgebra.__init__`, `LieAlgebra.ad` and `bracket`,
the catalog's parameter and `random_invertible`.
"""

from fractions import Fraction

import pytest

from liemult import LieAlgebra
from liemult.catalog import CatalogId, Family, make_catalog
from liemult.cli import main
from liemult.document import dumps_algebra
from liemult.fields import Fp, gf, rationals
from liemult.linalg import Matrix, rref
from liemult.verify import builtin_suite, cross_check

QQ = rationals()
G5 = gf(5)


def test_every_matrix_built_holds_scalars_of_its_field(monkeypatch, tmp_path, capsys):
    built = []
    post_init = Matrix.__post_init__

    def recording(self):
        post_init(self)
        built.append(self)

    monkeypatch.setattr(Matrix, "__post_init__", recording)
    for prime in (5, 2):
        for name, algebra, cap in builtin_suite(prime):
            assert cross_check(algebra, name, cap).ok, name
    for name, cid, field in (
        ("l55.json", CatalogId(Family.L5_5), QQ),
        ("l622.json", CatalogId(Family.L6_22, param=1, abelian=1), gf(3)),
    ):
        path = tmp_path / name
        path.write_text(dumps_algebra(make_catalog(cid, field)))
        assert main(["report", str(path), "--oracle", "--randomize-basis", "--seed", "7"]) == 0
    capsys.readouterr()
    assert len(built) > 1000
    foreign = [(m.field, x) for m in built for row in m.data for x in row if not m.field.owns(x)]
    assert foreign == []


def test_bracket_and_ad_coerce_int_vectors_and_reject_foreign_residues():
    L = make_catalog(CatalogId(Family.HEISENBERG, rank=1), G5)  # [x1, x2] = x3
    assert L.bracket([1, 0, 0], [0, 2, 0]) == (G5.zero, G5.zero, G5.of(2))
    assert L.ad([0, 1, 0]) == Matrix(G5, [[G5.zero, G5.zero, G5.one], [G5.zero] * 3, [G5.zero] * 3])
    foreign = [Fp(1, 7), 0, 0]
    with pytest.raises(TypeError):
        L.bracket(foreign, [0, 1, 0])
    with pytest.raises(TypeError):
        L.bracket([0, 1, 0], foreign)
    with pytest.raises(TypeError):
        L.ad(foreign)


@pytest.mark.parametrize("coeff", [Fp(1, 7), Fraction(1, 2)])
def test_lie_algebra_rejects_coefficients_outside_its_field(coeff):
    with pytest.raises(TypeError):
        LieAlgebra(G5, 3, {(0, 1): (0, 0, coeff)})


def test_matrix_checks_shape():
    one = QQ.one
    with pytest.raises(ValueError, match="ragged"):
        Matrix(QQ, [[one, one], [one]])
    with pytest.raises(ValueError, match="expected 3 columns"):
        Matrix(QQ, [[one, one]], cols=3)
    assert Matrix(QQ, [], cols=3).shape == (0, 3)


@pytest.mark.parametrize(
    "field, entry",
    [(G5, Fp(6, 7)), (QQ, 0.5), (G5, 1), (QQ, 1)],
    ids=["residue-mod-7-in-GF5", "float-in-Q", "int-in-GF5", "int-in-Q"],
)
def test_foreign_entry_raises_type_error_at_rref_and_product(field, entry):
    m = Matrix(field, [[entry, field.one]])
    with pytest.raises(TypeError, match="is not a"):
        rref(m)
    with pytest.raises(TypeError, match="is not a"):
        m @ Matrix.identity(field, 2)  # a foreign entry on the left
    with pytest.raises(TypeError, match="is not a"):
        Matrix.identity(field, 1) @ m  # and on the right
