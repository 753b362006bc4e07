"""Exact invariants of small nilpotent Lie algebras.

Computes the classification, Schur multiplier dimension, exterior and
tensor square dimensions, corank, and capability for finite-dimensional
nilpotent Lie algebras whose derived subalgebra has dimension at most 2,
and cross-checks every closed form against an independent brute-force
computation (degree-2 cohomology and an epicenter sweep over GF(p)).
"""

from .algebra import LieAlgebra, SeriesReport, abelian, direct_sum, reduce_mod_p
from .catalog import CatalogId, Family, heisenberg, make_catalog
from .classify import Classification, StemDecomposition, classify, heisenberg_rank, stem_decompose
from .cohomology import (
    CochainComplexSlice,
    ComplexIntegrityError,
    OracleReport,
    cochain_complex,
    epicenter,
    is_capable_oracle,
    oracle_report,
    schur_dim_oracle,
)
from .document import DocumentError, dumps_algebra, loads_algebra
from .fields import FieldSpec, Fp, gf, rationals
from .formulas import (
    FunctorReport,
    corank,
    exterior_dim,
    exterior_is_abelian,
    functor_report,
    is_capable,
    schur_dim,
    square_dim,
    tensor_dim,
)
from .linalg import Matrix, Subspace, kernel, invert, random_invertible, rref
from .verify import CrossCheckReport, builtin_suite, cross_check, run_suite

__version__ = "0.1.0"

__all__ = [
    "Classification",
    "CatalogId",
    "CochainComplexSlice",
    "ComplexIntegrityError",
    "CrossCheckReport",
    "DocumentError",
    "Family",
    "FieldSpec",
    "Fp",
    "FunctorReport",
    "LieAlgebra",
    "Matrix",
    "OracleReport",
    "SeriesReport",
    "StemDecomposition",
    "Subspace",
    "abelian",
    "builtin_suite",
    "classify",
    "cochain_complex",
    "corank",
    "cross_check",
    "direct_sum",
    "dumps_algebra",
    "epicenter",
    "exterior_dim",
    "exterior_is_abelian",
    "functor_report",
    "gf",
    "heisenberg",
    "heisenberg_rank",
    "invert",
    "is_capable",
    "is_capable_oracle",
    "kernel",
    "loads_algebra",
    "make_catalog",
    "oracle_report",
    "random_invertible",
    "rationals",
    "reduce_mod_p",
    "rref",
    "run_suite",
    "schur_dim",
    "schur_dim_oracle",
    "square_dim",
    "stem_decompose",
    "tensor_dim",
]
