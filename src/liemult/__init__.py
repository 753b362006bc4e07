"""Exact invariants of small nilpotent Lie algebras.

Computes the classification, Schur multiplier dimension, exterior and
tensor square dimensions, corank, and capability for finite-dimensional
nilpotent Lie algebras whose derived subalgebra has dimension at most 2,
and cross-checks every closed form against an independent brute-force
computation (degree-2 cohomology, and the epicenter as the kernel of the
exterior-square pairing read off the same reduced differential).
"""

from .algebra import LieAlgebra, SeriesReport, direct_sum, reduce_mod_p
from .catalog import CatalogId, Family, make_catalog
from .classify import Classification, StemDecomposition, classify, has_rank2_member, stem_decompose
from .cohomology import (
    ComplexIntegrityError,
    OracleReport,
    cochain_complex,
    epicenter,
    oracle_report,
    schur_dim_oracle,
)
from .document import DocumentError, dumps_algebra, loads_algebra
from .fields import FieldSpec, Fp, gf, rationals
from .formulas import FunctorReport, functor_report
from .linalg import Matrix, Subspace, kernel, invert, random_invertible, rref
from .verify import CrossCheckReport, builtin_suite, cross_check

__version__ = "0.1.0"

__all__ = [
    "Classification",
    "CatalogId",
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
    "builtin_suite",
    "classify",
    "cochain_complex",
    "cross_check",
    "direct_sum",
    "dumps_algebra",
    "epicenter",
    "functor_report",
    "gf",
    "has_rank2_member",
    "invert",
    "kernel",
    "loads_algebra",
    "make_catalog",
    "oracle_report",
    "random_invertible",
    "rationals",
    "reduce_mod_p",
    "rref",
    "schur_dim_oracle",
    "stem_decompose",
]
