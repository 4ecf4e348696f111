"""Exact-arithmetic toolkit for solvable Lie algebras whose derived
algebras have codimension one or two: derivation algebras, first
cohomology, extensions, canonical forms up to proportional similarity, and
catalog-driven classification sweeps."""

from .exactla import (
    EigenStructure,
    IrreducibleFactorDegreeTooHigh,
    Matrix,
    RealIrrationalEigenvalues,
    Subspace,
    UnsupportedSpectrumError,
    char_poly,
    eigen_structure,
    frac,
    nullspace,
    rref,
    solve,
)
from .liealg import (
    JacobiViolation,
    LieAlgebra,
    abelian,
    adjoint_matrix,
    bracket,
    center,
    derived_series,
    derived_subalgebra,
    direct_sum,
    filiform4,
    heisenberg3,
    is_nilpotent,
    is_solvable,
    lower_central_series,
    make_algebra,
    r_plus_heisenberg,
)
from .deriv import (
    CohomologyClass,
    DerivationSpace,
    NotADerivation,
    derivation_space,
    is_outer,
    project_to_h1,
)
from .ext import (
    ConditionDisagreement,
    LieCSpec,
    build_double_extension,
    check_codim1_condition,
    check_codim2_condition,
    extend_by_derivation,
    is_decomposable_double,
    lie_c_iso_check,
    verify_iso_witness_full,
    verify_weak_similarity_witness,
    witness_from_triple,
)
from .canon import (
    AmbiguousMatch,
    CanonicalForm,
    ExactScalar,
    FamilyTemplate,
    proportional_normalize,
    proportional_similar,
)
from .classify import (
    CatalogEntry,
    ClassificationReport,
    Fingerprint,
    GoldenMismatch,
    GridSpec,
    catalog,
    classify_extensions,
    distinctness_evidence,
    fingerprint,
)

__version__ = "0.1.0"
