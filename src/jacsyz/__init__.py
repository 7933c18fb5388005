"""jacsyz: exact degree-wise invariants of Jacobian ideals of projective
hypersurfaces with isolated singularities.

The pipeline, bottom to top: exact linear algebra over Q or GF(p); graded
slices of ideals; Milnor-algebra dimensions with the coincidence and
stability thresholds; syzygies of the partials (all / Koszul / essential);
degree-wise saturation with defects, a-invariant and regularity; and an
analyzer that cross-checks every identity relating those routes.
"""

from .analyzer import (
    CIRecord,
    CheckRow,
    InvariantReport,
    TheoremRow,
    analyze,
    ci_analysis,
    run_corpus,
    verify_defect_duality,
)
from .corpus import CORPUS, CorpusEntry
from .fields import QQ, PrimeField, RationalField, field_from_name
from .graded import (
    DegreeTooLowError,
    ideal_slice,
    monomial_basis,
    multiplication_matrix,
    slice_dim,
    space_dim,
)
from .linalg import AmbientMismatchError, ExactMatrix, Subspace, kernel, rank, rref
from .milnor import (
    MilnorProfile,
    milnor_dim,
    milnor_profile,
    smooth_series_coeff,
    quotient_series_coeff,
    top_degree,
)
from .poly import (
    HomogPoly,
    NotHomogeneousError,
    ParseError,
    PolyError,
    ZeroPolynomialError,
    euler_mismatches,
    parse_poly,
    partial_derivatives,
)
from .saturation import (
    PreconditionViolatedError,
    SaturationProfile,
    saturation_profile,
    saturation_slice,
)
from .syzygy import (
    SyzygyProfile,
    ar_dim,
    koszul_cohomology_dim,
    kr_dim,
    syzygy_profile,
)

__version__ = "0.1.0"
