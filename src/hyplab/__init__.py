"""Symmetric orthogonal polynomial sequences on [-1, 1] and the discrete
hypergroups they induce.

The package is organized around one object, :class:`hyplab.core.CoeffSequence`
(a recurrence-coefficient sequence c(n) in (0,1)), and the quantities it
determines: Haar weights, product linearization tables, Chebyshev connection
coefficients, orthogonalization measures and dual-space estimates.
"""

from .core import (
    CoeffSequence,
    CoefficientDomainError,
    EvalRow,
    HaarRangeError,
    alpha,
    eval_basis,
    eval_basis_grid,
    haar,
    haar_values,
    monic_coeffs,
)
from .families import (
    ConvexSeqSpec,
    FamilyParameterError,
    KMParams,
    UnsupportedFamilyError,
    beta_for_epsilon,
    closed_form_haar,
    h1_lt_2_region,
    in_V,
    km_special_closed_forms,
    make_family,
    parse_family_spec,
    s0_for_epsilon,
)
from .linearization import (
    LinearizationTable,
    NLPReport,
    WeightedSeq,
    check_nlp,
    convolve,
    l1h_norm,
    szwarc_criterion,
    translate,
)
from .chebconnect import (
    CriterionReport,
    connection_coeffs,
    connection_nonneg,
    connection_row_checks,
    criterion_report,
    minimax_probe,
)
from .measures import (
    DensityPiece,
    MeasureSpec,
    basis_gram,
    inner_product,
    jacobi_spectrum,
    measure_mass,
    measure_of,
    orthogonality_error,
    second_moment,
    spectrum_atoms,
    triple_products,
)
from .dual import (
    DualEstimate,
    complex_scan,
    divergence_classify,
    dual_estimate,
    max_abs_profile,
    exclusion_bound,
    exclusion_intervals,
)
from .appendixcheck import (
    TildeSeq,
    chebyshev_partner_residual,
    kernel_identity_residual,
    km_monic_lambda,
    mustar_orthogonality,
    sigma_ratio,
    tilde_density,
    tilde_density_ratio,
    tilde_monic_lambda,
)
from .verify import CRITERIA, SUITES, CriterionResult, run_suite

__version__ = "0.1.0"
