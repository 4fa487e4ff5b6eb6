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
    HaarRangeError,
    eval_basis_grid,
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
    closed_form_max_rel_err,
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
    check_nlp,
    check_nlps,
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
)
from .measures import (
    DensityPiece,
    MeasureSpec,
    basis_gram,
    inner_product,
    inner_products,
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
    dual_estimates,
    max_abs_profile,
    exclusion_bound,
    exclusion_intervals,
)
from .appendixcheck import (
    chebyshev_partner_residual,
    kernel_identity_residual,
    kernel_identity_residuals,
    km_monic_lambda,
    mustar_orthogonality,
    tilde_density,
    tilde_density_ratio,
    tilde_monic_lambda,
)
from .verify import CRITERIA, SUITES, CriterionResult, run_suite

__version__ = "0.1.0"
