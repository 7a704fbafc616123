"""Numerical Kober-type fractional integral operators, their matrix-variate
statistical counterparts, and verification tooling."""

from .errors import (
    ChainDomainError,
    DimensionMismatch,
    DomainError,
    HypergeometricNonConvergent,
    KoberError,
    MomentDivergence,
    NonDifferentiable,
    NotPositiveDefinite,
    OutOfRange,
    ProposalDomainError,
    QuadratureNotConverged,
    RatioOverflow,
    SingularMatrix,
    TailDivergence,
)
from .matgamma import GammaRatioSpec, gamma_p, gamma_ratio, ln_gamma_p, ln_gamma_ratio
from .matrix_ops import (
    Estimate,
    MatrixOpParams,
    MatrixTestFunction,
    MCConfig,
    density_constant,
    density_mode_sample,
    det_power,
    det_power_times_exp,
    exp_neg_trace,
    kober_matrix_first,
    kober_matrix_second,
    matrix_callback,
    param_chain,
    wishart_density,
)
from .mtransform import (
    TransformReport,
    gamma_ratio_first,
    gamma_ratio_second,
    mellin_numeric_1d,
    mtransform_mc,
    mtransform_mc_operator,
    mtransform_quadrature,
    verify_transform,
)
from .quadrature import QuadConfig
from .randmat import (
    BetaMatParams,
    RngStream,
    matrix_beta_det_moment,
    sample_dirichlet_chain,
    sample_matrix_beta,
    sample_wishart,
    wishart_det_moment,
)
from .scalar_ops import (
    TestFunction1D,
    as_test_function,
    callback,
    exp_decay,
    exp_growth,
    frac_derivative,
    gauss_2f1,
    kober_first,
    kober_second,
    multivar_frac_derivative,
    multivar_op,
    power,
    power_times_exp,
    riemann_liouville,
    saigo_first,
    weyl_left,
    weyl_right,
)
from .suites import SUITES, CaseResult, SuiteResult, run_suite

__version__ = "0.1.0"
