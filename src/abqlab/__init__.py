"""Adaptive Bayesian quadrature with weak-greedy convergence diagnostics."""

from .domain import (
    Domain,
    UniformDensity,
    TruncatedGaussianDensity,
    TabulatedDensity,
    ConstantMean,
    AffineMean,
    SyntheticIntegrand,
    rkhs_norm,
    reference_integral,
    reference_integral_refined,
)
from .kernels import (
    SquaredExponential,
    Matern,
    Multiquadric,
    InverseMultiquadric,
    Wendland,
    gram,
    predicted_rate,
    RatePrediction,
)
from .gp import (GpState, empty_state, build_state, posterior, posterior_mean,
                 posterior_var, extend)
from .transforms import Identity, Square, Exponential
from .acquisition import (
    Power,
    Expm1,
    ConstantRule,
    WsabiL,
    WsabiM,
    Mmlt,
    Vbmc,
    AcquisitionSpec,
    theoretical_clcu,
)
from .engine import (
    SelectorConfig,
    Problem,
    RunRecord,
    select_next,
    run_abq,
    estimates,
    certificate_grid,
)
from .analysis import (
    projection_distance_sq,
    greedy_certificate,
    fill_distance,
    nwidth_surrogate,
    fit_rate,
    error_bound_check,
)

__version__ = "0.1.0"
