"""Adaptive Bayesian quadrature with weak-greedy convergence diagnostics."""

import os

# The linear algebra runs on panels of n <= budget rows (rank-one Newton
# updates and triangular solves over a few thousand points), too small to
# split: a second BLAS thread only spins after each call. The BLAS library
# reads these when numpy is first imported, so they are set before any
# module here imports it; a value already in the environment is kept. The
# worker processes `runner.pool_map` forks are the program's parallelism:
# they inherit their tasks, which are never sent pickled, and the pin.
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _name in BLAS_THREAD_VARIABLES:
    os.environ.setdefault(_name, "1")

from .domain import (
    Domain,
    UniformDensity,
    TruncatedGaussianDensity,
    TabulatedDensity,
    ConstantMean,
    AffineMean,
    SyntheticIntegrand,
    rkhs_norm,
    weighted_integrals,
)
from .kernels import (
    SquaredExponential,
    Matern,
    InverseMultiquadric,
    Wendland,
    predicted_rate,
    RatePrediction,
)
from .gp import GpState, GridPosterior, empty_state, build_state
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
)
from .engine import (
    Problem,
    RunRecord,
    run_abq,
    estimate_series,
    certificate_grid,
)
from .analysis import (
    Projector,
    Certificates,
    fill_distance,
    nwidth_surrogate,
    fit_rate,
)

__version__ = "0.1.0"
