"""Exact Gaussian-process conditioning on noiseless latent observations.

States are persistent: `extend` returns a fresh state backed by a rank-1
Cholesky extension, leaving the original untouched, so the sequential
loop (and its tests) can backtrack freely.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_solve, solve_triangular

from . import kernels
from .exceptions import LinearDependenceError, NumericalDegradationError


@dataclass(frozen=True)
class GpState:
    kernel: object
    mean: object
    X: np.ndarray  # (n, d) design points
    z: np.ndarray  # (n,) latent observations g(x_i)
    chol: np.ndarray  # lower Cholesky factor of K_n + jitter*I
    jitter_used: float
    alpha: np.ndarray  # (K_n + jitter I)^{-1} (z - m_n), cached

    @property
    def n(self):
        return self.X.shape[0]

    @property
    def dim(self):
        return self.X.shape[1]


def empty_state(kernel, mean, dim):
    return GpState(
        kernel=kernel,
        mean=mean,
        X=np.zeros((0, dim)),
        z=np.zeros(0),
        chol=np.zeros((0, 0)),
        jitter_used=0.0,
        alpha=np.zeros(0),
    )


def build_state(kernel, mean, X, z):
    """Construct a state from scratch (batch Cholesky with jitter policy)."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    z = np.atleast_1d(np.asarray(z, dtype=float))
    if X.shape[0] != z.shape[0]:
        raise ValueError("X and z length mismatch")
    if X.shape[0] == 0:
        return empty_state(kernel, mean, X.shape[1] if X.ndim == 2 else 1)
    K = kernels.gram(kernel, X)
    L, jitter = kernels.chol_with_jitter(K)
    alpha = cho_solve((L, True), z - mean(X))
    return GpState(kernel=kernel, mean=mean, X=X, z=z, chol=L,
                   jitter_used=jitter, alpha=alpha)


def posterior_mean(state, X):
    """Posterior mean m(x) + k_n(x)^T K_n^{-1} (z - m_n), vectorized over X."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    prior = state.mean(X)
    if state.n == 0:
        return prior
    Kxn = state.kernel.pairwise(X, state.X)
    return prior + Kxn @ state.alpha


def posterior(state, X):
    """(mean, variance) over X from one kernel block and one triangular solve.

    The variance k(x,x) - k_n(x)^T K_n^{-1} k_n(x) is clamped at 0, and a
    value below the clamp tolerance raises NumericalDegradationError.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    prior_mean = state.mean(X)
    prior_var = state.kernel.diag(X)
    if state.n == 0:
        return prior_mean, prior_var
    Kxn = state.kernel.pairwise(X, state.X)
    W = solve_triangular(state.chol, Kxn.T, lower=True)
    var = prior_var - np.sum(W * W, axis=0)
    floor = -1e-10 * np.maximum(1.0, np.abs(prior_var))
    if np.any(var < floor):
        raise NumericalDegradationError(
            f"posterior variance {float(var.min()):g} below clamp tolerance",
            jitter_used=state.jitter_used,
        )
    return prior_mean + Kxn @ state.alpha, np.maximum(var, 0.0)


def posterior_var(state, X):
    """Posterior variance alone; see `posterior`."""
    return posterior(state, X)[1]


def dependence_threshold(state, x):
    k_diag = float(state.kernel.diag(np.atleast_2d(x))[0])
    return max(100.0 * state.jitter_used, 1e-12 * k_diag)


def extend(state, x_new, z_new):
    """State on X + {x_new} via rank-1 Cholesky extension.

    Raises LinearDependenceError when x_new is numerically dependent on
    the current design (the dichotomy of exact-arithmetic invertibility:
    the caller must stop or reselect).
    """
    x_new = np.atleast_2d(np.asarray(x_new, dtype=float))
    if x_new.shape[0] != 1:
        raise ValueError("extend takes a single point")
    k_diag = float(state.kernel.diag(x_new)[0])
    if state.n == 0:
        jitter = 1e-12 * abs(k_diag) if k_diag != 0 else 1e-12
        L = np.array([[np.sqrt(k_diag + jitter)]])
        X = x_new.copy()
        z = np.array([float(z_new)])
        alpha = cho_solve((L, True), z - state.mean(X))
        return GpState(kernel=state.kernel, mean=state.mean, X=X, z=z,
                       chol=L, jitter_used=jitter, alpha=alpha)

    var = float(posterior_var(state, x_new)[0])
    if var <= dependence_threshold(state, x_new):
        raise LinearDependenceError(
            f"new point has posterior variance {var:g}, below the dependence "
            f"threshold; design would become numerically singular"
        )
    kvec = state.kernel.pairwise(state.X, x_new)[:, 0]
    w = solve_triangular(state.chol, kvec, lower=True)
    diag_sq = k_diag + state.jitter_used - float(w @ w)
    if diag_sq <= 0:
        raise LinearDependenceError(
            f"rank-1 Cholesky extension lost positivity (diag^2 = {diag_sq:g})"
        )
    n = state.n
    L = np.zeros((n + 1, n + 1))
    L[:n, :n] = state.chol
    L[n, :n] = w
    L[n, n] = np.sqrt(diag_sq)
    X = np.vstack([state.X, x_new])
    z = np.append(state.z, float(z_new))
    alpha = cho_solve((L, True), z - state.mean(X))
    return GpState(kernel=state.kernel, mean=state.mean, X=X, z=z,
                   chol=L, jitter_used=state.jitter_used, alpha=alpha)
