"""Exact Gaussian-process conditioning on noiseless latent observations.

States are persistent: `extend` returns a fresh state backed by a rank-1
Cholesky extension, leaving the original untouched, so the sequential
loop (and its tests) can backtrack freely.

Two paths give the posterior moments. `posterior` solves densely against
all n design points, O(|P| n^2) on a point set P. `GridPosterior` keeps
the Newton-basis rows V = L^{-1} K(X, P) of one fixed point set and adds
one row per design point, O(|P| n) per step (Mueller & Schaback 2009).
The two agree to rounding. On the benchmark's d=2 and d=3 runs the
means differ by at most 1e-14 and the variances by 2e-15; the gap grows
with the Gram condition number, and tests/test_gp.py states the bound.
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
    return (prior_mean + Kxn @ state.alpha,
            check_floor(var, prior_var, state.jitter_used))


def posterior_var(state, X):
    """Posterior variance alone; see `posterior`."""
    return posterior(state, X)[1]


def check_floor(var, prior_var, jitter_used):
    """Posterior variances clamped at 0; a value below
    -1e-10 * max(1, |prior variance|) raises NumericalDegradationError."""
    floor = -1e-10 * np.maximum(1.0, np.abs(prior_var))
    if np.any(var < floor):
        raise NumericalDegradationError(
            f"posterior variance {float(np.min(var)):g} below clamp tolerance",
            jitter_used=jitter_used,
        )
    return np.maximum(var, 0.0)


class GridPosterior:
    """Posterior moments on a fixed point set P, updated point by point.

    Holds the rows V = L^{-1} K(X, P), the whitened residual
    beta = L^{-1} (z - m_X), the mean m(P) + V^T beta and the variance
    k(P, P) - sum_i V_i^2. `update` adds one row per new design point from
    one kernel row and one product with the new Cholesky row. `mean` and
    `var` carry `posterior`'s clamp and its floor check.
    """

    def __init__(self, state, P):
        self.P = np.atleast_2d(np.asarray(P, dtype=float))
        self.n = 0
        self._prior_var = state.kernel.diag(self.P)
        self._raw_var = self._prior_var.copy()
        self._rows = np.empty((0, self.P.shape[0]))
        self._beta = np.empty(0)
        self.mean = state.mean(self.P)
        self.var = self._prior_var
        self.update(state)

    def update(self, state):
        """Condition on the design points of `state` past the first `n`.

        `state` must extend the state this posterior last saw, as
        `gp.extend` does.
        """
        if state.n == self.n:
            return
        for i in range(self.n, state.n):
            if i == self._rows.shape[0]:
                grown = np.empty((max(8, 2 * i), self.P.shape[0]))
                grown[:i] = self._rows[:i]
                self._rows = grown
                self._beta = np.resize(self._beta, grown.shape[0])
            x = state.X[i:i + 1]
            l_row, pivot = state.chol[i, :i], state.chol[i, i]
            row = state.kernel.pairwise(x, self.P)[0]
            row -= l_row @ self._rows[:i]
            row /= pivot
            resid = state.z[i] - state.mean(x)[0] - l_row @ self._beta[:i]
            self._rows[i] = row
            self._beta[i] = resid / pivot
            self.mean = self.mean + self._beta[i] * row
            row *= row
            self._raw_var -= row
        self.n = state.n
        self.var = check_floor(self._raw_var, self._prior_var, state.jitter_used)


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
    # the first point fixes the jitter for the rest of the chain
    jitter = state.jitter_used if state.n else (1e-12 * abs(k_diag) or 1e-12)
    kvec = state.kernel.pairwise(state.X, x_new)[:, 0]
    w = solve_triangular(state.chol, kvec, lower=True)
    ww = float(w @ w)
    var = float(check_floor(k_diag - ww, k_diag, jitter))
    if var <= max(100.0 * state.jitter_used, 1e-12 * k_diag):
        raise LinearDependenceError(
            f"new point has posterior variance {var:g}, below the dependence "
            f"threshold; design would become numerically singular"
        )
    diag_sq = k_diag + jitter - ww
    n = state.n
    L = np.zeros((n + 1, n + 1))
    L[:n, :n] = state.chol
    L[n, :n] = w
    L[n, n] = np.sqrt(diag_sq)
    X = np.vstack([state.X, x_new])
    z = np.append(state.z, float(z_new))
    alpha = cho_solve((L, True), z - state.mean(X))
    return GpState(kernel=state.kernel, mean=state.mean, X=X, z=z,
                   chol=L, jitter_used=jitter, alpha=alpha)
