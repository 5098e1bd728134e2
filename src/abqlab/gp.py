"""Exact Gaussian-process conditioning on noiseless latent observations.

A state carries the Cholesky factor L of its jittered Gram matrix and
the whitened residual beta = L^{-1} (z - m_X); states are persistent, so
a conditioning step returns a new one. `GridPosterior` is the one place
that computes posterior moments: on a point set P it holds its state,
the Newton-basis rows V = L^{-1} K(X, P), the mean m(P) + V^T beta and
the variance k(x, x) - sum_i V_i^2 (Mueller & Schaback 2009), k(x, x) the
one number `prior_var` = `sup_diag()` of the isotropic kernel, built from
one (n, |P|) kernel block and one blocked forward substitution,
`kernels.solve_lower`, written over it. `add(index, z)` is the one
conditioning step: the Cholesky row of P[index] is column `index` of V,
and the new row of V costs one kernel row, O(|P| n); `spanned()` marks
where it raises. Built and added rows agree to rounding; the gap grows
with the Gram condition number, and tests/test_gp.py states the bound.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .domain import GUARD_FLOATS
from .exceptions import (BudgetExceededError, LinearDependenceError,
                         NumericalDegradationError)


@dataclass(frozen=True)
class GpState:
    kernel: object
    mean: object
    X: np.ndarray  # (n, d) design points
    z: np.ndarray  # (n,) latent observations g(x_i)
    chol: np.ndarray  # lower Cholesky factor L of K_n + jitter*I
    jitter_used: float
    beta: np.ndarray  # L^{-1} (z - m_n), the whitened residual

    @property
    def n(self):
        return self.X.shape[0]


def empty_state(kernel, mean, dim):
    return GpState(
        kernel=kernel,
        mean=mean,
        X=np.zeros((0, dim)),
        z=np.zeros(0),
        chol=np.zeros((0, 0)),
        jitter_used=0.0,
        beta=np.zeros(0),
    )


def build_state(kernel, mean, X, z):
    """Construct a state from scratch (batch Cholesky with jitter policy)."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    z = np.atleast_1d(np.asarray(z, dtype=float))
    if X.shape[0] != z.shape[0]:
        raise ValueError("X and z length mismatch")
    if X.shape[0] == 0:
        return empty_state(kernel, mean, X.shape[1])
    K = kernels.gram(kernel, X)
    L, jitter = kernels.chol_with_jitter(K)
    beta = kernels.solve_lower(L, (z - mean(X))[:, None])[:, 0]
    return GpState(kernel=kernel, mean=mean, X=X, z=z, chol=L,
                   jitter_used=jitter, beta=beta)


def dependence_floor(jitter_used, prior_var):
    """Posterior variance at or below which the design spans a point."""
    return max(100.0 * jitter_used, kernels.JITTER * prior_var)


class GridPosterior:
    """Posterior moments on a point set P, conditioned one point at a time.

    `mean` is updated in place by each `add`; `var` is a new array, clamped
    at 0, and a variance below -1e-10 * max(1, |prior_var|) raises
    NumericalDegradationError. The rows V sit in a buffer allocated once,
    for the state's points and the `capacity` points the caller will add;
    a buffer of more than GUARD_FLOATS floats raises BudgetExceededError.
    """

    def __init__(self, state, P, capacity=0):
        self.P = np.atleast_2d(np.asarray(P, dtype=float))
        rows = state.n + capacity
        if rows * len(self.P) > GUARD_FLOATS:
            raise BudgetExceededError(f"a posterior of {rows} rows on {len(self.P)} "
                                      "points exceeds the 2^27-float (1 GiB) guard")
        self.state = state
        self.prior_var = state.kernel.sup_diag()  # k(x, x), the same at every x
        self._floor = -1e-10 * max(1.0, abs(self.prior_var))
        self._rows = np.empty((rows, len(self.P)))
        V = self._rows[:state.n]
        V[...] = state.kernel.pairwise(state.X, self.P)
        kernels.solve_lower(state.chol, V)
        self._raw_var = self.prior_var - np.sum(V * V, axis=0)
        self.mean = state.mean(self.P) + V.T @ state.beta
        self._clamp()

    def _clamp(self):
        if np.any(self._raw_var < self._floor):
            raise NumericalDegradationError(
                f"posterior variance {float(np.min(self._raw_var)):g} "
                "below clamp tolerance")
        self.var = np.maximum(self._raw_var, 0.0)

    def spanned(self):
        """Mask of the points of P the design spans, where `add` raises: the
        variance is at or below `dependence_floor`."""
        return self.var <= dependence_floor(self.state.jitter_used, self.prior_var)

    def add(self, index, z):
        """Condition on P[index] with latent value z; returns the new state,
        also kept as `state`. Raises LinearDependenceError where `spanned()`
        holds and IndexError past the capacity, leaving the posterior as it
        was."""
        state, n = self.state, self.state.n
        var = float(self.var[index])
        if var <= dependence_floor(state.jitter_used, self.prior_var):
            raise LinearDependenceError(f"new point has posterior variance {var:g}, "
                                        "at or below the dependence threshold")
        # the first point fixes the jitter for the rest of the chain
        jitter = state.jitter_used if n else (kernels.JITTER * abs(self.prior_var)
                                              or kernels.JITTER)
        L = np.zeros((n + 1, n + 1))
        L[:n, :n] = state.chol
        L[n, :n] = self._rows[:n, index]
        L[n, n] = np.sqrt(self._raw_var[index] + jitter)
        z = float(z)
        beta = (z - self.mean[index]) / L[n, n]
        new = GpState(kernel=state.kernel, mean=state.mean,
                      X=np.vstack([state.X, self.P[index]]), z=np.append(state.z, z),
                      chol=L, jitter_used=jitter, beta=np.append(state.beta, beta))
        row = state.kernel.pairwise(new.X[n:], self.P)[0]
        row -= L[n, :n] @ self._rows[:n]
        row /= L[n, n]
        self._rows[n] = row
        self.mean += beta * row
        row *= row
        self._raw_var -= row
        self._clamp()
        self.state = new
        return new
