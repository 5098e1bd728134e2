"""Exact Gaussian-process conditioning on noiseless latent observations.

States are persistent: `extend` returns a fresh state backed by a rank-1
Cholesky extension, leaving the original untouched, so the sequential
loop (and its tests) can backtrack freely.

A state carries the Cholesky factor L of its jittered Gram matrix and
the whitened residual beta = L^{-1} (z - m_X). `GridPosterior` is the one
place that computes posterior moments: on a point set P it holds the
Newton-basis rows V = L^{-1} K(X, P), the mean m(P) + V^T beta and the
variance k(P, P) - sum_i V_i^2 (Mueller & Schaback 2009). It is built
from one C-ordered (n, |P|) kernel block K(X, P) and one blocked forward
substitution, `kernels.solve_lower`, written over it; `update` adds one
row per new design point, O(|P| n) per step, and `GridPosterior.extend`
grows a state by a point of P from its column of V. `extend` and
`posterior` are one-point and one-shot forms. Built and updated rows
agree to rounding; the gap grows with the Gram condition number, and
tests/test_gp.py states the bound.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .exceptions import LinearDependenceError, NumericalDegradationError


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
        beta=np.zeros(0),
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
    beta = kernels.solve_lower(L, (z - mean(X))[:, None])[:, 0]
    return GpState(kernel=kernel, mean=mean, X=X, z=z, chol=L,
                   jitter_used=jitter, beta=beta)


def posterior(state, X):
    """(mean, variance) over X: the moments of a one-shot `GridPosterior`."""
    post = GridPosterior(state, X)
    return post.mean, post.var


def check_floor(var, prior_var):
    """Posterior variances clamped at 0; a value below
    -1e-10 * max(1, |prior variance|) raises NumericalDegradationError."""
    floor = -1e-10 * np.maximum(1.0, np.abs(prior_var))
    if np.any(var < floor):
        raise NumericalDegradationError(
            f"posterior variance {float(np.min(var)):g} below clamp tolerance")
    return np.maximum(var, 0.0)


def dependence_floor(jitter_used, prior_var):
    """Posterior variance at or below which the design spans a point."""
    return np.maximum(100.0 * jitter_used, 1e-12 * prior_var)


class GridPosterior:
    """Posterior moments on a point set P, built once and updated point by point.

    Holds the rows V = L^{-1} K(X, P), the mean m(P) + V^T beta and the
    variance k(P, P) - sum_i V_i^2, clamped at 0 with `check_floor`.
    `update` adds one row per new design point from one kernel row and
    one product with the new Cholesky row.
    """

    def __init__(self, state, P):
        self.P = np.atleast_2d(np.asarray(P, dtype=float))
        self.n = state.n
        self.prior_var = state.kernel.diag(self.P)
        self._rows = kernels.solve_lower(state.chol,
                                         state.kernel.pairwise(state.X, self.P))
        self._raw_var = self.prior_var - np.sum(self._rows * self._rows, axis=0)
        self.mean = state.mean(self.P) + self._rows.T @ state.beta
        self.var = check_floor(self._raw_var, self.prior_var)

    def update(self, state):
        """Condition on the design points of `state` past the first `n`.

        `state` must extend the state this posterior last saw, as
        `extend` does.
        """
        if state.n == self.n:
            return
        for i in range(self.n, state.n):
            if i == self._rows.shape[0]:
                grown = np.empty((max(8, 2 * i), self.P.shape[0]))
                grown[:i] = self._rows[:i]
                self._rows = grown
            row = state.kernel.pairwise(state.X[i:i + 1], self.P)[0]
            row -= state.chol[i, :i] @ self._rows[:i]
            row /= state.chol[i, i]
            self._rows[i] = row
            self.mean = self.mean + state.beta[i] * row
            row *= row
            self._raw_var -= row
        self.n = state.n
        self.var = check_floor(self._raw_var, self.prior_var)

    def extend(self, state, index, z):
        """State on X + {P[index]} with latent value z, with no solve: the
        Cholesky row is column `index` of V. Raises LinearDependenceError
        when var[index] is at or below `dependence_floor`, and ValueError
        when `state` is not the state this posterior last saw.
        """
        if state.n != self.n:
            raise ValueError(f"posterior holds {self.n} design points, "
                             f"the state {state.n}")
        prior, var = float(self.prior_var[index]), float(self.var[index])
        if var <= dependence_floor(state.jitter_used, prior):
            raise LinearDependenceError(f"new point has posterior variance {var:g}, "
                                        "at or below the dependence threshold")
        # the first point fixes the jitter for the rest of the chain
        jitter = state.jitter_used if state.n else (1e-12 * abs(prior) or 1e-12)
        n = state.n
        L = np.zeros((n + 1, n + 1))
        L[:n, :n] = state.chol
        L[n, :n] = self._rows[:n, index]
        L[n, n] = np.sqrt(self._raw_var[index] + jitter)
        z = float(z)
        return GpState(kernel=state.kernel, mean=state.mean,
                       X=np.vstack([state.X, self.P[index]]), z=np.append(state.z, z),
                       chol=L, jitter_used=jitter,
                       beta=np.append(state.beta, (z - self.mean[index]) / L[n, n]))


def extend(state, x_new, z_new):
    """State on X + {x_new}: `GridPosterior.extend` on the one-point set {x_new}."""
    x_new = np.atleast_2d(np.asarray(x_new, dtype=float))
    if x_new.shape[0] != 1:
        raise ValueError("extend takes a single point")
    return GridPosterior(state, x_new).extend(state, 0, z_new)
