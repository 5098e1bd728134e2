"""Exact Gaussian-process conditioning on noiseless latent observations.

A state carries the Cholesky factor L of its Gram matrix `pairwise(X, X)`,
jittered from `kernels.start_jitter` on, and the whitened residual
beta = L^{-1} (z - m_X); states are persistent, so a conditioning step
returns a new one. `GridPosterior` conditions moments one point at a
time: on a point set P it holds its state, the Newton-basis
rows V = L^{-1} K(X, P), the mean m(P) + V^T beta and
the variance k(x, x) - sum_i V_i^2 (Mueller & Schaback 2009), k(x, x) the
one number `prior_var` = `sup_diag()` of the isotropic kernel, built from
one (n, |P|) kernel block and one blocked forward substitution,
`kernels.solve_lower`, written over it. `add(index, z)` is the one
conditioning step: the Cholesky row of P[index] is column `index` of V,
and the new row of V costs one kernel row, O(|P| n); `spanned()` marks
where it raises, and `select(a)`, the greedy step of a run and of the
n-width surrogate, skips those points. Built and added rows agree to
rounding; the gap grows with the Gram condition number, and
tests/test_gp.py states the bound. `prefix_term` walks the Newton rows
of every prefix of a design over a quadrature rule, slab by slab: the
estimates and the error bound's plug-in curve both integrate them.
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
    L, jitter = kernels.chol_with_jitter(kernel.pairwise(X, X))
    beta = kernels.solve_lower(L, (z - mean(X))[:, None])[:, 0]
    return GpState(kernel=kernel, mean=mean, X=X, z=z, chol=L,
                   jitter_used=jitter, beta=beta)


def running_sum(rows):
    """rows[i] = sum_{j <= i} rows[j] in place, row by row, since a cumsum
    down the columns of a C-ordered block strides across memory."""
    for i in range(1, len(rows)):
        rows[i] += rows[i - 1]
    return rows


def prefix_means(state, rows, pts):
    """The posterior means at pts of the prefixes X[:1], ..., X[:n] of the
    state's design, m(pts) + sum_{j < i} beta_j rows_j, written over its
    Newton rows `rows` = L^{-1} K(X, pts), whose first i rows are the
    Newton basis of X[:i] (Mueller & Schaback 2009)."""
    rows *= state.beta[:, None]
    if len(rows):
        rows[0] += state.mean(pts)
    return running_sum(rows)


def prefix_term(state, values):
    """A `domain.weighted_integrals` term over the prefixes X[:1], ..., X[:n]
    of the state's design: on each slab it writes V = L^{-1} K(X, slab), the
    Newton rows, its kernel block from the slab's per-axis gap tables, every
    slab solved with one set of `kernels.block_inverses`, and returns
    `values(V, pts)`, which may write over V."""
    inverses = kernels.block_inverses(state.chol)

    def term(grid, pts):
        V = kernels.solve_lower(state.chol, state.kernel.pairwise(state.X, grid),
                                inverses)
        return values(V, pts)

    term.reads_grid = True
    return term


def clamp_variance(raw, prior_var):
    """max(raw, 0), or NumericalDegradationError when a variance is below
    -1e-10 * max(1, |prior_var|)."""
    if np.any(raw < -1e-10 * max(1.0, abs(prior_var))):
        raise NumericalDegradationError(
            f"posterior variance {float(np.min(raw)):g} below clamp tolerance")
    return np.maximum(raw, 0.0)


def dependence_floor(jitter_used, prior_var):
    """Posterior variance at or below which the design spans a point."""
    return max(100.0 * jitter_used, kernels.start_jitter(prior_var))


def _read_only(view):
    view.flags.writeable = False
    return view


class GridPosterior:
    """Posterior moments on a point set P, conditioned one point at a time.

    `mean` is updated in place by each `add`; `var` is a new array,
    `clamp_variance` of the raw one. The rows V, and the design's L, X, z and
    beta, sit in buffers allocated once, for the state's points and the
    `capacity` points the caller will add, at most |P|: each `add` spans a
    point of P the design did not. Each `add` writes one row of each buffer,
    so the states it returns are read-only prefix views, which later adds
    leave as they are. A row buffer of more than GUARD_FLOATS floats raises
    BudgetExceededError, and so does an L buffer, which is no larger while
    the rows are at most |P|.
    """

    def __init__(self, state, P, capacity=0):
        self.P = np.atleast_2d(np.asarray(P, dtype=float))
        rows = state.n + min(capacity, len(self.P))
        if rows * max(rows, len(self.P)) > GUARD_FLOATS:
            raise BudgetExceededError(f"a posterior of {rows} rows on {len(self.P)} "
                                      "points exceeds the 2^27-float (1 GiB) guard")
        self.state = state
        self.prior_var = state.kernel.sup_diag()  # k(x, x), the same at every x
        self._rows = np.empty((rows, len(self.P)))
        # zeros: L's upper triangle is never written
        self._L = np.zeros((rows, rows))
        self._X, self._z, self._beta = (np.empty((rows, self.P.shape[1])),
                                        np.empty(rows), np.empty(rows))
        n = state.n
        self._L[:n, :n], self._X[:n], self._z[:n], self._beta[:n] = (
            state.chol, state.X, state.z, state.beta)
        V = self._rows[:n]
        V[...] = state.kernel.pairwise(state.X, self.P)
        kernels.solve_lower(state.chol, V)
        self._raw_var = self.prior_var - np.sum(V * V, axis=0)
        self.mean = state.mean(self.P) + V.T @ state.beta
        self.var = clamp_variance(self._raw_var, self.prior_var)

    def spanned(self):
        """Mask of the points of P the design spans, where `add` raises: the
        variance is at or below `dependence_floor`."""
        return self.var <= dependence_floor(self.state.jitter_used, self.prior_var)

    def select(self, a):
        """The greedy step: the index of the first point of P of largest `a`
        among those the design does not span, where `add` cannot raise
        LinearDependenceError, or None when `a` vanishes at all of them."""
        a = np.where(self.spanned(), 0.0, a)
        best = int(np.argmax(a))
        return best if a[best] > 0.0 else None

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
        jitter = state.jitter_used if n else kernels.start_jitter(self.prior_var)
        L = self._L
        L[n, :n] = self._rows[:n, index]  # IndexError past the capacity
        L[n, n] = np.sqrt(self._raw_var[index] + jitter)
        z = float(z)
        self._X[n], self._z[n] = self.P[index], z
        self._beta[n] = (z - self.mean[index]) / L[n, n]
        m = n + 1
        new = GpState(kernel=state.kernel, mean=state.mean,
                      X=_read_only(self._X[:m]), z=_read_only(self._z[:m]),
                      chol=_read_only(L[:m, :m]), jitter_used=jitter,
                      beta=_read_only(self._beta[:m]))
        row = state.kernel.pairwise(new.X[n:], self.P)[0]
        row -= L[n, :n] @ self._rows[:n]
        row /= L[n, n]
        self._rows[n] = row
        self.mean += self._beta[n] * row
        row *= row
        self._raw_var -= row
        self.var = clamp_variance(self._raw_var, self.prior_var)
        self.state = new
        return new
