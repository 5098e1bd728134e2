"""Covariance kernels with smoothness metadata.

Each kernel knows whether its native space has infinite smoothness
(square-exponential, multiquadric families) or a finite Sobolev order r
(Matern with half-integer nu, Wendland), which drives the predicted decay
of the worst-case error: exp(-D n^(1/d)) versus n^(-r/d + 1/2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cholesky
from scipy.spatial.distance import cdist

from .exceptions import DomainError, NumericalDegradationError

_HALF_INTEGER_NUS = (0.5, 1.5, 2.5, 3.5)


class Kernel:
    """Base class: symmetric positive (semi-)definite covariance function."""

    def pairwise(self, X, Y):
        raise NotImplementedError

    def diag(self, X):
        raise NotImplementedError

    def __call__(self, x, y):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        y = np.atleast_2d(np.asarray(y, dtype=float))
        return float(self.pairwise(x, y)[0, 0])

    # (smoothness kind, Sobolev order r or None); r may depend on d
    def smoothness(self, d):
        raise NotImplementedError

    def sup_diag(self):
        """sup_x k(x,x); finite for every implemented family."""
        raise NotImplementedError


@dataclass(frozen=True)
class SquaredExponential(Kernel):
    """k(x, y) = exp(-||x - y||^2 / gamma^2)."""

    gamma: float = 1.0

    def __post_init__(self):
        if self.gamma <= 0:
            raise ValueError("gamma must be positive")

    def pairwise(self, X, Y):
        D2 = cdist(np.atleast_2d(X), np.atleast_2d(Y), "sqeuclidean")
        return np.exp(-D2 / self.gamma ** 2)

    def diag(self, X):
        return np.ones(np.atleast_2d(X).shape[0])

    def smoothness(self, d):
        return ("infinite", None)

    def sup_diag(self):
        return 1.0


@dataclass(frozen=True)
class Matern(Kernel):
    """Half-integer Matern kernel, evaluated via its polynomial-exponential form."""

    nu: float = 1.5
    ell: float = 1.0

    def __post_init__(self):
        if self.nu not in _HALF_INTEGER_NUS:
            raise ValueError(f"nu must be one of {_HALF_INTEGER_NUS}")
        if self.ell <= 0:
            raise ValueError("ell must be positive")

    def pairwise(self, X, Y):
        r = cdist(np.atleast_2d(X), np.atleast_2d(Y))
        p = int(self.nu - 0.5)
        u = np.sqrt(2 * self.nu) * r / self.ell
        poly = np.zeros_like(u)
        # k = exp(-u) * p!/(2p)! * sum_i (p+i)!/(i!(p-i)!) (2u)^(p-i)
        for i in range(p + 1):
            coef = math.factorial(p + i) / (math.factorial(i) * math.factorial(p - i))
            poly += coef * (2 * u) ** (p - i)
        return np.exp(-u) * (math.factorial(p) / math.factorial(2 * p)) * poly

    def diag(self, X):
        return np.ones(np.atleast_2d(X).shape[0])

    def smoothness(self, d):
        return ("finite", self.nu + d / 2)

    def sup_diag(self):
        return 1.0


@dataclass(frozen=True)
class Multiquadric(Kernel):
    """k(x, y) = (-1)^ceil(beta) (c^2 + ||x-y||^2)^beta, beta > 0 not an integer.

    Only conditionally positive definite; Gram factorizations may need
    heavy jitter and are surfaced through the jitter record rather than
    hidden.
    """

    beta: float = 0.5
    c: float = 1.0

    def __post_init__(self):
        if self.beta <= 0 or float(self.beta).is_integer():
            raise ValueError("beta must be positive and not an integer")
        if self.c <= 0:
            raise ValueError("c must be positive")

    @property
    def sign(self):
        return (-1.0) ** math.ceil(self.beta)

    def pairwise(self, X, Y):
        D2 = cdist(np.atleast_2d(X), np.atleast_2d(Y), "sqeuclidean")
        return self.sign * (self.c ** 2 + D2) ** self.beta

    def diag(self, X):
        return np.full(np.atleast_2d(X).shape[0], self.sign * self.c ** (2 * self.beta))

    def smoothness(self, d):
        return ("infinite", None)

    def sup_diag(self):
        return abs(self.c ** (2 * self.beta))


@dataclass(frozen=True)
class InverseMultiquadric(Kernel):
    """k(x, y) = (c^2 + ||x-y||^2)^(-beta)."""

    beta: float = 0.5
    c: float = 1.0

    def __post_init__(self):
        if self.beta <= 0:
            raise ValueError("beta must be positive")
        if self.c <= 0:
            raise ValueError("c must be positive")

    def pairwise(self, X, Y):
        D2 = cdist(np.atleast_2d(X), np.atleast_2d(Y), "sqeuclidean")
        return (self.c ** 2 + D2) ** (-self.beta)

    def diag(self, X):
        return np.full(np.atleast_2d(X).shape[0], self.c ** (-2 * self.beta))

    def smoothness(self, d):
        return ("infinite", None)

    def sup_diag(self):
        return self.c ** (-2 * self.beta)


@dataclass(frozen=True)
class Wendland(Kernel):
    """Compactly supported Wendland kernel, minimal degree, valid for d <= 3.

    smoothness_index k in {0, 1, 2} gives a C^(2k) kernel whose native
    space on R^d is a Sobolev space of order d/2 + k + 1/2.
    """

    smoothness_index: int = 1
    radius: float = 1.0

    def __post_init__(self):
        if self.smoothness_index not in (0, 1, 2):
            raise ValueError("smoothness_index must be 0, 1 or 2")
        if self.radius <= 0:
            raise ValueError("radius must be positive")

    def pairwise(self, X, Y):
        r = cdist(np.atleast_2d(X), np.atleast_2d(Y)) / self.radius
        t = np.maximum(1.0 - r, 0.0)
        k = self.smoothness_index
        if k == 0:
            return t ** 2
        if k == 1:
            return t ** 4 * (4 * r + 1)
        return t ** 6 * (35 * r ** 2 + 18 * r + 3) / 3.0

    def diag(self, X):
        return np.full(np.atleast_2d(X).shape[0], 1.0)

    def smoothness(self, d):
        if d > 3:
            raise DomainError("Wendland family implemented for d <= 3 only")
        return ("finite", d / 2 + self.smoothness_index + 0.5)

    def sup_diag(self):
        return 1.0


def gram(kernel, X):
    """Kernel matrix, made bitwise symmetric by mirroring the upper triangle."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    K = kernel.pairwise(X, X)
    iu = np.triu_indices(K.shape[0], k=1)
    K[(iu[1], iu[0])] = K[iu]
    return K


def chol_with_jitter(K, max_doublings=10):
    """Lower Cholesky factor of K + jitter*I under the adaptive jitter policy.

    Jitter starts at 1e-12 * max diagonal and doubles at most
    `max_doublings` times before giving up.
    """
    n = K.shape[0]
    if n == 0:
        return np.zeros((0, 0)), 0.0
    jitter = 1e-12 * float(np.max(np.diag(K)))
    if jitter <= 0:
        jitter = 1e-12
    for _ in range(max_doublings + 1):
        try:
            L = cholesky(K + jitter * np.eye(n), lower=True)
            return L, jitter
        except np.linalg.LinAlgError:
            jitter *= 2
        except Exception:
            jitter *= 2
    raise NumericalDegradationError(
        f"Cholesky failed after jitter grew to {jitter:g}", jitter_used=jitter
    )


@dataclass(frozen=True)
class RatePrediction:
    """Null model for the worst-case error decay of greedy selection."""

    model: str  # "exponential" or "polynomial"
    exponent: float  # n_power for exponential; slope of log e vs log n for polynomial

    def regressor(self, n):
        n = np.asarray(n, dtype=float)
        if self.model == "exponential":
            return n ** self.exponent
        return np.log(n)


def predicted_rate(kernel, d):
    """Predicted decay form of sup q sqrt(k_Xn) for n greedy points in d dims."""
    kind, r = kernel.smoothness(d)
    if kind == "infinite":
        return RatePrediction(model="exponential", exponent=1.0 / d)
    if r <= d / 2:
        raise DomainError(
            f"finite smoothness order r={r} <= d/2={d / 2}: the rate bound is vacuous"
        )
    return RatePrediction(model="polynomial", exponent=-(r / d - 0.5))
