"""Covariance kernels with smoothness metadata.

Each kernel knows whether its native space has infinite smoothness
(square-exponential, inverse multiquadric) or a finite Sobolev order r
(Matern with half-integer nu, Wendland), which drives the predicted decay
of the worst-case error: exp(-D n^(1/d)) versus n^(-r/d + 1/2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .exceptions import DomainError, NumericalDegradationError

_HALF_INTEGER_NUS = (0.5, 1.5, 2.5, 3.5)

# solve_lower substitutes SOLVE_BLOCK rows at a time and works on at most
# SOLVE_CHUNK right-hand sides at once, so a chunk of rows stays in cache
SOLVE_BLOCK = 16
SOLVE_CHUNK = 4096


def sqdist(X, Y):
    """Squared Euclidean distances ||x_i - y_j||^2 as a C-ordered (|X|, |Y|)
    block, the squared coordinate gaps summed over the dims in order, as
    scipy's cdist does: bit-equal to cdist(X, Y, "sqeuclidean"), and its
    square root to cdist(X, Y). Costs the block and one (|X|, |Y|) buffer."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    if X.shape[1] != Y.shape[1]:
        raise ValueError(f"points of dimension {X.shape[1]} and {Y.shape[1]}")
    D = np.subtract.outer(X[:, 0], Y[:, 0])
    D *= D
    if X.shape[1] > 1:
        gap = np.empty_like(D)
        for k in range(1, X.shape[1]):
            np.subtract.outer(X[:, k], Y[:, k], out=gap)
            gap *= gap
            D += gap
    return D


class Kernel:
    """Base class: symmetric positive (semi-)definite covariance function.

    Every family is isotropic, k(x, y) a function of ||x - y||, so k(x, x)
    is the constant `sup_diag()`.
    """

    def pairwise(self, X, Y):
        raise NotImplementedError

    def diag(self, X):
        """k(x, x) at each row of the (n, d) points X."""
        return np.full(len(X), self.sup_diag())

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
        return np.exp(-sqdist(X, Y) / self.gamma ** 2)

    def smoothness(self, d):
        return ("infinite", None)

    def sup_diag(self):
        return 1.0


@lru_cache(maxsize=None)
def _matern_coefs(p):
    """Coefficients c_0..c_p of the half-integer Matern polynomial in u,
    computed once per p, since every `Matern.pairwise` call reads them."""
    f = math.factorial
    return tuple(f(p) * f(2 * p - j) * 2 ** j / (f(2 * p) * f(j) * f(p - j))
                 for j in range(p + 1))


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
        # k = exp(-u) * sum_j c_j u^j with u = sqrt(2 nu) r / ell, p = nu - 1/2
        # and c_j = p!/(2p)! * (2p-j)!/(j!(p-j)!) * 2^j, evaluated by Horner
        # in place; u is overwritten by exp(-u) once the polynomial is done,
        # so the kernel block costs two (n, m) buffers
        u = sqdist(X, Y)
        np.sqrt(u, out=u)
        u *= np.sqrt(2 * self.nu) / self.ell
        coefs = _matern_coefs(int(self.nu - 0.5))
        poly = np.full(u.shape, coefs[-1])
        for c in coefs[-2::-1]:
            poly *= u
            poly += c
        np.negative(u, out=u)
        poly *= np.exp(u, out=u)
        return poly

    def smoothness(self, d):
        return ("finite", self.nu + d / 2)

    def sup_diag(self):
        return 1.0


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
        return (self.c ** 2 + sqdist(X, Y)) ** (-self.beta)

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
        r = np.sqrt(sqdist(X, Y)) / self.radius
        t = np.maximum(1.0 - r, 0.0)
        k = self.smoothness_index
        if k == 0:
            return t ** 2
        if k == 1:
            return t ** 4 * (4 * r + 1)
        return t ** 6 * (35 * r ** 2 + 18 * r + 3) / 3.0

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
    `max_doublings` times before giving up. A Gram matrix with a NaN or
    inf entry raises NumericalDegradationError at once, since no jitter
    repairs it.
    """
    n = K.shape[0]
    if n == 0:
        return np.zeros((0, 0)), 0.0
    if not np.all(np.isfinite(K)):
        raise NumericalDegradationError("Gram matrix has non-finite entries")
    jitter = 1e-12 * float(np.max(np.diag(K)))
    if jitter <= 0:
        jitter = 1e-12
    for _ in range(max_doublings + 1):
        try:
            L = np.linalg.cholesky(K + jitter * np.eye(n))
            return L, jitter
        except np.linalg.LinAlgError:
            jitter *= 2
    raise NumericalDegradationError(f"Cholesky failed after jitter grew to {jitter:g}")


def solve_lower(L, B):
    """L^{-1} B for a lower-triangular L, written over the (n, m) block B
    and returned.

    Blocked forward substitution: each diagonal block of rows takes one
    BLAS product with the rows already solved, then its rows are
    substituted one by one. A block has SOLVE_BLOCK rows and spans at most
    SOLVE_CHUNK columns. No pivoting, which would double the flops, and no
    explicit inverse, whose forward error is worse.
    """
    n = L.shape[0]
    for c in range(0, B.shape[1], SOLVE_CHUNK):
        C = B[:, c:c + SOLVE_CHUNK]
        for i0 in range(0, n, SOLVE_BLOCK):
            i1 = min(i0 + SOLVE_BLOCK, n)
            if i0:
                C[i0:i1] -= L[i0:i1, :i0] @ C[:i0]
            for i in range(i0, i1):
                if i > i0:
                    C[i] -= L[i, i0:i] @ C[i0:i]
                C[i] /= L[i, i]
    return B


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
