"""Covariance kernels with smoothness metadata.

Each kernel knows whether its native space has infinite smoothness
(square-exponential, inverse multiquadric) or a finite Sobolev order r
(Matern with half-integer nu, Wendland), which drives the predicted decay
of the worst-case error: exp(-D n^(1/d)) versus n^(-r/d + 1/2). Each
family is a dataclass whose fields are its parameters, which the config
schema lists; k(x, x) is the one number `sup_diag()`, and `max_dim` the
largest d in which the family is positive definite. A design's Gram matrix
is `pairwise(X, X)`, bitwise symmetric, factored from `start_jitter` on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .domain import TensorGrid
from .exceptions import DomainError, NumericalDegradationError

_HALF_INTEGER_NUS = (0.5, 1.5, 2.5, 3.5)

# solve_lower solves SOLVE_BLOCK rows at a time and works on at most
# SOLVE_CHUNK right-hand sides at once, so a chunk of rows stays in cache
SOLVE_BLOCK = 16
SOLVE_CHUNK = 4096

JITTER = 1e-12
JITTER_DOUBLINGS = 10


def start_jitter(k0):
    """JITTER * k0, or JITTER when that is not positive: the starting jitter
    for a kernel of variance k(x, x) = k0, at which `chol_with_jitter` (k0
    its largest diagonal entry) and a chain of `gp.GridPosterior.add`s start."""
    return max(JITTER * k0, 0.0) or JITTER


def sqdist(X, Y):
    """Squared Euclidean distances ||x_i - y_j||^2 as a C-ordered (|X|, |Y|)
    block, the squared coordinate gaps summed over the dims in order, as
    scipy's cdist does: bit-equal to cdist(X, Y, "sqeuclidean"), and its
    square root to cdist(X, Y). A gap and its negation square alike, so
    sqdist(X, X), and every family's `pairwise(X, X)`, elementwise in it, is
    bitwise symmetric, and the block of two point sets is formed with the
    longer one on its inner axis, transposed into place when that is X.

    Y may be a `domain.TensorGrid`, which is never expanded: each point's
    squared gaps to each axis are one (|X|, len(axis)) table, added by
    broadcasting in axis order, the additions of the expanded grid in their
    order. A grid's block costs the block and the sums before its last
    axis, a len(axis)-th of it; two point sets' cost the block and one
    buffer, and a transposed block one more."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    grid = isinstance(Y, TensorGrid)
    if not grid:
        Y = np.atleast_2d(np.asarray(Y, dtype=float))
    if X.shape[1] != Y.shape[1]:
        raise ValueError(f"points of dimension {X.shape[1]} and {Y.shape[1]}")
    if grid:
        D = None
        for k, axis in enumerate(Y.axes):
            gap = np.subtract.outer(X[:, k], axis)
            gap *= gap
            D = gap if D is None else np.add(
                D[..., None], gap.reshape(len(X), *[1] * (D.ndim - 1), len(axis)))
        return D.reshape(len(X), len(Y))
    if len(X) > len(Y):
        return np.ascontiguousarray(_sqdist_rows(Y, X).T)
    return _sqdist_rows(X, Y)


def _sqdist_rows(X, Y):
    """sqdist(X, Y) for an (n, d) and an (m, d) array, as an (n, m) block."""
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

    max_dim = math.inf  # the family is positive definite on R^d for d <= max_dim

    def pairwise(self, X, Y):
        raise NotImplementedError

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
        # and c_j = p!/(2p)! * (2p-j)!/(j!(p-j)!) * 2^j (c_0 = 1). The block
        # holds w = -u, so exp needs no negation pass, and Horner runs on w as
        # h_j = c_j - h_(j+1) w, starting from the product c_p w; IEEE negation
        # is exact, so every entry equals the sum in u. w is overwritten by
        # exp(w) once the polynomial is done: the block costs two buffers
        w = sqdist(X, Y)
        np.sqrt(w, out=w)
        w *= -(np.sqrt(2 * self.nu) / self.ell)
        coefs = _matern_coefs(int(self.nu - 0.5))
        if len(coefs) == 1:
            return np.exp(w, out=w)
        poly = w * coefs[-1]
        for c in coefs[-2:0:-1]:
            np.subtract(c, poly, out=poly)
            poly *= w
        np.subtract(coefs[0], poly, out=poly)
        poly *= np.exp(w, out=w)
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

    max_dim = 3
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
        if d > self.max_dim:
            raise DomainError(f"Wendland family implemented for d <= {self.max_dim} only")
        return ("finite", d / 2 + self.smoothness_index + 0.5)

    def sup_diag(self):
        return 1.0


def chol_with_jitter(K):
    """(L, jitter), L the lower Cholesky factor of K + jitter*I.

    Jitter starts at `start_jitter` of the largest diagonal entry and
    doubles at most JITTER_DOUBLINGS times; when every jitter fails,
    NumericalDegradationError names the largest. A Gram matrix with a NaN
    or inf entry raises it at once, since no jitter repairs it.
    """
    n = K.shape[0]
    if n == 0:
        return np.zeros((0, 0)), 0.0
    if not np.all(np.isfinite(K)):
        raise NumericalDegradationError("Gram matrix has non-finite entries")
    jitter = start_jitter(float(np.max(np.diag(K))))
    for doubling in range(JITTER_DOUBLINGS + 1):
        try:
            return np.linalg.cholesky(K + jitter * np.eye(n)), jitter
        except np.linalg.LinAlgError:
            if doubling == JITTER_DOUBLINGS:
                raise NumericalDegradationError(
                    f"Cholesky failed at every jitter up to {jitter:g}") from None
            jitter *= 2


def block_inverses(L):
    """Inverses of the SOLVE_BLOCK diagonal blocks of a lower-triangular L,
    in order, each found by substituting its block's rows on the identity,
    so each is exactly lower-triangular."""
    inverses = []
    for i0 in range(0, L.shape[0], SOLVE_BLOCK):
        D = L[i0:i0 + SOLVE_BLOCK, i0:i0 + SOLVE_BLOCK]
        inv = np.eye(len(D))
        for i in range(len(D)):
            if i:
                inv[i] -= D[i, :i] @ inv[:i]
            inv[i] /= D[i, i]
        inverses.append(inv)
    return inverses


def solve_lower(L, B, inverses=None):
    """L^{-1} B for a lower-triangular L, written over the (n, m) block B
    and returned.

    Blocked forward substitution, as BLAS trsm kernels do it: each block of
    SOLVE_BLOCK rows takes one product with the rows already solved, then
    one with the inverse of its diagonal block, from `block_inverses(L)`,
    which a caller solving against one L many times computes once and
    passes. Only those diagonal blocks are inverted, never L. A block spans
    at most SOLVE_CHUNK columns, so column slices of whole SOLVE_CHUNKs,
    solved with the same inverses, are one solve's columns bit for bit. No
    pivoting, which would double the flops.
    """
    if inverses is None:
        inverses = block_inverses(L)
    for c in range(0, B.shape[1], SOLVE_CHUNK):
        C = B[:, c:c + SOLVE_CHUNK]
        for i0, inv in zip(range(0, L.shape[0], SOLVE_BLOCK), inverses):
            rows = C[i0:i0 + SOLVE_BLOCK]
            if i0:
                rows -= L[i0:i0 + SOLVE_BLOCK, :i0] @ C[:i0]
            rows[...] = inv @ rows
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
