"""Integration domain, densities, mean functions and synthetic integrands.

The domain is an axis-aligned box with the Lebesgue reference measure.
Synthetic integrands are finite kernel expansions, so their native-space
norm is available in closed form and every error bound can be evaluated
exactly.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.interpolate import RegularGridInterpolator
from scipy.stats import truncnorm

from .exceptions import BudgetExceededError

_TINY_DENSITY = 1e-300


def as_points(x, dim):
    """Coerce a point or an (n, d) batch of points to a 2-D float array."""
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    if arr.ndim == 1:
        if dim == 1 and arr.shape[0] != 1:
            arr = arr[:, None]
        else:
            arr = arr[None, :]
    if arr.shape[1] != dim:
        raise ValueError(f"expected points of dimension {dim}, got shape {arr.shape}")
    return arr


@dataclass(frozen=True)
class Domain:
    """Axis-aligned hyper-rectangle in R^d."""

    lower: tuple
    upper: tuple

    def __post_init__(self):
        lo = tuple(float(v) for v in np.atleast_1d(self.lower))
        hi = tuple(float(v) for v in np.atleast_1d(self.upper))
        if len(lo) != len(hi):
            raise ValueError("lower and upper must have the same length")
        if any(a >= b for a, b in zip(lo, hi)):
            raise ValueError("domain box is degenerate: need lower[i] < upper[i]")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @property
    def dim(self):
        return len(self.lower)

    @property
    def volume(self):
        return float(np.prod(np.asarray(self.upper) - np.asarray(self.lower)))

    @property
    def widths(self):
        return np.asarray(self.upper) - np.asarray(self.lower)

    def contains(self, X):
        X = as_points(X, self.dim)
        lo = np.asarray(self.lower)
        hi = np.asarray(self.upper)
        return np.all((X >= lo - 1e-12) & (X <= hi + 1e-12), axis=1)

    def clip(self, X):
        X = as_points(X, self.dim)
        return np.clip(X, np.asarray(self.lower), np.asarray(self.upper))

    def uniform_grid(self, points_per_dim, endpoint=True):
        """Tensor grid, flattened to (m^d, d) in lexicographic order."""
        axes = [
            np.linspace(a, b, points_per_dim) if endpoint
            else a + (np.arange(points_per_dim) + 0.5) * (b - a) / points_per_dim
            for a, b in zip(self.lower, self.upper)
        ]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=1)


class Density:
    """A continuous, nonnegative density on a box domain."""

    domain: Domain
    strictly_positive: bool = False

    def __call__(self, X):
        raise NotImplementedError


class UniformDensity(Density):
    strictly_positive = True

    def __init__(self, domain):
        self.domain = domain
        self._value = 1.0 / domain.volume

    def __call__(self, X):
        X = as_points(X, self.domain.dim)
        return np.full(X.shape[0], self._value)


class TruncatedGaussianDensity(Density):
    """Product of independent Gaussians truncated (and renormalized) to the box."""

    strictly_positive = True

    def __init__(self, domain, center, scale):
        self.domain = domain
        self.center = np.atleast_1d(np.asarray(center, dtype=float))
        self.scale = np.atleast_1d(np.asarray(scale, dtype=float))
        if np.any(self.scale <= 0):
            raise ValueError("scale must be positive")
        if self.center.shape[0] != domain.dim or self.scale.shape[0] != domain.dim:
            raise ValueError("center/scale dimension mismatch")

    def __call__(self, X):
        X = as_points(X, self.domain.dim)
        out = np.ones(X.shape[0])
        for i in range(self.domain.dim):
            a = (self.domain.lower[i] - self.center[i]) / self.scale[i]
            b = (self.domain.upper[i] - self.center[i]) / self.scale[i]
            out *= truncnorm.pdf(X[:, i], a, b, loc=self.center[i], scale=self.scale[i])
        return out


class TabulatedDensity(Density):
    """Density given by values on a tensor grid, multilinear in between.

    Values below 1e-300 are clamped to zero.
    """

    def __init__(self, domain, values):
        self.domain = domain
        values = np.asarray(values, dtype=float)
        if values.ndim != domain.dim:
            raise ValueError("values must be a d-dimensional tensor")
        if np.any(values < 0):
            raise ValueError("density values must be nonnegative")
        axes = [
            np.linspace(a, b, n)
            for (a, b), n in zip(zip(domain.lower, domain.upper), values.shape)
        ]
        self._interp = RegularGridInterpolator(axes, values, method="linear")
        self.strictly_positive = bool(np.all(values > 0))

    def __call__(self, X):
        X = as_points(X, self.domain.dim)
        vals = self._interp(X)
        vals = np.where(vals < _TINY_DENSITY, 0.0, vals)
        return vals


class MeanFunction:
    """Bounded prior mean function on the domain."""

    def __call__(self, X):
        raise NotImplementedError


@dataclass(frozen=True)
class ConstantMean(MeanFunction):
    value: float = 0.0

    def __call__(self, X):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return np.full(X.shape[0], float(self.value))


@dataclass(frozen=True)
class AffineMean(MeanFunction):
    slope: tuple
    offset: float = 0.0

    def __call__(self, X):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return X @ np.atleast_1d(np.asarray(self.slope, dtype=float)) + self.offset


@dataclass(frozen=True)
class SyntheticIntegrand:
    """Integrand f = T(m + sum_i alpha_i k(., y_i)) with known native norm."""

    centers: np.ndarray
    weights: np.ndarray
    prior_mean: MeanFunction
    kernel: object
    transform: object

    def __post_init__(self):
        centers = np.atleast_2d(np.asarray(self.centers, dtype=float))
        weights = np.atleast_1d(np.asarray(self.weights, dtype=float))
        if weights.size == 0:
            centers = centers.reshape(0, max(centers.shape[1], 1))
        if centers.shape[0] != weights.shape[0]:
            raise ValueError("centers and weights length mismatch")
        object.__setattr__(self, "centers", centers)
        object.__setattr__(self, "weights", weights)

    def g_tilde(self, X):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if self.weights.size == 0:
            return np.zeros(X.shape[0])
        return self.kernel.pairwise(X, self.centers) @ self.weights

    def latent(self, X):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return self.prior_mean(X) + self.g_tilde(X)

    def __call__(self, X):
        return self.transform.forward(self.latent(X))


def rkhs_norm(integrand):
    """Native-space norm sqrt(alpha^T K_Y alpha) of the expansion part."""
    if integrand.weights.size == 0:
        return 0.0
    gram = integrand.kernel.pairwise(integrand.centers, integrand.centers)
    sq = float(integrand.weights @ gram @ integrand.weights)
    if sq < -1e-10:
        warnings.warn(f"squared norm {sq} clamped to 0; Gram matrix badly conditioned")
    return float(np.sqrt(max(sq, 0.0)))


@lru_cache(maxsize=64)
def _legendre_nodes(resolution, lower, upper):
    x, w = np.polynomial.legendre.leggauss(resolution)
    lo = np.asarray(lower)
    hi = np.asarray(upper)
    axes = []
    wts = []
    for a, b in zip(lo, hi):
        axes.append(0.5 * (b - a) * x + 0.5 * (a + b))
        wts.append(0.5 * (b - a) * w)
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    wmesh = np.meshgrid(*wts, indexing="ij")
    weight = np.ones(pts.shape[0])
    for wm in wmesh:
        weight *= wm.ravel()
    return pts, weight


def quadrature_nodes(dom, resolution):
    """Tensor Gauss-Legendre nodes and weights on the domain box."""
    if resolution ** dom.dim > 10 ** 7:
        raise BudgetExceededError(
            f"resolution^d = {resolution}^{dom.dim} exceeds the 1e7 evaluation guard"
        )
    return _legendre_nodes(resolution, dom.lower, dom.upper)


def reference_integral(f, pi, dom, resolution):
    """Ground-truth value of the weighted integral of f by a tensor rule."""
    pts, w = quadrature_nodes(dom, resolution)
    vals = np.asarray(f(pts), dtype=float)
    pvals = np.asarray(pi(pts), dtype=float)
    return float(np.sum(w * vals * pvals))


def reference_integral_refined(f, pi, dom, resolution):
    """Integral at 2x resolution plus a Richardson-style self error estimate."""
    coarse = reference_integral(f, pi, dom, resolution)
    fine = reference_integral(f, pi, dom, 2 * resolution)
    return fine, abs(fine - coarse)
