"""Integration domain, densities, mean functions and synthetic integrands.

The domain is an axis-aligned box with the Lebesgue reference measure.
Synthetic integrands are finite kernel expansions, so their native-space
norm is available in closed form and every error bound can be evaluated
exactly.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from .exceptions import BudgetExceededError

_TINY_DENSITY = 1e-300
_LOG_SQRT_2PI = np.log(np.sqrt(2 * np.pi))

# the probe grid (the latent floor of a square warp's default alpha)
# holds at most PROBE_PER_DIM points per axis and PROBE_POINTS in total
PROBE_PER_DIM = 512
PROBE_POINTS = 2 ** 16

# the report's passes hold O(BLOCK_POINTS) values at a time, so their memory
# grows with neither the rule nor the design: `weighted_integrals` walks the
# oracle quadrature in slabs whose nodes times the functions integrated hold
# at most BLOCK_POINTS values, and `analysis` takes its suprema over column
# chunks of at most BLOCK_POINTS values; the fill-distance grid has at most
# BLOCK_POINTS points, and verify's Monte Carlo moment check draws
# BLOCK_POINTS latent values at a time
BLOCK_POINTS = 2 ** 16

# a walk's slabs have at least MIN_SLAB nodes, whatever the number of
# functions: numpy's pairwise summation adds blocks of 128 values, so
# power-of-two slabs of at least 128 nodes sum to the bits of one np.sum
MIN_SLAB = 128

# the error bound's reference integral takes REFINEMENT times the oracle
# resolution per dim; its self-error is the distance to the oracle's own
REFINEMENT = 2

# the most points a run's quadrature rule or certificate grid may have
GUARD_POINTS = 10 ** 7

# the most floats (1 GiB) a posterior's row buffer may hold
GUARD_FLOATS = 2 ** 27


class TensorGrid:
    """The tensor grid of the 1-D `axes`, its points in lexicographic order,
    kept as these factors. `points()` expands it to a (len, dim) array, and
    `kernels.sqdist` reads it as per-axis gap tables without expanding it.
    It is not an array, so a slice of one cannot keep all of its factors."""

    def __init__(self, axes):
        self.axes = axes

    def __len__(self):
        return math.prod(len(a) for a in self.axes)

    @property
    def shape(self):
        return len(self), len(self.axes)

    def points(self):
        """The (len, dim) points, each axis broadcast into place."""
        lens = [len(a) for a in self.axes]
        out = np.empty((*lens, len(lens)))
        for j, a in enumerate(self.axes):
            out[..., j] = a.reshape(-1, *[1] * (len(lens) - 1 - j))
        return out.reshape(self.shape)


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

    def uniform_tensor(self, points_per_dim):
        """Endpoint tensor grid of m points per dim, as its `TensorGrid`."""
        return TensorGrid([np.linspace(a, b, points_per_dim)
                           for a, b in zip(self.lower, self.upper)])

    def uniform_grid(self, points_per_dim):
        """Endpoint tensor grid, flattened to (m^d, d) in lexicographic order."""
        return self.uniform_tensor(points_per_dim).points()

    def probe_grid(self):
        """Endpoint tensor grid on which a square warp with no alpha takes
        the minimum of the latent function (`config.build_transform`).

        It has `grid_per_dim(d, PROBE_POINTS, PROBE_PER_DIM)` points per dim
        (512 in d=1, 256^2, 40^3, 16^4, 9^5). The extremes of means and
        densities are closed forms (`MeanFunction.range`, `Density.bounds`).
        """
        return self.uniform_grid(grid_per_dim(self.dim, PROBE_POINTS, PROBE_PER_DIM))


def grid_per_dim(dim, total, cap):
    """The largest per-dim count at most `cap` whose dim-th power is at most
    `total` (at least 1): the one sizing rule of the tensor grids that are
    not set by a config, the probe grid, the default oracle rule and the
    fill-distance grid."""
    per_dim = cap
    while per_dim > 1 and per_dim ** dim > total:
        per_dim -= 1
    return per_dim


class Density:
    """A continuous, nonnegative density on a box domain; `bounds()` gives
    (inf, sup, Lipschitz) over the box: its exact infimum and supremum and
    an upper bound on its Euclidean Lipschitz constant."""

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

    def bounds(self):
        return self._value, self._value, 0.0


_SQRT1_2 = math.sqrt(0.5)
_INV_SQRT_PI = 1.0 / math.sqrt(math.pi)
# erfc(u) is a normal float up to about u = 26.5; `_erfcx` takes a continued
# fraction beyond _ERFCX_SPLIT, whose _ERFCX_TERMS terms have converged there
_ERFCX_SPLIT = 26.0
_ERFCX_TERMS = 10
# `_log_gauss_mass` integrates phi by an _NARROW_NODES-node Gauss-Legendre
# sum on boxes [a, b] with s = (b - a) max(1, |a|, |b|) below _NARROW_BOX,
# where scipy's difference of CDFs cancels to about 1/s ulps (339 at
# [-30, -29.9999], s = 3e-3) and the rule is still exact to rounding
_NARROW_BOX = 0.5
_NARROW_NODES = 8


def _erfcx(u):
    """exp(u^2) erfc(u) for u > 0. Below _ERFCX_SPLIT it is erfc(u) exp(p)
    exp(e), where p = fl(u u) and e = u u - p exactly (Dekker's split of u),
    so no rounding of u^2 reaches the exponent; beyond it, Laplace's
    continued fraction 1 / sqrt(pi) / (u + (1/2) / (u + 1 / (u + ...)))."""
    if u < _ERFCX_SPLIT:
        p = u * u
        c = 134217729.0 * u  # 2^27 + 1
        hi = c - (c - u)
        lo = u - hi
        e = ((hi * hi - p) + 2.0 * hi * lo) + lo * lo
        return math.erfc(u) * math.exp(p) * math.exp(e)
    frac = u
    for k in range(_ERFCX_TERMS, 0, -1):
        frac = u + 0.5 * k / frac
    return _INV_SQRT_PI / frac


def _ndtr(x):
    """Phi(x), the standard normal CDF, by the formula of scipy.special.ndtr
    (cephes): 1/2 + erf/2 near the centre, erfc/2 (reflected) in the tails."""
    t = x * _SQRT1_2
    if abs(t) < _SQRT1_2:
        return 0.5 + 0.5 * math.erf(t)
    y = 0.5 * math.erfc(abs(t))
    return 1.0 - y if t > 0 else y


def _log_ndtr(x):
    """log Phi(x) by the formula of scipy.special.log_ndtr: log(erfcx(-t)/2)
    - t t for x < -1, which subtracts the same rounded t t as scipy, and
    log1p(-erfc(t)/2) above."""
    t = x * _SQRT1_2
    if x < -1.0:
        return math.log(_erfcx(-t) / 2.0) - t * t
    return math.log1p(-math.erfc(t) / 2.0)


def _log_gauss_mass(a, b):
    """log(Phi(b) - Phi(a)) for a < b, the normaliser of scipy.stats.truncnorm,
    computed like it: a box in a tail is mirrored into the left one, where
    the log CDFs keep their precision, and a central box takes log1p of the
    two tail masses. `_ndtr` and `_log_ndtr` follow scipy.special's formulas
    on `math.erf`/`math.erfc`, so no scipy module is imported.

    The difference of CDFs cancels on a narrow box, so below _NARROW_BOX
    the mass is a Gauss-Legendre sum of phi over [a, b] instead, with
    phi(c) factored out at the endpoint c nearer 0: there
    phi(c + t) / phi(c) = exp(-t (c + t / 2)) has an exponent of at most
    about _NARROW_BOX in size, and the rule is exact to rounding."""
    if (b - a) * max(1.0, abs(a), abs(b)) < _NARROW_BOX:
        x, w = _gauss_legendre(_NARROW_NODES)
        half = 0.5 * (b - a)
        c, t = (a, half * (x + 1.0)) if abs(a) <= abs(b) else (b, half * (x - 1.0))
        mass = half * float(np.dot(w, np.exp(-t * (c + 0.5 * t))))
        return math.log(mass) - 0.5 * c * c - _LOG_SQRT_2PI
    if b <= 0:
        log_b = _log_ndtr(b)
        return log_b + math.log1p(-math.exp(_log_ndtr(a) - log_b))
    if a > 0:
        return _log_gauss_mass(-b, -a)
    return math.log1p(-_ndtr(a) - _ndtr(-b))


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
        # standardized box [a_i, b_i] and the log of its Gaussian mass
        self._a = (np.asarray(domain.lower) - self.center) / self.scale
        self._b = (np.asarray(domain.upper) - self.center) / self.scale
        self._log_mass = [_log_gauss_mass(a, b) for a, b in zip(self._a, self._b)]

    def __call__(self, X):
        X = as_points(X, self.domain.dim)
        out = np.ones(X.shape[0])
        for i in range(self.domain.dim):
            z = (X[:, i] - self.center[i]) / self.scale[i]
            log_pdf = -z ** 2 / 2.0 - _LOG_SQRT_2PI - self._log_mass[i]
            inside = (self._a[i] <= z) & (z <= self._b[i])
            out *= np.where(inside, np.exp(log_pdf) / self.scale[i], 0.0)
        return out

    def bounds(self):
        """Each factor p_i decreases in |z|: the infimum is p at the corner
        of the endpoints with the larger |z|, the supremum p at the centre
        clipped to the box. |grad p| <= prod_j sup p_j * ||(sup |p_i'| /
        sup p_i)_i||, where |p_i'| = |z| p_i / scale_i and |z| phi(z) peaks
        at z = +-1."""
        far = np.where(np.abs(self._a) > np.abs(self._b), self.domain.lower,
                       self.domain.upper)
        floor = self(far)[0]
        peak = self(np.clip(self.center, self.domain.lower, self.domain.upper))[0]
        zp = np.clip(0.0, self._a, self._b)
        z = np.abs(np.clip([[1.0], [-1.0]], self._a, self._b))
        slopes = np.max(z * np.exp((zp ** 2 - z ** 2) / 2.0), axis=0) / self.scale
        return float(floor), float(peak), float(peak * np.linalg.norm(slopes))


class TabulatedDensity(Density):
    """Density given by values on a tensor grid, multilinear in between: each
    corner value times its weights left to right, summed over the corners in
    `itertools.product` order, as scipy's 2-D RegularGridInterpolator does.
    Values below 1e-300 are clamped to zero; points outside the box raise
    ValueError."""

    def __init__(self, domain, values):
        self.domain = domain
        self.values = np.asarray(values, dtype=float)
        if self.values.ndim != domain.dim or min(self.values.shape) < 2:
            raise ValueError("values must be a d-dimensional tensor, 2 or more per axis")
        if np.any(self.values < 0):
            raise ValueError("density values must be nonnegative")
        self.axes = [np.linspace(a, b, n)
                     for a, b, n in zip(domain.lower, domain.upper, self.values.shape)]
        self.strictly_positive = bool(np.all(self.values > 0))

    def __call__(self, X):
        X = as_points(X, self.domain.dim)
        if not np.all(self.domain.contains(X)):
            raise ValueError("a point lies outside the density's box")
        cells, fractions = [], []
        for x, axis in zip(X.T, self.axes):
            i = np.clip(np.searchsorted(axis, x, side="right") - 1, 0, len(axis) - 2)
            cells.append(i)
            fractions.append((x - axis[i]) / (axis[i + 1] - axis[i]))
        vals = 0.0
        for corner in itertools.product((0, 1), repeat=len(cells)):
            term = self.values[tuple(i + c for i, c in zip(cells, corner))]
            for c, y in zip(corner, fractions):
                term = term * (y if c else 1 - y)
            vals = vals + term
        return np.where(vals < _TINY_DENSITY, 0.0, vals)

    def bounds(self):
        # a multilinear interpolant takes its extremes at nodes, and its
        # slope along axis i averages its cells' dv / dx_i
        low, high = float(np.min(self.values)), float(np.max(self.values))
        lip = np.linalg.norm([np.max(np.abs(np.diff(self.values, axis=i)))
                              / np.min(np.diff(x)) for i, x in enumerate(self.axes)])
        return low if low >= _TINY_DENSITY else 0.0, high, float(lip)


class MeanFunction:
    """Bounded prior mean function on the domain."""

    def __call__(self, X):
        raise NotImplementedError

    def range(self, dom):
        """(min m, max m) over the box `dom`, exactly."""
        raise NotImplementedError


@dataclass(frozen=True)
class ConstantMean(MeanFunction):
    value: float = 0.0

    def __call__(self, X):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return np.full(X.shape[0], float(self.value))

    def range(self, dom):
        return float(self.value), float(self.value)


@dataclass(frozen=True)
class AffineMean(MeanFunction):
    slope: tuple
    offset: float = 0.0

    def __call__(self, X):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return X @ np.atleast_1d(np.asarray(self.slope, dtype=float)) + self.offset

    def range(self, dom):
        """An affine function takes its extremes at the box's 2^d corners."""
        corners = self(dom.uniform_grid(2))
        return float(np.min(corners)), float(np.max(corners))


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
        if centers.size == 0:  # [] and [[]] are no centers
            centers = centers.reshape(0, max(centers.shape[1], 1))
        if centers.shape[0] != weights.shape[0]:
            raise ValueError(f"{len(centers)} centers for {len(weights)} weights")
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


def _legendre(n, x):
    """P_n(x) and P_{n-1}(x), n >= 1, by the three-term recurrence."""
    prev, cur = np.ones_like(x), x
    for k in range(1, n):
        prev, cur = cur, ((2 * k + 1) * x * cur - k * prev) / (k + 1)
    return cur, prev


@lru_cache(maxsize=16)
def _gauss_legendre(resolution):
    """The 1-D Gauss-Legendre rule on [-1, 1], nodes ascending, cached
    (read-only) since every oracle call at a resolution repeats it.

    Newton's method on P_n, evaluated by its recurrence, from Tricomi's
    asymptotic nodes (the n^-4 term kept, so one or two steps converge),
    for the nonnegative half; the rest mirror it, and an odd n's middle
    node is 0. That is O(n^2) flops and O(n) memory, where an eigensolve
    of the Jacobi matrix takes O(n^3). A weight is 2 / ((1 - x^2) P_n'(x)^2)
    at the last step's start, x + dx, moved to the node by its first-order
    change 2 x dx / (1 - x^2): the formula itself is not stationary at a
    node, so a node rounded near +-1 would cost ~1e-11 relative otherwise.
    """
    n = resolution
    theta = math.pi * (4 * np.arange(1, (n + 1) // 2 + 1) - 1) / (4 * n + 2)
    x = (1 - (n - 1) / (8 * n ** 3)
         - (39 - 28 / np.sin(theta) ** 2) / (384 * n ** 4)) * np.cos(theta)
    dx = np.ones_like(x)
    while np.max(np.abs(dx)) > 1e-14:
        p, prev = _legendre(n, x)
        one_minus_sq = (1 - x) * (1 + x)
        slope = n * (prev - x * p) / one_minus_sq
        dx = p / slope
        x = x - dx
    w = 2 / (one_minus_sq * slope * slope) * (1 + 2 * (x + dx) * dx / one_minus_sq)
    if n % 2:
        x[-1] = 0.0
    x = np.concatenate([-x[:n // 2], x[::-1]])
    w = np.concatenate([w[:n // 2], w[::-1]])
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def check_rule_size(dim, resolution):
    """Raise BudgetExceededError when a tensor rule of `resolution` nodes
    per dim has more than GUARD_POINTS (1e7) nodes."""
    if resolution ** dim > GUARD_POINTS:
        raise BudgetExceededError(
            f"resolution^d = {resolution}^{dim} exceeds the 1e7 evaluation guard"
        )


def quadrature_blocks(dom, resolution, block):
    """The tensor Gauss-Legendre rule of `quadrature_nodes`, as consecutive
    (nodes, weights) slabs of at most `block` nodes, each slab's nodes a
    sub-box `TensorGrid` whose points are the rule's rows in the rule's
    order, bit for bit.

    The trailing axes whose grid fits in a block stay whole, the axis
    before them is cut into runs of as many nodes as fit, and each earlier
    axis gives one node per slab. A node's weight multiplies its axes'
    factors in axis order, ((w_0 * w_1) * w_2) * ..., the order of the
    dense rule.
    """
    check_rule_size(dom.dim, resolution)
    x, w = _gauss_legendre(resolution)
    axes = [0.5 * (b - a) * x + 0.5 * (a + b) for a, b in zip(dom.lower, dom.upper)]
    factors = [0.5 * (b - a) * w for a, b in zip(dom.lower, dom.upper)]
    # each axis's run: the nodes that fit in a block beside the whole axes
    # after it, between one and all of them
    runs = [min(max(block // resolution ** (dom.dim - 1 - k), 1), resolution)
            for k in range(dom.dim)]
    for starts in itertools.product(*(range(0, resolution, r) for r in runs)):
        box = [slice(s, s + r) for s, r in zip(starts, runs)]
        yield (TensorGrid([a[c] for a, c in zip(axes, box)]),
               reduce(np.multiply.outer, [f[c] for f, c in zip(factors, box)]).ravel())


def quadrature_nodes(dom, resolution):
    """Tensor Gauss-Legendre nodes and weights on the domain box."""
    ((grid, weights),) = quadrature_blocks(dom, resolution, resolution ** dom.dim)
    return grid.points(), weights


def _tree_sum(parts):
    if len(parts) == 1:
        return parts[0]
    half = len(parts) // 2
    return _tree_sum(parts[:half]) + _tree_sum(parts[half:])


def weighted_integrals(dom, resolution, pi, *terms, functions):
    """The integrals against pi, by the tensor rule, of every function that
    each term gives on a slab of nodes, in order: one walk over the slabs
    of `quadrature_blocks`, each slab's points expanded once, pi evaluated
    once per node. A term is called with the slab's (slab, d) points, or,
    when it has a true `reads_grid` attribute, with the slab's sub-box
    `TensorGrid` and those points; it returns the (slab,) values of one
    function on the slab, or a (rows, slab) block of one function per row.

    `functions`, the number of functions of all terms together, sizes the
    slabs: the largest power of two of nodes, but at least MIN_SLAB, whose
    product with it is at most BLOCK_POINTS, so a slab's values take
    O(BLOCK_POINTS) memory. The per-slab sums are added as a balanced
    binary tree, so the order is fixed. It is the pairwise summation
    np.sum uses within a slab: numpy halves an array down to blocks of
    128, so on a rule of 2^k nodes the sums are the bits of one np.sum per
    function over the whole rule.
    """
    block = max(MIN_SLAB, 1 << (max(BLOCK_POINTS // functions, 1).bit_length() - 1))
    parts = []
    for grid, w in quadrature_blocks(dom, resolution, block):
        pts = grid.points()
        dens = np.asarray(pi(pts), dtype=float)
        parts.append(np.concatenate([
            np.atleast_1d(np.sum(w * np.asarray(
                term(grid, pts) if getattr(term, "reads_grid", False) else term(pts),
                dtype=float) * dens, axis=-1))
            for term in terms]))
    return _tree_sum(parts).tolist()
