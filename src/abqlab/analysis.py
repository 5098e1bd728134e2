"""Verification layer: projection oracle, greedy certificates, rate fits.

Everything here recomputes quantities through paths independent of the
engine (dense solves on the scaled Gram matrix, direct grid suprema), so
the two code paths act as mutual oracles; the n-width surrogate picks its
design with `gp.GridPosterior` but scores it by a dense solve. The first
i rows of L^{-1} K(X, P), L the Cholesky factor of a design X, are the
Newton basis of X[:i] on P (Mueller & Schaback 2009): one forward
substitution `kernels.solve_lower` on the C-ordered (n, |P|) block
K(X, P) serves every prefix: a run's `Certificates` reads the weak-greedy
certificate (rows 0..n-1) and the error bound (rows 1..n) from one
`Projector` of its design. The report's passes take that block in
column chunks or quadrature slabs of at most BLOCK_POINTS values, so
their memory grows with neither the design nor the point set, and solve
each chunk or slab with one factor's diagonal-block inverses.
Theory violations are reported as findings, never raised: confirming or
refuting the certificates is the point of this module.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import gp, kernels
from .acquisition import theoretical_clcu
from .domain import (BLOCK_POINTS, REFINEMENT, ConstantMean, grid_per_dim,
                     rkhs_norm, weighted_integrals)
from .exceptions import DomainError, LinearDependenceError

CERT_TOL = 1e-9  # slack of a weak-greedy ratio below gamma_hat
ORACLE_TOL = 1e-3  # largest reference self-error, relative to the smallest rhs


class Projector:
    """One Cholesky factor of the scaled Gram matrix of X (jittered for the
    whole design), and the inverses of its diagonal blocks, against which
    every call solves: projector(x) is the (n + 1, |x|) curve of squared
    RKHS distances from h_x = q(x) k(., x) to span{q(x_j) k(., x_j)}, one
    of its `rows` rows for each prefix X[:0], ..., X[:n] of X, independent
    of the GP posterior-variance path it is tested against."""

    def __init__(self, kernel, q, X):
        self.kernel, self.q = kernel, q
        self.X = np.atleast_2d(np.asarray(X, dtype=float))
        self.qX = np.asarray(q(self.X), dtype=float)
        G = (self.qX[:, None] * self.qX[None, :]) * kernels.gram(kernel, self.X)
        self.L, _ = kernels.chol_with_jitter(G)
        self.inverses = kernels.block_inverses(self.L)
        self.rows = len(self.X) + 1

    def __call__(self, x):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        qx = np.asarray(self.q(x), dtype=float)
        V = self.kernel.pairwise(self.X, x)
        V *= self.qX[:, None] * qx[None, :]
        curve = _running_residual(kernels.solve_lower(self.L, V, self.inverses),
                                  qx ** 2 * self.kernel.sup_diag())
        return np.maximum(curve, 0.0, out=curve)

    def chunks(self, x):
        """(start, self(x[start:start + width])) over consecutive column
        chunks of x, width = BLOCK_POINTS // rows, so a chunk holds
        O(BLOCK_POINTS) values; a column does not depend on the others,
        so the chunks are the full curve's columns to rounding (BLAS may
        round a product's last columns differently when its width
        changes)."""
        width = max(BLOCK_POINTS // self.rows, 1)
        for start in range(0, len(x), width):
            yield start, self(x[start:start + width])

    def sups(self, x):
        """np.max(self(x), axis=1), the per-prefix maxima, chunk by chunk."""
        sup = np.full(self.rows, -np.inf)
        for _, chunk in self.chunks(x):
            np.maximum(sup, np.max(chunk, axis=1), out=sup)
        return sup


def _running_residual(W, norm_sq):
    """Rows norm_sq - sum_{j < i} W_j^2, i = 0..n, squaring W in place; the
    running sum goes row by row, since a cumsum down the columns of a
    C-ordered block strides across memory."""
    W *= W
    curve = np.zeros((W.shape[0] + 1, W.shape[1]))
    for i, row in enumerate(W):
        np.add(curve[i], row, out=curve[i + 1])
    return np.subtract(norm_sq, curve, out=curve)


@dataclass
class GreedyCertificate:
    """Empirical weak-greedy ratios against the certified lower bound."""

    ratios: np.ndarray
    gamma_hat: float
    failures: list = field(default_factory=list)

    @property
    def ok(self):
        return not self.failures


def weak_greedy_gamma(spec, lower, upper):
    """sqrt(psi(min(gamma_tilde * lower / upper, 1))), the weak-greedy
    constant of spec's rule when b stays in [lower, upper]; 0 (vacuous)
    when lower <= 0 or the ratio underflows to 0."""
    c = min(spec.gamma_tilde * lower / upper, 1.0) if lower > 0 else 0.0
    return float(np.sqrt(spec.outer.psi(c))) if c > 0 else 0.0


def fill_distance(X, dom):
    """Fill distances of the designs X[:1], ..., X[:n], as a list of n values.

    Entry i-1 is the sup over an endpoint grid of the distance to the
    nearest of the first i points: a running minimum along the design and
    its maximum over the grid. The grid has `grid_per_dim(d, BLOCK_POINTS,
    cap)` points per dim, cap 256 in d=1 and 64 above: 256, 64^2, 40^3,
    16^4 and 9^5 points. The running minimum is one (grid,) vector, updated
    point by point, so memory does not grow with the design.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[0] == 0:
        raise DomainError("fill distance needs at least one point")
    grid = dom.uniform_grid(grid_per_dim(dom.dim, BLOCK_POINTS,
                                         256 if dom.dim == 1 else 64))
    nearest = np.full(len(grid), np.inf)
    fills = []
    for x in X:
        dist = kernels.sqdist(grid, x[None, :])[:, 0]
        np.minimum(nearest, np.sqrt(dist, out=dist), out=nearest)
        fills.append(float(np.max(nearest)))
    return fills


def nwidth_surrogate(kernel, q, grid, n):
    """Upper bounds on the m-widths of {q(x) k(., x) : x in grid} for
    m = 1..n, as a list of n values.

    The design is P-greedy on the grid: each step adds the first grid point
    of largest q^2 times the posterior variance of a zero-mean GP, until n
    points or a point the design spans. Entry m-1 is sup q sqrt(k_X) over
    the grid, X the first m design points, from one dense solve; any m grid
    points span at most m dimensions, so each is a valid bound. A design
    that stopped early repeats its last value, and a running minimum keeps
    the curve nonincreasing.
    """
    if n < 1:
        raise DomainError("n must be at least 1")
    q_sq = np.asarray(q(grid), dtype=float) ** 2
    post = gp.GridPosterior(gp.empty_state(kernel, ConstantMean(0.0), grid.shape[1]),
                            grid, capacity=n)
    for _ in range(n):
        try:
            post.add(int(np.argmax(q_sq * post.var)), 0.0)
        except LinearDependenceError:
            break
    sups = np.sqrt(Projector(kernel, q, post.state.X).sups(grid))[1:]
    return np.minimum.accumulate(np.pad(sups, (0, n - sups.size), mode="edge")).tolist()


@dataclass(frozen=True)
class RateFit:
    model: str
    slope: float
    intercept: float
    r_squared: float
    n_range: tuple


def fit_rate(e_values, model, n_values=None, n_min=5, floor=0.0):
    """Least-squares fit of log e_n against the model's regressor.

    e_values is indexed by n (starting at n=1) unless n_values is given.
    The series is truncated at the first nonpositive entry or the first
    entry at or below `floor` (a numerical noise floor).
    """
    e = np.asarray(e_values, dtype=float)
    ns = (np.arange(1, e.size + 1) if n_values is None
          else np.asarray(n_values, dtype=float))
    cut = e.size
    for i, v in enumerate(e):
        if v <= max(floor, 0.0):
            cut = i
            break
    e = e[:cut]
    ns = ns[:cut]
    keep = ns >= n_min
    e = e[keep]
    ns = ns[keep]
    if e.size < 8:
        raise DomainError(
            f"rate fit needs at least 8 usable values after the transient cut, "
            f"got {e.size}"
        )
    x = model.regressor(ns)
    y = np.log(e)
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_res = float(np.sum(resid ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return RateFit(model=model.model, slope=float(slope), intercept=float(intercept),
                   r_squared=r2, n_range=(int(ns[0]), int(ns[-1])))


def grid_slack(kernel, q, radius):
    """sup q sqrt(2 (k(0) - k(radius))) + Lip(q) sqrt(k(0)) radius bounds how
    far sup q sqrt(k_X) over the box exceeds its maximum on a grid within
    `radius` of every point, for any X: q(x) sqrt(k_X(x)) = ||(I - Pi_X) q(x)
    k(., x)||, I - Pi_X contracts, and each kernel is isotropic, decreasing."""
    k0, k_r = kernel.pairwise(np.zeros((1, 1)), np.array([[0.0], [radius]]))[0]
    q_sup, q_lip = q.bounds()
    return float(q_sup * np.sqrt(2.0 * max(k0 - k_r, 0.0))
                 + q_lip * np.sqrt(k0) * radius)


def _plugin_means(state, transform):
    """A `weighted_integrals` term: T(m + sum_{j < i} beta_j (L^{-1} K(X, .))_j),
    T of the posterior mean of each prefix X[:i] of the state's design, as
    one (n, slab) block per slab, every slab solved with one set of
    `kernels.block_inverses`; the running sum goes row by row, like
    `_running_residual`'s."""
    inverses = kernels.block_inverses(state.chol)

    def term(pts):
        rows = kernels.solve_lower(state.chol, state.kernel.pairwise(state.X, pts),
                                   inverses)
        rows *= state.beta[:, None]
        if len(rows):
            rows[0] += state.mean(pts)
        for i in range(1, len(rows)):
            rows[i] += rows[i - 1]
        return transform.forward(rows)

    return term


@dataclass
class BoundReport:
    reference: float
    reference_self_error: float
    constant_transform: float
    constant_pi_over_q: float
    gnorm: float
    grid_slack: float  # at the run's covering radius
    cap: float  # sup q sqrt(sup k(x, x)), a bound on sup q sqrt(k_X) for any X
    rows: list = field(default_factory=list)
    violations: list = field(default_factory=list)

    @property
    def ok(self):
        return not self.violations

    @property
    def max_lhs_over_rhs(self):
        return max((r["lhs"] / r["rhs"] for r in self.rows if r["rhs"] > 0),
                   default=0.0)


class Certificates:
    """The certificates of one run, each part computed on its first read, so
    a caller pays only for the parts it reads: the envelope `clcu` and
    `gamma_theoretical` on it (None when absent), the monitored `b_range`
    and whether a present envelope holds it, `inside` (both None for a run
    of no steps), the weak-greedy certificate `greedy` (None below 2
    points) and the error `bound`. The parts share |m| on one probe grid,
    the native norm, one `Projector` of the run's design X and one pass of
    it over the certificate grid; reading `clcu` alone factors nothing."""

    def __init__(self, record):
        self.record = record

    @cached_property
    def _probe(self):
        """(sup |m|, gnorm, clcu): |m| on one probe grid, which a VBMC rule
        also reads, and the known native norm gnorm of the integrand."""
        integrand = self.record.problem.integrand
        probe = self.record.problem.domain.probe_grid()
        m_abs = np.abs(integrand.prior_mean(probe))
        m_sup, gnorm = float(np.max(m_abs)), rkhs_norm(integrand)
        clcu = theoretical_clcu(self.record.spec.b, float(np.min(m_abs)), m_sup, gnorm,
                                integrand.kernel.sup_diag(), probe)
        return m_sup, gnorm, clcu

    @cached_property
    def clcu(self):
        return self._probe[2]

    @cached_property
    def gamma_theoretical(self):
        c = self.clcu
        return weak_greedy_gamma(self.record.spec, c.c_l, c.c_u) if c.present else None

    @cached_property
    def b_range(self):
        rec = self.record
        return (min(rec.b_min), max(rec.b_max)) if rec.n else None

    @cached_property
    def inside(self):
        c, b = self.clcu, self.b_range
        return bool(c.c_l <= b[0] and b[1] <= c.c_u) if b and c.present else None

    @cached_property
    def _projector(self):
        rec = self.record
        return Projector(rec.problem.integrand.kernel, rec.spec.q, rec.state.X)

    @cached_property
    def _sups(self):
        """Grid maxima: the certificate reads rows 0..n-1, the bound rows 1..n."""
        return self._projector.sups(self.record.cert_grid)

    @cached_property
    def greedy(self):
        """Per-iteration ratios dist(h_chosen, S_l) / sup dist(h, S_l), the
        supremum taken over the run's certificate grid, with the run's kernel
        and q; a ratio below gamma_hat, `weak_greedy_gamma` of the monitored b
        range, by more than CERT_TOL is a failure. The chosen points'
        distances are the diagonal of the design's own curve."""
        record = self.record
        if record.n < 2:
            return None
        d_chosen = np.sqrt(np.concatenate([
            np.diagonal(chunk, offset=-start)
            for start, chunk in self._projector.chunks(record.state.X)]))
        sup = np.maximum(np.sqrt(self._sups[:-1]), d_chosen)
        ratios = np.divide(d_chosen, sup, out=np.ones_like(sup), where=sup > 0)
        gamma_hat = weak_greedy_gamma(record.spec, *self.b_range)
        failures = [{"iteration": ell, "ratio": float(rho), "gamma_hat": gamma_hat}
                    for ell, rho in enumerate(ratios) if rho < gamma_hat - CERT_TOL]
        return GreedyCertificate(ratios=ratios, gamma_hat=gamma_hat, failures=failures)

    @cached_property
    def bound(self):
        """|reference - plugin estimate| after each step against the
        assembled error bound, by solves against the run's `record.state`.
        The left side reads the run's plug-in estimates `record.est_plugin`.
        The reference is the integral at REFINEMENT times the run's
        `record.oracle_resolution`, the plug-in estimates' resolution, its
        self-error the distance to the integral at that resolution; a run of
        no steps gets the reference and no rows. The right-hand side
        multiplies the transform's Lipschitz constant, the integral of pi/q,
        the known native norm, and sup q sqrt(posterior var) over the
        certificate grid plus `grid_slack` at `record.cert_radius`, capped
        by sup q sqrt(sup k(x, x)), since k_X(x) <= k(x, x); its slack
        carries the reference's self-error and the distance from each
        estimate to the plug-in integral at the refined resolution. One walk
        at each resolution gives every integral."""
        record = self.record
        integrand, pi, dom = (record.problem.integrand, record.problem.pi,
                              record.problem.domain)
        q, res, t = record.spec.q, record.oracle_resolution, integrand.transform
        # q may underflow to 0 at a node: an infinite integral of pi/q is then
        # a finding of the report, not a warning
        inverse_q = np.errstate(divide="ignore", over="ignore")(
            lambda P: 1.0 / np.asarray(q(P)))
        coarse, c_piq = weighted_integrals(dom, res, pi, integrand, inverse_q,
                                           functions=2)
        reference, *plug_fine = weighted_integrals(
            dom, REFINEMENT * res, pi, integrand, _plugin_means(record.state, t),
            functions=1 + record.n)
        ref_err = abs(reference - coarse)
        m_sup, gnorm, _ = self._probe
        c_t = t.lipschitz_constant(m_sup, gnorm, integrand.kernel.sup_diag())
        widen = grid_slack(integrand.kernel, q, record.cert_radius)
        cap = float(q.bounds()[0] * np.sqrt(integrand.kernel.sup_diag()))
        report = BoundReport(reference=reference, reference_self_error=ref_err,
                             constant_transform=float(c_t), constant_pi_over_q=c_piq,
                             gnorm=gnorm, grid_slack=widen, cap=cap)
        sups = np.sqrt(self._sups[1:]).tolist()
        for n, (sup, plug, fine) in enumerate(zip(sups, record.est_plugin, plug_fine),
                                              start=1):
            slack = ref_err + abs(fine - plug)
            lhs = abs(reference - plug)
            rhs = c_t * c_piq * gnorm * min(sup + widen, cap) + slack
            row = {"n": n, "lhs": lhs, "rhs": rhs, "sup_qk": sup, "slack": slack}
            report.rows.append(row)
            if lhs > rhs:
                report.violations.append(row)
        return report
