"""Verification layer: projection oracle, greedy certificates, rate fits.

Everything here recomputes quantities through paths independent of the
engine (dense solves on the scaled Gram matrix, direct grid suprema), so
the two code paths act as mutual oracles. Theory violations are reported
as findings, never raised: confirming or refuting the certificates is
the point of this module.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import solve_triangular
from scipy.spatial.distance import cdist

from . import gp, kernels
from .domain import reference_integral, reference_integral_refined, rkhs_norm
from .exceptions import DomainError


def projection_distance_sq(kernel, q, X, x):
    """Squared RKHS distance from h_x = q(x) k(., x) to span{q(x_i) k(., x_i)}.

    Computed by a dense solve on the scaled Gram matrix, independently of
    the GP posterior-variance path it is tested against.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    qx = np.asarray(q(x), dtype=float)
    norm_sq = qx ** 2 * kernel.diag(x)
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[0] == 0:
        return norm_sq
    qX = np.asarray(q(X), dtype=float)
    G = (qX[:, None] * qX[None, :]) * kernels.gram(kernel, X)
    L, _ = kernels.chol_with_jitter(G)
    # in place: for a large point set x the (n, |x|) block dominates memory
    V = kernel.pairwise(X, x)
    V *= qX[:, None] * qx[None, :]
    W = solve_triangular(L, V, lower=True, overwrite_b=True)
    W *= W
    return np.maximum(norm_sq - np.sum(W, axis=0), 0.0)


@dataclass
class GreedyCertificate:
    """Empirical weak-greedy ratios against the certified lower bound."""

    ratios: np.ndarray
    gamma_hat: float
    gamma_theoretical: float = float("nan")
    failures: list = field(default_factory=list)
    clcu_absent_reason: str = ""

    @property
    def ok(self):
        return not self.failures


def greedy_certificate(record, kernel, q, clcu=None, tol=1e-9):
    """Per-iteration ratios dist(h_chosen, S_l) / sup dist(h, S_l), the
    supremum taken over the run's certificate grid.

    gamma_hat is computed from the monitored b range; when a theoretical
    [C_L, C_U] is supplied (and present) the certificate also carries the
    theoretical gamma as well. Failures are reported, not raised.
    """
    if record.n < 2:
        raise DomainError("greedy certificate needs a run with at least 2 points")
    spec = record.spec
    X_all = record.design()
    ratios = []
    for ell in range(record.n):
        X_ell = X_all[:ell]
        d_grid = np.sqrt(projection_distance_sq(kernel, q, X_ell, record.cert_grid))
        d_chosen = float(np.sqrt(
            projection_distance_sq(kernel, q, X_ell, X_all[ell][None, :])
        )[0])
        sup = max(float(np.max(d_grid)), d_chosen)
        ratios.append(d_chosen / sup if sup > 0 else 1.0)
    ratios = np.asarray(ratios)

    b_min = min(record.b_min)
    b_max = max(record.b_max)
    c_hat = min(record.gamma_tilde * b_min / b_max, 1.0)
    gamma_hat = float(np.sqrt(spec.outer.psi(c_hat)))

    cert = GreedyCertificate(ratios=ratios, gamma_hat=gamma_hat)
    if clcu is not None:
        if clcu.present:
            c_theo = min(record.gamma_tilde * clcu.c_l / clcu.c_u, 1.0)
            cert.gamma_theoretical = float(np.sqrt(spec.outer.psi(c_theo)))
        else:
            cert.clcu_absent_reason = clcu.reason
    for ell, rho in enumerate(ratios):
        if rho < gamma_hat - tol:
            cert.failures.append({"iteration": ell, "ratio": float(rho),
                                  "gamma_hat": gamma_hat})
    return cert


def fill_distance(X, dom):
    """Fill distances of the designs X[:1], ..., X[:n], as a list of n values.

    Entry i-1 is the sup over a dense grid of the distance to the nearest
    of the first i points, kept as a running minimum per grid point.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[0] == 0:
        raise DomainError("fill distance needs at least one point")
    grid = dom.uniform_grid(256 if dom.dim == 1 else 64)
    nearest = np.full(grid.shape[0], np.inf)
    curve = []
    for x in X:
        np.minimum(nearest, cdist(grid, x[None, :])[:, 0], out=nearest)
        curve.append(float(np.max(nearest)))
    return curve


def _midpoint_design(dom, n):
    """First n points of the nested equally-spaced (midpoint) construction."""
    d = dom.dim
    per_dim = int(np.ceil(n ** (1.0 / d)))
    pts = dom.uniform_grid(per_dim, endpoint=False)
    return pts[:n]


def nwidth_surrogate(kernel, q, dom, n):
    """Upper bounds on the m-widths for m = 1..n, as a list of n values.

    Entry m-1 is the running minimum over grid designs of sizes 1..m,
    which keeps the curve nonincreasing; any design of at most m points
    spans a subspace of dimension at most m, so each term is a valid bound.
    Each term is sup q sqrt(k_X) over the domain's probe grid.
    """
    if n < 1:
        raise DomainError("n must be at least 1")
    grid = dom.probe_grid()
    sups_sq = [np.max(projection_distance_sq(kernel, q, _midpoint_design(dom, m), grid))
               for m in range(1, n + 1)]
    return np.sqrt(np.minimum.accumulate(sups_sq)).tolist()


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


def sup_qk_fine(state, q, dom, points=2048):
    """Grid supremum of q sqrt(posterior var) plus a modulus-of-continuity slack.

    The tensor grid has ceil(points^(1/d)) points per dim. Returns
    (sup, modulus) where modulus is the largest jump between axis-adjacent
    grid values, an honest discretization allowance.
    """
    per_dim = int(np.ceil(points ** (1 / dom.dim)))
    grid = dom.uniform_grid(per_dim)
    vals = np.asarray(q(grid)) * np.sqrt(gp.posterior_var(state, grid))
    cube = vals.reshape((per_dim,) * dom.dim)
    modulus = 0.0
    for axis in range(dom.dim):
        modulus = max(modulus, float(np.max(np.abs(np.diff(cube, axis=axis)))))
    return float(np.max(vals)), modulus


@dataclass
class BoundReport:
    reference: float
    reference_error: float
    constant_transform: float
    constant_pi_over_q: float
    gnorm: float
    rows: list = field(default_factory=list)
    violations: list = field(default_factory=list)

    @property
    def ok(self):
        return not self.violations


def error_bound_check(record, integrand, pi, q, oracle_resolution=256):
    """Check |reference - plugin estimate| against the assembled error bound.

    The right-hand side multiplies the transform's Lipschitz constant,
    the integral of pi/q, the known native norm, and a grid supremum of
    q sqrt(posterior var) widened by a modulus-of-continuity slack; the
    left side carries the quadrature oracle's self-estimate.
    """
    dom = record.domain
    kernel = integrand.kernel
    t = integrand.transform
    gnorm = rkhs_norm(integrand)
    k_inf = kernel.sup_diag()
    m_inf = float(np.max(np.abs(integrand.prior_mean(dom.probe_grid()))))
    c_t = t.lipschitz_constant(m_inf, gnorm, k_inf)
    c_piq = reference_integral(lambda P: 1.0 / np.asarray(q(P)), pi, dom,
                               min(oracle_resolution, 256))
    reference, ref_err = reference_integral_refined(integrand, pi, dom,
                                                    oracle_resolution)
    report = BoundReport(reference=reference, reference_error=ref_err,
                         constant_transform=float(c_t),
                         constant_pi_over_q=float(c_piq), gnorm=gnorm)
    state = gp.empty_state(kernel, integrand.prior_mean, dom.dim)
    X_all = record.design()
    for i in range(record.n):
        x = X_all[i][None, :]
        z = t.inverse(np.asarray(integrand(x), dtype=float))[0]
        state = gp.extend(state, x, z)
        sup, modulus = sup_qk_fine(state, q, dom)

        def plugin(P):
            return t.forward(gp.posterior_mean(state, P))

        plug = reference_integral(plugin, pi, dom, oracle_resolution)
        plug_fine = reference_integral(plugin, pi, dom, 2 * oracle_resolution)
        slack = ref_err + abs(plug_fine - plug)
        lhs = abs(reference - plug)
        rhs = c_t * c_piq * gnorm * (sup + modulus) + slack
        row = {"n": i + 1, "lhs": lhs, "rhs": rhs, "sup_qk": sup,
               "modulus": modulus, "slack": slack}
        report.rows.append(row)
        if lhs > rhs:
            report.violations.append(row)
    return report
