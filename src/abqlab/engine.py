"""The sequential quadrature loop: select, evaluate, condition; then estimate.

`run_abq` conditions one `gp.GridPosterior` on the certificate grid alone,
so its float guard counts the min(budget, |grid|) grid rows only, with one
`add` per step: a Newton-basis row in O(|grid| n), not an O(|grid| n^2) solve.
The grid moments after step l give sup q sqrt(k) for step l and the b
range and acquisition for step l+1; acquisition rules take moments as
inputs. The estimates feed no selection, so once the grid posterior is
dropped, `estimate_series` reads every prefix's from one oracle walk.

Selection maximizes the acquisition over the certificate grid, the point
set every recorded supremum is taken on, so the selection is greedy on
that grid by construction. `GridPosterior.select`, the one greedy step (the
n-width surrogate's too), skips grid points the design spans, where `add`
would raise and F(0) b = 0, and the run stops when it finds none with a
nonzero acquisition; `RunRecord.stop_cause` says why a run stopped early.
The grid is a Sobol' net, and the record keeps its covering radius, which
bounds how far the supremum over the whole box can exceed the grid's.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import gp
# unused here: perfbench/selftest.py requires the engine.quadrature_nodes binding
from .domain import (GUARD_POINTS, REFINEMENT, check_rule_size, grid_per_dim,
                     quadrature_nodes, weighted_integrals)
from .exceptions import BudgetExceededError, DomainError, NonFiniteIntegrandError

DEFAULT_CERT_POINTS_PER_DIM = 2048

# the estimators' Gauss-Legendre rule when grids.oracle is not set: at most
# ORACLE_PER_DIM nodes per dim and ORACLE_POINTS in total, but never fewer
# than ORACLE_MIN_PER_DIM per dim (256, 64, 16, 8 and 8 in d = 1..5)
ORACLE_POINTS = 4096
ORACLE_PER_DIM = 256
ORACLE_MIN_PER_DIM = 8

# why a run stopped before its budget, as RunRecord.stop_cause
STOP_SPANNED = "every candidate is spanned by the design"
STOP_ZERO_ACQUISITION = ("the acquisition is zero at every candidate the design "
                         "does not span")

# Primitive polynomials and initial direction numbers m_1..m_s of the first
# ten Sobol' dimensions (Joe & Kuo, SIAM J. Sci. Comput. 2008), the rows
# scipy.stats.qmc.Sobol starts from; dimension 0 is the van der Corput
# sequence, all m_j = 1.
_SOBOL_POLY = (1, 3, 7, 11, 13, 19, 25, 37, 41, 47)
_SOBOL_M_INIT = ((), (1,), (1, 3), (1, 3, 1), (1, 1, 1), (1, 1, 3, 3),
                 (1, 3, 5, 13), (1, 1, 5, 5, 17), (1, 1, 5, 5, 5),
                 (1, 1, 7, 11, 19))
_SOBOL_BITS = 30
MAX_DIM = len(_SOBOL_POLY)  # the largest d of a certificate grid, and of a config


@dataclass(frozen=True)
class Problem:
    """An integrand on a box with its weight density.

    The integrand carries the GP model: `run_abq` conditions with its
    `kernel`, `prior_mean` and `transform` attributes, which a synthetic
    integrand has and a black-box integrand must expose too.
    """

    integrand: object  # callable on (n, d) points
    pi: object  # Density
    domain: object  # Domain


@dataclass
class RunRecord:
    """Per-iteration trace of one sequential run, with the problem, the
    acquisition and the budget it ran, so every certificate reads the run."""

    problem: Problem
    spec: object  # AcquisitionSpec
    cert_grid: np.ndarray
    cert_radius: float  # every point of the box is this close to cert_grid
    oracle_resolution: int  # Gauss-Legendre nodes per dim of the estimators
    budget: int  # the n that run_abq was given
    state: gp.GpState  # the GP on the design so far, replaced at each step
    sup_qk: list = field(default_factory=list)  # e_n surrogate after n points
    b_min: list = field(default_factory=list)
    b_max: list = field(default_factory=list)
    est_plugin: list = field(default_factory=list)
    est_expectation: list = field(default_factory=list)
    clamp_events: int = 0
    e0: float = float("nan")  # sup q sqrt(k) before any point
    stop_cause: str | None = None  # one of the STOP_* reasons, None at full budget

    @property
    def converged(self):
        return self.stop_cause is not None

    @property
    def n(self):
        return self.state.n


def _next_pow2(n):
    return 1 << (int(n) - 1).bit_length()


def _sobol_directions(d):
    """(d, 30) direction numbers v_j = m_j 2^(30-j) of the first d dimensions."""
    rows = []
    for poly, m_init in zip(_SOBOL_POLY[:d], _SOBOL_M_INIT):
        s = len(m_init)
        m = list(m_init) if s else [1] * _SOBOL_BITS
        for j in range(len(m), _SOBOL_BITS):
            m_j = m[j - s]
            for k in range(1, s + 1):
                if (poly >> (s - k)) & 1:
                    m_j ^= m[j - k] << k
            m.append(m_j)
        rows.append(m)
    return np.array(rows, dtype=np.uint64) << np.arange(_SOBOL_BITS - 1, -1, -1,
                                                         dtype=np.uint64)


def _sobol(d, n):
    """The first n unscrambled Sobol' points in [0, 1)^d, d <= 10, in the
    Gray-code order of scipy.stats.qmc.Sobol(d, scramble=False): point
    2^b + i is point 2^b - 1 - i with direction bit b flipped."""
    v = _sobol_directions(d)
    q = np.zeros((1, d), dtype=np.uint64)
    for bit in range(int(n - 1).bit_length()):
        q = np.concatenate([q, q[::-1] ^ v[:, bit]])
    return q[:n] * 2.0 ** -_SOBOL_BITS


def certificate_grid(dom, size=None):
    """The grid a run selects on and takes every recorded supremum over:
    the first `size` unscrambled Sobol' points (a config's
    `grids.certificate`, default 2048 d), rounded up to a power of two and
    scaled to the box.

    The points come from the Joe-Kuo table above, so d is at most 10;
    a larger d raises DomainError, and a grid of more than GUARD_POINTS
    (1e7) points BudgetExceededError, before any point is made.
    """
    d = dom.dim
    if d > MAX_DIM:
        raise DomainError(f"the certificate grid has Sobol' points for d <= "
                          f"{MAX_DIM}, not d = {d}")
    size = _next_pow2(size if size is not None else DEFAULT_CERT_POINTS_PER_DIM * d)
    if size > GUARD_POINTS:
        raise BudgetExceededError(f"a certificate grid of {size} points exceeds "
                                  f"the 1e7-point guard")
    lower = np.asarray(dom.lower)
    return _sobol(d, size) * (np.asarray(dom.upper) - lower) + lower


def covering_radius(dom, size):
    """A radius within which every point of the box has a point of
    `certificate_grid(dom, size)`: the diagonal of an elementary box of
    volume 2^(t-m), its widest side halved m - t times (the whole box if
    m < t). Each holds 2^t of the 2^m points, a (t, m, d)-net with t the sum
    of deg p_j - 1 = len(m_init) - 1 over the rows (Niederreiter 1988)."""
    m = _next_pow2(size).bit_length() - 1
    t = sum(len(_SOBOL_M_INIT[j][1:]) for j in range(dom.dim))
    sides = dom.widths
    for _ in range(m - t):
        sides[np.argmax(sides)] /= 2
    return float(np.linalg.norm(sides))


def estimate_series(state, transform, pi, dom, resolution):
    """(plugin, expectation), two lists of n floats: the integrals against pi
    of T(m_i) and E[T](m_i, v_i), the moments of each prefix X[:i] of the
    state's design, in one `weighted_integrals` walk of the rule of
    `resolution` nodes per dim over the Newton rows V of `gp.prefix_term`:
    running sums of V^2 give the variances, checked by `gp.clamp_variance`,
    and `gp.prefix_means` the means."""
    n = state.n
    if not n:
        return [], []
    k0 = state.kernel.sup_diag()

    def moments(V, pts):
        var = gp.clamp_variance(k0 - gp.running_sum(V * V), k0)
        mean = gp.prefix_means(state, V, pts)
        return np.concatenate([transform.forward(mean),
                               transform.posterior_expectation(mean, var)])

    series = weighted_integrals(dom, resolution, pi, gp.prefix_term(state, moments),
                                functions=2 * n)
    return series[:n], series[n:]


def run_abq(problem, spec, n, cert_points=None, oracle_resolution=None):
    """Run the sequential loop for `n` evaluations of the integrand.

    Each step picks the point of largest acquisition on
    `certificate_grid(dom, cert_points)`, the grid the certificate takes
    its suprema on, so an exact-argmax run certifies a ratio of one; the
    record keeps the grid and its `covering_radius`.
    The estimators integrate on a Gauss-Legendre tensor grid with
    oracle_resolution nodes per dim, by default the `domain.grid_per_dim`
    count for ORACLE_POINTS nodes in total and at most ORACLE_PER_DIM per
    dim, raised to ORACLE_MIN_PER_DIM: 256, 64, 16, 8 and 8 in d = 1..5,
    once the loop ends, on every exit path (`estimate_series`).
    The record keeps it, the problem, the spec, the budget n and the final
    state, which is also the first value returned.
    Deterministic given its arguments; the integrand is evaluated only at
    the points the design keeps. Raises NonFiniteIntegrandError
    when the integrand returns NaN or inf, and BudgetExceededError before
    the first integrand call when the report's rule, at REFINEMENT times
    the resolution or the certificate grid is over the 1e7-point guard, or
    min(n, |grid|) rows on the grid alone over the 2^27-float guard.
    """
    dom = problem.domain
    model = problem.integrand
    t = model.transform
    if oracle_resolution is None:
        oracle_resolution = max(ORACLE_MIN_PER_DIM, grid_per_dim(
            dom.dim, ORACLE_POINTS, ORACLE_PER_DIM))
    # fail now, not after every integrand call of the run
    check_rule_size(dom.dim, REFINEMENT * oracle_resolution)
    cert_grid = certificate_grid(dom, cert_points)

    state = gp.empty_state(kernel=model.kernel, mean=model.prior_mean, dim=dom.dim)
    post = gp.GridPosterior(state, cert_grid, capacity=n)

    record = RunRecord(problem=problem, spec=spec, cert_grid=cert_grid,
                       cert_radius=covering_radius(dom, len(cert_grid)),
                       oracle_resolution=oracle_resolution, budget=n, state=state)
    q_grid = spec.q(cert_grid)
    record.e0 = float(np.max(q_grid * np.sqrt(post.var)))

    for _ in range(n):
        a_grid, clamps, b_grid = spec.evaluate(cert_grid, post.mean, post.var)
        # read now: the add below overwrites the mean b may be a view of
        b_range = float(np.min(b_grid)), float(np.max(b_grid))
        index = post.select(a_grid)
        if index is None:
            record.stop_cause = (STOP_SPANNED if np.all(post.spanned())
                                 else STOP_ZERO_ACQUISITION)
            break
        x = cert_grid[index]
        f_val = np.asarray(problem.integrand(x[None, :]), dtype=float)
        if not np.all(np.isfinite(f_val)):
            raise NonFiniteIntegrandError(
                f"non-finite integrand value {f_val.tolist()} at x = {x.tolist()}"
            )
        record.state = post.add(index, t.inverse(f_val)[0])
        record.clamp_events += clamps
        record.b_min.append(b_range[0])
        record.b_max.append(b_range[1])
        record.sup_qk.append(float(np.max(q_grid * np.sqrt(post.var))))
    # the state's buffers outlive the posterior; its rows on the grid do not
    del post
    record.est_plugin, record.est_expectation = estimate_series(
        record.state, t, problem.pi, dom, oracle_resolution)
    return record.state, record
