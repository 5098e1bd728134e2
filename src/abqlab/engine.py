"""The sequential quadrature loop: select, evaluate, condition, estimate.

`run_abq` is the one place that computes posterior moments: one
`gp.posterior` per GP state on the certificate grid, the candidate pool
(skipped when it is the grid) and the estimators' quadrature nodes. The
grid moments after step l give sup q sqrt(k) for step l and the b range
and grid maximum for step l+1; acquisition rules take moments as inputs.

Selection maximizes the acquisition over a candidate pool (optionally
with coordinate-descent refinement); the certificate compares the chosen
point against a dense fixed grid whose resolution is recorded, since the
supremum over the whole box is not computable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.stats import qmc

from . import gp
from .domain import quadrature_nodes
from .exceptions import (Converged, DomainError, LinearDependenceError,
                         NonFiniteIntegrandError)

DEFAULT_CERT_POINTS_PER_DIM = 2048


@dataclass(frozen=True)
class SelectorConfig:
    candidate_count: int = 512
    candidate_scheme: str = "uniform-grid"  # uniform-grid | low-discrepancy | uniform-random
    local_refinement_steps: int = 0
    seed: int = 0

    def __post_init__(self):
        if self.candidate_count < 2:
            raise ValueError("candidate_count must be at least 2")
        if self.candidate_scheme not in (
            "uniform-grid", "low-discrepancy", "uniform-random"
        ):
            raise ValueError(f"unknown candidate scheme {self.candidate_scheme!r}")
        if self.local_refinement_steps < 0:
            raise ValueError("local_refinement_steps must be nonnegative")


@dataclass(frozen=True)
class Problem:
    """An integrand on a box with its weight density and warping transform.

    The GP model (kernel, prior mean) defaults to the attributes of a
    synthetic integrand; pass them explicitly for black-box integrands.
    """

    integrand: object  # callable on (n, d) points
    pi: object  # Density
    domain: object  # Domain
    transform: object
    kernel: object = None
    mean: object = None

    def model_kernel(self):
        kernel = self.kernel or getattr(self.integrand, "kernel", None)
        if kernel is None:
            raise DomainError("problem does not expose a model kernel")
        return kernel

    def model_mean(self):
        mean = self.mean or getattr(self.integrand, "prior_mean", None)
        if mean is None:
            raise DomainError("problem does not expose a prior mean")
        return mean


@dataclass
class RunRecord:
    """Per-iteration trace of one sequential run."""

    domain: object
    gamma_tilde: float
    cert_grid: np.ndarray
    spec: object = None
    points: list = field(default_factory=list)
    a_chosen: list = field(default_factory=list)
    a_max_grid: list = field(default_factory=list)
    greedy_ratio: list = field(default_factory=list)
    sup_qk: list = field(default_factory=list)  # e_n surrogate after n points
    b_min: list = field(default_factory=list)
    b_max: list = field(default_factory=list)
    est_plugin: list = field(default_factory=list)
    est_expectation: list = field(default_factory=list)
    jitter_events: list = field(default_factory=list)
    clamp_events: int = 0
    e0: float = float("nan")  # sup q sqrt(k) before any point
    prior_plugin: float = float("nan")
    prior_expectation: float = float("nan")
    converged: bool = False
    skipped_dependent: int = 0

    @property
    def n(self):
        return len(self.points)

    def design(self, upto=None):
        pts = self.points if upto is None else self.points[:upto]
        return np.array(pts).reshape(len(pts), -1)


def _next_pow2(n):
    return 1 << (int(n) - 1).bit_length()


def candidate_pool(dom, cfg, rng=None):
    """Deterministic candidate set for one iteration."""
    d = dom.dim
    if cfg.candidate_scheme == "uniform-grid":
        per_dim = int(np.ceil(cfg.candidate_count ** (1.0 / d)))
        return dom.uniform_grid(per_dim)
    if cfg.candidate_scheme == "low-discrepancy":
        sob = qmc.Sobol(d, scramble=False)
        pts = sob.random(_next_pow2(cfg.candidate_count))
        return qmc.scale(pts, dom.lower, dom.upper)
    rng = rng if rng is not None else np.random.default_rng(cfg.seed)
    lo = np.asarray(dom.lower)
    hi = np.asarray(dom.upper)
    return rng.uniform(lo, hi, size=(cfg.candidate_count, d))


def certificate_grid(dom, size=None):
    """Fixed low-discrepancy grid backing every recorded supremum."""
    d = dom.dim
    size = _next_pow2(size if size is not None else DEFAULT_CERT_POINTS_PER_DIM * d)
    sob = qmc.Sobol(d, scramble=False)
    return qmc.scale(sob.random(size), dom.lower, dom.upper)


def _refine(spec, state, ell, dom, x, a_val, step, rounds):
    """Coordinate-descent hill climbing, clamped to the box."""
    x = x.copy()
    for _ in range(rounds):
        for i in range(dom.dim):
            for sgn in (-1.0, 1.0):
                trial = x.copy()
                trial[i] += sgn * step[i]
                trial = dom.clip(trial[None, :])
                a_trial, _ = spec.evaluate(trial, *gp.posterior(state, trial), ell)
                if a_trial[0] > a_val:
                    a_val = float(a_trial[0])
                    x = trial[0]
        step = step / 2.0
    return x, a_val


def select_next(spec, cfg, state, ell, dom, candidates, a_cand, a_grid_max,
                exclude=()):
    """Pick the next evaluation point and its weakness certificate.

    a_cand is the acquisition over `candidates` and a_grid_max its maximum
    over the certificate grid, both under `state` at iteration `ell`.
    Returns (point, certificate) where the certificate carries the
    acquisition at the chosen point, the maximum over the certificate
    grid and their ratio. Candidate indices in `exclude` are skipped.
    Raises Converged when the acquisition vanishes at every candidate.
    """
    order = np.argsort(-a_cand, kind="stable")
    if exclude:
        order = [i for i in order if i not in exclude]
    if not len(order) or a_cand[order[0]] <= 0.0:
        raise Converged("acquisition is zero at every candidate")
    best = int(order[0])
    x = candidates[best].copy()
    a_val = float(a_cand[best])
    if cfg.local_refinement_steps > 0:
        per_dim = max(2, int(np.ceil(cfg.candidate_count ** (1.0 / dom.dim))))
        step = dom.widths / per_dim
        x, a_val = _refine(spec, state, ell, dom, x, a_val, step,
                           cfg.local_refinement_steps)
    a_max = max(a_grid_max, a_val)
    cert = {
        "a_chosen": a_val,
        "a_max_grid": a_max,
        "ratio": a_val / a_max if a_max > 0 else 1.0,
        "candidate_index": best,
    }
    return x, cert


def estimates(state, transform, pi, dom, resolution=256):
    """(plugin, expectation): the integrals against pi of the transformed
    posterior mean and of the pointwise posterior expectation of T."""
    pts, w = quadrature_nodes(dom, resolution)
    mean, var = gp.posterior(state, pts)
    dens = pi(pts)
    return (float(np.sum(w * transform.forward(mean) * dens)),
            float(np.sum(w * transform.posterior_expectation(mean, var) * dens)))


def run_abq(problem, spec, cfg, n, cert_grid=None, cert_grid_size=None,
            oracle_resolution=256, share_candidate_grid=False):
    """Run the sequential loop for `n` evaluations of the integrand.

    When share_candidate_grid is set the certificate grid is the
    candidate pool itself, so exact-argmax runs certify a ratio of one.
    Deterministic given (problem, spec, cfg, n). Raises
    NonFiniteIntegrandError when the integrand returns NaN or inf.
    """
    dom = problem.domain
    t = problem.transform
    rng = np.random.default_rng(cfg.seed)
    fixed_candidates = None
    if cfg.candidate_scheme in ("uniform-grid", "low-discrepancy"):
        fixed_candidates = candidate_pool(dom, cfg)
    if cert_grid is None:
        if share_candidate_grid:
            if fixed_candidates is None:
                raise DomainError(
                    "share_candidate_grid needs a deterministic candidate scheme"
                )
            cert_grid = fixed_candidates
        else:
            cert_grid = certificate_grid(dom, cert_grid_size)

    state = gp.empty_state(kernel=problem.model_kernel(), mean=problem.model_mean(),
                           dim=dom.dim)

    record = RunRecord(domain=dom, gamma_tilde=spec.gamma_tilde, cert_grid=cert_grid,
                       spec=spec)
    q_grid = spec.q(cert_grid)
    grid_moments = gp.posterior(state, cert_grid)
    record.e0 = float(np.max(q_grid * np.sqrt(grid_moments[1])))
    record.prior_plugin, record.prior_expectation = estimates(
        state, t, problem.pi, dom, oracle_resolution
    )

    for ell in range(n):
        candidates = (fixed_candidates if fixed_candidates is not None
                      else candidate_pool(dom, cfg, rng))
        a_grid, clamps = spec.evaluate(cert_grid, *grid_moments, ell)
        b_grid = spec.eval_b(cert_grid, *grid_moments, ell)
        a_cand = a_grid
        if candidates is not cert_grid:
            a_cand, clamps = spec.evaluate(
                candidates, *gp.posterior(state, candidates), ell
            )
        a_grid_max = float(np.max(a_grid))
        exclude = set()
        while True:
            try:
                x, cert = select_next(spec, cfg, state, ell, dom, candidates,
                                      a_cand, a_grid_max, exclude)
            except Converged:
                record.converged = True
                return state, record
            f_val = np.asarray(problem.integrand(x[None, :]), dtype=float)
            if not np.all(np.isfinite(f_val)):
                raise NonFiniteIntegrandError(
                    f"non-finite integrand value {f_val.tolist()} at x = {x.tolist()}"
                )
            z_val = t.inverse(f_val)[0]
            try:
                new_state = gp.extend(state, x, z_val)
                break
            except LinearDependenceError:
                record.skipped_dependent += 1
                exclude.add(cert["candidate_index"])
                if len(exclude) >= candidates.shape[0]:
                    record.converged = True
                    return state, record

        if new_state.jitter_used != state.jitter_used:
            record.jitter_events.append((ell, new_state.jitter_used))
        state = new_state
        grid_moments = gp.posterior(state, cert_grid)
        record.points.append(x)
        record.a_chosen.append(cert["a_chosen"])
        record.a_max_grid.append(cert["a_max_grid"])
        record.greedy_ratio.append(cert["ratio"])
        record.clamp_events += clamps
        record.b_min.append(float(np.min(b_grid)))
        record.b_max.append(float(np.max(b_grid)))
        record.sup_qk.append(float(np.max(q_grid * np.sqrt(grid_moments[1]))))
        plugin, expectation = estimates(state, t, problem.pi, dom, oracle_resolution)
        record.est_plugin.append(plugin)
        record.est_expectation.append(expectation)
    return state, record
