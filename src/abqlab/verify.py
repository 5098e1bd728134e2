"""Built-in verification suite.

Each check empirically confirms one guarantee of the method on desk-scale
problems and returns a CheckResult; `run_all` drives them in order and
reports one pass/fail line per tag. The checks are:

- projection-identity: the scaled posterior variance equals the squared
  RKHS distance to the span of the scaled design functions, confirmed
  against an independent dense-solve oracle over randomized configs.
- psi-inequality: the concavity constant of each outer function satisfies
  F^-1(c z) >= psi(c) F^-1(z) over random (c, z).
- weak-greedy-certificate: every run of the builtin acquisition matrix
  achieves per-iteration ratios above the certified lower bound computed
  from the monitored b range.
- error-bound: the plugin estimator error stays below the assembled
  worst-case bound (with honest oracle slack) on synthetic integrands
  with known native norm, for all three transforms.
- rate-form-infinite: uncertainty-sampling error decay under an
  infinitely smooth kernel fits exp(-D n^(1/d)) with high R^2 in d=1, 2.
- rate-form-finite: under a finite-smoothness kernel the fitted log-log
  slope is at least as steep as the predicted algebraic rate.
- adaptivity-envelope: monitored b ranges stay inside the theoretical
  [C_L, C_U] envelopes along the matrix runs that admit one.
- moment-estimator: closed-form posterior expectations of the warped GP
  match Monte Carlo within 3 standard errors; for the identity warp the
  two integral estimators agree to oracle tolerance. The draws are
  streamed in blocks of BLOCK_POINTS latent values, so the check's memory
  does not grow with the number of draws.
- inconsistency-caveat: with a zero prior mean and a latent part that
  vanishes on a subregion, squared-mean weighting has no lower envelope
  and the error series stalls relative to a shifted-mean run.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
from numpy.random import default_rng

from . import analysis, engine, gp, kernels, runner, transforms
from .acquisition import Expm1, Power
from .domain import (
    BLOCK_POINTS,
    ConstantMean,
    Domain,
    TruncatedGaussianDensity,
    UniformDensity,
    quadrature_nodes,
)

PROJECTION_RTOL = 1e-8
PSI_TOL = 1e-12


@dataclass
class CheckResult:
    tag: str
    ok: bool
    detail: dict = field(default_factory=dict)
    seconds: float = 0.0

    def line(self):
        return f"[{'PASS' if self.ok else 'FAIL'}] {self.tag} ({self.seconds:.1f}s)"


def _timed(tag, fn, *args, **kwargs):
    start = time.perf_counter()
    ok, detail = fn(*args, **kwargs)
    return CheckResult(tag=tag, ok=ok, detail=detail,
                       seconds=time.perf_counter() - start)


# ---------------------------------------------------------------------------
# projection-identity


def _random_config(rng):
    d = int(rng.integers(1, 3))
    dom = Domain((0.0,) * d, (1.0,) * d)
    kernel = rng.choice([
        kernels.SquaredExponential(gamma=float(rng.uniform(0.3, 1.5))),
        kernels.Matern(nu=float(rng.choice([0.5, 1.5, 2.5])),
                       ell=float(rng.uniform(0.2, 1.0))),
        kernels.InverseMultiquadric(beta=float(rng.uniform(0.3, 1.5)),
                                    c=float(rng.uniform(0.5, 2.0))),
    ])
    if rng.random() < 0.5:
        q = UniformDensity(dom)
    else:
        q = TruncatedGaussianDensity(
            dom, center=rng.uniform(0.2, 0.8, size=d),
            scale=rng.uniform(0.3, 1.0, size=d),
        )
    n = int(rng.integers(1, 11))
    # one jittered point per grid cell: random designs whose separation keeps
    # the Gram factorization well within the oracle-agreement tolerance
    per = int(np.ceil(n ** (1.0 / d)))
    cells = rng.choice(per ** d, size=n, replace=False)
    idx = np.stack(np.unravel_index(cells, (per,) * d), axis=1)
    X = (idx + 0.25 + 0.5 * rng.random((n, d))) / per
    x_query = rng.uniform(0.0, 1.0, size=(8, d))
    return dom, kernel, q, X, x_query


def check_projection_identity(n_configs=200, seed=20260824):
    rng = default_rng(seed)
    worst = 0.0
    for _ in range(n_configs):
        dom, kernel, q, X, x_query = _random_config(rng)
        state = gp.build_state(kernel, lambda P: np.zeros(len(P)),
                               X, np.zeros(X.shape[0]))
        lhs = np.asarray(q(x_query)) ** 2 * gp.GridPosterior(state, x_query).var
        rhs = analysis.Projector(kernel, q, X)(x_query)[-1]
        scale = np.maximum(np.asarray(q(x_query)) ** 2 * kernel.sup_diag(), 1e-30)
        worst = max(worst, float(np.max(np.abs(lhs - rhs) / scale)))
    return worst <= PROJECTION_RTOL, {
        "configs": n_configs, "max_relative_error": worst,
        "tolerance": PROJECTION_RTOL,
    }


# ---------------------------------------------------------------------------
# psi-inequality


def check_psi_inequality(samples=10_000, seed=3):
    rng = default_rng(seed)
    outers = [Power(1.0), Power(2.0), Power(0.5), Expm1()]
    worst = 0.0
    for outer in outers:
        c = rng.uniform(1e-3, 1.0, size=samples)
        z = rng.uniform(0.0, 10.0, size=samples)
        lhs = outer.inverse(c * z)
        rhs = np.array([outer.psi(ci) for ci in c]) * outer.inverse(z)
        worst = max(worst, float(np.max(rhs - lhs)))
    exact = (abs(Power(2.0).psi(0.25) - 0.5) < 1e-15
             and abs(Expm1().psi(0.3) - 0.3) < 1e-15)
    return worst <= PSI_TOL and exact, {
        "max_violation": worst, "exact_values_ok": exact, "samples": samples,
    }


# ---------------------------------------------------------------------------
# builtin acquisition matrix


def _config(kernel, integrand, mean=0.0, transform=None, b=None, gamma_tilde=1.0,
            seed=0, budget=30, dim=1, grid_points=512):
    """A flat run config on the unit box with uniform pi and q, Power(1) outer
    and a Sobol certificate grid of `grid_points` points (a power of two); b
    defaults to the constant rule (uncertainty sampling)."""
    return {
        "version": "1",
        "seed": seed,
        "domain": {"lower": [0.0] * dim, "upper": [1.0] * dim},
        "kernel": kernel,
        "mean": {"kind": "constant", "value": mean},
        "transform": transform or {"kind": "identity"},
        "integrand": integrand,
        "pi": {"kind": "uniform"},
        "acquisition": {
            "outer": {"kind": "power", "delta": 1.0},
            "q": {"kind": "uniform"},
            "b": b or {"kind": "constant", "value": 1.0},
            "gamma_tilde": gamma_tilde,
        },
        "budget": budget,
        "grids": {"certificate": grid_points},
    }


def builtin_matrix():
    """Named configs: four published rules, two certificate slacknesses each."""
    square = {"kind": "square", "alpha": 2.0}
    small = {"kind": "synthetic", "centers": [[0.3], [0.7]],
             "weights": [0.3, -0.2]}
    cases = {  # name: (mean, transform, integrand, b)
        "constant": (0.0, None, {"kind": "synthetic", "centers": [[0.3], [0.75]],
                                 "weights": [0.8, -0.5]}, None),
        "wsabi_l": (5.0, square, small, {"kind": "wsabi_l"}),
        "wsabi_m": (5.0, square, small, {"kind": "wsabi_m"}),
        "mmlt": (0.0, {"kind": "exponential"}, small, {"kind": "mmlt"}),
    }
    kernel = {"family": "matern", "nu": 1.5, "ell": 0.25}
    return [(f"{name}__gamma_tilde={gt}",
             _config(kernel, integrand, mean=mean, transform=transform, b=b,
                     gamma_tilde=gt, seed=7))
            for name, (mean, transform, integrand, b) in cases.items()
            for gt in (1.0, 0.5)]


def matrix_runs():
    """(name, `analysis.Certificates`) for each run of the builtin matrix,
    one object per run, shared by the certificate and envelope checks."""
    return [(name, analysis.Certificates(runner.execute(raw)))
            for name, raw in builtin_matrix()]


def check_certificates(runs):
    rows = [{"run": name, "iterations": certs.record.n,
             "gamma_hat": certs.greedy.gamma_hat,
             "min_ratio": float(np.min(certs.greedy.ratios)),
             "failures": len(certs.greedy.failures)} for name, certs in runs]
    return (all(certs.greedy.ok for _, certs in runs),
            {"runs": rows, "tolerance": analysis.CERT_TOL})


def check_adaptivity_envelopes(runs):
    rows = []
    for name, certs in runs:
        clcu = certs.clcu
        if clcu.present:
            b_lo, b_hi = certs.b_range
            rows.append({"run": name, "c_l": clcu.c_l, "c_u": clcu.c_u,
                         "b_min": b_lo, "b_max": b_hi, "inside": certs.inside})
        else:
            rows.append({"run": name, "envelope": "absent", "reason": clcu.reason})
    return all(certs.inside for _, certs in runs), {"runs": rows}


# ---------------------------------------------------------------------------
# error-bound


def _bound_configs(budget, seed=11):
    """Five random synthetic integrands under each of the three warps."""
    rng = default_rng(seed)
    kernel = {"family": "matern", "nu": 2.5, "ell": 0.3}
    warps = {"identity": (0.0, {"kind": "identity"}),
             "square": (5.0, {"kind": "square", "alpha": 2.0}),
             "exponential": (0.0, {"kind": "exponential"})}
    configs = []
    for t_kind, (mean, transform) in warps.items():
        for _ in range(5):
            m = int(rng.integers(2, 5))
            centers = np.sort(rng.uniform(0.05, 0.95, size=(m, 1)), axis=0)
            weights = rng.uniform(-0.4, 0.4, size=m)
            integrand = {"kind": "synthetic", "centers": centers.tolist(),
                         "weights": weights.tolist()}
            configs.append((t_kind, _config(kernel, integrand, mean=mean,
                                            transform=transform, budget=budget)))
    return configs


def check_error_bound(budget=30):
    runs = [(t_kind, analysis.Certificates(runner.execute(raw)))
            for t_kind, raw in _bound_configs(budget)]
    rows = [{"transform": t_kind, "iterations": certs.record.n,
             "violations": len(certs.bound.violations),
             "max_lhs_over_rhs": certs.bound.max_lhs_over_rhs} for t_kind, certs in runs]
    return all(certs.bound.ok for _, certs in runs), {"runs": rows}


# ---------------------------------------------------------------------------
# rate forms


def _p_greedy_run(kernel, budget, dim=1, grid_points=512):
    """The record of a P-greedy run: zero integrand, constant b."""
    raw = _config(kernel, {"kind": "synthetic", "centers": [], "weights": []},
                  budget=budget, dim=dim, grid_points=grid_points)
    return runner.execute(raw)


def check_rate_infinite():
    se = {"family": "squared-exponential", "gamma": 0.5}
    rec1 = _p_greedy_run(se, budget=60)
    fit1 = analysis.fit_rate(rec1.sup_qk, kernels.RatePrediction("exponential", 1.0),
                             n_min=5, floor=1e-7)
    rec2 = _p_greedy_run(se, budget=60, dim=2, grid_points=1024)
    fit2 = analysis.fit_rate(rec2.sup_qk, kernels.RatePrediction("exponential", 0.5),
                             n_min=5, floor=1e-7)
    ok = (fit1.r_squared >= 0.95 and fit1.slope < 0
          and fit2.r_squared >= 0.90 and fit2.slope < 0)
    return ok, {
        "d1": {"r_squared": fit1.r_squared, "slope": fit1.slope,
               "n_range": list(fit1.n_range)},
        "d2": {"r_squared": fit2.r_squared, "slope": fit2.slope,
               "n_range": list(fit2.n_range)},
    }


def check_rate_finite():
    rec = _p_greedy_run({"family": "matern", "nu": 1.5, "ell": 0.25}, budget=100)
    fit = analysis.fit_rate(rec.sup_qk, kernels.RatePrediction("polynomial", -1.5),
                            n_min=8, floor=1e-12)
    ok = fit.slope <= -1.2
    return ok, {"slope": fit.slope, "r_squared": fit.r_squared,
                "required_slope": -1.2, "n_range": list(fit.n_range)}


# ---------------------------------------------------------------------------
# moment-estimator


def check_moment_estimator(seed=5, n_mc=1_000_000, n_query=20):
    rng = default_rng(seed)
    dom = Domain((0.0,), (1.0,))
    kernel = kernels.Matern(nu=2.5, ell=0.3)
    X = rng.uniform(0.1, 0.9, size=(6, 1))
    z = rng.normal(0.3, 0.5, size=6)
    state = gp.build_state(kernel, ConstantMean(0.2), X, z)
    queries = rng.uniform(0.0, 1.0, size=(n_query, 1))
    post = gp.GridPosterior(state, queries)
    mean, var = post.mean, post.var
    sd = np.sqrt(var)

    # The draws are streamed in blocks of BLOCK_POINTS latent values, so the
    # memory does not grow with n_mc; chunked standard_normal calls replay one
    # call's stream. Per query, the sums of y - c and (y - c)^2 with the shift
    # c = T(mean) give the mean and a one-pass variance free of cancellation.
    warps = (transforms.Square(alpha=1.0), transforms.Exponential())
    shifts = [t.forward(mean) for t in warps]
    s1 = np.zeros((len(warps), n_query))
    s2 = np.zeros((len(warps), n_query))
    block = BLOCK_POINTS // n_query
    for start in range(0, n_mc, block):
        latent = sd[:, None] * rng.standard_normal(min(block, n_mc - start))
        latent += mean[:, None]
        for i, (t, c) in enumerate(zip(warps, shifts)):
            # both warps return a new array, so the shift goes in place
            dev = t.forward(latent)
            dev -= c[:, None]
            s1[i] += dev.sum(axis=1)
            s2[i] += np.square(dev, out=dev).sum(axis=1)

    worst_sigma = 0.0
    for t, c, a, b in zip(warps, shifts, s1, s2):
        mc = c + a / n_mc
        se = np.sqrt((b - a * a / n_mc) / (n_mc - 1) / n_mc)
        gap = np.abs(t.posterior_expectation(mean, var) - mc)
        spread = se > 0
        if np.any(spread):
            worst_sigma = max(worst_sigma, float(np.max(gap[spread] / se[spread])))

    pi = UniformDensity(dom)
    ident = transforms.Identity()
    nodes, w = quadrature_nodes(dom, 256)
    post = gp.GridPosterior(state, nodes)
    plug, expect = engine.estimates(ident, w, pi(nodes), post.mean, post.var)
    identity_gap = abs(plug - expect)
    ok = worst_sigma <= 3.0 and identity_gap <= 1e-12
    return ok, {"worst_sigma": worst_sigma, "identity_gap": identity_gap,
                "mc_samples": n_mc, "query_points": n_query}


# ---------------------------------------------------------------------------
# inconsistency-caveat


def _inconsistency_config(mean_value):
    return _config({"family": "wendland", "smoothness_index": 1, "radius": 0.25},
                   {"kind": "builtin", "name": "left-cluster"}, mean=mean_value,
                   transform={"kind": "square", "alpha": 0.5},
                   b={"kind": "wsabi_l"}, seed=13)


def check_inconsistency_caveat(stall_factor=5.0):
    """Zero-mean squared-mean weighting on an integrand whose latent part
    vanishes for x > 0.53: the lower envelope is absent and the error
    series stalls relative to the same run with a shifted mean."""
    records = {label: runner.execute(_inconsistency_config(mean_value))
               for label, mean_value in (("zero_mean", 0.0), ("shifted_mean", 5.0))}
    series = {label: list(record.sup_qk) for label, record in records.items()}
    clcu_zero = analysis.Certificates(records["zero_mean"]).clcu
    e_zero = series["zero_mean"][-1]
    e_shift = series["shifted_mean"][-1]
    stalled = e_zero > stall_factor * e_shift
    envelope_absent = not clcu_zero.present
    return envelope_absent and stalled, {
        "envelope_absent": envelope_absent,
        "envelope_reason": clcu_zero.reason,
        "final_error_zero_mean": e_zero,
        "final_error_shifted_mean": e_shift,
        "stall_factor_observed": e_zero / e_shift if e_shift > 0 else float("inf"),
        "series": series,
    }


# ---------------------------------------------------------------------------


def run_all(printer=print):
    """Run the nine checks and return their results in suite order. The
    builtin matrix runs, shared by the certificate and envelope checks, are
    timed into weak-greedy-certificate's seconds, their first consumer."""
    start = time.perf_counter()
    runs = matrix_runs()
    matrix_seconds = time.perf_counter() - start
    certificates = _timed("weak-greedy-certificate", check_certificates, runs)
    certificates.seconds += matrix_seconds
    results = [
        _timed("projection-identity", check_projection_identity),
        _timed("psi-inequality", check_psi_inequality),
        certificates,
        _timed("adaptivity-envelope", check_adaptivity_envelopes, runs),
        _timed("error-bound", check_error_bound),
        _timed("rate-form-infinite", check_rate_infinite),
        _timed("rate-form-finite", check_rate_finite),
        _timed("moment-estimator", check_moment_estimator),
        _timed("inconsistency-caveat", check_inconsistency_caveat),
    ]
    if printer is not None:
        for res in results:
            printer(res.line())
    return results
