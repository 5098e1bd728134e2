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
  two integral estimators agree to oracle tolerance.
- inconsistency-caveat: with a zero prior mean and a latent part that
  vanishes on a subregion, squared-mean weighting has no lower envelope
  and the error series stalls relative to a shifted-mean run.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import analysis, engine, gp, kernels, transforms
from .acquisition import Expm1, Power
from .config import build_problem
from .domain import (
    ConstantMean,
    Domain,
    SyntheticIntegrand,
    TruncatedGaussianDensity,
    UniformDensity,
)
from .runner import clcu_for

CERT_TOL = 1e-9
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
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_configs):
        dom, kernel, q, X, x_query = _random_config(rng)
        state = gp.build_state(kernel, lambda P: np.zeros(len(P)),
                               X, np.zeros(X.shape[0]))
        lhs = np.asarray(q(x_query)) ** 2 * gp.posterior_var(state, x_query)
        rhs = analysis.projection_distance_sq(kernel, q, X, x_query)
        scale = np.maximum(np.asarray(q(x_query)) ** 2 * kernel.diag(x_query),
                           1e-30)
        worst = max(worst, float(np.max(np.abs(lhs - rhs) / scale)))
    return worst <= PROJECTION_RTOL, {
        "configs": n_configs, "max_relative_error": worst,
        "tolerance": PROJECTION_RTOL,
    }


# ---------------------------------------------------------------------------
# psi-inequality


def check_psi_inequality(samples=10_000, seed=3):
    rng = np.random.default_rng(seed)
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


def _matrix_base():
    return {
        "version": "1",
        "seed": 7,
        "domain": {"lower": [0.0], "upper": [1.0]},
        "kernel": {"family": "matern", "nu": 1.5, "ell": 0.25},
        "pi": {"kind": "uniform"},
        "budget": 30,
        "grids": {"shared_certificate": True},
        "selector": {"candidate_count": 512, "scheme": "uniform-grid"},
    }


def builtin_matrix():
    """Named configs: four published rules, two certificate slacknesses each."""
    small = {"kind": "synthetic", "centers": [[0.3], [0.7]],
             "weights": [0.3, -0.2]}
    cases = {
        "constant": {
            "mean": {"kind": "constant", "value": 0.0},
            "transform": {"kind": "identity"},
            "integrand": {"kind": "synthetic", "centers": [[0.3], [0.75]],
                          "weights": [0.8, -0.5]},
            "b": {"kind": "constant", "value": 1.0},
        },
        "wsabi_l": {
            "mean": {"kind": "constant", "value": 5.0},
            "transform": {"kind": "square", "alpha": 2.0},
            "integrand": small,
            "b": {"kind": "wsabi_l"},
        },
        "wsabi_m": {
            "mean": {"kind": "constant", "value": 5.0},
            "transform": {"kind": "square", "alpha": 2.0},
            "integrand": small,
            "b": {"kind": "wsabi_m"},
        },
        "mmlt": {
            "mean": {"kind": "constant", "value": 0.0},
            "transform": {"kind": "exponential"},
            "integrand": small,
            "b": {"kind": "mmlt"},
        },
    }
    configs = []
    for name, parts in cases.items():
        for gt in (1.0, 0.5):
            raw = _matrix_base()
            raw.update({k: parts[k] for k in ("mean", "transform", "integrand")})
            raw["acquisition"] = {
                "outer": {"kind": "power", "delta": 1.0},
                "q": {"kind": "uniform"},
                "b": parts["b"],
                "gamma_tilde": gt,
            }
            configs.append((f"{name}__gamma_tilde={gt}", raw))
    return configs


def _run_matrix():
    runs = []
    for name, raw in builtin_matrix():
        problem, spec, selector = build_problem(raw)
        _, record = engine.run_abq(
            problem, spec, selector, raw["budget"],
            share_candidate_grid=True,
        )
        runs.append((name, problem, spec, record))
    return runs


def check_certificates(runs=None):
    if runs is None:
        runs = _run_matrix()
    rows = []
    ok = True
    for name, problem, spec, record in runs:
        cert = analysis.greedy_certificate(
            record, problem.integrand.kernel, spec.q, tol=CERT_TOL
        )
        min_ratio = float(np.min(cert.ratios))
        rows.append({
            "run": name, "iterations": record.n, "gamma_hat": cert.gamma_hat,
            "min_ratio": min_ratio, "failures": len(cert.failures),
        })
        ok = ok and cert.ok
    return ok, {"runs": rows, "tolerance": CERT_TOL}


def check_adaptivity_envelopes(runs=None):
    if runs is None:
        runs = _run_matrix()
    rows = []
    ok = True
    for name, problem, spec, record in runs:
        clcu = clcu_for(problem, spec)
        if not clcu.present:
            rows.append({"run": name, "envelope": "absent", "reason": clcu.reason})
            ok = False
            continue
        b_lo, b_hi = min(record.b_min), max(record.b_max)
        inside = bool(clcu.c_l <= b_lo and b_hi <= clcu.c_u)
        rows.append({"run": name, "c_l": clcu.c_l, "c_u": clcu.c_u,
                     "b_min": b_lo, "b_max": b_hi, "inside": inside})
        ok = ok and inside
    return ok, {"runs": rows}


# ---------------------------------------------------------------------------
# error-bound


def _bound_problems(seed=11):
    rng = np.random.default_rng(seed)
    dom = Domain((0.0,), (1.0,))
    kernel = kernels.Matern(nu=2.5, ell=0.3)
    problems = []
    for t_kind in ("identity", "square", "exponential"):
        for _ in range(5):
            m = int(rng.integers(2, 5))
            centers = np.sort(rng.uniform(0.05, 0.95, size=(m, 1)), axis=0)
            weights = rng.uniform(-0.4, 0.4, size=m)
            if t_kind == "identity":
                mean, transform = 0.0, transforms.Identity()
            elif t_kind == "square":
                mean, transform = 5.0, transforms.Square(alpha=2.0)
            else:
                mean, transform = 0.0, transforms.Exponential()
            integrand = SyntheticIntegrand(
                centers=centers, weights=weights, prior_mean=ConstantMean(mean),
                kernel=kernel, transform=transform,
            )
            problems.append((t_kind, engine.Problem(
                integrand=integrand, pi=UniformDensity(dom), domain=dom,
                transform=transform,
            )))
    return problems


def check_error_bound(budget=30):
    from .acquisition import AcquisitionSpec, ConstantRule

    rows = []
    ok = True
    for t_kind, problem in _bound_problems():
        spec = AcquisitionSpec(outer=Power(1.0), q=UniformDensity(problem.domain),
                               b=ConstantRule(1.0), gamma_tilde=1.0)
        selector = engine.SelectorConfig(candidate_count=512, seed=0)
        _, record = engine.run_abq(problem, spec, selector, budget,
                                   share_candidate_grid=True)
        report = analysis.error_bound_check(
            record, problem.integrand, problem.pi, spec.q
        )
        margins = [r["lhs"] / r["rhs"] for r in report.rows if r["rhs"] > 0]
        rows.append({"transform": t_kind, "iterations": record.n,
                     "violations": len(report.violations),
                     "max_lhs_over_rhs": max(margins) if margins else 0.0})
        ok = ok and report.ok
    return ok, {"runs": rows}


# ---------------------------------------------------------------------------
# rate forms


def _p_greedy_run(dom, kernel, budget, candidate_count=512):
    from .acquisition import AcquisitionSpec, ConstantRule

    integrand = SyntheticIntegrand(
        centers=np.zeros((0, dom.dim)), weights=np.zeros(0),
        prior_mean=ConstantMean(0.0), kernel=kernel,
        transform=transforms.Identity(),
    )
    problem = engine.Problem(integrand=integrand, pi=UniformDensity(dom),
                             domain=dom, transform=transforms.Identity())
    spec = AcquisitionSpec(outer=Power(1.0), q=UniformDensity(dom),
                           b=ConstantRule(1.0), gamma_tilde=1.0)
    selector = engine.SelectorConfig(candidate_count=candidate_count, seed=0)
    _, record = engine.run_abq(problem, spec, selector, budget,
                               share_candidate_grid=True)
    return record


def check_rate_infinite():
    rec1 = _p_greedy_run(Domain((0.0,), (1.0,)),
                         kernels.SquaredExponential(gamma=0.5), budget=60)
    fit1 = analysis.fit_rate(rec1.sup_qk, kernels.RatePrediction("exponential", 1.0),
                             n_min=5, floor=1e-7)
    rec2 = _p_greedy_run(Domain((0.0, 0.0), (1.0, 1.0)),
                         kernels.SquaredExponential(gamma=0.5), budget=60,
                         candidate_count=1024)
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
    rec = _p_greedy_run(Domain((0.0,), (1.0,)),
                        kernels.Matern(nu=1.5, ell=0.25), budget=100)
    fit = analysis.fit_rate(rec.sup_qk, kernels.RatePrediction("polynomial", -1.5),
                            n_min=8, floor=1e-12)
    ok = fit.slope <= -1.2
    return ok, {"slope": fit.slope, "r_squared": fit.r_squared,
                "required_slope": -1.2, "n_range": list(fit.n_range)}


# ---------------------------------------------------------------------------
# moment-estimator


def check_moment_estimator(seed=5, n_mc=1_000_000, n_query=20):
    rng = np.random.default_rng(seed)
    dom = Domain((0.0,), (1.0,))
    kernel = kernels.Matern(nu=2.5, ell=0.3)
    X = rng.uniform(0.1, 0.9, size=(6, 1))
    z = rng.normal(0.3, 0.5, size=6)
    state = gp.build_state(kernel, ConstantMean(0.2), X, z)
    queries = rng.uniform(0.0, 1.0, size=(n_query, 1))
    mean = gp.posterior_mean(state, queries)
    var = gp.posterior_var(state, queries)
    draws = rng.standard_normal(n_mc)

    worst_sigma = 0.0
    for t in (transforms.Square(alpha=1.0), transforms.Exponential()):
        for mu, v in zip(mean, var):
            samples = t.forward(mu + np.sqrt(v) * draws)
            mc = float(np.mean(samples))
            se = float(np.std(samples, ddof=1) / np.sqrt(n_mc))
            closed = float(t.posterior_expectation(mu, v))
            if se > 0:
                worst_sigma = max(worst_sigma, abs(closed - mc) / se)

    pi = UniformDensity(dom)
    ident = transforms.Identity()
    plug, expect = engine.estimates(state, ident, pi, dom)
    identity_gap = abs(plug - expect)
    ok = worst_sigma <= 3.0 and identity_gap <= 1e-12
    return ok, {"worst_sigma": worst_sigma, "identity_gap": identity_gap,
                "mc_samples": n_mc, "query_points": n_query}


# ---------------------------------------------------------------------------
# inconsistency-caveat


def _inconsistency_config(mean_value):
    raw = {
        "version": "1",
        "seed": 13,
        "domain": {"lower": [0.0], "upper": [1.0]},
        "kernel": {"family": "wendland", "smoothness_index": 1, "radius": 0.25},
        "mean": {"kind": "constant", "value": mean_value},
        "transform": {"kind": "square", "alpha": 0.5},
        "integrand": {"kind": "builtin", "name": "left-cluster"},
        "pi": {"kind": "uniform"},
        "acquisition": {
            "outer": {"kind": "power", "delta": 1.0},
            "q": {"kind": "uniform"},
            "b": {"kind": "wsabi_l"},
            "gamma_tilde": 1.0,
        },
        "budget": 30,
        "grids": {"shared_certificate": True},
        "selector": {"candidate_count": 512, "scheme": "uniform-grid"},
    }
    return raw


def check_inconsistency_caveat(stall_factor=5.0):
    """Zero-mean squared-mean weighting on an integrand whose latent part
    vanishes for x > 0.53: the lower envelope is absent and the error
    series stalls relative to the same run with a shifted mean."""
    series = {}
    clcu_zero = None
    for label, mean_value in (("zero_mean", 0.0), ("shifted_mean", 5.0)):
        problem, spec, selector = build_problem(_inconsistency_config(mean_value))
        if label == "zero_mean":
            clcu_zero = clcu_for(problem, spec)
        _, record = engine.run_abq(problem, spec, selector, 30,
                                   share_candidate_grid=True)
        series[label] = list(record.sup_qk)
    e_zero = series["zero_mean"][-1]
    e_shift = series["shifted_mean"][-1]
    stalled = e_zero > stall_factor * e_shift
    envelope_absent = clcu_zero is not None and not clcu_zero.present
    return envelope_absent and stalled, {
        "envelope_absent": envelope_absent,
        "envelope_reason": clcu_zero.reason if clcu_zero is not None else "",
        "final_error_zero_mean": e_zero,
        "final_error_shifted_mean": e_shift,
        "stall_factor_observed": e_zero / e_shift if e_shift > 0 else float("inf"),
        "series": series,
    }


# ---------------------------------------------------------------------------


def run_all(printer=print):
    runs = _run_matrix()
    results = [
        _timed("projection-identity", check_projection_identity),
        _timed("psi-inequality", check_psi_inequality),
        _timed("weak-greedy-certificate", check_certificates, runs),
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
