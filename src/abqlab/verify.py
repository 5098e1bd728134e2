"""Built-in verification suite.

Each check empirically confirms one guarantee of the method on desk-scale
problems and returns a CheckResult; `run_all` runs them as eight
independent tasks on the worker processes `runner.pool_map` forks, which
inherit the tasks and are sent only their indices, and returns one
result per tag in suite order, each with its pass/fail `line()`. The
checks are:

- projection-identity: the scaled posterior variance equals the squared
  RKHS distance to the span of the scaled design functions, confirmed
  against an independent dense-solve oracle over randomized configs.
- psi-inequality: the concavity constant of each outer function satisfies
  F^-1(c z) >= psi(c) F^-1(z) over random (c, z).
- weak-greedy-certificate: every run of the builtin acquisition matrix
  achieves per-iteration ratios above the certified lower bound computed
  from the monitored b range. The matrix is four runs, one per published
  rule, each certified at two values of gamma_tilde: the engine's exact
  argmax never reads gamma_tilde, so one run serves both.
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

Four checks (projection-identity, psi-inequality, error-bound and
moment-estimator) draw their inputs from a seeded stdlib `random.Random`,
so no process of the suite imports numpy.random.
"""

from __future__ import annotations

import dataclasses
import random
import time
from dataclasses import dataclass, field

import numpy as np

from . import analysis, engine, gp, kernels, runner, transforms
from .acquisition import Expm1, Power
from .domain import (
    BLOCK_POINTS,
    ConstantMean,
    Domain,
    TruncatedGaussianDensity,
    UniformDensity,
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


def _uniform(rng, low, high, size):
    """`size` floats uniform on [low, high), 53 bits each from one
    `rng.randbytes` call read little-endian, so reruns match on any platform."""
    bits = np.frombuffer(rng.randbytes(8 * int(np.prod(size))), "<u8") >> 11
    return low + (high - low) * (bits * 2.0 ** -53).reshape(size)


def _normal(rng, n):
    """n standard normals, Box-Muller on consecutive pairs of uniforms with
    the pair's two outputs interleaved, so even-sized blocks replay one call."""
    u = _uniform(rng, 0.0, 1.0, (n + 1) // 2 * 2).reshape(-1, 2)
    radius, angle = np.sqrt(-2.0 * np.log1p(-u[:, 0])), 2.0 * np.pi * u[:, 1]
    return np.stack((radius * np.cos(angle), radius * np.sin(angle)), axis=1).ravel()[:n]


def _timed(tag, fn, *args, **kwargs):
    start = time.perf_counter()
    ok, detail = fn(*args, **kwargs)
    return CheckResult(tag=tag, ok=ok, detail=detail,
                       seconds=time.perf_counter() - start)


# ---------------------------------------------------------------------------
# projection-identity


def _random_config(rng):
    d = rng.randrange(1, 3)
    dom = Domain((0.0,) * d, (1.0,) * d)
    kernel = rng.choice([
        kernels.SquaredExponential(gamma=rng.uniform(0.3, 1.5)),
        kernels.Matern(nu=rng.choice([0.5, 1.5, 2.5]),
                       ell=rng.uniform(0.2, 1.0)),
        kernels.InverseMultiquadric(beta=rng.uniform(0.3, 1.5),
                                    c=rng.uniform(0.5, 2.0)),
    ])
    if rng.random() < 0.5:
        q = UniformDensity(dom)
    else:
        q = TruncatedGaussianDensity(
            dom, center=_uniform(rng, 0.2, 0.8, d),
            scale=_uniform(rng, 0.3, 1.0, d),
        )
    n = rng.randrange(1, 11)
    # one jittered point per grid cell: random designs whose separation keeps
    # the Gram factorization well within the oracle-agreement tolerance
    per = int(np.ceil(n ** (1.0 / d)))
    cells = rng.sample(range(per ** d), n)
    idx = np.stack(np.unravel_index(cells, (per,) * d), axis=1)
    X = (idx + 0.25 + 0.5 * _uniform(rng, 0.0, 1.0, (n, d))) / per
    x_query = _uniform(rng, 0.0, 1.0, (8, d))
    return dom, kernel, q, X, x_query


def check_projection_identity():
    rng = random.Random(20260824)
    worst = 0.0
    for _ in range(200):
        dom, kernel, q, X, x_query = _random_config(rng)
        state = gp.build_state(kernel, lambda P: np.zeros(len(P)),
                               X, np.zeros(X.shape[0]))
        lhs = np.asarray(q(x_query)) ** 2 * gp.GridPosterior(state, x_query).var
        rhs = analysis.Projector(kernel, q, X)(x_query)[-1]
        scale = np.maximum(np.asarray(q(x_query)) ** 2 * kernel.sup_diag(), 1e-30)
        worst = max(worst, float(np.max(np.abs(lhs - rhs) / scale)))
    return worst <= PROJECTION_RTOL, {
        "configs": 200, "max_relative_error": worst,
        "tolerance": PROJECTION_RTOL,
    }


# ---------------------------------------------------------------------------
# psi-inequality


def check_psi_inequality(samples=10_000):
    rng = random.Random(3)
    outers = [Power(1.0), Power(2.0), Power(0.5), Expm1()]
    worst = 0.0
    for outer in outers:
        c = _uniform(rng, 1e-3, 1.0, samples)
        z = _uniform(rng, 0.0, 10.0, samples)
        lhs = outer.inverse(c * z)
        rhs = outer.psi(c) * outer.inverse(z)
        worst = max(worst, float(np.max(rhs - lhs)))
    exact = (abs(Power(2.0).psi(0.25) - 0.5) < 1e-15
             and abs(Expm1().psi(0.3) - 0.3) < 1e-15)
    return worst <= PSI_TOL and exact, {
        "max_violation": worst, "exact_values_ok": exact, "samples": samples,
    }


# ---------------------------------------------------------------------------
# builtin acquisition matrix


def _config(kernel, integrand, mean=0.0, transform=None, b=None, seed=0, budget=30,
            dim=1, grid_points=512):
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
            "gamma_tilde": 1.0,
        },
        "budget": budget,
        "grids": {"certificate": grid_points},
    }


GAMMA_TILDES = (1.0, 0.5)


def _rules():
    """(name, config) of the builtin matrix's four published rules, each at
    gamma_tilde = 1."""
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
    return [(name, _config(kernel, integrand, mean=mean, transform=transform, b=b,
                           seed=7))
            for name, (mean, transform, integrand, b) in cases.items()]


def matrix_runs():
    """(name, `analysis.Certificates`) for each of the builtin matrix's eight
    configs, four published rules at two certificate slacknesses each, one
    object per config, shared by the certificate and envelope checks.
    The engine's exact grid argmax never reads gamma_tilde, whose one
    reader is `analysis.weak_greedy_gamma`, so each rule runs once and its
    record is certified at each gamma_tilde through a copy with that value
    in its spec."""
    runs = []
    for name, raw in _rules():
        record = runner.execute(raw)
        for gt in GAMMA_TILDES:
            spec = dataclasses.replace(record.spec, gamma_tilde=gt)
            runs.append((f"{name}__gamma_tilde={gt}",
                         analysis.Certificates(dataclasses.replace(record, spec=spec))))
    return runs


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


def _bound_configs():
    """Five random synthetic integrands under each of the three warps."""
    rng = random.Random(11)
    kernel = {"family": "matern", "nu": 2.5, "ell": 0.3}
    warps = {"identity": (0.0, {"kind": "identity"}),
             "square": (5.0, {"kind": "square", "alpha": 2.0}),
             "exponential": (0.0, {"kind": "exponential"})}
    configs = []
    for t_kind, (mean, transform) in warps.items():
        for _ in range(5):
            m = rng.randrange(2, 5)
            centers = np.sort(_uniform(rng, 0.05, 0.95, (m, 1)), axis=0)
            weights = _uniform(rng, -0.4, 0.4, m)
            integrand = {"kind": "synthetic", "centers": centers.tolist(),
                         "weights": weights.tolist()}
            configs.append((t_kind, _config(kernel, integrand, mean=mean,
                                            transform=transform)))
    return configs


def check_error_bound():
    runs = [(t_kind, analysis.Certificates(runner.execute(raw)))
            for t_kind, raw in _bound_configs()]
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


def check_moment_estimator(n_mc=1_000_000, n_query=20):
    rng = random.Random(5)
    dom = Domain((0.0,), (1.0,))
    kernel = kernels.Matern(nu=2.5, ell=0.3)
    X = _uniform(rng, 0.1, 0.9, (6, 1))
    z = 0.3 + 0.5 * _normal(rng, 6)
    state = gp.build_state(kernel, ConstantMean(0.2), X, z)
    queries = _uniform(rng, 0.0, 1.0, (n_query, 1))
    post = gp.GridPosterior(state, queries)
    mean, var = post.mean, post.var
    sd = np.sqrt(var)

    # The draws are streamed in blocks of BLOCK_POINTS latent values, so the
    # memory does not grow with n_mc; blocks of even size replay one _normal
    # call's stream. Per query, the sums of dev = T(mean + sd e) - T(mean) and
    # of dev^2 give the mean and a one-pass variance free of cancellation.
    # Every query shares the draws e. The square warp's dev is
    # mean sd e + (sd e)^2 / 2, so its sums follow from the power sums of e;
    # the exponential warp's is e^mean (e^(sd e) - 1), one array per block
    # (sd <= 1, so e^(sd e) cannot overflow).
    square, exponential = transforms.Square(alpha=1.0), transforms.Exponential()
    powers = np.zeros(4)  # the sums of e^k, k = 1..4
    exp_s1 = np.zeros(n_query)
    exp_s2 = np.zeros(n_query)
    block = BLOCK_POINTS // n_query
    for start in range(0, n_mc, block):
        e = _normal(rng, min(block, n_mc - start))
        e2 = e * e
        powers += (e.sum(), e2.sum(), e2 @ e, e2 @ e2)
        dev = np.multiply.outer(sd, e)
        np.exp(dev, out=dev)
        dev -= 1.0
        exp_s1 += dev.sum(axis=1)
        exp_s2 += np.einsum("ij,ij->i", dev, dev)
    p1, p2, p3, p4 = powers
    slope, curve = mean * sd, var / 2.0
    scale = exponential.forward(mean)
    sums = ((square, slope * p1 + curve * p2,
             slope * slope * p2 + 2.0 * slope * curve * p3 + curve * curve * p4),
            (exponential, scale * exp_s1, scale * scale * exp_s2))

    worst_sigma = 0.0
    for t, a, b in sums:
        mc = t.forward(mean) + a / n_mc
        se = np.sqrt((b - a * a / n_mc) / (n_mc - 1) / n_mc)
        gap = np.abs(t.posterior_expectation(mean, var) - mc)
        spread = se > 0
        if np.any(spread):
            worst_sigma = max(worst_sigma, float(np.max(gap[spread] / se[spread])))

    plug, expect = engine.estimate_series(state, transforms.Identity(),
                                          UniformDensity(dom), dom, 256)
    identity_gap = max(abs(p - e) for p, e in zip(plug, expect))
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


def check_inconsistency_caveat():
    """Zero-mean squared-mean weighting on an integrand whose latent part
    vanishes for x > 0.53: the lower envelope is absent and the error
    series stalls relative to the same run with a shifted mean."""
    records = {label: runner.execute(_inconsistency_config(mean_value))
               for label, mean_value in (("zero_mean", 0.0), ("shifted_mean", 5.0))}
    series = {label: list(record.sup_qk) for label, record in records.items()}
    clcu_zero = analysis.Certificates(records["zero_mean"]).clcu
    e_zero = series["zero_mean"][-1]
    e_shift = series["shifted_mean"][-1]
    stalled = e_zero > 5.0 * e_shift
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


# the nine checks in suite order
TAGS = ("projection-identity", "psi-inequality", "weak-greedy-certificate",
        "adaptivity-envelope", "error-bound", "rate-form-infinite",
        "rate-form-finite", "moment-estimator", "inconsistency-caveat")

# run_all's eight tasks, longest first by the seconds each takes as the
# first task of a fresh process on a 2-vCPU host (moment-estimator 0.16 s,
# error-bound 0.145, projection-identity 0.13, the matrix 0.03,
# rate-form-infinite 0.03, each other check at most 0.015, psi-inequality
# 0.004), so no long task starts last. Each is a check's tag and the name
# of its function; no tag is the builtin matrix runs and their two checks.
# A worker inherits TASKS and is never sent a task pickled; it looks the
# name up in the module when the task runs, so a function replaced after
# import (a test's monkeypatch, the benchmark's tracing wrapper) is the
# one that runs.
TASKS = (
    ("moment-estimator", "check_moment_estimator"),
    ("error-bound", "check_error_bound"),
    ("projection-identity", "check_projection_identity"),
    (None, "matrix_runs"),
    ("rate-form-infinite", "check_rate_infinite"),
    ("rate-form-finite", "check_rate_finite"),
    ("inconsistency-caveat", "check_inconsistency_caveat"),
    ("psi-inequality", "check_psi_inequality"),
)


def _run_task(tag, name):
    """The results of one task of `run_all`, each timed in this process.
    The matrix runs, shared by the certificate and envelope checks, are
    computed once and timed into weak-greedy-certificate's seconds, their
    first consumer."""
    fn = globals()[name]
    if tag is not None:
        return [_timed(tag, fn)]
    start = time.perf_counter()
    runs = fn()
    matrix_seconds = time.perf_counter() - start
    certificates = _timed("weak-greedy-certificate", check_certificates, runs)
    certificates.seconds += matrix_seconds
    return [certificates, _timed("adaptivity-envelope", check_adaptivity_envelopes, runs)]


def run_all():
    """Run the nine checks, as eight independent tasks on `runner.pool_map`,
    and return their results in suite order. Each check seeds its own
    generator, so the results but their seconds are the same at any
    ABQ_LAB_THREADS."""
    done = {res.tag: res for results in runner.pool_map(_run_task, TASKS)
            for res in results}
    return [done[tag] for tag in TAGS]
