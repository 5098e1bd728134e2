"""Experiment execution and artifact emission (trace.csv, report.json)."""

from __future__ import annotations

import json
import os

import numpy as np

from . import analysis, engine, kernels
from .acquisition import theoretical_clcu
from .config import build_problem, expand_matrix, validate_config
from .domain import rkhs_norm
from .exceptions import ConfigError, DomainError

TRACE_SCHEMA = "abqlab-trace v2"
# `abqlab rates` reads columns by name, so it reads every schema listed here
READABLE_TRACE_SCHEMAS = ("abqlab-trace v1", TRACE_SCHEMA)
REPORT_SCHEMA = "abqlab-report v1"


def json_default(obj):
    """Serialize numpy scalars/arrays that leak into report payloads."""
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj).__name__}")


def run_experiment(raw, out_dir):
    """Run a (possibly matrix) config; one artifact directory per combo.

    Every combo is validated before any runs, and a combo's directory is
    made only once its report is built. Returns the list of directories
    written. Deterministic given the config.
    """
    flats, targets = [], []
    for tag, flat in expand_matrix(raw):
        validate_config(flat)
        flats.append(flat)
        targets.append(os.path.join(out_dir, tag) if tag else out_dir)
    try:
        width = int(os.environ.get("ABQ_LAB_THREADS", "1"))
    except ValueError:
        raise ConfigError(f"ABQ_LAB_THREADS must be an integer, not "
                          f"{os.environ['ABQ_LAB_THREADS']!r}") from None
    if width > 1 and len(flats) > 1:
        from concurrent.futures import ProcessPoolExecutor

        # each combo writes only to its own directory, so order is immaterial
        with ProcessPoolExecutor(max_workers=min(width, len(flats))) as pool:
            list(pool.map(_run_single, flats, targets))
    else:
        for flat, target in zip(flats, targets):
            _run_single(flat, target)
    return targets


def execute(raw):
    """Validate, build and run one flat (matrix-expanded) config; returns
    (state, record)."""
    validate_config(raw)
    return _execute_valid(raw)


def _execute_valid(raw):
    """Build and run one validated flat config, the only reader of its
    `budget` and `grids`; returns (state, record)."""
    problem, spec = build_problem(raw)
    grids = raw.get("grids", {})
    return engine.run_abq(problem, spec, raw["budget"],
                          cert_points=grids.get("certificate"),
                          oracle_resolution=grids.get("oracle"))


def _run_single(raw, target):
    # run_experiment validated every combo before the first run
    state, record = _execute_valid(raw)
    report = build_report(raw, state, record)
    fills = (analysis.fill_distance(record.design(), record.problem.domain)
             if record.n else [])
    os.makedirs(target, exist_ok=True)
    _write_trace(os.path.join(target, "trace.csv"), record, report["reference"], fills)
    with open(os.path.join(target, "report.json"), "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True, default=json_default)
        fh.write("\n")


def _write_trace(path, record, reference, fills):
    dim = record.problem.domain.dim
    cols = (["n"] + [f"x{i}" for i in range(dim)]
            + ["sup_q_sqrt_k", "plugin_estimate", "expectation_estimate",
               "abs_error_plugin", "abs_error_expectation",
               "b_min", "b_max", "fill_distance"])
    lines = [f"# {TRACE_SCHEMA}", ",".join(cols)]
    for i in range(record.n):
        row = [str(i + 1)]
        row += [repr(float(v)) for v in np.atleast_1d(record.points[i])]
        row += [repr(float(v)) for v in (
            record.sup_qk[i],
            record.est_plugin[i],
            record.est_expectation[i],
            abs(reference - record.est_plugin[i]),
            abs(reference - record.est_expectation[i]),
            record.b_min[i],
            record.b_max[i],
            fills[i],
        )]
        lines.append(",".join(row))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def clcu_for(record):
    """Theoretical [C_L, C_U] for the run's rule, from a probe grid."""
    integrand = record.problem.integrand
    probe = record.problem.domain.probe_grid()
    m_abs = np.abs(integrand.prior_mean(probe))
    return theoretical_clcu(record.spec.b, float(np.min(m_abs)), float(np.max(m_abs)),
                            rkhs_norm(integrand), integrand.kernel.sup_diag(), probe)


def envelope_verdict(record, clcu):
    """(b_min, b_max, inside): the run's b range and whether [C_L, C_U] holds it."""
    b_lo, b_hi = min(record.b_min), max(record.b_max)
    return b_lo, b_hi, bool(clcu.c_l <= b_lo and b_hi <= clcu.c_u)


def build_report(raw, state, record):
    """The report.json payload of one run, from the run alone: raw is the
    flat config it ran, echoed in the report."""
    dom = record.problem.domain
    kernel = record.problem.integrand.kernel
    findings = []
    if record.converged:
        findings.append(f"run stopped after {record.n} of {raw['budget']} steps: "
                        f"{record.stop_cause}")

    clcu = clcu_for(record)
    clcu_json = {"present": clcu.present, "reason": clcu.reason}
    if clcu.present:
        clcu_json.update({"c_l": clcu.c_l, "c_u": clcu.c_u})
    else:
        findings.append(f"weak-adaptivity envelope absent: {clcu.reason}")

    weak = None
    if record.n and clcu.present:
        b_lo, b_hi, inside = envelope_verdict(record, clcu)
        weak = {"b_min": b_lo, "b_max": b_hi, "within_envelope": inside}
        if not inside:
            findings.append(
                f"monitored b range [{b_lo:g}, {b_hi:g}] leaves the theoretical "
                f"envelope [{clcu.c_l:g}, {clcu.c_u:g}]"
            )

    cert_json = None
    if record.n >= 2:
        cert = analysis.greedy_certificate(record, clcu=clcu)
        cert_json = {
            "gamma_hat": cert.gamma_hat,
            "gamma_theoretical": (None if np.isnan(cert.gamma_theoretical)
                                  else cert.gamma_theoretical),
            "min_ratio": float(np.min(cert.ratios)),
            "failures": cert.failures,
        }
        if cert.gamma_hat == 0.0:
            findings.append(
                f"weak-greedy certificate vacuous: b_min = {min(record.b_min):g} "
                f"gives gamma_hat = 0"
            )
        for failure in cert.failures:
            findings.append(
                f"weak-greedy certificate failed at iteration "
                f"{failure['iteration']}: ratio {failure['ratio']:g} < "
                f"gamma_hat {failure['gamma_hat']:g}"
            )

    bound = analysis.error_bound_check(record, state)
    bound_json = None
    if record.n:
        bound_json = {
            "ok": bound.ok,
            "max_lhs_over_rhs": bound.max_lhs_over_rhs,
            "violations": bound.violations,
            "constants": {
                "transform": bound.constant_transform,
                "pi_over_q": bound.constant_pi_over_q,
                "gnorm": bound.gnorm,
                "covering_radius": record.cert_radius,
                "grid_slack": bound.grid_slack,
                "cap": bound.cap,
            },
        }
        if not bound.ok:
            findings.append(
                f"quadrature error bound violated at {len(bound.violations)} step(s)"
            )
        min_rhs = min(row["rhs"] for row in bound.rows)
        if bound.reference_self_error > analysis.ORACLE_TOL * min_rhs:
            findings.append(
                f"oracle self-error {bound.reference_self_error:g} exceeds "
                f"{analysis.ORACLE_TOL:g} of the smallest bound {min_rhs:g}: "
                f"the reference is too coarse to check it (raise grids.oracle)"
            )

    fits = {}
    try:
        pred = kernels.predicted_rate(kernel, dom.dim)
        fit = analysis.fit_rate(record.sup_qk, pred, floor=1e-7)
        fits[pred.model] = {
            "slope": fit.slope, "intercept": fit.intercept,
            "r_squared": fit.r_squared, "n_range": list(fit.n_range),
        }
    except DomainError as exc:
        fits["skipped"] = str(exc)

    surrogate = (analysis.nwidth_surrogate(kernel, record.spec.q, record.cert_grid,
                                           record.n)
                 if record.n else [])

    return {
        "schema": REPORT_SCHEMA,
        "config": {k: v for k, v in raw.items() if k != "output_dir"},
        "reference": bound.reference,
        "reference_self_error": bound.reference_self_error,
        "iterations": record.n,
        "converged_early": record.converged,
        "e0": record.e0,
        "e_series": list(record.sup_qk),
        "certificate": cert_json,
        "clcu": clcu_json,
        "weak_adaptivity": weak,
        "error_bound": bound_json,
        "rate_fits": fits,
        "nwidth_surrogate": {"n": list(range(1, record.n + 1)), "value": surrogate},
        # the first point fixes the jitter for the rest of the run
        "jitter_events": [[0, float(state.jitter_used)]] if record.n else [],
        "clamp_events": record.clamp_events,
        "findings": findings,
    }
