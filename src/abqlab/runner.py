"""Experiment execution and artifact emission (trace.csv, report.json)."""

from __future__ import annotations

import json
import os

import numpy as np

from . import analysis, engine, kernels
from .acquisition import theoretical_clcu, Vbmc
from .config import build_problem, expand_matrix
from .domain import reference_integral_refined, rkhs_norm
from .exceptions import DomainError

TRACE_SCHEMA = "abqlab-trace v1"
REPORT_SCHEMA = "abqlab-report v1"


def json_default(obj):
    """Serialize numpy scalars/arrays that leak into report payloads."""
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj).__name__}")


def run_experiment(raw, out_dir, seed=None, grid=None):
    """Run a (possibly matrix) config; one artifact directory per combo.

    Returns the list of directories written. Deterministic given the
    config and overrides.
    """
    if seed is not None:
        raw = {**raw, "seed": int(seed)}
    if grid is not None:
        raw = {**raw, "grids": {**raw.get("grids", {}), "certificate": int(grid)}}
    jobs = []
    for tag, flat in expand_matrix(raw):
        target = os.path.join(out_dir, tag) if tag else out_dir
        os.makedirs(target, exist_ok=True)
        jobs.append((flat, target))
    width = int(os.environ.get("ABQ_LAB_THREADS", "1"))
    if width > 1 and len(jobs) > 1:
        from concurrent.futures import ProcessPoolExecutor

        # each combo writes only to its own directory, so order is immaterial
        with ProcessPoolExecutor(max_workers=min(width, len(jobs))) as pool:
            list(pool.map(_run_single_job, jobs))
    else:
        for job in jobs:
            _run_single_job(job)
    return [target for _, target in jobs]


def _run_single_job(job):
    flat, target = job
    _run_single(flat, target)


def _run_single(raw, target):
    problem, spec, selector = build_problem(raw)
    dom = problem.domain
    grids = raw.get("grids", {})
    oracle_res = grids.get("oracle", 256 if dom.dim == 1 else 64)
    shared = grids.get("shared_certificate", False)
    budget = raw["budget"]

    reference, ref_err = reference_integral_refined(
        problem.integrand, problem.pi, dom, oracle_res
    )
    state, record = engine.run_abq(
        problem, spec, selector, budget,
        cert_grid_size=grids.get("certificate"),
        oracle_resolution=oracle_res,
        share_candidate_grid=shared,
    )
    fills = [
        analysis.fill_distance(record.design(i + 1), dom,
                               grid_resolution=256 if dom.dim == 1 else 64)
        for i in range(record.n)
    ]
    _write_trace(os.path.join(target, "trace.csv"), record, reference, fills)
    report = build_report(raw, problem, spec, record, reference, ref_err, oracle_res)
    with open(os.path.join(target, "report.json"), "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True, default=json_default)
        fh.write("\n")
    return record, report


def _write_trace(path, record, reference, fills):
    dim = record.domain.dim
    cols = (["n"] + [f"x{i}" for i in range(dim)]
            + ["sup_q_sqrt_k", "plugin_estimate", "expectation_estimate",
               "abs_error_plugin", "abs_error_expectation",
               "b_min", "b_max", "greedy_ratio", "fill_distance"])
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
            record.greedy_ratio[i],
            fills[i],
        )]
        lines.append(",".join(row))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def clcu_for(problem, spec):
    """Theoretical [C_L, C_U] for the problem's rule, from a probe grid."""
    integrand = problem.integrand
    dom = problem.domain
    probe = dom.uniform_grid(max(512 // dom.dim, 64))
    m_abs = np.abs(integrand.prior_mean(probe))
    gnorm = rkhs_norm(integrand)
    k_inf = integrand.kernel.sup_diag()
    kwargs = {}
    if isinstance(spec.b, Vbmc):
        dens = spec.b.densities[0]
        vals = dens(probe)
        kwargs = {"density_low": float(np.min(vals)),
                  "density_high": float(np.max(vals))}
    return theoretical_clcu(spec.b, float(np.min(m_abs)), float(np.max(m_abs)),
                            gnorm, k_inf, **kwargs)


def build_report(raw, problem, spec, record, reference, ref_err, oracle_res):
    dom = problem.domain
    kernel = problem.integrand.kernel
    findings = []

    clcu = clcu_for(problem, spec)
    clcu_json = {"present": clcu.present, "reason": clcu.reason}
    if clcu.present:
        clcu_json.update({"c_l": clcu.c_l, "c_u": clcu.c_u})
    else:
        findings.append(f"weak-adaptivity envelope absent: {clcu.reason}")

    weak = None
    if record.n and clcu.present:
        b_lo, b_hi = min(record.b_min), max(record.b_max)
        inside = bool(clcu.c_l <= b_lo and b_hi <= clcu.c_u)
        weak = {"b_min": b_lo, "b_max": b_hi, "within_envelope": inside}
        if not inside:
            findings.append(
                f"monitored b range [{b_lo:g}, {b_hi:g}] leaves the theoretical "
                f"envelope [{clcu.c_l:g}, {clcu.c_u:g}]"
            )

    cert_json = None
    if record.n >= 2:
        cert = analysis.greedy_certificate(record, kernel, spec.q, clcu=clcu)
        cert_json = {
            "gamma_hat": cert.gamma_hat,
            "gamma_theoretical": (None if np.isnan(cert.gamma_theoretical)
                                  else cert.gamma_theoretical),
            "min_ratio": float(np.min(cert.ratios)),
            "failures": cert.failures,
        }
        for failure in cert.failures:
            findings.append(
                f"weak-greedy certificate failed at iteration "
                f"{failure['iteration']}: ratio {failure['ratio']:g} < "
                f"gamma_hat {failure['gamma_hat']:g}"
            )

    bound_json = None
    if record.n:
        bound = analysis.error_bound_check(
            record, problem.integrand, problem.pi, spec.q,
            oracle_resolution=oracle_res,
        )
        margins = [row["lhs"] / row["rhs"] for row in bound.rows if row["rhs"] > 0]
        bound_json = {
            "ok": bound.ok,
            "max_lhs_over_rhs": max(margins) if margins else 0.0,
            "violations": bound.violations,
            "constants": {
                "transform": bound.constant_transform,
                "pi_over_q": bound.constant_pi_over_q,
                "gnorm": bound.gnorm,
            },
        }
        if not bound.ok:
            findings.append(
                f"quadrature error bound violated at {len(bound.violations)} step(s)"
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

    surrogate_ns = list(range(1, min(record.n, 30) + 1))
    surrogate = (analysis.nwidth_surrogate(kernel, spec.q, dom, len(surrogate_ns))
                 if record.n >= 1 else [])

    return {
        "schema": REPORT_SCHEMA,
        "config": {k: v for k, v in raw.items() if k != "output_dir"},
        "reference": reference,
        "reference_self_error": ref_err,
        "iterations": record.n,
        "converged_early": record.converged,
        "e0": record.e0,
        "e_series": list(record.sup_qk),
        "certificate": cert_json,
        "clcu": clcu_json,
        "weak_adaptivity": weak,
        "error_bound": bound_json,
        "rate_fits": fits,
        "nwidth_surrogate": {"n": surrogate_ns, "value": surrogate},
        "jitter_events": [[int(i), float(j)] for i, j in record.jitter_events],
        "clamp_events": record.clamp_events,
        "skipped_dependent": record.skipped_dependent,
        "findings": findings,
    }
