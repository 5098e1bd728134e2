"""Experiment execution and every file abqlab writes or reads back:
trace.csv (which `abqlab rates` reads), report.json and the --out summaries."""

from __future__ import annotations

import json
import math
import os
import pickle

import numpy as np

from . import analysis, engine, kernels
from .config import build_problem, expand_matrix, validate_config
from .exceptions import ConfigError, DomainError

TRACE_SCHEMA = "abqlab-trace v2"
# `abqlab rates` reads columns by name, so it reads every schema listed here
READABLE_TRACE_SCHEMAS = ("abqlab-trace v1", TRACE_SCHEMA)
REPORT_SCHEMA = "abqlab-report v1"


def _jsonable(obj):
    """obj with numpy scalars and arrays as Python values and every
    non-finite float as None, which JSON writes as null."""
    if isinstance(obj, dict):
        return {key: _jsonable(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple, np.ndarray)):
        return [_jsonable(value) for value in obj]
    obj = obj.item() if isinstance(obj, np.generic) else obj
    return None if isinstance(obj, float) and not math.isfinite(obj) else obj


def write_json(path, payload):
    """Write payload to path as strict, indented JSON with sorted keys and a
    trailing newline, making the parent directory first."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w") as fh:
        json.dump(_jsonable(payload), fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def run_experiment(raw, out_dir):
    """Run a (possibly matrix) config; one artifact directory per combo.

    Every combo is validated against the schema, and then built once by
    `prepare`, before any runs, and a combo's directory is made only once
    its report is built. Returns one (directory, number of findings) pair
    per combo, in matrix order. Deterministic given the config.
    """
    flats, targets = [], []
    for tag, flat in expand_matrix(raw):
        validate_config(flat)
        flats.append(flat)
        targets.append(os.path.join(out_dir, tag) if tag else out_dir)
    runs = [prepare(flat) for flat in flats]
    # each combo writes only to its own directory
    findings = pool_map(_run_single, list(zip(flats, runs, targets)))
    return list(zip(targets, findings))


def pool_width(tasks):
    """How many worker processes `pool_map` starts for `tasks` tasks:
    ABQ_LAB_THREADS, by default the CPUs this process may run on, at most
    `tasks`. A value that is not an integer of at least 1 is a config error."""
    value = os.environ.get("ABQ_LAB_THREADS")
    if value is None:
        width = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                 else os.cpu_count() or 1)
    else:
        try:
            width = int(value)
        except ValueError:
            width = 0
        if width < 1:
            raise ConfigError(f"ABQ_LAB_THREADS must be an integer of at least 1, "
                              f"not {value!r}")
    return max(1, min(width, tasks))


def pool_map(fn, tasks):
    """[fn(*task) for task in tasks], on `pool_width(len(tasks))` worker
    processes forked once, or in this process at width 1 or where `os.fork`
    does not exist. A worker inherits the imported modules, fn and tasks,
    so neither fn nor a task is pickled: a worker is sent task indices, the
    next one going to the first worker that returns a result, and it sends
    back the result, or the exception the task raised, pickled. Results
    come back in task order. The pool forks from one thread (BLAS is pinned
    to one, see `abqlab`). The first failing task, in order, stops dispatch:
    the running tasks end, every worker is reaped, and then its error is
    raised here; a worker that exits without a result fails its task with
    a RuntimeError naming the task and the exit status."""
    width = pool_width(len(tasks))
    if width == 1 or not hasattr(os, "fork"):
        return [fn(*task) for task in tasks]
    import select  # here: a single run, which never starts a pool, skips it

    outcomes = {}  # task index -> (True, result) or (False, exception)
    workers = {}  # result pipe -> [pid, task pipe, running task index]
    pending = iter(range(len(tasks)))
    try:
        for _ in range(width):
            (task_r, task_w), (result_r, result_w) = os.pipe(), os.pipe()
            pid = os.fork()
            if pid == 0:
                _serve(fn, tasks, task_r, result_w, (task_w, result_r))
            os.close(task_r)
            os.close(result_w)
            workers[result_r] = [pid, task_w, next(pending)]
            os.write(task_w, workers[result_r][2].to_bytes(4, "little"))
        while busy := [fd for fd, worker in workers.items() if worker[2] is not None]:
            for fd in select.select(busy, [], [])[0]:
                worker = workers[fd]
                header = _read(fd, 8)
                size = int.from_bytes(header, "little")
                payload = _read(fd, size)
                if len(header) == 8 and len(payload) == size:
                    outcomes[worker[2]] = pickle.loads(payload)
                else:
                    status = os.waitstatus_to_exitcode(os.waitpid(worker[0], 0)[1])
                    worker[0] = None
                    outcomes[worker[2]] = (False, RuntimeError(
                        f"the worker running task {worker[2]} exited with status "
                        f"{status} before returning its result"))
                # a dead worker's task failed, so it is sent no other
                worker[2] = (next(pending, None)
                             if all(ok for ok, _ in outcomes.values()) else None)
                if worker[2] is not None:
                    os.write(worker[1], worker[2].to_bytes(4, "little"))
    finally:
        # closed pipes end every worker: an idle one reads end of file, a
        # busy one fails to write its result. A worker holds copies of the
        # parent's ends of the pipes of those forked before it until it
        # exits, so they end last to first
        for fd, (_, task_w, _) in workers.items():
            os.close(fd)
            os.close(task_w)
        for pid, _, _ in workers.values():
            if pid is not None:
                os.waitpid(pid, 0)
    for index in sorted(outcomes):
        ok, value = outcomes[index]
        if not ok:
            raise value
    return [outcomes[index][1] for index in range(len(tasks))]


def _serve(fn, tasks, task_r, result_w, parent_ends):
    """A forked worker of `pool_map`: close its copies of the parent's ends
    of its pipes, so that the parent's closing them ends the worker, then
    run the task of each index read from task_r and write its
    length-prefixed, pickled outcome to result_w, until task_r reads end of
    file. It leaves through `os._exit`, so it never flushes the parent's
    stdio buffers nor runs its atexit handlers."""
    status = 1
    try:
        for fd in parent_ends:
            os.close(fd)
        while index := os.read(task_r, 4):
            try:
                outcome = (True, fn(*tasks[int.from_bytes(index, "little")]))
            except Exception as exc:
                outcome = (False, exc)
            payload = pickle.dumps(outcome, pickle.HIGHEST_PROTOCOL)
            message = memoryview(len(payload).to_bytes(8, "little") + payload)
            while message:
                message = message[os.write(result_w, message):]
        status = 0
    finally:
        os._exit(status)


def _read(fd, size):
    """size bytes from the pipe fd, fewer if its writer closes it first."""
    data = bytearray()
    while len(data) < size and (chunk := os.read(fd, size - len(data))):
        data += chunk
    return data


def prepare(raw):
    """Build one validated flat (matrix-expanded) config, the only reader of
    its `budget` and `grids`: the arguments of its `engine.run_abq`, a tuple
    that a worker process of `pool_map` inherits and runs as built."""
    problem, spec = build_problem(raw)
    # the schema's integers take whole-number floats such as 3.0
    grids = {name: int(value) for name, value in raw.get("grids", {}).items()}
    return (problem, spec, int(raw["budget"]), grids.get("certificate"),
            grids.get("oracle"))


def execute(raw):
    """The RunRecord of one flat config, validated, prepared and run."""
    validate_config(raw)
    return engine.run_abq(*prepare(raw))[1]


def _run_single(raw, run, target):
    """Run one prepared config into target; returns its findings count."""
    record = engine.run_abq(*run)[1]
    report = build_report(raw, record)
    fills = (analysis.fill_distance(record.state.X, record.problem.domain)
             if record.n else [])
    os.makedirs(target, exist_ok=True)
    _write_trace(os.path.join(target, "trace.csv"), record, report["reference"], fills)
    write_json(os.path.join(target, "report.json"), report)
    return len(report["findings"])


def _write_trace(path, record, reference, fills):
    dim = record.problem.domain.dim
    cols = (["n"] + [f"x{i}" for i in range(dim)]
            + ["sup_q_sqrt_k", "plugin_estimate", "expectation_estimate",
               "abs_error_plugin", "abs_error_expectation",
               "b_min", "b_max", "fill_distance"])
    lines = [f"# {TRACE_SCHEMA}", ",".join(cols)]
    for i, x in enumerate(record.state.X):
        plugin, expectation = record.est_plugin[i], record.est_expectation[i]
        row = [*x, record.sup_qk[i], plugin, expectation, abs(reference - plugin),
               abs(reference - expectation), record.b_min[i], record.b_max[i], fills[i]]
        lines.append(",".join([str(i + 1)] + [repr(float(v)) for v in row]))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _read_trace(path):
    """A trace's n and sup_q_sqrt_k columns and its dimension. A trace that
    is not UTF-8 text, lacks one of the columns n, x0 and sup_q_sqrt_k, or
    has a row that is not one finite number per column, raises ConfigError
    naming the file or the line."""
    try:
        with open(path, encoding="utf-8") as fh:
            first = fh.readline().strip()
            if first.removeprefix("# ") not in READABLE_TRACE_SCHEMAS:
                raise ConfigError(f"{path}:1: unrecognized trace schema line {first!r}")
            header = fh.readline().strip().split(",")
            if not {"n", "x0", "sup_q_sqrt_k"} <= set(header):
                raise ConfigError(f"{path}:2: a trace needs columns n, x0 and "
                                  "sup_q_sqrt_k")
            body = [(k, line) for k, line in enumerate(fh, start=3) if line.strip()]
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc.reason})") from exc
    rows = []
    for lineno, line in body:
        try:
            row = [float(cell) for cell in line.split(",")]
        except ValueError:
            row = []
        if len(row) != len(header) or not np.all(np.isfinite(row)):
            raise ConfigError(f"{path}:{lineno}: not {len(header)} finite numbers")
        rows.append(row)
    cols = dict(zip(header, np.array(rows).reshape(-1, len(header)).T))
    return cols["n"], cols["sup_q_sqrt_k"], sum(name.startswith("x") for name in header)


def trace_rate_fits(path):
    """The `abqlab rates` record of one trace: its dimension and the
    exponential and polynomial fits of its sup_q_sqrt_k column. A fit the
    series is too short for is recorded as skipped, with the reason."""
    ns, e, dim = _read_trace(path)
    fits = {}
    for model in (kernels.RatePrediction("exponential", 1.0 / dim),
                  kernels.RatePrediction("polynomial", 0.0)):
        try:
            fits[model.model] = _fit_json(
                analysis.fit_rate(e, model, n_values=ns, floor=1e-12))
        except DomainError as exc:
            fits[model.model] = {"skipped": str(exc)}
    return {"trace": path, "dim": dim, "fits": fits}


def _fit_json(fit):
    return {"slope": fit.slope, "intercept": fit.intercept,
            "r_squared": fit.r_squared, "n_range": list(fit.n_range)}


def build_report(raw, record):
    """The report.json payload of one run, from the run alone: raw is the
    flat config it ran, only echoed in the report. The numbers come from
    one `analysis.Certificates`; the findings are worded here."""
    dom = record.problem.domain
    kernel = record.problem.integrand.kernel
    certs = analysis.Certificates(record)
    findings = []
    if record.converged:
        findings.append(f"run stopped after {record.n} of {record.budget} steps: "
                        f"{record.stop_cause}")

    clcu = certs.clcu
    clcu_json = {"present": clcu.present, "reason": clcu.reason}
    if clcu.present:
        clcu_json.update({"c_l": clcu.c_l, "c_u": clcu.c_u})
    else:
        findings.append(f"weak-adaptivity envelope absent: {clcu.reason}")

    weak = None
    if certs.inside is not None:
        b_lo, b_hi = certs.b_range
        weak = {"b_min": b_lo, "b_max": b_hi, "within_envelope": certs.inside}
        if not certs.inside:
            findings.append(
                f"monitored b range [{b_lo:g}, {b_hi:g}] leaves the theoretical "
                f"envelope [{clcu.c_l:g}, {clcu.c_u:g}]"
            )

    cert = certs.greedy
    cert_json = None
    if cert is not None:
        cert_json = {
            "gamma_hat": cert.gamma_hat,
            "gamma_theoretical": certs.gamma_theoretical,
            "min_ratio": float(np.min(cert.ratios)),
            "failures": cert.failures,
        }
        if cert.vacuous:
            findings.append(
                f"weak-greedy certificate vacuous: b_min = {certs.b_range[0]:g} "
                f"gives gamma_hat = 0"
            )
        for failure in cert.failures:
            findings.append(
                f"weak-greedy certificate failed at iteration "
                f"{failure['iteration']}: ratio {failure['ratio']:g} < "
                f"gamma_hat {failure['gamma_hat']:g}"
            )

    bound = certs.bound
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
                "rounding": bound.rounding,
                "cap": bound.cap,
            },
        }
        if not bound.ok:
            findings.append(
                f"quadrature error bound violated at {len(bound.violations)} step(s)"
            )
        if bound.vacuous:
            findings.append("error bound vacuous: \u222b\u03c0/q is not finite on the "
                            "oracle rule")
        if bound.unresolved:
            findings.append(
                f"oracle self-error {bound.reference_self_error:g} exceeds "
                f"{analysis.ORACLE_TOL:g} of the smallest bound {bound.min_rhs:g}: "
                f"the reference is too coarse to check it (raise grids.oracle)"
            )

    fits = {}
    try:
        pred = kernels.predicted_rate(kernel, dom.dim)
        fits[pred.model] = _fit_json(analysis.fit_rate(record.sup_qk, pred, floor=1e-7))
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
        "jitter_events": [[0, float(record.state.jitter_used)]] if record.n else [],
        "clamp_events": record.clamp_events,
        "findings": findings,
    }
