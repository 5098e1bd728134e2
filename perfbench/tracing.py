"""Span tracing for the benchmark's traced run.

`install` wraps the public functions of every abqlab layer from outside
the package: each module-level function a layer defines, `pairwise` on
every kernel class, `posterior_expectation` on every transform class, and
a few named methods. Every module binding that refers to a wrapped
function is replaced, so names imported into other modules
(`from .domain import quadrature_nodes`) are traced as well.

A span is (name, start, end, parent, run id, attrs); spans stay in memory
until `Tracer.write` dumps them once the command has finished.
`layer_metrics` turns a span list into the per-layer counts and times.
This module imports nothing from abqlab at import time, so the benchmark
driver can load it to read a span file.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import sys
import time
from collections import defaultdict

LAYERS = ("kernels", "gp", "acquisition", "engine", "analysis", "domain",
          "transforms", "runner", "config", "verify", "cli")

# methods traced in addition to module-level functions: (module, class, method)
METHODS = (
    ("acquisition", "AcquisitionSpec", "evaluate"),
    ("acquisition", "AcquisitionSpec", "eval_b"),
    ("domain", "Domain", "uniform_grid"),
)

# span names that differ from "<layer>.<function>"
RENAMES = {"kernels.chol_with_jitter": "kernels.chol"}

# the nine checks of `abqlab verify`, in suite order
VERIFY_TAGS = ("projection-identity", "psi-inequality", "weak-greedy-certificate",
               "adaptivity-envelope", "error-bound", "rate-form-infinite",
               "rate-form-finite", "moment-estimator", "inconsistency-caveat")


def _rows(args, kwargs, result):
    return {"points": len(result)}


def _var_attrs(args, kwargs, result):
    return {"points": len(result), "n": args[0].n}


def _evaluate_attrs(args, kwargs, result):
    return {"points": len(result[0]), "clamped": int(result[1])}


def _pairwise_attrs(args, kwargs, result):
    return {"entries": int(result.size)}


def _chol_attrs(args, kwargs, result):
    # chol_with_jitter documents its policy: jitter starts at
    # 1e-12 * max diagonal (1e-12 if that is not positive) and doubles
    K = args[0] if args else kwargs["K"]
    _, jitter = result
    if K.shape[0] == 0:
        return {"doublings": 0}
    start = 1e-12 * max(float(K.diagonal().max()), 0.0) or 1e-12
    return {"doublings": int(round(math.log2(jitter / start)))}


def _run_abq_attrs(args, kwargs, result):
    return {"steps": result[1].n}


def _certificate_attrs(args, kwargs, result):
    return {"failures": len(result.failures)}


MEASURES = {
    "gp.posterior_var": _var_attrs,
    "gp.posterior_mean": _rows,
    "acquisition.evaluate": _evaluate_attrs,
    "kernels.pairwise": _pairwise_attrs,
    "kernels.chol": _chol_attrs,
    "domain.uniform_grid": _rows,
    "engine.run_abq": _run_abq_attrs,
    "analysis.greedy_certificate": _certificate_attrs,
}


class Tracer:
    """Records nested spans of one benchmarked command in memory."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []  # [name, start, end, parent index or -1, run id, attrs]
        self._open = []

    def wrap(self, name, fn):
        measure = MEASURES.get(name)
        spans = self.spans
        open_spans = self._open
        run_id = self.run_id
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, open_spans[-1] if open_spans else -1,
                    run_id, None]
            open_spans.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[2] = clock()
                span[5] = {"error": type(exc).__name__}
                raise
            finally:
                open_spans.pop()
            span[2] = clock()
            if measure is not None:
                span[5] = measure(args, kwargs, result)
            return result

        return functools.update_wrapper(traced, fn)

    def write(self, path):
        with open(path, "w") as fh:
            json.dump(self.spans, fh, separators=(",", ":"))


def _subclasses(cls):
    out = []
    for sub in cls.__subclasses__():
        out.append(sub)
        out.extend(_subclasses(sub))
    return out


def install(run_id):
    """Wrap every layer of the imported abqlab package; return the tracer
    and the sorted list of "module.name" bindings that were replaced."""
    mods = {name: importlib.import_module(f"abqlab.{name}") for name in LAYERS}
    tracer = Tracer(run_id)
    wrapped = {}  # id(original) -> wrapper; each wrapper keeps its original alive
    for layer, mod in mods.items():
        for attr, val in list(vars(mod).items()):
            if (callable(val) and not isinstance(val, type)
                    and not attr.startswith("_")
                    and getattr(val, "__module__", None) == mod.__name__):
                name = f"{layer}.{attr}"
                wrapped[id(val)] = tracer.wrap(RENAMES.get(name, name), val)
    bindings = []
    package_mods = [m for key, m in sys.modules.items()
                    if m is not None and (key == "abqlab" or key.startswith("abqlab."))]
    for mod in package_mods:
        for attr, val in list(vars(mod).items()):
            if id(val) in wrapped:
                setattr(mod, attr, wrapped[id(val)])
                bindings.append(f"{mod.__name__.removeprefix('abqlab.')}.{attr}")

    classes = [(cls, "pairwise", "kernels.pairwise")
               for cls in _subclasses(mods["kernels"].Kernel)]
    classes += [(cls, "posterior_expectation", "transforms.posterior_expectation")
                for cls in _subclasses(mods["transforms"].Transform)]
    classes += [(getattr(mods[layer], cls), meth, f"{layer}.{meth}")
                for layer, cls, meth in METHODS]
    for cls, meth, name in classes:
        if meth in vars(cls):
            setattr(cls, meth, tracer.wrap(name, vars(cls)[meth]))
            bindings.append(f"{cls.__module__.removeprefix('abqlab.')}."
                            f"{cls.__name__}.{meth}")
    return tracer, sorted(bindings)


# ---------------------------------------------------------------------------
# per-layer metrics


def _index(spans):
    """Per-span duration, self time and ancestor names."""
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child[s[3]] += dur[i]
    ancestors = []
    for s in spans:
        names = frozenset()
        if s[3] >= 0:
            names = ancestors[s[3]] | {spans[s[3]][0]}
        ancestors.append(names)
    return dur, [d - c for d, c in zip(dur, child)], ancestors


def per_layer_names():
    """Every per-layer metric `layer_metrics` reports, in report order."""
    return list(layer_metrics([], {}, 1.0, 1.0))


def layer_metrics(spans, verify_seconds, traced_wall, untraced_wall):
    """Per-layer counts and times from one traced command.

    verify_seconds maps check tags to CheckResult.seconds (empty for
    `abqlab run`); the two walls give the tracing overhead.
    """
    dur, self_t, ancestors = _index(spans)
    by_name = defaultdict(list)
    for i, s in enumerate(spans):
        by_name[s[0]].append(i)

    def calls(name):
        return len(by_name[name])

    def attr(name, key, under=None):
        return sum((spans[i][5] or {}).get(key, 0) for i in by_name[name]
                   if under is None or under in ancestors[i])

    def incl(name):
        # outermost spans only, so recursion is not counted twice
        return sum(dur[i] for i in by_name[name] if name not in ancestors[i])

    def self_s(name):
        return sum(self_t[i] for i in by_name[name])

    def errors(name, kind):
        return sum(1 for i in by_name[name] if (spans[i][5] or {}).get("error") == kind)

    steps = attr("engine.run_abq", "steps")
    selects = calls("engine.select_next")
    m = {}
    for name in ("gp.posterior_var", "gp.posterior_mean"):
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.points"] = attr(name, "points")
        m[f"{name}.self_s"] = self_s(name)
    m["gp.solve_flops"] = sum((spans[i][5] or {}).get("n", 0) ** 2
                              * (spans[i][5] or {}).get("points", 0)
                              for i in by_name["gp.posterior_var"])
    m["gp.extend.calls"] = calls("gp.extend")
    m["gp.extend.self_s"] = self_s("gp.extend")
    m["gp.extend.dependent"] = errors("gp.extend", "LinearDependenceError")

    m["engine.run_abq.s"] = incl("engine.run_abq")
    m["engine.steps"] = steps
    m["engine.s_per_step"] = m["engine.run_abq.s"] / steps if steps else 0.0
    m["engine.select_next.calls"] = selects
    m["engine.select_next.self_s"] = self_s("engine.select_next")
    m["engine.select.useful_ratio"] = steps / selects if selects else 0.0
    for name in ("engine.estimate_plugin", "engine.estimate_expectation"):
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.self_s"] = self_s(name)

    m["acquisition.evaluate.calls"] = calls("acquisition.evaluate")
    m["acquisition.evaluate.points"] = attr("acquisition.evaluate", "points")
    m["acquisition.evaluate.self_s"] = self_s("acquisition.evaluate")
    m["acquisition.eval_b.calls"] = calls("acquisition.eval_b")
    m["acquisition.eval_b.self_s"] = self_s("acquisition.eval_b")
    m["acquisition.b_clamped"] = attr("acquisition.evaluate", "clamped")

    m["kernels.pairwise.calls"] = calls("kernels.pairwise")
    m["kernels.pairwise.entries"] = attr("kernels.pairwise", "entries")
    m["kernels.pairwise.self_s"] = self_s("kernels.pairwise")
    m["kernels.chol.calls"] = calls("kernels.chol")
    m["kernels.chol.self_s"] = self_s("kernels.chol")
    m["kernels.chol.jitter_doublings"] = attr("kernels.chol", "doublings")

    m["analysis.nwidth_surrogate.s"] = incl("analysis.nwidth_surrogate")
    m["analysis.nwidth.design_solves"] = sum(
        1 for i in by_name["kernels.chol"]
        if "analysis.nwidth_surrogate" in ancestors[i])
    m["analysis.error_bound_check.s"] = incl("analysis.error_bound_check")
    m["analysis.sup_qk_fine.points"] = attr("gp.posterior_var", "points",
                                            under="analysis.sup_qk_fine")
    m["analysis.greedy_certificate.s"] = incl("analysis.greedy_certificate")
    m["analysis.greedy_certificate.failures"] = attr("analysis.greedy_certificate",
                                                     "failures")
    m["analysis.projection_distance_sq.calls"] = calls("analysis.projection_distance_sq")
    m["analysis.projection_distance_sq.s"] = incl("analysis.projection_distance_sq")
    m["analysis.fill_distance.s"] = incl("analysis.fill_distance")

    m["domain.uniform_grid.calls"] = calls("domain.uniform_grid")
    m["domain.uniform_grid.points"] = attr("domain.uniform_grid", "points")
    m["domain.uniform_grid.max_points"] = max(
        [(spans[i][5] or {}).get("points", 0) for i in by_name["domain.uniform_grid"]],
        default=0)
    m["domain.quadrature_nodes.calls"] = calls("domain.quadrature_nodes")
    m["domain.reference_integral.s"] = incl("domain.reference_integral")

    m["transforms.posterior_expectation.calls"] = calls("transforms.posterior_expectation")
    m["transforms.posterior_expectation.s"] = incl("transforms.posterior_expectation")

    m["runner.run_experiment.s"] = incl("runner.run_experiment")
    m["runner.build_report.s"] = incl("runner.build_report")
    m["runner.self_s"] = sum(self_t[i] for i, s in enumerate(spans)
                             if s[0].startswith("runner."))
    m["config.load_config.s"] = incl("config.load_config")
    m["config.build_problem.s"] = incl("config.build_problem")
    m["cli.main.s"] = incl("cli.main")
    for tag in VERIFY_TAGS:
        m[f"verify.{tag}.s"] = float(verify_seconds.get(tag, 0.0))
    m["trace.overhead_frac"] = traced_wall / untraced_wall - 1.0
    return m


def unit_of(name):
    if name.endswith(("_s", ".s", "s_per_step")):
        return "s"
    if name.endswith(("_ratio", "_frac")):
        return "ratio"
    if name == "gp.solve_flops":
        return "flop"
    return "count"
