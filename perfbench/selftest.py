"""The benchmark's own test.

    python3 perfbench/selftest.py [--workload NAME ...] [--seed N]

Run from the root of a source checkout. It checks that
  - span bookkeeping gives the expected self and inclusive times on a
    hand-made span list;
  - BENCHMARK.json lists exactly the metrics the benchmark reports, with
    the same units, and every per-layer metric it was specified to report;
  - the traced run wraps the bindings that other modules import
    (engine.quadrature_nodes, runner.build_problem, ...), `pairwise` on
    every kernel class and AcquisitionSpec.evaluate/eval_b;
  - two traced runs of each workload give identical counts (`*.calls`,
    `*.points`, `*.entries`, gp.solve_flops, analysis.nwidth.design_solves)
    and correct outputs.
Exits 0 when every check passes. All three workloads take a few minutes.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import time

import run
import tracing

END_TO_END = ("setup_s", "wall_s", "cpu_s", "peak_rss_mb", "ops")

REQUIRED_BINDINGS = (
    "engine.quadrature_nodes",
    "analysis.reference_integral", "analysis.reference_integral_refined",
    "analysis.rkhs_norm",
    "runner.reference_integral_refined", "runner.rkhs_norm",
    "runner.build_problem", "runner.theoretical_clcu",
    "verify.build_problem",
    "kernels.SquaredExponential.pairwise", "kernels.Matern.pairwise",
    "kernels.Multiquadric.pairwise", "kernels.InverseMultiquadric.pairwise",
    "kernels.Wendland.pairwise",
    "acquisition.AcquisitionSpec.evaluate", "acquisition.AcquisitionSpec.eval_b",
)


# the per-layer metrics the benchmark was specified to report
NAMED_METRICS = (
    [f"gp.posterior_{k}.{m}" for k in ("var", "mean") for m in ("calls", "points", "self_s")]
    + ["gp.solve_flops", "gp.extend.calls", "gp.extend.self_s", "gp.extend.dependent",
       "engine.run_abq.s", "engine.steps", "engine.s_per_step",
       "engine.select_next.calls", "engine.select_next.self_s",
       "engine.select.useful_ratio"]
    + [f"engine.estimate_{k}.{m}" for k in ("plugin", "expectation")
       for m in ("calls", "self_s")]
    + ["acquisition.evaluate.calls", "acquisition.evaluate.points",
       "acquisition.evaluate.self_s", "acquisition.eval_b.calls",
       "acquisition.eval_b.self_s", "acquisition.b_clamped",
       "kernels.pairwise.calls", "kernels.pairwise.entries", "kernels.pairwise.self_s",
       "kernels.chol.calls", "kernels.chol.self_s", "kernels.chol.jitter_doublings",
       "analysis.nwidth_surrogate.s", "analysis.nwidth.design_solves",
       "analysis.error_bound_check.s", "analysis.sup_qk_fine.points",
       "analysis.greedy_certificate.s", "analysis.projection_distance_sq.calls",
       "analysis.projection_distance_sq.s", "analysis.fill_distance.s",
       "domain.uniform_grid.calls", "domain.uniform_grid.points",
       "domain.uniform_grid.max_points", "domain.quadrature_nodes.calls",
       "domain.reference_integral.s", "transforms.posterior_expectation.calls",
       "transforms.posterior_expectation.s", "runner.run_experiment.s",
       "runner.build_report.s", "runner.self_s", "config.load_config.s",
       "config.build_problem.s", "cli.main.s", "trace.overhead_frac"]
    + [f"verify.{tag}.s" for tag in tracing.VERIFY_TAGS]
)


def is_count(name):
    """Counts that must repeat exactly between two traced runs of one input."""
    return (name.endswith((".calls", ".points", ".entries"))
            or name in ("gp.solve_flops", "analysis.nwidth.design_solves"))


def check_span_arithmetic():
    # root [0, 10] with children [1, 4] and [5, 6]; the first child has a
    # grandchild [2, 3] of the same name as the root
    spans = [
        ["cli.main", 0.0, 10.0, -1, "r", None],
        ["kernels.pairwise", 1.0, 4.0, 0, "r", {"entries": 6}],
        ["cli.main", 2.0, 3.0, 1, "r", None],
        ["kernels.pairwise", 5.0, 6.0, 0, "r", {"entries": 4}],
    ]
    m = tracing.layer_metrics(spans, {"error-bound": 2.5}, 3.0, 2.0)
    expected = {
        "cli.main.s": 10.0,  # the nested span is not counted twice
        "kernels.pairwise.calls": 2,
        "kernels.pairwise.entries": 10,
        "kernels.pairwise.self_s": 3.0,  # (3 - 1) + 1
        "verify.error-bound.s": 2.5,
        "trace.overhead_frac": 0.5,
    }
    return [f"span arithmetic: {k} = {m[k]}, expected {v}"
            for k, v in expected.items() if abs(m[k] - v) > 1e-12]


def check_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems = []
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    layer = {m["name"]: m for m in spec["per_layer"]}
    missing = sorted(set(NAMED_METRICS) - set(layer))
    if missing:
        problems.append(f"per_layer lacks specified metrics {missing}")
    if set(e2e) != set(END_TO_END):
        problems.append(f"end_to_end names {sorted(e2e)} != {sorted(END_TO_END)}")
    reported = tracing.per_layer_names()
    if sorted(layer) != sorted(reported):
        problems.append(f"per_layer missing {sorted(set(reported) - set(layer))}, "
                        f"extra {sorted(set(layer) - set(reported))}")
    for name in set(layer) & set(reported):
        if layer[name]["unit"] != tracing.unit_of(name):
            problems.append(f"{name}: unit {layer[name]['unit']} in BENCHMARK.json, "
                            f"{tracing.unit_of(name)} reported")
    if sorted(w["name"] for w in spec["workloads"]) != sorted(run.WORKLOADS):
        problems.append("workloads in BENCHMARK.json differ from run.WORKLOADS")
    return problems


def traced_counts(workload, seed, label):
    work = run.new_work_dir(workload, f"{seed}-selftest-{label}")
    try:
        config_path, checker = run.prepare(workload, seed, work)
        rec = run.run_command(workload, work, config_path, checker, "traced", True,
                              time.monotonic() + run.RUN_LIMIT_S)
        if rec["rc"] is None:
            return None, rec, [f"{workload}: traced command did not finish"]
        spans = json.loads((work / "traced.json.spans").read_text())
    finally:
        shutil.rmtree(work, ignore_errors=True)
    metrics = tracing.layer_metrics(spans, rec.get("verify_seconds", {}), 1.0, 1.0)
    counts = {k: v for k, v in metrics.items() if is_count(k)}
    problems = [f"{workload}: {p}" for p in checker.problems]
    bad = [i for i, s in enumerate(spans)
           if s[2] < s[1] or (s[3] >= 0 and not spans[s[3]][1] <= s[1] <= s[2]
                              <= spans[s[3]][2])]
    if bad:
        problems.append(f"{workload}: {len(bad)} spans not nested in their parent")
    return counts, rec, problems


def check_workload(workload, seed):
    first, rec, problems = traced_counts(workload, seed, "a")
    if first is None:
        return problems
    missing = sorted(set(REQUIRED_BINDINGS) - set(rec["bindings"]))
    if missing:
        problems.append(f"{workload}: bindings not wrapped: {missing}")
    second, _, more = traced_counts(workload, seed, "b")
    problems += more
    if second is not None:
        problems += [f"{workload}: {k} = {first[k]} then {second[k]}"
                     for k in first if first[k] != second[k]]
    print(f"{workload}: {len(first)} counts compared, "
          f"{sum(1 for v in first.values() if v)} nonzero")
    return problems


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=sorted(run.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    opts = parser.parse_args(argv)
    if not (run.SRC / "abqlab" / "cli.py").is_file():
        print(f"no abqlab package under {run.SRC}", file=sys.stderr)
        return 2
    problems = check_span_arithmetic() + check_benchmark_json()
    for workload in opts.workload or sorted(run.WORKLOADS):
        problems += check_workload(workload, opts.seed)
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
