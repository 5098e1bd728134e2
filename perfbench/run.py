"""Benchmark of `abqlab run` and `abqlab verify`, as users run them.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout: the program is imported from
./src, and all scratch output goes to ./.perfbench_out. Every command is
a fresh child interpreter (`child.py`) calling the CLI entry point, one at
a time (a closed loop with one client), in the caller's environment with
ABQ_LAB_THREADS removed, so runs use their default single-process path.

Workloads:
  verify   `abqlab verify`, the nine-check suite; its inputs are fixed
           inside abqlab.verify, so the seed is recorded but unused.
  run-d2   `abqlab run` on a d=2 config: Matern nu=2.5 ell=0.3, constant
           mean 5, square warp alpha=2, WSABI-M with Power(1), uniform pi
           and q, gamma~=1, default selector and grids, budget 60.
  run-d3   the same config in d=3 with budget 4.
The run-* integrand (2-4 kernel bumps, centres in [0.05, 0.95]^d, weights
in [-0.4, 0.4]) is drawn from the seed and written to a config file that
the program reads.

--trace 0 runs a set-up-only child, then repeats the command until
--seconds of commands have run (at least once), and reports end-to-end
metrics, each the median over the run:
  setup_s      interpreter start plus `import abqlab.cli`, up to the first
               call into the CLI (the set-up-only child and every command)
  wall_s       wall time of the CLI call
  cpu_s        user+sys time of the child process
  peak_rss_mb  maximum resident set size of the child process
  ops          operations attempted per command: 9 checks for verify, one
               experiment for run-*
The count of failed operations is printed as ops_failed and returned as
`failed`; it is not an end-to-end metric because it is 0 on a correct run.
--trace 1 runs the command once untraced and once with every layer wrapped
(tracing.py) and reports the per-layer metrics, including the tracing
overhead as the traced wall time over the untraced one, minus 1.

Outputs are checked for every command: a verify check fails when its
`ok` is false; a run fails on a non-zero exit code, a failed error-bound
check, a certificate whose failure list contradicts its own ratios, or a
trace.csv/report.json that differs byte for byte from the first run of
the same seed and source in this checkout. The report's findings (such
as weak-greedy certificate failures) are printed and kept with the result. The last line of stdout is the JSON result; the exit code
is 0 only when every output was correct, and 2 when ./src holds no
abqlab package.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
CHILD = HERE / "child.py"

sys.path.insert(0, str(HERE))
import tracing  # noqa: E402

WORKLOADS = {"verify": None, "run-d2": (2, 60), "run-d3": (3, 4)}
RUN_LIMIT_S = 150.0  # a run ends within this, killing a command that would overrun
CERT_TOL = 1e-9  # analysis.greedy_certificate's default tolerance
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "ABQ_LAB_THREADS")


def run_config(dim, budget, seed):
    """The run-* experiment config, with an integrand drawn from `seed`."""
    rng = random.Random(seed)
    bumps = 2 + int(rng.random() * 3)
    centers = [[round(0.05 + 0.9 * rng.random(), 6) for _ in range(dim)]
               for _ in range(bumps)]
    weights = [round(0.8 * rng.random() - 0.4, 6) for _ in range(bumps)]
    return {
        "version": "1",
        "seed": seed % 2 ** 31,
        "domain": {"lower": [0.0] * dim, "upper": [1.0] * dim},
        "kernel": {"family": "matern", "nu": 2.5, "ell": 0.3},
        "mean": {"kind": "constant", "value": 5.0},
        "transform": {"kind": "square", "alpha": 2.0},
        "integrand": {"kind": "synthetic", "centers": centers, "weights": weights},
        "pi": {"kind": "uniform"},
        "acquisition": {
            "outer": {"kind": "power", "delta": 1.0},
            "q": {"kind": "uniform"},
            "b": {"kind": "wsabi_m"},
            "gamma_tilde": 1.0,
        },
        "budget": budget,
    }


def source_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "abqlab").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def child_env():
    env = {k: v for k, v in os.environ.items() if k != "ABQ_LAB_THREADS"}
    env["PYTHONPATH"] = str(SRC)
    env["PERFBENCH_SRC"] = str(SRC)
    return env


def run_child(work, tag, trace, args, deadline):
    """Run child.py once, killing it at the monotonic time `deadline`;
    return its times, exit code and resource use."""
    result = work / f"{tag}.json"
    with open(work / f"{tag}.log", "w") as log:
        start = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(CHILD), str(result), "1" if trace else "0", tag,
             *args],
            cwd=work, stdout=log, stderr=subprocess.STDOUT, env=child_env(),
        )
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                proc.kill()
                _, status, usage = os.wait4(proc.pid, 0)
                break
            time.sleep(0.02)
    proc.returncode = os.waitstatus_to_exitcode(status)
    rec = {"tag": tag, "child_exit": proc.returncode,
           "cpu_s": usage.ru_utime + usage.ru_stime,
           "peak_rss_mb": usage.ru_maxrss / 1024.0, "rc": None}
    if proc.returncode == 0 and result.is_file():
        res = json.loads(result.read_text())
        rec.update(setup_s=res["ready"] - start, wall_s=res["done"] - res["ready"],
                   rc=res["rc"], bindings=res["bindings"])
    return rec


class Checker:
    """Counts attempted and failed operations over a run's commands."""

    def __init__(self, workload, seed, config_bytes):
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.findings = []
        key = hashlib.sha256(source_digest().encode() + config_bytes).hexdigest()
        self.ref = OUT / "ref" / f"{workload}-seed{seed}-{key[:16]}"

    def fail(self, tag, why, count=1):
        self.failed += count
        self.problems.append(f"{tag}: {why}")

    def verify(self, rec, summary_path):
        tags = tracing.VERIFY_TAGS
        self.attempted += len(tags)
        if rec["rc"] != 0 or not summary_path.is_file():
            self.fail(rec["tag"], f"no summary (exit {rec['rc']})", len(tags))
            return {}
        checks = {c["tag"]: c for c in json.loads(summary_path.read_text())["checks"]}
        for tag in tags:
            if not checks.get(tag, {}).get("ok", False):
                self.fail(rec["tag"], f"check {tag} not ok")
        return {tag: c["seconds"] for tag, c in checks.items()}

    def run(self, rec, out_dir):
        self.attempted += 1
        tag = rec["tag"]
        report_path = out_dir / "report.json"
        if rec["rc"] != 0 or not report_path.is_file():
            return self.fail(tag, f"exit code {rec['rc']}")
        report = json.loads(report_path.read_text())
        if not (report.get("error_bound") or {}).get("ok", False):
            return self.fail(tag, "error bound check not ok")
        # A weak-greedy certificate failure is a finding the program reports by
        # design (the default selector maximizes over a coarser candidate grid
        # than the certificate grid), so it is recorded, not counted as failed;
        # a certificate whose failure list contradicts its own ratios is.
        certificate = report.get("certificate")
        if certificate is None:
            return self.fail(tag, "report has no certificate")
        below = certificate["min_ratio"] < certificate["gamma_hat"] - CERT_TOL
        if below != bool(certificate["failures"]):
            return self.fail(tag, "certificate failures contradict its min_ratio")
        self.findings += [f"{tag}: {finding}" for finding in report["findings"]]
        names = ("trace.csv", "report.json")
        if not self.ref.is_dir():
            staging = self.ref.with_name(self.ref.name + f".tmp{os.getpid()}")
            staging.mkdir(parents=True, exist_ok=True)
            for name in names:
                shutil.copyfile(out_dir / name, staging / name)
            staging.rename(self.ref)
            return None
        for name in names:
            if (out_dir / name).read_bytes() != (self.ref / name).read_bytes():
                return self.fail(tag, f"{name} differs from the first run of this seed")
        return None


def command_for(workload, work, config_path, tag):
    out = work / tag
    if workload == "verify":
        return ["verify", "--out", str(out / "summary.json")], out
    return ["run", str(config_path), "--out", str(out)], out


def run_command(workload, work, config_path, checker, tag, trace, deadline):
    args, out = command_for(workload, work, config_path, tag)
    rec = run_child(work, tag, trace, args, deadline)
    if workload == "verify":
        rec["verify_seconds"] = checker.verify(rec, out / "summary.json")
    else:
        checker.run(rec, out)
    return rec


def environment():
    probe = subprocess.run(
        [sys.executable, "-c",
         "import json, numpy, scipy\n"
         "cfg = numpy.show_config(mode='dicts')\n"
         "blas = cfg.get('Build Dependencies', {}).get('blas', {})\n"
         "print(json.dumps({'numpy': numpy.__version__, 'scipy': scipy.__version__,"
         " 'blas': '%s %s' % (blas.get('name'), blas.get('version'))}))"],
        capture_output=True, text=True, env=child_env(), timeout=60,
    )
    info = json.loads(probe.stdout) if probe.returncode == 0 else {}
    sha = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        sha = git.stdout.strip() or None
    info.update(
        nproc=os.cpu_count(), usable_cpus=len(os.sched_getaffinity(0)),
        python=platform.python_version(), git_sha=sha,
        src_sha256=source_digest(),
        thread_env={k: os.environ.get(k) for k in THREAD_VARS},
    )
    return info


def end_to_end(workload, work, config_path, checker, seconds, deadline):
    setup = run_child(work, "setup", False, [], deadline)
    if setup["rc"] != 0:
        checker.problems.append("setup: set-up-only child failed")
    commands = []
    begin = time.monotonic()
    while True:
        rec = run_command(workload, work, config_path, checker,
                          f"cmd{len(commands)}", False, deadline)
        commands.append(rec)
        now = time.monotonic()
        if (rec["rc"] is None or now - begin >= seconds
                or now + (now - begin) / len(commands) > deadline):
            break
    timed = [r for r in commands if r["rc"] is not None]
    detail = {"setup": setup, "commands": commands}
    if not timed:
        return {}, detail
    setup_values = [r["setup_s"] for r in [setup] + timed if "setup_s" in r]

    def med(key):
        return statistics.median(r[key] for r in timed)

    metrics = {
        "setup_s": (statistics.median(setup_values), "s"),
        "wall_s": (med("wall_s"), "s"),
        "cpu_s": (med("cpu_s"), "s"),
        "peak_rss_mb": (med("peak_rss_mb"), "MB"),
        "ops": (checker.attempted / len(commands), "count"),
    }
    detail["setup_samples"] = len(setup_values)
    return metrics, detail


def per_layer(workload, work, config_path, checker, deadline):
    plain = run_command(workload, work, config_path, checker, "plain", False, deadline)
    traced = run_command(workload, work, config_path, checker, "traced", True,
                         deadline)
    if plain["rc"] is None or traced["rc"] is None:
        return {}, {"commands": [plain, traced]}
    spans = json.loads((work / "traced.json.spans").read_text())
    values = tracing.layer_metrics(spans, traced.get("verify_seconds", {}),
                                   traced["wall_s"], plain["wall_s"])
    metrics = {name: (value, tracing.unit_of(name)) for name, value in values.items()}
    return metrics, {"commands": [plain, traced], "spans": len(spans)}


def new_work_dir(workload, seed):
    work = OUT / "work" / f"{workload}-{seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    return work


def prepare(workload, seed, work):
    """Write the workload's inputs into `work`; return (config path, checker)."""
    config_path = None
    config_bytes = b""
    if WORKLOADS[workload] is not None:
        dim, budget = WORKLOADS[workload]
        config_bytes = json.dumps(run_config(dim, budget, seed),
                                  indent=2, sort_keys=True).encode() + b"\n"
        config_path = work / "config.json"
        config_path.write_bytes(config_bytes)
    return config_path, Checker(workload, seed, config_bytes)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args(argv)

    if not (SRC / "abqlab" / "cli.py").is_file():
        print(f"no abqlab package under {SRC}: run from a source checkout",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_LIMIT_S
    work = new_work_dir(opts.workload, opts.seed)
    try:
        config_path, checker = prepare(opts.workload, opts.seed, work)
        env = environment()
        if opts.trace:
            metrics, detail = per_layer(opts.workload, work, config_path, checker,
                                        deadline)
        else:
            metrics, detail = end_to_end(opts.workload, work, config_path, checker,
                                         opts.seconds, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    correct = not checker.problems and checker.attempted > 0 and bool(metrics)
    record = {
        "workload": opts.workload, "seed": opts.seed, "seconds": opts.seconds,
        "trace": opts.trace, "environment": env, "correct": correct,
        "attempted": checker.attempted, "failed": checker.failed,
        "problems": checker.problems, "findings": checker.findings,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "detail": detail,
    }
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    (results / f"{opts.workload}-seed{opts.seed}-trace{opts.trace}-{stamp}-"
               f"{os.getpid()}.json").write_text(json.dumps(record, indent=2) + "\n")

    print(f"environment: {json.dumps(env, sort_keys=True)}")
    print(f"workload {opts.workload}, seed {opts.seed}, trace {opts.trace}: "
          f"{len(detail.get('commands', []))} command(s)")
    for problem in checker.problems:
        print(f"  FAILED {problem}")
    for finding in checker.findings:
        print(f"  finding {finding}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:44s} {value:14.6g} {unit}")
    print(f"  {'ops_failed':44s} {checker.failed:14d} count")
    print(json.dumps({
        "correct": correct, "attempted": checker.attempted, "failed": checker.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
