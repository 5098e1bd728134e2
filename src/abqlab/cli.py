"""Command-line harness.

Subcommands:
  run <config.json>   execute one experiment (or a matrix) and write artifacts
  verify              run the built-in verification suite
  rates <trace.csv..> re-fit decay rates from existing trace files

Exit codes: 0 success (including theory-violation findings recorded in
report.json), 2 configuration error, 3 any other abqlab error (a numerical
abort, a non-finite integrand value, a value outside the transform's range).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import analysis, kernels, runner
from .config import load_config
from .exceptions import AbqError, ConfigError, DomainError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="abqlab",
        description="Adaptive Bayesian quadrature experiment harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a config (or config matrix)")
    p_run.add_argument("config", help="path to a JSON experiment config")
    p_run.add_argument("--out", help="output directory (overrides config)")

    p_verify = sub.add_parser("verify", help="run the built-in verification suite")
    p_verify.add_argument("--out", help="write the summary JSON here too")

    p_rates = sub.add_parser("rates", help="re-fit decay rates from trace files")
    p_rates.add_argument("traces", nargs="+", help="trace.csv files")
    p_rates.add_argument("--out", help="write the fit summary JSON here too")
    return parser


def _cmd_run(args):
    raw = load_config(args.config)
    out_dir = args.out or raw.get("output_dir")
    if not out_dir:
        raise ConfigError("no output directory: set output_dir or pass --out")
    written = runner.run_experiment(raw, out_dir)
    findings = 0
    for target in written:
        with open(os.path.join(target, "report.json")) as fh:
            findings += len(json.load(fh)["findings"])
        print(f"wrote {target}")
    print(f"{len(written)} experiment(s), {findings} finding(s)")
    return EXIT_OK


def _cmd_verify(args):
    # imported here: the suite's numpy.random is for `verify` alone
    from . import verify

    results = verify.run_all(printer=print)
    summary = {
        "checks": [
            {"tag": r.tag, "ok": r.ok, "seconds": r.seconds, "detail": r.detail}
            for r in results
        ],
        "all_ok": all(r.ok for r in results),
    }
    if args.out:
        os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
        with open(args.out, "w") as fh:
            json.dump(summary, fh, indent=2, sort_keys=True,
                      default=runner.json_default)
            fh.write("\n")
    # empirical check failures are findings, not process errors
    return EXIT_OK


def _read_trace(path):
    """A trace's n and sup_q_sqrt_k columns and its dimension. A trace that
    lacks one of the columns n, x0 and sup_q_sqrt_k, or has a row that is
    not one finite number per column, raises ConfigError naming the line."""
    with open(path) as fh:
        first = fh.readline().strip()
        if first.removeprefix("# ") not in runner.READABLE_TRACE_SCHEMAS:
            raise ConfigError(f"{path}:1: unrecognized trace schema line {first!r}")
        header = fh.readline().strip().split(",")
        if not {"n", "x0", "sup_q_sqrt_k"} <= set(header):
            raise ConfigError(f"{path}:2: a trace needs columns n, x0 and sup_q_sqrt_k")
        body = [(k, line) for k, line in enumerate(fh, start=3) if line.strip()]
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


def _cmd_rates(args):
    out = []
    for path in args.traces:
        ns, e, dim = _read_trace(path)
        fits = {}
        for model in (kernels.RatePrediction("exponential", 1.0 / dim),
                      kernels.RatePrediction("polynomial", 0.0)):
            try:
                fit = analysis.fit_rate(e, model, n_values=ns, floor=1e-12)
            except DomainError as exc:  # short series: report, keep going
                fits[model.model] = {"skipped": str(exc)}
                print(f"{path} [{model.model}] skipped: {exc}")
                continue
            fits[model.model] = {"slope": fit.slope, "intercept": fit.intercept,
                                 "r_squared": fit.r_squared,
                                 "n_range": list(fit.n_range)}
            print(f"{path} [{model.model}] slope={fit.slope:.4g} "
                  f"R^2={fit.r_squared:.4f}")
        out.append({"trace": path, "dim": dim, "fits": fits})
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(out, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return EXIT_OK


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "verify":
            return _cmd_verify(args)
        return _cmd_rates(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except AbqError as exc:
        print(f"abort ({type(exc).__name__}): {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
