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
from .exceptions import AbqError, ConfigError

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
    with open(path) as fh:
        first = fh.readline().strip()
        if first.removeprefix("# ") not in runner.READABLE_TRACE_SCHEMAS:
            raise ConfigError(f"{path}:1: unrecognized trace schema line {first!r}")
        header = fh.readline().strip().split(",")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    cols = {name: np.array([float(r[i]) for r in rows])
            for i, name in enumerate(header)}
    dim = sum(1 for name in header if name.startswith("x"))
    return cols, dim


def _cmd_rates(args):
    out = []
    for path in args.traces:
        cols, dim = _read_trace(path)
        e = cols["sup_q_sqrt_k"]
        ns = cols["n"]
        fits = {}
        for model in (kernels.RatePrediction("exponential", 1.0 / dim),
                      kernels.RatePrediction("polynomial", 0.0)):
            try:
                fit = analysis.fit_rate(e, model, n_values=ns, floor=1e-12)
            except Exception as exc:  # short series: report, keep going
                fits[model.model] = {"skipped": str(exc)}
                continue
            fits[model.model] = {"slope": fit.slope, "intercept": fit.intercept,
                                 "r_squared": fit.r_squared,
                                 "n_range": list(fit.n_range)}
        out.append({"trace": path, "dim": dim, "fits": fits})
        for model, fit in fits.items():
            if "slope" in fit:
                print(f"{path} [{model}] slope={fit['slope']:.4g} "
                      f"R^2={fit['r_squared']:.4f}")
            else:
                print(f"{path} [{model}] skipped: {fit['skipped']}")
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
