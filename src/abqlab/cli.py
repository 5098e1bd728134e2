"""Command-line harness.

Subcommands:
  run <config.json>   execute one experiment (or a matrix) and write artifacts
  verify              run the built-in verification suite
  rates <trace.csv..> re-fit decay rates from existing trace files

Exit codes: 0 success (including theory-violation findings recorded in
report.json), 2 configuration error or a path that cannot be read or
written, 3 any other abqlab error (a numerical abort, a non-finite integrand
value, a value outside the transform's range).
"""

from __future__ import annotations

import argparse
import sys

from . import runner
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
    for target, _ in written:
        print(f"wrote {target}")
    findings = sum(count for _, count in written)
    print(f"{len(written)} experiment(s), {findings} finding(s)")
    return EXIT_OK


def _cmd_verify(args):
    # imported here: the suite's checks are for `verify` alone
    from . import verify

    results = verify.run_all()
    for res in results:
        print(res.line())
    if args.out:
        runner.write_json(args.out, {
            "checks": [{"tag": r.tag, "ok": r.ok, "seconds": r.seconds,
                        "detail": r.detail} for r in results],
            "all_ok": all(r.ok for r in results),
        })
    # empirical check failures are findings, not process errors
    return EXIT_OK


def _cmd_rates(args):
    out = []
    for path in args.traces:
        out.append(runner.trace_rate_fits(path))
        for model, fit in out[-1]["fits"].items():
            if "skipped" in fit:
                print(f"{path} [{model}] skipped: {fit['skipped']}")
            else:
                print(f"{path} [{model}] slope={fit['slope']:.4g} "
                      f"R^2={fit['r_squared']:.4f}")
    if args.out:
        runner.write_json(args.out, out)
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
    except OSError as exc:  # a path that cannot be read or written
        print(f"file error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
