"""Command-line interface.

Subcommands:
  run       execute the Monte Carlo experiment described by a config file,
            writing per-trial trajectory CSVs and a summary CSV
  compare   run several configs and print a joint summary table
  selftest  re-verify the core numerical identities in this environment

Exit codes: 0 success, 2 bad configuration or usage, 3 I/O failure,
4 selftest failure.
"""

import argparse
import sys
from contextlib import nullcontext
from dataclasses import replace
from pathlib import Path

from .errors import ConfigError
from .harness import check_run, emit_csv, load_config, run_monte_carlo, summary_csv_text


def build_parser():
    parser = argparse.ArgumentParser(
        prog="pgac",
        description="Model-free adaptive LQR experiments (policy-gradient adaptive control).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one experiment config")
    run_p.add_argument("--config", required=True, help="path to a key-value config file")
    run_p.add_argument("--out", default=".", help="output directory for CSVs")
    run_p.add_argument("--trials", type=int, default=None, help="override trial count")
    run_p.add_argument("--seed", type=int, default=None, help="override base seed")
    run_p.add_argument("--method", default=None, help="override the update method")
    run_p.add_argument("--jobs", type=int, default=1, help="processes, one lockstep group per task")
    run_p.add_argument(
        "--timing",
        action="store_true",
        help="measure per-step wall time (makes the timing columns nonzero "
        "and therefore run-dependent)",
    )
    run_p.set_defaults(func=cmd_run)

    cmp_p = sub.add_parser("compare", help="run several configs, print a joint table")
    cmp_p.add_argument("--configs", nargs="+", required=True, help="config file paths")
    cmp_p.add_argument("--out", default=None, help="optional path for the joint CSV")
    cmp_p.add_argument("--jobs", type=int, default=1, help="processes, one lockstep group per task")
    cmp_p.add_argument("--timing", action="store_true", help="measure per-step wall time")
    cmp_p.set_defaults(func=cmd_compare)

    self_p = sub.add_parser("selftest", help="run the built-in numerical checks")
    self_p.set_defaults(func=cmd_selftest)
    return parser


def cmd_run(args):
    config = load_config(
        args.config,
        overrides={"trials": args.trials, "seed": args.seed, "method": args.method},
    )
    if args.timing:
        config = replace(config, record_timing=True)
    # a bad config or an output directory that cannot be made fails before
    # any trial runs
    check_run(config, args.jobs)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    summary = run_monte_carlo(config, jobs=args.jobs)
    for log in summary.logs:
        emit_csv(log, outdir / f"{summary.method}_trial{log.trial_index:03d}.csv")
    emit_csv(summary, outdir / "summary.csv")
    sys.stdout.write(summary_csv_text(summary))
    return 0


def cmd_compare(args):
    configs = []
    for path in args.configs:
        config = load_config(path)
        if args.timing:
            config = replace(config, record_timing=True)
        check_run(config, args.jobs)
        configs.append(config)
    # every config is checked, and --out opened, before any trial runs
    with open(args.out, "w", newline="") if args.out else nullcontext() as fh:
        summaries = [run_monte_carlo(config, jobs=args.jobs) for config in configs]
        lines = [summary_csv_text(summaries[0]).splitlines()[0]]
        for summary in summaries:
            lines.append(summary_csv_text(summary).splitlines()[1])
        table = "\n".join(lines) + "\n"
        sys.stdout.write(table)
        if fh:
            fh.write(table)
    return 0


def cmd_selftest(args):
    from .selftest import run_selftest

    failures = 0
    for name, passed, detail in run_selftest():
        marker = "ok" if passed else "FAIL"
        print(f"{marker:4s} {name}: {detail}")
        failures += 0 if passed else 1
    if failures:
        print(f"{failures} check(s) failed")
        return 4
    print("all checks passed")
    return 0


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
