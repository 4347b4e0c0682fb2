"""Command-line entry point.

Subcommands: ``run`` one config, ``batch`` a directory of configs,
``validate`` a config (build it and run its start checks), ``fit`` a power
law to a trace, ``compare`` traces.  Exit codes: 0 ok, 1 a guarantee
failed or a solver stopped mid-run, 2 usage/config error.  Relative output
paths resolve under --out-root (or $GEODESCENT_OUTPUT_ROOT).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import warnings

from geodescent import harness
from geodescent.traces import load_trace, trace_to_csv, write_plot_data


def _out_root(args) -> str:
    return getattr(args, "out_root", None) or os.environ.get(harness.OUTPUT_ROOT_ENV) or "."


def _load_config(path, stream):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", harness.ConfigWarning)
        cfg = harness.load_config(path)
    for w in caught:
        print(f"warning: {w.message}", file=stream)
    return cfg


def _cmd_run(args) -> int:
    try:
        result = harness.run_experiment(_load_config(args.config, sys.stderr), _out_root(args))
    except harness.ConfigError as e:
        for v in e.violations:
            print(f"config error: {v}", file=sys.stderr)
        return 2
    except OSError as e:
        # an output file that cannot be written
        print(f"error: {e}", file=sys.stderr)
        return 2
    print(f"trace:  {result.trace_path}")
    print(f"report: {result.report_path}")
    for name, g in result.report["guarantees"].items():
        status = {True: "pass", False: "FAIL", None: "void"}[g["pass"]]
        slack = "n/a" if g["worst_slack"] is None else f"{g['worst_slack']:.3e}"
        print(f"  {name:<20} {status:<5} worst slack {slack}")
    for err in result.report["errors"]:
        print(f"  error: {err}", file=sys.stderr)
    return result.exit_code


def _cmd_batch(args) -> int:
    try:
        names = os.listdir(args.directory)
    except OSError as e:  # a missing directory, or a file
        print(f"error: {e}", file=sys.stderr)
        return 2
    paths = sorted(os.path.join(args.directory, p) for p in names
                   if p.endswith((".yaml", ".yml")))
    if not paths:
        print(f"no configs found in {args.directory}", file=sys.stderr)
        return 2
    worst = 0
    for p in paths:
        ns = argparse.Namespace(config=p, out_root=_out_root(args))
        code = _cmd_run(ns)
        print(f"[{p}] exit {code}")
        worst = max(worst, code)
    return worst


def _cmd_validate(args) -> int:
    try:
        harness._build_experiment(_load_config(args.config, sys.stdout))
    except harness.ConfigError as e:
        for v in e.violations:
            print(f"invalid: {v}")
        return 2
    print("ok")
    return 0


def _cmd_fit(args) -> int:
    fit = harness.fit_rate(load_trace(args.trace), args.k_from, args.k_to)
    print(json.dumps({"slope": fit.slope, "intercept": fit.intercept,
                      "r2": fit.r2, "window": list(fit.window)}, sort_keys=True))
    return 0


def _cmd_compare(args) -> int:
    traces = [load_trace(p) for p in args.traces]
    labels = [os.path.splitext(os.path.basename(p))[0] for p in args.traces]
    while len(set(labels)) < len(labels):  # traces that share a stem get their positions
        labels = [f"{s}-{i}" if labels.count(s) > 1 else s for i, s in enumerate(labels, 1)]
    cmp = harness.compare_report(traces, labels)
    root = _out_root(args)
    os.makedirs(root, exist_ok=True)
    csv_path = os.path.join(root, "comparison.csv")
    with open(csv_path, "w") as fh:
        fh.write(cmp.csv_text())
    for data, label in zip(traces, labels):
        write_plot_data(data, os.path.join(root, f"{label}.dat"))
    print(cmp.table_text())
    print(f"csv: {csv_path}")
    return 0


def _cmd_export(args) -> int:
    trace_to_csv(load_trace(args.trace), args.csv)
    print(f"csv: {args.csv}")
    return 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and kept for the process."""
    # --out-root is accepted before and after the subcommand; SUPPRESS keeps
    # a subcommand's parser from overwriting a value given before it
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out-root", default=argparse.SUPPRESS,
                        help=f"output root (default: ${harness.OUTPUT_ROOT_ENV} or .)")
    parser = argparse.ArgumentParser(prog="geodescent", parents=[common],
                                     description="Certified Riemannian descent experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", parents=[common], help="run one experiment config")
    p.add_argument("config")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("batch", parents=[common], help="run every config in a directory")
    p.add_argument("directory")
    p.set_defaults(func=_cmd_batch)

    p = sub.add_parser("validate", parents=[common], help="build a config and run its start checks")
    p.add_argument("config")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("fit", parents=[common], help="fit a power law to a trace's gap")
    p.add_argument("trace")
    p.add_argument("--from", dest="k_from", type=int, required=True)
    p.add_argument("--to", dest="k_to", type=int, required=True)
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("compare", parents=[common], help="tabulate several traces against the first")
    p.add_argument("traces", nargs="+")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("export", parents=[common], help="export a trace to CSV")
    p.add_argument("trace")
    p.add_argument("csv")
    p.set_defaults(func=_cmd_export)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as e:
        if args.command not in ("fit", "compare", "export"):
            raise  # run, validate and batch report their config errors themselves
        # a trace that cannot be read, a malformed trace or fit window, or an
        # output file that cannot be written
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
