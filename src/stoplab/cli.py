"""Command-line front end: solve, check and the built-in example gallery."""

from __future__ import annotations

import argparse
import sys

from .checks import CHECKS, FIELDS, CheckInputs
from .config import ConfigError, builtin_examples, load_config
from .pipeline import StageError, prepare_problem, run_problem

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_ERROR = 2


def _print_reports(reports):
    for r in reports:
        print(f"[{r.verdict}] {r.check_name}: worst={r.worst_violation:.4g} "
              f"tol={r.tolerance:.4g}  {r.notes}")


def _cmd_solve(args) -> int:
    try:
        cfg = load_config(args.config)
    except ConfigError as err:
        print(f"error in stage 'load_config': {err}", file=sys.stderr)
        return EXIT_ERROR
    return _execute(cfg, out_dir=args.out, refine=args.refine, seed=args.seed)


def _execute(cfg, out_dir=None, refine=0, seed=None) -> int:
    try:
        artifacts = run_problem(cfg, out_dir=out_dir, refine=refine, seed_override=seed)
    except StageError as err:
        print(f"error in stage {err.stage!r}: {err.cause}", file=sys.stderr)
        return EXIT_ERROR
    _print_reports(artifacts.reports)
    for name, path in artifacts.files.items():
        print(f"wrote {name}: {path}")
    return EXIT_OK if artifacts.exit_ok else EXIT_CHECK_FAILED


def _cmd_examples(args) -> int:
    gallery = builtin_examples()
    if args.action == "list":
        for name in gallery:
            print(name)
        return EXIT_OK
    if args.name not in gallery:
        print(f"unknown example {args.name!r}; run 'stoplab examples list'", file=sys.stderr)
        return EXIT_ERROR
    return _execute(gallery[args.name], out_dir=args.out, seed=args.seed)


def _cmd_check(args) -> int:
    """Hypothesis checks only: probe the coefficient fields without solving.

    Runs the requested checks that need only the fields, or by default the
    reward and everywhere drift checks.  The set-up is ``solve``'s own, so
    verdicts, worst values and witnesses match those of ``solve`` exactly.
    """
    try:
        cfg = load_config(args.config)
    except ConfigError as err:
        print(f"error in stage 'load_config': {err}", file=sys.stderr)
        return EXIT_ERROR
    try:
        problem = prepare_problem(cfg)
    except StageError as err:
        print(f"error in stage {err.stage!r}: {err.cause}", file=sys.stderr)
        return EXIT_ERROR

    wanted = [name for name in cfg.checks if CHECKS[name][0] == FIELDS]
    wanted = wanted or ["reward_x_monotone", "drift_time_monotone_everywhere"]
    inputs = CheckInputs(problem=problem)
    reports = [CHECKS[name][1](inputs) for name in wanted]
    _print_reports(reports)
    return EXIT_OK if all(r.ok for r in reports) else EXIT_CHECK_FAILED


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="stoplab",
        description="Solve, simulate and machine-check 1-d time-inhomogeneous "
                    "optimal stopping problems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run the full pipeline for a config file")
    p_solve.add_argument("config")
    p_solve.add_argument("--out", default=None, help="output directory override")
    p_solve.add_argument("--seed", type=int, default=None, help="simulation seed override")
    p_solve.add_argument("--refine", type=int, default=0, metavar="K",
                         help="halve dt and dx K times")
    p_solve.set_defaults(fn=_cmd_solve)

    p_ex = sub.add_parser("examples", help="list or run the built-in example gallery")
    p_ex.add_argument("action", choices=("list", "run"))
    p_ex.add_argument("name", nargs="?", default=None)
    p_ex.add_argument("--out", default=None)
    p_ex.add_argument("--seed", type=int, default=None)
    p_ex.set_defaults(fn=_cmd_examples)

    p_check = sub.add_parser("check", help="run hypothesis checks only, no solve")
    p_check.add_argument("config")
    p_check.set_defaults(fn=_cmd_check)

    args = parser.parse_args(argv)
    if args.command == "examples" and args.action == "run" and not args.name:
        parser.error("examples run requires a name")
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
