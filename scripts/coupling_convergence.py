#!/usr/bin/env python3
"""Step-size study of the shared-noise coupling ordering statistic.

Couples two copies of the same process started at different times from the
same state under identical Gaussian increments and reports, per step size,
the worst per-step mean positive part of (late - early) frozen at the exit
from the negative-drift region.  For a drift nonincreasing in time on that
region and a state-independent diffusion the discrete statistic is exactly
zero; a state-dependent diffusion shows the tolerance-scale violations.

Usage:
    python scripts/coupling_convergence.py [--drift bridge|bm] [--paths 10000]
"""

import argparse
import sys

import numpy as np

import stoplab as sl
from stoplab.simulate import coupling_statistic, negative_drift_region


def build_problem(kind: str):
    if kind == "bridge":
        spec = sl.ProblemSpec(
            drift=sl.from_expression("(0.0 - x)/(T - t)", 1.0),
            diffusion=sl.constant_field(1.0),
            terminal_reward=sl.from_expression("x", 1.0),
            horizon=1.0,
            pole_at_horizon=True,
        )
        grid = sl.make_grid(0.99, -5, 5, 20, 20)
    else:
        spec = sl.ProblemSpec(
            drift=sl.from_expression("1 - t", 1.0),
            diffusion=sl.constant_field(1.0),
            terminal_reward=sl.from_expression("x", 1.0),
            horizon=1.0,
        )
        grid = sl.make_grid(1.0, -5, 5, 20, 20)
    return sl.validate_problem(spec, grid)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--drift", choices=("bridge", "bm"), default="bridge")
    parser.add_argument("--paths", type=int, default=10_000)
    parser.add_argument("--steps", type=int, nargs="+", default=[127, 511, 2047])
    parser.add_argument("--u", type=float, default=0.25)
    parser.add_argument("--t", type=float, default=0.5)
    parser.add_argument("--x", type=float, default=1.0)
    parser.add_argument("--seed", type=int, default=2024)
    args = parser.parse_args()

    prob = build_problem(args.drift)
    region = negative_drift_region(prob.spec.drift)
    print(f"coupling {args.drift}: u={args.u}, t={args.t}, x={args.x}, "
          f"{args.paths} paths, region = drift < 0")
    for n_steps in args.steps:
        cb = sl.simulate_coupled(prob, args.t, args.u, args.x, region,
                                 args.paths, n_steps, seed=args.seed)
        stats, k_worst, _ = coupling_statistic(cb)
        report = sl.comparison_report(cb)
        exited = float(np.mean(cb.region_exit < n_steps))
        print(f"  n_steps={n_steps:5d}  dt={cb.late.dt:.6g}  "
              f"max_stat={stats.max():.3g} (step {k_worst})  "
              f"exited={exited:.1%}  {report.verdict} at tol {report.tolerance:.3g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
