#!/usr/bin/env python3
"""Failure rate of a gallery model's lsmc_cross_check over a range of seeds.

The finite-difference surface is solved once, on the user's axis or on the
reflected one (``--frame``); then the LSMC estimate is drawn at every seed
from the config's start point and judged by the registered
``lsmc_cross_check``, exactly as ``stoplab solve --seed S`` judges it.  The
reflected frame solves ``flip_orientation`` of the problem and simulates the
mirrored paths.

Usage:
    PYTHONPATH=src python scripts/lsmc_cross_check_rate.py [--seeds 0 300]
        [--frame user|reflected] [--steps N] [--paths N] [--model NAME]

Prints each failing seed, then one JSON line: the failure count, the FD
value and the mean of (lsmc - fd) / se over all seeds.
"""

import argparse
import json
import sys

import numpy as np

import stoplab as sl
from stoplab.checks import CHECKS, CheckInputs
from stoplab.pipeline import build_problem


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--model", default="brownian_bridge_linear_flipped")
    parser.add_argument("--seeds", type=int, nargs=2, default=(0, 300), metavar=("FIRST", "STOP"),
                        help="seeds FIRST, ..., STOP - 1")
    parser.add_argument("--frame", choices=("user", "reflected"), default="user")
    parser.add_argument("--steps", type=int, default=None, help="LSMC steps (default: the config's)")
    parser.add_argument("--paths", type=int, default=None, help="LSMC paths (default: the config's)")
    args = parser.parse_args()

    cfg = sl.builtin_examples()[args.model]
    grid_cfg, sim = cfg.grid, cfg.simulation
    steps = args.steps or sim.n_steps
    paths = args.paths or sim.n_paths
    spec = build_problem(cfg.problem)
    x_ref = grid_cfg.x_ref
    t0 = sim.lsmc_t
    x0 = sim.lsmc_x if sim.lsmc_x is not None else x_ref
    if args.frame == "reflected":
        spec, x_ref, x0 = sl.flip_orientation(spec), -x_ref, -x0
    grid = sl.build_grid(spec, grid_cfg.x_pad, grid_cfg.nt, grid_cfg.nx, x_ref=x_ref)
    problem = sl.validate_problem(spec, grid)
    surface = sl.solve_backward(problem, grid, theta=grid_cfg.theta)
    check = CHECKS["lsmc_cross_check"][1]

    fails, z = [], []
    for seed in range(*args.seeds):
        lsmc = sl.value_lsmc(problem, t0, x0, paths, steps, sim.lsmc_degree, seed)
        report = check(CheckInputs(problem=problem, surface=surface, lsmc=lsmc,
                                   lsmc_point=(t0, x0)))
        fd = sl.value_at(surface, t0, x0)
        z.append((lsmc.estimate - fd) / lsmc.standard_error)
        if not report.ok:
            fails.append(seed)
            print(f"seed {seed}: {report.verdict} gap {report.worst_violation:.5f} > "
                  f"tol {report.tolerance:.5f}  ({report.notes})", flush=True)
    print(json.dumps({
        "model": args.model, "frame": args.frame, "seeds": list(args.seeds),
        "n_steps": steps, "n_paths": paths, "nt": grid_cfg.nt, "nx": grid_cfg.nx,
        "fd_value": sl.value_at(surface, t0, x0), "fails": len(fails),
        "of": len(z), "mean_z": float(np.mean(z)), "failing_seeds": fails,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
