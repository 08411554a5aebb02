#!/usr/bin/env python3
"""Grid-refinement study of the bridge stopping boundary's square-root shape.

Maximizing the state of a bridge pinned at zero produces an upper boundary
proportional to sqrt(T - t).  This script solves the reflected problem on a
ladder of grids, reports the fitted proportionality constant over the middle
third of the horizon, and optionally writes one CSV per level.

Usage:
    python scripts/boundary_scaling.py [--levels 100 200 400 800] [--csv DIR]
"""

import argparse
import os
import sys
import time

import numpy as np

import stoplab as sl
from stoplab.problems import Orientation


def bridge_problem():
    spec_up = sl.ProblemSpec(
        drift=sl.from_expression("(0.0 - x)/(T - t)", 1.0),
        diffusion=sl.constant_field(1.0),
        terminal_reward=sl.from_expression("x", 1.0),
        horizon=1.0,
        orientation=Orientation.UPPER,
        pole_at_horizon=True,
    )
    return sl.flip_orientation(spec_up)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--levels", type=int, nargs="+", default=[100, 200, 400, 800])
    parser.add_argument("--pad", type=float, default=5.0)
    parser.add_argument("--csv", default=None, help="write boundary CSVs into this directory")
    args = parser.parse_args()

    spec = bridge_problem()
    prev = None
    for n in args.levels:
        grid = sl.build_grid(spec, args.pad, n, n, x_ref=0.0)
        prob = sl.validate_problem(spec, grid)
        t0 = time.perf_counter()
        surf = sl.solve_backward(prob, grid)
        elapsed = time.perf_counter() - t0
        boundary = sl.unflip_boundary(sl.extract_boundary(surf))
        ts = boundary.t_nodes
        mid = (ts >= 1 / 3) & (ts <= 2 / 3)
        ratio = boundary.values[mid] / np.sqrt(1.0 - ts[mid])
        const = float(np.mean(ratio))
        drift_note = "" if prev is None else f"  change {abs(const - prev) / abs(const):.2%}"
        print(f"n={n:5d}  {elapsed:6.2f}s  b(t)/sqrt(T-t) = {const:.5f} "
              f"(sd {np.std(ratio):.4f}){drift_note}")
        prev = const
        if args.csv:
            os.makedirs(args.csv, exist_ok=True)
            path = os.path.join(args.csv, f"boundary_{n}.csv")
            with open(path, "w") as fh:
                fh.write("t,b\n")
                for t, b in zip(ts, boundary.values):
                    fh.write(f"{t:.17g},{b:.17g}\n")
            print(f"         wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
