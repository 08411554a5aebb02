#!/usr/bin/env python3
"""Time the per-step LCP solve: solve_backward on gbm_time_drift at 400², 800² and 1600².

Usage:
    PYTHONPATH=src python scripts/bench_lcp.py

The problem is set up once per size (validated, samples
taken); only ``solve_backward`` is timed, 5 times.  Prints one JSON line per
size with the median, the fastest and the slowest run and the total number of
policy iterations over the backward steps.
"""

import dataclasses
import json
import statistics
import sys
import time

from stoplab.config import builtin_examples
from stoplab.pipeline import prepare_problem
from stoplab.solver import solve_backward

MODEL = "gbm_time_drift"
SIZES = (400, 800, 1600)
REPEATS = 5


def main() -> int:
    cfg = builtin_examples()[MODEL]
    for n in SIZES:
        sized = dataclasses.replace(cfg, grid=dataclasses.replace(cfg.grid, nt=n, nx=n))
        problem = prepare_problem(sized)
        seconds = []
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            surface = solve_backward(problem, problem.disc.grid, theta=sized.grid.theta)
            seconds.append(time.perf_counter() - t0)
        print(json.dumps({
            "model": MODEL, "nt": n, "nx": n, "repeats": REPEATS,
            "median_s": statistics.median(seconds), "min_s": min(seconds), "max_s": max(seconds),
            "iterations": int(surface.meta.psor_sweeps.sum()),
            "max_iterations_per_step": int(surface.meta.psor_sweeps.max()),
        }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
