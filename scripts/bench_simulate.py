#!/usr/bin/env python3
"""Time the simulate layer at the monte_carlo benchmark's sizes and digest its outputs.

Usage:
    PYTHONPATH=src python scripts/bench_simulate.py [--repeats 3] [--seed 20240611]

Stages, each run --repeats times after set-up:
- ``simulate_paths`` and ``value_lsmc`` (degree 5) at 100 000 paths x 250 steps
  on the reflected ``brownian_bridge_linear_flipped`` problem;
- ``simulate_coupled`` + ``comparison_report`` at 40 000 paths x 512 steps for
  ``bm_time_drift``, ``brownian_bridge_exp`` and ``brownian_bridge_linear_flipped``,
  each with its gallery region and coupling, seeded seed + i.

Prints one JSON line per stage with the median, fastest and slowest run, then
one line with a sha256 over every bundle's states, poisoned flags and region
exits, the LSMC value and the comparison reports, so two checkouts can be
compared byte for byte.
"""

import argparse
import hashlib
import json
import statistics
import sys
import time

import numpy as np

import stoplab as sl
from stoplab.pipeline import build_problem

BRIDGE = "brownian_bridge_linear_flipped"
COUPLED = ("bm_time_drift", "brownian_bridge_exp", BRIDGE)
LSMC_PATHS, LSMC_STEPS, LSMC_DEGREE = 100_000, 250, 5
COUPLED_PATHS, COUPLED_STEPS = 40_000, 512


def _validated(cfg, spec):
    grid = sl.build_grid(spec, cfg.grid.x_pad, cfg.grid.nt, cfg.grid.nx, x_ref=cfg.grid.x_ref)
    return sl.validate_problem(spec, grid)


def _timed(label, repeats, call, *args):
    seconds = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        value = call(*args)
        seconds.append(time.perf_counter() - t0)
    print(json.dumps({"stage": label, "repeats": repeats,
                      "median_s": statistics.median(seconds),
                      "min_s": min(seconds), "max_s": max(seconds)}), flush=True)
    return value


def _digest_bundle(h, bundle):
    h.update(np.ascontiguousarray(bundle.states).tobytes())
    h.update(bundle.poisoned.tobytes())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--seed", type=int, default=20240611)
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")

    configs = sl.builtin_examples()
    bridge_cfg = configs[BRIDGE]
    bridge = _validated(bridge_cfg, sl.flip_orientation(build_problem(bridge_cfg.problem)))
    h = hashlib.sha256()

    bundle = _timed("simulate_paths", args.repeats, sl.simulate_paths, bridge, 0.0, 0.0,
                    LSMC_PATHS, LSMC_STEPS, args.seed)
    _digest_bundle(h, bundle)
    del bundle
    lsmc = _timed("value_lsmc", args.repeats, sl.value_lsmc, bridge, 0.0, 0.0,
                  LSMC_PATHS, LSMC_STEPS, LSMC_DEGREE, args.seed)
    h.update(repr((lsmc.estimate, lsmc.standard_error, lsmc.n_paths, lsmc.warnings)).encode())

    def couple_and_compare(problem, region, u, t, x, c_ord, seed):
        cb = sl.simulate_coupled(problem, t, u, x, region, COUPLED_PATHS, COUPLED_STEPS, seed)
        return cb, sl.comparison_report(cb, c_ord=c_ord)

    for i, name in enumerate(COUPLED):
        cfg = configs[name]
        problem = _validated(cfg, build_problem(cfg.problem))
        sim = cfg.simulation
        region = (sl.everywhere_region() if sim.region == "everywhere"
                  else sl.negative_drift_region(problem.spec.drift))
        (u, t, x), = sim.couplings
        cb, report = _timed(f"coupling:{name}", args.repeats, couple_and_compare,
                            problem, region, u, t, x, sim.c_ord, args.seed + i)
        _digest_bundle(h, cb.late)
        _digest_bundle(h, cb.early)
        h.update(cb.region_exit.astype(np.int64).tobytes())
        h.update(repr(report).encode())
        del cb

    print(json.dumps({"sha256": h.hexdigest(), "lsmc_estimate": lsmc.estimate,
                      "lsmc_standard_error": lsmc.standard_error}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
