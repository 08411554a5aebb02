"""The three benchmark workloads: set-up, one pass of operations, output checks.

Every workload calls stoplab only through ``stoplab.cli.main`` and the names
exported from ``stoplab`` (plus ``stoplab.pipeline.build_problem``, which
turns a gallery config into a problem spec).  Functions are looked up on the
module at call time, so the traced run sees its wrappers.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import shutil
import time

import stoplab as sl
import stoplab.cli
import stoplab.pipeline

BRIDGE = "brownian_bridge_linear_flipped"
BRIDGE_C = 0.839924  # b(t) = c sqrt(T - t) for the pinned bridge (Shepp 1969)
BRIDGE_C_TOL = 0.02  # acceptance criterion 6
COUPLED = ("bm_time_drift", "brownian_bridge_exp", BRIDGE)

SIZES = {
    "full": {"gallery_n": None, "gallery_paths": None, "fine_n": 1600,
             "fd_n": 400, "lsmc_paths": 100_000, "lsmc_steps": 250, "lsmc_degree": 5,
             "coupled_paths": 40_000, "coupled_steps": 512},
    # fine_n stays at 400: coarser grids miss the 2% bridge-constant check
    "smoke": {"gallery_n": 50, "gallery_paths": 1000, "fine_n": 400,
              "fd_n": 50, "lsmc_paths": 1000, "lsmc_steps": 49, "lsmc_degree": 5,
              "coupled_paths": 1000, "coupled_steps": 64},
}


@dataclasses.dataclass
class OpResult:
    label: str
    seconds: float
    failures: list
    export_bytes: int = 0


def timed(label, call, *args):
    """Run one operation; an exception is recorded as a failure, not raised."""
    t0 = time.perf_counter()
    try:
        value = call(*args)
    except Exception as err:  # the run goes on; the failure counts in fail_ratio
        return None, OpResult(label, time.perf_counter() - t0, [f"raised {err!r}"])
    return value, OpResult(label, time.perf_counter() - t0, [])


def bridge_constant(t_nodes, b_values, horizon=1.0):
    """Mean of b(t) / sqrt(T - t) over t in [1/3, 2/3]."""
    ratios = [b / math.sqrt(horizon - t) for t, b in zip(t_nodes, b_values)
              if 1.0 / 3.0 <= t <= 2.0 / 3.0]
    return sum(ratios) / len(ratios)


def _relerr(c):
    return abs(c - BRIDGE_C) / BRIDGE_C


def _sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class Gallery:
    """The six built-in models through the CLI, export on."""

    def __init__(self, size, seed, tmp):
        self.seed = seed
        self.configs = sl.builtin_examples()
        self.names = list(self.configs)
        self.size = SIZES[size]
        self.tmp = tmp
        self.digests = {}
        self.bridge_c = None
        self.config_files = {}
        if self.size["gallery_n"] is not None:
            for name, cfg in self.configs.items():
                self.config_files[name] = self._reduced_config(cfg)

    def _reduced_config(self, cfg):
        n = self.size["gallery_n"]
        sim = cfg.simulation
        steps = n - 1 if cfg.name == BRIDGE else n
        sim = dataclasses.replace(sim, n_paths=self.size["gallery_paths"], n_steps=steps)
        small = dataclasses.replace(cfg, grid=dataclasses.replace(cfg.grid, nt=n, nx=n),
                                    simulation=sim)
        path = os.path.join(self.tmp, f"{cfg.name}.cfg")
        sl.save_config(small, path)
        return path

    def _argv(self, name, out, seed):
        head = (["solve", self.config_files[name]] if name in self.config_files
                else ["examples", "run", name])
        return head + ["--out", out, "--seed", str(seed)]

    @staticmethod
    def _cli(argv):
        sink = io.StringIO()  # the CLI's report lines; the checks read reports.json
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            return stoplab.cli.main(argv)

    def run_pass(self, index, run_op):
        results = []
        for i, name in enumerate(self.names):
            out = os.path.join(self.tmp, f"pass{index}", name)
            rc, res = run_op(name, self._cli, self._argv(name, out, self.seed + i))
            if not res.failures:
                res.failures = self._check(name, rc, out)
            # only the CSVs must reproduce byte for byte: reports.json and
            # summary.txt carry wall-clock timings
            res.export_bytes = sum(e.stat().st_size for e in os.scandir(out)
                                   if e.name.endswith(".csv")) if os.path.isdir(out) else 0
            results.append(res)
        shutil.rmtree(os.path.join(self.tmp, f"pass{index}"), ignore_errors=True)
        return results

    def _check(self, name, rc, out):
        failures = [] if rc == 0 else [f"exit status {rc}"]
        try:
            with open(os.path.join(out, "reports.json"), encoding="utf-8") as fh:
                verdicts = [(c["check"], c["verdict"]) for c in json.load(fh)["checks"]]
            digests = {f: _sha256(os.path.join(out, f"{f}.csv")) for f in ("surface", "boundary")}
        except (OSError, ValueError, KeyError, TypeError) as err:
            return failures + [f"unreadable output: {err!r}"]
        failures += [f"{check}: {verdict}" for check, verdict in verdicts if verdict != "PASS"]
        first = self.digests.setdefault(name, digests)
        failures += [f"{f}.csv differs from the first pass" for f in digests
                     if digests[f] != first[f]]
        if name == BRIDGE:
            with open(os.path.join(out, "boundary.csv"), encoding="utf-8") as fh:
                rows = list(csv.DictReader(fh))
            self.bridge_c = bridge_constant([float(r["t"]) for r in rows],
                                            [float(r["b"]) for r in rows])
        return failures

    def report(self):
        return {"bridge_c": self.bridge_c,
                "bridge_c_relerr": None if self.bridge_c is None else _relerr(self.bridge_c),
                "csv_sha256": self.digests}


class FineGrid:
    """The six gallery problems solved in the solve frame at 1600 x 1600."""

    def __init__(self, size, seed, tmp):
        # nothing here is random; the seed is only recorded, in the provenance
        self.n = SIZES[size]["fine_n"]
        self.problems = []
        for name, cfg in sl.builtin_examples().items():
            spec = stoplab.pipeline.build_problem(cfg.problem)
            self.problems.append((name, cfg.grid, spec))
        self.bridge_c = None
        self.residuals = {}

    def _solve(self, grid_cfg, spec):
        upper = spec.orientation is sl.Orientation.UPPER
        if upper:
            spec = sl.flip_orientation(spec)
        x_ref = grid_cfg.x_ref
        if upper and x_ref is not None:
            x_ref = -x_ref
        grid = sl.build_grid(spec, grid_cfg.x_pad, self.n, self.n, x_ref=x_ref)
        problem = sl.validate_problem(spec, grid)
        surface = sl.solve_backward(problem, grid, theta=grid_cfg.theta)
        boundary = sl.extract_boundary(surface)
        return boundary, sl.residual_complementarity(surface)

    def run_pass(self, index, run_op):
        results = []
        for name, grid_cfg, spec in self.problems:
            value, res = run_op(name, self._solve, grid_cfg, spec)
            if value is not None:
                boundary, report = value
                self.residuals[name] = report.worst_violation
                if report.verdict != "PASS":
                    res.failures.append(f"residual_complementarity {report.verdict}: "
                                        f"{report.worst_violation:.3g} > {report.tolerance:.3g}")
                if name == BRIDGE:
                    # the solve frame is reflected: the upper boundary is -b
                    self.bridge_c = bridge_constant(boundary.t_nodes, -boundary.values)
                    if _relerr(self.bridge_c) > BRIDGE_C_TOL:
                        res.failures.append(f"bridge constant {self.bridge_c:.5f} not within "
                                            f"{BRIDGE_C_TOL:.0%} of {BRIDGE_C}")
            results.append(res)
        return results

    def report(self):
        return {"bridge_c": self.bridge_c,
                "bridge_c_relerr": None if self.bridge_c is None else _relerr(self.bridge_c),
                "residuals": self.residuals}


class MonteCarlo:
    """LSMC at criterion 6's size and three wide coupled bundles."""

    def __init__(self, size, seed, tmp):
        self.seed = seed
        self.size = s = SIZES[size]
        configs = sl.builtin_examples()
        bridge_cfg = configs[BRIDGE]
        spec = sl.flip_orientation(stoplab.pipeline.build_problem(bridge_cfg.problem))
        grid = sl.build_grid(spec, bridge_cfg.grid.x_pad, s["fd_n"], s["fd_n"], x_ref=0.0)
        self.bridge = sl.validate_problem(spec, grid)
        surface = sl.solve_backward(self.bridge, grid, theta=bridge_cfg.grid.theta)
        self.fd_value = sl.value_at(surface, 0.0, 0.0)
        boundary = sl.extract_boundary(surface)
        self.bridge_c = bridge_constant(boundary.t_nodes, -boundary.values)

        self.couplings = []
        for name in COUPLED:
            cfg = configs[name]
            spec = stoplab.pipeline.build_problem(cfg.problem)
            probe = sl.build_grid(spec, cfg.grid.x_pad, cfg.grid.nt, cfg.grid.nx,
                                  x_ref=cfg.grid.x_ref)
            problem = sl.validate_problem(spec, probe)
            sim = cfg.simulation
            region = (sl.everywhere_region() if sim.region == "everywhere"
                      else sl.negative_drift_region(problem.spec.drift))
            (u, t, x), = sim.couplings
            self.couplings.append((name, problem, region, u, t, x, sim.c_ord))
        self.lsmc = None

    def _coupling(self, problem, region, u, t, x, c_ord, seed):
        bundle = sl.simulate_coupled(problem, t, u, x, region, self.size["coupled_paths"],
                                     self.size["coupled_steps"], seed)
        return sl.comparison_report(bundle, c_ord=c_ord)

    def run_pass(self, index, run_op):
        s = self.size
        lsmc, res = run_op("lsmc", sl.value_lsmc, self.bridge, 0.0, 0.0, s["lsmc_paths"],
                           s["lsmc_steps"], s["lsmc_degree"], self.seed)
        if lsmc is not None:
            self.lsmc = lsmc
            gap = abs(self.fd_value - lsmc.estimate)
            tol = max(3.0 * lsmc.standard_error, 5e-3)  # criterion 6
            if gap > tol:
                res.failures.append(f"|fd - lsmc| = {gap:.3g} > {tol:.3g}")
        results = [res]
        for i, (name, problem, region, u, t, x, c_ord) in enumerate(self.couplings):
            report, res = run_op(f"coupling:{name}", self._coupling,
                                 problem, region, u, t, x, c_ord, self.seed + i)
            if report is not None and report.verdict != "PASS":
                res.failures.append(f"coupling_order {report.verdict}: "
                                    f"{report.worst_violation:.3g} > {report.tolerance:.3g}")
            results.append(res)
        return results

    def report(self):
        out = {"bridge_c": self.bridge_c, "bridge_c_relerr": _relerr(self.bridge_c),
               "fd_value": self.fd_value}
        if self.lsmc is not None:
            out["lsmc"] = {"estimate": self.lsmc.estimate,
                           "standard_error": self.lsmc.standard_error}
        return out


WORKLOADS = {"gallery": Gallery, "fine_grid": FineGrid, "monte_carlo": MonteCarlo}
