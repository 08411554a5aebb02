"""Run orchestration: validate -> solve -> simulate -> check -> export.

Every problem, lower or upper boundary, is solved, simulated and checked on
the user's axis: the discrete obstacle problem has no side, and
``extract_boundary`` reads either orientation.  The coefficients are sampled
once per run by ``validate_problem``.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .checks import CHECKS, CheckInputs
from .config import ProblemConfig, RunConfig, drift_template, save_config_text
from .fields import from_expression
from .problems import (
    Orientation,
    ProblemSpec,
    StateSpace,
    ValidatedProblem,
    reduce_to_running_reward,
    reference_state,
    validate_problem,
)
from .reports import CheckReport
from .simulate import (
    everywhere_region,
    negative_drift_region,
    simulate_coupled,
    simulate_paths,
    value_lsmc,
)
from .solver import (
    Boundary,
    ValueSurface,
    build_grid,
    extract_boundary,
    residual_complementarity,
    solve_backward,
    value_at,
)


class StageError(RuntimeError):
    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage {stage!r} failed: {cause}")
        self.stage = stage
        self.cause = cause


@dataclass
class RunArtifacts:
    config: RunConfig
    run_id: str
    problem: ValidatedProblem
    surface: ValueSurface
    boundary: Boundary
    reports: list[CheckReport]
    warnings: tuple[str, ...]
    timings: dict[str, float] = field(default_factory=dict)
    files: dict[str, str] = field(default_factory=dict)
    lsmc: Optional[object] = None

    @property
    def exit_ok(self) -> bool:
        return all(r.ok for r in self.reports)


def build_problem(cfg: ProblemConfig) -> ProblemSpec:
    """Materialize the coefficient fields described by a problem config.

    The drift is ``config.drift_template`` filled in from the config: the
    plain drift, or the template of its family or prior.
    """
    horizon = cfg.horizon
    text = drift_template(vars(cfg)).format_map(vars(cfg))
    drift = from_expression(text, horizon, role="drift")
    pole = cfg.pole_at_horizon if cfg.pole_at_horizon is not None \
        else (cfg.drift_family == "brownian_bridge")

    sigma = from_expression(cfg.sigma, horizon, allow_t=False, role="sigma")
    terminal = from_expression(cfg.terminal, horizon, role="terminal")
    running = from_expression(cfg.running, horizon, role="running") if cfg.running else None
    return ProblemSpec(
        drift=drift,
        diffusion=sigma,
        terminal_reward=terminal,
        running_reward=running,
        horizon=horizon,
        state_space=StateSpace(cfg.state_space),
        orientation=Orientation.LOWER if cfg.orientation == "lower" else Orientation.UPPER,
        pole_at_horizon=pole,
    )


@contextmanager
def _stage(timings: dict[str, float], stage: str):
    """Time one pipeline stage into ``timings``; its errors become a StageError."""
    t0 = time.perf_counter()
    try:
        yield
    except StageError:
        raise
    except Exception as exc:
        raise StageError(stage, exc) from exc
    finally:
        timings[stage] = time.perf_counter() - t0


def _reject_off_grid(cfg: RunConfig, lo: float, hi: float) -> None:
    """Reject a start state that a configured check reads off the grid's x-range."""
    sim = cfg.simulation
    if sim is None:
        return
    points = []
    if "coupling_order" in cfg.checks:
        points += [("couplings", x) for _, _, x in sim.couplings]
    if "lsmc_cross_check" in cfg.checks and sim.lsmc_x is not None:
        points.append(("lsmc_x", sim.lsmc_x))
    for key, x in points:
        if not lo <= x <= hi:
            raise ValueError(f"key {key!r}: x = {x!r} lies off the grid's x-range [{lo!r}, {hi!r}]")


def prepare_problem(cfg: RunConfig, refine: int = 0, timings: Optional[dict[str, float]] = None
                    ) -> ValidatedProblem:
    """The set-up shared by ``solve`` and ``check``: stages build_problem, prepare, validate.

    Returns the problem on the user's axis, reduced to a running reward when
    the config asks, validated on its grid, with the grid's nt and nx
    doubled ``refine`` times and the coefficients sampled once.  Stage
    prepare rejects an ``lsmc_x`` or coupling x off the grid's x-range when
    ``lsmc_cross_check`` or ``coupling_order`` reads it.  Any error is raised
    as a StageError naming its stage.
    """
    timings = {} if timings is None else timings
    grid_cfg = cfg.grid
    with _stage(timings, "build_problem"):
        spec = build_problem(cfg.problem)

    with _stage(timings, "prepare"):
        if cfg.problem.reduce:
            spec = reduce_to_running_reward(spec)
        grid = build_grid(spec, grid_cfg.x_pad, grid_cfg.nt * 2 ** refine,
                          grid_cfg.nx * 2 ** refine, x_ref=grid_cfg.x_ref)
        _reject_off_grid(cfg, float(grid.x_nodes[0]), float(grid.x_nodes[-1]))

    with _stage(timings, "validate"):
        return validate_problem(spec, grid)


def run_problem(cfg: RunConfig, out_dir: Optional[str] = None, refine: int = 0,
                seed_override: Optional[int] = None) -> RunArtifacts:
    """Execute the full pipeline for one configuration.

    Any module error aborts with a StageError naming the stage.  The run is
    deterministic given the config and seed; reports list one verdict per
    requested check.
    """
    timings: dict[str, float] = {}
    grid_cfg = cfg.grid
    sim_cfg = cfg.simulation
    if seed_override is not None and sim_cfg is not None:
        sim_cfg = replace(sim_cfg, seed=seed_override)

    problem = prepare_problem(cfg, refine, timings)

    with _stage(timings, "solve"):
        surface = solve_backward(problem, problem.disc.grid, theta=grid_cfg.theta)
        boundary = extract_boundary(surface)

    couplings = []
    lsmc_result = None
    bundles = {}
    x0 = None
    if sim_cfg is not None:
        x0 = sim_cfg.lsmc_x if sim_cfg.lsmc_x is not None else \
            reference_state(problem.spec, grid_cfg.x_ref)
        with _stage(timings, "simulate"):
            if sim_cfg.couplings:
                region = (
                    everywhere_region()
                    if sim_cfg.region == "everywhere"
                    else negative_drift_region(problem.spec.drift)
                )
                for i, (u, t, x) in enumerate(sim_cfg.couplings):
                    cb = simulate_coupled(problem, t, u, x, region,
                                          sim_cfg.n_paths, sim_cfg.n_steps,
                                          sim_cfg.seed + i)
                    couplings.append(cb)
            if sim_cfg.dump_paths:
                bundles["paths"] = simulate_paths(problem, sim_cfg.lsmc_t, x0,
                                                  sim_cfg.n_paths, sim_cfg.n_steps,
                                                  sim_cfg.seed)
            if sim_cfg.lsmc:
                lsmc_result = value_lsmc(problem, sim_cfg.lsmc_t, x0,
                                         sim_cfg.n_paths, sim_cfg.n_steps,
                                         sim_cfg.lsmc_degree, sim_cfg.seed)

    with _stage(timings, "checks"):
        inputs = CheckInputs(
            problem=problem, surface=surface, boundary=boundary,
            couplings=tuple(couplings),
            c_ord=sim_cfg.c_ord if sim_cfg is not None else 1.0, lsmc=lsmc_result,
            lsmc_point=None if sim_cfg is None else (sim_cfg.lsmc_t, x0),
        )
        reports = [CHECKS[name][1](inputs) for name in cfg.checks]

    run_id = hashlib.sha256(save_config_text(cfg).encode()).hexdigest()[:16]
    artifacts = RunArtifacts(
        config=cfg,
        run_id=run_id,
        problem=problem,
        surface=surface,
        boundary=boundary,
        reports=reports,
        warnings=problem.warnings,
        timings=timings,
        lsmc=lsmc_result,
    )

    directory = out_dir or cfg.output.directory
    if directory:
        with _stage(timings, "export"):
            artifacts.files = export_artifacts(artifacts, directory, bundles)
    return artifacts


# ---------------------------------------------------------------------------
# exports


def _fmt_float(v: float) -> str:
    if math.isinf(v):
        return "+inf" if v > 0 else "-inf"
    return f"{v:.17g}"


def _fmt_column(a: np.ndarray) -> list[str]:
    """``_fmt_float`` of every element of a 1-d array, formatted in one pass."""
    values = a.tolist()
    if np.isfinite(a).all():
        return [f"{v:.17g}" for v in values]
    return [_fmt_float(v) for v in values]


def export_surface(surface: ValueSurface, boundary: Boundary, directory: str) -> dict[str, str]:
    """Write the surface and boundary CSVs; returns the file paths.

    Surface rows are row-major by t then x with 17-significant-digit floats;
    boundary sentinels are the literal strings -inf / +inf.  The t and x
    labels are formatted once, and an obstacle row whose bytes equal the
    previous row's is not formatted again (bytes, not ``==``: -0.0 == 0.0
    but the two print differently).
    """
    os.makedirs(directory, exist_ok=True)
    paths = {}

    surface_path = os.path.join(directory, "surface.csv")
    with open(surface_path, "w", encoding="utf-8") as fh:
        fh.write("t,x,v,g,exercise\n")
        x_labels = [f"{x}," for x in _fmt_column(surface.grid.x_nodes)]
        ends = (",0\n", ",1\n")
        g_prev, g_row = None, None
        for k, t in enumerate(_fmt_column(surface.grid.t_nodes)):
            g_bytes = surface.obstacle[k].tobytes()
            if g_bytes != g_prev:
                g_prev, g_row = g_bytes, _fmt_column(surface.obstacle[k])
            fh.write("".join([
                f"{t},{x}{v},{g}{ends[e]}" for x, v, g, e in
                zip(x_labels, _fmt_column(surface.v[k]), g_row,
                    surface.exercise_mask[k].tolist())
            ]))
    paths["surface"] = surface_path

    boundary_path = os.path.join(directory, "boundary.csv")
    with open(boundary_path, "w", encoding="utf-8") as fh:
        fh.write("t,b\n")
        fh.write("".join([f"{t},{b}\n" for t, b in
                          zip(_fmt_column(boundary.t_nodes), _fmt_column(boundary.values))]))
    paths["boundary"] = boundary_path
    return paths


def export_paths_csv(bundle, directory: str) -> str:
    path = os.path.join(directory, "paths.csv")
    steps = [f"{k},{t}," for k, t in enumerate(_fmt_column(bundle.times()))]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("path,step,time,state\n")
        for i in range(bundle.n_paths):
            fh.write("".join([f"{i},{step}{x}\n" for step, x in
                              zip(steps, _fmt_column(bundle.states[i]))]))
    return path


def export_artifacts(artifacts: RunArtifacts, directory: str, bundles=None) -> dict[str, str]:
    """Write every artifact, reports.json and summary.txt last: they carry the
    export time spent before them (the CSVs and config.cfg)."""
    t0 = time.perf_counter()
    os.makedirs(directory, exist_ok=True)
    files = export_surface(artifacts.surface, artifacts.boundary, directory)

    config_path = os.path.join(directory, "config.cfg")
    with open(config_path, "w", encoding="utf-8") as fh:
        fh.write(save_config_text(artifacts.config))
    files["config"] = config_path

    if bundles:
        for bundle in bundles.values():
            files["paths"] = export_paths_csv(bundle, directory)
    artifacts.timings["export"] = time.perf_counter() - t0

    report_doc = {
        "run_id": artifacts.run_id,
        "config_digest": hashlib.sha256(save_config_text(artifacts.config).encode()).hexdigest(),
        "checks": [r.to_dict() for r in artifacts.reports],
        "timings": {k: round(v, 6) for k, v in artifacts.timings.items()},
    }
    reports_path = os.path.join(directory, "reports.json")
    with open(reports_path, "w", encoding="utf-8") as fh:
        json.dump(report_doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    files["reports"] = reports_path

    summary_path = os.path.join(directory, "summary.txt")
    with open(summary_path, "w", encoding="utf-8") as fh:
        fh.write(summary_text(artifacts))
    files["summary"] = summary_path
    return files


def summary_text(artifacts: RunArtifacts) -> str:
    lines = [
        f"run {artifacts.config.name}  (id {artifacts.run_id})",
        f"grid: {artifacts.surface.grid.nt}x{artifacts.surface.grid.nx}, "
        f"theta={artifacts.surface.meta.theta}, "
        f"solver worst residual {artifacts.surface.meta.psor_worst_residual:.3g}",
    ]
    for w in artifacts.warnings:
        lines.append(f"warning: {w}")
    finite = np.isfinite(artifacts.boundary.values)
    if finite.any():
        lines.append(
            f"boundary: {int(finite.sum())} finite nodes in "
            f"[{np.min(artifacts.boundary.values[finite]):.6g}, "
            f"{np.max(artifacts.boundary.values[finite]):.6g}]"
        )
    else:
        lines.append("boundary: no finite nodes (single-region surface)")
    if artifacts.boundary.non_separated:
        lines.append(
            f"warning: {len(artifacts.boundary.non_separated)} time slices are not "
            "separated into one stopping and one continuation interval"
        )
    if artifacts.lsmc is not None:
        lines.append(
            f"lsmc: {artifacts.lsmc.estimate:.6g} +- {artifacts.lsmc.standard_error:.2g}"
        )
    for r in artifacts.reports:
        lines.append(f"check {r.check_name}: {r.verdict} "
                     f"(worst {r.worst_violation:.3g}, tol {r.tolerance:.3g})")
    lines.append("timings: " + ", ".join(f"{k}={v:.3f}s" for k, v in artifacts.timings.items()))
    return "\n".join(lines) + "\n"
