"""Grid-sampled checks of monotonicity hypotheses and solved-surface conclusions.

All verdicts are "at grid scale": the coefficient fields are black-box
evaluators, so hypotheses are sampled on probe pairs, never proved.  The
monotonicity tolerances are the solver's round-off rule (``round_off``), so an
exact zero on the grid passes and a violation above round-off fails; region
checks read the exercise mask, which is the solver's own stop set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .fields import ScalarField
from .grids import Grid
from .reports import CheckReport, FAIL, INCONCLUSIVE, PASS
from .simulate import TOL_ZERO, LsmcValue, comparison_report
from .solver import (
    NEG_INF,
    POS_INF,
    Boundary,
    ValueSurface,
    residual_complementarity,
    round_off,
    value_at,
)
from .problems import Orientation, ValidatedProblem, sample_rows

EVERYWHERE = "everywhere"
WHERE_DRIFT_NEGATIVE = "where_drift_negative"


def _reward_x_monotone(rows: np.ndarray, grid: Grid) -> CheckReport:
    tol = round_off(rows)
    drops = rows[:, :-1] - rows[:, 1:]  # positive where the reward decreases
    worst = float(np.max(drops))
    if worst <= tol:
        return CheckReport("reward_x_monotone", PASS, worst, None, tol,
                           "reward nondecreasing in x on all probe pairs")
    k, j = np.argwhere(drops > tol)[0]
    witness = (float(grid.t_nodes[k]), float(grid.x_nodes[j]))
    return CheckReport("reward_x_monotone", FAIL, worst, witness, tol,
                       f"reward decreases between x={grid.x_nodes[j]} and x={grid.x_nodes[j + 1]}")


def check_reward_monotone_in_state(g: ScalarField, grid: Grid) -> CheckReport:
    """Is the reward nondecreasing in the state at every probed time?"""
    return _reward_x_monotone(sample_rows(g, grid), grid)


def _drift_t_monotone(rows: np.ndarray, grid: Grid, scope: str) -> CheckReport:
    if scope not in (EVERYWHERE, WHERE_DRIFT_NEGATIVE):
        raise ValueError(f"unknown scope {scope!r}")
    tol = round_off(rows)
    rises = rows[1:, :] - rows[:-1, :]  # positive where drift increases with t
    if scope == WHERE_DRIFT_NEGATIVE:
        in_region = rows[1:, :] < -TOL_ZERO  # later point must be in the region
        rises = np.where(in_region, rises, -np.inf)
        if not in_region.any():
            return CheckReport(f"drift_time_monotone_{scope}", INCONCLUSIVE, 0.0, None, tol,
                               "negative-drift region is empty on the probe grid")
    worst = float(np.max(rises))
    name = f"drift_time_monotone_{scope}"
    if worst <= tol:
        return CheckReport(name, PASS, worst, None, tol,
                           f"drift nonincreasing in t ({scope}) on all probe pairs")
    k, j = np.argwhere(rises > tol)[0]
    witness = (float(grid.t_nodes[k + 1]), float(grid.x_nodes[j]))
    return CheckReport(name, FAIL, worst, witness, tol,
                       f"drift increases between t={grid.t_nodes[k]} and t={grid.t_nodes[k + 1]}")


def check_drift_time_monotone(mu: ScalarField, grid: Grid,
                              scope: str = EVERYWHERE) -> CheckReport:
    """Is the drift nonincreasing in time, everywhere or on its negative region?

    In the region scope a pair (t_k, t_{k+1}) at fixed x counts only when the
    later point has strictly negative drift, matching a hypothesis quantified
    over the negative-drift region; the check is consecutive-pair, hence at
    grid scale only.
    """
    return _drift_t_monotone(sample_rows(mu, grid), grid, scope)


def _running_monotone(rows: np.ndarray, grid: Grid) -> CheckReport:
    x_part = _reward_x_monotone(rows, grid)
    t_part = _drift_t_monotone(rows, grid, EVERYWHERE)
    worst = max((x_part, t_part), key=lambda r: r.worst_violation)  # a tie picks x_part
    verdict = PASS if x_part.verdict == PASS and t_part.verdict == PASS else FAIL
    return CheckReport("running_reward_monotone", verdict, worst.worst_violation,
                       worst.witness, worst.tolerance,
                       f"x-monotone: {x_part.verdict}, t-monotone: {t_part.verdict}")


def check_running_reward_monotone(h: ScalarField, grid: Grid) -> CheckReport:
    """Nondecreasing in x and nonincreasing in t, as two sub-verdicts."""
    return _running_monotone(sample_rows(h, grid), grid)


@dataclass(frozen=True)
class RegionMasks:
    """Node classification of a solved surface.

    continuation/stopping partition the nodes, as do negative_drift and its
    complement (drift >= 0 up to the zero threshold).
    """

    continuation: np.ndarray
    stopping: np.ndarray
    negative_drift: np.ndarray
    nonnegative_drift: np.ndarray


def classify_regions(surface: ValueSurface) -> RegionMasks:
    mu = surface.problem.samples_on(surface.grid).mu
    negative = mu < -TOL_ZERO
    stopping = surface.exercise_mask
    return RegionMasks(
        continuation=~stopping,
        stopping=stopping,
        negative_drift=negative,
        nonnegative_drift=~negative,
    )


def _near_mask_transition(mask: np.ndarray) -> np.ndarray:
    """Nodes within one cell (in t or x) of an exercise-mask transition."""
    near = np.zeros_like(mask, dtype=bool)
    flip_x = mask[:, 1:] != mask[:, :-1]
    near[:, 1:] |= flip_x
    near[:, :-1] |= flip_x
    flip_t = mask[1:, :] != mask[:-1, :]
    near[1:, :] |= flip_t
    near[:-1, :] |= flip_t
    return near


def check_drift_curvature_balance(surface: ValueSurface) -> CheckReport:
    """On continuation nodes with nonnegative drift, does
    sigma^2 * v_xx + 2 * mu * v_x stay nonnegative?

    Uses central differences on interior nodes; nodes within one cell of a
    mask transition are excluded because the obstacle kink pollutes the
    discrete second derivative there.  Convexity of the value in x makes the
    condition automatic wherever the value is also nondecreasing in x.
    """
    grid = surface.grid
    xs = grid.x_nodes
    dx = grid.dx
    v = surface.v
    disc = surface.problem.samples_on(grid)

    masks = classify_regions(surface)
    eligible = masks.continuation & masks.nonnegative_drift
    eligible &= ~_near_mask_transition(surface.exercise_mask)
    eligible[:, 0] = eligible[:, -1] = False  # need both x-neighbours
    if not eligible.any():
        return CheckReport("drift_curvature_balance", INCONCLUSIVE, 0.0, None, 0.0,
                           "no continuation nodes with nonnegative drift to probe")

    sig2 = disc.sigma * disc.sigma
    vx = np.empty_like(v)
    vxx = np.empty_like(v)
    vx[:, 1:-1] = (v[:, 2:] - v[:, :-2]) / (2.0 * dx)
    vxx[:, 1:-1] = (v[:, 2:] - 2.0 * v[:, 1:-1] + v[:, :-2]) / (dx * dx)
    vx[:, 0] = vx[:, -1] = 0.0
    vxx[:, 0] = vxx[:, -1] = 0.0
    mu = disc.mu
    quantity = sig2 * vxx + 2.0 * mu * vx

    scale = max(
        1.0,
        float(np.max(np.abs(sig2 * vxx)[eligible])),
        float(np.max(np.abs(2.0 * mu * vx)[eligible])),
    )
    tol = 10.0 * dx * scale
    deficit = np.where(eligible, -quantity, -np.inf)
    worst = float(np.max(deficit))
    if worst <= tol:
        return CheckReport("drift_curvature_balance", PASS, worst, None, tol,
                           f"{int(eligible.sum())} nodes probed")
    k, j = np.argwhere(deficit > tol)[0]
    witness = (float(grid.t_nodes[k]), float(xs[j]))
    return CheckReport("drift_curvature_balance", FAIL, worst, witness, tol,
                       f"curvature-drift balance negative at {int((deficit > tol).sum())} nodes")


def check_value_time_monotone(surface: ValueSurface) -> CheckReport:
    """Is the solved value nonincreasing in time at every node?  The tolerance is v's round-off."""
    v = surface.v
    tol = round_off(v)
    rises = v[1:] - v[:-1]
    worst = float(np.max(rises))
    if worst <= tol:
        return CheckReport("value_time_monotone", PASS, worst, None, tol,
                           "value nonincreasing in t at every node")
    k, j = np.argwhere(rises > tol)[0]
    witness = (float(surface.grid.t_nodes[k + 1]), float(surface.grid.x_nodes[j]))
    return CheckReport("value_time_monotone", FAIL, worst, witness, tol,
                       f"value increases in t at {int((rises > tol).sum())} nodes")


def _sentinel_rank(b: float) -> int:
    if b == NEG_INF:
        return -1
    if b == POS_INF:
        return 1
    return 0


def check_boundary_monotone(boundary: Boundary) -> CheckReport:
    """Is the boundary monotone in the direction its orientation implies?

    Lower boundaries must be nondecreasing, upper boundaries nonincreasing,
    both with one-cell slack on finite pairs.  Sentinel transitions must
    respect the same order (e.g. all-continuation before finite before
    all-stopping for the lower case).  A violation FAILs wherever it is.  A
    boundary with a non-separated slice is not a function of t there, so
    where the scan finds no violation the check is INCONCLUSIVE and names
    the first such slice.
    """
    b = boundary.values
    ts = boundary.t_nodes
    dx = boundary.cell_size
    lower = boundary.orientation is Orientation.LOWER
    sign = 1.0 if lower else -1.0
    worst = -np.inf
    witness = None
    notes = "nondecreasing" if lower else "nonincreasing"
    for k in range(len(b) - 1):
        a, c = sign * b[k], sign * b[k + 1]
        ra, rc = _sentinel_rank(a), _sentinel_rank(c)
        if ra == 0 and rc == 0:
            drop = a - c  # positive where the boundary moves the wrong way
            if drop > worst:
                worst = drop
                if drop > dx:
                    witness = witness or (float(ts[k + 1]), float(b[k + 1]))
        elif rc < ra:
            return CheckReport(
                "boundary_monotone", FAIL, float("inf"),
                (float(ts[k + 1]), float(b[k + 1])), dx,
                f"sentinel order violated between steps {k} and {k + 1}",
            )
    if worst > dx:
        return CheckReport("boundary_monotone", FAIL, float(worst), witness, dx,
                           f"boundary violates {notes} beyond one cell")
    finite_pairs = worst != -np.inf
    worst = float(worst) if finite_pairs else 0.0
    if boundary.non_separated:
        k = boundary.non_separated[0]
        return CheckReport("boundary_monotone", INCONCLUSIVE, worst, (float(ts[k]), float(b[k])), dx,
                           f"non-separated slices, the first at t={ts[k]:.6g}")
    if not finite_pairs:
        return CheckReport("boundary_monotone", PASS, 0.0, None, dx,
                           f"no finite pairs; sentinel order consistent ({notes})")
    return CheckReport("boundary_monotone", PASS, worst, None, dx,
                       f"boundary {notes} within one cell")


def check_value_continuity(surface: ValueSurface) -> CheckReport:
    """Heuristic a posteriori continuity scan of the solved surface.

    Flags isolated jumps between neighbours that are out of scale with the
    surface's total variation; a smooth surface has max jump comparable to
    range * cell / extent.
    """
    grid = surface.grid
    v = surface.v
    # a node holds the largest jump landing on it from the left or from the step before;
    # a time jump counts beyond one step of transport (near a pole that spans many cells)
    courant = np.abs(surface.problem.samples_on(grid).mu[:-1]) * grid.steps[:, None] / grid.dx
    jumps = np.zeros_like(v)
    jumps[:, 1:] = np.abs(np.diff(v, axis=1))
    jumps[1:] = np.maximum(jumps[1:], np.abs(np.diff(v, axis=0)) / (1.0 + courant))
    k, j = np.unravel_index(np.argmax(jumps), jumps.shape)
    worst = float(jumps[k, j])
    vrange = float(np.max(v) - np.min(v))
    if vrange == 0.0:
        return CheckReport("value_continuity", PASS, 0.0, None, 0.0, "flat surface")
    x_extent = float(grid.x_nodes[-1] - grid.x_nodes[0])
    t_extent = max(float(grid.t_nodes[-1] - grid.t_nodes[0]), grid.dt)
    tol = 50.0 * vrange * max(grid.dx / x_extent, grid.dt / t_extent)
    verdict = PASS if worst <= tol else FAIL
    witness = (float(grid.t_nodes[k]), float(grid.x_nodes[j])) if verdict == FAIL else None
    return CheckReport("value_continuity", verdict, worst, witness, tol,
                       f"max neighbour jump vs 50x the smooth-surface scale {tol:.3g}")


# ---------------------------------------------------------------------------
# registry: every check name, what it needs and the function to call

FIELDS = "fields"          # the coefficient samples only; `stoplab check` runs these
SURFACE = "surface"        # the solved surface and boundary
SIMULATION = "simulation"  # the coupled bundles or the LSMC estimate


@dataclass(frozen=True)
class CheckInputs:
    """What a registered check reads; a field-only run leaves the rest unset.

    ``problem`` is sampled on the checked grid (the surface grid when there
    is a surface).
    """

    problem: ValidatedProblem
    surface: Optional[ValueSurface] = None
    boundary: Optional[Boundary] = None
    couplings: tuple = ()          # CoupledBundle per configured coupling
    c_ord: float = 1.0
    lsmc: Optional[LsmcValue] = None
    lsmc_point: Optional[tuple[float, float]] = None


def _inconclusive(name: str, why: str) -> CheckReport:
    return CheckReport(name, INCONCLUSIVE, 0.0, None, 0.0, why)


def _running_reward_check(run: CheckInputs) -> CheckReport:
    disc = run.problem.disc
    if disc.f is None:
        return _inconclusive("running_reward_monotone", "problem has no running reward")
    return _running_monotone(disc.f, disc.grid)


def _coupling_order(run: CheckInputs) -> CheckReport:
    if not run.couplings:
        return _inconclusive("coupling_order", "no couplings configured")
    reports = [comparison_report(cb, c_ord=run.c_ord) for cb in run.couplings]
    worst = max(reports, key=lambda r: r.worst_violation - r.tolerance)
    verdict = PASS if all(r.verdict == PASS for r in reports) else FAIL
    notes = "; ".join(
        f"(u={cb.early.start_time}, t={cb.late.start_time}, x={cb.late.start_state}): "
        f"{r.verdict} worst={r.worst_violation:.3g}"
        for cb, r in zip(run.couplings, reports)
    )
    return CheckReport("coupling_order", verdict, worst.worst_violation,
                       worst.witness, worst.tolerance, notes)


def _lsmc_cross_check(run: CheckInputs) -> CheckReport:
    if run.lsmc is None:
        return _inconclusive("lsmc_cross_check", "lsmc not configured")
    t0, x0 = run.lsmc_point
    fd_value = value_at(run.surface, t0, x0)
    gap = abs(fd_value - run.lsmc.estimate)
    tol = max(3.0 * run.lsmc.standard_error, 5e-3)
    return CheckReport(
        "lsmc_cross_check",
        PASS if gap <= tol else FAIL,
        gap,
        (t0, x0),
        tol,
        f"fd={fd_value:.6g}, lsmc={run.lsmc.estimate:.6g} "
        f"(se={run.lsmc.standard_error:.2g})",
    )


# entries call by global name so that wrapping a check_* function reaches them
CHECKS = {
    "reward_x_monotone": (FIELDS, lambda run: _reward_x_monotone(
        run.problem.disc.g, run.problem.disc.grid)),
    "drift_time_monotone_everywhere": (FIELDS, lambda run: _drift_t_monotone(
        run.problem.disc.mu, run.problem.disc.grid, EVERYWHERE)),
    "drift_time_monotone_where_drift_negative": (FIELDS, lambda run: _drift_t_monotone(
        run.problem.disc.mu, run.problem.disc.grid, WHERE_DRIFT_NEGATIVE)),
    "drift_curvature_balance": (SURFACE, lambda run: check_drift_curvature_balance(run.surface)),
    "running_reward_monotone": (FIELDS, _running_reward_check),
    "value_time_monotone": (SURFACE, lambda run: check_value_time_monotone(run.surface)),
    "boundary_monotone": (SURFACE, lambda run: check_boundary_monotone(run.boundary)),
    "residual_complementarity": (SURFACE, lambda run: residual_complementarity(run.surface)),
    "value_continuity": (SURFACE, lambda run: check_value_continuity(run.surface)),
    "coupling_order": (SIMULATION, _coupling_order),
    "lsmc_cross_check": (SIMULATION, _lsmc_cross_check),
}
