"""Backward-in-time finite-difference solver for the stopping obstacle problem.

Each backward step discretizes

    min( v - g,  -(d/dt + mu d/dx + sigma^2/2 d/dx2) v - f ) = 0

with a theta-scheme in time (theta = 1/2 plus two fully implicit startup
steps to damp obstacle-kink oscillations) and Pecle-switched differencing in
space: central where |mu| dx / sigma^2 <= 2, first-order upwind otherwise,
which keeps the system an M-matrix where advection dominates (bridge-type
drifts near the horizon).  The per-step linear complementarity problem is
solved by projected SOR with red-black sweeps; spatial edges carry Dirichlet
values equal to the obstacle, which is exact when the stopping region reaches
the edge and otherwise relies on the grid pad to keep edge effects away from
the region of interest.

The coefficients are read from the samples taken once per run by
``validate_problem``; the original frame of a reflected problem is derived
from them by reversal and negation, which is exact.  One helper assembles
each backward step, for the solver and for the residual check alike.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import Grid, GridError, make_grid, pole_offset
from .problems import (
    Discretization,
    Orientation,
    StateSpace,
    ValidatedProblem,
    reference_state,
    reflect_problem,
)

PSOR_TOL = 1e-8
PSOR_MAX_SWEEPS = 10_000
PECLET_SWITCH = 2.0
NEG_INF = float("-inf")
POS_INF = float("inf")


class SolverError(RuntimeError):
    pass


@dataclass(frozen=True)
class SchemeMeta:
    theta: float
    rannacher: bool
    psor_sweeps: np.ndarray  # sweeps used per backward step
    psor_worst_residual: float


@dataclass(frozen=True)
class ValueSurface:
    grid: Grid
    v: np.ndarray          # (nt+1, nx+1)
    obstacle: np.ndarray   # same shape
    exercise_mask: np.ndarray  # v - obstacle <= tol_contact
    tol_contact: float
    problem: ValidatedProblem
    meta: SchemeMeta

    @property
    def orientation(self) -> Orientation:
        return self.problem.spec.orientation


@dataclass(frozen=True)
class Boundary:
    """Per-time-node stopping boundary with -inf/+inf sentinels.

    For lower orientation the stopping region is at or below the boundary:
    -inf marks an all-continuation time slice, +inf an all-stopping one.
    Upper orientation mirrors both conventions.
    """

    t_nodes: np.ndarray
    values: np.ndarray
    orientation: Orientation
    cell_size: float
    non_separated: tuple[int, ...] = ()


def build_grid(problem, x_pad: float, nt: int, nx: int, x_ref: float | None = None) -> Grid:
    """Grid covering x_ref +- x_pad diffusion scales, shaved before any pole.

    The diffusion scale is max sigma over a unit-sized probe window around
    x_ref times sqrt(T).  Positive-half-line grids clip x_min to one cell.
    """
    spec = problem.spec if isinstance(problem, ValidatedProblem) else problem
    if nt < 2 or nx < 2:
        raise GridError(f"need nt, nx >= 2, got nt={nt}, nx={nx}")
    half_line = spec.state_space is StateSpace.POSITIVE_HALF_LINE
    x_ref = reference_state(spec, x_ref)
    window = max(1.0, abs(x_ref))
    probe = np.linspace(x_ref - window, x_ref + window, 41)
    if half_line:
        probe = probe[probe > 0]
        if probe.size == 0:
            probe = np.linspace(x_ref / 2, 2 * x_ref, 41)
    sig = np.asarray(spec.diffusion.row(0.0, probe), dtype=float)
    scale = float(np.max(np.abs(sig))) * np.sqrt(spec.horizon)
    if not (np.isfinite(scale) and scale > 0):
        raise GridError(f"degenerate diffusion scale {scale!r} around x_ref={x_ref}")

    x_min = x_ref - x_pad * scale
    x_max = x_ref + x_pad * scale
    if half_line and x_min <= 0:
        x_min = x_max / nx  # one cell above the origin
    if not (x_min < x_max):
        raise GridError(f"degenerate x-range [{x_min}, {x_max}]")

    t_end = spec.horizon - (pole_offset(spec.horizon, nt) if spec.pole_at_horizon else 0.0)
    return make_grid(t_end, x_min, x_max, nt, nx)


def _operator_coefficients(mu: np.ndarray, sig2: np.ndarray, dx: float):
    """Tridiagonal coefficients of the spatial generator on interior nodes.

    Returns (lower, diag, upper) with rows summing to zero.  The cell Peclet
    number is |mu| dx / (sigma^2 / 2); switching to upwind beyond 2 keeps all
    off-diagonal entries nonnegative (M-matrix), which both preserves
    monotonicity where advection dominates and keeps projected Gauss-Seidel
    globally convergent.
    """
    dif = sig2 / (2.0 * dx * dx)
    with np.errstate(divide="ignore", invalid="ignore"):
        peclet = np.where(sig2 > 0, np.abs(mu) * dx / np.where(sig2 > 0, 0.5 * sig2, 1.0), np.inf)
        peclet = np.where((sig2 == 0) & (mu == 0), 0.0, peclet)
    central = peclet <= PECLET_SWITCH
    adv_p = np.maximum(mu, 0.0) / dx
    adv_m = np.maximum(-mu, 0.0) / dx

    lower = np.where(central, dif - mu / (2.0 * dx), dif + adv_m)
    upper = np.where(central, dif + mu / (2.0 * dx), dif + adv_p)
    diag = np.where(central, -2.0 * dif, -(2.0 * dif + adv_p + adv_m))
    return lower, diag, upper


def _tridiag_apply(lower, diag, upper, v):
    out = diag * v
    out[1:] += lower[1:] * v[:-1]
    out[:-1] += upper[:-1] * v[1:]
    return out


def _auto_omega(lower, diag, upper, n: int) -> float:
    # Jacobi radius estimate via the diagonal similarity that symmetrizes a
    # tridiagonal with nonnegative off-diagonal products: 2 sqrt(l*u) / d.
    # The (|l|+|u|)/d bound overshoots badly on advection-dominated rows and
    # drives SOR unstable there.
    prod = np.abs(lower * upper)
    ratio = 2.0 * np.max(np.sqrt(prod) / diag)
    rho = min(float(ratio) * np.cos(np.pi / (n + 1)), 1.0 - 1e-12)
    if rho <= 0:
        return 1.0
    omega = 2.0 / (1.0 + np.sqrt(1.0 - rho * rho))
    return float(min(max(omega, 1.0), 1.9))


def _psor(lower, diag, upper, rhs, psi, v0, omega, tol, max_sweeps, where):
    """Projected SOR for the tridiagonal LCP min(v - psi, A v - rhs) = 0.

    Red-black ordering so each half-sweep vectorizes; on a tridiagonal
    matrix this is a consistently ordered reordering of lexicographic PSOR.
    Returns (v, sweeps, residual); starting from the previous time level
    usually converges in a handful of sweeps.
    """
    v = np.maximum(v0, psi)
    m = v.size

    def residual(vcur):
        return float(np.max(np.abs(np.minimum(vcur - psi, _tridiag_apply(lower, diag, upper, vcur) - rhs))))

    res = residual(v)
    if res <= tol:
        return v, 0, res

    res0 = res
    res_prev = res
    stalls = 0
    left = np.empty_like(v)
    right = np.empty_like(v)
    for sweep in range(1, max_sweeps + 1):
        for start in (0, 1):
            left[0] = 0.0
            left[1:] = lower[1:] * v[:-1]
            right[-1] = 0.0
            right[:-1] = upper[:-1] * v[1:]
            gs = (rhs - left - right) / diag
            sl = slice(start, m, 2)
            v[sl] = np.maximum(psi[sl], (1.0 - omega) * v[sl] + omega * gs[sl])
        res = residual(v)
        if res <= tol:
            return v, sweep, res
        if omega > 1.0:
            # over-relaxation can cycle on an active obstacle with a
            # nonsymmetric matrix; plain projected Gauss-Seidel is provably
            # convergent for M-matrix complementarity problems
            if res > 10.0 * res0:
                omega = 1.0
                v = np.maximum(v0, psi)
                res = res0 = residual(v)
            else:
                stalls = stalls + 1 if res > 0.9 * res_prev else 0
                if stalls >= 5:
                    omega = 1.0
        res_prev = res
    raise SolverError(
        f"projected SOR did not reach residual {tol:g} in {max_sweeps} sweeps "
        f"({where}); worst residual {res:g}"
    )


def _step_theta(theta: float, rannacher: bool, k: int, nt: int) -> float:
    if rannacher and theta != 1.0 and k >= nt - 2:
        return 1.0
    return theta


def _backward_steps(disc: Discretization, theta: float, rannacher: bool, v: np.ndarray):
    """Assemble each backward step's tridiagonal system, from k = nt-1 down to 0.

    Yields (k, lower, diag, upper, rhs) for the interior unknowns v[k, 1:-1].
    The right-hand side reads v[k + 1], so the caller fills each slice
    before the next step is assembled; the Dirichlet edges v[k, 0] and
    v[k, -1] must be set beforehand and are folded into rhs.
    """
    grid = disc.grid
    nt, dt, dx = grid.nt, grid.dt, grid.dx
    sig2_i = (disc.sigma * disc.sigma)[1:-1]
    f = disc.f
    co_next = _operator_coefficients(disc.mu[nt, 1:-1], sig2_i, dx)
    for k in range(nt - 1, -1, -1):
        th = _step_theta(theta, rannacher, k, nt)
        co_now = lo_n, di_n, up_n = _operator_coefficients(disc.mu[k, 1:-1], sig2_i, dx)
        lo_x, di_x, up_x = co_next
        vn = v[k + 1]
        rhs = vn[1:-1] + (1.0 - th) * dt * (lo_x * vn[:-2] + di_x * vn[1:-1] + up_x * vn[2:])
        if f is not None:
            rhs = rhs + dt * (th * f[k][1:-1] + (1.0 - th) * f[k + 1][1:-1])
        rhs[0] += th * dt * lo_n[0] * v[k, 0]
        rhs[-1] += th * dt * up_n[-1] * v[k, -1]
        yield k, -th * dt * lo_n, 1.0 - th * dt * di_n, -th * dt * up_n, rhs
        co_next = co_now


def solve_backward(problem: ValidatedProblem, grid: Grid, theta: float = 0.5, *,
                   psor_tol: float = PSOR_TOL, max_sweeps: int = PSOR_MAX_SWEEPS,
                   rannacher: bool = True) -> ValueSurface:
    """Solve the obstacle problem backward from the terminal reward.

    The terminal slice equals the obstacle exactly; every earlier slice is
    the projected theta-scheme step, so v >= obstacle holds at every node by
    construction.  The obstacle is the validated sample of the terminal
    reward; spatial edges carry Dirichlet values equal to it.
    """
    disc = problem.samples_on(grid)
    ts = grid.t_nodes
    psi = disc.g

    v = np.empty((grid.nt + 1, grid.nx + 1))
    v[-1] = psi[-1]
    v[:, 0] = psi[:, 0]
    v[:, -1] = psi[:, -1]
    sweeps = np.zeros(grid.nt, dtype=int)
    worst_res = 0.0
    for k, lower, diag, upper, rhs in _backward_steps(disc, theta, rannacher, v):
        omega = _auto_omega(lower, diag, upper, grid.nx - 1)
        v_int, sw, res = _psor(
            lower, diag, upper, rhs, psi[k][1:-1],
            np.maximum(v[k + 1, 1:-1], psi[k][1:-1]),
            omega, psor_tol, max_sweeps, where=f"t={ts[k]:.6g}",
        )
        v[k, 1:-1] = v_int
        sweeps[k] = sw
        worst_res = max(worst_res, res)

    tol_contact = 1e-7 * (1.0 + float(np.max(np.abs(psi))))
    mask = (v - psi) <= tol_contact
    meta = SchemeMeta(theta=theta, rannacher=rannacher, psor_sweeps=sweeps,
                      psor_worst_residual=worst_res)
    return ValueSurface(grid=grid, v=v, obstacle=psi, exercise_mask=mask,
                        tol_contact=tol_contact, problem=problem, meta=meta)


def extract_boundary(surface: ValueSurface) -> Boundary:
    """Read the stopping boundary off the exercise mask, one value per time node.

    Works on lower-orientation surfaces: per time slice the boundary is the
    largest interior node still marked stopped, -inf if the slice is all
    continuation and +inf if all stopping.  Edge columns are excluded: the
    Dirichlet condition pins v = obstacle there regardless of the true
    region.  Slices whose mask is not of the form "stop below, continue
    above" are collected as non-separated warnings rather than forced.
    """
    if surface.orientation is not Orientation.LOWER:
        raise SolverError("extract_boundary expects a lower-orientation surface; flip first")
    xs = surface.grid.x_nodes
    mask = surface.exercise_mask[:, 1:-1]
    nt = surface.grid.nt
    values = np.empty(nt + 1)
    bad_rows = []
    for k in range(nt + 1):
        row = mask[k]
        if not row.any():
            values[k] = NEG_INF
        elif row.all():
            values[k] = POS_INF
        else:
            j = int(np.nonzero(row)[0][-1])
            values[k] = xs[1 + j]
            # separated slices are a true-prefix followed by a false-suffix
            if not row[: j + 1].all():
                bad_rows.append(k)
    return Boundary(
        t_nodes=surface.grid.t_nodes.copy(),
        values=values,
        orientation=Orientation.LOWER,
        cell_size=surface.grid.dx,
        non_separated=tuple(bad_rows),
    )


def unflip_surface(surface: ValueSurface, original) -> ValueSurface:
    """Map a surface solved on the reflected problem back to the original axis.

    ``original`` is the original problem, validated or as a spec.  Its
    samples are the solved ones reflected (``reflect_problem``), not a fresh
    sampling, and negation mirrors the grid nodes bit for bit.
    """
    spec = original.spec if isinstance(original, ValidatedProblem) else original
    problem = reflect_problem(surface.problem, spec, surface.grid)
    return ValueSurface(
        grid=problem.disc.grid,
        v=surface.v[:, ::-1].copy(),
        obstacle=surface.obstacle[:, ::-1].copy(),
        exercise_mask=surface.exercise_mask[:, ::-1].copy(),
        tol_contact=surface.tol_contact,
        problem=problem,
        meta=surface.meta,
    )


def unflip_boundary(boundary: Boundary) -> Boundary:
    """Negate a lower boundary into the upper boundary of the original problem."""
    return Boundary(
        t_nodes=boundary.t_nodes.copy(),
        values=-boundary.values,
        orientation=Orientation.UPPER,
        cell_size=boundary.cell_size,
        non_separated=boundary.non_separated,
    )


def residual_complementarity(surface: ValueSurface):
    """A posteriori check that the surface satisfies its own discrete system.

    Re-assembles each backward step and measures, on interior nodes, the
    linear-system residual on continuation nodes, the contact gap on
    stopping nodes, obstacle violations, and wrong-sided stopping nodes.
    The tolerance scales with (dt + dx^2) times the magnitude of the
    discrete generator terms.
    """
    from .reports import CheckReport, FAIL, PASS

    grid = surface.grid
    xi = grid.x_nodes[1:-1]
    dt, dx = grid.dt, grid.dx
    psi = surface.obstacle
    v = surface.v
    disc = surface.problem.samples_on(grid)

    worst = 0.0
    witness = None
    coef_scale = 1.0
    for k, lower, diag, upper, rhs in _backward_steps(disc, surface.meta.theta,
                                                      surface.meta.rannacher, v):
        av = _tridiag_apply(lower, diag, upper, v[k, 1:-1])
        gap = v[k, 1:-1] - psi[k, 1:-1]
        stopping = surface.exercise_mask[k, 1:-1]
        res = np.where(stopping, np.abs(gap), np.abs(av - rhs))
        res = np.maximum(res, np.maximum(0.0, -gap))          # obstacle violation
        res = np.maximum(res, np.where(stopping, np.maximum(0.0, rhs - av), 0.0))
        j = int(np.argmax(res))
        if res[j] > worst:
            worst = float(res[j])
            witness = (float(grid.t_nodes[k]), float(xi[j]))
        gen_scale = np.max(np.abs(av - v[k, 1:-1])) / max(dt, 1e-300)
        coef_scale = max(coef_scale, float(gen_scale))

    tol = 10.0 * (dt + dx * dx) * coef_scale
    return CheckReport(
        check_name="residual_complementarity",
        verdict=PASS if worst <= tol else FAIL,
        worst_violation=worst,
        witness=witness,
        tolerance=tol,
        notes=f"max discrete complementarity residual over {grid.nt} backward steps",
    )


def value_at(surface: ValueSurface, t: float, x: float) -> float:
    """Bilinear interpolation of the solved value at an off-grid point."""
    ts, xs = surface.grid.t_nodes, surface.grid.x_nodes
    k = int(np.clip(np.searchsorted(ts, t) - 1, 0, len(ts) - 2))
    j = int(np.clip(np.searchsorted(xs, x) - 1, 0, len(xs) - 2))
    wt = 0.0 if ts[k + 1] == ts[k] else (t - ts[k]) / (ts[k + 1] - ts[k])
    wx = 0.0 if xs[j + 1] == xs[j] else (x - xs[j]) / (xs[j + 1] - xs[j])
    wt, wx = float(np.clip(wt, 0, 1)), float(np.clip(wx, 0, 1))
    v = surface.v
    return float(
        (1 - wt) * ((1 - wx) * v[k, j] + wx * v[k, j + 1])
        + wt * ((1 - wx) * v[k + 1, j] + wx * v[k + 1, j + 1])
    )
