"""Backward-in-time finite-difference solver for the stopping obstacle problem.

Each backward step discretizes

    min( v - g,  -(d/dt + mu d/dx + sigma^2/2 d/dx2) v - f ) = 0

with a theta-scheme in time (theta = 1/2 plus two fully implicit startup
steps to damp obstacle-kink oscillations) and Peclet-switched differencing in
space: central where |mu| dx / sigma^2 <= 2, first-order upwind otherwise,
which keeps the interior rows an M-matrix where advection dominates
(bridge-type drifts near the horizon).  Every node is an unknown.  The two
edge nodes carry the linear far-field row (Windcliff, Forsyth & Vetzal, J.
Comput. Finance 2004): the drift term differenced one-sided toward the
interior, and the diffusion term taken from the obstacle, so that v - g has
no curvature at the edge.  The per-step linear complementarity problem is
solved exactly by policy iteration, each iteration one tridiagonal solve by
cyclic reduction.

The time mesh is uniform, or graded toward a drift pole at the horizon
(``grids.time_nodes``); each step reads its own size.  The coefficients are
read from the samples taken once per run by ``validate_problem``.  One
generator, ``_step_blocks``, assembles the backward steps STEP_BLOCK at a
time, with one coefficient build per block; the solver walks its rows one
step at a time and the residual check takes each block whole.  The
discrete problem has no side, so lower and upper boundary problems are
solved alike on the user's axis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import Grid, GridError, time_nodes
from .problems import (
    Discretization,
    Orientation,
    StateSpace,
    ValidatedProblem,
    reference_state,
    reflect_problem,
)

PECLET_SWITCH = 2.0
STEP_BLOCK = 16   # backward steps assembled at once; the (16, nx + 1) arrays stay in cache
NEG_INF = float("-inf")
POS_INF = float("inf")


class SolverError(RuntimeError):
    pass


@dataclass(frozen=True)
class SchemeMeta:
    theta: float
    psor_sweeps: np.ndarray  # policy iterations per backward step
    psor_worst_residual: float


@dataclass(frozen=True)
class ValueSurface:
    grid: Grid
    v: np.ndarray          # (nt+1, nx+1)
    obstacle: np.ndarray   # same shape
    exercise_mask: np.ndarray  # v <= obstacle: the solver's stop set, read with no tolerance
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
    """Grid covering x_ref +- x_pad diffusion scales, in time graded toward any pole.

    The diffusion scale is max sigma over a unit-sized probe window around
    x_ref times sqrt(T).  Positive-half-line grids clip x_min to one cell.
    The time nodes are ``time_nodes(0, T, nt, pole_at_horizon)``.
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

    pole = spec.pole_at_horizon
    return Grid(t_nodes=time_nodes(0.0, spec.horizon, nt, pole),
                x_nodes=np.linspace(x_min, x_max, nx + 1), graded=pole)


def round_off(a) -> float:
    """The round-off level of quantities of the size of ``a``: 1e-12 (1 + max|a|)."""
    return 1e-12 * (1.0 + float(np.max(np.abs(a))))


def _operator_coefficients(mu: np.ndarray, sig2: np.ndarray, dx: float):
    """Tridiagonal coefficients of the spatial generator on all nx + 1 nodes.

    Returns (lower, diag, upper) with rows summing to zero; lower[0] and
    upper[-1] are unused.  Interior rows switch from central to upwind
    differencing where the cell Peclet number |mu| dx / (sigma^2 / 2)
    exceeds 2, which keeps their off-diagonals nonnegative: in each step
    matrix I - theta dt L they are strictly dominant M-matrix rows.  The edge
    rows hold the far-field drift term, differenced toward the interior:
    mu_0 (v_1 - v_0)/dx on the left, mu_N (v_N - v_{N-1})/dx on the right
    (their diffusion term is ``_edge_source``).  An inflow edge row is an
    M-matrix row too.  An outflow edge row reads (1 - c) v_edge + c v_next,
    c = theta dt |mu|/dx, dominant only up to c = 1/2; for c < 1,
    eliminating it adds c/(1 - c) |lower| to its neighbour's diagonal, so
    the rest stays an M-matrix and cyclic reduction needs no pivoting.
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
    upper[..., 0] = mu[..., 0] / dx
    diag[..., 0] = -upper[..., 0]
    lower[..., -1] = -mu[..., -1] / dx
    diag[..., -1] = -lower[..., -1]
    return lower, diag, upper


def _step_thetas(theta: float, nt: int) -> np.ndarray:
    """Each backward step's theta: the last two steps before T are fully implicit."""
    th = np.full(nt, theta)
    th[nt - 2:] = 1.0
    return th


def _edge_source(disc: Discretization, th: np.ndarray) -> np.ndarray:
    """The far-field rows' diffusion term, per backward step and edge: (nt, 2).

    On an edge the diffusion term is the obstacle's one-sided second
    difference, sigma^2/2 (g_0 - 2 g_1 + g_2)/dx^2 on the left and its mirror
    on the right, so v - g has no curvature there; each step weighs it by
    theta like the running reward.  Raises SolverError where an edge row's
    diagonal 1 - theta dt |mu|/dx is not positive: the process leaves the
    grid within one step and the row no longer determines the edge value.
    """
    grid = disc.grid
    dx, steps = grid.dx, grid.steps
    edge_mu = disc.mu[:-1, [0, -1]] / dx
    diag = 1.0 - th[:, None] * steps[:, None] * (edge_mu * [-1.0, 1.0])
    bad = np.argwhere(~(diag > 0))
    if bad.size:
        k, e = bad[0]
        raise SolverError(f"far-field row on the {('left', 'right')[e]} edge "
                          f"x={grid.x_nodes[-e]:.6g} at t={grid.t_nodes[k]:.6g} has diagonal "
                          f"{diag[k, e]:.3g} <= 0: theta dt |mu|/dx must stay below 1")
    g = disc.g
    gxx = (g[:, [0, -1]] - 2.0 * g[:, [1, -2]] + g[:, [2, -3]]) / (dx * dx)
    s = 0.5 * (disc.sigma * disc.sigma)[[0, -1]] * gxx
    return steps[:, None] * (th[:, None] * s[:-1] + (1.0 - th[:, None]) * s[1:])


def _tridiag_apply(lower, diag, upper, v):
    """The tridiagonal product along the last axis: one system, or one per row."""
    out = diag * v
    out[..., 1:] += lower[..., 1:] * v[..., :-1]
    out[..., :-1] += upper[..., :-1] * v[..., 1:]
    return out


def _tridiag_solve(lower, diag, upper, rhs):
    """Solve a tridiagonal system by cyclic reduction; lower[0] and upper[-1] are ignored.

    The system is padded with identity rows to m = 2^k - 1 unknowns.  Each
    level folds the rows s below and s above into every other remaining row,
    halving the system; back-substitution then undoes the levels in reverse.
    There is no pivoting: this is stable on strictly diagonally dominant
    rows, which every backward-step system has.
    """
    n = rhs.size
    m = (1 << n.bit_length()) - 1
    a, b, c, d = np.zeros(m), np.ones(m), np.zeros(m), np.zeros(m)
    a[1:n], b[:n], c[:n - 1], d[:n] = lower[1:], diag, upper[:-1], rhs
    s = 1
    while 4 * s <= m + 1:
        row = slice(2 * s - 1, m, 2 * s)
        lo, hi = slice(s - 1, m - s, 2 * s), slice(3 * s - 1, m, 2 * s)
        alpha = -a[row] / b[lo]
        gamma = -c[row] / b[hi]
        b[row] += alpha * c[lo] + gamma * a[hi]
        d[row] += alpha * d[lo] + gamma * d[hi]
        a[row] = alpha * a[lo]
        c[row] = gamma * c[hi]
        s *= 2
    x = np.zeros(m + 2)  # x[j + 1] holds unknown j; both ends stay 0
    while s >= 1:
        i = slice(s - 1, m, 2 * s)
        x[s:m + 1:2 * s] = (d[i] - a[i] * x[0:m + 1 - s:2 * s] - c[i] * x[2 * s::2 * s]) / b[i]
        s //= 2
    return x[1:n + 1]


def _howard(lower, diag, upper, rhs, psi, v0, where):
    """Policy iteration for the tridiagonal LCP min(v - psi, A v - rhs) = 0.

    Each iteration solves the linear system of the current stop set
    (identity rows with v = psi) and its complement (rows of A), then
    re-picks the stop set; a node changes side only when the other choice
    wins by more than the round-off level ``tie``, so ties cannot make the
    policy cycle.  The first stop set is picked at max(v0, psi) by the same
    rule: a node starts on the continuation side only when continuation wins
    there by more than ``tie``, so a warm start that already solves the
    problem (v = psi everywhere for a martingale reward) comes back bit for
    bit after one iteration.  On an M-matrix the iteration settles in at
    most n steps on the exact discrete solution (Bokanowski, Maroso & Zidani
    2009).  An outflow edge row (``_operator_coefficients``) is outside that
    proof, but the loop ends only on a solution of the LCP, and raises
    otherwise.  Returns (v, iterations, residual).
    """
    tie = round_off(rhs)
    v = np.maximum(v0, psi)
    gap, slack = v - psi, _tridiag_apply(lower, diag, upper, v) - rhs
    stop = gap <= slack + tie
    for it in range(1, rhs.size + 2):
        v = _tridiag_solve(np.where(stop, 0.0, lower), np.where(stop, 1.0, diag),
                           np.where(stop, 0.0, upper), np.where(stop, psi, rhs))
        gap, slack = v - psi, _tridiag_apply(lower, diag, upper, v) - rhs
        new_stop = np.where(stop, slack >= -tie, gap < -tie)
        if np.array_equal(new_stop, stop):
            return v, it, float(np.max(np.abs(np.minimum(gap, slack))))
        stop = new_stop
    raise SolverError(f"policy iteration did not settle in {rhs.size + 1} iterations ({where})")


def _step_blocks(disc: Discretization, theta: float):
    """Assemble the backward steps' tridiagonal systems, STEP_BLOCK steps at a time.

    Walks from the horizon down and yields (lo, hi, lower, diag, upper, rhs)
    for the steps lo .. hi - 1, whose unknowns are v[lo:hi]: the (hi - lo, n)
    rows of I - theta dt L, from one ``_operator_coefficients`` call on
    mu[lo:hi + 1], and ``rhs(v_next, r)``, the right-hand side of block row r
    from the later slice v_next = v[lo + r + 1], or of every row from
    v_next = v[lo + 1:hi + 1] when r is omitted.  Every operation is
    elementwise, so a row and the whole block give the same bits.
    """
    grid = disc.grid
    thetas = _step_thetas(theta, grid.nt)
    sources = _edge_source(disc, thetas)
    sig2 = disc.sigma * disc.sigma
    for hi in range(grid.nt, 0, -STEP_BLOCK):
        lo = max(hi - STEP_BLOCK, 0)
        th, dt, src = thetas[lo:hi, None], grid.steps[lo:hi, None], sources[lo:hi]
        f = None if disc.f is None else disc.f[lo:hi + 1]
        co = _operator_coefficients(disc.mu[lo:hi + 1], sig2, grid.dx)

        def rhs(v_next, r=None, th=th, dt=dt, src=src, f=f, co=co):  # binds this block's arrays
            k = slice(None) if r is None else r
            b = v_next + (1.0 - th[k]) * dt[k] * _tridiag_apply(*(c[1:][k] for c in co), v_next)
            if f is not None:
                b = b + dt[k] * (th[k] * f[:-1][k] + (1.0 - th[k]) * f[1:][k])
            b[..., ::b.shape[-1] - 1] += src[k]
            return b

        lo_n, di_n, up_n = (c[:-1] for c in co)
        yield lo, hi, -th * dt * lo_n, 1.0 - th * dt * di_n, -th * dt * up_n, rhs


def solve_backward(problem: ValidatedProblem, grid: Grid, theta: float = 0.5) -> ValueSurface:
    """Solve the obstacle problem backward from the terminal reward.

    The terminal slice equals the obstacle exactly; every earlier slice solves
    the theta-scheme step's complementarity problem on all nodes, edges
    included, so v equals the obstacle on stop nodes and is at least the
    obstacle, to round-off, elsewhere.  The obstacle is the validated sample
    of the terminal reward.  The exercise mask is the stop set v <= obstacle,
    read off v with no tolerance.
    """
    disc = problem.samples_on(grid)
    ts = grid.t_nodes
    psi = disc.g

    v = np.empty((grid.nt + 1, grid.nx + 1))
    v[-1] = psi[-1]
    iterations = np.zeros(grid.nt, dtype=int)
    worst_res = 0.0
    for lo, hi, lower, diag, upper, rhs in _step_blocks(disc, theta):
        for r in range(hi - lo - 1, -1, -1):
            k = lo + r
            v[k], iterations[k], res = _howard(lower[r], diag[r], upper[r], rhs(v[k + 1], r),
                                               psi[k], v[k + 1], where=f"t={ts[k]:.6g}")
            worst_res = max(worst_res, res)

    meta = SchemeMeta(theta=theta, psor_sweeps=iterations, psor_worst_residual=worst_res)
    return ValueSurface(grid=grid, v=v, obstacle=psi, exercise_mask=v <= psi,
                        problem=problem, meta=meta)


def extract_boundary(surface: ValueSurface) -> Boundary:
    """Read the stopping boundary off the exercise mask, one value per time node.

    Per time slice the boundary is the last node marked stopped, reading
    from the stopping side: the largest for a lower boundary, the smallest
    for an upper one.  All-continuation and all-stopping slices get the
    sentinels of ``Boundary``.  Slices not of the form "stopping side, then
    continuation" are collected as non-separated warnings rather than forced.
    """
    xs = surface.grid.x_nodes
    mask = surface.exercise_mask
    lower = surface.orientation is Orientation.LOWER
    if not lower:  # read from the top, so the stopping side comes first
        xs, mask = xs[::-1], mask[:, ::-1]
    nt = surface.grid.nt
    values = np.empty(nt + 1)
    bad_rows = []
    for k in range(nt + 1):
        row = mask[k]
        if not row.any():
            values[k] = NEG_INF if lower else POS_INF
        elif row.all():
            values[k] = POS_INF if lower else NEG_INF
        else:
            j = int(np.nonzero(row)[0][-1])
            values[k] = xs[j]
            # separated slices are a true-prefix followed by a false-suffix
            if not row[: j + 1].all():
                bad_rows.append(k)
    return Boundary(
        t_nodes=surface.grid.t_nodes.copy(),
        values=values,
        orientation=surface.orientation,
        cell_size=surface.grid.dx,
        non_separated=tuple(bad_rows),
    )


def unflip_surface(surface: ValueSurface, original: ValidatedProblem) -> ValueSurface:
    """Map a surface solved on the reflected problem back to the original axis.

    ``original`` is the validated original problem.  Its samples are the
    solved ones reflected (``reflect_problem``), not a fresh sampling, and
    negation mirrors the grid nodes bit for bit.  The obstacle is the
    reflected sample of g, a view that stays one broadcast row for a
    time-independent reward.
    """
    problem = reflect_problem(surface.problem, original.spec, surface.grid)
    return ValueSurface(
        grid=problem.disc.grid,
        v=surface.v[:, ::-1].copy(),
        obstacle=problem.disc.g,
        exercise_mask=surface.exercise_mask[:, ::-1].copy(),
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
    """A posteriori check that the surface solves its own discrete problem.

    Takes the solver's own systems from ``_step_blocks``, STEP_BLOCK steps
    at once with their right-hand sides read off the surface's later
    slices, and measures the natural LCP residual |min(v - g, A v - rhs)|
    on every node, edge rows included: the quantity each policy-iteration
    solve ends on.  It covers obstacle violations (v < g), unsolved
    continuation rows and wrong-sided stop rows alike.  The tolerance is the
    round-off level of the residual's own scale, |lower||v_{i-1}| +
    |diag||v_i| + |upper||v_{i+1}| + |rhs|, at its largest over all nodes
    and steps: it grows with the operator's stiffness as the rounding of
    A v does.
    """
    from .reports import CheckReport, FAIL, PASS

    grid = surface.grid
    psi, v = surface.obstacle, surface.v
    disc = surface.problem.samples_on(grid)

    worst, witness, scale = 0.0, None, 0.0
    for lo, hi, lower, diag, upper, rhs in _step_blocks(disc, surface.meta.theta):
        vk, b = v[lo:hi], rhs(v[lo + 1:hi + 1])
        slack = _tridiag_apply(lower, diag, upper, vk) - b
        res = np.abs(np.minimum(vk - psi[lo:hi], slack))
        size = _tridiag_apply(np.abs(lower), np.abs(diag), np.abs(upper), np.abs(vk)) + np.abs(b)
        scale = max(scale, float(np.max(size)))
        j = res.argmax(axis=1)
        top = res[np.arange(hi - lo), j]
        for r in range(hi - lo - 1, -1, -1):   # k = hi - 1 down to lo: ties go to the later step
            if top[r] > worst:
                worst = float(top[r])
                witness = (float(grid.t_nodes[lo + r]), float(grid.x_nodes[j[r]]))

    tol = round_off(scale)
    return CheckReport("residual_complementarity", PASS if worst <= tol else FAIL, worst, witness,
                       tol, f"max |min(v - g, A v - rhs)| over {grid.nt} backward steps")


def value_at(surface: ValueSurface, t: float, x: float) -> float:
    """Bilinear interpolation of the solved value at a point of the grid's rectangle.

    Raises ValueError on a point off it: the surface says nothing there, and
    a clamped edge value would pass for one.
    """
    ts, xs = surface.grid.t_nodes, surface.grid.x_nodes
    if not (ts[0] <= t <= ts[-1] and xs[0] <= x <= xs[-1]):
        raise ValueError(f"point (t={t!r}, x={x!r}) lies off the solved grid "
                         f"[{ts[0]:.6g}, {ts[-1]:.6g}] x [{xs[0]:.6g}, {xs[-1]:.6g}]")
    k = int(np.clip(np.searchsorted(ts, t) - 1, 0, len(ts) - 2))
    j = int(np.clip(np.searchsorted(xs, x) - 1, 0, len(xs) - 2))
    wt = 0.0 if ts[k + 1] == ts[k] else (t - ts[k]) / (ts[k + 1] - ts[k])
    wx = 0.0 if xs[j + 1] == xs[j] else (x - xs[j]) / (xs[j + 1] - xs[j])
    v = surface.v
    return float(
        (1 - wt) * ((1 - wx) * v[k, j] + wx * v[k, j + 1])
        + wt * ((1 - wx) * v[k + 1, j] + wx * v[k + 1, j + 1])
    )
