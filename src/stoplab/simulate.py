"""Euler-Maruyama path simulation, shared-noise couplings and an LSMC oracle.

Increments come from the counter-based Philox generator keyed by the master
seed; the (path, step) increment table is a pure function of
(seed, n_paths, n_steps), so identical seeds and parameters reproduce
bit-identical bundles.  Paths are stored step-major, one contiguous row of all
paths per time node, so a step reads and writes whole rows; the draw order
stays path by path.

The paths are stepped DRAW_BLOCK at a time (``_increment_blocks``).  One
worker thread draws and transposes the next block's increments while the
calling thread steps the current one; it runs numpy only, and every stoplab
callable (drift, diffusion, region indicator, rewards) runs on the calling
thread.  The output does not depend on the threads: there is one Philox
stream, drawn block after block in path order, and every Euler, poison and
exit operation is elementwise per path, so a block's paths come out as they
would in one full-width pass.  The worker is joined before the call returns
or raises.

Positive-half-line problems are simulated in log coordinates so paths stay
strictly positive.  Paths step on the solver's time rule
(``grids.time_nodes``): with a drift pole at the horizon the steps are graded
toward it and the last node sits (T - t)/(n_steps + 1)^2 before it, so an
LSMC run with n_steps = nt exercises on the solver's own nodes.  Couplings
keep a uniform step, ending at the same last node.
"""

from __future__ import annotations

from contextlib import closing
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .grids import time_nodes, time_steps
from .problems import StateSpace, ValidatedProblem
from .reports import CheckReport, FAIL, PASS
from .solver import round_off

EULER = "euler"
LOG_EULER = "log_euler"
DRAW_BLOCK = 4096      # paths per block: two step-major buffers of DRAW_BLOCK x n_steps doubles
DRAW_SLICE = 256       # paths per draw: the path-major buffer holds DRAW_SLICE x n_steps doubles
TOL_ZERO = 1e-12       # the drift is negative below -TOL_ZERO: the one negative-drift rule


class SimulationError(RuntimeError):
    pass


@dataclass(frozen=True)
class PathBundle:
    t_nodes: np.ndarray      # (n_steps + 1,)
    steps: np.ndarray        # (n_steps,) size of each step
    start_state: float
    states: np.ndarray       # (n_paths, n_steps + 1), the .T view of step-major rows
    seed: int
    scheme: str
    poisoned: np.ndarray     # per-path flag: a non-finite state was hit

    @property
    def n_paths(self) -> int:
        return self.states.shape[0]

    @property
    def n_steps(self) -> int:
        return self.states.shape[1] - 1

    @property
    def start_time(self) -> float:
        return float(self.t_nodes[0])

    @property
    def dt(self) -> float:
        """The first step, the only one of a uniform bundle."""
        return float(self.steps[0])

    def times(self) -> np.ndarray:
        return self.t_nodes


@dataclass(frozen=True)
class Region:
    """A time-space region given by a pure, vectorizable indicator."""

    indicator: Callable[[np.ndarray, np.ndarray], np.ndarray]
    description: str = ""


@dataclass(frozen=True)
class CoupledBundle:
    """Two bundles driven by identical per-step Gaussian increments.

    ``region_exit`` is computed on the late bundle's time-space trajectory:
    for each path, the first step index at which (t + s, X) leaves the
    region (0 if it starts outside, n_steps if it never leaves).
    """

    late: PathBundle
    early: PathBundle
    region: Region
    region_exit: np.ndarray


def everywhere_region() -> Region:
    return Region(indicator=lambda t, x: np.ones(np.shape(x), dtype=bool),
                  description="everywhere")


def negative_drift_region(drift) -> Region:
    """The open region where the drift is strictly negative (below -TOL_ZERO)."""
    return Region(
        indicator=lambda t, x: np.asarray(drift(t, x)) < -TOL_ZERO,
        description="drift < 0",
    )


def _increment_blocks(seed: int, n_paths: int, n_steps: int):
    """Yield (lo, hi, z) for each DRAW_BLOCK of paths, z the (n_steps, hi - lo)
    step-major increments of paths lo:hi.

    The blocks together are the transpose of one
    standard_normal((n_paths, n_steps)) draw from the seed's Philox stream.
    A single worker thread draws block b + 1, DRAW_SLICE paths at a time into
    one buffer, each slice transposed in cache into one of two step-major
    buffers, while the caller uses block b; z is overwritten once the block
    after next is drawn, so it is valid until the caller asks for the next
    block.  Every buffer is allocated here, on the calling thread.  Closing
    the generator joins the worker, so callers wrap it in ``contextlib.closing``.
    """
    from concurrent.futures import ThreadPoolExecutor   # here, to keep it out of set-up

    if n_paths < 1:
        return
    gen = np.random.Generator(np.random.Philox(seed))
    width = min(DRAW_BLOCK, n_paths)
    drawn = np.empty((min(DRAW_SLICE, width), n_steps))
    step_major = (np.empty(n_steps * width), np.empty(n_steps * width))

    def draw(lo, hi, flat):
        m = hi - lo
        z = flat[: n_steps * m].reshape(n_steps, m)
        for p in range(0, m, DRAW_SLICE):   # each slice transposed while it is in cache
            part = z[:, p:p + DRAW_SLICE]
            part[...] = gen.standard_normal(out=drawn[: part.shape[1]]).T
        return z

    bounds = [(lo, min(lo + DRAW_BLOCK, n_paths)) for lo in range(0, n_paths, DRAW_BLOCK)]
    with ThreadPoolExecutor(max_workers=1) as worker:
        pending = worker.submit(draw, *bounds[0], step_major[0])
        for b, (lo, hi) in enumerate(bounds):
            z = pending.result()
            if b + 1 < len(bounds):
                pending = worker.submit(draw, *bounds[b + 1], step_major[(b + 1) % 2])
            yield lo, hi, z


def _window(spec, t: float, n_steps: int) -> np.ndarray:
    """The simulation's time nodes from t, by the solver's rule."""
    if not (t < spec.horizon):
        raise SimulationError(
            f"start time {t} leaves no simulation window before the horizon {spec.horizon}"
        )
    return time_nodes(t, spec.horizon, n_steps, spec.pole_at_horizon)


def _scheme(spec) -> str:
    """Log-Euler on the positive half-line, which keeps paths positive; Euler elsewhere."""
    return LOG_EULER if spec.state_space is StateSpace.POSITIVE_HALF_LINE else EULER


def _run_euler(spec, times: np.ndarray, steps: np.ndarray, x: float, z: np.ndarray,
               scheme: str, states: np.ndarray) -> np.ndarray:
    """Fill step-major ``states`` (n_steps + 1, n_paths) from the increments z
    (n_steps, n_paths); return the per-path poisoned flag."""
    n_steps, n_paths = z.shape
    states[0] = x
    poisoned = np.zeros(n_paths, dtype=bool)
    any_poisoned = False
    sqdt = np.sqrt(steps)
    mu = spec.drift
    sigma = spec.diffusion

    if scheme == LOG_EULER:
        if x <= 0:
            raise SimulationError(f"log-space scheme needs a positive start state, got {x}")
        logx = np.full(n_paths, np.log(x))
    cur = states[0].copy()
    with np.errstate(all="ignore"):
        for k in range(n_steps):
            tk, dt = times[k], steps[k]
            s = np.asarray(sigma(0.0, cur), dtype=float)
            if scheme == LOG_EULER:
                drift_term = np.asarray(mu(tk, cur), dtype=float) / cur - 0.5 * (s / cur) ** 2
                step = drift_term * dt + (s / cur) * sqdt[k] * z[k]
                logx = np.where(poisoned, logx, logx + step) if any_poisoned else logx + step
                nxt = np.exp(logx)
            else:
                nxt = cur + np.asarray(mu(tk, cur), dtype=float) * dt + s * sqdt[k] * z[k]
            if any_poisoned or not np.isfinite(nxt).all():
                poisoned |= ~np.isfinite(nxt)
                any_poisoned = True
                nxt = np.where(poisoned, cur, nxt)   # freeze poisoned paths at last good state
            states[k + 1] = nxt
            cur = nxt
    return poisoned


def simulate_paths(problem: ValidatedProblem, t: float, x: float, n_paths: int,
                   n_steps: int, seed: int) -> PathBundle:
    """Simulate n_paths Euler paths of the problem's state process from (t, x)."""
    spec = problem.spec
    if n_steps < 1 or n_paths < 1:
        raise SimulationError(f"need n_steps >= 1 and n_paths >= 1, got {n_steps} and {n_paths}")
    scheme = _scheme(spec)
    times = _window(spec, t, n_steps)
    steps = time_steps(times, spec.pole_at_horizon)
    rows = np.empty((n_steps + 1, n_paths))
    poisoned = np.empty(n_paths, dtype=bool)
    with closing(_increment_blocks(seed, n_paths, n_steps)) as blocks:
        for lo, hi, z in blocks:
            poisoned[lo:hi] = _run_euler(spec, times, steps, x, z, scheme, rows[:, lo:hi])
    return PathBundle(t_nodes=times, steps=steps, start_state=x, states=rows.T,
                      seed=seed, scheme=scheme, poisoned=poisoned)


def simulate_coupled(problem: ValidatedProblem, t: float, u: float, x: float,
                     region: Region, n_paths: int, n_steps: int, seed: int) -> CoupledBundle:
    """Couple the processes started at times u <= t from the same state x.

    Both bundles take n_steps uniform steps, the late start's window
    (ending at the last node of ``simulate_paths``'s window) divided evenly,
    and consume identical Gaussian increments path by path, step by step;
    the early bundle covers [u, u + n_steps*dt].  Exit indices are computed
    on the late bundle against the region.
    """
    spec = problem.spec
    if not (0.0 <= u <= t):
        raise SimulationError(f"need 0 <= u <= t, got u={u}, t={t}")
    dt = (_window(spec, t, n_steps)[-1] - t) / n_steps
    steps = np.full(n_steps, dt)
    scheme = _scheme(spec)
    late_t, early_t = (start + dt * np.arange(n_steps + 1) for start in (t, u))
    late, early = (np.empty((n_steps + 1, n_paths)) for _ in range(2))
    late_bad, early_bad = (np.empty(n_paths, dtype=bool) for _ in range(2))
    exit_idx = np.empty(n_paths, dtype=int)
    with closing(_increment_blocks(seed, n_paths, n_steps)) as blocks:
        for lo, hi, z in blocks:
            late_bad[lo:hi] = _run_euler(spec, late_t, steps, x, z, scheme, late[:, lo:hi])
            early_bad[lo:hi] = _run_euler(spec, early_t, steps, x, z, scheme, early[:, lo:hi])
            exit_idx[lo:hi] = _exit_steps(region, late_t, late[:, lo:hi])

    def bundle(times, rows, poisoned):
        return PathBundle(t_nodes=times, steps=steps, start_state=x, states=rows.T,
                          seed=seed, scheme=scheme, poisoned=poisoned)

    return CoupledBundle(late=bundle(late_t, late, late_bad),
                         early=bundle(early_t, early, early_bad),
                         region=region, region_exit=exit_idx)


def _exit_steps(region: Region, times: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Per path of step-major ``rows``, the first node index outside the region
    (the last index if it never leaves)."""
    exit_idx = np.full(rows.shape[1], len(times) - 1, dtype=int)
    inside = np.ones(rows.shape[1], dtype=bool)
    for k, tk in enumerate(times):
        left = inside & ~np.asarray(region.indicator(tk, rows[k]), dtype=bool)
        exit_idx[left] = k
        inside &= ~left
    return exit_idx


def coupling_statistic(cb: CoupledBundle) -> tuple[np.ndarray, int, int]:
    """Per-step mean positive part of (late - early), frozen at region exit.

    Returns (per-step means, worst step, worst path at that step).
    """
    late, early = cb.late.states.T, cb.early.states.T   # step-major rows
    exit_idx = cb.region_exit
    paths = np.arange(late.shape[1])
    frozen = late[exit_idx, paths] - early[exit_idx, paths]
    stats = np.empty(late.shape[0])
    worst = (-1.0, 0, 0)
    for k in range(late.shape[0]):
        diff = np.where(exit_idx < k, frozen, late[k] - early[k])
        pos = np.maximum(diff, 0.0)
        stats[k] = pos.mean()
        top = float(pos.max())
        if top > worst[0]:
            worst = (top, k, int(pos.argmax()))
    return stats, worst[1], worst[2]


def comparison_report(cb: CoupledBundle, c_ord: float = 1.0) -> CheckReport:
    """Check the pathwise ordering of the coupled bundles up to region exit.

    The continuous-time statement is exact; the discrete statistic is
    allowed a tolerance proportional to the step size (c_ord * dt, in state
    units per time unit), since Euler noise can break exact ordering when
    the diffusion coefficient is state-dependent.
    """
    stats, k_worst, path_worst = coupling_statistic(cb)
    worst = float(stats.max())
    tol = c_ord * cb.late.dt
    t_worst = cb.late.t_nodes[k_worst]
    x_worst = float(cb.late.states[path_worst, min(k_worst, cb.region_exit[path_worst])])
    return CheckReport(
        check_name="coupling_order",
        verdict=PASS if worst <= tol else FAIL,
        worst_violation=worst,
        witness=(float(t_worst), x_worst),
        tolerance=tol,
        notes=(
            f"max over steps of mean positive part; worst path {path_worst} "
            f"at step {k_worst}; region: {cb.region.description or 'custom'}"
        ),
    )


@dataclass(frozen=True)
class LsmcValue:
    estimate: float
    standard_error: float
    n_paths: int
    warnings: tuple[str, ...] = ()


def value_lsmc(problem: ValidatedProblem, t: float, x: float, n_paths: int,
               n_steps: int, basis_degree: int, seed: int) -> LsmcValue:
    """Least-squares Monte Carlo estimate of the stopping value at (t, x).

    Backward induction over the simulation grid; the running reward is
    integrated by the left-endpoint rule.  Each step regresses the
    continuation on the paths whose immediate reward is positive (all paths
    when too few are): Legendre rows of their states scaled onto [-1, 1] by
    midpoint and half-range, a Cholesky solve of the Gram matrix, and while
    its block is rank-deficient (``_fit``) the degree drops by one for good,
    with a warning.  The standard error is std(ddof=1) / sqrt(n) of the payoffs.
    """
    spec = problem.spec
    bundle = simulate_paths(problem, t, x, n_paths, n_steps, seed)
    rows = bundle.states.T   # step-major: rows[k] holds every path at node k
    times = bundle.times()
    warnings: list[str] = []
    if bundle.poisoned.any():
        warnings.append(f"{int(bundle.poisoned.sum())} poisoned paths excluded from payoffs")

    g, f = spec.terminal_reward, spec.running_reward

    def reward_at(k):
        return np.asarray(g(times[k], rows[k]), dtype=float) + np.zeros(n_paths)

    frun = None
    if f is not None:
        frun = np.zeros((n_steps + 1, n_paths))
        for k in range(n_steps):
            frun[k + 1] = frun[k] + np.asarray(f(times[k], rows[k]), dtype=float) * bundle.steps[k]

    def total_if_stopped(k, immediate):
        return immediate if frun is None else immediate + frun[k]

    total = total_if_stopped(n_steps, reward_at(n_steps))
    degree = int(basis_degree)
    for k in range(n_steps - 1, 0, -1):
        immediate = reward_at(k)
        exercise = total_if_stopped(k, immediate)
        candidates = np.nonzero(immediate > 0)[0]
        if candidates.size < max(30, 5 * (degree + 1)):
            candidates = np.arange(n_paths)
        # continuation payoff measured from time k
        future = total[candidates]
        if frun is not None:
            future = future - frun[k, candidates]
        z = rows[k][candidates]
        lo, hi = z.min(), z.max()
        z = (z - 0.5 * (hi + lo)) / (0.5 * (hi - lo) if hi > lo else 1.0)
        basis = _legendre_rows(z, degree)
        coef, fitted = _fit(basis, future, degree)
        warnings += [f"regression matrix rank-deficient at step {k}; degree reduced to {d}"
                     for d in range(degree - 1, fitted - 1, -1)]
        degree = fitted
        continuation = coef @ basis[: degree + 1]
        if frun is not None:
            continuation = continuation + frun[k, candidates]
        stop = candidates[exercise[candidates] >= continuation]
        total[stop] = exercise[stop]

    payoffs = total[~bundle.poisoned]
    if payoffs.size == 0:
        raise SimulationError("all paths poisoned; no payoffs to average")
    immediate0 = float(np.asarray(g(times[0], np.asarray(x, dtype=float)), dtype=float))
    return LsmcValue(estimate=max(immediate0, float(payoffs.mean())),
                     standard_error=float(payoffs.std(ddof=1) / np.sqrt(payoffs.size)),
                     n_paths=payoffs.size, warnings=tuple(warnings))


def _legendre_rows(z: np.ndarray, degree: int) -> np.ndarray:
    """The C-ordered (degree + 1, n) Legendre rows P_0(z), ..., P_degree(z), by the
    recurrence (j + 1) P_{j+1} = (2j + 1) z P_j - j P_{j-1}."""
    rows = np.empty((degree + 1, z.size))
    rows[0] = 1.0
    rows[1:2] = z   # P_1, unless degree is 0
    for j in range(1, degree):
        np.multiply(rows[j], z, out=rows[j + 1])
        rows[j + 1] *= (2 * j + 1) / (j + 1)
        rows[j + 1] -= j / (j + 1) * rows[j - 1]
    return rows


def _fit(rows: np.ndarray, future: np.ndarray, degree: int) -> tuple[np.ndarray, int]:
    """The least-squares coefficients of ``future`` on ``rows[: d + 1]`` by a Cholesky
    solve of the normal equations, and d: the highest d <= ``degree`` whose leading
    Gram block factors with every squared pivot above round-off.  Degree 0 always does."""
    gram, proj = rows @ rows.T, rows @ future
    for d in range(degree, -1, -1):
        block = gram[: d + 1, : d + 1]
        try:
            low = np.linalg.cholesky(block)
        except np.linalg.LinAlgError:
            continue
        if (np.diagonal(low) ** 2 > round_off(block)).all():
            return np.linalg.solve(low.T, np.linalg.solve(low, proj[: d + 1])), d
