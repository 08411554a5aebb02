"""Path simulation, couplings, region exits, and the LSMC value oracle."""

import dataclasses
import threading

import numpy as np
import pytest
from numpy.polynomial.legendre import legvander

import stoplab as sl
from stoplab.problems import StateSpace
from stoplab.simulate import (
    DRAW_BLOCK,
    SimulationError,
    _exit_steps,
    _fit,
    _increment_blocks,
    _legendre_rows,
    _run_euler,
    coupling_statistic,
    everywhere_region,
    negative_drift_region,
)


def _problem(drift="0", sigma="1", terminal="x", horizon=1.0, **kw):
    spec = sl.ProblemSpec(
        drift=sl.from_expression(drift, horizon),
        diffusion=sl.from_expression(sigma, horizon, allow_t=False),
        terminal_reward=sl.from_expression(terminal, horizon),
        horizon=horizon,
        **kw,
    )
    lo = 0.05 if kw.get("state_space") is StateSpace.POSITIVE_HALF_LINE else -5
    grid = sl.make_grid(horizon * (0.99 if kw.get("pole_at_horizon") else 1.0), lo, 5, 20, 20)
    return sl.validate_problem(spec, grid)


def region_exit_time(path: np.ndarray, region: sl.Region, t: float, dt: float) -> int:
    """First step index at which (t + k*dt, path[k]) leaves the region: the
    per-path oracle for the blocked ``_exit_steps``."""
    n_steps = len(path) - 1
    times = t + dt * np.arange(n_steps + 1)
    outside = ~np.asarray(region.indicator(times, path), dtype=bool)
    hits = np.nonzero(outside)[0]
    return int(hits[0]) if hits.size else n_steps


def _euler_path_major(problem, bundle, z):
    """Reference Euler loop on a path-major (n_paths, n_steps + 1) table, one
    column per step, freezing a path at its last finite state."""
    mu, sigma = problem.spec.drift, problem.spec.diffusion
    n_paths, n_steps = z.shape
    states = np.empty((n_paths, n_steps + 1))
    states[:, 0] = bundle.start_state
    poisoned = np.zeros(n_paths, dtype=bool)
    logx = np.full(n_paths, np.log(bundle.start_state) if bundle.scheme == "log_euler" else 0.0)
    for k in range(n_steps):
        cur, tk, dt = states[:, k].copy(), bundle.t_nodes[k], bundle.steps[k]
        with np.errstate(all="ignore"):
            s = np.asarray(sigma(0.0, cur), dtype=float)
            if bundle.scheme == "log_euler":
                drift_term = np.asarray(mu(tk, cur), dtype=float) / cur - 0.5 * (s / cur) ** 2
                step = drift_term * dt + (s / cur) * np.sqrt(dt) * z[:, k]
                logx = np.where(poisoned, logx, logx + step)
                nxt = np.exp(logx)
            else:
                nxt = cur + np.asarray(mu(tk, cur), dtype=float) * dt + s * np.sqrt(dt) * z[:, k]
        poisoned |= ~np.isfinite(nxt)
        states[:, k + 1] = np.where(poisoned, cur, nxt)
    return states, poisoned


def _bridge_coupling():
    spec = sl.ProblemSpec(
        drift=sl.from_expression("(0.0 - x)/(T - t)", 1.0),
        diffusion=sl.constant_field(1.0),
        terminal_reward=sl.from_expression("x", 1.0),
        horizon=1.0,
        pole_at_horizon=True,
    )
    grid = sl.make_grid(0.99, -5, 5, 20, 20)
    prob = sl.validate_problem(spec, grid)
    region = negative_drift_region(spec.drift)
    return sl.simulate_coupled(prob, 0.5, 0.25, 1.0, region, 2000, 127, seed=21)


class TestSimulatePaths:
    def test_deterministic_line_when_sigma_zero(self):
        prob = _problem(drift="0.7", sigma="0")
        bundle = sl.simulate_paths(prob, 0.0, 1.0, 16, 32, seed=5)
        times = bundle.t_nodes
        expect = 1.0 + 0.7 * times
        np.testing.assert_allclose(bundle.states, np.tile(expect, (16, 1)), atol=1e-12)

    def test_brownian_statistics(self):
        prob = _problem(drift="0", sigma="1")
        bundle = sl.simulate_paths(prob, 0.0, 0.0, 100_000, 16, seed=11)
        terminal = bundle.states[:, -1]
        assert abs(terminal.mean()) <= 3.0 / np.sqrt(100_000)
        assert abs(terminal.var() - 1.0) <= 0.05

    def test_step_grid_covers_window(self):
        prob = _problem(drift="0", sigma="1")
        bundle = sl.simulate_paths(prob, 0.25, 0.0, 4, 64, seed=1)
        assert bundle.dt * bundle.n_steps == pytest.approx(1.0 - 0.25, abs=1e-12)

    def test_bridge_terminal_marginals_match_gaussian_chain(self):
        # Euler on the bridge SDE is an exactly Gaussian chain; its mean and
        # variance follow a deterministic recursion, which is the oracle here.
        # Pinning one step beyond the horizon keeps the drift finite on [0, T'].
        horizon = 0.999
        spec = sl.ProblemSpec(
            drift=sl.from_expression("(0.0 - x)/(T - t)", 1.0),
            diffusion=sl.constant_field(1.0),
            terminal_reward=sl.from_expression("x", horizon),
            horizon=horizon,
        )
        grid = sl.make_grid(horizon, -4, 4, 20, 20)
        prob = sl.validate_problem(spec, grid)
        n_steps, n_paths, x0 = 1998, 20_000, 1.0
        bundle = sl.simulate_paths(prob, 0.0, x0, n_paths, n_steps, seed=99)
        dt = bundle.dt

        mean, var = x0, 0.0
        for k in range(n_steps):
            factor = 1.0 - dt / (1.0 - k * dt)
            mean *= factor
            var = var * factor * factor + dt
        terminal = bundle.states[:, -1]
        se_mean = np.sqrt(var / n_paths)
        assert abs(terminal.mean() - mean) <= 4 * se_mean
        assert abs(terminal.var() - var) <= 5 * var * np.sqrt(2.0 / n_paths)
        # the chain sd tracks the exact bridge marginal with an O(dt) excess
        exact_sd = np.sqrt(0.001 * (1 - 0.001))
        assert abs(np.sqrt(var) - exact_sd) <= 0.25 * exact_sd

    def test_bit_identical_reproduction(self):
        prob = _problem(drift="x*t - 0.3", sigma="1 + x*x/20")
        a = sl.simulate_paths(prob, 0.0, 0.5, 50, 40, seed=123)
        b = sl.simulate_paths(prob, 0.0, 0.5, 50, 40, seed=123)
        assert np.array_equal(a.states, b.states)
        c = sl.simulate_paths(prob, 0.0, 0.5, 50, 40, seed=124)
        assert not np.array_equal(a.states, c.states)

    def test_log_euler_positivity(self):
        prob = _problem(drift="0.5*x", sigma="0.4*x",
                        state_space=StateSpace.POSITIVE_HALF_LINE)
        bundle = sl.simulate_paths(prob, 0.0, 1.0, 200, 64, seed=8)
        assert bundle.scheme == "log_euler"
        assert (bundle.states > 0).all()

    def test_poisoned_paths_flagged_not_fatal(self):
        prob = _problem(drift="exp(x*x)", sigma="2")  # explodes quickly
        bundle = sl.simulate_paths(prob, 0.0, 3.0, 64, 64, seed=3)
        assert bundle.poisoned.any()
        assert np.isfinite(bundle.states).all()  # frozen at last good state

    @pytest.mark.parametrize("scheme, drift, sigma, x0, kw", [
        ("euler", "exp(x*x)", "2", 0.0, {}),
        ("log_euler", "x*x*x*(x - 2)", "0.4*x", 2.0, {"state_space": StateSpace.POSITIVE_HALF_LINE}),
    ])
    def test_poisoned_paths_frozen_bit_for_bit(self, scheme, drift, sigma, x0, kw):
        prob = _problem(drift=drift, sigma=sigma, **kw)
        n_paths, n_steps = 200, 64
        bundle = sl.simulate_paths(prob, 0.0, x0, n_paths, n_steps, seed=3)
        assert bundle.scheme == scheme
        assert bundle.states.T.flags.c_contiguous   # a view of step-major rows
        z = np.random.Generator(np.random.Philox(3)).standard_normal((n_paths, n_steps))
        states, poisoned = _euler_path_major(prob, bundle, z)
        assert 0 < poisoned.sum() < n_paths
        assert np.array_equal(bundle.poisoned, poisoned)
        assert np.array_equal(bundle.states, states)
        assert np.isfinite(bundle.states).all()
        for path in bundle.states[poisoned]:
            moved = np.nonzero(np.diff(path))[0]
            last_good = moved[-1] + 1 if moved.size else 0
            assert last_good < n_steps and (path[last_good:] == path[last_good]).all()

    @pytest.mark.parametrize("n_paths", [1, 255, 257, DRAW_BLOCK - 1, DRAW_BLOCK,
                                         DRAW_BLOCK + 1, DRAW_BLOCK + 300, 3 * DRAW_BLOCK + 5])
    def test_increments_are_the_transposed_one_shot_draw(self, n_paths):
        expect = np.random.Generator(np.random.Philox(17)).standard_normal((n_paths, 3)).T
        seen = 0
        for lo, hi, z in _increment_blocks(17, n_paths, 3):
            assert (lo, hi) == (seen, min(seen + DRAW_BLOCK, n_paths))
            assert z.shape == (3, hi - lo) and z.flags.c_contiguous
            assert np.array_equal(z, expect[:, lo:hi])
            seen = hi
        assert seen == n_paths

    def test_pole_window_steps_on_the_solver_nodes(self):
        spec = sl.ProblemSpec(
            drift=sl.from_expression("(0.0 - x)/(T - t)", 1.0),
            diffusion=sl.constant_field(1.0),
            terminal_reward=sl.from_expression("x", 1.0),
            horizon=1.0,
            pole_at_horizon=True,
        )
        grid = sl.build_grid(spec, 5.0, 400, 20, x_ref=0.0)
        prob = sl.validate_problem(spec, grid)
        bundle = sl.simulate_paths(prob, 0.0, 0.0, 8, grid.nt, seed=1)
        assert np.array_equal(bundle.t_nodes, grid.t_nodes)
        assert np.array_equal(bundle.steps, grid.steps)

    @pytest.mark.parametrize("n_paths, n_steps", [(4, 0), (0, 4)])
    def test_needs_at_least_one_step_and_path(self, n_paths, n_steps):
        prob = _problem()
        with pytest.raises(SimulationError):
            sl.simulate_paths(prob, 0.0, 0.0, n_paths, n_steps, seed=1)
        with pytest.raises(SimulationError):
            sl.value_lsmc(prob, 0.0, 0.0, n_paths, n_steps, 3, seed=1)


SPANNING = [1, DRAW_BLOCK - 1, DRAW_BLOCK, DRAW_BLOCK + 1, 3 * DRAW_BLOCK + 5]


def _one_shot(problem, times, steps, x, scheme, seed, n_paths):
    """Reference run without the pipeline: one path-major draw, one full-width Euler pass."""
    n_steps = len(steps)
    z = np.random.Generator(np.random.Philox(seed)).standard_normal((n_paths, n_steps))
    states = np.empty((n_steps + 1, n_paths))
    poisoned = _run_euler(problem.spec, times, steps, x, np.ascontiguousarray(z.T), scheme,
                          states)
    return states, poisoned


class TestPipeline:
    @pytest.mark.parametrize("n_paths", SPANNING)
    @pytest.mark.parametrize("scheme, drift, sigma, x0, kw", [
        ("euler", "exp(x*x)", "2", 0.0, {}),
        ("log_euler", "x*x*x*(x - 2)", "0.4*x", 2.0, {"state_space": StateSpace.POSITIVE_HALF_LINE}),
    ])
    def test_simulate_paths_equals_one_shot_reference(self, n_paths, scheme, drift, sigma,
                                                      x0, kw):
        prob = _problem(drift=drift, sigma=sigma, **kw)
        bundle = sl.simulate_paths(prob, 0.0, x0, n_paths, 8, seed=3)
        states, poisoned = _one_shot(prob, bundle.t_nodes, bundle.steps, x0, scheme, 3, n_paths)
        assert np.array_equal(bundle.states.T, states)
        assert np.array_equal(bundle.poisoned, poisoned)
        if n_paths > 2 * DRAW_BLOCK:   # a full second block holds poisoned and good paths
            assert poisoned[DRAW_BLOCK:2 * DRAW_BLOCK].any()
            assert not poisoned[DRAW_BLOCK:2 * DRAW_BLOCK].all()

    @pytest.mark.parametrize("n_paths", SPANNING)
    def test_simulate_coupled_equals_one_shot_reference(self, n_paths):
        prob = _problem(drift="exp(x*x) - 1", sigma="2")
        region = sl.Region(indicator=lambda t, x: np.asarray(x) < 1.5 + t)
        cb = sl.simulate_coupled(prob, 0.5, 0.25, 0.0, region, n_paths, 8, seed=5)
        for bundle in (cb.late, cb.early):
            states, poisoned = _one_shot(prob, bundle.t_nodes, bundle.steps, 0.0, "euler", 5,
                                         n_paths)
            assert np.array_equal(bundle.states.T, states)
            assert np.array_equal(bundle.poisoned, poisoned)
        late = np.ascontiguousarray(cb.late.states.T)
        assert np.array_equal(cb.region_exit, _exit_steps(region, cb.late.t_nodes, late))
        if n_paths > 2 * DRAW_BLOCK:   # a full second block holds poisons and exits
            second = slice(DRAW_BLOCK, 2 * DRAW_BLOCK)
            assert cb.late.poisoned[second].any() and cb.early.poisoned[second].any()
            exits = cb.region_exit[second]
            assert (exits < 8).any() and (exits == 8).any() and (exits > 0).all()

    def test_callables_run_on_the_calling_thread(self):
        seen = set()

        def spy(fn):
            def wrapped(t, x):
                seen.add(threading.get_ident())
                return fn(t, x)
            return wrapped

        spec = sl.ProblemSpec(
            drift=sl.from_callable(spy(lambda t, x: 0.1 - 0.2 * x)),
            diffusion=sl.from_callable(spy(lambda t, x: 1.0 + 0.0 * x), time_independent=True),
            terminal_reward=sl.from_callable(spy(lambda t, x: np.maximum(x, 0.0))),
            horizon=1.0,
        )
        prob = sl.validate_problem(spec, sl.make_grid(1.0, -5, 5, 20, 20))
        n_paths = 2 * DRAW_BLOCK + 7
        seen.clear()
        sl.value_lsmc(prob, 0.0, 0.0, n_paths, 6, 2, seed=1)
        region = sl.Region(indicator=spy(lambda t, x: np.asarray(x) > -1.0))
        sl.simulate_coupled(prob, 0.5, 0.25, 0.0, region, n_paths, 6, seed=2)
        assert seen == {threading.get_ident()}

    @pytest.mark.parametrize("call", ["paths", "coupled"])
    def test_raising_drift_leaves_no_thread_behind(self, call):
        calls = []

        def drift(t, x):
            if np.size(x) == DRAW_BLOCK:   # an Euler step, not a grid sample
                calls.append(t)
                if len(calls) == 12:   # inside the second block
                    raise RuntimeError("drift failed")
            return 0.0 * x

        spec = sl.ProblemSpec(
            drift=sl.from_callable(drift),
            diffusion=sl.constant_field(1.0),
            terminal_reward=sl.from_expression("x", 1.0),
            horizon=1.0,
        )
        prob = sl.validate_problem(spec, sl.make_grid(1.0, -5, 5, 20, 20))
        before = threading.active_count()
        # the exception keeps the raising frames alive: the worker must be
        # joined by then, not when they are collected
        with pytest.raises(RuntimeError, match="drift failed") as raised:
            if call == "paths":
                sl.simulate_paths(prob, 0.0, 0.0, 3 * DRAW_BLOCK, 8, seed=1)
            else:
                sl.simulate_coupled(prob, 0.5, 0.25, 0.0, everywhere_region(),
                                    3 * DRAW_BLOCK, 4, seed=1)
        assert len(calls) == 12 and raised.traceback
        assert threading.active_count() == before


class TestRegionExit:
    def test_everywhere_never_exits(self):
        path = np.linspace(0, 1, 11)
        assert region_exit_time(path, everywhere_region(), 0.0, 0.1) == 10

    def test_start_outside_is_zero(self):
        region = sl.Region(indicator=lambda t, x: np.asarray(x) > 0)
        path = np.array([-1.0, 1.0, 1.0])
        assert region_exit_time(path, region, 0.0, 0.1) == 0

    def test_crossing_detected_at_step(self):
        region = sl.Region(indicator=lambda t, x: np.asarray(x) > 0)
        path = np.ones(11)
        path[7:] = -1.0
        assert region_exit_time(path, region, 0.0, 0.1) == 7

    def test_bridge_negative_drift_region_is_positive_states(self):
        prob = _problem(drift="(0.0 - x)/(T - t)", pole_at_horizon=True)
        tt, xx = np.meshgrid(prob.disc.grid.t_nodes, prob.disc.grid.x_nodes, indexing="ij")
        inside = negative_drift_region(prob.spec.drift).indicator(tt, xx)
        assert np.array_equal(inside, xx > 0)


class TestCoupling:
    def test_identical_start_times_bit_identical(self):
        prob = _problem(drift="1 - t", sigma="1")
        cb = sl.simulate_coupled(prob, 0.5, 0.5, 1.0, everywhere_region(), 100, 64, seed=4)
        assert np.array_equal(cb.late.states, cb.early.states)
        assert (cb.region_exit == 64).all()

    def test_state_free_drift_difference_is_deterministic(self):
        prob = _problem(drift="1 - t", sigma="1")
        u, t = 0.25, 0.5
        cb = sl.simulate_coupled(prob, t, u, 1.0, everywhere_region(), 64, 32, seed=4)
        k = np.arange(33)
        expect = k * cb.late.dt * (u - t)
        diff = cb.late.states - cb.early.states
        np.testing.assert_allclose(diff, np.tile(expect, (64, 1)), atol=1e-12)
        stats, _, _ = coupling_statistic(cb)
        assert stats.max() == 0.0

    def test_comparison_report_constant_drift_exact_zero(self):
        prob = _problem(drift="0.4", sigma="1")
        cb = sl.simulate_coupled(prob, 0.5, 0.25, 1.0, everywhere_region(), 256, 64, seed=9)
        report = sl.comparison_report(cb)
        assert report.verdict == "PASS"
        assert report.worst_violation == 0.0

    def test_bridge_region_coupling_ordered(self):
        cb = _bridge_coupling()
        assert (cb.region_exit < 127).any()  # some paths do hit x <= 0
        report = sl.comparison_report(cb)
        assert report.verdict == "PASS"

    def test_region_exit_equals_per_path_exit_time(self):
        cb = _bridge_coupling()
        expect = [region_exit_time(path, cb.region, 0.5, cb.late.dt)
                  for path in cb.late.states]
        assert np.array_equal(cb.region_exit, expect)
        assert (cb.region_exit < 127).any() and (cb.region_exit == 127).any()

    def test_statistic_equals_gather_form(self):
        prob = _problem(drift="x*t - 0.3", sigma="1 + x*x/20")
        n_paths, n_steps = 300, 40
        cb = sl.simulate_coupled(prob, 0.5, 0.2, 0.5, everywhere_region(), n_paths, n_steps,
                                 seed=6)
        exits = np.random.default_rng(0).integers(0, n_steps + 1, size=n_paths)
        exits[:3] = (0, n_steps // 2, n_steps)
        cb = dataclasses.replace(cb, region_exit=exits)
        stats, k_worst, path_worst = coupling_statistic(cb)

        late, early, paths = cb.late.states, cb.early.states, np.arange(n_paths)
        expect = np.empty(n_steps + 1)
        worst = (-1.0, 0, 0)
        for k in range(n_steps + 1):
            idx = np.minimum(k, exits)
            pos = np.maximum(late[paths, idx] - early[paths, idx], 0.0)
            expect[k] = pos.mean()
            if pos.max() > worst[0]:
                worst = (pos.max(), k, int(pos.argmax()))
        assert worst[0] > 0.0
        assert np.array_equal(stats, expect)
        assert (k_worst, path_worst) == worst[1:]

    def test_rejects_bad_time_order(self):
        prob = _problem()
        with pytest.raises(SimulationError):
            sl.simulate_coupled(prob, 0.25, 0.5, 1.0, everywhere_region(), 8, 8, seed=1)


class TestLsmc:
    def test_martingale_value(self):
        prob = _problem(drift="0", sigma="1")
        res = sl.value_lsmc(prob, 0.0, 0.3, 20_000, 32, 3, seed=42)
        assert abs(res.estimate - 0.3) <= 3 * res.standard_error

    def test_positive_drift_waits_to_horizon(self):
        prob = _problem(drift="0.6", sigma="1")
        res = sl.value_lsmc(prob, 0.0, 0.2, 20_000, 32, 3, seed=43)
        assert abs(res.estimate - (0.2 + 0.6)) <= 3 * res.standard_error

    def test_running_reward_only_problem(self):
        # h = 1, zero terminal: never stop early, value = horizon - t
        spec = sl.ProblemSpec(
            drift=sl.constant_field(0.0),
            diffusion=sl.constant_field(1.0),
            terminal_reward=sl.constant_field(0.0),
            running_reward=sl.constant_field(1.0),
            horizon=1.0,
        )
        grid = sl.make_grid(1.0, -5, 5, 20, 20)
        prob = sl.validate_problem(spec, grid)
        res = sl.value_lsmc(prob, 0.0, 0.0, 5_000, 64, 2, seed=44)
        assert res.estimate == pytest.approx(1.0, abs=0.02)

    def test_standard_error_is_the_clt_one(self):
        # drift 2 never stops early: every payoff is X_T, so the estimate is
        # mean(X_T) and its standard error std(X_T, ddof=1) / sqrt(n)
        prob = _problem(drift="2", sigma="1")
        res = sl.value_lsmc(prob, 0.0, 0.0, 500, 16, 3, seed=7)
        x_end = sl.simulate_paths(prob, 0.0, 0.0, 500, 16, seed=7).states[:, -1]
        assert res.estimate == x_end.mean()
        assert res.standard_error == x_end.std(ddof=1) / np.sqrt(500)

    @pytest.mark.parametrize("degree", [0, 1, 2, 3, 4, 5])
    def test_cholesky_fit_is_the_least_squares_fit(self, degree):
        rng = np.random.default_rng(degree)
        z = rng.uniform(-1.0, 1.0, size=5000)
        future = np.maximum(z, 0.0) + rng.normal(size=z.size)
        rows = _legendre_rows(z, degree)
        assert rows.flags.c_contiguous
        assert np.allclose(rows, legvander(z, degree).T, rtol=0.0, atol=1e-13)
        coef, fitted = _fit(rows, future, degree)
        ref = np.linalg.lstsq(rows.T, future, rcond=None)[0]
        assert fitted == degree
        assert np.abs(coef - ref).max() <= 1e-10 * np.abs(ref).max()

    def test_rank_deficient_fit_lowers_the_degree(self):
        # 4 paths cannot determine 6 or 5 coefficients: the first regression
        # falls back to degree 3, which then holds for every later step
        prob = _problem(drift="0.0 - x", sigma="1")
        res = sl.value_lsmc(prob, 0.0, 0.0, 4, 16, 5, seed=3)
        assert res.warnings == tuple(
            f"regression matrix rank-deficient at step 15; degree reduced to {d}" for d in (4, 3)
        )
        assert np.isfinite(res.estimate)

    def test_round_off_pivot_is_rank_deficient(self):
        # on two points P_2 = P_0, yet Cholesky factors this degree-2 Gram
        # block with a squared pivot of 1.8e-15: the round-off rule rejects it
        z = np.repeat([-1.0, 1.0], [3, 5])
        coef, fitted = _fit(_legendre_rows(z, 2), z, 2)
        assert fitted == 1 and np.allclose(coef, [0.0, 1.0], rtol=0.0, atol=1e-14)

    def test_deterministic_given_seed(self):
        prob = _problem(drift="0", sigma="1")
        a = sl.value_lsmc(prob, 0.0, 0.0, 2_000, 16, 3, seed=7)
        b = sl.value_lsmc(prob, 0.0, 0.0, 2_000, 16, 3, seed=7)
        assert a.estimate == b.estimate and a.standard_error == b.standard_error
