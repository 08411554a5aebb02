"""Obstacle-problem solver: grids, exactness cases, boundaries, residuals."""

import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import stoplab as sl
from stoplab.grids import GridError, time_nodes
from stoplab.pipeline import StageError, prepare_problem, run_problem
from stoplab.problems import Orientation, StateSpace
from stoplab.solver import (
    NEG_INF,
    POS_INF,
    STEP_BLOCK,
    _edge_source,
    _howard,
    _operator_coefficients,
    _step_blocks,
    _step_thetas,
    _tridiag_apply,
    _tridiag_solve,
    round_off,
)


def _spec(drift="0", sigma="1", terminal="x", horizon=1.0, **kw):
    return sl.ProblemSpec(
        drift=sl.from_expression(drift, horizon),
        diffusion=sl.from_expression(sigma, horizon, allow_t=False),
        terminal_reward=sl.from_expression(terminal, horizon),
        horizon=horizon,
        **kw,
    )


def _solve(spec, pad=5.0, n=100, x_ref=0.0, theta=0.5):
    grid = sl.build_grid(spec, pad, n, n, x_ref=x_ref)
    prob = sl.validate_problem(spec, grid)
    return sl.solve_backward(prob, grid, theta=theta)


class TestBuildGrid:
    def test_unit_sigma_covers_pad(self):
        grid = sl.build_grid(_spec(), 5.0, 10, 10, x_ref=0.0)
        assert grid.x_nodes[0] == pytest.approx(-5.0)
        assert grid.x_nodes[-1] == pytest.approx(5.0)

    def test_half_line_clips_to_one_cell(self):
        spec = _spec(drift="0.1*x", sigma="0.5*x", state_space=StateSpace.POSITIVE_HALF_LINE)
        grid = sl.build_grid(spec, 5.0, 10, 100, x_ref=1.0)
        assert grid.x_nodes[0] > 0
        assert grid.x_nodes[0] == pytest.approx(grid.x_nodes[-1] / 100)

    def test_single_interval_rejected(self):
        with pytest.raises(GridError):
            sl.build_grid(_spec(), 5.0, 1, 10)

    def test_pole_shaves_horizon(self):
        spec = sl.ProblemSpec(
            drift=sl.from_expression("(0.0 - x)/(T - t)", 1.0),
            diffusion=sl.constant_field(1.0),
            terminal_reward=sl.from_expression("x", 1.0),
            horizon=1.0,
            pole_at_horizon=True,
        )
        grid = sl.build_grid(spec, 5.0, 100, 100, x_ref=0.0)
        assert grid.graded
        assert np.array_equal(grid.t_nodes, time_nodes(0.0, 1.0, 100, pole=True))
        assert grid.t_nodes[-1] == pytest.approx(1.0 - 1.0 / 101 ** 2, abs=1e-15)
        assert np.array_equal(grid.steps, np.diff(grid.t_nodes))

    def test_uniform_steps_keep_the_exact_scalar_step(self):
        # np.diff of a linspace differs from its step in the last bit
        grid = sl.build_grid(_spec(), 5.0, 400, 10, x_ref=0.0)
        assert not grid.graded and (grid.steps == grid.dt).all()

    def test_time_nodes_without_pole_are_linspace(self):
        for t0, horizon, n in ((0.0, 1.0, 400), (0.25, 1.0, 399), (0.1, 2.5, 7)):
            assert np.array_equal(time_nodes(t0, horizon, n), np.linspace(t0, horizon, n + 1))

    def test_time_nodes_graded_toward_pole(self):
        for t0, horizon, n in ((0.0, 1.0, 400), (0.5, 1.0, 127), (0.1, 2.5, 7)):
            t = time_nodes(t0, horizon, n, pole=True)
            assert t[0] == t0 and (np.diff(t) > 0).all()
            assert (np.diff(t, 2) < 0).all()  # the steps shrink toward the pole
            assert horizon - t[-1] == pytest.approx((horizon - t0) / (n + 1) ** 2, rel=1e-9)


class TestSolveBackward:
    def test_martingale_fixed_point_exact(self):
        surf = _solve(_spec(drift="0", terminal="x"), n=100)
        assert np.max(np.abs(surf.v - surf.obstacle)) == 0.0
        assert surf.exercise_mask.all()

    def test_constant_drift_matches_analytic(self):
        surf = _solve(_spec(drift="0.5"), pad=7.0, n=200)
        ts, xs = surf.grid.t_nodes, surf.grid.x_nodes
        exact = xs[None, :] + 0.5 * (1.0 - ts[:, None])
        band = np.abs(xs) <= 2.5
        assert np.max(np.abs(surf.v - exact)[:, band]) <= 1e-3
        interior = surf.exercise_mask[:-1, 1:-1]
        assert not interior.any()

    def test_terminal_row_equals_obstacle_exactly(self):
        surf = _solve(_spec(drift="1 - t", terminal="exp(x)"), n=60)
        assert np.array_equal(surf.v[-1], surf.obstacle[-1])

    def test_obstacle_inequality_everywhere(self):
        surf = _solve(_spec(drift="-0.4", terminal="max(x, 0)"), n=80)
        assert np.min(surf.v - surf.obstacle) >= -round_off(surf.obstacle)

    def test_x_monotone_value_for_monotone_obstacle(self):
        surf = _solve(_spec(drift="1 - t", terminal="x"), n=80)
        assert np.min(np.diff(surf.v, axis=1)) >= -2 * round_off(surf.v)

    def test_running_reward_source_term(self):
        # zero terminal, unit running reward, no stopping: w(t, x) = T_eff - t
        spec = sl.ProblemSpec(
            drift=sl.constant_field(0.0), diffusion=sl.constant_field(1.0),
            terminal_reward=sl.constant_field(0.0),
            running_reward=sl.constant_field(1.0), horizon=1.0,
        )
        surf = _solve(spec, n=80)
        ts = surf.grid.t_nodes
        expect = (ts[-1] - ts)[:, None]
        assert np.max(np.abs(surf.v - expect)) <= 1e-3

    def test_drift_pole_on_grid_raises(self):
        # pole inside the grid because pole_at_horizon was not declared
        spec = sl.ProblemSpec(
            drift=sl.from_expression("-x/(1 - t)", 1.0),
            diffusion=sl.constant_field(1.0),
            terminal_reward=sl.from_expression("x", 1.0),
            horizon=1.0,
        )
        grid = sl.build_grid(spec, 5.0, 50, 50, x_ref=0.0)
        with pytest.raises((sl.problems.ValidationError, sl.solver.SolverError)):
            prob = sl.validate_problem(spec, grid)
            sl.solve_backward(prob, grid)


class TestExtractBoundary:
    def test_all_continuation_gives_neg_inf(self):
        surf = _solve(_spec(drift="0.5"), n=60)
        b = sl.extract_boundary(surf)
        assert (b.values[:-1] == NEG_INF).all()
        assert b.values[-1] == POS_INF  # terminal slice stops everywhere

    def test_all_stopping_gives_pos_inf(self):
        surf = _solve(_spec(drift="0"), n=60)
        b = sl.extract_boundary(surf)
        assert (b.values == POS_INF).all()

    def test_upper_surface_read_from_the_top(self):
        surf = _solve(_spec(drift="0.5", orientation=Orientation.UPPER), n=40)
        b = sl.extract_boundary(surf)
        assert b.orientation is Orientation.UPPER
        assert (b.values[:-1] == POS_INF).all()  # all continuation
        assert b.values[-1] == NEG_INF           # the terminal slice stops everywhere
        mask = np.zeros_like(surf.exercise_mask)
        mask[3, 25:] = True                      # stop at and above x_25
        mask[4, 25:] = mask[4, 10] = True        # plus a stray stop node below
        b = sl.extract_boundary(dataclasses.replace(surf, exercise_mask=mask))
        assert b.values[3] == surf.grid.x_nodes[25]
        assert b.values[4] == surf.grid.x_nodes[10]
        assert b.non_separated == (4,)

    def test_unflip_negates_and_swaps_sentinels(self):
        surf = _solve(_spec(drift="0.5"), n=40)
        b = sl.extract_boundary(surf)
        bu = sl.unflip_boundary(b)
        assert bu.orientation is Orientation.UPPER
        assert (bu.values[:-1] == POS_INF).all()
        assert bu.values[-1] == NEG_INF

    def test_bridge_boundary_scaling_against_refined_grid(self):
        spec_up = sl.ProblemSpec(
            drift=sl.from_expression("(0.0 - x)/(T - t)", 1.0),
            diffusion=sl.constant_field(1.0),
            terminal_reward=sl.from_expression("x", 1.0),
            horizon=1.0, orientation=Orientation.UPPER, pole_at_horizon=True,
        )
        spec = sl.flip_orientation(spec_up)
        means = {}
        for n in (100, 400):
            surf = _solve(spec, n=n)
            b = sl.unflip_boundary(sl.extract_boundary(surf))
            ts = b.t_nodes
            mid = (ts >= 1 / 3) & (ts <= 2 / 3)
            means[n] = float(np.mean(b.values[mid] / np.sqrt(1.0 - ts[mid])))
        assert abs(means[100] - means[400]) / abs(means[400]) <= 0.05

    def test_non_separated_slices_warn_not_fail(self):
        surf = _solve(_spec(drift="0.5"), n=20)
        # hand-corrupt the mask to a non-separated slice
        mask = surf.exercise_mask.copy()
        mask[3, 1:-1] = False
        mask[3, 5] = True
        mask[3, 2] = True
        mask[3, 3] = False
        corrupted = sl.ValueSurface(
            grid=surf.grid, v=surf.v, obstacle=surf.obstacle, exercise_mask=mask,
            problem=surf.problem, meta=surf.meta,
        )
        b = sl.extract_boundary(corrupted)
        assert 3 in b.non_separated

    def test_gbm_time_drift_stops_only_at_the_horizon(self):
        # H = x (1 - t) > 0 before T, so the stop set holds no node before T,
        # edges included, and the 400^2 gallery boundary has no finite node
        problem = prepare_problem(sl.builtin_examples()["gbm_time_drift"])
        surf = sl.solve_backward(problem, problem.disc.grid)
        assert not surf.exercise_mask[:-1].any()
        b = sl.extract_boundary(surf)
        assert not np.isfinite(b.values).any()


def _gallery(name, *, gamma_t=None, **grid):
    """A gallery config with its grid (and, for the gbm model, its drift rate) replaced."""
    cfg = sl.builtin_examples()[name]
    if gamma_t is not None:
        cfg = dataclasses.replace(cfg, problem=dataclasses.replace(cfg.problem, gamma_t=gamma_t))
    return dataclasses.replace(cfg, grid=dataclasses.replace(cfg.grid, **grid))


def _solve_config(cfg):
    problem = prepare_problem(cfg)
    return sl.solve_backward(problem, problem.disc.grid, theta=cfg.grid.theta)


class TestFarFieldEdges:
    # v = E[X_T] on every node, the edges included: these drifts never stop
    # before T.  The measured error over the 400^2 grid is 1.00, 5.66 and 17.1
    # dt^2 (it falls 4x per halving of dt and dx); the bound is 1.1x that.
    @pytest.mark.parametrize("name, gamma_t, exact, measured", [
        ("bm_time_drift", None, lambda t, x: x + (1 - t) ** 2 / 2, 1.00),
        ("gbm_time_drift", None, lambda t, x: x * np.exp((1 - t) ** 2 / 2), 5.66),
        # theta dt |mu|/dx = 0.90 on the outflow edge at t = 0
        ("gbm_time_drift", "1.8*(1 - t)", lambda t, x: x * np.exp(0.9 * (1 - t) ** 2), 17.1),
    ])
    def test_closed_form_over_the_whole_grid(self, name, gamma_t, exact, measured):
        surf = _solve_config(_gallery(name, gamma_t=gamma_t))
        grid = surf.grid
        err = np.max(np.abs(surf.v - exact(grid.t_nodes[:, None], grid.x_nodes[None, :])))
        assert err <= 1.1 * measured * grid.dt ** 2
        assert not surf.exercise_mask[:-1].any()

    @pytest.mark.parametrize("name, bound", [("two_point_filtering", 1e-7),
                                             ("ou_time_mean", 1e-14)])
    def test_pad_insensitive(self, name, bound):
        # the same dx on a grid 1.5x as wide: the middle third of the narrow
        # grid moves by 7.7e-8 and 1.6e-15 (the bounds)
        narrow = _solve_config(_gallery(name, x_pad=5.0, nx=400))
        wide = _solve_config(_gallery(name, x_pad=7.5, nx=600))
        assert np.array_equal(narrow.grid.x_nodes[::100], wide.grid.x_nodes[100:501:100])
        assert np.max(np.abs(narrow.v - wide.v[:, 100:501])[:, 133:268]) <= bound

    def test_outflow_edge_beyond_one_cell_per_step_raises(self, tmp_path):
        # theta dt |mu|/dx = 1.25 on the right edge at t = 0
        cfg = _gallery("gbm_time_drift", gamma_t="2.5*(1 - t)")
        with pytest.raises(sl.solver.SolverError, match="right edge x=3 at t=0 "):
            _solve_config(cfg)
        with pytest.raises(StageError) as err:
            run_problem(cfg, out_dir=str(tmp_path))
        assert err.value.stage == "solve"


def _per_step_systems(disc, theta, v):
    """Reference assembly, one backward step at a time from k = nt-1 down to 0, with
    the operator coefficients built per time node.  Yields (k, lower, diag, upper,
    rhs); rhs reads v[k + 1], so a solve fills each slice before the next step."""
    grid = disc.grid
    th = _step_thetas(theta, grid.nt)
    src = _edge_source(disc, th)
    sig2 = disc.sigma * disc.sigma
    co_next = _operator_coefficients(disc.mu[grid.nt], sig2, grid.dx)
    for k in range(grid.nt - 1, -1, -1):
        lo_n, di_n, up_n = co_now = _operator_coefficients(disc.mu[k], sig2, grid.dx)
        th_k, dt = th[k], grid.steps[k]
        rhs = v[k + 1] + (1.0 - th_k) * dt * _tridiag_apply(*co_next, v[k + 1])
        if disc.f is not None:
            rhs = rhs + dt * (th_k * disc.f[k] + (1.0 - th_k) * disc.f[k + 1])
        rhs[::rhs.size - 1] += src[k]
        yield k, -th_k * dt * lo_n, 1.0 - th_k * dt * di_n, -th_k * dt * up_n, rhs
        co_next = co_now


def _residual_per_step(surface):
    """Reference residual check: one backward step at a time, k = nt-1 down to 0,
    a strictly larger residual replacing the witness."""
    grid, v, psi = surface.grid, surface.v, surface.obstacle
    worst, witness, scale = 0.0, None, 0.0
    for k, lower, diag, upper, rhs in _per_step_systems(surface.problem.disc,
                                                        surface.meta.theta, v):
        vk = v[k]
        slack = _tridiag_apply(lower, diag, upper, vk) - rhs
        res = np.abs(np.minimum(vk - psi[k], slack))
        j = int(np.argmax(res))
        if res[j] > worst:
            worst, witness = float(res[j]), (float(grid.t_nodes[k]), float(grid.x_nodes[j]))
        size = np.abs(diag * vk)
        size[1:] += np.abs(lower[1:] * vk[:-1])
        size[:-1] += np.abs(upper[:-1] * vk[1:])
        size += np.abs(rhs)
        scale = max(scale, float(np.max(size)))
    return worst, witness, 1e-12 * (1.0 + scale)


def _running_reward_surface(nt):
    spec = _spec(drift="x*t/2 - 0.3", sigma="1 + x*x/20",
                 running_reward=sl.from_expression("0.2*x - t", 1.0))
    grid = sl.build_grid(spec, 4.0, nt, 30, x_ref=0.0)
    return sl.solve_backward(sl.validate_problem(spec, grid), grid)


BLOCK_EDGES = [STEP_BLOCK - 1, STEP_BLOCK, STEP_BLOCK + 1, 2 * STEP_BLOCK + 1]


class TestResidualAndConvergence:
    @pytest.mark.parametrize("nt", BLOCK_EDGES)
    def test_blocked_solve_equals_per_step_solve(self, nt):
        surf = _running_reward_surface(nt)
        disc, psi = surf.problem.disc, surf.obstacle
        v = np.empty_like(surf.v)
        v[-1] = psi[-1]
        iterations = np.zeros(nt, dtype=int)
        for k, lower, diag, upper, rhs in _per_step_systems(disc, surf.meta.theta, v):
            v[k], iterations[k], _ = _howard(lower, diag, upper, rhs, psi[k], v[k + 1], "ref")
        assert np.array_equal(surf.v, v)
        assert np.array_equal(surf.meta.psor_sweeps, iterations)
        assert (iterations > 1).any()   # the stop set moves, so some step re-picks it

    def test_value_at_interpolates_on_the_grid_and_raises_off_it(self):
        surf = _running_reward_surface(STEP_BLOCK)
        ts, xs = surf.grid.t_nodes, surf.grid.x_nodes
        assert sl.value_at(surf, ts[0], xs[0]) == surf.v[0, 0]
        assert sl.value_at(surf, ts[-1], xs[-1]) == surf.v[-1, -1]
        mid = sl.value_at(surf, (ts[2] + ts[3]) / 2, xs[5])
        assert mid == pytest.approx((surf.v[2, 5] + surf.v[3, 5]) / 2, rel=1e-12)
        for t, x in ((-1.0, 0.0), (ts[-1] + 1e-9, 0.0), (0.0, xs[0] - 1e-9),
                     (0.0, 40.0), (float("nan"), 0.0)):
            with pytest.raises(ValueError, match="off the solved grid"):
                sl.value_at(surf, t, x)

    @pytest.mark.parametrize("nt", BLOCK_EDGES)
    def test_one_coefficient_build_per_block(self, nt, monkeypatch):
        calls = []

        def counted(mu, sig2, dx):
            calls.append(mu.shape)
            return _operator_coefficients(mu, sig2, dx)

        monkeypatch.setattr(sl.solver, "_operator_coefficients", counted)
        surf = _running_reward_surface(nt)
        blocks = -(-nt // STEP_BLOCK)
        assert len(calls) == blocks
        sl.residual_complementarity(surf)
        assert len(calls) == 2 * blocks
        assert sum(shape[0] - 1 for shape in calls) == 2 * nt

    @pytest.mark.parametrize("nt", BLOCK_EDGES)
    def test_blocked_residual_equals_per_step_scan(self, nt):
        surf = _running_reward_surface(nt)
        grid = surf.grid
        report = sl.residual_complementarity(surf)
        assert (report.worst_violation, report.witness, report.tolerance) == \
            _residual_per_step(surf)
        assert report.verdict == "PASS"

        # a residual of 1e-9 planted at the same stop node of two steps, in
        # different blocks when nt > STEP_BLOCK: the check fails, and the
        # later step is the witness
        k_late, k_early, j = nt - 5, 2, 12
        v = surf.v.copy()
        for k in (k_late, k_early):
            assert surf.exercise_mask[k, j]
            v[k, j] = surf.obstacle[k, j] + 1e-9
        bumped = dataclasses.replace(surf, v=v)
        report = sl.residual_complementarity(bumped)
        expect = _residual_per_step(bumped)
        assert (report.worst_violation, report.witness, report.tolerance) == expect
        assert expect[0] == v[k_late, j] - surf.obstacle[k_late, j]
        assert expect[1] == (grid.t_nodes[k_late], grid.x_nodes[j])
        assert report.verdict == "FAIL"

    def test_stiff_operator_residual_passes(self):
        # dt / dx^2 = 4e4: A v rounds at ~1e-11 while v and rhs stay <= 1, so a
        # tolerance on the size of rhs alone would fail this correct solve
        spec = _spec(terminal="exp(-x*x)")
        grid = sl.build_grid(spec, 5.0, 4, 4000, x_ref=0.0)
        surf = sl.solve_backward(sl.validate_problem(spec, grid), grid)
        report = sl.residual_complementarity(surf)
        assert report.verdict == "PASS"
        assert report.worst_violation > round_off(surf.v)

    def test_martingale_residual_zero(self):
        surf = _solve(_spec(drift="0"), n=60)
        report = sl.residual_complementarity(surf)
        assert report.verdict == "PASS"
        assert report.worst_violation <= 1e-12

    def test_constant_drift_residual_passes(self):
        surf = _solve(_spec(drift="0.5"), n=60)
        assert sl.residual_complementarity(surf).verdict == "PASS"

    def test_bridge_residual_passes_coarse_and_fine(self):
        spec = sl.flip_orientation(sl.ProblemSpec(
            drift=sl.from_expression("(0.0 - x)/(T - t)", 1.0),
            diffusion=sl.constant_field(1.0),
            terminal_reward=sl.from_expression("exp(x)", 1.0),
            horizon=1.0, orientation=Orientation.UPPER, pole_at_horizon=True,
        ))
        for n in (25, 200):
            surf = _solve(spec, pad=4.0, n=n)
            assert sl.residual_complementarity(surf).verdict == "PASS"

    def test_grid_cascade_changes_shrink(self):
        spec = sl.flip_orientation(sl.ProblemSpec(
            drift=sl.from_expression("(0.0 - x)/(T - t)", 1.0),
            diffusion=sl.constant_field(1.0),
            terminal_reward=sl.from_expression("exp(x)", 1.0),
            horizon=1.0, orientation=Orientation.UPPER, pole_at_horizon=True,
        ))
        values = []
        for n in (80, 160, 320):
            surf = _solve(spec, pad=4.0, n=n)
            j = int(np.argmin(np.abs(surf.grid.x_nodes)))
            values.append(surf.v[0, j])
        first, second = abs(values[1] - values[0]), abs(values[2] - values[1])
        assert second <= max(first, 1e-9)


def _dense(lower, diag, upper):
    return np.diag(diag) + np.diag(lower[1:], -1) + np.diag(upper[:-1], 1)


def _step_matrix(rng, n):
    """A random backward-step matrix: I - c L with L's rows summing to zero, off-diagonals >= 0."""
    lo, up = rng.uniform(0.0, 3.0, n), rng.uniform(0.0, 3.0, n)
    return -lo, 1.0 + lo + up, -up


def _brute_force_lcp(A, rhs, psi):
    """The solution of min(v - psi, A v - rhs) = 0 by trying all 2^n stop sets densely."""
    n = rhs.size
    best, best_err = None, np.inf
    for stop in itertools.product((False, True), repeat=n):
        stop = np.array(stop)
        M = np.where(stop[:, None], np.eye(n), A)
        v = np.linalg.solve(M, np.where(stop, psi, rhs))
        slack = A @ v - rhs
        # feasibility and complementarity; the exact stop set leaves only round-off
        err = max(np.max(psi - v), np.max(-slack), np.max(np.abs(np.minimum(v - psi, slack))))
        if err < best_err:
            best, best_err = v, err
    return best


class TestLinearAlgebra:
    def test_tridiag_solve_matches_dense_solve(self):
        # every n from 1 to 70 covers 2^k - 1, 2^k and 2^k + 1 unknowns
        rng = np.random.default_rng(5)
        for n in range(1, 71):
            lower, upper = rng.uniform(-1.0, 1.0, n), rng.uniform(-1.0, 1.0, n)
            diag = rng.choice((-1.0, 1.0), n) * (np.abs(lower) + np.abs(upper) + rng.uniform(0.1, 2.0, n))
            rhs = rng.normal(size=n)
            # entries beyond the band are ignored
            lower[0], upper[-1] = np.nan, np.nan
            x = _tridiag_solve(lower, diag, upper, rhs)
            exact = np.linalg.solve(_dense(lower, diag, upper), rhs)
            assert np.max(np.abs(x - exact)) <= 1e-13 * (1.0 + np.max(np.abs(exact))), n

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
    def test_howard_matches_brute_force_lcp(self, n, seed):
        rng = np.random.default_rng(seed)
        lower, diag, upper = _step_matrix(rng, n)
        psi, rhs, v0 = rng.normal(size=n), rng.normal(size=n), rng.normal(size=n)
        v, iterations, _ = _howard(lower, diag, upper, rhs, psi, v0, where="test")
        exact = _brute_force_lcp(_dense(lower, diag, upper), rhs, psi)
        assert iterations <= n + 1
        assert np.max(np.abs(v - exact)) <= 1e-12 * (1.0 + np.max(np.abs(exact)))

    @pytest.mark.parametrize("name", list(sl.builtin_examples()))
    def test_gallery_complementarity_residual_at_round_off(self, name):
        surf = _solve_config(_gallery(name, nt=50, nx=50))
        psi = surf.obstacle
        for lo, hi, lower, diag, upper, rhs in _step_blocks(surf.problem.disc, surf.meta.theta):
            for r in range(hi - lo):
                k, v = lo + r, surf.v[lo + r]
                b = rhs(surf.v[k + 1], r)
                slack = _dense(lower[r], diag[r], upper[r]) @ v - b
                res = np.max(np.abs(np.minimum(v - psi[k], slack)))
                assert res <= 1e-12 * (1.0 + np.max(np.abs(b))), (k, res)
