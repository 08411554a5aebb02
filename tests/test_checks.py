"""Hypothesis and conclusion checkers on fields, surfaces and boundaries."""

import dataclasses

import numpy as np
import pytest

import stoplab as sl
from stoplab import checks as ck
from stoplab.problems import Orientation
from stoplab.reports import FAIL, INCONCLUSIVE, PASS
from stoplab.solver import NEG_INF, POS_INF, Boundary, SchemeMeta, ValueSurface
from conftest import run_check


def _grid(t_end=1.0, lo=-5.0, hi=5.0, n=50):
    return sl.make_grid(t_end, lo, hi, n, n)


def _field(text, horizon=1.0):
    return sl.from_expression(text, horizon)


def _spec(drift="0", terminal="x", running=None):
    return sl.ProblemSpec(drift=_field(drift), diffusion=sl.constant_field(1.0),
                          terminal_reward=_field(terminal), horizon=1.0,
                          running_reward=None if running is None else _field(running))


def _surface_from_matrix(v, grid, obstacle=None, drift="1", sigma="1"):
    spec = sl.ProblemSpec(
        drift=_field(drift), diffusion=sl.from_expression(sigma, 1.0, allow_t=False),
        terminal_reward=_field("x"), horizon=1.0,
    )
    prob = sl.validate_problem(spec, grid)
    if obstacle is None:
        obstacle = v - 1.0  # strictly below: everything is continuation
    return ValueSurface(
        grid=grid, v=v, obstacle=obstacle, exercise_mask=v <= obstacle, problem=prob,
        meta=SchemeMeta(theta=0.5, psor_sweeps=np.zeros(grid.nt, int), psor_worst_residual=0.0),
    )


class TestRewardMonotone:
    def test_exponential_passes(self):
        assert run_check("reward_x_monotone", _spec(terminal="exp(x)"), _grid()).verdict == PASS

    def test_decreasing_fails_with_first_pair_witness(self):
        r = run_check("reward_x_monotone", _spec(terminal="-x"), _grid())
        assert r.verdict == FAIL
        assert r.witness == (0.0, -5.0)

    def test_piecewise_flat_passes(self):
        assert run_check("reward_x_monotone", _spec(terminal="max(x, 0)"), _grid()).verdict == PASS


class TestDriftTimeMonotone:
    def test_decreasing_everywhere_passes(self):
        r = run_check("drift_time_monotone_everywhere", _spec(drift="1 - t"), _grid())
        assert r.verdict == PASS

    def test_increasing_fails(self):
        r = run_check("drift_time_monotone_everywhere", _spec(drift="t"), _grid())
        assert r.verdict == FAIL

    def test_bridge_region_vs_everywhere(self):
        spec = _spec(drift="(0.0 - x)/(T - t)")
        grid = _grid(t_end=0.99)
        region = run_check("drift_time_monotone_where_drift_negative", spec, grid)
        everywhere = run_check("drift_time_monotone_everywhere", spec, grid)
        assert region.verdict == PASS
        assert everywhere.verdict == FAIL
        assert everywhere.witness[1] < 0  # violations live at negative states

    def test_empty_region_inconclusive(self):
        r = run_check("drift_time_monotone_where_drift_negative", _spec(drift="1"), _grid())
        assert r.verdict == INCONCLUSIVE


class TestRunningRewardMonotone:
    def test_time_decay_passes_both(self):
        r = run_check("running_reward_monotone", _spec(running="1 - t"), _grid())
        assert r.verdict == PASS
        assert "x-monotone: PASS" in r.notes and "t-monotone: PASS" in r.notes

    def test_mixed_monotonicity_fails_in_t(self):
        r = run_check("running_reward_monotone", _spec(running="x*t"), _grid())
        assert r.verdict == FAIL
        assert "x-monotone: PASS" in r.notes and "t-monotone: FAIL" in r.notes

    def test_constant_passes(self):
        assert run_check("running_reward_monotone", _spec(running="1"), _grid()).verdict == PASS


class TestCurvatureBalance:
    def test_handbuilt_violation_fails_with_witness(self):
        grid = _grid(n=100)
        xs = grid.x_nodes
        v = np.tile(-(xs**2), (grid.nt + 1, 1))
        surf = _surface_from_matrix(v, grid, drift="1")
        r = ck.check_drift_curvature_balance(surf)
        assert r.verdict == FAIL
        assert r.witness is not None

    def test_inconclusive_when_drift_strictly_negative(self):
        grid = _grid(n=40)
        xs = grid.x_nodes
        v = np.tile(xs**2, (grid.nt + 1, 1))
        surf = _surface_from_matrix(v, grid, drift="-1")
        assert ck.check_drift_curvature_balance(surf).verdict == INCONCLUSIVE

    def test_bridge_exp_surface_passes(self):
        spec_up = sl.ProblemSpec(
            drift=sl.from_expression("(0.0 - x)/(T - t)", 1.0),
            diffusion=sl.constant_field(1.0),
            terminal_reward=_field("exp(x)"),
            horizon=1.0, orientation=Orientation.UPPER, pole_at_horizon=True,
        )
        spec_lo = sl.flip_orientation(spec_up)
        grid = sl.build_grid(spec_lo, 4.0, 150, 150, x_ref=0.0)
        surf_lo = sl.solve_backward(sl.validate_problem(spec_lo, grid), grid)
        prob_up = sl.validate_problem(spec_up, sl.build_grid(spec_up, 4.0, 150, 150, x_ref=0.0))
        surf = sl.unflip_surface(surf_lo, prob_up)
        assert ck.check_drift_curvature_balance(surf).verdict == PASS


class TestValueTimeMonotone:
    def test_constant_drift_surface_passes(self):
        spec = sl.ProblemSpec(drift=sl.constant_field(0.5), diffusion=sl.constant_field(1.0),
                              terminal_reward=_field("x"), horizon=1.0)
        grid = sl.build_grid(spec, 5.0, 80, 80, x_ref=0.0)
        surf = sl.solve_backward(sl.validate_problem(spec, grid), grid)
        assert ck.check_value_time_monotone(surf).verdict == PASS

    def test_martingale_surface_passes_with_equality(self):
        spec = sl.ProblemSpec(drift=sl.constant_field(0.0), diffusion=sl.constant_field(1.0),
                              terminal_reward=_field("x"), horizon=1.0)
        grid = sl.build_grid(spec, 5.0, 80, 80, x_ref=0.0)
        surf = sl.solve_backward(sl.validate_problem(spec, grid), grid)
        r = ck.check_value_time_monotone(surf)
        assert r.verdict == PASS and r.worst_violation == 0.0

    def test_violated_hypotheses_report_without_prior_claim(self):
        # increasing drift: no conclusion is promised; the check just reports
        spec = sl.ProblemSpec(drift=_field("t"), diffusion=sl.constant_field(1.0),
                              terminal_reward=_field("x"), horizon=1.0)
        grid = sl.build_grid(spec, 5.0, 80, 80, x_ref=0.0)
        surf = sl.solve_backward(sl.validate_problem(spec, grid), grid)
        r = ck.check_value_time_monotone(surf)
        assert r.verdict in (PASS, FAIL)
        assert np.isfinite(r.worst_violation)

    def test_constructed_rise_fails(self):
        grid = _grid(n=40)
        ts = grid.t_nodes
        v = np.tile(ts[:, None], (1, grid.nx + 1))  # increasing in t
        surf = _surface_from_matrix(v, grid, drift="0")
        assert ck.check_value_time_monotone(surf).verdict == FAIL

        # a surface constant in t passes with worst 0; a rise of 1e-9 at one node fails there
        v = np.tile(grid.x_nodes, (grid.nt + 1, 1))
        assert ck.check_value_time_monotone(_surface_from_matrix(v, grid)).worst_violation == 0.0
        v[20, 25] += 1e-9
        r = ck.check_value_time_monotone(_surface_from_matrix(v, grid))
        assert r.verdict == FAIL
        assert r.witness == (grid.t_nodes[20], grid.x_nodes[25])


class TestBoundaryMonotone:
    def _boundary(self, values, orientation=Orientation.LOWER, dx=0.01):
        values = np.asarray(values, dtype=float)
        return Boundary(t_nodes=np.linspace(0, 1, len(values)), values=values,
                        orientation=orientation, cell_size=dx)

    def test_all_neg_inf_vacuous_pass(self):
        assert ck.check_boundary_monotone(self._boundary([NEG_INF] * 5)).verdict == PASS

    def test_drop_beyond_cell_fails_at_index(self):
        r = ck.check_boundary_monotone(self._boundary([0.0, 0.1, 0.05]))
        assert r.verdict == FAIL
        assert r.witness[0] == pytest.approx(1.0)  # second pair's time node

    def test_one_cell_slack_allowed(self):
        r = ck.check_boundary_monotone(self._boundary([0.0, 0.1, 0.095]))
        assert r.verdict == PASS

    def test_sentinel_order_respected(self):
        good = [NEG_INF, NEG_INF, 0.0, 0.5, POS_INF]
        assert ck.check_boundary_monotone(self._boundary(good)).verdict == PASS
        bad = [0.0, NEG_INF, 0.5]
        assert ck.check_boundary_monotone(self._boundary(bad)).verdict == FAIL

    def test_non_separated_slice_inconclusive(self):
        b = Boundary(t_nodes=np.linspace(0, 1, 6), values=np.array([0.0, 0.1, 0.2, 0.3, 0.4, 0.5]),
                     orientation=Orientation.LOWER, cell_size=0.01, non_separated=(3,))
        r = ck.check_boundary_monotone(b)
        assert r.verdict == INCONCLUSIVE
        assert r.witness == (b.t_nodes[3], 0.3)
        assert "t=0.6" in r.notes
        # the same values, all separated, pass
        assert ck.check_boundary_monotone(dataclasses.replace(b, non_separated=())).verdict == PASS
        # a violation still fails: a drop of more than one cell, and a sentinel out of order
        drop = dataclasses.replace(b, values=np.array([0.0, 0.1, 0.2, 0.3, 0.25, 0.5]))
        r = ck.check_boundary_monotone(drop)
        assert r.verdict == FAIL
        assert r.witness == (b.t_nodes[4], 0.25)
        sentinel = dataclasses.replace(b, values=np.array([0.0, 0.1, 0.2, 0.3, NEG_INF, 0.5]))
        assert ck.check_boundary_monotone(sentinel).verdict == FAIL

    def test_upper_orientation_mirrors(self):
        decreasing = [2.0, 1.5, 1.0, POS_INF]
        r = ck.check_boundary_monotone(
            self._boundary(decreasing, orientation=Orientation.UPPER))
        assert r.verdict == FAIL  # finite -> all-continuation is out of order
        ok = [POS_INF, 2.0, 1.5, NEG_INF]
        assert ck.check_boundary_monotone(
            self._boundary(ok, orientation=Orientation.UPPER)).verdict == PASS


class TestExerciseMask:
    """The solver's stop set, which the region checks read, on known regions."""

    def test_martingale_all_stopping(self):
        spec = _spec()
        grid = sl.build_grid(spec, 5.0, 40, 40, x_ref=0.0)
        surf = sl.solve_backward(sl.validate_problem(spec, grid), grid)
        assert surf.exercise_mask.all()

    def test_positive_drift_interior_continuation(self):
        spec = _spec(drift="0.5")
        grid = sl.build_grid(spec, 5.0, 40, 40, x_ref=0.0)
        surf = sl.solve_backward(sl.validate_problem(spec, grid), grid)
        assert not surf.exercise_mask[:-1, 1:-1].any()
        assert surf.exercise_mask[-1].all()


class TestValueContinuity:
    def test_smooth_surface_passes(self):
        spec = sl.ProblemSpec(drift=sl.constant_field(0.5), diffusion=sl.constant_field(1.0),
                              terminal_reward=_field("x"), horizon=1.0)
        grid = sl.build_grid(spec, 5.0, 60, 60, x_ref=0.0)
        surf = sl.solve_backward(sl.validate_problem(spec, grid), grid)
        assert ck.check_value_continuity(surf).verdict == PASS

    def test_constructed_jump_fails(self):
        grid = _grid(n=60)
        xs = grid.x_nodes
        v = np.tile(np.where(xs > 0, 5.0, 0.0), (grid.nt + 1, 1))
        surf = _surface_from_matrix(v, grid, drift="0")
        r = ck.check_value_continuity(surf)
        assert r.verdict == FAIL
        assert r.witness == (grid.t_nodes[0], xs[xs > 0][0])  # the node the jump lands on


class TestTheoremPipelines:
    """Hypotheses PASS implies conclusions PASS, at grid scale."""

    @pytest.mark.parametrize("drift,terminal", [("1 - t", "x"), ("0.3", "exp(x)")])
    def test_monotone_drift_pipeline(self, drift, terminal):
        spec = sl.ProblemSpec(drift=_field(drift), diffusion=sl.constant_field(1.0),
                              terminal_reward=_field(terminal), horizon=1.0)
        grid = sl.build_grid(spec, 5.0, 80, 80, x_ref=0.0)
        surf = sl.solve_backward(sl.validate_problem(spec, grid), grid)
        b = sl.extract_boundary(surf)
        assert run_check("reward_x_monotone", spec, grid).verdict == PASS
        assert run_check("drift_time_monotone_everywhere", spec, grid).verdict == PASS
        assert ck.check_value_time_monotone(surf).verdict == PASS
        assert ck.check_boundary_monotone(b).verdict == PASS

    def test_region_weakened_pipeline_bridge(self):
        spec_up = sl.ProblemSpec(
            drift=sl.from_expression("(0.0 - x)/(T - t)", 1.0),
            diffusion=sl.constant_field(1.0),
            terminal_reward=_field("exp(x)"), horizon=1.0,
            orientation=Orientation.UPPER, pole_at_horizon=True,
        )
        spec_lo = sl.flip_orientation(spec_up)
        grid = sl.build_grid(spec_lo, 4.0, 120, 120, x_ref=0.0)
        surf_lo = sl.solve_backward(sl.validate_problem(spec_lo, grid), grid)
        grid_up = sl.build_grid(spec_up, 4.0, 120, 120, x_ref=0.0)
        surf = sl.unflip_surface(surf_lo, sl.validate_problem(spec_up, grid_up))
        b = sl.unflip_boundary(sl.extract_boundary(surf_lo))
        assert run_check("reward_x_monotone", spec_up, grid_up).verdict == PASS
        assert run_check("drift_time_monotone_where_drift_negative",
                         spec_up, grid_up).verdict == PASS
        assert ck.check_drift_curvature_balance(surf).verdict == PASS
        assert ck.check_value_time_monotone(surf).verdict == PASS
        assert ck.check_boundary_monotone(b).verdict == PASS

    def test_reduced_problem_pipeline(self):
        # terminal x with drift 1 - t reduces to running reward h = 1 - t;
        # the exact partials of g keep h free of finite-difference noise
        spec = sl.ProblemSpec(drift=_field("1 - t"), diffusion=sl.constant_field(1.0),
                              terminal_reward=_field("x"), horizon=1.0)
        reduced = sl.reduce_to_running_reward(spec)
        grid = sl.build_grid(reduced, 5.0, 80, 80, x_ref=0.0)
        surf = sl.solve_backward(sl.validate_problem(reduced, grid), grid)
        b = sl.extract_boundary(surf)
        assert run_check("running_reward_monotone", reduced, grid).verdict == PASS
        assert run_check("drift_time_monotone_everywhere", reduced, grid).verdict == PASS
        assert ck.check_value_time_monotone(surf).verdict == PASS
        assert ck.check_boundary_monotone(b).verdict == PASS
