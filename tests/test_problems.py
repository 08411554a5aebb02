"""Problem validation, orientation reflection, and reward reduction."""

from dataclasses import replace

import numpy as np
import pytest

import stoplab as sl
from stoplab.config import builtin_examples
from stoplab.pipeline import build_problem
from stoplab.problems import (
    Orientation,
    OrientationError,
    ReductionError,
    StateSpace,
    ValidationError,
    discretize,
)


def _spec(drift="0", sigma="1", terminal="x", horizon=1.0, **kw):
    return sl.ProblemSpec(
        drift=sl.from_expression(drift, horizon),
        diffusion=sl.from_expression(sigma, horizon, allow_t=False),
        terminal_reward=sl.from_expression(terminal, horizon),
        horizon=horizon,
        **kw,
    )


def _grid(t_end=1.0, lo=-5.0, hi=5.0, n=50):
    return sl.make_grid(t_end, lo, hi, n, n)


class TestValidate:
    def test_constant_drift_no_warnings(self):
        spec = _spec(drift="0.7")
        out = sl.validate_problem(spec, _grid())
        assert out.warnings == ()

    def test_bridge_blowup_warning(self):
        spec = sl.ProblemSpec(
            drift=sl.from_expression("(0.0 - x)/(T - t)", 1.0),
            diffusion=sl.constant_field(1.0),
            terminal_reward=sl.from_expression("x", 1.0),
            horizon=1.0,
            pole_at_horizon=True,
        )
        out = sl.validate_problem(spec, _grid(t_end=1.0 - 1e-3))
        assert any("grows unboundedly as t -> T" in w for w in out.warnings)

    def test_negative_sigma_rejected(self):
        spec = _spec(sigma="-1")
        with pytest.raises(ValidationError, match="negative"):
            sl.validate_problem(spec, _grid())

    def test_vanishing_sigma_warns(self):
        spec = _spec(sigma="max(x, 0)")
        out = sl.validate_problem(spec, _grid())
        assert any("vanishes" in w for w in out.warnings)

    def test_nonfinite_drift_names_point(self):
        spec = _spec(drift="1/x")
        with pytest.raises(ValidationError, match="x=0"):
            sl.validate_problem(spec, _grid())

    def test_reflected_spec_names_node_in_user_frame(self):
        # sqrt(x) is undefined left of the origin; in the reflected frame that
        # is the right half, but the error must name the user's x < 0
        spec = _spec(terminal="sqrt(x)", orientation=Orientation.UPPER)
        with pytest.raises(ValidationError, match=r"terminal reward .* x=-0\.2"):
            sl.validate_problem(sl.flip_orientation(spec), _grid())

    def test_bad_horizon_rejected(self):
        with pytest.raises(ValidationError):
            _spec(horizon=-1.0)


class TestFlip:
    def test_bridge_drift_self_symmetric(self):
        spec = sl.ProblemSpec(
            drift=sl.from_expression("(0.0 - x)/(T - t)", 1.0),
            diffusion=sl.constant_field(1.0),
            terminal_reward=sl.from_expression("x", 1.0),
            horizon=1.0,
            orientation=Orientation.UPPER,
            pole_at_horizon=True,
        )
        flipped = sl.flip_orientation(spec)
        assert flipped.orientation is Orientation.LOWER
        for t in (0.0, 0.25, 0.5):
            for x in (-2.0, -0.5, 1.0, 3.0):
                assert flipped.drift(t, x) == spec.drift(t, x)
                assert flipped.terminal_reward(t, x) == -x

    def test_constant_drift_negates(self):
        spec = _spec(drift="0.3", orientation=Orientation.UPPER)
        flipped = sl.flip_orientation(spec)
        assert flipped.drift(0.1, 0.7) == -0.3

    def test_double_flip_identity_pointwise(self):
        spec = _spec(drift="x*t - 1", sigma="1 + x*x/10", terminal="exp(x)",
                     orientation=Orientation.UPPER)
        twice = sl.flip_orientation(sl.flip_orientation(spec))
        assert twice.orientation is spec.orientation
        for t in np.linspace(0, 1, 7):
            for x in np.linspace(-3, 3, 13):
                assert twice.drift(t, x) == spec.drift(t, x)
                assert twice.diffusion(0.0, x) == spec.diffusion(0.0, x)
                assert twice.terminal_reward(t, x) == spec.terminal_reward(t, x)

    def test_half_line_rejected(self):
        spec = _spec(drift="0", state_space=StateSpace.POSITIVE_HALF_LINE,
                     orientation=Orientation.UPPER)
        with pytest.raises(OrientationError):
            sl.flip_orientation(spec)

    def test_callable_field_rejected(self):
        spec = replace(_spec(orientation=Orientation.UPPER),
                       drift=sl.from_callable(lambda t, x: 0.0 * x, source="zero"))
        with pytest.raises(OrientationError, match="drift zero is a callable field"):
            sl.flip_orientation(spec)

    @pytest.mark.parametrize("name", ["bm_time_drift", "brownian_bridge_exp",
                                      "brownian_bridge_linear_flipped", "two_point_filtering",
                                      "ou_time_mean"])
    def test_flipped_samples_equal_mirrored_samples(self, name):
        # the reflected fields on the grid are the originals on the mirrored
        # nodes, the drift negated, bit for bit: what reflect_problem relies on
        cfg = builtin_examples()[name]
        spec = build_problem(cfg.problem)
        grid = sl.build_grid(spec, cfg.grid.x_pad, cfg.grid.nt, cfg.grid.nx, x_ref=cfg.grid.x_ref)
        flipped = discretize(sl.flip_orientation(spec), grid)
        mirrored = discretize(spec, replace(grid, x_nodes=-grid.x_nodes[::-1]))
        assert (grid.nt, grid.nx) == (400, 400)
        for got, want in ((flipped.mu, -mirrored.mu[:, ::-1]),
                          (flipped.sigma, mirrored.sigma[::-1]), (flipped.g, mirrored.g[:, ::-1])):
            assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes()
        assert flipped.f is None and mirrored.f is None


class TestReduce:
    def test_linear_reward_gives_drift(self):
        spec = _spec(drift="1 - t")
        reduced = sl.reduce_to_running_reward(spec)
        assert reduced.terminal_reward(0.3, 1.7) == 0.0
        # exact partials of g = x: the generator is the drift bit for bit
        for t in (0.0, 0.4, 0.9):
            for x in (-1.0, 0.0, 2.0):
                assert reduced.running_reward(t, x) == 1 - t

    def test_quadratic_reward_exact(self):
        spec = sl.ProblemSpec(drift=sl.constant_field(0.0), diffusion=sl.constant_field(1.0),
                              terminal_reward=sl.from_expression("x^2", 1.0), horizon=1.0)
        reduced = sl.reduce_to_running_reward(spec)
        for t in (0.0, 0.5):
            for x in (-2.0, 0.0, 3.0):
                assert float(reduced.running_reward(t, x)) == 1.0

    def test_exponential_reward_bridge(self):
        spec = sl.ProblemSpec(
            drift=sl.from_expression("(0.0 - x)/(T - t)", 1.0),
            diffusion=sl.constant_field(0.5),
            terminal_reward=sl.from_expression("exp(x)", 1.0),
            horizon=1.0,
            pole_at_horizon=True,
        )
        reduced = sl.reduce_to_running_reward(spec)
        for t in (0.0, 0.5):
            for x in (-1.0, 0.5):
                expect = np.exp(x) * (-x / (1.0 - t) + 0.5 * 0.25)
                assert float(reduced.running_reward(t, x)) == pytest.approx(expect, rel=1e-12)

    def test_generator_identity(self):
        g = sl.from_expression("tanh(x)", 1.0)
        f = sl.from_expression("t*x", 1.0)
        spec = sl.ProblemSpec(drift=sl.from_expression("x - t", 1.0),
                              diffusion=sl.from_expression("1 + x*x/10", 1.0, allow_t=False),
                              terminal_reward=g, running_reward=f, horizon=1.0)
        reduced = sl.reduce_to_running_reward(spec)
        for t in (0.1, 0.8):
            for x in (-1.5, 0.3, 2.0):
                mu = x - t
                s2 = (1 + x * x / 10) ** 2
                th = np.tanh(x)
                expect = t * x + mu * (1 - th * th) + 0.5 * s2 * (-2.0 * th * (1 - th * th))
                assert float(reduced.running_reward(t, x)) == pytest.approx(expect, rel=1e-12)

    def test_nonfinite_partial_rejected(self):
        # log|x| has partials sign(x)/|x| and -sign(x)^2/x^2, not finite at the probe x = 0
        g = sl.from_expression("log(abs(x))", 1.0)
        spec = sl.ProblemSpec(drift=sl.constant_field(0.0), diffusion=sl.constant_field(1.0),
                              terminal_reward=g, horizon=1.0)
        with pytest.raises(ReductionError, match="x=0.0"):
            sl.reduce_to_running_reward(spec)

    def test_callable_reward_rejected(self):
        g = sl.from_callable(lambda t, x: np.sin(x), source="sin(x)")
        assert (g.partial_t, g.partial_x, g.partial_xx) == (None, None, None)
        spec = sl.ProblemSpec(drift=sl.constant_field(0.0), diffusion=sl.constant_field(1.0),
                              terminal_reward=g, horizon=1.0)
        with pytest.raises(ReductionError, match=r"terminal reward sin\(x\) is a callable field"):
            sl.reduce_to_running_reward(spec)

    def test_kinked_reward_takes_mean_slope(self):
        # g = max(x, 0.5): g_x is 0, 1/2 and 1 at x = 0, 0.5 and 1, and g_xx
        # folds to 0, so h = mu*g_x; the derivative holds the internal sign
        # node and is never printed and parsed back
        spec = _spec(drift="1 - t", terminal="max(x, 0.5)")
        h = sl.reduce_to_running_reward(spec).running_reward
        for t in (0.0, 0.3, 0.9):
            mu = 1 - t
            assert [float(h(t, x)) for x in (0.0, 0.5, 1.0)] == [0.0, mu / 2, mu]

