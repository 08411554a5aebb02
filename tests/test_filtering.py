"""Posterior drifts: the config's prior templates vs quadrature oracles, sign law, bounds."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stoplab import filtering as flt
from stoplab.config import ProblemConfig, builtin_examples
from stoplab.pipeline import StageError, build_problem, prepare_problem


def quadrature_posterior(weights, locations, t, x):
    """Independent log-space quadrature of the posterior mean (the oracle)."""
    w = np.asarray(weights, float)
    y = np.asarray(locations, float)
    ll = np.log(w) + x * y - 0.5 * y * y * t
    m = ll.max()
    r = np.exp(ll - m)
    return float((r * y).sum() / r.sum())


def _prior_drift(**keys):
    """The drift ``build_problem`` makes of a filtering config: its prior's template."""
    return build_problem(ProblemConfig(drift_family="filtering", **keys)).drift


def two_point(p, low, high):
    return _prior_drift(prior="two_point", p=p, low=low, high=high)


def gaussian(mean, var):
    return _prior_drift(prior="gaussian", prior_mean=mean, prior_var=var)


def _gallery_grid():
    grid = prepare_problem(builtin_examples()["two_point_filtering"]).disc.grid
    return grid.t_nodes[:, None], grid.x_nodes[None, :]


class TestTwoPoint:
    def test_symmetric_prior_at_origin(self):
        assert two_point(0.5, -1.0, 1.0)(0.0, 0.0) == 0.0

    def test_prior_mean_at_time_zero(self):
        assert two_point(0.5, 0.0, 1.0)(0.0, 0.0) == pytest.approx(0.5)

    def test_saturates_to_high_point(self):
        assert abs(two_point(0.5, -1.0, 1.0)(1.0, 1e3) - 1.0) < 1e-6

    def test_overflow_safe_far_field(self):
        v = two_point(0.3, -2.0, 3.0)(5.0, 1e6)
        assert np.isfinite(v) and -2.0 <= v <= 3.0

    def test_matches_generic_quadrature(self):
        p, lo, hi = 0.3, -1.0, 2.0
        prior = flt.discrete_prior([(p, lo), (1 - p, hi)])
        field = two_point(p, lo, hi)
        for t in np.linspace(0.0, 2.0, 20):
            for x in np.linspace(-4.0, 4.0, 20):
                a = field(t, x)
                b = flt.posterior_drift(prior, t, x)
                assert a == pytest.approx(b, abs=1e-12)

    @pytest.mark.parametrize("p,lo,hi", [(0.5, -1.0, 2.0), (0.3, -1.0, 2.0), (0.7, -2.0, 1.0),
                                         (0.2, 0.5, 1.5), (0.9, -3.0, 3.0)])
    def test_template_equals_discrete_posterior_on_gallery_grid(self, p, lo, hi):
        tt, xx = _gallery_grid()
        prior = flt.discrete_prior([(p, lo), (1 - p, hi)])
        gap = np.abs(two_point(p, lo, hi)(tt, xx) - flt.posterior_drift(prior, tt, xx))
        assert gap.shape == (401, 401) and float(gap.max()) <= 1e-14

    @pytest.mark.parametrize("p,lo,hi", [(0.5, -1.0, 2.0), (0.3, -2.0, 3.0), (0.9, 0.5, 1.5)])
    def test_far_field_value_bounded_and_partials_finite(self, p, lo, hi):
        field = two_point(p, lo, hi)
        xs = np.array([-400.0, 400.0])
        for t in (0.0, 0.5, 1.0):
            v = field(t, xs)
            assert np.all((lo <= v) & (v <= hi))
            for partial in (field.partial_x, field.partial_t, field.partial_xx):
                assert np.isfinite(partial(t, xs)).all()


class TestTwoPointTimeDerivative:
    def test_symmetric_support_kills_derivative(self):
        dt = two_point(0.5, -1.0, 1.0).partial_t
        for t in (0.0, 0.7):
            for x in (-2.0, 0.0, 2.0):
                assert dt(t, x) == 0.0

    def test_sign_negative_when_high_dominates(self):
        dt = two_point(0.5, -1.0, 2.0).partial_t
        ts, xs = np.linspace(0, 1, 12), np.linspace(-3, 3, 12)
        for t in ts:
            for x in xs:
                assert dt(t, x) < 0.0

    def test_sign_positive_when_low_dominates(self):
        dt = two_point(0.5, -2.0, 1.0).partial_t
        vals = [dt(t, x) for t in np.linspace(0, 1, 6) for x in np.linspace(-2, 2, 6)]
        assert all(v > 0 for v in vals)

    @pytest.mark.parametrize("p,lo,hi", [(0.5, -1.0, 2.0), (0.3, 0.0, 1.0), (0.7, -2.0, 1.0)])
    def test_matches_finite_difference(self, p, lo, hi):
        field = two_point(p, lo, hi)
        h = 1e-6
        for t in np.linspace(0.1, 1.0, 8):
            for x in np.linspace(-3.0, 3.0, 8):
                closed = field.partial_t(t, x)
                fd = (field(t + h, x) - field(t - h, x)) / (2 * h)
                assert closed == pytest.approx(fd, rel=1e-5)


class TestGaussian:
    def test_time_zero_slope(self):
        assert gaussian(0.3, 2.0)(0.0, 1.5) == pytest.approx(0.3 + 2.0 * 1.5)

    def test_closed_form_value(self):
        assert gaussian(0.0, 1.0)(1.0, 1.0) == pytest.approx(0.5)

    def test_against_hermite_quadrature(self):
        # oracle: 200-node Gauss-Hermite quadrature of the tilted posterior mean
        from scipy.special import roots_hermite

        u, w = roots_hermite(200)
        m, var = 0.0, 1.0
        y = m + math.sqrt(2 * var) * u
        weights = w / math.sqrt(math.pi)
        field = gaussian(m, var)
        for t, x in ((1.0, 1.0), (0.5, -2.0), (2.0, 0.3)):
            oracle = quadrature_posterior(weights, y, t, x)
            assert field(t, x) == pytest.approx(oracle, abs=1e-8)

    @pytest.mark.parametrize("m,var", [(0.0, 1.0), (0.3, 2.0), (-0.5, 0.5)])
    def test_template_equals_hermite_density_posterior_on_gallery_grid(self, m, var):
        tt, xx = _gallery_grid()
        u, w = np.polynomial.hermite.hermgauss(200)
        prior = flt.density_prior(w / math.sqrt(math.pi), m + math.sqrt(2.0 * var) * u)
        gap = np.abs(gaussian(m, var)(tt, xx) - flt.posterior_drift(prior, tt, xx))
        assert gap.shape == (401, 401) and float(gap.max()) <= 1e-8

    def test_magnitude_bound(self):
        field = gaussian(0.2, 1.5)
        for t in np.linspace(0, 10, 25):
            for x in np.linspace(-5, 5, 25):
                assert abs(field(t, x)) <= abs(0.2) + 1.5 * abs(x) + 1e-12


class TestPosteriorDrift:
    def test_single_atom_is_constant(self):
        prior = flt.discrete_prior([(1.0, 0.7)])
        for t in (0.0, 1.0, 5.0):
            for x in (-10.0, 0.0, 10.0):
                assert flt.posterior_drift(prior, t, x) == pytest.approx(0.7)

    def test_bounds_from_support(self):
        prior = flt.discrete_prior([(0.2, -3.0), (0.5, 0.0), (0.3, 2.0)])
        for t in np.linspace(0, 3, 10):
            for x in np.linspace(-20, 20, 21):
                v = flt.posterior_drift(prior, t, x)
                assert -3.0 - 1e-12 <= v <= 2.0 + 1e-12

    @given(
        st.lists(
            st.tuples(st.floats(0.01, 1.0), st.floats(-5.0, 5.0)),
            min_size=1, max_size=6,
        ),
        st.floats(0.0, 3.0),
        st.floats(-10.0, 10.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_bounds_property(self, atoms, t, x):
        total = sum(w for w, _ in atoms)
        atoms = [(w / total, y) for w, y in atoms]
        prior = flt.discrete_prior(atoms)
        v = flt.posterior_drift(prior, t, x)
        ys = [y for _, y in atoms]
        assert min(ys) - 1e-9 <= v <= max(ys) + 1e-9

    def test_monotone_in_state(self):
        prior = flt.discrete_prior([(0.25, -1.0), (0.25, 0.0), (0.5, 1.5)])
        for t in (0.0, 0.5, 2.0):
            xs = np.linspace(-5, 5, 41)
            vals = flt.posterior_drift(prior, t, xs)
            assert np.all(np.diff(vals) >= -1e-12)

    def test_weight_validation(self):
        with pytest.raises(flt.PriorError):
            flt.discrete_prior([(0.5, 0.0), (0.6, 1.0)])
        with pytest.raises(flt.PriorError):
            flt.discrete_prior([(-0.1, 0.0), (1.1, 1.0)])

    def test_density_prior_with_link(self):
        prior = flt.density_prior([0.5, 0.5], [-1.0, 1.0], link=lambda y: y**2)
        # link maps both atoms to 1, so the posterior mean is identically 1
        assert flt.posterior_drift(prior, 1.3, 0.4) == pytest.approx(1.0)

    def test_extreme_support_warning(self):
        prior = flt.discrete_prior([(0.5, 0.0), (0.5, 1e4)])
        assert any("extreme" in w for w in prior.warnings)


# the gallery's family drifts by the formulas of the callables they replaced,
# with the gallery's parameters: pin 0, rate 1 and 1 - t for every t-only key;
# the two-point prior (p 0.5, low -1, high 2) by its template's operations
_FAMILY_REFERENCES = {
    "bm_time_drift": lambda t, x: (1.0 - t) + 0.0 * x,
    "gbm_time_drift": lambda t, x: x * (1.0 - t),
    "brownian_bridge_exp": lambda t, x: (0.0 - x) / (1.0 - t),
    "brownian_bridge_linear_flipped": lambda t, x: (0.0 - x) / (1.0 - t),
    "two_point_filtering": lambda t, x: (-1.0 + 2.0) / 2 + (2.0 - -1.0) / 2 * np.tanh(
        (2.0 - -1.0) / 2 * (x - (-1.0 + 2.0) / 2 * t) - np.log(0.5 / (1 - 0.5)) / 2),
    "ou_time_mean": lambda t, x: 1.0 * ((1.0 - t) - x),
}


class TestDriftFamilies:
    @pytest.mark.parametrize("name", sorted(_FAMILY_REFERENCES))
    def test_gallery_family_drift_is_its_formula_bit_for_bit(self, name):
        disc = prepare_problem(builtin_examples()[name]).disc   # build_problem's drift, sampled
        ref = _FAMILY_REFERENCES[name](disc.grid.t_nodes[:, None], disc.grid.x_nodes[None, :])
        assert disc.mu.shape == ref.shape == (401, 401)
        assert disc.mu.tobytes() == ref.tobytes()

    def test_bridge_without_pole_fails_validation_at_the_horizon(self):
        cfg = builtin_examples()["brownian_bridge_linear_flipped"]
        cfg = replace(cfg, problem=replace(cfg.problem, pole_at_horizon=False))
        with pytest.raises(StageError) as err:
            prepare_problem(cfg)
        assert err.value.stage == "validate"
        assert "t=1.0" in str(err.value)
