"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the verdict lines.
Criterion 3's convergence-slope clause is implemented exactly as stated and
is an expected failure: with a state-independent diffusion the shared-noise
Euler coupling preserves the pathwise ordering *exactly* (the drift
comparison plus the Lipschitz contraction keep the gap nonpositive at every
step), so the statistic is identically zero at every step size and no decay
slope exists.  See the strict xfail below; the companion exact-zero clause
passes.
"""

import json
import random
import time

import numpy as np
import pytest

import stoplab as sl
from stoplab import checks as ck
from stoplab import exprs
from stoplab.config import ProblemConfig, builtin_examples
from stoplab.pipeline import build_problem, run_problem
from stoplab.problems import Orientation, StateSpace
from stoplab.reports import FAIL, PASS
from stoplab.simulate import coupling_statistic, negative_drift_region
from stoplab.solver import round_off
from conftest import random_expr, run_check


def _ok(name, detail=""):
    print(f"[PASS] {name}" + (f": {detail}" if detail else ""))


def _expr_field(text, horizon=1.0, **kw):
    return sl.from_expression(text, horizon, **kw)


def _bridge_spec(terminal="x", orientation=Orientation.UPPER):
    return sl.ProblemSpec(
        drift=sl.from_expression("(0.0 - x)/(T - t)", 1.0),
        diffusion=sl.constant_field(1.0),
        terminal_reward=_expr_field(terminal),
        horizon=1.0,
        orientation=orientation,
        pole_at_horizon=True,
    )


def _solve(spec, pad, n, x_ref=0.0):
    grid = sl.build_grid(spec, pad, n, n, x_ref=x_ref)
    prob = sl.validate_problem(spec, grid)
    return sl.solve_backward(prob, grid)


# ---------------------------------------------------------------------------


def test_criterion_1_constant_drift_closed_form():
    """c = 0.5, sigma = 1, g(x) = x: v = x + c(T - t) to 1e-3 in under 10 s.

    "Interior" is the band |x| <= 2.5 diffusion scales around the reference
    point, 4.5 scales inside the 7-scale pad; the far-field edge rows are
    exact for this linear solution, so the band is a choice of the
    criterion, not a guard against the edges.
    """
    spec = sl.ProblemSpec(
        drift=sl.constant_field(0.5), diffusion=sl.constant_field(1.0),
        terminal_reward=_expr_field("x"), horizon=1.0,
    )
    t0 = time.perf_counter()
    surf = _solve(spec, pad=7.0, n=400)
    elapsed = time.perf_counter() - t0
    ts, xs = surf.grid.t_nodes, surf.grid.x_nodes
    exact = xs[None, :] + 0.5 * (1.0 - ts[:, None])
    band = np.abs(xs) <= 2.5
    err = float(np.max(np.abs(surf.v - exact)[:, band]))
    assert err <= 1e-3
    assert elapsed < 10.0
    _ok("criterion 1 closed-form value", f"max interior error {err:.2e}, {elapsed:.2f}s")


def test_criterion_2_martingale_fixed_point():
    """mu = 0, sigma = 1, g(x) = x: v equals g exactly and everything stops."""
    spec = sl.ProblemSpec(
        drift=sl.constant_field(0.0), diffusion=sl.constant_field(1.0),
        terminal_reward=_expr_field("x"), horizon=1.0,
    )
    surf = _solve(spec, pad=5.0, n=400)
    err = float(np.max(np.abs(surf.v - surf.obstacle)))
    assert err <= 1e-12
    assert surf.exercise_mask.all()
    _ok("criterion 2 martingale fixed point", f"max|v-g| = {err:.1e}, mask all true")


# ---------------------------------------------------------------------------

# dt just under 2^-8, 2^-10, 2^-12: the window ends (T - t)/(n_steps + 1)^2 before the pole
COUPLING_STEPS = (127, 511, 2047)


def _coupling_stats(spec, n_paths=10_000):
    grid = sl.make_grid(0.99, -5, 5, 20, 20)
    prob = sl.validate_problem(spec, grid)
    region = negative_drift_region(spec.drift)
    out = []
    for n_steps in COUPLING_STEPS:
        cb = sl.simulate_coupled(prob, 0.5, 0.25, 1.0, region, n_paths, n_steps, seed=2024)
        stats, _, _ = coupling_statistic(cb)
        out.append((cb.late.dt, float(stats.max())))
    return out


@pytest.fixture(scope="module")
def bridge_coupling_stats():
    """The bridge's coupling statistics, shared by the slope and tolerance clauses."""
    return _coupling_stats(_bridge_spec())


def test_criterion_3_coupling_exact_zero_state_free_drift():
    """mu(t) = 1 - t: the coupled ordering statistic is exactly zero."""
    spec = sl.ProblemSpec(
        drift=_expr_field("1 - t"), diffusion=sl.constant_field(1.0),
        terminal_reward=_expr_field("x"), horizon=1.0,
    )
    grid = sl.make_grid(1.0, -5, 5, 20, 20)
    prob = sl.validate_problem(spec, grid)
    region = negative_drift_region(spec.drift)
    for n_steps in (128, 512):
        cb = sl.simulate_coupled(prob, 0.5, 0.25, 1.0, region, 10_000, n_steps, seed=2024)
        stats, _, _ = coupling_statistic(cb)
        assert stats.max() == 0.0
        assert sl.comparison_report(cb).verdict == PASS
    _ok("criterion 3 state-independent coupling", "statistic exactly 0.0")


@pytest.mark.xfail(
    strict=True,
    reason=(
        "with sigma constant the discrete shared-noise coupling preserves the "
        "ordering exactly (gap recursion is a contraction whenever the drift "
        "comparison holds at the late path's grid points), so the statistic is "
        "identically 0.0 at every step size; a log-log decay slope does not "
        "exist. The exact-zero and PASS-at-tolerance clauses hold; see the "
        "decisions ledger."
    ),
)
def test_criterion_3_coupling_slope_bridge(bridge_coupling_stats):
    """Bridge coupling statistic decays monotonically with slope >= 0.8."""
    stats = bridge_coupling_stats
    values = [s for _, s in stats]
    print(f"bridge coupling statistics per dt: {stats}")
    assert values[0] > values[1] > values[2] > 0.0
    logd = np.log([d for d, _ in stats])
    logv = np.log(values)
    slope = np.polyfit(logd, logv, 1)[0]
    assert slope >= 0.8


def test_criterion_3_coupling_bridge_passes_tolerance(bridge_coupling_stats):
    """The bridge coupling PASSes the dt-scaled ordering tolerance."""
    stats = bridge_coupling_stats
    for dt, worst in stats:
        assert worst <= dt  # default tolerance is 1.0 * dt
    _ok("criterion 3 bridge coupling within tolerance",
        f"statistics {[f'{v:.2g}' for _, v in stats]}")


# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [200, 400])
def test_criterion_4_monotone_drift_pipeline(n):
    """Hypothesis checks and both conclusion checks pass for the two
    time-decaying-drift gallery models, at 200^2 and 400^2."""
    # Brownian motion with drift mu(t) = 1 - t
    bm = sl.ProblemSpec(
        drift=_expr_field("1 - t"), diffusion=sl.constant_field(1.0),
        terminal_reward=_expr_field("x"), horizon=1.0,
    )
    # geometric model with gamma(t) = 1 - t on the positive half line
    gbm = sl.ProblemSpec(
        drift=_expr_field("x*(1 - t)"),
        diffusion=_expr_field("0.2*x", allow_t=False),
        terminal_reward=_expr_field("x"), horizon=1.0,
        state_space=StateSpace.POSITIVE_HALF_LINE,
    )
    for name, spec, x_ref in (("bm_time_drift", bm, 0.0), ("gbm_time_drift", gbm, 1.0)):
        grid = sl.build_grid(spec, 5.0, n, n, x_ref=x_ref)
        prob = sl.validate_problem(spec, grid)
        surf = sl.solve_backward(prob, grid)
        boundary = sl.extract_boundary(surf)
        assert run_check("reward_x_monotone", spec, grid).verdict == PASS
        assert run_check("drift_time_monotone_everywhere", spec, grid).verdict == PASS
        assert ck.check_value_time_monotone(surf).verdict == PASS
        assert ck.check_boundary_monotone(boundary).verdict == PASS
    _ok(f"criterion 4 monotone-drift pipeline at {n}x{n}")


def test_criterion_5_bridge_exp_pipeline():
    """Exponential-reward bridge: the region-restricted drift hypothesis
    passes while the global one fails, the curvature-drift balance holds,
    and both conclusions pass."""
    spec_up = _bridge_spec(terminal="exp(x)")
    spec_lo = sl.flip_orientation(spec_up)
    n, pad = 400, 4.0
    grid_lo = sl.build_grid(spec_lo, pad, n, n, x_ref=0.0)
    surf_lo = sl.solve_backward(sl.validate_problem(spec_lo, grid_lo), grid_lo)
    grid_up = sl.build_grid(spec_up, pad, n, n, x_ref=0.0)
    prob_up = sl.validate_problem(spec_up, grid_up)
    surf = sl.unflip_surface(surf_lo, prob_up)
    boundary = sl.unflip_boundary(sl.extract_boundary(surf_lo))

    region = run_check("drift_time_monotone_where_drift_negative", spec_up, grid_up)
    everywhere = run_check("drift_time_monotone_everywhere", spec_up, grid_up)
    curvature = ck.check_drift_curvature_balance(surf)
    value = ck.check_value_time_monotone(surf)
    bmono = ck.check_boundary_monotone(boundary)
    assert region.verdict == PASS
    assert everywhere.verdict == FAIL      # the weakening matters
    assert curvature.verdict == PASS
    assert value.verdict == PASS
    assert bmono.verdict == PASS
    _ok("criterion 5 region-weakened pipeline",
        f"everywhere-check fails at witness {everywhere.witness}")


# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def flipped_bridge_solves():
    spec_lo = sl.flip_orientation(_bridge_spec(terminal="x"))
    out = {}
    for n in (400, 1600):
        grid = sl.build_grid(spec_lo, 5.0, n, n, x_ref=0.0)
        prob = sl.validate_problem(spec_lo, grid)
        out[n] = (prob, sl.solve_backward(prob, grid))
    return out


def test_criterion_6_cross_oracle_value(flipped_bridge_solves):
    """FD value agrees with a 1e5-path LSMC estimate at (0, 0).

    The LSMC uses 250 steps and the solver 400, both graded toward the pole
    by the same rule; they agree within the stated tolerance.
    """
    prob, surf = flipped_bridge_solves[400]
    j0 = int(np.argmin(np.abs(surf.grid.x_nodes)))
    fd = float(surf.v[0, j0])
    res = sl.value_lsmc(prob, 0.0, 0.0, 100_000, 250, 5, seed=20240616)
    gap = abs(fd - res.estimate)
    tol = max(3.0 * res.standard_error, 5e-3)
    assert gap <= tol
    _ok("criterion 6 cross-oracle value",
        f"fd={fd:.5f} lsmc={res.estimate:.5f} gap={gap:.2g} tol={tol:.2g}")


BRIDGE_C = 0.839924  # b(t) = c sqrt(T - t) for the pinned bridge with g = x (Shepp 1969)


def test_bridge_matches_shepp_closed_form(flipped_bridge_solves):
    """At 400^2 the pinned bridge's v(0, 0) = sqrt(2 pi)(1 - c^2)/2 to 1e-4 and c to 0.1%."""
    _, surf = flipped_bridge_solves[400]
    v0 = sl.value_at(surf, 0.0, 0.0)
    exact = np.sqrt(2.0 * np.pi) * (1.0 - BRIDGE_C ** 2) / 2.0
    boundary = sl.unflip_boundary(sl.extract_boundary(surf))
    ts = boundary.t_nodes
    mid = (ts >= 1.0 / 3.0) & (ts <= 2.0 / 3.0)
    c = float(np.mean(boundary.values[mid] / np.sqrt(1.0 - ts[mid])))
    assert abs(v0 - exact) <= 1e-4
    assert abs(c - BRIDGE_C) / BRIDGE_C <= 1e-3
    _ok("bridge against Shepp's closed form",
        f"v(0,0) error {v0 - exact:.2e}, c relative error {(c - BRIDGE_C) / BRIDGE_C:.2e}")


def test_criterion_6_boundary_scaling(flipped_bridge_solves):
    """b(t)/sqrt(T-t) over the middle third is grid-stable within 2%."""
    means = {}
    for n, (prob, surf) in flipped_bridge_solves.items():
        boundary = sl.unflip_boundary(sl.extract_boundary(surf))
        ts = boundary.t_nodes
        mid = (ts >= 1.0 / 3.0) & (ts <= 2.0 / 3.0)
        vals = boundary.values[mid]
        assert np.isfinite(vals).all()
        means[n] = float(np.mean(vals / np.sqrt(1.0 - ts[mid])))
    deviation = abs(means[400] - means[1600]) / abs(means[1600])
    assert deviation <= 0.02
    _ok("criterion 6 boundary scaling",
        f"constants {means[400]:.4f} vs {means[1600]:.4f}, deviation {deviation:.2%}")


# ---------------------------------------------------------------------------


def _two_point(p, lo, hi):
    """The two-point filtering drift as the pipeline builds it: its prior's template."""
    return build_problem(ProblemConfig(drift_family="filtering", prior="two_point",
                                       p=p, low=lo, high=hi)).drift


def test_criterion_7_two_point_sign_law():
    """d/dt of the two-point posterior drift: nonpositive when the high
    support point dominates in magnitude, positive somewhere otherwise, and
    the exact partial matches a central finite difference."""
    ts = np.linspace(0.0, 1.0, 50)
    xs = np.linspace(-3.0, 3.0, 50)
    tt, xx = np.meshgrid(ts, xs, indexing="ij")
    for lo, hi in ((-1.0, 1.0), (-1.0, 2.0), (0.0 + 1e-9, 1.0)):
        vals = _two_point(0.5, lo, hi).partial_t(tt, xx)
        assert np.all(vals <= 0.0), (lo, hi)
    vals = _two_point(0.5, -2.0, 1.0).partial_t(tt, xx)
    assert np.any(vals > 0.0)

    h = 1e-6
    for p, lo, hi in ((0.5, -1.0, 2.0), (0.3, 0.5, 1.5), (0.7, -2.0, 1.0)):
        drift = _two_point(p, lo, hi)
        closed = drift.partial_t(tt, xx)
        fd = (drift(tt + h, xx) - drift(tt - h, xx)) / (2.0 * h)
        rel = np.abs(closed - fd) / np.abs(closed)
        assert float(np.max(rel)) <= 1e-5
    # the symmetric case is identically zero; the finite difference confirms
    drift = _two_point(0.5, -1.0, 1.0)
    closed = drift.partial_t(tt, xx)
    fd = (drift(tt + h, xx) - drift(tt - h, xx)) / (2.0 * h)
    assert np.all(closed == 0.0) and float(np.max(np.abs(fd))) < 1e-9
    _ok("criterion 7 two-point sign law")


def test_criterion_8_reduction_coherence():
    """g(t,x) = x^2, mu = 0, sigma = 1: the reduced running reward is exactly
    one, and the direct solve equals reward plus reduced solve nodewise."""
    direct = sl.ProblemSpec(drift=sl.constant_field(0.0), diffusion=sl.constant_field(1.0),
                            terminal_reward=sl.from_expression("x^2", 1.0), horizon=1.0)
    reduced = sl.reduce_to_running_reward(direct)
    for t in (0.0, 0.37, 0.9):
        for x in (-2.0, 0.0, 1.3):
            assert float(reduced.running_reward(t, x)) == 1.0

    grid = sl.build_grid(direct, 5.0, 400, 400, x_ref=0.0)
    sd = sl.solve_backward(sl.validate_problem(direct, grid), grid)
    sr = sl.solve_backward(sl.validate_problem(reduced, grid), grid)
    gap = float(np.max(np.abs(sd.v - (sd.obstacle + sr.v))))
    assert gap <= round_off(sd.v)
    _ok("criterion 8 reduction coherence", f"max|v - (g + w)| = {gap:.2e}")


def test_criterion_9_determinism(tmp_path):
    """Same config and seed: byte-identical CSVs and identical reports up to
    wall-clock timings; a different seed changes path statistics only."""
    cfg = builtin_examples()["bm_time_drift"]
    a = run_problem(cfg, out_dir=str(tmp_path / "a"))
    b = run_problem(cfg, out_dir=str(tmp_path / "b"))
    for name in ("surface", "boundary"):
        assert open(a.files[name], "rb").read() == open(b.files[name], "rb").read()
    da, db = (json.load(open(r.files["reports"])) for r in (a, b))
    da.pop("timings"), db.pop("timings")
    assert da == db

    c = run_problem(cfg, out_dir=str(tmp_path / "c"), seed_override=cfg.simulation.seed + 1)
    assert open(a.files["surface"], "rb").read() == open(c.files["surface"], "rb").read()
    assert open(a.files["boundary"], "rb").read() == open(c.files["boundary"], "rb").read()
    # the changed seed does change the paths themselves
    from stoplab.pipeline import build_problem

    spec = build_problem(cfg.problem)
    grid = sl.build_grid(spec, cfg.grid.x_pad, 20, 20, x_ref=cfg.grid.x_ref)
    prob = sl.validate_problem(spec, grid)
    pa = sl.simulate_paths(prob, 0.0, 0.0, 500, 32, seed=cfg.simulation.seed)
    pc = sl.simulate_paths(prob, 0.0, 0.0, 500, 32, seed=cfg.simulation.seed + 1)
    assert not np.array_equal(pa.states, pc.states)
    _ok("criterion 9 determinism", "CSVs byte-identical; reports equal modulo timings")


def test_criterion_10_expression_dsl():
    """1e4 random ASTs round-trip structurally; all three error classes carry
    position or point information."""
    rng = random.Random(20240617)
    for _ in range(10_000):
        e = random_expr(rng, depth=8)
        assert exprs.parse(exprs.to_string(e)) == e

    with pytest.raises(exprs.ExprSyntaxError) as syntax_err:
        exprs.parse("x +")
    assert syntax_err.value.pos == 3

    with pytest.raises(exprs.UnknownIdentifierError) as ident_err:
        exprs.parse("x + spam")
    assert ident_err.value.name == "spam" and ident_err.value.pos == 4

    with pytest.raises(exprs.ExprDomainError) as domain_err:
        exprs.eval_expr(exprs.parse("1/(T - t)"), t=1.0, x=2.0, T=1.0)
    assert (domain_err.value.t, domain_err.value.x) == (1.0, 2.0)
    _ok("criterion 10 expression DSL", "10000 round-trips exact; 3 error classes")
