"""End-to-end CLI runs, artifact formats, exit codes, determinism."""

import dataclasses
import hashlib
import json
import os

import numpy as np
import pytest

import stoplab.cli
from stoplab.checks import CHECKS, FIELDS
from stoplab.cli import main
from stoplab.config import loads_config, save_config_text
from stoplab.grids import Grid
from stoplab.pipeline import (
    _fmt_float,
    build_problem,
    export_paths_csv,
    export_surface,
    prepare_problem,
    run_problem,
)
from stoplab.problems import OrientationError, discretize
from stoplab.simulate import PathBundle
import stoplab as sl

FAST_CONFIG = """
[problem]
drift = "1 - t"
sigma = "1"
terminal = "x"
horizon = 1.0

[grid]
nt = 60
nx = 60

[simulation]
seed = 7
n_paths = 200
n_steps = 64
couplings = 0.25 0.5 1.0
region = everywhere

[checks]
run = reward_x_monotone drift_time_monotone_everywhere coupling_order value_time_monotone boundary_monotone residual_complementarity value_continuity

[output]
directory = out
"""


def _write(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_solve_end_to_end(tmp_path, capsys):
    cfg_path = _write(tmp_path, FAST_CONFIG)
    out_dir = str(tmp_path / "out")
    code = main(["solve", cfg_path, "--out", out_dir])
    captured = capsys.readouterr()
    assert code == 0
    assert "[PASS] reward_x_monotone" in captured.out
    for name in ("surface.csv", "boundary.csv", "reports.json", "summary.txt"):
        assert os.path.exists(os.path.join(out_dir, name))


def test_surface_csv_roundtrip_full_precision(tmp_path):
    cfg = loads_config(FAST_CONFIG)
    art = run_problem(cfg, out_dir=str(tmp_path / "o"))
    path = art.files["surface"]
    with open(path) as fh:
        header = fh.readline().strip()
        assert header == "t,x,v,g,exercise"
        rows = [line.strip().split(",") for line in fh]
    nt, nx = art.surface.grid.nt, art.surface.grid.nx
    assert len(rows) == (nt + 1) * (nx + 1)
    # row-major by t then x; floats reproduce exactly from 17 significant digits
    k, j = 17, 31
    row = rows[k * (nx + 1) + j]
    assert float(row[0]) == art.surface.grid.t_nodes[k]
    assert float(row[1]) == art.surface.grid.x_nodes[j]
    assert float(row[2]) == art.surface.v[k, j]
    assert float(row[3]) == art.surface.obstacle[k, j]
    assert row[4] in ("0", "1")


def test_tiny_surface_has_nine_rows(tmp_path):
    spec = sl.ProblemSpec(drift=sl.constant_field(0.0), diffusion=sl.constant_field(1.0),
                          terminal_reward=sl.from_expression("x", 1.0), horizon=1.0)
    grid = sl.make_grid(1.0, -1, 1, 2, 2)
    surf = sl.solve_backward(sl.validate_problem(spec, grid), grid)
    b = sl.extract_boundary(surf)
    files = export_surface(surf, b, str(tmp_path))
    lines = open(files["surface"]).read().strip().splitlines()
    assert len(lines) == 1 + 9


def test_boundary_sentinel_literals(tmp_path):
    cfg = loads_config(FAST_CONFIG)
    art = run_problem(cfg, out_dir=str(tmp_path / "o"))
    text = open(art.files["boundary"]).read()
    assert "-inf" in text       # all-continuation slices
    assert "+inf" in text       # terminal all-stopping slice
    assert text.splitlines()[0] == "t,b"


def test_reports_json_schema(tmp_path):
    cfg = loads_config(FAST_CONFIG)
    art = run_problem(cfg, out_dir=str(tmp_path / "o"))
    doc = json.load(open(art.files["reports"]))
    assert set(doc) == {"run_id", "config_digest", "checks", "timings"}
    assert len(doc["checks"]) == len(cfg.checks)
    for entry in doc["checks"]:
        assert set(entry) == {"check", "verdict", "worst", "witness", "tol", "notes"}


def test_determinism_same_seed_byte_identical(tmp_path):
    text = FAST_CONFIG.replace("region = everywhere", "region = everywhere\ndump_paths = true")
    cfg = loads_config(text)
    a = run_problem(cfg, out_dir=str(tmp_path / "a"))
    b = run_problem(cfg, out_dir=str(tmp_path / "b"))
    for name in ("surface", "boundary", "paths"):
        assert open(a.files[name], "rb").read() == open(b.files[name], "rb").read()
    da = json.load(open(a.files["reports"]))
    db = json.load(open(b.files["reports"]))
    da.pop("timings"), db.pop("timings")
    assert da == db


def test_seed_changes_paths_not_pde(tmp_path):
    cfg = loads_config(FAST_CONFIG)
    a = run_problem(cfg, out_dir=str(tmp_path / "a"))
    b = run_problem(cfg, out_dir=str(tmp_path / "b"), seed_override=8)
    assert open(a.files["surface"], "rb").read() == open(b.files["surface"], "rb").read()
    assert open(a.files["boundary"], "rb").read() == open(b.files["boundary"], "rb").read()


def test_failing_check_exit_code(tmp_path):
    text = FAST_CONFIG.replace('terminal = "x"', 'terminal = "-x"')
    code = main(["solve", _write(tmp_path, text), "--out", str(tmp_path / "o")])
    assert code == 1


def test_stage_error_exit_code(tmp_path, capsys):
    text = FAST_CONFIG.replace('sigma = "1"', 'sigma = "-1"')
    code = main(["solve", _write(tmp_path, text), "--out", str(tmp_path / "o")])
    captured = capsys.readouterr()
    assert code == 2
    assert "stage" in captured.err


@pytest.mark.parametrize("terminal", ["x + (-1)^0.5", "x + 1/(2-2)"])
def test_nonfinite_constant_subexpression_exit_code(tmp_path, capsys, terminal):
    # constants follow numpy's IEEE rules: NaN or inf reach validation, not a
    # complex value cast to its real part or a bare ZeroDivisionError
    text = FAST_CONFIG.replace('terminal = "x"', f'terminal = "{terminal}"')
    code = main(["solve", _write(tmp_path, text), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "terminal reward is not finite at probe point (t=0.0, x=" in capsys.readouterr().err


def test_config_error_exit_code(tmp_path, capsys):
    text = FAST_CONFIG.replace('drift = "1 - t"', 'driftt = "1 - t"')
    code = main(["solve", _write(tmp_path, text)])
    assert code == 2
    assert "driftt" in capsys.readouterr().err


def test_examples_list(capsys):
    assert main(["examples", "list"]) == 0
    out = capsys.readouterr().out
    assert "bm_time_drift" in out and "two_point_filtering" in out


def test_examples_unknown_name(capsys):
    assert main(["examples", "run", "nope"]) == 2


def test_check_subcommand_no_solve(tmp_path, capsys):
    code = main(["check", _write(tmp_path, FAST_CONFIG)])
    out = capsys.readouterr().out
    assert code == 0
    assert "reward_x_monotone" in out
    assert "value_time_monotone" not in out  # solve-dependent checks skipped


def test_refine_halves_steps(tmp_path):
    cfg = loads_config(FAST_CONFIG)
    art = run_problem(cfg, out_dir=str(tmp_path / "o"), refine=1)
    assert art.surface.grid.nt == 120 and art.surface.grid.nx == 120


def test_paths_dump_format(tmp_path):
    text = FAST_CONFIG.replace("region = everywhere", "region = everywhere\ndump_paths = true")
    cfg = loads_config(text)
    art = run_problem(cfg, out_dir=str(tmp_path / "o"))
    lines = open(art.files["paths"]).read().splitlines()
    assert lines[0] == "path,step,time,state"
    assert len(lines) == 1 + 200 * 65


REDUCED_CONFIG = """
[problem]
drift = "1 - t"
sigma = "1"
terminal = "x"
horizon = 1.0
reduce = true

[grid]
nt = 60
nx = 60

[checks]
run = running_reward_monotone drift_time_monotone_everywhere value_time_monotone boundary_monotone

[output]
directory = out
"""


def test_reduced_pipeline_config(tmp_path):
    cfg = loads_config(REDUCED_CONFIG)
    art = run_problem(cfg, out_dir=str(tmp_path / "o"))
    verdicts = {r.check_name: r.verdict for r in art.reports}
    assert verdicts == {
        "running_reward_monotone": "PASS",
        "drift_time_monotone_everywhere": "PASS",
        "value_time_monotone": "PASS",
        "boundary_monotone": "PASS",
    }
    # reduced solves carry a zero obstacle
    assert np.max(np.abs(art.surface.obstacle)) == 0.0


MARTINGALE_CONFIG = """
[problem]
drift = "0"
sigma = "1"
terminal = "x"
horizon = 1.0

[grid]
nt = 50
nx = 50

[checks]
run = reward_x_monotone value_time_monotone boundary_monotone residual_complementarity

[output]
directory = out
"""


def test_martingale_config_all_stop(tmp_path):
    cfg = loads_config(MARTINGALE_CONFIG)
    art = run_problem(cfg, out_dir=str(tmp_path / "o"))
    assert art.exit_ok
    assert np.all(art.boundary.values == np.inf)
    text = open(art.files["boundary"]).read()
    assert "-inf" not in text and "+inf" in text


def test_lsmc_degenerate_regression_warns():
    # sigma = 0 collapses every path onto one deterministic line: the
    # regression matrix is rank one and the degree must fall back
    spec = sl.ProblemSpec(
        drift=sl.constant_field(0.5), diffusion=sl.constant_field(0.0),
        terminal_reward=sl.from_expression("x", 1.0), horizon=1.0,
    )
    grid = sl.make_grid(1.0, -5, 5, 10, 10)
    prob = sl.validate_problem(spec, grid)
    res = sl.value_lsmc(prob, 0.0, 1.0, 500, 16, 4, seed=3)
    assert any("degree reduced" in w for w in res.warnings)
    assert res.estimate == pytest.approx(1.5, abs=1e-9)


def test_check_subcommand_reduced_config(tmp_path, capsys):
    code = main(["check", _write(tmp_path, REDUCED_CONFIG)])
    out = capsys.readouterr().out
    assert code == 0
    assert "running_reward_monotone" in out


def test_check_subcommand_reports_missing_running_reward(tmp_path, capsys):
    text = FAST_CONFIG.replace("run = reward_x_monotone", "run = running_reward_monotone reward_x_monotone")
    code = main(["check", _write(tmp_path, text)])
    out = capsys.readouterr().out
    assert code == 0
    assert "[INCONCLUSIVE] running_reward_monotone" in out
    assert "[PASS] reward_x_monotone" in out


HALF_LINE_LSMC_CONFIG = """
[problem]
drift = "0.5*x"
sigma = "0.2*x"
terminal = "x"
horizon = 1.0
state_space = positive_half_line

[grid]
nt = 40
nx = 40

[simulation]
seed = 3
n_paths = 400
n_steps = 39
lsmc = true
lsmc_degree = 2
dump_paths = true

[checks]
run = lsmc_cross_check

[output]
directory = out
"""


def test_half_line_lsmc_defaults_to_positive_start(tmp_path):
    # without lsmc_x and x_ref every start state falls back to x = 1 on the
    # half line, where the grid is centred too
    art = run_problem(loads_config(HALF_LINE_LSMC_CONFIG), out_dir=str(tmp_path / "o"))
    report, = art.reports
    assert report.witness == (0.0, 1.0)
    assert art.lsmc.estimate > 1.0
    xs = art.surface.grid.x_nodes
    assert xs[0] < 1.0 < xs[-1]
    with open(art.files["paths"]) as fh:
        assert fh.readlines()[1].strip() == "0,0,0,1"


UPPER_CONFIG = """
[problem]
drift_family = brownian_bridge
pin = 0.0
sigma = "1"
terminal = "exp(x)"
horizon = 1.0
orientation = upper

[grid]
nt = 30
nx = 30
x_ref = 0.0
x_pad = 4.0

[checks]
run = reward_x_monotone drift_time_monotone_where_drift_negative drift_curvature_balance value_time_monotone boundary_monotone residual_complementarity value_continuity

[output]
directory = out
"""


def test_upper_run_samples_coefficients_once(tmp_path, monkeypatch):
    import stoplab.pipeline as pipeline

    validations = []
    real_validate = pipeline.validate_problem

    def counting_validate(spec, grid):
        validations.append(grid)
        return real_validate(spec, grid)

    drift_rows = []
    real_build = pipeline.build_problem

    def counting_build(problem_cfg):
        spec = real_build(problem_cfg)
        inner = spec.drift.evaluator

        def evaluator(t, x):
            if np.size(x) > 3:  # a grid row, not a probe point
                drift_rows.append(t)
            return inner(t, x)

        return dataclasses.replace(spec, drift=dataclasses.replace(spec.drift, evaluator=evaluator))

    monkeypatch.setattr(pipeline, "validate_problem", counting_validate)
    monkeypatch.setattr(pipeline, "build_problem", counting_build)
    art = run_problem(loads_config(UPPER_CONFIG), out_dir=str(tmp_path))
    assert art.exit_ok
    assert len(validations) == 1
    assert len(drift_rows) <= art.surface.grid.nt + 1


@pytest.mark.parametrize("name", ["brownian_bridge_exp", "brownian_bridge_linear_flipped",
                                  "ou_time_mean"])
def test_reflected_samples_equal_original_frame_resampling(tmp_path, name):
    cfg = sl.builtin_examples()[name]
    assert cfg.problem.orientation == "upper"
    cfg = dataclasses.replace(cfg, grid=dataclasses.replace(cfg.grid, nt=50, nx=50),
                              simulation=None)
    art = run_problem(cfg, out_dir=str(tmp_path))
    fresh = discretize(art.problem.spec, art.surface.grid)
    assert np.array_equal(art.problem.disc.mu, fresh.mu)
    assert np.array_equal(art.problem.disc.g, fresh.g)


@pytest.mark.parametrize("name", ["brownian_bridge_exp", "brownian_bridge_linear_flipped",
                                  "ou_time_mean"])
def test_direct_solve_equals_reflected_solve(name):
    cfg = sl.builtin_examples()[name]
    problem = prepare_problem(cfg)
    surface = sl.solve_backward(problem, problem.disc.grid, theta=cfg.grid.theta)
    spec_lo = sl.flip_orientation(problem.spec)
    grid_lo = sl.build_grid(spec_lo, cfg.grid.x_pad, cfg.grid.nt, cfg.grid.nx, x_ref=-cfg.grid.x_ref)
    solved_lo = sl.solve_backward(sl.validate_problem(spec_lo, grid_lo), grid_lo,
                                  theta=cfg.grid.theta)
    reflected = sl.unflip_surface(solved_lo, problem)
    assert np.array_equal(surface.exercise_mask, reflected.exercise_mask)
    assert np.max(np.abs(surface.v - reflected.v)) <= 1e-12 * (1.0 + np.max(np.abs(surface.v)))
    boundary = sl.extract_boundary(surface)
    assert np.allclose(boundary.values, sl.unflip_boundary(sl.extract_boundary(solved_lo)).values,
                       rtol=0.0, atol=1e-14)


HALF_LINE_UPPER_CONFIG = """
[problem]
drift = "1 - x"
sigma = "0.3*x"
terminal = "x"
horizon = 1.0
state_space = positive_half_line
orientation = upper

[grid]
nt = 40
nx = 40

[checks]
run = reward_x_monotone drift_time_monotone_everywhere value_time_monotone boundary_monotone residual_complementarity

[output]
directory = out
"""


def test_upper_problem_on_half_line_runs(tmp_path):
    # the half line has no mirror image, so this problem could not be reflected
    cfg = loads_config(HALF_LINE_UPPER_CONFIG)
    with pytest.raises(OrientationError):
        sl.flip_orientation(build_problem(cfg.problem))
    art = run_problem(cfg, out_dir=str(tmp_path))
    assert art.exit_ok
    assert art.boundary.orientation is sl.Orientation.UPPER
    finite = art.boundary.values[np.isfinite(art.boundary.values)]
    assert finite.size and (finite > 1.0).all()  # stop above the mean-reversion level


# The per-cell rendering the CSV writers produced before they formatted whole
# rows; the files must stay equal to it byte for byte.
def _cell_surface_csv(surface):
    ts, xs = surface.grid.t_nodes, surface.grid.x_nodes
    out = "t,x,v,g,exercise\n"
    for k in range(len(ts)):
        for j in range(len(xs)):
            out += (f"{_fmt_float(ts[k])},{_fmt_float(xs[j])},"
                    f"{_fmt_float(surface.v[k, j])},{_fmt_float(surface.obstacle[k, j])},"
                    f"{int(surface.exercise_mask[k, j])}\n")
    return out


def _cell_boundary_csv(boundary):
    out = "t,b\n"
    for t, b in zip(boundary.t_nodes, boundary.values):
        out += f"{_fmt_float(t)},{_fmt_float(b)}\n"
    return out


def _cell_paths_csv(bundle):
    times = bundle.times()
    out = "path,step,time,state\n"
    for i in range(bundle.n_paths):
        for k in range(bundle.n_steps + 1):
            out += f"{i},{k},{_fmt_float(times[k])},{_fmt_float(bundle.states[i][k])}\n"
    return out


def test_export_bytes_equal_per_cell_rendering(tmp_path):
    third = 1.0 / 3.0
    full = [0.1, third, 5e-324, 1e300]            # all need 17 significant digits
    obstacle = np.array([
        [0.0, third, 5e-324, 1e300],
        [0.0, third, 5e-324, 1e300],              # equal to the previous row
        [-0.0, third, 5e-324, 1e300],             # differs only by the sign of zero
        [2 * third, -0.1, 1e-300, 7.0],
    ])
    v = obstacle + np.array([[0.0, 0.1, 0.0, 0.0], [0.1, 0.0, third, 0.0],
                             [0.0, 5e-324, 0.2, 0.0], [0.0, 0.0, 0.0, 0.1]])
    grid = Grid(t_nodes=np.array([0.0, 0.1, third, 2 * third]),
                x_nodes=np.array([-third, 5e-324, 0.1, 1e300]))
    surface = sl.ValueSurface(grid=grid, v=v, obstacle=obstacle, exercise_mask=v == obstacle,
                              problem=None, meta=None)
    boundary = sl.Boundary(t_nodes=grid.t_nodes.copy(), values=np.array([-np.inf, *full[1:3], np.inf]),
                           orientation=sl.Orientation.LOWER, cell_size=0.1)
    assert surface.exercise_mask.any() and not surface.exercise_mask.all()

    expected = _cell_surface_csv(surface), _cell_boundary_csv(boundary)
    assert "\n0.33333333333333331,-0.33333333333333331,0,-0,1\n" in expected[0]
    assert "\n0,-inf\n" in expected[1] and "\n0.66666666666666663,+inf\n" in expected[1]

    files = export_surface(surface, boundary, str(tmp_path))
    assert open(files["surface"], encoding="utf-8").read() == expected[0]
    assert open(files["boundary"], encoding="utf-8").read() == expected[1]

    states = np.array([full, [-0.0, 0.0, -third, np.inf], [1e300, -1e300, 0.5, 2.0]])
    bundle = PathBundle(t_nodes=0.1 + third * np.arange(4), steps=np.full(3, third),
                        start_state=0.1, states=states, seed=0, scheme="euler",
                        poisoned=np.zeros(3, dtype=bool))
    path = export_paths_csv(bundle, str(tmp_path))
    assert open(path, encoding="utf-8").read() == _cell_paths_csv(bundle)


@pytest.mark.parametrize("name", ["brownian_bridge_exp", "brownian_bridge_linear_flipped",
                                  "ou_time_mean"])
def test_check_command_matches_solve_bit_for_bit(tmp_path, monkeypatch, name):
    # both commands sample the upper problem on the same nodes
    cfg = sl.builtin_examples()[name]
    field_checks = tuple(c for c in cfg.checks if CHECKS[c][0] == FIELDS)
    cfg = dataclasses.replace(cfg, grid=dataclasses.replace(cfg.grid, nt=50, nx=50),
                              simulation=None, checks=field_checks)
    path = str(tmp_path / "upper.cfg")
    sl.save_config(cfg, path)
    printed = []
    monkeypatch.setattr(stoplab.cli, "_print_reports", printed.extend)
    main(["check", path])
    solved = run_problem(cfg, out_dir=str(tmp_path)).reports
    assert [r.check_name for r in printed] == list(field_checks)
    assert [(r.worst_violation, r.witness) for r in printed] == \
        [(r.worst_violation, r.witness) for r in solved]


# sha256 of the canonical config.cfg text: it is the run_id and config_digest
# of every run, so these bytes must not move
CONFIG_CFG_SHA256 = {
    "bm_time_drift": "93ce28a7817b7ab2e67c24c03cebc48feeaf97d5dd481c4841429467a176446c",
    "gbm_time_drift": "2dac6eee7078622739c0dd2aebf0b074bec1e2ec9932649078d073f721a4df4d",
    "brownian_bridge_exp": "a4c38d494420446e0439dbdbe65b634da95d9a0b3a07ccd077d70f2258a8b6ac",
    "brownian_bridge_linear_flipped":
        "8809aa9344001457e0549d1327fbdf9dddb0e6cce124f7252eda9d108f55ba70",
    "two_point_filtering": "2425554051170805f6bd9c32d0a66018a475a0d23838d67c3c706b4f27902bff",
    "ou_time_mean": "385a71e6ab8f8c43090c9c1cf7dee329c7f7ff7766f199c483dcba6718c98258",
    "FAST_CONFIG": "750999a31da2c518c286c3a8d802ddd68c56bec81b0b6d35326bba19e25d35ea",
    "UPPER_CONFIG": "8d83926f267a74d13a6e80ccbc17d4b8100d34dd3143ada480a9d407798ac516",
    "HALF_LINE_LSMC_CONFIG": "95fbe49ec9320f3e1ae36640c0527a5943ef173563e2b1243f9cdd895b245226",
}


def test_config_cfg_bytes_pinned():
    configs = dict(sl.builtin_examples())
    configs.update(FAST_CONFIG=loads_config(FAST_CONFIG), UPPER_CONFIG=loads_config(UPPER_CONFIG),
                   HALF_LINE_LSMC_CONFIG=loads_config(HALF_LINE_LSMC_CONFIG))
    digests = {name: hashlib.sha256(save_config_text(configs[name]).encode()).hexdigest()
               for name in CONFIG_CFG_SHA256}
    assert digests == CONFIG_CFG_SHA256
