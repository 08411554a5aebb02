"""Config parsing, validation errors, and the built-in example gallery."""

import dataclasses
import os
import re

import pytest
from hypothesis import assume, given, settings, strategies as st

from stoplab import exprs
from stoplab.checks import CHECKS
from stoplab.config import (
    KEYS,
    ConfigError,
    GridConfig,
    OutputConfig,
    ProblemConfig,
    RunConfig,
    SimulationConfig,
    builtin_examples,
    load_config,
    loads_config,
    save_config,
    save_config_text,
)
from stoplab.filtering import discrete_prior, posterior_drift
from stoplab.pipeline import StageError, build_problem, prepare_problem

MINIMAL = """
[problem]
drift = "0"
sigma = "1"
terminal = "x"
horizon = 1.0

[grid]
nt = 100
nx = 100

[simulation]
seed = 42
"""


def test_minimal_config_loads():
    cfg = loads_config(MINIMAL)
    assert cfg.problem.drift == "0"
    assert cfg.grid.nt == 100
    assert cfg.simulation.seed == 42


@pytest.mark.parametrize("key, var, lines", [
    ("sigma", "t", 'drift = "0"\nsigma = "t*x"'),
    ("mu_t", "x", 'drift_family = bm_time_drift\nmu_t = "x"'),
    ("gamma_t", "x", 'drift_family = gbm\ngamma_t = "1 - x"'),
    ("mean_t", "x", 'drift_family = ou_time_mean\nrate = 1.0\nmean_t = "t*x"'),
])
def test_coefficient_dependence_rejected(key, var, lines):
    text = MINIMAL.replace('drift = "0"\nsigma = "1"', lines)
    with pytest.raises(ConfigError, match=f"{key} must not depend on {var}"):
        loads_config(text)


@pytest.mark.parametrize("raw", ["nan", "-inf", "1e400"])
@pytest.mark.parametrize("key", [k for k in KEYS if k.kind == "float"], ids=lambda k: k.name)
def test_non_finite_float_rejected(key, raw):
    header = f"[{key.section}]\n"
    text = re.sub(rf"^{key.name} = .*\n", "", MINIMAL, flags=re.M)
    text = text.replace(header, f"{header}{key.name} = {raw}\n")
    with pytest.raises(ConfigError, match=f"key '{key.name}': expected a finite number"):
        loads_config(text)


def test_non_finite_expression_literal_rejected():
    with pytest.raises(ConfigError, match="key 'terminal': .*not finite"):
        loads_config(MINIMAL.replace('terminal = "x"', 'terminal = "exp(-1e999)"'))


def test_non_finite_coupling_rejected():
    with pytest.raises(ConfigError, match="key 'couplings': expected a finite number"):
        loads_config(MINIMAL.replace("seed = 42", "seed = 42\ncouplings = 0.25 nan 1.0"))


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="driftt"):
        loads_config(MINIMAL.replace('drift = "0"', 'driftt = "0"\ndrift = "0"'))


def test_unknown_section_rejected():
    with pytest.raises(ConfigError, match="plotting"):
        loads_config(MINIMAL + "\n[plotting]\nstyle = fancy\n")


def test_unknown_check_rejected():
    with pytest.raises(ConfigError, match="boundry_monotone"):
        loads_config(MINIMAL + "\n[checks]\nrun = boundry_monotone\n")


def test_seed_required_in_simulation():
    text = MINIMAL.replace("seed = 42", "n_paths = 10")
    with pytest.raises(ConfigError, match="seed"):
        loads_config(text)


@pytest.mark.parametrize("key, value", [("n_paths", 1), ("n_paths", 0), ("n_paths", -3),
                                        ("n_steps", 0), ("lsmc_degree", -1)])
def test_bad_simulation_count_rejected(key, value):
    text = MINIMAL.replace("seed = 42", f"seed = 42\n{key} = {value}")
    with pytest.raises(ConfigError, match=f"{key} must be at least"):
        loads_config(text)


FILTERING = MINIMAL.replace('drift = "0"', "drift_family = filtering\nprior = two_point\n"
                            "p = 0.5\nlow = -1.0\nhigh = 2.0\nprior_mean = 0.0\nprior_var = 1.0")


@pytest.mark.parametrize("key, value, message", [
    ("p", "0.0", "p must lie in"), ("p", "1.0", "p must lie in"), ("p", "-0.5", "p must lie in"),
    ("low", "2.0", "low must be below high"), ("high", "-3.0", "low must be below high"),
    ("prior_var", "0.0", "prior_var must be positive"),
    ("prior_var", "-1.0", "prior_var must be positive"),
])
def test_bad_prior_parameter_rejected(key, value, message):
    assert loads_config(FILTERING).problem.p == 0.5
    text = re.sub(rf"^{key} = .*$", f"{key} = {value}", FILTERING, flags=re.M)
    with pytest.raises(ConfigError, match=message):
        loads_config(text)


@pytest.mark.parametrize("lines, message", [
    ("lsmc_t = -1.0", "lsmc_t must lie in"), ("lsmc_t = 1.0", "lsmc_t must lie in"),
    ("lsmc_t = 2.0", "lsmc_t must lie in"),
    ("couplings = 0.25 1.0 1.0", "couplings"), ("couplings = -0.1 0.5 1.0", "couplings"),
    ("couplings = 0.1 0.3 0.0 ; 0.5 0.25 1.0", "couplings"),   # u > t
])
def test_simulation_time_off_the_horizon_rejected(lines, message):
    with pytest.raises(ConfigError, match=message):
        loads_config(MINIMAL.replace("seed = 42", f"seed = 42\n{lines}"))


@pytest.mark.parametrize("value", ["0.0", "-1.0"])
def test_non_positive_x_pad_rejected(value):
    with pytest.raises(ConfigError, match="x_pad must be positive"):
        loads_config(MINIMAL.replace("nx = 100", f"nx = 100\nx_pad = {value}"))


@pytest.mark.parametrize("lines, key", [
    ("lsmc = true\nlsmc_x = 40.0\n[checks]\nrun = lsmc_cross_check", "lsmc_x"),
    ("couplings = 0.25 0.5 1.0 ; 0.25 0.5 -6.0\n[checks]\nrun = coupling_order", "couplings"),
])
def test_start_state_off_the_grid_rejected_at_prepare(lines, key):
    cfg = loads_config(MINIMAL.replace("seed = 42", f"seed = 42\n{lines}"))
    with pytest.raises(StageError, match=f"key '{key}'") as err:
        prepare_problem(cfg)
    assert err.value.stage == "prepare"
    # a point that no configured check reads is left alone
    prepare_problem(dataclasses.replace(cfg, checks=()))


def test_bad_expression_reports_offset():
    with pytest.raises(ConfigError, match="offset"):
        loads_config(MINIMAL.replace('drift = "0"', 'drift = "x +"'))


def test_drift_and_family_mutually_exclusive():
    text = MINIMAL.replace('drift = "0"', 'drift = "0"\ndrift_family = brownian_bridge\npin = 0')
    with pytest.raises(ConfigError, match="exactly one"):
        loads_config(text)


def test_family_parameter_requirements():
    text = MINIMAL.replace('drift = "0"', "drift_family = ou_time_mean")
    with pytest.raises(ConfigError, match="rate"):
        loads_config(text)


def test_couplings_parse():
    text = MINIMAL.replace("seed = 42", "seed = 42\ncouplings = 0.25 0.5 1.0 ; 0.1 0.3 0.0")
    cfg = loads_config(text)
    assert cfg.simulation.couplings == ((0.25, 0.5, 1.0), (0.1, 0.3, 0.0))


def test_builtin_gallery_contents():
    gallery = builtin_examples()
    expected = {
        "bm_time_drift", "gbm_time_drift", "brownian_bridge_exp",
        "brownian_bridge_linear_flipped", "two_point_filtering", "ou_time_mean",
    }
    assert expected <= set(gallery)
    assert len(set(gallery)) == len(gallery) >= 6
    for cfg in gallery.values():
        assert cfg.simulation is None or isinstance(cfg.simulation.seed, int)


def test_two_point_example_wires_closed_form():
    cfg = builtin_examples()["two_point_filtering"]
    drift = build_problem(cfg.problem).drift
    prior = discrete_prior([(0.5, -1.0), (0.5, 2.0)])
    for t, x in ((0.0, 0.0), (0.5, -2.0), (0.9, 3.0)):
        assert drift(t, x) == pytest.approx(posterior_drift(prior, t, x), abs=1e-14)
    assert drift.partial_t is not None and drift.partial_x is not None


def test_affine_drifts_fold_to_zero_curvature():
    # d2mu/dx2 of an affine-in-x drift folds to the literal 0 in the AST, with
    # no evaluation; the two-point posterior's tanh is not affine
    gallery = builtin_examples()
    drifts = {name: build_problem(gallery[name].problem).drift
              for name in ("bm_time_drift", "gbm_time_drift", "brownian_bridge_exp",
                           "brownian_bridge_linear_flipped", "ou_time_mean",
                           "two_point_filtering")}
    drifts["gaussian"] = build_problem(ProblemConfig(drift_family="filtering", prior="gaussian",
                                                     prior_mean=0.5, prior_var=2.0)).drift
    zero = exprs.Num(0.0)
    curvature = {name: exprs.diff(exprs.diff(d.ast, "x"), "x") for name, d in drifts.items()}
    assert {name for name, c in curvature.items() if c != zero} == {"two_point_filtering"}
    sigma = build_problem(ProblemConfig(drift="0")).diffusion
    assert exprs.to_string(sigma.ast) == "1.0" and exprs.diff(sigma.ast, "x") == zero


def test_builtin_examples_roundtrip(tmp_path):
    for name, cfg in builtin_examples().items():
        path = tmp_path / f"{name}.cfg"
        save_config(cfg, str(path))
        loaded = load_config(str(path))
        # dataclass equality field by field (name comes from the file stem)
        assert loaded.problem == cfg.problem
        assert loaded.grid == cfg.grid
        assert loaded.simulation == cfg.simulation
        assert loaded.checks == cfg.checks
        assert loaded.output == cfg.output


def test_save_text_is_stable():
    cfg = builtin_examples()["bm_time_drift"]
    assert save_config_text(cfg) == save_config_text(cfg)


def test_lsmc_off_start_point_roundtrips():
    # dump_paths starts at (lsmc_t, lsmc_x) whether or not lsmc runs, so
    # config.cfg must keep both
    text = MINIMAL.replace("seed = 42", "seed = 42\nlsmc_t = 0.5\nlsmc_x = -1.0\ndump_paths = true")
    cfg = loads_config(text)
    assert not cfg.simulation.lsmc
    assert loads_config(save_config_text(cfg)) == cfg


# ---------------------------------------------------------------------------
# round trip of every valid config through its canonical text

_FLOAT = st.floats(allow_nan=False, allow_infinity=False)
_TIME = st.floats(0.0, 1.0, exclude_max=True)   # in [0, horizon) at the default horizon
_T_ONLY = st.sampled_from(["1 - t", "exp(-t)", "t^2 - T", "0.5"])
_ANY_EXPR = st.sampled_from(["x", "exp(x)", "t*x - 1", "-x/(T - t)", "max(x, 0)"])

# a valid value for every key that save_config_text writes only when it
# differs from its default
_OPTIONAL = {
    "problem": {
        "drift": _ANY_EXPR, "drift_family": st.sampled_from(
            ["bm_time_drift", "gbm", "brownian_bridge", "ou_time_mean", "filtering"]),
        "mu_t": _T_ONLY, "gamma_t": _T_ONLY, "mean_t": _T_ONLY,
        "pin": _FLOAT, "rate": _FLOAT, "low": _FLOAT, "high": _FLOAT, "prior_mean": _FLOAT,
        "p": st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        "prior_var": st.floats(0.0, exclude_min=True, allow_infinity=False),
        "prior": st.sampled_from(["two_point", "gaussian"]),
        "running": _ANY_EXPR, "reduce": st.booleans(), "pole_at_horizon": st.booleans(),
    },
    "grid": {"x_ref": _FLOAT},
    "simulation": {
        "couplings": st.lists(st.tuples(_TIME, _TIME, _FLOAT).map(
            lambda c: (min(c[:2]), max(c[:2]), c[2])), min_size=1, max_size=2).map(tuple),
        "lsmc": st.booleans(), "lsmc_degree": st.integers(0, 9), "lsmc_t": _TIME,
        "lsmc_x": _FLOAT, "dump_paths": st.booleans(), "c_ord": _FLOAT,
    },
    "checks": {"checks": st.lists(st.sampled_from(sorted(CHECKS)), min_size=1, max_size=3).map(tuple)},
}
_ALWAYS = {
    "problem": {"sigma", "terminal", "horizon", "state_space", "orientation"},
    "grid": {"nt", "nx", "x_pad", "theta"},
    "simulation": {"seed", "n_paths", "n_steps", "region"},
    "checks": set(),
    "output": {"directory"},
}
_NEEDS = {"bm_time_drift": ("mu_t",), "gbm": ("gamma_t",), "brownian_bridge": ("pin",),
          "ou_time_mean": ("rate", "mean_t"), "filtering": ("prior",),
          "two_point": ("p", "low", "high"), "gaussian": ("prior_mean", "prior_var")}
_CLASSES = {"problem": ProblemConfig, "grid": GridConfig, "simulation": SimulationConfig,
            "output": OutputConfig}


def test_roundtrip_strategy_covers_every_field():
    for section, cls in _CLASSES.items():
        names = {f.name for f in dataclasses.fields(cls)}
        assert names == set(_OPTIONAL.get(section, {})) | _ALWAYS[section]


@st.composite
def _valid_configs(draw):
    parts = {section: {} for section in _OPTIONAL}
    for section, keys in _OPTIONAL.items():
        for key, values in keys.items():
            if draw(st.booleans()):
                parts[section][key] = draw(values)
    prob = parts["problem"]
    # exactly one of drift / drift_family, plus what the family and prior need
    if "drift_family" in prob:
        prob.pop("drift", None)
    else:
        prob.setdefault("drift", draw(_ANY_EXPR))

    def require(owner):
        for key in _NEEDS.get(owner, ()):
            if key not in prob:
                prob[key] = draw(_OPTIONAL["problem"][key])

    require(prob.get("drift_family"))
    if prob.get("drift_family") == "filtering":
        require(prob["prior"])
    if "low" in prob and "high" in prob:
        prob["low"], prob["high"] = sorted((prob["low"], prob["high"]))
        assume(prob["low"] < prob["high"])
    simulation = SimulationConfig(**parts["simulation"]) if draw(st.booleans()) else None
    return RunConfig(name="config", problem=ProblemConfig(**prob), grid=GridConfig(**parts["grid"]),
                     simulation=simulation, checks=parts["checks"].get("checks", ()))


@settings(max_examples=300, deadline=None)
@given(_valid_configs())
def test_save_then_load_is_identity(cfg):
    assert loads_config(save_config_text(cfg)) == cfg


# ---------------------------------------------------------------------------
# README documents exactly the keys the parser accepts


def test_readme_config_block_names_every_key():
    readme = open(os.path.join(os.path.dirname(__file__), "..", "README.md"), encoding="utf-8").read()
    block = readme.split("## Config format", 1)[1].split("```ini\n", 1)[1].split("```", 1)[0]
    documented, section = {}, None
    for line in block.splitlines():
        head = re.match(r"\[(\w+)\]", line)
        if head:
            section = head.group(1)
            documented[section] = []
            continue
        entry = re.match(r"#?\s*(\w+)\s*=", line)
        if entry:
            documented[section].append(entry.group(1))
    declared = {}
    for key in KEYS:
        declared.setdefault(key.section, []).append(key.name)
    assert {s: sorted(k) for s, k in documented.items()} == {s: sorted(k) for s, k in declared.items()}


def test_readme_function_list_is_the_parser_function_list():
    readme = open(os.path.join(os.path.dirname(__file__), "..", "README.md"), encoding="utf-8").read()
    listed = re.search(r"unary minus,\s+and\s+`([a-z\s]+)`", readme.split("## Config format", 1)[1])
    assert sorted(listed.group(1).split()) == sorted(exprs.FUNCTIONS)
