"""Run configuration: flat key-value files with sections, plus the example gallery.

The format is INI-style (see README for the full key reference).  Expression
values are double-quoted strings in the variables t, x, T.  Unknown sections
or keys are hard errors: a silently ignored typo in a check name would fake
a verification.
"""

from __future__ import annotations

import configparser
import io
from dataclasses import dataclass, field
from typing import Optional

from . import exprs
from .checks import CHECKS

DRIFT_FAMILIES = (
    "bm_time_drift",
    "gbm",
    "brownian_bridge",
    "ou_time_mean",
    "filtering",
)

PRIOR_KINDS = ("two_point", "gaussian")


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class ProblemConfig:
    sigma: str = "1"
    terminal: str = "x"
    running: Optional[str] = None
    horizon: float = 1.0
    state_space: str = "real_line"
    orientation: str = "lower"
    reduce: bool = False
    pole_at_horizon: Optional[bool] = None
    # either a plain drift expression ...
    drift: Optional[str] = None
    # ... or a drift family with its parameters
    drift_family: Optional[str] = None
    mu_t: Optional[str] = None        # bm_time_drift
    gamma_t: Optional[str] = None     # gbm
    pin: Optional[float] = None       # brownian_bridge
    rate: Optional[float] = None      # ou_time_mean
    mean_t: Optional[str] = None      # ou_time_mean
    prior: Optional[str] = None       # filtering: two_point | gaussian
    p: Optional[float] = None
    low: Optional[float] = None
    high: Optional[float] = None
    prior_mean: Optional[float] = None
    prior_var: Optional[float] = None


@dataclass(frozen=True)
class GridConfig:
    nt: int = 400
    nx: int = 400
    x_ref: Optional[float] = None
    x_pad: float = 5.0
    theta: float = 0.5


@dataclass(frozen=True)
class SimulationConfig:
    seed: int = 0
    n_paths: int = 10_000
    n_steps: int = 512
    couplings: tuple[tuple[float, float, float], ...] = ()   # (u, t, x) triples
    region: str = "where_drift_negative"
    lsmc: bool = False
    lsmc_degree: int = 5
    lsmc_t: float = 0.0
    lsmc_x: Optional[float] = None
    dump_paths: bool = False
    c_ord: float = 1.0   # coupling-order tolerance constant (tol = c_ord * dt)


@dataclass(frozen=True)
class OutputConfig:
    directory: str = "out"
    formats: tuple[str, ...] = ("csv", "json")


@dataclass(frozen=True)
class RunConfig:
    name: str
    problem: ProblemConfig
    grid: GridConfig = field(default_factory=GridConfig)
    simulation: Optional[SimulationConfig] = None
    checks: tuple[str, ...] = ()
    output: OutputConfig = field(default_factory=OutputConfig)


# ---------------------------------------------------------------------------
# parsing helpers

_BOOLS = {"true": True, "false": False, "yes": True, "no": False, "1": True, "0": False}


def _parse_bool(raw: str, key: str) -> bool:
    try:
        return _BOOLS[raw.strip().lower()]
    except KeyError:
        raise ConfigError(f"key {key!r}: expected a boolean, got {raw!r}") from None


def _parse_float(raw: str, key: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"key {key!r}: expected a number, got {raw!r}") from None


def _parse_int(raw: str, key: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"key {key!r}: expected an integer, got {raw!r}") from None


def _parse_expr(raw: str, key: str) -> str:
    text = raw.strip()
    if len(text) >= 2 and text[0] == text[-1] and text[0] in "\"'":
        text = text[1:-1]
    try:
        exprs.parse(text)
    except exprs.ExprError as err:
        raise ConfigError(f"key {key!r}: {err}") from None
    return text


def _parse_couplings(raw: str, key: str):
    triples = []
    for part in raw.split(";"):
        part = part.strip()
        if not part:
            continue
        bits = part.split()
        if len(bits) != 3:
            raise ConfigError(f"key {key!r}: coupling entries are 'u t x' triples, got {part!r}")
        u, t, x = (_parse_float(b, key) for b in bits)
        triples.append((u, t, x))
    return tuple(triples)


def load_config(path: str) -> RunConfig:
    """Read and fully validate a run configuration file."""
    parser = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=("#",))
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except (configparser.Error, OSError) as err:
        raise ConfigError(f"cannot parse {path}: {err}") from None
    return parse_config(parser, name=_stem(path))


def loads_config(text: str, name: str = "config") -> RunConfig:
    parser = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=("#",))
    try:
        parser.read_string(text)
    except configparser.Error as err:
        raise ConfigError(f"cannot parse config: {err}") from None
    return parse_config(parser, name=name)


def _stem(path: str) -> str:
    import os

    return os.path.splitext(os.path.basename(path))[0]


def parse_config(parser: configparser.ConfigParser, name: str) -> RunConfig:
    known_sections = {"problem", "grid", "simulation", "checks", "output"}
    for section in parser.sections():
        if section not in known_sections:
            raise ConfigError(f"unknown section [{section}]")
    if not parser.has_section("problem"):
        raise ConfigError("missing required section [problem]")

    problem = _parse_problem(dict(parser.items("problem")))
    grid = _parse_grid(dict(parser.items("grid")) if parser.has_section("grid") else {})
    simulation = None
    if parser.has_section("simulation"):
        simulation = _parse_simulation(dict(parser.items("simulation")))
    checks: tuple[str, ...] = ()
    if parser.has_section("checks"):
        checks = _parse_checks(dict(parser.items("checks")))
    output = _parse_output(dict(parser.items("output")) if parser.has_section("output") else {})
    return RunConfig(name=name, problem=problem, grid=grid, simulation=simulation,
                     checks=checks, output=output)


def _reject_unknown(items: dict, allowed: set[str], section: str):
    for key in items:
        if key not in allowed:
            raise ConfigError(f"unknown key {key!r} in section [{section}]")


def _parse_problem(items: dict) -> ProblemConfig:
    allowed = {
        "drift", "drift_family", "sigma", "terminal", "running", "horizon",
        "state_space", "orientation", "reduce", "pole_at_horizon",
        "mu_t", "gamma_t", "pin", "rate", "mean_t",
        "prior", "p", "low", "high", "prior_mean", "prior_var",
    }
    _reject_unknown(items, allowed, "problem")

    kwargs: dict = {}
    if "drift" in items:
        kwargs["drift"] = _parse_expr(items["drift"], "drift")
    if "drift_family" in items:
        famname = items["drift_family"].strip()
        if famname not in DRIFT_FAMILIES:
            raise ConfigError(f"unknown drift_family {famname!r}; known: {DRIFT_FAMILIES}")
        kwargs["drift_family"] = famname
    if ("drift" in kwargs) == ("drift_family" in kwargs):
        raise ConfigError("section [problem] needs exactly one of 'drift' or 'drift_family'")

    if "sigma" in items:
        sigma = _parse_expr(items["sigma"], "sigma")
        if "t" in exprs.free_variables(exprs.parse(sigma)):
            raise ConfigError("sigma must not depend on t")
        kwargs["sigma"] = sigma
    if "terminal" in items:
        kwargs["terminal"] = _parse_expr(items["terminal"], "terminal")
    if "running" in items:
        kwargs["running"] = _parse_expr(items["running"], "running")
    if "horizon" in items:
        horizon = _parse_float(items["horizon"], "horizon")
        if not horizon > 0:
            raise ConfigError(f"horizon must be positive, got {horizon}")
        kwargs["horizon"] = horizon
    if "state_space" in items:
        value = items["state_space"].strip()
        if value not in ("real_line", "positive_half_line"):
            raise ConfigError(f"state_space must be real_line or positive_half_line, got {value!r}")
        kwargs["state_space"] = value
    if "orientation" in items:
        value = items["orientation"].strip()
        if value not in ("lower", "upper"):
            raise ConfigError(f"orientation must be lower or upper, got {value!r}")
        kwargs["orientation"] = value
    if "reduce" in items:
        kwargs["reduce"] = _parse_bool(items["reduce"], "reduce")
    if "pole_at_horizon" in items:
        kwargs["pole_at_horizon"] = _parse_bool(items["pole_at_horizon"], "pole_at_horizon")

    for key in ("mu_t", "gamma_t", "mean_t"):
        if key in items:
            kwargs[key] = _parse_expr(items[key], key)
    for key in ("pin", "rate", "p", "low", "high", "prior_mean", "prior_var"):
        if key in items:
            kwargs[key] = _parse_float(items[key], key)
    if "prior" in items:
        value = items["prior"].strip()
        if value not in PRIOR_KINDS:
            raise ConfigError(f"prior must be one of {PRIOR_KINDS}, got {value!r}")
        kwargs["prior"] = value

    cfg = ProblemConfig(**kwargs)
    _validate_family_params(cfg)
    return cfg


def _validate_family_params(cfg: ProblemConfig):
    fam = cfg.drift_family
    if fam is None:
        return
    requirements = {
        "bm_time_drift": ("mu_t",),
        "gbm": ("gamma_t",),
        "brownian_bridge": ("pin",),
        "ou_time_mean": ("rate", "mean_t"),
        "filtering": ("prior",),
    }
    for key in requirements[fam]:
        if getattr(cfg, key) is None:
            raise ConfigError(f"drift_family {fam!r} requires key {key!r}")
    if fam == "filtering":
        if cfg.prior == "two_point":
            for key in ("p", "low", "high"):
                if getattr(cfg, key) is None:
                    raise ConfigError(f"two_point prior requires key {key!r}")
        else:
            for key in ("prior_mean", "prior_var"):
                if getattr(cfg, key) is None:
                    raise ConfigError(f"gaussian prior requires key {key!r}")
    for key in ("mu_t", "gamma_t", "mean_t"):
        value = getattr(cfg, key)
        if value is not None and "x" in exprs.free_variables(exprs.parse(value)):
            raise ConfigError(f"key {key!r} must be a function of t only")


def _parse_grid(items: dict) -> GridConfig:
    allowed = {"nt", "nx", "x_ref", "x_pad", "theta"}
    _reject_unknown(items, allowed, "grid")
    kwargs: dict = {}
    for key in ("nt", "nx"):
        if key in items:
            kwargs[key] = _parse_int(items[key], key)
    if "x_ref" in items:
        kwargs["x_ref"] = _parse_float(items["x_ref"], "x_ref")
    if "x_pad" in items:
        kwargs["x_pad"] = _parse_float(items["x_pad"], "x_pad")
    if "theta" in items:
        theta = _parse_float(items["theta"], "theta")
        if not 0.0 <= theta <= 1.0:
            raise ConfigError(f"theta must lie in [0, 1], got {theta}")
        kwargs["theta"] = theta
    return GridConfig(**kwargs)


def _parse_simulation(items: dict) -> SimulationConfig:
    allowed = {"seed", "n_paths", "n_steps", "couplings", "region",
               "lsmc", "lsmc_degree", "lsmc_t", "lsmc_x", "dump_paths", "c_ord"}
    _reject_unknown(items, allowed, "simulation")
    if "seed" not in items:
        raise ConfigError("section [simulation] requires an explicit seed (no entropy defaults)")
    kwargs: dict = {"seed": _parse_int(items["seed"], "seed")}
    for key in ("n_paths", "n_steps", "lsmc_degree"):
        if key in items:
            kwargs[key] = _parse_int(items[key], key)
    if "couplings" in items:
        kwargs["couplings"] = _parse_couplings(items["couplings"], "couplings")
    if "region" in items:
        value = items["region"].strip()
        if value not in ("everywhere", "where_drift_negative"):
            raise ConfigError(
                f"region must be everywhere or where_drift_negative, got {value!r}"
            )
        kwargs["region"] = value
    if "lsmc" in items:
        kwargs["lsmc"] = _parse_bool(items["lsmc"], "lsmc")
    if "lsmc_t" in items:
        kwargs["lsmc_t"] = _parse_float(items["lsmc_t"], "lsmc_t")
    if "lsmc_x" in items:
        kwargs["lsmc_x"] = _parse_float(items["lsmc_x"], "lsmc_x")
    if "dump_paths" in items:
        kwargs["dump_paths"] = _parse_bool(items["dump_paths"], "dump_paths")
    if "c_ord" in items:
        kwargs["c_ord"] = _parse_float(items["c_ord"], "c_ord")
    return SimulationConfig(**kwargs)


def _parse_checks(items: dict) -> tuple[str, ...]:
    allowed = {"run"}
    _reject_unknown(items, allowed, "checks")
    names = tuple(items.get("run", "").split())
    for name in names:
        if name not in CHECKS:
            raise ConfigError(f"unknown check name {name!r}; known: {tuple(CHECKS)}")
    return names


def _parse_output(items: dict) -> OutputConfig:
    allowed = {"directory", "formats"}
    _reject_unknown(items, allowed, "output")
    kwargs: dict = {}
    if "directory" in items:
        kwargs["directory"] = items["directory"].strip()
    if "formats" in items:
        formats = tuple(items["formats"].split())
        for fmt in formats:
            if fmt not in ("csv", "json"):
                raise ConfigError(f"unknown output format {fmt!r}")
        kwargs["formats"] = formats
    return OutputConfig(**kwargs)


# ---------------------------------------------------------------------------
# canonical serialization (round-trips through load)


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def save_config_text(cfg: RunConfig) -> str:
    out = io.StringIO()
    out.write("[problem]\n")
    prob = cfg.problem
    if prob.drift is not None:
        out.write(f'drift = "{prob.drift}"\n')
    if prob.drift_family is not None:
        out.write(f"drift_family = {prob.drift_family}\n")
    for key in ("mu_t", "gamma_t", "mean_t"):
        value = getattr(prob, key)
        if value is not None:
            out.write(f'{key} = "{value}"\n')
    for key in ("pin", "rate", "p", "low", "high", "prior_mean", "prior_var"):
        value = getattr(prob, key)
        if value is not None:
            out.write(f"{key} = {_fmt(value)}\n")
    if prob.prior is not None:
        out.write(f"prior = {prob.prior}\n")
    out.write(f'sigma = "{prob.sigma}"\n')
    out.write(f'terminal = "{prob.terminal}"\n')
    if prob.running is not None:
        out.write(f'running = "{prob.running}"\n')
    out.write(f"horizon = {_fmt(prob.horizon)}\n")
    out.write(f"state_space = {prob.state_space}\n")
    out.write(f"orientation = {prob.orientation}\n")
    if prob.reduce:
        out.write("reduce = true\n")
    if prob.pole_at_horizon is not None:
        out.write(f"pole_at_horizon = {_fmt(prob.pole_at_horizon)}\n")

    out.write("\n[grid]\n")
    grid = cfg.grid
    out.write(f"nt = {grid.nt}\n")
    out.write(f"nx = {grid.nx}\n")
    if grid.x_ref is not None:
        out.write(f"x_ref = {_fmt(grid.x_ref)}\n")
    out.write(f"x_pad = {_fmt(grid.x_pad)}\n")
    out.write(f"theta = {_fmt(grid.theta)}\n")

    if cfg.simulation is not None:
        sim = cfg.simulation
        out.write("\n[simulation]\n")
        out.write(f"seed = {sim.seed}\n")
        out.write(f"n_paths = {sim.n_paths}\n")
        out.write(f"n_steps = {sim.n_steps}\n")
        if sim.couplings:
            joined = " ; ".join(f"{_fmt(u)} {_fmt(t)} {_fmt(x)}" for u, t, x in sim.couplings)
            out.write(f"couplings = {joined}\n")
        out.write(f"region = {sim.region}\n")
        if sim.lsmc:
            out.write("lsmc = true\n")
            out.write(f"lsmc_degree = {sim.lsmc_degree}\n")
            out.write(f"lsmc_t = {_fmt(sim.lsmc_t)}\n")
            if sim.lsmc_x is not None:
                out.write(f"lsmc_x = {_fmt(sim.lsmc_x)}\n")
        if sim.dump_paths:
            out.write("dump_paths = true\n")
        if sim.c_ord != 1.0:
            out.write(f"c_ord = {_fmt(sim.c_ord)}\n")

    if cfg.checks:
        out.write("\n[checks]\n")
        out.write(f"run = {' '.join(cfg.checks)}\n")

    out.write("\n[output]\n")
    out.write(f"directory = {cfg.output.directory}\n")
    out.write(f"formats = {' '.join(cfg.output.formats)}\n")
    return out.getvalue()


def save_config(cfg: RunConfig, path: str):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(save_config_text(cfg))


# ---------------------------------------------------------------------------
# built-in example gallery

_CONCLUSION_CHECKS = (
    "value_time_monotone",
    "boundary_monotone",
    "residual_complementarity",
    "value_continuity",
)


def builtin_examples() -> dict[str, RunConfig]:
    """Named, fully specified configurations for the model gallery."""
    examples: dict[str, RunConfig] = {}

    examples["bm_time_drift"] = RunConfig(
        name="bm_time_drift",
        problem=ProblemConfig(drift_family="bm_time_drift", mu_t="1 - t",
                              sigma="1", terminal="x", horizon=1.0),
        grid=GridConfig(nt=400, nx=400, x_ref=0.0, x_pad=5.0),
        simulation=SimulationConfig(seed=20240611, n_paths=10_000, n_steps=512,
                                    couplings=((0.25, 0.5, 1.0),), region="everywhere"),
        checks=("reward_x_monotone", "drift_time_monotone_everywhere",
                "coupling_order") + _CONCLUSION_CHECKS,
        output=OutputConfig(directory="out/bm_time_drift"),
    )

    examples["gbm_time_drift"] = RunConfig(
        name="gbm_time_drift",
        problem=ProblemConfig(drift_family="gbm", gamma_t="1 - t",
                              sigma="0.2*x", terminal="x", horizon=1.0,
                              state_space="positive_half_line"),
        grid=GridConfig(nt=400, nx=400, x_ref=1.0, x_pad=5.0),
        simulation=SimulationConfig(seed=20240612, n_paths=10_000, n_steps=512),
        checks=("reward_x_monotone", "drift_time_monotone_everywhere") + _CONCLUSION_CHECKS,
        output=OutputConfig(directory="out/gbm_time_drift"),
    )

    examples["brownian_bridge_exp"] = RunConfig(
        name="brownian_bridge_exp",
        problem=ProblemConfig(drift_family="brownian_bridge", pin=0.0,
                              sigma="1", terminal="exp(x)", horizon=1.0,
                              orientation="upper"),
        grid=GridConfig(nt=400, nx=400, x_ref=0.0, x_pad=4.0),
        simulation=SimulationConfig(seed=20240613, n_paths=10_000, n_steps=512,
                                    couplings=((0.25, 0.5, 1.0),),
                                    region="where_drift_negative"),
        checks=("reward_x_monotone", "drift_time_monotone_where_drift_negative",
                "drift_curvature_balance", "coupling_order") + _CONCLUSION_CHECKS,
        output=OutputConfig(directory="out/brownian_bridge_exp"),
    )

    examples["brownian_bridge_linear_flipped"] = RunConfig(
        name="brownian_bridge_linear_flipped",
        problem=ProblemConfig(drift_family="brownian_bridge", pin=0.0,
                              sigma="1", terminal="x", horizon=1.0,
                              orientation="upper"),
        grid=GridConfig(nt=400, nx=400, x_ref=0.0, x_pad=5.0),
        # n_steps = nt - 1 puts the simulation's pole gap at the same
        # T - T/nt the solver uses, so the two value oracles truncate the
        # horizon identically
        simulation=SimulationConfig(seed=20240614, n_paths=10_000, n_steps=399,
                                    couplings=((0.25, 0.5, 1.0),),
                                    region="where_drift_negative",
                                    lsmc=True, lsmc_degree=5, lsmc_t=0.0, lsmc_x=0.0),
        checks=("reward_x_monotone", "drift_time_monotone_where_drift_negative",
                "drift_curvature_balance", "coupling_order",
                "lsmc_cross_check") + _CONCLUSION_CHECKS,
        output=OutputConfig(directory="out/brownian_bridge_linear_flipped"),
    )

    examples["two_point_filtering"] = RunConfig(
        name="two_point_filtering",
        problem=ProblemConfig(drift_family="filtering", prior="two_point",
                              p=0.5, low=-1.0, high=2.0,
                              sigma="1", terminal="x", horizon=1.0),
        grid=GridConfig(nt=400, nx=400, x_ref=0.0, x_pad=5.0),
        simulation=SimulationConfig(seed=20240615, n_paths=10_000, n_steps=512),
        checks=("reward_x_monotone", "drift_time_monotone_everywhere") + _CONCLUSION_CHECKS,
        output=OutputConfig(directory="out/two_point_filtering"),
    )

    examples["ou_time_mean"] = RunConfig(
        name="ou_time_mean",
        problem=ProblemConfig(drift_family="ou_time_mean", rate=1.0, mean_t="1 - t",
                              sigma="1", terminal="x", horizon=1.0,
                              orientation="upper"),
        grid=GridConfig(nt=400, nx=400, x_ref=0.0, x_pad=5.0),
        simulation=SimulationConfig(seed=20240616, n_paths=10_000, n_steps=512),
        checks=("reward_x_monotone", "drift_time_monotone_everywhere") + _CONCLUSION_CHECKS,
        output=OutputConfig(directory="out/ou_time_mean"),
    )

    return examples
