"""Run configuration: flat key-value files with sections, plus the example gallery.

The format is INI-style; README "Config format" lists every key.  `KEYS` is the
one place a key is declared: its section, kind, allowed values and write rule.
One loop parses every key from it and one writer writes them back in its order;
`_validate` keeps only the rules that link keys or bound a value.  Expressions
are double-quoted strings in t, x, T.  Unknown sections or keys are hard errors:
a silently ignored typo in a check name would fake a verification.
"""

from __future__ import annotations

import configparser
import math
import os
import string
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

from . import exprs
from .checks import CHECKS

# each drift family's drift as an expression template; its fields are the keys
# the family needs, and a float is filled in by its repr, which parses back to
# the same double.  The filtering template only names its key: its drift is
# that prior's template in PRIORS.
FAMILIES = {"bm_time_drift": "{mu_t}", "gbm": "x*({gamma_t})",
            "brownian_bridge": "({pin!r} - x)/(T - t)",
            "ou_time_mean": "{rate!r}*(({mean_t}) - x)", "filtering": "{prior}"}
# each prior's drift: the posterior mean, given (t, x), of an unknown constant
# drift with that prior.  The two-point posterior puts weight
# logistic(u) = (1 + tanh(u/2))/2 on high, with
# u = (high - low)(x - (high + low)t/2) - log(p/(1 - p)); tanh keeps the value
# and its partials finite where the weight saturates.
PRIORS = {"two_point": "({low!r} + {high!r})/2 + ({high!r} - {low!r})/2*tanh(({high!r} - {low!r})/2"
                       "*(x - ({low!r} + {high!r})/2*t) - log({p!r}/(1 - {p!r}))/2)",
          "gaussian": "({prior_mean!r} + {prior_var!r}*x)/(1 + {prior_var!r}*t)"}


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


@dataclass(frozen=True)
class RunConfig:
    name: str
    problem: ProblemConfig
    grid: GridConfig = field(default_factory=GridConfig)
    simulation: Optional[SimulationConfig] = None
    checks: tuple[str, ...] = ()
    output: OutputConfig = field(default_factory=OutputConfig)


@dataclass(frozen=True)
class _Checks:
    """The [checks] section; `RunConfig.checks` holds its one key."""
    run: tuple[str, ...] = ()


# ---------------------------------------------------------------------------
# the key table, in canonical write order

ALWAYS, SET, LSMC = "always", "set", "lsmc"


class Key(NamedTuple):
    section: str
    name: str
    kind: str            # expr float int bool choice couplings words str
    choices: tuple = ()  # allowed values of a choice, or of each word
    write: str = SET     # SET: when off its default; LSMC: also while lsmc is on


KEYS = (
    Key("problem", "drift", "expr"),
    Key("problem", "drift_family", "choice", tuple(FAMILIES)),
    Key("problem", "mu_t", "expr"),
    Key("problem", "gamma_t", "expr"),
    Key("problem", "mean_t", "expr"),
    Key("problem", "pin", "float"),
    Key("problem", "rate", "float"),
    Key("problem", "p", "float"),
    Key("problem", "low", "float"),
    Key("problem", "high", "float"),
    Key("problem", "prior_mean", "float"),
    Key("problem", "prior_var", "float"),
    Key("problem", "prior", "choice", tuple(PRIORS)),
    Key("problem", "sigma", "expr", write=ALWAYS),
    Key("problem", "terminal", "expr", write=ALWAYS),
    Key("problem", "running", "expr"),
    Key("problem", "horizon", "float", write=ALWAYS),
    Key("problem", "state_space", "choice", ("real_line", "positive_half_line"), ALWAYS),
    Key("problem", "orientation", "choice", ("lower", "upper"), ALWAYS),
    Key("problem", "reduce", "bool"),
    Key("problem", "pole_at_horizon", "bool"),
    Key("grid", "nt", "int", write=ALWAYS),
    Key("grid", "nx", "int", write=ALWAYS),
    Key("grid", "x_ref", "float"),
    Key("grid", "x_pad", "float", write=ALWAYS),
    Key("grid", "theta", "float", write=ALWAYS),
    Key("simulation", "seed", "int", write=ALWAYS),
    Key("simulation", "n_paths", "int", write=ALWAYS),
    Key("simulation", "n_steps", "int", write=ALWAYS),
    Key("simulation", "couplings", "couplings"),
    Key("simulation", "region", "choice", ("everywhere", "where_drift_negative"), ALWAYS),
    Key("simulation", "lsmc", "bool"),
    Key("simulation", "lsmc_degree", "int", write=LSMC),
    Key("simulation", "lsmc_t", "float", write=LSMC),
    Key("simulation", "lsmc_x", "float"),
    Key("simulation", "dump_paths", "bool"),
    Key("simulation", "c_ord", "float"),
    Key("checks", "run", "words", tuple(CHECKS)),
    Key("output", "directory", "str", write=ALWAYS),
)

_SECTIONS = {"problem": ProblemConfig, "grid": GridConfig, "simulation": SimulationConfig,
            "checks": _Checks, "output": OutputConfig}
_BY_NAME = {(k.section, k.name): k for k in KEYS}


# ---------------------------------------------------------------------------
# parsing

_BOOLS = {"true": True, "false": False, "yes": True, "no": False, "1": True, "0": False}


def _number(kind, raw: str, key: str):
    try:
        value = kind(raw)
        if kind is int or math.isfinite(value):
            return value
    except ValueError:
        pass
    what = "an integer" if kind is int else "a finite number"
    raise ConfigError(f"key {key!r}: expected {what}, got {raw!r}")


def _parse_value(key: Key, raw: str):
    name, text = key.name, raw.strip()
    if key.kind == "expr":
        if len(text) >= 2 and text[0] == text[-1] and text[0] in "\"'":
            text = text[1:-1]
        try:
            exprs.parse(text)
        except exprs.ExprError as err:
            raise ConfigError(f"key {name!r}: {err}") from None
        return text
    if key.kind in ("float", "int"):
        return _number(float if key.kind == "float" else int, raw, name)
    if key.kind == "bool":
        if text.lower() not in _BOOLS:
            raise ConfigError(f"key {name!r}: expected a boolean, got {raw!r}")
        return _BOOLS[text.lower()]
    if key.kind == "couplings":
        triples = []
        for part in filter(None, (p.strip() for p in raw.split(";"))):
            bits = part.split()
            if len(bits) != 3:
                raise ConfigError(f"key {name!r}: coupling entries are 'u t x' triples, got {part!r}")
            triples.append(tuple(_number(float, b, name) for b in bits))
        return tuple(triples)
    words = tuple(text.split()) if key.kind == "words" else (text,)
    for word in words:
        if key.choices and word not in key.choices:
            raise ConfigError(f"key {name!r}: unknown value {word!r}; known: {key.choices}")
    return text if key.kind in ("choice", "str") else words


def _parser(source: str, text: Optional[str] = None) -> configparser.ConfigParser:
    """Parse `text`, or the file at `source` when no text is given."""
    parser = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=("#",))
    try:
        if text is None:
            with open(source, "r", encoding="utf-8") as fh:
                text = fh.read()
        parser.read_string(text, source)
    except (configparser.Error, OSError) as err:
        raise ConfigError(f"cannot parse {source}: {err}") from None
    return parser


def load_config(path: str) -> RunConfig:
    """Read and fully validate a run configuration file."""
    return parse_config(_parser(path), name=os.path.splitext(os.path.basename(path))[0])


def loads_config(text: str, name: str = "config") -> RunConfig:
    return parse_config(_parser("config", text), name=name)


def parse_config(parser: configparser.ConfigParser, name: str) -> RunConfig:
    values: dict[str, dict] = {section: {} for section in parser.sections()}
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown section [{section}]")
        for option, raw in parser.items(section):
            key = _BY_NAME.get((section, option))
            if key is None:
                raise ConfigError(f"unknown key {option!r} in section [{section}]")
            values[section][option] = _parse_value(key, raw)
    _validate(values)
    built = {section: cls(**values.get(section, {})) for section, cls in _SECTIONS.items()}
    return RunConfig(name, built["problem"], built["grid"],
                     built["simulation"] if "simulation" in values else None,
                     built["checks"].run, built["output"])


def _validate(values: dict) -> None:
    """The rules that link keys or bound a value; each error names the key."""
    if "problem" not in values:
        raise ConfigError("missing required section [problem]")
    prob = values["problem"]
    if ("drift" in prob) == ("drift_family" in prob):
        raise ConfigError("section [problem] needs exactly one of 'drift' or 'drift_family'")
    for key, var in (("sigma", "t"), ("mu_t", "x"), ("gamma_t", "x"), ("mean_t", "x")):
        if key in prob and var in exprs.free_variables(exprs.parse(prob[key])):
            raise ConfigError(f"{key} must not depend on {var}, got {prob[key]!r}")
    if not prob.get("horizon", 1.0) > 0:
        raise ConfigError(f"horizon must be positive, got {prob['horizon']}")
    grid, sim = values.get("grid", {}), values.get("simulation", {})
    horizon = prob.get("horizon", 1.0)
    if not 0.0 <= grid.get("theta", 0.5) <= 1.0:
        raise ConfigError(f"theta must lie in [0, 1], got {grid['theta']}")
    if not grid.get("x_pad", 5.0) > 0:
        raise ConfigError(f"x_pad must be positive, got {grid['x_pad']}")
    if "simulation" in values and "seed" not in sim:
        raise ConfigError("section [simulation] requires an explicit seed (no entropy defaults)")
    for key, least in (("n_paths", 2), ("n_steps", 1), ("lsmc_degree", 0)):
        if sim.get(key, least) < least:
            raise ConfigError(f"{key} must be at least {least}, got {sim[key]}")
    if not 0.0 <= sim.get("lsmc_t", 0.0) < horizon:
        raise ConfigError(f"lsmc_t must lie in [0, horizon) = [0, {horizon}), got {sim['lsmc_t']}")
    for u, t, _ in sim.get("couplings", ()):
        if not 0.0 <= u <= t < horizon:
            raise ConfigError(f"couplings: each (u, t, x) needs 0 <= u <= t < horizon = {horizon}, "
                              f"got u {u}, t {t}")
    for _, key, _, _ in string.Formatter().parse(drift_template(prob)):
        if key and key not in prob:
            raise ConfigError(f"drift_family {prob['drift_family']!r} requires key {key!r}")
    if not 0.0 < prob.get("p", 0.5) < 1.0:
        raise ConfigError(f"p must lie in (0, 1), got {prob['p']}")
    if not prob.get("low", -math.inf) < prob.get("high", math.inf):
        raise ConfigError(f"low must be below high, got low {prob['low']}, high {prob['high']}")
    if not prob.get("prior_var", 1.0) > 0:
        raise ConfigError(f"prior_var must be positive, got {prob['prior_var']}")


def drift_template(problem: dict) -> str:
    """A problem's drift before its keys are filled in: the plain drift, the
    family's template, or a filtering family's prior template.

    ``problem`` maps key names to values; an unset key is absent or None.
    """
    fam = problem.get("drift_family")
    if fam is None:
        return problem["drift"]
    if fam == "filtering" and problem.get("prior") is not None:
        return PRIORS[problem["prior"]]
    return FAMILIES[fam]


# ---------------------------------------------------------------------------
# canonical serialization (round-trips through load)


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return repr(value) if isinstance(value, float) else str(value)


def _render(key: Key, value) -> str:
    if key.kind == "expr":
        return f'"{value}"'
    if key.kind == "couplings":
        return " ; ".join(" ".join(map(_fmt, triple)) for triple in value)
    return " ".join(value) if key.kind == "words" else _fmt(value)


def save_config_text(cfg: RunConfig) -> str:
    """The canonical text of a config: ALWAYS keys, plus every key off its default."""
    sections = {"problem": cfg.problem, "grid": cfg.grid, "simulation": cfg.simulation,
                "checks": _Checks(cfg.checks), "output": cfg.output}
    blocks = []
    for section, obj in sections.items():
        if obj is None:
            continue
        default = _SECTIONS[section]()
        lines = [f"{key.name} = {_render(key, getattr(obj, key.name))}\n"
                 for key in KEYS if key.section == section and (
                     key.write == ALWAYS or (key.write == LSMC and obj.lsmc)
                     or getattr(obj, key.name) != getattr(default, key.name))]
        if lines:
            blocks.append(f"[{section}]\n" + "".join(lines))
    return "\n".join(blocks)


def save_config(cfg: RunConfig, path: str):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(save_config_text(cfg))


# ---------------------------------------------------------------------------
# built-in example gallery

_CONCLUSION_CHECKS = ("value_time_monotone", "boundary_monotone",
                      "residual_complementarity", "value_continuity")


def builtin_examples() -> dict[str, RunConfig]:
    """Named, fully specified configurations for the model gallery."""
    examples: dict[str, RunConfig] = {}

    def add(name: str, **parts):
        examples[name] = RunConfig(name=name, output=OutputConfig(directory=f"out/{name}"),
                                   **parts)

    add("bm_time_drift",
        problem=ProblemConfig(drift_family="bm_time_drift", mu_t="1 - t",
                              sigma="1", terminal="x", horizon=1.0),
        grid=GridConfig(nt=400, nx=400, x_ref=0.0, x_pad=5.0),
        simulation=SimulationConfig(seed=20240611, n_paths=10_000, n_steps=512,
                                    couplings=((0.25, 0.5, 1.0),), region="everywhere"),
        checks=("reward_x_monotone", "drift_time_monotone_everywhere",
                "coupling_order") + _CONCLUSION_CHECKS,
    )

    add("gbm_time_drift",
        problem=ProblemConfig(drift_family="gbm", gamma_t="1 - t",
                              sigma="0.2*x", terminal="x", horizon=1.0,
                              state_space="positive_half_line"),
        grid=GridConfig(nt=400, nx=400, x_ref=1.0, x_pad=5.0),
        simulation=SimulationConfig(seed=20240612, n_paths=10_000, n_steps=512),
        checks=("reward_x_monotone", "drift_time_monotone_everywhere") + _CONCLUSION_CHECKS,
    )

    add("brownian_bridge_exp",
        problem=ProblemConfig(drift_family="brownian_bridge", pin=0.0,
                              sigma="1", terminal="exp(x)", horizon=1.0,
                              orientation="upper"),
        grid=GridConfig(nt=400, nx=400, x_ref=0.0, x_pad=4.0),
        simulation=SimulationConfig(seed=20240613, n_paths=10_000, n_steps=512,
                                    couplings=((0.25, 0.5, 1.0),),
                                    region="where_drift_negative"),
        checks=("reward_x_monotone", "drift_time_monotone_where_drift_negative",
                "drift_curvature_balance", "coupling_order") + _CONCLUSION_CHECKS,
    )

    add("brownian_bridge_linear_flipped",
        problem=ProblemConfig(drift_family="brownian_bridge", pin=0.0,
                              sigma="1", terminal="x", horizon=1.0,
                              orientation="upper"),
        grid=GridConfig(nt=400, nx=400, x_ref=0.0, x_pad=5.0),
        simulation=SimulationConfig(seed=20240614, n_paths=10_000, n_steps=400,
                                    couplings=((0.25, 0.5, 1.0),),
                                    region="where_drift_negative",
                                    lsmc=True, lsmc_degree=5, lsmc_t=0.0, lsmc_x=0.0),
        checks=("reward_x_monotone", "drift_time_monotone_where_drift_negative",
                "drift_curvature_balance", "coupling_order",
                "lsmc_cross_check") + _CONCLUSION_CHECKS,
    )

    add("two_point_filtering",
        problem=ProblemConfig(drift_family="filtering", prior="two_point",
                              p=0.5, low=-1.0, high=2.0,
                              sigma="1", terminal="x", horizon=1.0),
        grid=GridConfig(nt=400, nx=400, x_ref=0.0, x_pad=5.0),
        simulation=SimulationConfig(seed=20240615, n_paths=10_000, n_steps=512),
        checks=("reward_x_monotone", "drift_time_monotone_everywhere") + _CONCLUSION_CHECKS,
    )

    add("ou_time_mean",
        problem=ProblemConfig(drift_family="ou_time_mean", rate=1.0, mean_t="1 - t",
                              sigma="1", terminal="x", horizon=1.0,
                              orientation="upper"),
        grid=GridConfig(nt=400, nx=400, x_ref=0.0, x_pad=5.0),
        simulation=SimulationConfig(seed=20240616, n_paths=10_000, n_steps=512),
        checks=("reward_x_monotone", "drift_time_monotone_everywhere") + _CONCLUSION_CHECKS,
    )

    return examples
