"""Stopping-problem definition, validation, reflection and reward reduction."""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .exprs import BinOp, Expr, Neg, Num, Var, diff, substitute
from .fields import ScalarField, constant_field, from_ast
from .grids import Grid


class StateSpace(enum.Enum):
    REAL_LINE = "real_line"
    POSITIVE_HALF_LINE = "positive_half_line"


class Orientation(enum.Enum):
    LOWER = "lower_boundary"
    UPPER = "upper_boundary"


class ValidationError(ValueError):
    pass


class OrientationError(ValueError):
    pass


class ReductionError(ValueError):
    pass


@dataclass(frozen=True)
class ProblemSpec:
    """Full description of one optimal stopping problem.

    The diffusion coefficient must depend on x only (its evaluator ignores
    t by contract).  ``pole_at_horizon`` marks drifts that blow up as
    t approaches the horizon, e.g. bridge pulls; the time nodes of grids and
    simulations are then graded toward the horizon and stop short of it
    (``grids.time_nodes``).  Both orientations are solved on the user's axis;
    ``reflected`` marks a spec made by ``flip_orientation``, whose x axis is
    the user's axis negated.
    """

    drift: ScalarField
    diffusion: ScalarField
    terminal_reward: ScalarField
    horizon: float
    running_reward: Optional[ScalarField] = None
    state_space: StateSpace = StateSpace.REAL_LINE
    orientation: Orientation = Orientation.LOWER
    pole_at_horizon: bool = False
    reflected: bool = False

    def __post_init__(self):
        if not (np.isfinite(self.horizon) and self.horizon > 0):
            raise ValidationError(f"horizon must be finite and positive, got {self.horizon}")


@dataclass(frozen=True)
class Discretization:
    """The coefficient fields sampled once on one grid.

    ``mu``, ``g`` and ``f`` hold one row per time node (``f`` is None when
    there is no running reward); ``sigma`` is one row, the diffusion being
    t-free.  A time-independent field is a single row broadcast over t.
    The solver, the residual check and the checkers all read these arrays.
    """

    grid: Grid
    mu: np.ndarray
    sigma: np.ndarray
    g: np.ndarray
    f: Optional[np.ndarray]


@dataclass(frozen=True)
class ValidatedProblem:
    """A problem spec, its grid samples and the warnings raised while sampling."""

    spec: ProblemSpec
    warnings: tuple[str, ...]
    disc: Discretization

    def samples_on(self, grid: Grid) -> Discretization:
        """The validated samples, or a fresh sampling when ``grid`` is another grid."""
        return self.disc if grid is self.disc.grid else discretize(self.spec, grid)


def sample_rows(field: ScalarField, grid: Grid) -> np.ndarray:
    """The field on every (t, x) node of the grid, one row per time node."""
    ts, xs = grid.t_nodes, grid.x_nodes
    if field.time_independent:
        return np.broadcast_to(field.row(ts[0], xs), (len(ts), len(xs)))
    out = np.empty((len(ts), len(xs)))
    for k, t in enumerate(ts):
        out[k] = field.row(t, xs)
    return out


def discretize(spec: ProblemSpec, grid: Grid) -> Discretization:
    """Sample mu, sigma, g and f on the grid, for the solver and the checks alike.

    Non-finite values and a negative diffusion are hard errors naming the
    first bad node in the user's frame: x is negated for a reflected spec.
    """
    ts, xs = grid.t_nodes, grid.x_nodes

    def reject(name, bad, what="not finite"):
        if bad.any():
            idx = np.argwhere(bad)[0]
            x = float(-xs[idx[-1]] if spec.reflected else xs[idx[-1]])
            where = f"(t={float(ts[idx[0]])}, x={x})" if bad.ndim == 2 else f"x={x}"
            raise ValidationError(f"{name} is {what} at probe point {where}")

    mu = sample_rows(spec.drift, grid)
    reject("drift", ~np.isfinite(mu))
    sigma = spec.diffusion.row(0.0, xs)
    reject("diffusion", ~np.isfinite(sigma))
    reject("diffusion", sigma < 0, "negative")
    g = sample_rows(spec.terminal_reward, grid)
    reject("terminal reward", ~np.isfinite(g))
    f = None
    if spec.running_reward is not None:
        f = sample_rows(spec.running_reward, grid)
        reject("running reward", ~np.isfinite(f))
    return Discretization(grid=grid, mu=mu, sigma=sigma, g=g, f=f)


def reference_state(spec: ProblemSpec, x_ref: Optional[float] = None) -> float:
    """``x_ref`` when given, else 1.0 on the positive half line and 0.0 on the real line."""
    if x_ref is not None:
        return x_ref
    return 1.0 if spec.state_space is StateSpace.POSITIVE_HALF_LINE else 0.0


def validate_problem(spec: ProblemSpec, probe_grid: Grid) -> ValidatedProblem:
    """Sample the coefficient fields on a grid and collect warnings.

    The samples (see ``discretize``) are kept for the solver and the checks;
    non-finite evaluations and a negative diffusion are hard errors.
    """
    disc = discretize(spec, probe_grid)
    warnings: list[str] = []
    if (disc.sigma <= 0).any():
        warnings.append("diffusion vanishes somewhere on the probe grid")

    mu = disc.mu
    first_row = float(np.max(np.abs(mu[0])))
    last_row = float(np.max(np.abs(mu[-1])))
    if spec.pole_at_horizon or (last_row > 10.0 and last_row > 50.0 * max(first_row, 1e-12)):
        warnings.append("drift magnitude grows unboundedly as t -> T")

    return ValidatedProblem(spec=spec, warnings=tuple(warnings), disc=disc)


def reflect_problem(problem: ValidatedProblem, spec: ProblemSpec, grid: Grid) -> ValidatedProblem:
    """A problem validated on the reflected axis, carried back to ``spec``'s axis.

    The samples on ``grid`` are reflected, not sampled afresh: mu -> -mu(t, -x)
    and h -> h(t, -x) on the negated, reversed nodes equal a fresh sampling
    bit for bit.  The warnings are kept.
    """
    d = problem.samples_on(grid)
    new_grid = replace(d.grid, t_nodes=d.grid.t_nodes.copy(),
                       x_nodes=(-d.grid.x_nodes[::-1]).copy())
    disc = Discretization(grid=new_grid, mu=-d.mu[:, ::-1], sigma=d.sigma[::-1],
                          g=d.g[:, ::-1], f=None if d.f is None else d.f[:, ::-1])
    return replace(problem, spec=spec, disc=disc)


def _expression(field: ScalarField, role: str, error: type) -> Expr:
    """The field's AST; a callable field has none and raises ``error`` naming ``role``."""
    if field.ast is None:
        raise error(f"{role} {field.source or '<callable>'} is a callable field, "
                    "not an expression, and cannot be rewritten")
    return field.ast


def flip_orientation(spec: ProblemSpec) -> ProblemSpec:
    """Reflect the state axis, swapping upper- and lower-boundary problems.

    The reflected problem has drift -mu(t, -x), diffusion sigma(-x) and
    rewards evaluated at -x, each the field's AST with -x put in place of x;
    solving it and negating the boundary recovers the original one.  Every
    field must be an expression (a callable is an OrientationError naming
    it).  Applying the reflection twice is the identity on evaluator values.
    """
    if spec.state_space is not StateSpace.REAL_LINE:
        raise OrientationError("orientation can only be flipped on the real line")

    def reflected(field, role, negate=False):
        if field is None:
            return None
        ast = substitute(_expression(field, role, OrientationError), "x", Neg(Var("x")))
        return from_ast(Neg(ast) if negate else ast, field.horizon,
                        f"reflected({field.source})")

    return replace(
        spec,
        drift=reflected(spec.drift, "drift", negate=True),
        diffusion=reflected(spec.diffusion, "diffusion"),
        terminal_reward=reflected(spec.terminal_reward, "terminal reward"),
        running_reward=reflected(spec.running_reward, "running reward"),
        orientation=(
            Orientation.LOWER if spec.orientation is Orientation.UPPER else Orientation.UPPER
        ),
        reflected=not spec.reflected,
    )


def reduce_to_running_reward(spec: ProblemSpec) -> ProblemSpec:
    """Rewrite a terminal-reward problem in pure running-reward form.

    The new running reward is h = g_t + mu*g_x + 0.5*sigma*sigma*g_xx (+ f),
    built as one AST from the fields' ASTs and the exact partials of the
    terminal reward g (``exprs.diff``), in that order of operations; sigma
    is read at t = 0 and each field keeps its own horizon for T.  The new
    terminal reward is zero.  The value of the reduced problem equals the
    original value minus the terminal reward, pointwise, up to solver
    tolerance.  Every field must be an expression (a callable is a
    ReductionError naming it), and h must be finite at nine probe points.
    """
    T = spec.horizon

    def expression(field, role):
        ast = _expression(field, role, ReductionError)
        if field.horizon is None or field.horizon == T:
            return ast
        return substitute(ast, "T", Num(field.horizon))

    g = spec.terminal_reward
    g_ast = expression(g, "terminal reward")
    mu = expression(spec.drift, "drift")
    s = substitute(expression(spec.diffusion, "diffusion"), "t", Num(0.0))
    g_x = diff(g_ast, "x")
    h_ast = BinOp("+", BinOp("+", diff(g_ast, "t"), BinOp("*", mu, g_x)),
                  BinOp("*", BinOp("*", BinOp("*", Num(0.5), s), s), diff(g_x, "x")))
    if spec.running_reward is not None:
        h_ast = BinOp("+", h_ast, expression(spec.running_reward, "running reward"))
    h = from_ast(h_ast, T, f"generator_of({g.source})")

    t_hi = T * (0.999 if spec.pole_at_horizon else 1.0)
    xs = (0.5, 1.0, 2.0) if spec.state_space is StateSpace.POSITIVE_HALF_LINE else (-1.0, 0.0, 1.0)
    for t, x in itertools.product((0.0, 0.5 * t_hi, t_hi), xs):
        try:
            with np.errstate(all="ignore"):
                val = h(t, x)
        except Exception as err:
            raise ReductionError(
                f"reduced running reward failed at probe point (t={t}, x={x}): {err}"
            ) from err
        if not np.all(np.isfinite(val)):
            raise ReductionError(
                f"reduced running reward is not finite at probe point (t={t}, x={x})"
            )

    return replace(spec, terminal_reward=constant_field(0.0), running_reward=h)
