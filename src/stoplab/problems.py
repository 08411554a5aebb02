"""Stopping-problem definition, validation, reflection and reward reduction."""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .fields import ScalarField, constant_field, from_callable
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


def flip_orientation(spec: ProblemSpec) -> ProblemSpec:
    """Reflect the state axis, swapping upper- and lower-boundary problems.

    The reflected problem has drift -mu(t, -x), diffusion sigma(-x) and
    rewards evaluated at -x; solving it and negating the boundary recovers
    the original one.  Applying the reflection twice is the identity on
    evaluator values.
    """
    if spec.state_space is not StateSpace.REAL_LINE:
        raise OrientationError("orientation can only be flipped on the real line")

    mu, sig, g, f = spec.drift, spec.diffusion, spec.terminal_reward, spec.running_reward

    def wrap_neg(field):  # h~(t, x) = -h(t, -x)
        return lambda t, x: -field(t, -np.asarray(x, dtype=float))

    def wrap_ref(field):  # h~(t, x) = h(t, -x)
        return lambda t, x: field(t, -np.asarray(x, dtype=float))

    new_drift = from_callable(
        wrap_neg(mu.evaluator),
        source=f"reflected({mu.source})",
        time_independent=mu.time_independent,
        partial_t=wrap_neg(mu.partial_t) if mu.partial_t else None,
        partial_x=wrap_ref(mu.partial_x) if mu.partial_x else None,
    )
    new_sigma = from_callable(
        wrap_ref(sig.evaluator),
        source=f"reflected({sig.source})",
        time_independent=True,
    )

    def wrap_reward(field):
        if field is None:
            return None
        return from_callable(
            wrap_ref(field.evaluator),
            source=f"reflected({field.source})",
            time_independent=field.time_independent,
            partial_t=wrap_ref(field.partial_t) if field.partial_t else None,
            partial_x=wrap_neg(field.partial_x) if field.partial_x else None,
            partial_xx=wrap_ref(field.partial_xx) if field.partial_xx else None,
        )

    return replace(
        spec,
        drift=new_drift,
        diffusion=new_sigma,
        terminal_reward=wrap_reward(g),
        running_reward=wrap_reward(f),
        orientation=(
            Orientation.LOWER if spec.orientation is Orientation.UPPER else Orientation.UPPER
        ),
        reflected=not spec.reflected,
    )


def reduce_to_running_reward(spec: ProblemSpec) -> ProblemSpec:
    """Rewrite a terminal-reward problem in pure running-reward form.

    The new running reward is f + (d/dt + mu d/dx + sigma^2/2 d/dx2) applied
    to the terminal reward; the new terminal reward is zero.  The value of
    the reduced problem equals the original value minus the terminal reward,
    pointwise, up to solver tolerance.  The generator reads the terminal
    reward's declared partials: exact for an expression reward, required
    of a callable one (a missing partial is a ReductionError naming it).
    """
    g = spec.terminal_reward
    mu = spec.drift
    sig = spec.diffusion
    f = spec.running_reward
    for name in ("partial_t", "partial_x", "partial_xx"):
        if getattr(g, name) is None:
            raise ReductionError(f"terminal reward {g.source or '<callable>'} declares no {name}")

    def h_eval(t, x):
        s = sig(0.0, x)
        out = g.partial_t(t, x) + mu(t, x) * g.partial_x(t, x) + 0.5 * s * s * g.partial_xx(t, x)
        if f is not None:
            out = out + f(t, x)
        return out

    h = from_callable(h_eval, source=f"generator_of({g.source})" if g.source
                      else "generator_reduced")

    t_hi = spec.horizon * (0.999 if spec.pole_at_horizon else 1.0)
    xs = (0.5, 1.0, 2.0) if spec.state_space is StateSpace.POSITIVE_HALF_LINE else (-1.0, 0.0, 1.0)
    for t, x in itertools.product((0.0, 0.5 * t_hi, t_hi), xs):
        try:
            with np.errstate(all="ignore"):
                val = h_eval(t, x)
        except Exception as err:
            raise ReductionError(
                f"reduced running reward failed at probe point (t={t}, x={x}): {err}"
            ) from err
        if not np.all(np.isfinite(val)):
            raise ReductionError(
                f"reduced running reward is not finite at probe point (t={t}, x={x})"
            )

    return replace(spec, terminal_reward=constant_field(0.0), running_reward=h)
