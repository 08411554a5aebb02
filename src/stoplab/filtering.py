"""Posterior drifts induced by an unknown random drift with a known prior.

When the state evolves as dX = h(Y) dt + dW with Y distributed according to
a prior, conditioning on the observed path turns X into a Markov diffusion
whose drift is the posterior mean of h(Y) given (t, X_t):

    f(t, x) = E[h(Y) weighted by exp(x*y - y^2*t/2)]

All likelihood ratios are computed in log space with max-subtraction, since
exp(x*y - y^2*t/2) overflows for moderate x*y.  Closed forms are provided
for two-point and Gaussian priors; anything else goes through quadrature
over the prior's atoms or user-supplied quadrature nodes.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .fields import ScalarField, from_callable

WEIGHT_TOL = 1e-12


class PriorError(ValueError):
    pass


class NumericalError(ArithmeticError):
    pass


class PriorKind(enum.Enum):
    TWO_POINT = "two_point"
    GAUSSIAN = "gaussian"
    DISCRETE = "discrete"
    DENSITY = "density"


@dataclass(frozen=True)
class Prior:
    """Prior distribution of the unknown drift variable.

    ``atoms`` holds (weight, location) pairs for discrete and density kinds
    (for the density kind they are quadrature weights and nodes).  ``link``
    is the function applied to the unknown before it enters the drift;
    identity by default.
    """

    kind: PriorKind
    p: float = 0.5
    low: float = -1.0
    high: float = 1.0
    mean: float = 0.0
    variance: float = 1.0
    atoms: tuple[tuple[float, float], ...] = ()
    link: Optional[Callable[[np.ndarray], np.ndarray]] = None
    warnings: tuple[str, ...] = field(default=(), compare=False)

    def __post_init__(self):
        warns = []
        if self.kind is PriorKind.TWO_POINT:
            if not (self.low < self.high):
                raise PriorError(f"two-point prior needs low < high, got {self.low}, {self.high}")
            if not (0.0 < self.p < 1.0):
                raise PriorError(f"two-point weight must lie in (0, 1), got {self.p}")
        elif self.kind is PriorKind.GAUSSIAN:
            if not (self.variance > 0.0):
                raise PriorError(f"gaussian prior needs positive variance, got {self.variance}")
        else:
            if not self.atoms:
                raise PriorError("discrete/density prior needs at least one atom")
            w = np.array([a[0] for a in self.atoms], dtype=float)
            y = np.array([a[1] for a in self.atoms], dtype=float)
            if (w < 0).any():
                raise PriorError("prior weights must be nonnegative")
            if abs(float(w.sum()) - 1.0) > WEIGHT_TOL:
                raise PriorError(f"prior weights must sum to 1 within {WEIGHT_TOL}, got {w.sum()!r}")
            if not np.isfinite(self._linked(y)).all():
                raise PriorError("link function is not finite on the prior support")
            if np.max(np.abs(y)) > 1e3:
                warns.append(
                    "prior support is extreme; the quadrature drift may lose accuracy"
                )
        object.__setattr__(self, "warnings", tuple(warns))

    def _linked(self, y: np.ndarray) -> np.ndarray:
        return np.asarray(self.link(y) if self.link is not None else y, dtype=float)

    def nodes(self, n_gauss: int = 200) -> tuple[np.ndarray, np.ndarray]:
        """Quadrature (weights, locations) representing the prior."""
        if self.kind is PriorKind.TWO_POINT:
            return (np.array([self.p, 1.0 - self.p]), np.array([self.low, self.high]))
        if self.kind is PriorKind.GAUSSIAN:
            u, w = np.polynomial.hermite.hermgauss(n_gauss)
            y = self.mean + math.sqrt(2.0 * self.variance) * u
            return (w / math.sqrt(math.pi), y)
        w = np.array([a[0] for a in self.atoms], dtype=float)
        y = np.array([a[1] for a in self.atoms], dtype=float)
        return (w, y)


def two_point_prior(p: float, low: float, high: float) -> Prior:
    return Prior(kind=PriorKind.TWO_POINT, p=p, low=low, high=high)


def gaussian_prior(mean: float, variance: float) -> Prior:
    return Prior(kind=PriorKind.GAUSSIAN, mean=mean, variance=variance)


def discrete_prior(atoms, link=None) -> Prior:
    return Prior(kind=PriorKind.DISCRETE, atoms=tuple(atoms), link=link)


def density_prior(weights, locations, link=None) -> Prior:
    atoms = tuple(zip((float(w) for w in weights), (float(y) for y in locations)))
    return Prior(kind=PriorKind.DENSITY, atoms=atoms, link=link)


def posterior_drift(prior: Prior, t, x):
    """Posterior mean of the linked unknown given the state at time t.

    Stable for large |x| via log-sum-exp; the result always lies between the
    smallest and largest linked values on the prior support.
    """
    w, y = prior.nodes()
    hy = prior._linked(y)
    t_arr = np.asarray(t, dtype=float)
    x_arr = np.asarray(x, dtype=float)
    # log weights: log w_i + x*y_i - y_i^2 t / 2, broadcast over (t, x)
    logw = np.log(np.where(w > 0, w, 1.0)) + np.where(w > 0, 0.0, -np.inf)
    ll = (
        logw
        + np.multiply.outer(x_arr, y)
        - 0.5 * np.multiply.outer(t_arr, y * y)
    )
    m = np.max(ll, axis=-1, keepdims=True)
    ratios = np.exp(ll - m)
    denom = ratios.sum(axis=-1)
    if not np.all(np.isfinite(denom) & (denom > 0)):
        raise NumericalError(
            f"posterior weight underflow at (t={t!r}, x={x!r})"
        )
    out = (ratios * hy).sum(axis=-1) / denom
    return out if out.ndim else float(out)


def two_point_drift(p: float, low: float, high: float, t, x):
    """Closed-form posterior drift for a two-point prior.

    Computed with the larger exponent factored out so it never overflows;
    the value lies strictly between the two support points.
    """
    if not (low < high) or not (0.0 < p < 1.0):
        raise PriorError("two_point_drift needs low < high and p in (0, 1)")
    t = np.asarray(t, dtype=float)
    x = np.asarray(x, dtype=float)
    a = low * x - 0.5 * low * low * t
    b = high * x - 0.5 * high * high * t
    m = np.maximum(a, b)
    ea = np.exp(a - m)
    eb = np.exp(b - m)
    num = p * low * ea + (1.0 - p) * high * eb
    den = p * ea + (1.0 - p) * eb
    out = num / den
    return out if out.ndim else float(out)


def two_point_drift_dt(p: float, low: float, high: float, t, x):
    """Closed-form time derivative of the two-point posterior drift.

    Against intuition it has one sign everywhere: the opposite of the sign
    of (low + high).  Evaluated in log space to stay finite for large |x|.
    """
    if not (low < high) or not (0.0 < p < 1.0):
        raise PriorError("two_point_drift_dt needs low < high and p in (0, 1)")
    t = np.asarray(t, dtype=float)
    x = np.asarray(x, dtype=float)
    a = low * x - 0.5 * low * low * t
    b = high * x - 0.5 * high * high * t
    m = np.maximum(a, b)
    log_den2 = 2.0 * (m + np.log(p * np.exp(a - m) + (1.0 - p) * np.exp(b - m)))
    spread = high - low
    scale = 0.5 * p * (1.0 - p) * spread * spread * abs(high + low)
    if scale == 0.0:
        out = np.zeros(np.broadcast(t, x).shape)
        return out if out.ndim else 0.0
    log_num = math.log(scale) + (a + b)
    out = -np.sign(high + low) * np.exp(log_num - log_den2)
    return out if out.ndim else float(out)


def gaussian_drift(mean: float, variance: float, t, x):
    """Posterior drift for a Gaussian prior: (mean + variance*x)/(1 + variance*t)."""
    if not (variance > 0.0):
        raise PriorError(f"gaussian_drift needs positive variance, got {variance}")
    t = np.asarray(t, dtype=float)
    x = np.asarray(x, dtype=float)
    out = (mean + variance * x) / (1.0 + variance * t)
    return out if out.ndim else float(out)


def filtering_drift(prior: Prior) -> ScalarField:
    """Posterior-mean drift for the given prior; closed forms where they exist."""
    if prior.kind is PriorKind.TWO_POINT:
        p, lo, hi = prior.p, prior.low, prior.high
        return from_callable(
            lambda t, x: two_point_drift(p, lo, hi, t, x),
            source=f"two_point_drift(p={p}, low={lo}, high={hi})",
        )
    if prior.kind is PriorKind.GAUSSIAN:
        m, v = prior.mean, prior.variance
        return from_callable(
            lambda t, x: gaussian_drift(m, v, t, x),
            source=f"gaussian_drift(mean={m}, var={v})",
        )
    return from_callable(
        lambda t, x: posterior_drift(prior, t, x),
        source=f"posterior_drift({prior.kind.value})",
    )
