"""Posterior drifts induced by an unknown random drift with a known prior.

When the state evolves as dX = h(Y) dt + dW with Y distributed according to
a prior, conditioning on the observed path turns X into a Markov diffusion
whose drift is the posterior mean of h(Y) given (t, X_t):

    f(t, x) = E[h(Y) weighted by exp(x*y - y^2*t/2)]

This module computes that mean by quadrature over a discrete prior's atoms
or a density's quadrature nodes.  All likelihood ratios are computed in log
space with max-subtraction, since exp(x*y - y^2*t/2) overflows for moderate
x*y.  A config's two-point and Gaussian priors do not come through here:
their posterior means are the expression templates ``config.PRIORS``, so
those drifts have exact partials like every other config drift.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

WEIGHT_TOL = 1e-12


class PriorError(ValueError):
    pass


class NumericalError(ArithmeticError):
    pass


@dataclass(frozen=True)
class Prior:
    """Prior distribution of the unknown drift variable.

    ``atoms`` holds (weight, location) pairs; for a density they are
    quadrature weights and nodes.  ``link`` is the function applied to the
    unknown before it enters the drift; identity by default.
    """

    atoms: tuple[tuple[float, float], ...] = ()
    link: Optional[Callable[[np.ndarray], np.ndarray]] = None
    warnings: tuple[str, ...] = field(default=(), compare=False)

    def __post_init__(self):
        if not self.atoms:
            raise PriorError("discrete/density prior needs at least one atom")
        w, y = self.nodes()
        if (w < 0).any():
            raise PriorError("prior weights must be nonnegative")
        if abs(float(w.sum()) - 1.0) > WEIGHT_TOL:
            raise PriorError(f"prior weights must sum to 1 within {WEIGHT_TOL}, got {w.sum()!r}")
        if not np.isfinite(self._linked(y)).all():
            raise PriorError("link function is not finite on the prior support")
        warns = []
        if np.max(np.abs(y)) > 1e3:
            warns.append("prior support is extreme; the quadrature drift may lose accuracy")
        object.__setattr__(self, "warnings", tuple(warns))

    def _linked(self, y: np.ndarray) -> np.ndarray:
        return np.asarray(self.link(y) if self.link is not None else y, dtype=float)

    def nodes(self) -> tuple[np.ndarray, np.ndarray]:
        """Quadrature (weights, locations) representing the prior."""
        w = np.array([a[0] for a in self.atoms], dtype=float)
        y = np.array([a[1] for a in self.atoms], dtype=float)
        return (w, y)


def discrete_prior(atoms, link=None) -> Prior:
    return Prior(atoms=tuple(atoms), link=link)


def density_prior(weights, locations, link=None) -> Prior:
    atoms = tuple(zip((float(w) for w in weights), (float(y) for y in locations)))
    return Prior(atoms=atoms, link=link)


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
