"""Scalar coefficient fields over (t, x) with optional declared derivatives."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import exprs

# relative step for fallback central differences; balances truncation and
# round-off for fields of order unity
FD_REL_STEP = 1e-5


@dataclass(frozen=True)
class ScalarField:
    """A function of (t, x) plus optional declared partial derivatives.

    ``evaluator`` must be pure, accept scalars or numpy arrays (broadcasting),
    and be safe to call concurrently.  When a partial is not declared it is
    approximated by central differences with a scale-aware step
    ``FD_REL_STEP * (1 + |x|)`` (same in t).
    """

    evaluator: Callable
    partial_t: Optional[Callable] = None
    partial_x: Optional[Callable] = None
    partial_xx: Optional[Callable] = None
    regularity_note: str = ""
    source: str = ""
    time_independent: bool = False

    def __call__(self, t, x):
        return self.evaluator(t, x)

    def row(self, t, x: np.ndarray) -> np.ndarray:
        """Evaluate along an x-array, always returning a full-size array."""
        with np.errstate(all="ignore"):
            out = np.asarray(self.evaluator(t, x), dtype=float)
        if out.ndim == 0:
            return np.full(np.shape(x), float(out))
        return out

    def dt(self, t, x):
        if self.partial_t is not None:
            return self.partial_t(t, x)
        h = FD_REL_STEP * (1.0 + np.abs(t))
        with np.errstate(all="ignore"):
            return (self.evaluator(t + h, x) - self.evaluator(t - h, x)) / (2.0 * h)

    def dx(self, t, x):
        if self.partial_x is not None:
            return self.partial_x(t, x)
        h = FD_REL_STEP * (1.0 + np.abs(x))
        with np.errstate(all="ignore"):
            return (self.evaluator(t, x + h) - self.evaluator(t, x - h)) / (2.0 * h)

    def dxx(self, t, x):
        if self.partial_xx is not None:
            return self.partial_xx(t, x)
        h = FD_REL_STEP * (1.0 + np.abs(x))
        with np.errstate(all="ignore"):
            f0 = self.evaluator(t, x)
            return (self.evaluator(t, x + h) - 2.0 * f0 + self.evaluator(t, x - h)) / (h * h)


def constant_field(value: float) -> ScalarField:
    v = float(value)
    zero = lambda t, x: 0.0 * np.asarray(x, dtype=float)
    return ScalarField(
        evaluator=lambda t, x: v + 0.0 * np.asarray(x, dtype=float),
        partial_t=zero,
        partial_x=zero,
        partial_xx=zero,
        source=repr(v),
        time_independent=True,
    )


def from_callable(fn: Callable, *, time_independent: bool = False, source: str = "",
                  partial_t=None, partial_x=None, partial_xx=None,
                  regularity_note: str = "") -> ScalarField:
    return ScalarField(
        evaluator=fn,
        partial_t=partial_t,
        partial_x=partial_x,
        partial_xx=partial_xx,
        regularity_note=regularity_note,
        source=source,
        time_independent=time_independent,
    )


def from_expression(text: str, horizon: float, *, allow_t: bool = True,
                    role: str = "field") -> ScalarField:
    """Build a field from an expression string in t, x and T.

    ``allow_t=False`` rejects expressions mentioning t (used for the
    diffusion coefficient, which must depend on x only).
    """
    ast = exprs.parse(text)
    names = exprs.free_variables(ast)
    if not allow_t and "t" in names:
        raise ValueError(f"{role} must not depend on t: {text!r}")
    compiled = exprs.compile_numpy(ast)
    T = float(horizon)

    def evaluator(t, x):
        return compiled(t, x, T)

    return ScalarField(
        evaluator=evaluator,
        source=text,
        time_independent="t" not in names,
    )
