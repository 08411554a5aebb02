"""Scalar coefficient fields over (t, x) with optional declared derivatives."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import exprs


@dataclass(frozen=True)
class ScalarField:
    """A function of (t, x) plus optional declared partial derivatives.

    ``evaluator`` must be pure, accept scalars or numpy arrays (broadcasting),
    and be safe to call concurrently; so must the partials.  Expression
    fields carry exact partials (see ``exprs.diff``); a callable field has
    only those it declares, and ``reduce_to_running_reward`` needs all three
    of its terminal reward.
    """

    evaluator: Callable
    partial_t: Optional[Callable] = None
    partial_x: Optional[Callable] = None
    partial_xx: Optional[Callable] = None
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
                  partial_t=None, partial_x=None, partial_xx=None) -> ScalarField:
    """Wrap a numpy callable ``fn(t, x)``; partials not given stay undeclared."""
    return ScalarField(
        evaluator=fn,
        partial_t=partial_t,
        partial_x=partial_x,
        partial_xx=partial_xx,
        source=source,
        time_independent=time_independent,
    )


def from_expression(text: str, horizon: float, *, allow_t: bool = True,
                    role: str = "field") -> ScalarField:
    """Build a field from an expression string in t, x and T.

    ``allow_t=False`` rejects expressions mentioning t (used for the
    diffusion coefficient, which must depend on x only).  The partials are
    the compiled ASTs of ``exprs.diff``, with ``partial_xx`` differentiating
    ``partial_x``'s AST again.
    """
    ast = exprs.parse(text)
    names = exprs.free_variables(ast)
    if not allow_t and "t" in names:
        raise ValueError(f"{role} must not depend on t: {text!r}")
    T = float(horizon)

    def compiled(node):
        f = exprs.compile_numpy(node)
        return lambda t, x: f(t, x, T)

    ast_x = exprs.diff(ast, "x")
    return ScalarField(
        evaluator=compiled(ast),
        partial_t=compiled(exprs.diff(ast, "t")),
        partial_x=compiled(ast_x),
        partial_xx=compiled(exprs.diff(ast_x, "x")),
        source=text,
        time_independent="t" not in names,
    )
