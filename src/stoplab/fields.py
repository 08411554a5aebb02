"""Scalar coefficient fields over (t, x): expression ASTs or plain callables."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from . import exprs


@dataclass(frozen=True)
class ScalarField:
    """A function of (t, x), with its expression AST when it has one.

    ``evaluator`` must be pure, accept scalars or numpy arrays (broadcasting),
    and be safe to call concurrently.  An expression field keeps its ``ast``
    and the ``horizon`` bound to T; its partials ``partial_t``, ``partial_x``
    and ``partial_xx`` are compiled from ``exprs.diff`` of the AST on first
    read, ``partial_xx`` differentiating ``partial_x``'s AST again.  A
    callable field has no AST and no partials (they read None), so
    ``flip_orientation`` and ``reduce_to_running_reward`` reject it.
    """

    evaluator: Callable
    source: str = ""
    time_independent: bool = False
    ast: Optional[exprs.Expr] = None
    horizon: Optional[float] = None

    def __call__(self, t, x):
        return self.evaluator(t, x)

    def row(self, t, x: np.ndarray) -> np.ndarray:
        """Evaluate along an x-array, always returning a full-size array."""
        with np.errstate(all="ignore"):
            out = np.asarray(self.evaluator(t, x), dtype=float)
        if out.ndim == 0:
            return np.full(np.shape(x), float(out))
        return out

    def _partial(self, *variables: str) -> Optional[Callable]:
        if self.ast is None:
            return None
        node = self.ast
        for var in variables:
            node = exprs.diff(node, var)
        return _compiled(node, self.horizon)

    partial_t = cached_property(lambda self: self._partial("t"))
    partial_x = cached_property(lambda self: self._partial("x"))
    partial_xx = cached_property(lambda self: self._partial("x", "x"))


def _compiled(ast: exprs.Expr, horizon: Optional[float]) -> Callable:
    f = exprs.compile_numpy(ast)
    return lambda t, x: f(t, x, horizon)


def from_ast(ast: exprs.Expr, horizon: Optional[float], source: str) -> ScalarField:
    """The expression field of ``ast`` with T bound to ``horizon`` (None: no T in it)."""
    return ScalarField(evaluator=_compiled(ast, horizon), source=source,
                       time_independent="t" not in exprs.free_variables(ast),
                       ast=ast, horizon=horizon)


def constant_field(value: float) -> ScalarField:
    v = float(value)
    return from_ast(exprs.Num(v), None, repr(v))


def from_callable(fn: Callable, *, time_independent: bool = False, source: str = "") -> ScalarField:
    """Wrap a numpy callable ``fn(t, x)``: a field with no AST and no partials."""
    return ScalarField(evaluator=fn, source=source, time_independent=time_independent)


def from_expression(text: str, horizon: float, *, allow_t: bool = True,
                    role: str = "field") -> ScalarField:
    """Build a field from an expression string in t, x and T.

    ``allow_t=False`` rejects expressions mentioning t (used for the
    diffusion coefficient, which must depend on x only).
    """
    ast = exprs.parse(text)
    if not allow_t and "t" in exprs.free_variables(ast):
        raise ValueError(f"{role} must not depend on t: {text!r}")
    return from_ast(ast, float(horizon), text)
