"""Shared fixtures and generators for the test suite."""

import random

import pytest

import stoplab as sl
from stoplab import exprs
from stoplab.problems import Orientation


def random_expr(rng: random.Random, depth: int) -> exprs.Expr:
    """Random AST of depth <= depth over the full node vocabulary."""
    if depth <= 0 or rng.random() < 0.25:
        roll = rng.random()
        if roll < 0.4:
            return exprs.Num(round(rng.uniform(0.0, 10.0), 3))
        return exprs.Var(rng.choice(exprs.VARIABLES))
    roll = rng.random()
    if roll < 0.15:
        return exprs.Neg(random_expr(rng, depth - 1))
    if roll < 0.75:
        op = rng.choice(["+", "-", "*", "/", "^"])
        return exprs.BinOp(op, random_expr(rng, depth - 1), random_expr(rng, depth - 1))
    func = rng.choice(list(exprs.FUNCTIONS))
    arity = exprs.FUNCTIONS[func]
    return exprs.Call(func, tuple(random_expr(rng, depth - 1) for _ in range(arity)))


def reference_eval(e: exprs.Expr, t: float, x: float, T: float) -> float:
    """Independent direct-recursive evaluator used as the oracle for eval."""
    import math

    if isinstance(e, exprs.Num):
        return e.value
    if isinstance(e, exprs.Var):
        return {"t": t, "x": x, "T": T}[e.name]
    if isinstance(e, exprs.Neg):
        return -reference_eval(e.operand, t, x, T)
    if isinstance(e, exprs.BinOp):
        a = reference_eval(e.left, t, x, T)
        b = reference_eval(e.right, t, x, T)
        if e.op == "+":
            return a + b
        if e.op == "-":
            return a - b
        if e.op == "*":
            return a * b
        if e.op == "/":
            if b == 0.0:
                raise ZeroDivisionError
            return a / b
        out = a**b
        if isinstance(out, complex):
            raise ValueError("complex power")
        return out
    args = [reference_eval(a, t, x, T) for a in e.args]
    if e.func == "exp":
        return math.exp(args[0])
    if e.func == "log":
        return math.log(args[0])
    if e.func == "sqrt":
        return math.sqrt(args[0])
    if e.func == "abs":
        return abs(args[0])
    if e.func == "tanh":
        return math.tanh(args[0])
    if e.func == "max":
        return max(args)
    if e.func == "min":
        return min(args)
    out = args[0] ** args[1]
    if isinstance(out, complex):
        raise ValueError("complex power")
    return out


@pytest.fixture
def martingale_problem():
    spec = sl.ProblemSpec(
        drift=sl.constant_field(0.0),
        diffusion=sl.constant_field(1.0),
        terminal_reward=sl.from_expression("x", 1.0),
        horizon=1.0,
    )
    grid = sl.build_grid(spec, 5.0, 100, 100, x_ref=0.0)
    return sl.validate_problem(spec, grid), grid


@pytest.fixture
def bridge_problem_upper():
    return sl.ProblemSpec(
        drift=sl.from_expression("(0.0 - x)/(T - t)", 1.0),
        diffusion=sl.constant_field(1.0),
        terminal_reward=sl.from_expression("x", 1.0),
        horizon=1.0,
        orientation=Orientation.UPPER,
        pole_at_horizon=True,
    )


def solve_small(spec, pad=5.0, n=100, x_ref=0.0, theta=0.5):
    grid = sl.build_grid(spec, pad, n, n, x_ref=x_ref)
    prob = sl.validate_problem(spec, grid)
    return sl.solve_backward(prob, grid, theta=theta)
