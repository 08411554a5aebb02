"""Expression language: parsing, evaluation, differentiation, printing, error classes."""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import stoplab as sl
from stoplab import exprs
from conftest import random_expr, reference_eval


def test_precedence_eval():
    e = exprs.parse("x + 2*t")
    assert exprs.eval_expr(e, t=1.0, x=3.0, T=1.0) == 5.0


def test_bridge_drift_form():
    e = exprs.parse("-x/(T - t)")
    assert exprs.eval_expr(e, t=0.5, x=1.0, T=1.0) == -2.0


def test_power_right_associative_and_tighter_than_unary():
    assert exprs.eval_expr(exprs.parse("2^3^2"), 0, 0, 1) == 512.0
    assert exprs.eval_expr(exprs.parse("-2^2"), 0, 0, 1) == -4.0
    assert exprs.eval_expr(exprs.parse("2^-1"), 0, 0, 1) == 0.5


def test_syntax_error_offset():
    with pytest.raises(exprs.ExprSyntaxError) as err:
        exprs.parse("x +")
    assert err.value.pos == 3


def test_unknown_identifier():
    with pytest.raises(exprs.UnknownIdentifierError) as err:
        exprs.parse("y + 1")
    assert err.value.name == "y"
    assert err.value.pos == 0
    with pytest.raises(exprs.UnknownIdentifierError):
        exprs.parse("sin(x)")


def test_domain_errors_carry_point():
    e = exprs.parse("1/(T - t)")
    with pytest.raises(exprs.ExprDomainError) as err:
        exprs.eval_expr(e, t=1.0, x=0.5, T=1.0)
    assert err.value.t == 1.0 and err.value.x == 0.5
    with pytest.raises(exprs.ExprDomainError):
        exprs.eval_expr(exprs.parse("log(x)"), t=0.0, x=-1.0, T=1.0)
    with pytest.raises(exprs.ExprDomainError):
        exprs.eval_expr(exprs.parse("sqrt(x)"), t=0.0, x=-1.0, T=1.0)


def test_basic_functions():
    assert exprs.eval_expr(exprs.parse("exp(x)"), 0, 0.0, 1) == 1.0
    assert exprs.eval_expr(exprs.parse("max(x,0)"), 0, -2.0, 1) == 0.0
    assert exprs.eval_expr(exprs.parse("min(x,0)"), 0, -2.0, 1) == -2.0
    assert exprs.eval_expr(exprs.parse("pow(x,2)"), 0, 3.0, 1) == 9.0


def test_free_variables():
    assert exprs.free_variables(exprs.parse("x*x")) == {"x"}
    assert exprs.free_variables(exprs.parse("-x/(T-t)")) == {"x", "t", "T"}
    assert exprs.free_variables(exprs.parse("3.14")) == set()


def test_roundtrip_seeded_sample():
    rng = random.Random(12345)
    for _ in range(2000):
        e = random_expr(rng, depth=8)
        assert exprs.parse(exprs.to_string(e)) == e


@st.composite
def expr_trees(draw):
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    depth = draw(st.integers(min_value=0, max_value=8))
    return random_expr(random.Random(seed), depth)


@given(expr_trees())
@settings(max_examples=300, deadline=None)
def test_roundtrip_property(e):
    assert exprs.parse(exprs.to_string(e)) == e


def test_eval_matches_reference_to_zero_ulp():
    rng = random.Random(99)
    checked = 0
    for _ in range(10_000):
        e = random_expr(rng, depth=6)
        t = rng.uniform(0.0, 1.0)
        x = rng.uniform(-3.0, 3.0)
        try:
            ref = reference_eval(e, t, x, 1.0)
        except (ArithmeticError, ValueError):
            continue
        if not np.isfinite(ref):
            continue
        got = exprs.eval_expr(e, t, x, 1.0)
        assert got == ref  # bit-identical
        checked += 1
    assert checked > 3000


def test_compiled_matches_eval_on_scalars():
    rng = random.Random(7)
    for _ in range(500):
        e = random_expr(rng, depth=5)
        t = rng.uniform(0.0, 1.0)
        x = rng.uniform(-2.0, 2.0)
        try:
            ref = exprs.eval_expr(e, t, x, 1.0)
        except exprs.ExprDomainError:
            continue
        if not np.isfinite(ref):
            continue
        got = exprs.compile_numpy(e)(t, x, 1.0)
        assert np.isclose(float(got), ref, rtol=1e-12, atol=1e-300)


def test_compiled_broadcasts_over_arrays():
    e = exprs.parse("max(x, 0) + t*exp(-x)")
    f = exprs.compile_numpy(e)
    xs = np.linspace(-1, 1, 11)
    vals = f(0.5, xs, 1.0)
    expect = np.maximum(xs, 0) + 0.5 * np.exp(-xs)
    np.testing.assert_allclose(vals, expect, rtol=1e-15)


def test_number_tokenizer_scientific():
    assert exprs.eval_expr(exprs.parse("1.5e-3 + 2E2"), 0, 0, 1) == pytest.approx(200.0015)


def test_call_arity_checked():
    with pytest.raises(exprs.ExprSyntaxError):
        exprs.parse("max(x)")
    with pytest.raises(exprs.ExprSyntaxError):
        exprs.parse("exp(x, 1)")


def test_compiled_constants_and_scalars_follow_ieee():
    # no complex results and no ZeroDivisionError, also on Python-float inputs
    with np.errstate(all="ignore"):
        assert np.isnan(exprs.compile_numpy(exprs.parse("x + (-1)^0.5"))(0.0, 1.0, 1.0))
        assert np.isnan(exprs.compile_numpy(exprs.parse("x^t"))(0.5, -1.0, 1.0))
        assert exprs.compile_numpy(exprs.parse("x + 1/(2-2)"))(0.0, 1.0, 1.0) == np.inf
        assert exprs.compile_numpy(exprs.parse("1/x"))(0.0, 0.0, 1.0) == np.inf


# ---------------------------------------------------------------------------
# differentiation


def _subtrees(e):
    yield e
    if isinstance(e, exprs.Neg):
        yield from _subtrees(e.operand)
    elif isinstance(e, exprs.BinOp):
        yield from _subtrees(e.left)
        yield from _subtrees(e.right)
    elif isinstance(e, exprs.Call):
        for a in e.args:
            yield from _subtrees(a)


def _kink_arguments(e):
    """Where abs, sign, max and min switch branch: the zeros of these."""
    for n in _subtrees(e):
        if isinstance(n, exprs.Call) and n.func in ("abs", "sign"):
            yield n.args[0]
        elif isinstance(n, exprs.Call) and n.func in ("max", "min"):
            yield exprs.BinOp("-", *n.args)


def _check_diff_by_fd(e, var, t, x):
    """Compare diff(e, var) with central differences at (t, x); False if skipped.

    The steps are h and h/2 with h = 1e-5 (1 + |v|).  The tolerance is the
    FD noise level: 1e-6 relative, ten times the change between the two
    steps (truncation error) and round-off of eps times the largest
    sub-expression magnitude over h.  A point is skipped where e or the
    derivative is not finite, or within one step of a kink or a pole: a
    kink argument changes sign or vanishes on v - h, v, v + h, or some
    sub-expression is not finite there or not resolved by the step (its
    second difference exceeds 1% of its size).
    """
    def at(node, v):
        return float(exprs.compile_numpy(node)(*((v, x) if var == "t" else (t, v)), 1.0))

    v = t if var == "t" else x
    h = 1e-5 * (1.0 + abs(v))
    f = [at(e, v + k * h / 2) for k in (-2, -1, 1, 2)]
    d = at(exprs.diff(e, var), v)
    if not np.isfinite(f + [d]).all():
        return False
    for k in _kink_arguments(e):
        if {np.sign(at(k, v + s * h)) for s in (-1, 0, 1)} not in ({-1.0}, {1.0}):
            return False
    mag = 0.0
    for n in _subtrees(e):
        lo, mid, hi = (at(n, v + s * h) for s in (-1, 0, 1))
        size = max(abs(lo), abs(mid), abs(hi))
        if not np.isfinite(size) or abs(lo - 2.0 * mid + hi) > 1e-2 * size:
            return False
        mag = max(mag, size)
    fd_h, fd_h2 = (f[3] - f[0]) / (2 * h), (f[2] - f[1]) / h
    noise = np.finfo(float).eps * mag / h
    tol = 1e-6 * (1.0 + abs(fd_h2)) + 10.0 * abs(fd_h - fd_h2) + 100.0 * noise
    assert abs(d - fd_h2) <= tol, (exprs.to_string(e), var, t, x, d, fd_h2, tol)
    return True


def _diff_cases(e):
    """d/dt and d/dx of e, and d/dx of its x-derivative (the partial_xx AST)."""
    return ((e, "t"), (e, "x"), (exprs.diff(e, "x"), "x"))


@given(expr_trees(), st.floats(0.0, 1.0), st.floats(-2.0, 2.0))
@settings(max_examples=200, deadline=None)
def test_diff_matches_central_differences(e, t, x):
    with np.errstate(all="ignore"):
        for node, var in _diff_cases(e):
            _check_diff_by_fd(node, var, t, x)


def test_diff_matches_central_differences_seeded_sample():
    rng = random.Random(2024)
    checked = total = 0
    with np.errstate(all="ignore"):
        for _ in range(300):
            e = random_expr(rng, depth=rng.randint(0, 6))
            t, x = rng.uniform(0.0, 1.0), rng.uniform(-2.0, 2.0)
            for node, var in _diff_cases(e):
                checked += _check_diff_by_fd(node, var, t, x)
                total += 1
    assert checked > 0.7 * total


def _partials(text, t, x):
    fld = sl.from_expression(text, 1.0)
    return fld.partial_t(t, x), fld.partial_x(t, x), fld.partial_xx(t, x)


def test_diff_subgradient_at_kinks():
    assert _partials("abs(x)", 0.3, 0.0)[1:] == (0.0, 0.0)
    assert _partials("max(x, 0)", 0.3, 0.0)[1:] == (0.5, 0.0)
    assert _partials("min(x, 1)", 0.3, 1.0)[1:] == (0.5, 0.0)
    # away from the kink the slope is the active branch's
    assert _partials("max(x, 0)", 0.3, -2.0)[1] == 0.0
    assert _partials("min(x, 1)", 0.3, -2.0)[1] == 1.0
    with pytest.raises(exprs.UnknownIdentifierError):
        exprs.parse("sign(x)")  # internal to diff, not part of the language
    slope = exprs.diff(exprs.parse("abs(x)"), "x")
    assert [exprs.eval_expr(slope, 0.3, x, 1.0) for x in (-2.0, 0.0, 2.0)] == [-1.0, 0.0, 1.0]


def test_diff_power_of_negative_base_is_finite():
    xs = np.array([-3.0, -1.0, -0.5])
    _, dx, dxx = _partials("x^2", 0.5, xs)
    np.testing.assert_array_equal(dx, 2.0 * xs)
    np.testing.assert_array_equal(dxx, 2.0 + 0.0 * xs)


def test_diff_closed_forms():
    t, x = 0.3, np.linspace(-2.0, 2.0, 9)
    dt, dx, dxx = _partials("exp(x)", t, x)
    assert dt == 0.0
    np.testing.assert_array_equal(dx, np.exp(x))
    np.testing.assert_array_equal(dxx, np.exp(x))
    dt, dx, dxx = _partials("x*(T - t)", t, x)
    np.testing.assert_array_equal(dt, -x)
    assert dx == 1.0 - t and dxx == 0.0
    dt, dx, dxx = _partials("t^x", t, x)
    np.testing.assert_array_equal(dt, x * t ** (x - 1.0))
    np.testing.assert_array_equal(dx, t ** x * np.log(t))
    np.testing.assert_array_equal(dxx, t ** x * np.log(t) * np.log(t))
