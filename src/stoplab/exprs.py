"""Small arithmetic expression language for coefficient fields.

Config files define drift, diffusion and reward fields as strings in the
variables ``t`` (time), ``x`` (state) and ``T`` (horizon).  Grammar, from
loosest to tightest binding::

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' unary)?          # right-associative exponent
    atom   := NUMBER | VAR | FUNC '(' expr (',' expr)* ')' | '(' expr ')'

``^`` binds tighter than unary minus, so ``-x^2`` reads as ``-(x^2)``;
exponents are parsed at the unary level, so ``x^-2`` needs no parentheses.
Integer-looking exponents are not special-cased.

Evaluation is plain IEEE-754 double arithmetic.  Division by zero, logs and
roots of out-of-domain arguments raise :class:`ExprDomainError` carrying the
``(t, x)`` point instead of silently producing NaN.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

VARIABLES = ("t", "x", "T")

# function name -> arity
FUNCTIONS = {
    "exp": 1,
    "log": 1,
    "sqrt": 1,
    "abs": 1,
    "max": 2,
    "min": 2,
    "pow": 2,
    "tanh": 1,
}


class ExprError(Exception):
    """Base class for expression language errors."""


class ExprSyntaxError(ExprError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"syntax error at offset {pos}: {message}")
        self.pos = pos


class UnknownIdentifierError(ExprError):
    def __init__(self, name: str, pos: int):
        super().__init__(f"unknown identifier {name!r} at offset {pos}")
        self.name = name
        self.pos = pos


class ExprDomainError(ExprError):
    def __init__(self, message: str, t: float, x: float):
        super().__init__(f"{message} at (t={t!r}, x={x!r})")
        self.t = t
        self.x = x


@dataclass(frozen=True)
class Expr:
    """Base AST node.  Positions are kept for diagnostics but ignored by ==."""


@dataclass(frozen=True)
class Num(Expr):
    value: float
    pos: int = field(default=-1, compare=False)


@dataclass(frozen=True)
class Var(Expr):
    name: str
    pos: int = field(default=-1, compare=False)


@dataclass(frozen=True)
class Neg(Expr):
    operand: Expr
    pos: int = field(default=-1, compare=False)


@dataclass(frozen=True)
class BinOp(Expr):
    op: str
    left: Expr
    right: Expr
    pos: int = field(default=-1, compare=False)


@dataclass(frozen=True)
class Call(Expr):
    func: str
    args: tuple[Expr, ...]
    pos: int = field(default=-1, compare=False)


# ---------------------------------------------------------------------------
# tokenizer / parser


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c.isdigit() or (c == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i
            while j < n and (text[j].isdigit() or text[j] == "."):
                j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k].isdigit():
                    j = k
                    while j < n and text[j].isdigit():
                        j += 1
            tokens.append(("num", text[i:j], i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("ident", text[i:j], i))
            i = j
            continue
        if c in "+-*/^(),":
            kind = {"(": "lparen", ")": "rparen", ",": "comma"}.get(c, "op")
            tokens.append((kind, c, i))
            i += 1
            continue
        raise ExprSyntaxError(f"unexpected character {c!r}", i)
    tokens.append(("end", "", n))
    return tokens


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str, what: str):
        tok = self.peek()
        if tok[0] != kind:
            raise ExprSyntaxError(f"expected {what}", tok[2])
        return self.advance()

    def parse_expr(self) -> Expr:
        node = self.parse_term()
        while self.peek()[:2] in (("op", "+"), ("op", "-")):
            _, op, pos = self.advance()
            node = BinOp(op, node, self.parse_term(), pos=pos)
        return node

    def parse_term(self) -> Expr:
        node = self.parse_unary()
        while self.peek()[:2] in (("op", "*"), ("op", "/")):
            _, op, pos = self.advance()
            node = BinOp(op, node, self.parse_unary(), pos=pos)
        return node

    def parse_unary(self) -> Expr:
        tok = self.peek()
        if tok[:2] == ("op", "-"):
            self.advance()
            return Neg(self.parse_unary(), pos=tok[2])
        return self.parse_power()

    def parse_power(self) -> Expr:
        node = self.parse_atom()
        tok = self.peek()
        if tok[:2] == ("op", "^"):
            self.advance()
            # exponent re-enters at the unary level: right-associative,
            # and "x^-2" parses without parentheses
            node = BinOp("^", node, self.parse_unary(), pos=tok[2])
        return node

    def parse_atom(self) -> Expr:
        kind, text, pos = self.peek()
        if kind == "num":
            self.advance()
            return Num(float(text), pos=pos)
        if kind == "ident":
            self.advance()
            if self.peek()[0] == "lparen":
                if text not in FUNCTIONS:
                    raise UnknownIdentifierError(text, pos)
                self.advance()
                args = [self.parse_expr()]
                while self.peek()[0] == "comma":
                    self.advance()
                    args.append(self.parse_expr())
                self.expect("rparen", "')'")
                if len(args) != FUNCTIONS[text]:
                    raise ExprSyntaxError(
                        f"{text} takes {FUNCTIONS[text]} argument(s), got {len(args)}",
                        pos,
                    )
                return Call(text, tuple(args), pos=pos)
            if text not in VARIABLES:
                raise UnknownIdentifierError(text, pos)
            return Var(text, pos=pos)
        if kind == "lparen":
            self.advance()
            node = self.parse_expr()
            self.expect("rparen", "')'")
            return node
        raise ExprSyntaxError("expected a number, variable or '('", pos)


def parse(text: str) -> Expr:
    """Parse an expression string into an AST."""
    parser = _Parser(_tokenize(text))
    node = parser.parse_expr()
    tok = parser.peek()
    if tok[0] != "end":
        raise ExprSyntaxError(f"unexpected token {tok[1]!r}", tok[2])
    return node


# ---------------------------------------------------------------------------
# evaluation


def _checked_pow(base: float, expo: float, t: float, x: float) -> float:
    if base == 0.0 and expo < 0.0:
        raise ExprDomainError("zero raised to a negative power", t, x)
    if base < 0.0 and expo != math.floor(expo):
        raise ExprDomainError("negative base with non-integer exponent", t, x)
    try:
        return base**expo
    except OverflowError:
        raise ExprDomainError("overflow in power", t, x) from None


def eval_expr(e: Expr, t: float, x: float, T: float) -> float:
    """Evaluate at a scalar point with domain checking."""
    if isinstance(e, Num):
        return e.value
    if isinstance(e, Var):
        return {"t": t, "x": x, "T": T}[e.name]
    if isinstance(e, Neg):
        return -eval_expr(e.operand, t, x, T)
    if isinstance(e, BinOp):
        a = eval_expr(e.left, t, x, T)
        b = eval_expr(e.right, t, x, T)
        if e.op == "+":
            return a + b
        if e.op == "-":
            return a - b
        if e.op == "*":
            return a * b
        if e.op == "/":
            if b == 0.0:
                raise ExprDomainError("division by zero", t, x)
            return a / b
        return _checked_pow(a, b, t, x)
    if isinstance(e, Call):
        args = [eval_expr(a, t, x, T) for a in e.args]
        if e.func == "exp":
            try:
                return math.exp(args[0])
            except OverflowError:
                raise ExprDomainError("overflow in exp", t, x) from None
        if e.func == "log":
            if args[0] <= 0.0:
                raise ExprDomainError("log of a non-positive value", t, x)
            return math.log(args[0])
        if e.func == "sqrt":
            if args[0] < 0.0:
                raise ExprDomainError("sqrt of a negative value", t, x)
            return math.sqrt(args[0])
        if e.func == "abs":
            return abs(args[0])
        if e.func == "tanh":
            return math.tanh(args[0])
        if e.func == "sign":  # internal, from diff
            return float(np.sign(args[0]))
        if e.func == "max":
            return max(args)
        if e.func == "min":
            return min(args)
        return _checked_pow(args[0], args[1], t, x)
    raise TypeError(f"not an expression node: {e!r}")


# the numpy form of every operator and function; "sign" is internal: ``diff``
# builds it and ``parse`` does not accept it
_NUMPY = {"+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide,
          "^": np.power, "pow": np.power, "max": np.maximum, "min": np.minimum,
          "exp": np.exp, "log": np.log, "sqrt": np.sqrt, "abs": np.abs, "tanh": np.tanh,
          "sign": np.sign}


def compile_numpy(e: Expr):
    """Compile to a closure ``f(t, x, T)`` over numpy ufuncs.

    The compiled form is allocation-light and broadcasts over array inputs;
    it does no domain checking (NaN/inf propagate and are caught by callers
    that care, e.g. the solver's coefficient scan).  Numbers compile to
    ``np.float64`` and operators to ufuncs, so constants and Python-float
    inputs follow numpy's IEEE rules too: ``(-1)^0.5`` is NaN and ``1/0`` is
    inf, never a complex number or an exception.
    """
    if isinstance(e, Num):
        v = np.float64(e.value)
        return lambda t, x, T: v
    if isinstance(e, Var):
        i = VARIABLES.index(e.name)
        return lambda t, x, T: (t, x, T)[i]
    if isinstance(e, Neg):
        f = compile_numpy(e.operand)
        return lambda t, x, T: -f(t, x, T)
    if isinstance(e, BinOp):
        fn, args = _NUMPY[e.op], (e.left, e.right)
    elif isinstance(e, Call):
        fn, args = _NUMPY[e.func], e.args
    else:
        raise TypeError(f"not an expression node: {e!r}")
    if len(args) == 1:
        f0 = compile_numpy(args[0])
        return lambda t, x, T: fn(f0(t, x, T))
    f0, f1 = map(compile_numpy, args)
    return lambda t, x, T: fn(f0(t, x, T), f1(t, x, T))


def free_variables(e: Expr) -> set[str]:
    """Exact set of variables appearing in the expression."""
    if isinstance(e, Var):
        return {e.name}
    if isinstance(e, Neg):
        return free_variables(e.operand)
    if isinstance(e, BinOp):
        return free_variables(e.left) | free_variables(e.right)
    if isinstance(e, Call):
        out: set[str] = set()
        for a in e.args:
            out |= free_variables(a)
        return out
    return set()


def substitute(e: Expr, name: str, by: Expr) -> Expr:
    """``e`` with every occurrence of the variable ``name`` replaced by ``by``."""
    if isinstance(e, Var):
        return by if e.name == name else e
    if isinstance(e, Neg):
        return replace(e, operand=substitute(e.operand, name, by))
    if isinstance(e, BinOp):
        return replace(e, left=substitute(e.left, name, by), right=substitute(e.right, name, by))
    if isinstance(e, Call):
        return replace(e, args=tuple(substitute(a, name, by) for a in e.args))
    return e


# ---------------------------------------------------------------------------
# differentiation; _sum builds + and - nodes, _mul * and /, folding zeros and ones

_ZERO, _ONE = Num(0.0), Num(1.0)


def _sum(a: Expr, b: Expr, op: str = "+") -> Expr:
    if a == _ZERO and b != _ZERO:
        return b if op == "+" else Neg(b)
    return a if b == _ZERO else BinOp(op, a, b)


def _mul(a: Expr, b: Expr, op: str = "*") -> Expr:
    if a == _ZERO or (op == "*" and b == _ZERO):
        return _ZERO
    return a if b == _ONE else b if op == "*" and a == _ONE else BinOp(op, a, b)


def diff(e: Expr, var: str) -> Expr:
    """The partial derivative of ``e`` in ``var`` by the chain rule over the AST.

    Zero terms and unit factors are folded away, so a sub-expression free of
    ``var`` contributes nothing: ``x*sqrt(t)`` has x-derivative ``sqrt(t)``,
    finite at t = 0.  ``a^b`` (and ``pow``) gives ``b*a^(b-1)*a'``, plus
    ``a^b*log(a)*b'`` only when ``var`` is free in ``b``, so ``x^2`` stays
    finite at x < 0.  ``tanh(a)' = (1 - tanh(a)^2)*a'``, which stays finite
    where tanh saturates.  ``abs``, ``max`` and ``min`` take a subgradient
    through the internal ``sign`` node, with sign(0) = 0 and derivative 0:
    ``abs(a)' = sign(a)*a'`` and, with s = sign(a - b),
    ``max(a, b)' = ((1 + s)*a' + (1 - s)*b')/2`` (``min`` swaps the weights),
    so at a kink ``abs`` has slope 0 and ``max``/``min`` the mean of the two.
    """
    if isinstance(e, (Num, Var)):
        return _ONE if e == Var(var) else _ZERO
    if isinstance(e, Neg):
        return _sum(_ZERO, diff(e.operand, var), "-")
    if isinstance(e, Call) and e.func in ("max", "min"):
        (a, b), s = e.args, Call("sign", (BinOp("-", *e.args),))
        wa, wb = BinOp("+", _ONE, s), BinOp("-", _ONE, s)
        if e.func == "min":
            wa, wb = wb, wa
        return _mul(_sum(_mul(wa, diff(a, var)), _mul(wb, diff(b, var))), Num(2.0), "/")
    if isinstance(e, Call) and e.func != "pow":
        a, da = e.args[0], diff(e.args[0], var)
        if e.func in ("log", "sqrt"):
            return _mul(da, a if e.func == "log" else BinOp("*", Num(2.0), e), "/")
        return _mul({"exp": e, "abs": Call("sign", (a,)), "sign": _ZERO,
                     "tanh": BinOp("-", _ONE, BinOp("^", e, Num(2.0)))}[e.func], da)
    (a, b), op = (e.args, "^") if isinstance(e, Call) else ((e.left, e.right), e.op)
    da, db = diff(a, var), diff(b, var)
    if op in "+-":
        return _sum(da, db, op)
    if op == "*":
        return _sum(_mul(da, b), _mul(a, db))
    if op == "/":
        return _mul(_sum(da, _mul(e, db), "-"), b, "/")
    base_term = _mul(_mul(b, BinOp("^", a, BinOp("-", b, _ONE))), da)
    return _sum(base_term, _mul(_mul(e, Call("log", (a,))), db))


# ---------------------------------------------------------------------------
# printing

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 4}
_PREC_UNARY = 3
_PREC_ATOM = 5


def _prec(e: Expr) -> int:
    if isinstance(e, BinOp):
        return _PREC[e.op]
    if isinstance(e, Neg):
        return _PREC_UNARY
    return _PREC_ATOM


def to_string(e: Expr) -> str:
    """Print with minimal parentheses.

    ``parse(to_string(e)) == e`` structurally for a parsed ``e`` with finite
    numbers.  A ``diff`` result may hold the internal ``sign`` node, which
    prints but does not parse back, so printed ASTs are for reading only.
    """
    if isinstance(e, Num):
        return repr(e.value)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Neg):
        inner = to_string(e.operand)
        if _prec(e.operand) < _PREC_UNARY:
            inner = f"({inner})"
        return f"-{inner}"
    if isinstance(e, BinOp):
        p = _PREC[e.op]
        ls = to_string(e.left)
        rs = to_string(e.right)
        if e.op == "^":
            # left-associated powers need parens; exponent slot is unary-level
            if _prec(e.left) <= p:
                ls = f"({ls})"
            if _prec(e.right) < _PREC_UNARY:
                rs = f"({rs})"
        else:
            if _prec(e.left) < p:
                ls = f"({ls})"
            if _prec(e.right) <= p:
                rs = f"({rs})"
        return f"{ls} {e.op} {rs}" if e.op in "+-" else f"{ls}{e.op}{rs}"
    if isinstance(e, Call):
        return f"{e.func}({', '.join(to_string(a) for a in e.args)})"
    raise TypeError(f"not an expression node: {e!r}")
