"""A small smooth-expression language with exact second-order jets.

Grammar (documented in docs/grammar.md)::

    expr  := term (('+'|'-') term)*
    term  := unary (('*'|'/') unary)*
    unary := '-' unary | power
    power := atom ('^' unary)?
    atom  := NUMBER | IDENT | IDENT '(' expr (',' expr)* ')' | '(' expr ')'

'^' is right-associative and binds tighter than unary minus, so "-u1^2"
parses as -(u1^2).  Builtins: sqrt, exp, ln, sin, cos, tan, arctan.

Evaluation is generic over plain floats and second-order jets (value,
gradient, Hessian), batched over many points with numpy.  Powers with an
integer constant exponent use repeated multiplication and therefore work
for negative bases; any other power is exp/ln-based and requires a
positive base.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence, Union

import numpy as np

from .errors import (
    DomainError,
    ExprSyntaxError,
    IllegalCharacterError,
    UnknownIdentifierError,
)

BUILTINS = ("sqrt", "exp", "ln", "sin", "cos", "tan", "arctan")


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    index: int
    name: str


@dataclass(frozen=True)
class Param:
    name: str


@dataclass(frozen=True)
class Neg:
    a: "Expr"


@dataclass(frozen=True)
class Add:
    a: "Expr"
    b: "Expr"


@dataclass(frozen=True)
class Sub:
    a: "Expr"
    b: "Expr"


@dataclass(frozen=True)
class Mul:
    a: "Expr"
    b: "Expr"


@dataclass(frozen=True)
class Div:
    a: "Expr"
    b: "Expr"


@dataclass(frozen=True)
class Pow:
    base: "Expr"
    expo: "Expr"


@dataclass(frozen=True)
class Call:
    fn: str
    args: tuple


Expr = Union[Num, Var, Param, Neg, Add, Sub, Mul, Div, Pow, Call]


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

_NUMBER = re.compile(r"(\d+\.\d*|\.\d+|\d+)([eE][+-]?\d+)?")
_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_OPS = set("+-*/^(),")


@dataclass(frozen=True)
class Token:
    kind: str  # 'num' | 'ident' | 'op' | 'end'
    text: str
    pos: int


def tokenize(source: str) -> list[Token]:
    """Split source into number/identifier/operator tokens; whitespace skipped."""
    tokens: list[Token] = []
    i = 0
    n = len(source)
    while i < n:
        ch = source[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _OPS:
            tokens.append(Token("op", ch, i))
            i += 1
            continue
        m = _NUMBER.match(source, i)
        if m and (ch.isdigit() or ch == "."):
            tokens.append(Token("num", m.group(0), i))
            i = m.end()
            continue
        m = _IDENT.match(source, i)
        if m:
            tokens.append(Token("ident", m.group(0), i))
            i = m.end()
            continue
        raise IllegalCharacterError(ch, i)
    tokens.append(Token("end", "", n))
    return tokens


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


class _Parser:
    def __init__(self, tokens: list[Token], vars: Sequence[str], params: Iterable[str]):
        self.tokens = tokens
        self.k = 0
        self.var_index = {name: i for i, name in enumerate(vars)}
        self.params = set(params)

    def peek(self) -> Token:
        return self.tokens[self.k]

    def next(self) -> Token:
        t = self.tokens[self.k]
        self.k += 1
        return t

    def expect(self, text: str) -> Token:
        t = self.next()
        if t.kind != "op" or t.text != text:
            raise ExprSyntaxError(f"expected {text!r}, found {t.text!r}", t.pos)
        return t

    def parse(self) -> Expr:
        e = self.expr()
        t = self.peek()
        if t.kind != "end":
            raise ExprSyntaxError(f"unexpected trailing input {t.text!r}", t.pos)
        return e

    def expr(self) -> Expr:
        e = self.term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.next().text
            rhs = self.term()
            e = Add(e, rhs) if op == "+" else Sub(e, rhs)
        return e

    def term(self) -> Expr:
        e = self.unary()
        while self.peek().kind == "op" and self.peek().text in "*/":
            op = self.next().text
            rhs = self.unary()
            e = Mul(e, rhs) if op == "*" else Div(e, rhs)
        return e

    def unary(self) -> Expr:
        t = self.peek()
        if t.kind == "op" and t.text == "-":
            self.next()
            return Neg(self.unary())
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        t = self.peek()
        if t.kind == "op" and t.text == "^":
            self.next()
            return Pow(base, self.unary())
        return base

    def atom(self) -> Expr:
        t = self.next()
        if t.kind == "num":
            return Num(float(t.text))
        if t.kind == "ident":
            if self.peek().kind == "op" and self.peek().text == "(":
                if t.text not in BUILTINS:
                    raise UnknownIdentifierError(t.text, t.pos)
                self.next()
                args = [self.expr()]
                while self.peek().kind == "op" and self.peek().text == ",":
                    self.next()
                    args.append(self.expr())
                self.expect(")")
                if len(args) != 1:
                    raise ExprSyntaxError(
                        f"{t.text} takes exactly one argument", t.pos
                    )
                return Call(t.text, tuple(args))
            if t.text in self.var_index:
                return Var(self.var_index[t.text], t.text)
            if t.text in self.params:
                return Param(t.text)
            raise UnknownIdentifierError(t.text, t.pos)
        if t.kind == "op" and t.text == "(":
            e = self.expr()
            self.expect(")")
            return e
        raise ExprSyntaxError(f"unexpected token {t.text!r}", t.pos)


def parse_expression(
    source: str, vars: Sequence[str], params: Iterable[str] = ()
) -> Expr:
    """Parse source into an Expr with identifiers resolved to Var/Param/builtin."""
    if len(set(vars)) != len(list(vars)):
        raise ValueError("variable names must be distinct")
    return _Parser(tokenize(source), vars, params).parse()


# ---------------------------------------------------------------------------
# Pretty printer (round-trips through parse_expression)
# ---------------------------------------------------------------------------

_LEVEL_ADD, _LEVEL_MUL, _LEVEL_UNARY, _LEVEL_POW, _LEVEL_ATOM = 1, 2, 3, 4, 5


def _level(e: Expr) -> int:
    if isinstance(e, (Num, Var, Param, Call)):
        return _LEVEL_ATOM
    if isinstance(e, Pow):
        return _LEVEL_POW
    if isinstance(e, Neg):
        return _LEVEL_UNARY
    if isinstance(e, (Mul, Div)):
        return _LEVEL_MUL
    return _LEVEL_ADD


def to_source(e: Expr) -> str:
    """Render an Expr as parseable source text."""

    def wrap(sub: Expr, minimum: int) -> str:
        s = to_source(sub)
        return f"({s})" if _level(sub) < minimum else s

    if isinstance(e, Num):
        return repr(e.value)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Param):
        return e.name
    if isinstance(e, Neg):
        return "-" + wrap(e.a, _LEVEL_UNARY)
    if isinstance(e, Add):
        return f"{wrap(e.a, _LEVEL_ADD)} + {wrap(e.b, _LEVEL_MUL)}"
    if isinstance(e, Sub):
        return f"{wrap(e.a, _LEVEL_ADD)} - {wrap(e.b, _LEVEL_MUL)}"
    if isinstance(e, Mul):
        return f"{wrap(e.a, _LEVEL_MUL)}*{wrap(e.b, _LEVEL_UNARY)}"
    if isinstance(e, Div):
        return f"{wrap(e.a, _LEVEL_MUL)}/{wrap(e.b, _LEVEL_UNARY)}"
    if isinstance(e, Pow):
        return f"{wrap(e.base, _LEVEL_ATOM)}^{wrap(e.expo, _LEVEL_UNARY)}"
    if isinstance(e, Call):
        return f"{e.fn}({to_source(e.args[0])})"
    raise TypeError(f"not an Expr: {e!r}")


# ---------------------------------------------------------------------------
# Second-order jets
# ---------------------------------------------------------------------------


class Jet2:
    """Second-order Taylor data (value, gradient, Hessian), batched.

    value has an arbitrary leading batch shape S, grad has shape S+(n,),
    hess has shape S+(n,n) and is symmetric bit-for-bit by construction.
    """

    __slots__ = ("value", "grad", "hess")

    def __init__(self, value: np.ndarray, grad: np.ndarray, hess: np.ndarray):
        self.value = value
        self.grad = grad
        self.hess = hess

    @property
    def n(self) -> int:
        return self.grad.shape[-1]

    @staticmethod
    def constant(value, batch_shape: tuple, n: int) -> "Jet2":
        v = np.broadcast_to(np.asarray(value, dtype=float), batch_shape).copy()
        g = np.zeros(batch_shape + (n,))
        h = np.zeros(batch_shape + (n, n))
        return Jet2(v, g, h)

    @staticmethod
    def variable(values: np.ndarray, index: int, n: int) -> "Jet2":
        values = np.asarray(values, dtype=float)
        g = np.zeros(values.shape + (n,))
        g[..., index] = 1.0
        h = np.zeros(values.shape + (n, n))
        return Jet2(values.copy(), g, h)

    def _coerce(self, other) -> "Jet2":
        if isinstance(other, Jet2):
            return other
        return Jet2.constant(other, self.value.shape, self.n)

    def __add__(self, other):
        o = self._coerce(other)
        return Jet2(self.value + o.value, self.grad + o.grad, self.hess + o.hess)

    __radd__ = __add__

    def __neg__(self):
        return Jet2(-self.value, -self.grad, -self.hess)

    def __sub__(self, other):
        o = self._coerce(other)
        return Jet2(self.value - o.value, self.grad - o.grad, self.hess - o.hess)

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        o = self._coerce(other)
        v = self.value * o.value
        g = self.grad * o.value[..., None] + self.value[..., None] * o.grad
        cross = (
            self.grad[..., :, None] * o.grad[..., None, :]
            + o.grad[..., :, None] * self.grad[..., None, :]
        )
        h = (
            self.hess * o.value[..., None, None]
            + self.value[..., None, None] * o.hess
            + cross
        )
        return Jet2(v, g, h)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        v = self.value / o.value
        g = (self.grad - v[..., None] * o.grad) / o.value[..., None]
        cross = (
            g[..., :, None] * o.grad[..., None, :]
            + o.grad[..., :, None] * g[..., None, :]
        )
        h = (self.hess - v[..., None, None] * o.hess - cross) / o.value[..., None, None]
        return Jet2(v, g, h)

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def chain(self, f0: np.ndarray, f1: np.ndarray, f2: np.ndarray) -> "Jet2":
        """Compose with a scalar function given f(v), f'(v), f''(v)."""
        g = f1[..., None] * self.grad
        outer = self.grad[..., :, None] * self.grad[..., None, :]
        h = f1[..., None, None] * self.hess + f2[..., None, None] * outer
        return Jet2(f0, g, h)


def _int_pow(x, k: int):
    """Exponentiation by squaring; shared by scalar and jet evaluation so
    values agree bit-for-bit."""
    if k == 0:
        if isinstance(x, Jet2):
            return Jet2.constant(1.0, x.value.shape, x.n)
        return np.ones_like(x)
    if k < 0:
        return 1.0 / _int_pow(x, -k)
    result = None
    base = x
    while k:
        if k & 1:
            result = base if result is None else result * base
        k >>= 1
        if k:
            base = base * base
    return result


_FN_TABLE = {
    "sqrt": (
        np.sqrt,
        lambda v, f0: 0.5 / f0,
        lambda v, f0: -0.25 / (f0 * v),
    ),
    "exp": (np.exp, lambda v, f0: f0, lambda v, f0: f0),
    "ln": (np.log, lambda v, f0: 1.0 / v, lambda v, f0: -1.0 / (v * v)),
    "sin": (np.sin, lambda v, f0: np.cos(v), lambda v, f0: -f0),
    "cos": (np.cos, lambda v, f0: -np.sin(v), lambda v, f0: -f0),
    "tan": (
        np.tan,
        lambda v, f0: 1.0 + f0 * f0,
        lambda v, f0: 2.0 * f0 * (1.0 + f0 * f0),
    ),
    "arctan": (
        np.arctan,
        lambda v, f0: 1.0 / (1.0 + v * v),
        lambda v, f0: -2.0 * v / (1.0 + v * v) ** 2,
    ),
}

_POSITIVE_DOMAIN = {"sqrt", "ln"}

_MATH_TABLE = {
    "sqrt": math.sqrt,
    "exp": math.exp,
    "ln": math.log,
    "sin": math.sin,
    "cos": math.cos,
    "tan": math.tan,
    "arctan": math.atan,
}


def _const_value(e: Expr):
    """Value of a Var/Param-free subtree, or None.  Used to recognize
    integer-constant exponents that are not bare literals.  A subtree that
    cannot be folded in floats (0^-1, 10.0^400) gives None, so the evaluator
    reaches it and reports the domain violation itself."""
    if isinstance(e, Num):
        return e.value
    if isinstance(e, (Var, Param)):
        return None
    if isinstance(e, Neg):
        v = _const_value(e.a)
        return None if v is None else -v
    if isinstance(e, (Add, Sub, Mul, Div)):
        a, b = _const_value(e.a), _const_value(e.b)
        if a is None or b is None:
            return None
        if isinstance(e, Add):
            return a + b
        if isinstance(e, Sub):
            return a - b
        if isinstance(e, Mul):
            return a * b
        return a / b if b != 0 else None
    if isinstance(e, Pow):
        a, b = _const_value(e.base), _const_value(e.expo)
        if a is None or b is None:
            return None
        try:
            if float(b).is_integer():
                return a ** int(b)
            return a ** b if a > 0 else None
        except ArithmeticError:
            return None
    if isinstance(e, Call):
        v = _const_value(e.args[0])
        if v is None:
            return None
        if e.fn in _POSITIVE_DOMAIN and v <= 0:
            return None
        try:
            return _MATH_TABLE[e.fn](v)
        except (ValueError, ArithmeticError):
            return None
    return None


def _check_positive(node, values: np.ndarray, points: np.ndarray, what: str):
    bad = ~(values > 0.0)
    if np.any(bad):
        idx = np.argwhere(bad)[0]
        pt = points[tuple(idx)] if points.ndim > 1 else points
        raise DomainError(to_source(node) if not isinstance(node, str) else node, pt, what)


def _check_nonzero(node, values: np.ndarray, points: np.ndarray):
    bad = values == 0.0
    if np.any(bad):
        idx = np.argwhere(bad)[0]
        pt = points[tuple(idx)] if points.ndim > 1 else points
        raise DomainError(to_source(node), pt, "division by zero")


def _eval(e: Expr, points: np.ndarray, params: Mapping[str, float], jets: bool):
    """Shared recursion for scalar and jet evaluation.  The scalar value of
    every node is computed by the same numpy operations in both modes.

    Floating-point warnings are silenced during the recursion; instead any
    non-finite value, gradient or Hessian entry of the result raises
    DomainError at the first offending point."""
    n = points.shape[-1]
    batch = points.shape[:-1]

    def rec(node: Expr):
        if isinstance(node, Num):
            if jets:
                return Jet2.constant(node.value, batch, n)
            return np.full(batch, node.value)
        if isinstance(node, Var):
            vals = points[..., node.index]
            if jets:
                return Jet2.variable(vals, node.index, n)
            return vals.astype(float, copy=True)
        if isinstance(node, Param):
            if node.name not in params:
                raise UnknownIdentifierError(node.name)
            if jets:
                return Jet2.constant(params[node.name], batch, n)
            return np.full(batch, float(params[node.name]))
        if isinstance(node, Neg):
            return -rec(node.a)
        if isinstance(node, Add):
            return rec(node.a) + rec(node.b)
        if isinstance(node, Sub):
            return rec(node.a) - rec(node.b)
        if isinstance(node, Mul):
            return rec(node.a) * rec(node.b)
        if isinstance(node, Div):
            a, b = rec(node.a), rec(node.b)
            bv = b.value if jets else b
            _check_nonzero(node, np.asarray(bv), points)
            return a / b
        if isinstance(node, Pow):
            return rec_pow(node)
        if isinstance(node, Call):
            arg = rec(node.args[0])
            v = arg.value if jets else arg
            if node.fn in _POSITIVE_DOMAIN:
                _check_positive(node, np.asarray(v), points, f"{node.fn} of non-positive value")
            f, df, d2f = _FN_TABLE[node.fn]
            f0 = f(v)
            if not jets:
                return f0
            return arg.chain(f0, df(v, f0), d2f(v, f0))
        raise TypeError(f"not an Expr: {node!r}")

    def rec_pow(node: Pow):
        const = _const_value(node.expo)
        if const is not None and float(const).is_integer():
            k = int(const)
            base = rec(node.base)
            if k < 0:
                bv = base.value if jets else base
                _check_nonzero(node, np.asarray(bv), points)
            return _int_pow(base, k)
        # general power: exp(expo * ln(base)), base must be positive
        base = rec(node.base)
        bv = np.asarray(base.value if jets else base)
        _check_positive(node, bv, points, "non-integer power of non-positive base")
        if isinstance(node.expo, Num):
            c = float(node.expo.value)
            f0 = np.power(bv, c)
            if not jets:
                return f0
            return base.chain(f0, c * np.power(bv, c - 1.0), c * (c - 1.0) * np.power(bv, c - 2.0))
        ee = rec(node.expo)
        ln_b = rec(Call("ln", (node.base,)))
        inner = ee * ln_b
        v = inner.value if jets else inner
        f0 = np.exp(v)
        if not jets:
            return f0
        return inner.chain(f0, f0, f0)

    with np.errstate(all="ignore"):
        out = rec(e)
    for part in (out.value, out.grad, out.hess) if jets else (out,):
        if not np.isfinite(part).all():
            idx = tuple(np.argwhere(~np.isfinite(part))[0][: len(batch)])
            raise DomainError(to_source(e), points[idx], "non-finite value")
    return out


def eval_scalar_many(e: Expr, points: np.ndarray, params: Mapping[str, float] = {}) -> np.ndarray:
    points = np.asarray(points, dtype=float)
    return _eval(e, points, params, jets=False)


def eval_scalar(e: Expr, point: Sequence[float], params: Mapping[str, float] = {}) -> float:
    return float(eval_scalar_many(e, np.asarray(point, dtype=float)[None, :], params)[0])


def eval_jet2_many(e: Expr, points: np.ndarray, params: Mapping[str, float] = {}) -> Jet2:
    points = np.asarray(points, dtype=float)
    return _eval(e, points, params, jets=True)


def eval_jet2(e: Expr, point: Sequence[float], params: Mapping[str, float] = {}) -> Jet2:
    """Jet at a single point: value is a 0-d array, grad (n,), hess (n,n)."""
    j = eval_jet2_many(e, np.asarray(point, dtype=float)[None, :], params)
    return Jet2(j.value[0], j.grad[0], j.hess[0])


# ---------------------------------------------------------------------------
# Symbolic differentiation (exact, with trivial zero/one folding only)
# ---------------------------------------------------------------------------

_ZERO = Num(0.0)
_ONE = Num(1.0)


def _is_const(e: Expr, v: float) -> bool:
    return isinstance(e, Num) and e.value == v


def _add(a: Expr, b: Expr) -> Expr:
    if _is_const(a, 0.0):
        return b
    if _is_const(b, 0.0):
        return a
    return Add(a, b)


def _sub(a: Expr, b: Expr) -> Expr:
    if _is_const(b, 0.0):
        return a
    if _is_const(a, 0.0):
        return Neg(b)
    return Sub(a, b)


def _mul(a: Expr, b: Expr) -> Expr:
    if _is_const(a, 0.0) or _is_const(b, 0.0):
        return _ZERO
    if _is_const(a, 1.0):
        return b
    if _is_const(b, 1.0):
        return a
    return Mul(a, b)


def _div(a: Expr, b: Expr) -> Expr:
    if _is_const(a, 0.0):
        return _ZERO
    if _is_const(b, 1.0):
        return a
    return Div(a, b)


_DERIV_RULES = {
    "sqrt": lambda u: _div(_ONE, _mul(Num(2.0), Call("sqrt", (u,)))),
    "exp": lambda u: Call("exp", (u,)),
    "ln": lambda u: _div(_ONE, u),
    "sin": lambda u: Call("cos", (u,)),
    "cos": lambda u: Neg(Call("sin", (u,))),
    "tan": lambda u: _add(_ONE, _mul(Call("tan", (u,)), Call("tan", (u,)))),
    "arctan": lambda u: _div(_ONE, _add(_ONE, _mul(u, u))),
}


def differentiate(e: Expr, var_index: int) -> Expr:
    """Exact partial derivative with respect to the variable at var_index."""
    d = lambda sub: differentiate(sub, var_index)
    if isinstance(e, (Num, Param)):
        return _ZERO
    if isinstance(e, Var):
        return _ONE if e.index == var_index else _ZERO
    if isinstance(e, Neg):
        da = d(e.a)
        return _ZERO if _is_const(da, 0.0) else Neg(da)
    if isinstance(e, Add):
        return _add(d(e.a), d(e.b))
    if isinstance(e, Sub):
        return _sub(d(e.a), d(e.b))
    if isinstance(e, Mul):
        return _add(_mul(d(e.a), e.b), _mul(e.a, d(e.b)))
    if isinstance(e, Div):
        num = _sub(_mul(d(e.a), e.b), _mul(e.a, d(e.b)))
        return _div(num, _mul(e.b, e.b))
    if isinstance(e, Pow):
        if isinstance(e.expo, Num):
            c = e.expo.value
            db = d(e.base)
            if _is_const(db, 0.0):
                return _ZERO
            return _mul(_mul(Num(c), Pow(e.base, Num(c - 1.0))), db)
        # b^e = exp(e ln b)
        db, de = d(e.base), d(e.expo)
        t1 = _mul(de, Call("ln", (e.base,)))
        t2 = _div(_mul(e.expo, db), e.base)
        return _mul(e, _add(t1, t2))
    if isinstance(e, Call):
        u = e.args[0]
        du = d(u)
        if _is_const(du, 0.0):
            return _ZERO
        return _mul(_DERIV_RULES[e.fn](u), du)
    raise TypeError(f"not an Expr: {e!r}")

