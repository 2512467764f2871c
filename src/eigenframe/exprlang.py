"""A small smooth-expression language with exact derivatives of any order.

Grammar (documented in docs/grammar.md)::

    expr  := term (('+'|'-') term)*
    term  := unary (('*'|'/') unary)*
    unary := '-' unary | power
    power := atom ('^' unary)?
    atom  := NUMBER | IDENT | IDENT '(' expr (',' expr)* ')' | '(' expr ')'

'^' is right-associative and binds tighter than unary minus, so "-u1^2"
parses as -(u1^2).  Builtins: sqrt, exp, ln, sin, cos, tan, arctan.

Expressions are evaluated through tapes (Griewank & Walther, Evaluating
Derivatives, ch. 13): compile_tape turns a tuple of expressions and their
params into one flat program in SSA form, where every register is written
by exactly one instruction.  Compilation binds the params, folds every
subtree without variables to a constant with the same numpy ufuncs that
evaluation uses, shares common subexpressions across all outputs, and
turns the domain rules into check instructions.  A tape has two kernels
over one instruction list, batched over many points with numpy: values
only, and truncated Taylor series (Taylor) of any order, whose
coefficients d^a f / a! are every partial derivative up to that order.
The series kernel seeds variable u_i as u_i + e_i, runs +, -, * and / on
whole series and composes a builtin as f(g) = sum_k f^(k)(g0)/k! (g - g0)^k
from one rule per builtin for its terms; every value slot is written by
the values kernel's own ufunc, so the two kernels agree bit for bit on
values.  eval_series returns the coefficients, and eval_jet2_many reads
value, gradient and Hessian from them.  Constants stay plain floats in
both kernels.  Powers with an integer constant exponent become repeated
multiplications and therefore work for negative bases; any other power is
exp/ln-based and requires a positive base.
"""

from __future__ import annotations

import itertools
import math
import operator
import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence, Union

import numpy as np
import numpy.polynomial.polynomial as npoly

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
# Truncated Taylor series (Griewank & Walther, Evaluating Derivatives, ch. 13)
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _monomials(n: int, order: int) -> tuple:
    """Multi-indices of degree <= order in graded order, each as the sorted
    tuple of its variables (u1^2 u3 is (0, 0, 2))."""
    return tuple(
        t for q in range(order + 1) for t in itertools.combinations_with_replacement(range(n), q)
    )


def _size(n: int, order: int) -> int:
    return len(_monomials(n, order))


@lru_cache(maxsize=None)
def _product_table(n: int, order: int) -> tuple:
    """Operands I, J and summation matrix S of the truncated product:
    (f g)[k] = sum_p f[I[p]] g[J[p]] S[p, k]."""
    mono = _monomials(n, order)
    index = {t: i for i, t in enumerate(mono)}
    terms = [
        (i, j, index[tuple(sorted(a + b))])
        for i, a in enumerate(mono)
        for j, b in enumerate(mono[: _size(n, order - len(a))])
    ]
    I, J, K = (np.array(col) for col in zip(*terms))
    S = np.zeros((len(terms), len(mono)))
    S[np.arange(len(terms)), K] = 1.0
    return I, J, S


@lru_cache(maxsize=None)
def _derivative_table(n: int, order: int) -> np.ndarray:
    """D[b, k, l]: (d_b f)[k] = sum_l D[b, k, l] f[l], from a series of the
    given order to one of order - 1."""
    mono = _monomials(n, order)
    index = {t: i for i, t in enumerate(mono)}
    D = np.zeros((n, _size(n, order - 1), len(mono)))
    for k, t in enumerate(mono[: D.shape[1]]):
        for b in range(n):
            D[b, k, index[tuple(sorted(t + (b,)))]] = t.count(b) + 1
    return D


@lru_cache(maxsize=None)
def _frame_derivative_table(n: int, order: int) -> np.ndarray:
    """T[b, i, k, l]: (g d_b f)[k] = sum_{i,l} g[i] T[b, i, k, l] f[l] for a
    series f of the given order and g of order - 1."""
    I, J, S = _product_table(n, order - 1)
    T = np.zeros((n, S.shape[1], S.shape[1], _size(n, order)))
    np.add.at(T, (slice(None), I), np.einsum("pk,bpl->bpkl", S, _derivative_table(n, order)[:, J]))
    return T


@lru_cache(maxsize=None)
def _hessian_index(n: int) -> tuple:
    """H, F: the Hessian of a series coef of order 2 is coef[..., H] * F,
    with H[i, j] the position of the multi-index {i, j} in _monomials(n, 2)
    and F[i, j] = 2 on the diagonal, 1 elsewhere."""
    index = {t: i for i, t in enumerate(_monomials(n, 2))}
    H = np.array([[index[(min(i, j), max(i, j))] for j in range(n)] for i in range(n)])
    return H, 1.0 + np.eye(n)


def _constant(c):
    """A constant operand of a series: an array gains the coefficient axis."""
    return c[..., None] if isinstance(c, np.ndarray) else c


class Taylor:
    """Fields as truncated Taylor series in the point coordinates, batched:
    coef[..., l] = d^a f / a! for the l-th multi-index a of _monomials(n,
    order), so a lower order is a leading slice.  It acts as an array of
    shape coef.shape[:-1]: indexing (without Ellipsis), broadcasting, +, -,
    *, / and @ (over the last two axes) act on whole series, truncated to
    the lower order; a float or array operand is a constant.  The value
    slot of +, -, * and / is the numpy ufunc of the operand values, bit for
    bit, whatever the higher coefficients hold."""

    __array_ufunc__ = None  # numpy defers to the reflected operators

    def __init__(self, coef: np.ndarray, n: int, order: int):
        self.coef, self.n, self.order = coef, n, order

    @property
    def value(self) -> np.ndarray:
        return self.coef[..., 0]

    def __getitem__(self, index) -> "Taylor":
        return Taylor(self.coef[index], self.n, self.order)

    def sum(self, axis: int) -> "Taylor":
        return Taylor(self.coef.sum(axis=axis), self.n, self.order)

    @staticmethod
    def stack(fields: list) -> "Taylor":
        """np.stack(..., axis=1) of fields; nested lists stack innermost
        first, so [[f, g], [h, k]] has field axes (2, 2)."""
        fields = [Taylor.stack(f) if isinstance(f, list) else f for f in fields]
        order = min(f.order for f in fields)
        size = _size(fields[0].n, order)
        return Taylor(np.stack([f.coef[..., :size] for f in fields], axis=1), fields[0].n, order)

    def _common(self, other: "Taylor") -> tuple:
        if self.order == other.order:
            return self.coef, other.coef, self.order
        order = min(self.order, other.order)
        size = _size(self.n, order)
        return self.coef[..., :size], other.coef[..., :size], order

    def _increment(self) -> "Taylor":
        """self - self.value: the series without its constant term."""
        coef = self.coef.copy()
        coef[..., 0] = 0.0
        return Taylor(coef, self.n, self.order)

    def __add__(self, other) -> "Taylor":
        if isinstance(other, Taylor):
            a, b, order = self._common(other)
            return Taylor(a + b, self.n, order)
        coef = self.coef.copy()
        coef[..., 0] += other
        return Taylor(coef, self.n, self.order)

    __radd__ = __add__

    def __neg__(self) -> "Taylor":
        return Taylor(-self.coef, self.n, self.order)

    def __sub__(self, other) -> "Taylor":
        if isinstance(other, Taylor):
            a, b, order = self._common(other)
            return Taylor(a - b, self.n, order)
        return self + (-other)

    def __rsub__(self, other) -> "Taylor":
        coef = -self.coef
        coef[..., 0] += other
        return Taylor(coef, self.n, self.order)

    def __mul__(self, other) -> "Taylor":
        if not isinstance(other, Taylor):
            return Taylor(self.coef * _constant(other), self.n, self.order)
        a, b, order = self._common(other)
        if order == 1:
            coef = a * b[..., :1]
            coef[..., 1:] += a[..., :1] * b[..., 1:]
            return Taylor(coef, self.n, 1)
        I, J, S = _product_table(self.n, order)
        coef = (a[..., I] * b[..., J]) @ S
        coef[..., 0] = a[..., 0] * b[..., 0]
        return Taylor(coef, self.n, order)

    __rmul__ = __mul__

    def __matmul__(self, other) -> "Taylor":
        if not isinstance(other, Taylor):
            return Taylor(np.einsum("...abl,...bc->...acl", self.coef, other), self.n, self.order)
        a, b, order = self._common(other)
        I, J, S = _product_table(self.n, order)
        # take, not a[..., I]: einsum is slow on the axis order fancy indexing gives
        terms = np.einsum("...abp,...bcp->...acp", np.take(a, I, axis=-1), np.take(b, J, axis=-1))
        return Taylor(terms @ S, self.n, order)

    def __rmatmul__(self, other) -> "Taylor":
        return Taylor(np.einsum("...ab,...bcl->...acl", other, self.coef), self.n, self.order)

    def __truediv__(self, other) -> "Taylor":
        if not isinstance(other, Taylor):
            return Taylor(self.coef / _constant(other), self.n, self.order)
        return other._divide(self)

    def __rtruediv__(self, other) -> "Taylor":
        return self._divide(other)

    def _divide(self, num) -> "Taylor":
        """num / self for a series or constant num.  The quotient q solves
        q = (num - (self - self0) q) / self0, and each pass of that
        fixed point makes one more degree of q exact."""
        g0 = self.value
        v = (num.value if isinstance(num, Taylor) else num) / g0
        # the first pass, from q = v, may use self v for dg q: they differ
        # only in the value slot, which is overwritten
        q = (num - self * v) / g0
        q.coef[..., 0] = v
        if self.order > 1:
            dg = self._increment()
            for _ in range(self.order - 1):
                q = (num - dg * q) / g0
                q.coef[..., 0] = v
        return q

    def compose(self, f0: np.ndarray, terms: list) -> "Taylor":
        """f(self) from f0 = f(self.value) and terms[k-1] = f^(k)(self.value)/k!
        for k = 1..order: sum_k terms[k-1] (self - self.value)^k by Horner's
        rule."""
        s = self * (terms[-1] if terms else 0.0)
        if len(terms) > 1:
            s.coef[..., 0] = 0.0  # s = (self - self.value) terms[-1]
            h = self._increment()
            for d in reversed(terms[:-1]):
                s = h * (s + d)
        s.coef[..., 0] = f0
        return s


class Jet2(NamedTuple):
    """Value, gradient and Hessian of tape outputs, read from their series
    (eval_jet2_many): grad has one more axis than value, and hess two more,
    or is None for order 1.  Mixed partials share one series coefficient,
    so hess is symmetric bit for bit."""

    value: np.ndarray
    grad: np.ndarray
    hess: Optional[np.ndarray]


# Series rules of the builtins: the terms f^(k)(v)/k!, k = 1..order, from
# the argument value v and f0 = f(v).  Each first term is the derivative
# formula of the first-order chain rule, so gradients keep those bits.


def _oscillator_terms(d1, f0, order: int) -> list:
    """terms of sin or cos (f'' = -f) from d1 = f'(v): the derivatives
    run d1, -f0, -d1, f0, d1, ..."""
    return [d1] + [
        (f0, d1)[k % 2] * ((-1) ** (k // 2) / math.factorial(k)) for k in range(2, order + 1)
    ]


def _power_terms(v, d1, c: float, order: int) -> list:
    """terms of v^c from the first, d1 = c v^(c-1): each next one is the
    last times (c - k + 1) / (k v)."""
    terms = [d1]
    for k in range(2, order + 1):
        terms.append(terms[-1] * ((c - k + 1) / k) / v)
    return terms[:order]


def _ln_terms(v, f0, order: int) -> list:
    r = 1.0 / v
    return [r] + [r**k * ((-1) ** (k + 1) / k) for k in range(2, order + 1)]


@lru_cache(maxsize=None)
def _tan_polynomials(order: int) -> tuple:
    """P_k with tan^(k)(v) = P_k(tan v): P_0 = t, P_(k+1) = (1 + t^2) P_k'."""
    P = [np.array([0.0, 1.0])]
    for _ in range(order):
        P.append(npoly.polymul([1.0, 0.0, 1.0], npoly.polyder(P[-1])))
    return tuple(P)


def _tan_terms(v, f0, order: int) -> list:
    P = _tan_polynomials(order)
    terms = [1.0 + f0 * f0]
    terms += [npoly.polyval(f0, P[k]) / math.factorial(k) for k in range(2, order + 1)]
    return terms[:order]


def _arctan_terms(v, f0, order: int) -> list:
    # arctan' = Im 1/(v - i) = Im ln'(v - i), so from the second on the
    # terms are the imaginary parts of ln's at v - i
    higher = [t.imag for t in _ln_terms(v - 1j, None, order)[1:]]
    return ([1.0 / (1.0 + v * v)] + higher)[:order]


# builtin -> (values kernel ufunc, series terms)
_FN_TABLE = {
    "sqrt": (np.sqrt, lambda v, f0, order: _power_terms(v, 0.5 / f0, 0.5, order)),
    "exp": (np.exp, lambda v, f0, order: [f0] + [f0 / math.factorial(k) for k in range(2, order + 1)]),
    "ln": (np.log, _ln_terms),
    "sin": (np.sin, lambda v, f0, order: _oscillator_terms(np.cos(v), f0, order)),
    "cos": (np.cos, lambda v, f0, order: _oscillator_terms(-np.sin(v), f0, order)),
    "tan": (np.tan, _tan_terms),
    "arctan": (np.arctan, _arctan_terms),
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


# ---------------------------------------------------------------------------
# Tapes
# ---------------------------------------------------------------------------


def _series_call(name: str):
    f, terms = _FN_TABLE[name]

    def call(x: Taylor) -> Taylor:
        v = x.value
        f0 = f(v)
        return x.compose(f0, terms(v, f0, x.order))

    return call


def _series_power(x: Taylor, c: float) -> Taylor:
    """x^c for a literal non-integer exponent c (x > 0 is checked before)."""
    v = x.value
    f0 = np.power(v, c)
    return x.compose(f0, _power_terms(v, c * np.power(v, c - 1.0), c, x.order))


# instruction name -> (values kernel, series kernel); at run time at least
# one operand is an array (or a series), the other may be a float constant.
# A series result's value slot is the values kernel's ufunc of the operand
# values (see Taylor), so both kernels agree bit for bit on values.
_INSTRUCTIONS = {
    "add": (np.add, operator.add),
    "sub": (np.subtract, operator.sub),
    "mul": (np.multiply, operator.mul),
    "div": (np.divide, operator.truediv),
    "neg": (np.negative, operator.neg),
    "pow": (np.power, _series_power),
    **{name: (f, _series_call(name)) for name, (f, _) in _FN_TABLE.items()},
}

_CHECKS = {
    "positive": lambda v: v > 0.0,
    "nonzero": lambda v: v != 0.0,
}

_POINTS, _SINK = 0, 1  # registers: the point batch, and the target of checks


def _check(holds, node: Expr, what: str):
    """Instruction raising DomainError at the first point where holds(value)
    fails; the same function serves both kernels."""

    def check(x, points):
        ok = holds(x.value if isinstance(x, Taylor) else x)
        if not ok.all():
            raise DomainError(to_source(node), points[int(np.argmin(ok))], what)

    return check


def _fail(node: Expr, what: str):
    """Instruction for a check whose operand is a constant that fails it: the
    violation is reported at the first point of the batch."""

    def fail(points):
        if len(points):
            raise DomainError(to_source(node), points[0], what)

    return fail


def _execute(code: tuple, regs: list):
    with np.errstate(all="ignore"):
        for fn, dst, a, b in code:
            regs[dst] = fn(regs[a]) if b is None else fn(regs[a], regs[b])


class Tape:
    """Expressions compiled into one straight-line program in SSA form.

    Built by compile_tape; run by eval_scalar_many (values kernel) and by
    eval_series and eval_jet2_many (series kernel, truncated Taylor series
    of any order).  Every instruction is (values function, series function,
    destination register, operand a, operand b or None); the register file
    starts with the point batch, the sink of the check instructions and the
    folded constants.  The outputs are the compiled expressions in order.
    """

    def __init__(self, exprs: tuple, registers: list, variables: tuple, code: tuple, outputs: tuple):
        self.exprs = exprs
        self.registers = registers
        self.variables = variables  # (register, variable index)
        self.code = code
        self.outputs = outputs
        self._values_code = tuple((f, dst, a, b) for f, _, dst, a, b in code)
        self._series_code = tuple((s, dst, a, b) for _, s, dst, a, b in code)

    def _values(self, points: np.ndarray) -> np.ndarray:
        """Values of every output at points (m, n): shape (m, k)."""
        regs = list(self.registers)
        regs[_POINTS] = points
        for reg, index in self.variables:
            regs[reg] = points[:, index].copy()
        _execute(self._values_code, regs)
        out = np.empty((points.shape[0], len(self.outputs)))
        for o, reg in enumerate(self.outputs):
            out[:, o] = regs[reg]
        self._gate(points, (out,))
        return out

    def _series(self, points: np.ndarray, order: int) -> np.ndarray:
        """Taylor coefficients of every output at points (m, n) up to the
        given order: shape (m, k, size), laid out as Taylor.coef.  Variable
        u_i is seeded as the series u_i + e_i."""
        m, n = points.shape
        size = _size(n, order)
        regs = list(self.registers)
        regs[_POINTS] = points
        seeds = np.zeros((n, m, size))
        seeds[:, :, 0] = points.T
        for reg, index in self.variables:
            if order:
                seeds[index, :, 1 + index] = 1.0
            regs[reg] = Taylor(seeds[index], n, order)
        _execute(self._series_code, regs)
        out = np.zeros((m, len(self.outputs), size))
        for o, reg in enumerate(self.outputs):
            r = regs[reg]
            if isinstance(r, Taylor):
                out[:, o] = r.coef
            else:
                out[:, o, 0] = r
        if not np.isfinite(out).all():
            # one block per degree, values first, as the values kernel gates them
            self._gate(points, tuple(out[..., _size(n, q - 1) : _size(n, q)] for q in range(order + 1)))
        return out

    def _gate(self, points: np.ndarray, blocks: tuple):
        """One finiteness test per output block.  On failure, DomainError
        names the first output with a non-finite value or derivative, block
        by block, and its first such point."""
        if all(np.isfinite(block).all() for block in blocks):
            return
        m = points.shape[0]
        for o, e in enumerate(self.exprs):
            for block in blocks:
                bad = ~np.isfinite(block[:, o].reshape(m, -1)).all(axis=1)
                if bad.any():
                    raise DomainError(to_source(e), points[int(np.argmax(bad))], "non-finite value")


class _Compiler:
    """Value numbering over the expression trees: every instruction is keyed
    by its name and operand registers, so equal subexpressions anywhere in
    the tape share one register, and an instruction whose operands are all
    constants is folded on the spot."""

    def __init__(self):
        self.registers = [None, None]  # _POINTS, _SINK
        self.code = []
        self.numbers = {}  # instruction key -> register
        self.consts = {}  # register -> float
        self.variables = []

    def _register(self, initial=None) -> int:
        self.registers.append(initial)
        return len(self.registers) - 1

    def const(self, value) -> int:
        value = float(value)
        key = ("const", value.hex())  # keeps 0.0 and -0.0 apart
        reg = self.numbers.get(key)
        if reg is None:
            reg = self.numbers[key] = self._register(value)
            self.consts[reg] = value
        return reg

    def var(self, index: int) -> int:
        key = ("var", index)
        reg = self.numbers.get(key)
        if reg is None:
            reg = self.numbers[key] = self._register()
            self.variables.append((reg, index))
        return reg

    def op(self, name: str, a: int, b: Optional[int] = None) -> int:
        key = (name, a, b)
        reg = self.numbers.get(key)
        if reg is not None:
            return reg
        values_fn, series_fn = _INSTRUCTIONS[name]
        if a in self.consts and (b is None or b in self.consts):
            # the values kernel on a one-point batch, so the folded constant
            # has the bits evaluation would give
            args = (np.array([self.consts[a]]),) if b is None else (
                np.array([self.consts[a]]), self.consts[b])
            reg = self.const(values_fn(*args)[0])
        else:
            reg = self._register()
            self.code.append((values_fn, series_fn, reg, a, b))
        self.numbers[key] = reg
        return reg

    def check(self, kind: str, a: int, node: Expr, what: str):
        """A domain check on register a.  Only the first check of a kind on a
        register is kept: a later one reads the same values and passes."""
        key = (kind, a)
        if key in self.numbers:
            return
        self.numbers[key] = _SINK
        holds = _CHECKS[kind]
        if a not in self.consts:
            fn = _check(holds, node, what)
            self.code.append((fn, fn, _SINK, a, _POINTS))
        elif not holds(np.array([self.consts[a]])).all():
            fn = _fail(node, what)
            self.code.append((fn, fn, _SINK, _POINTS, None))

    def expr(self, e: Expr, params: Mapping[str, float]) -> int:
        if isinstance(e, Num):
            return self.const(e.value)
        if isinstance(e, Var):
            return self.var(e.index)
        if isinstance(e, Param):
            if e.name not in params:
                raise UnknownIdentifierError(e.name)
            return self.const(params[e.name])
        if isinstance(e, Neg):
            return self.op("neg", self.expr(e.a, params))
        if isinstance(e, (Add, Sub, Mul)):
            name = "add" if isinstance(e, Add) else "sub" if isinstance(e, Sub) else "mul"
            return self.op(name, self.expr(e.a, params), self.expr(e.b, params))
        if isinstance(e, Div):
            a, b = self.expr(e.a, params), self.expr(e.b, params)
            self.check("nonzero", b, e, "division by zero")
            return self.op("div", a, b)
        if isinstance(e, Pow):
            return self.power(e, params)
        if isinstance(e, Call):
            arg = self.expr(e.args[0], params)
            if e.fn in _POSITIVE_DOMAIN:
                self.check("positive", arg, e, f"{e.fn} of non-positive value")
            return self.op(e.fn, arg)
        raise TypeError(f"not an Expr: {e!r}")

    def power(self, e: Pow, params: Mapping[str, float]) -> int:
        const = _const_value(e.expo)
        base = self.expr(e.base, params)
        if const is not None and float(const).is_integer():
            k = int(const)
            if k < 0:
                self.check("nonzero", base, e, "division by zero")
            return self.int_power(base, k)
        # general power: exp(expo * ln(base)), base must be positive
        self.check("positive", base, e, "non-integer power of non-positive base")
        if isinstance(e.expo, Num):
            return self.op("pow", base, self.const(e.expo.value))
        expo = self.expr(e.expo, params)
        return self.op("exp", self.op("mul", expo, self.op("ln", base)))

    def int_power(self, base: int, k: int) -> int:
        """Exponentiation by squaring, for negative bases too."""
        if k == 0:
            return self.const(1.0)
        if k < 0:
            return self.op("div", self.const(1.0), self.int_power(base, -k))
        result = None
        while k:
            if k & 1:
                result = base if result is None else self.op("mul", result, base)
            k >>= 1
            if k:
                base = self.op("mul", base, base)
        return result


def compile_tape(*blocks) -> Tape:
    """Compile blocks of (expressions, params) into one tape whose outputs
    are the expressions of every block, in order.  Each block's params are
    bound when it is compiled."""
    compiler = _Compiler()
    exprs, outputs = [], []
    with np.errstate(all="ignore"):
        for block, params in blocks:
            for e in block:
                outputs.append(compiler.expr(e, params))
                exprs.append(e)
    return Tape(
        tuple(exprs), compiler.registers, tuple(compiler.variables),
        tuple(compiler.code), tuple(outputs),
    )


def _point_batch(points) -> tuple:
    """points (..., n) as a float (m, n) batch, and the leading shape."""
    points = np.asarray(points, dtype=float)
    return points.reshape(-1, points.shape[-1]), points.shape[:-1]


def eval_scalar_many(e, points: np.ndarray, params: Mapping[str, float] = {}) -> np.ndarray:
    """Values at points (..., n).  e is a Tape, giving shape (..., k) over its
    k outputs, or a bare Expr, compiled with params into a one-output tape
    and giving shape (...).  A Tape's params were bound when it was
    compiled."""
    pts, batch = _point_batch(points)
    if isinstance(e, Tape):
        return e._values(pts).reshape(batch + (len(e.outputs),))
    return compile_tape(((e,), params))._values(pts).reshape(batch)


def eval_scalar(e: Expr, point: Sequence[float], params: Mapping[str, float] = {}) -> float:
    return float(eval_scalar_many(e, np.asarray(point, dtype=float)[None, :], params)[0])


def _series_at(e, points, order: int, params: Mapping[str, float]) -> np.ndarray:
    """eval_series, also behind eval_jet2_many: a jet stays one call of the
    public API, which perfbench's tracer wraps function by function."""
    pts, batch = _point_batch(points)
    tape = e if isinstance(e, Tape) else compile_tape(((e,), params))
    coef = tape._series(pts, order)
    shape = batch + ((len(tape.outputs),) if isinstance(e, Tape) else ())
    return coef.reshape(shape + coef.shape[-1:])


def eval_series(e, points: np.ndarray, order: int, params: Mapping[str, float] = {}) -> np.ndarray:
    """Taylor coefficients up to the given order at points (..., n): the
    last axis is Taylor.coef's, d^a f / a! for the multi-indices a of
    _monomials(n, order).  e is a Tape, whose outputs add an axis after the
    batch axes, or a bare Expr, compiled with params into a one-output
    tape."""
    return _series_at(e, points, order, params)


def eval_jet2_many(e, points: np.ndarray, params: Mapping[str, float] = {}, order: int = 2) -> Jet2:
    """Jets of order 2 (value, gradient, Hessian) or 1 (hess None) at points
    (..., n), read from the series: hess[i, i] = 2 c_(ii), hess[i, j] = c_(ij).
    e is a Tape, whose outputs add an axis after the batch axes, or a bare
    Expr, compiled with params into a one-output tape."""
    coef = _series_at(e, points, order, params)
    n = np.shape(points)[-1]
    hess = None
    if order == 2:
        index, factor = _hessian_index(n)
        hess = coef[..., index] * factor
    return Jet2(np.ascontiguousarray(coef[..., 0]), np.ascontiguousarray(coef[..., 1 : 1 + n]), hess)


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

