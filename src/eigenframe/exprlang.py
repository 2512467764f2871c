"""A small smooth-expression language with exact second-order jets.

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
over one instruction list: values only, and jets of order 1 (value,
gradient) or 2 (plus Hessian), batched over many points with numpy.
Constants stay plain floats in both.  Powers with an integer constant
exponent become repeated multiplications and therefore work for negative
bases; any other power is exp/ln-based and requires a positive base.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence, Union

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
    hess has shape S+(n,n) and is symmetric bit-for-bit by construction.  A
    first-order jet has hess None, and every rule then skips the Hessian.
    The other operand of a rule is a jet of the same order or a plain float:
    a constant, whose zero derivatives are never stored.
    """

    __slots__ = ("value", "grad", "hess")

    def __init__(self, value: np.ndarray, grad: np.ndarray, hess: Optional[np.ndarray] = None):
        self.value = value
        self.grad = grad
        self.hess = hess

    @property
    def n(self) -> int:
        return self.grad.shape[-1]

    @staticmethod
    def variable(values: np.ndarray, index: int, n: int, order: int = 2) -> "Jet2":
        values = np.asarray(values, dtype=float)
        g = np.zeros(values.shape + (n,))
        g[..., index] = 1.0
        h = np.zeros(values.shape + (n, n)) if order == 2 else None
        return Jet2(values.copy(), g, h)

    def __add__(self, other):
        if not isinstance(other, Jet2):
            return Jet2(self.value + other, self.grad, self.hess)
        h = None if self.hess is None else self.hess + other.hess
        return Jet2(self.value + other.value, self.grad + other.grad, h)

    __radd__ = __add__

    def __neg__(self):
        return Jet2(-self.value, -self.grad, None if self.hess is None else -self.hess)

    def __sub__(self, other):
        if not isinstance(other, Jet2):
            return Jet2(self.value - other, self.grad, self.hess)
        h = None if self.hess is None else self.hess - other.hess
        return Jet2(self.value - other.value, self.grad - other.grad, h)

    def __rsub__(self, other):
        # a constant minus a jet: zero derivatives minus ours
        h = None if self.hess is None else 0.0 - self.hess
        return Jet2(other - self.value, 0.0 - self.grad, h)

    def __mul__(self, other):
        if not isinstance(other, Jet2):
            h = None if self.hess is None else self.hess * other
            return Jet2(self.value * other, self.grad * other, h)
        v = self.value * other.value
        g = self.grad * other.value[..., None] + self.value[..., None] * other.grad
        if self.hess is None:
            return Jet2(v, g)
        cross = (
            self.grad[..., :, None] * other.grad[..., None, :]
            + other.grad[..., :, None] * self.grad[..., None, :]
        )
        h = (
            self.hess * other.value[..., None, None]
            + self.value[..., None, None] * other.hess
            + cross
        )
        return Jet2(v, g, h)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, Jet2):
            h = None if self.hess is None else self.hess / other
            return Jet2(self.value / other, self.grad / other, h)
        return other._divide(self.value, self.grad, self.hess)

    def __rtruediv__(self, other):
        return self._divide(other, 0.0, 0.0)

    def _divide(self, value, grad, hess) -> "Jet2":
        """The quotient of the jet (value, grad, hess) by this one; a constant
        numerator has grad and hess 0.0."""
        v = value / self.value
        g = (grad - v[..., None] * self.grad) / self.value[..., None]
        if self.hess is None:
            return Jet2(v, g)
        cross = (
            g[..., :, None] * self.grad[..., None, :]
            + self.grad[..., :, None] * g[..., None, :]
        )
        h = (hess - v[..., None, None] * self.hess - cross) / self.value[..., None, None]
        return Jet2(v, g, h)

    def chain(self, f0: np.ndarray, f1: np.ndarray, f2: Optional[np.ndarray] = None) -> "Jet2":
        """Compose with a scalar function given f(v), f'(v), f''(v); f'' is
        only read by a second-order jet."""
        g = f1[..., None] * self.grad
        if self.hess is None:
            return Jet2(f0, g)
        outer = self.grad[..., :, None] * self.grad[..., None, :]
        h = f1[..., None, None] * self.hess + f2[..., None, None] * outer
        return Jet2(f0, g, h)


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


# ---------------------------------------------------------------------------
# Tapes
# ---------------------------------------------------------------------------


def _jet_call(name: str):
    f, df, d2f = _FN_TABLE[name]

    def call(x: Jet2) -> Jet2:
        v = x.value
        f0 = f(v)
        return x.chain(f0, df(v, f0), None if x.hess is None else d2f(v, f0))

    return call


def _jet_power(x: Jet2, c: float) -> Jet2:
    """x^c for a literal non-integer exponent c (x > 0 is checked before)."""
    bv = x.value
    f0 = np.power(bv, c)
    f1 = c * np.power(bv, c - 1.0)
    if x.hess is None:
        return x.chain(f0, f1)
    return x.chain(f0, f1, c * (c - 1.0) * np.power(bv, c - 2.0))


# instruction name -> (values kernel, jets kernel); at run time at least one
# operand is an array (or a jet), the other may be a float constant
_INSTRUCTIONS = {
    "add": (np.add, operator.add),
    "sub": (np.subtract, operator.sub),
    "mul": (np.multiply, operator.mul),
    "div": (np.divide, operator.truediv),
    "neg": (np.negative, operator.neg),
    "pow": (np.power, _jet_power),
    **{name: (f, _jet_call(name)) for name, (f, _, _) in _FN_TABLE.items()},
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
        ok = holds(x.value if isinstance(x, Jet2) else x)
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

    Built by compile_tape; run by eval_scalar_many (values kernel) and
    eval_jet2_many (jets kernel).  Every instruction is (values function,
    jets function, destination register, operand a, operand b or None);
    the register file starts with the point batch, the sink of the check
    instructions and the folded constants.  The outputs are the compiled
    expressions in order.
    """

    def __init__(self, exprs: tuple, registers: list, variables: tuple, code: tuple, outputs: tuple):
        self.exprs = exprs
        self.registers = registers
        self.variables = variables  # (register, variable index)
        self.code = code
        self.outputs = outputs
        self._values_code = tuple((f, dst, a, b) for f, _, dst, a, b in code)
        self._jets_code = tuple((j, dst, a, b) for _, j, dst, a, b in code)

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

    def _jets(self, points: np.ndarray, order: int) -> Jet2:
        """Jets of every output at points (m, n): value (m, k), grad
        (m, k, n), hess (m, k, n, n) or None for order 1."""
        m, n = points.shape
        regs = list(self.registers)
        regs[_POINTS] = points
        for reg, index in self.variables:
            regs[reg] = Jet2.variable(points[:, index], index, n, order)
        _execute(self._jets_code, regs)
        k = len(self.outputs)
        value, grad = np.empty((m, k)), np.empty((m, k, n))
        hess = np.empty((m, k, n, n)) if order == 2 else None
        for o, reg in enumerate(self.outputs):
            r = regs[reg]
            if isinstance(r, Jet2):
                value[:, o], grad[:, o] = r.value, r.grad
                if hess is not None:
                    hess[:, o] = r.hess
            else:
                value[:, o], grad[:, o] = r, 0.0
                if hess is not None:
                    hess[:, o] = 0.0
        self._gate(points, (value, grad) if hess is None else (value, grad, hess))
        return Jet2(value, grad, hess)

    def _gate(self, points: np.ndarray, blocks: tuple):
        """One finiteness test per output block.  On failure, DomainError
        names the first output with a non-finite value, gradient or Hessian
        entry, and its first such point."""
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
        values_fn, jets_fn = _INSTRUCTIONS[name]
        if a in self.consts and (b is None or b in self.consts):
            # the values kernel on a one-point batch, so the folded constant
            # has the bits evaluation would give
            args = (np.array([self.consts[a]]),) if b is None else (
                np.array([self.consts[a]]), self.consts[b])
            reg = self.const(values_fn(*args)[0])
        else:
            reg = self._register()
            self.code.append((values_fn, jets_fn, reg, a, b))
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


def eval_jet2_many(e, points: np.ndarray, params: Mapping[str, float] = {}, order: int = 2) -> Jet2:
    """Jets of order 2 (value, gradient, Hessian) or 1 (hess None) at points
    (..., n).  e is a Tape, whose outputs add an axis after the batch axes,
    or a bare Expr, compiled with params into a one-output tape."""
    pts, batch = _point_batch(points)
    tape = e if isinstance(e, Tape) else compile_tape(((e,), params))
    jet = tape._jets(pts, order)
    shape = batch + ((len(tape.outputs),) if isinstance(e, Tape) else ())
    n = pts.shape[1]
    hess = None if jet.hess is None else jet.hess.reshape(shape + (n, n))
    return Jet2(jet.value.reshape(shape), jet.grad.reshape(shape + (n,)), hess)


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

