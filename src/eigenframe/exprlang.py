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
subtree without variables to a constant by running its instructions on a
one-point series, shares common subexpressions across all outputs, and
turns the domain rules into check instructions.  A tape has one kernel,
batched over many points with numpy: it runs the instruction list on
truncated Taylor series (Taylor) of any order, whose coefficients
d^a f / a! are every partial derivative up to that order.  It seeds
variable u_i as u_i + e_i, runs +, -, * and / on whole series and composes
a builtin as f(g) = sum_k f^(k)(g0)/k! (g - g0)^k from one rule per builtin
for its terms.  A value is the series of order 0, and every value slot is
written by the ufunc of the operand values, so every order gives the
values' bits.  eval_scalar_many returns the values and eval_series the
coefficients; they are the only two ways into a tape.  Constants stay
plain floats.  A power whose exponent folds to an integer without reading
a variable or a param and without a failing check becomes repeated
multiplications and therefore works for negative bases; any other power is
exp/ln-based and checks its base positive before its exponent.
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


class _Node:
    """Equality has the semantics of the dataclass version (a node equals
    another of its class whose fields compare equal), and equal trees hash
    equal (the hash is that of the tree's leaf values in a fixed order);
    both walk the tree with an explicit stack, so they work at any accepted
    depth, where the generated versions recurse."""

    def __repr__(self) -> str:  # to_source fits the stack at any accepted depth
        return f"{type(self).__name__}({to_source(self)!r})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a is b:
                continue
            if isinstance(a, _Node) and a.__class__ is b.__class__:
                stack.extend(zip(_fields(a), _fields(b)))
            elif type(a) is tuple and type(b) is tuple and len(a) == len(b):
                stack.extend(zip(a, b))
            elif not a == b:
                return False
        return True

    def __hash__(self) -> int:
        leaves, stack = [], [self]
        while stack:
            v = stack.pop()
            if isinstance(v, _Node):
                stack.extend(_fields(v))
            elif type(v) is tuple:
                stack.extend(v)
            else:
                leaves.append(v)
        return hash(tuple(leaves))


def _fields(node: _Node) -> tuple:
    return tuple(getattr(node, name) for name in node.__match_args__)


# eq=False keeps _Node's __eq__ and __hash__
_node = dataclass(frozen=True, repr=False, eq=False)


@_node
class Num(_Node):
    value: float


@_node
class Var(_Node):
    index: int
    name: str


@_node
class Param(_Node):
    name: str


@_node
class Neg(_Node):
    a: "Expr"


@_node
class Add(_Node):
    a: "Expr"
    b: "Expr"


@_node
class Sub(_Node):
    a: "Expr"
    b: "Expr"


@_node
class Mul(_Node):
    a: "Expr"
    b: "Expr"


@_node
class Div(_Node):
    a: "Expr"
    b: "Expr"


@_node
class Pow(_Node):
    base: "Expr"
    expo: "Expr"


@_node
class Call(_Node):
    fn: str
    args: tuple


Expr = Union[Num, Var, Param, Neg, Add, Sub, Mul, Div, Pow, Call]


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

# a number, an identifier or an operator, after optional whitespace
_TOKEN = re.compile(
    r"\s*(?:((?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?)|([A-Za-z_][A-Za-z0-9_]*)|([-+*/^(),]))"
)
_KINDS = (None, "num", "ident", "op")  # by group


class Token(NamedTuple):
    kind: str  # 'num' | 'ident' | 'op' | 'end'
    text: str
    pos: int


def tokenize(source: str) -> list[Token]:
    """Split source into number/identifier/operator tokens; whitespace skipped."""
    tokens, i = [], 0
    while m := _TOKEN.match(source, i):
        k = m.lastindex
        tokens.append(Token(_KINDS[k], m[k], m.start(k)))
        i = m.end()
    rest = source[i:].lstrip()
    if rest:
        raise IllegalCharacterError(rest[0], len(source) - len(rest))
    tokens.append(Token("end", "", len(source)))
    return tokens


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


# The deepest expression the parser accepts, in tree levels: each leaf,
# operator and call is a level, and so is each parenthesised group.  The
# parser, the tape compiler and to_source take at most two Python frames a
# level, which keeps them under Python's default recursion limit of 1000.
MAX_DEPTH = 400

_BINARY = {"+": (1, Add), "-": (1, Sub), "*": (2, Mul), "/": (2, Div)}


def _limit(depth: int, height: int, t: Token) -> int:
    """height, the height of a subtree depth levels down; ExprSyntaxError at
    token t when the two together pass MAX_DEPTH."""
    if depth + height > MAX_DEPTH:
        raise ExprSyntaxError(f"expression nested deeper than {MAX_DEPTH} levels", t.pos)
    return height


class _Parser:
    """Each parsing method takes the number of levels above the subtree it
    parses and returns (Expr, height of the subtree in levels)."""

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
        e, _ = self.expr(0)
        t = self.peek()
        if t.kind != "end":
            raise ExprSyntaxError(f"unexpected trailing input {t.text!r}", t.pos)
        return e

    def expr(self, depth: int) -> tuple:
        """expr and term: unary operands joined by left-associative '+' and
        '-', and '*' and '/' binding tighter, reduced on an operator stack
        so that a long sum or product takes no recursion."""
        operands, ops = [self.unary(depth)], []
        while True:
            t = self.peek()
            prec = _BINARY[t.text][0] if t.kind == "op" and t.text in _BINARY else 0
            while ops and _BINARY[ops[-1].text][0] >= prec:
                op = ops.pop()
                (b, hb), (a, ha) = operands.pop(), operands.pop()
                node = _BINARY[op.text][1](a, b)
                operands.append((node, _limit(depth, max(ha, hb) + 1, op)))
            if not prec:
                return operands[0]
            ops.append(self.next())
            operands.append(self.unary(depth))

    def unary(self, depth: int) -> tuple:
        """unary, power and atom in one method, so that a parenthesised
        group costs two frames (expr, unary) of the parser's stack."""
        t = self.next()
        _limit(depth, 1, t)
        if t.kind == "op" and t.text == "-":
            e, h = self.unary(depth + 1)
            return Neg(e), h + 1
        if t.kind == "num":
            base, h = Num(float(t.text)), 1
        elif t.kind == "ident" and self.peek().kind == "op" and self.peek().text == "(":
            if t.text not in BUILTINS:
                raise UnknownIdentifierError(t.text, t.pos)
            self.next()
            args = [self.expr(depth + 1)]
            while self.peek().kind == "op" and self.peek().text == ",":
                self.next()
                args.append(self.expr(depth + 1))
            self.expect(")")
            if len(args) != 1:
                raise ExprSyntaxError(f"{t.text} takes exactly one argument", t.pos)
            base, h = Call(t.text, (args[0][0],)), args[0][1] + 1
        elif t.kind == "ident":
            if t.text not in self.var_index and t.text not in self.params:
                raise UnknownIdentifierError(t.text, t.pos)
            index = self.var_index.get(t.text)
            base, h = (Param(t.text) if index is None else Var(index, t.text)), 1
        elif t.kind == "op" and t.text == "(":
            base, h = self.expr(depth + 1)
            self.expect(")")
            h += 1
        else:
            raise ExprSyntaxError(f"unexpected token {t.text!r}", t.pos)
        t = self.peek()
        if t.kind == "op" and t.text == "^":
            self.next()
            expo, he = self.unary(depth + 1)
            return Pow(base, expo), _limit(depth, max(h, he) + 1, t)
        return base, h


def parse_expression(
    source: str, vars: Sequence[str], params: Iterable[str] = ()
) -> Expr:
    """Parse source into an Expr with identifiers resolved to Var/Param/builtin."""
    if len(set(vars)) != len(list(vars)):
        raise ValueError("variable names must be distinct")
    return _Parser(tokenize(source), vars, params).parse()


def parse_all(sources, vars: Sequence[str], params: Iterable[str] = ()) -> tuple:
    """Each source string parsed by parse_expression; an entry that is
    already an Expr is kept as it is."""
    return tuple(parse_expression(s, vars, params) if isinstance(s, str) else s for s in sources)


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
    """Terms I, J, K of the truncated product, mono[I[p]] + mono[J[p]] =
    mono[K[p]], and its summation matrix S (S[p, K[p]] = 1):
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
    return I, J, K, S


@lru_cache(maxsize=None)
def _quotient(n: int, order: int) -> np.ndarray:
    """Q[k, l]: the position of mono[k] - mono[l] in _monomials(n, order),
    or _size(n, order) where mono[l] does not divide mono[k].  With a zero
    slot after a series' coefficients, f[..., Q] is the matrix of the
    product by f, (f g)[k] = sum_l f[Q[k, l]] g[l], gathered."""
    I, J, K, _ = _product_table(n, order)
    s = _size(n, order)
    Q = np.full((s, s), s)
    Q[K, J] = I
    Q.flags.writeable = False
    return Q


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
    series f of the given order and g of order - 1: one block per product term."""
    I, J, K, S = _product_table(n, order - 1)
    T = np.zeros((n, S.shape[1], S.shape[1], _size(n, order)))
    T[:, I, K] = _derivative_table(n, order)[:, J]
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
    shape coef.shape[:-1]: indexing (without Ellipsis), transpose,
    broadcasting, +, -, *, / and @ (over the last two axes) act on whole
    series, truncated to the lower order; a float or array operand is a
    constant.  So a formula written for arrays, run on order-1 fields, also
    gives its exact first derivatives.  The value slot of +, -, * and / is
    the numpy ufunc of the operand values, bit for bit, whatever the higher
    coefficients hold, and at order 0 no rule computes a higher
    coefficient; @ is batched matmul, of two series through order 1
    only, by the product rule."""

    __array_ufunc__ = None  # numpy defers to the reflected operators

    def __init__(self, coef: np.ndarray, n: int, order: int):
        self.coef, self.n, self.order = coef, n, order

    @property
    def value(self) -> np.ndarray:
        return self.coef[..., 0]

    def __getitem__(self, index) -> "Taylor":
        return Taylor(self.coef[index], self.n, self.order)

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
        if order <= 1:
            coef = a * b[..., :1]
            if order:
                coef[..., 1:] += a[..., :1] * b[..., 1:]
            return Taylor(coef, self.n, order)
        I, J, _, S = _product_table(self.n, order)
        coef = (a[..., I] * b[..., J]) @ S
        coef[..., 0] = a[..., 0] * b[..., 0]
        return Taylor(coef, self.n, order)

    __rmul__ = __mul__

    def transpose(self, *axes) -> "Taylor":
        """The field axes permuted as ndarray.transpose(*axes) would, every
        field axis named."""
        return Taylor(self.coef.transpose(*axes, len(axes)), self.n, self.order)

    def __matmul__(self, other) -> "Taylor":
        if not isinstance(other, Taylor):
            # row a of f B is B^T f[a]: one batched matmul for every degree
            Bt = np.ascontiguousarray(np.swapaxes(other, -1, -2))
            return Taylor(Bt[..., None, :, :] @ self.coef, self.n, self.order)
        a, b, order = self._common(other)
        if order > 1:
            raise NotImplementedError("@ of two Taylor fields is defined through order 1")
        # (AB)_0 = A_0 B_0 and (AB)_d = A_0 B_d + A_d B_0
        AB, rest = a[..., 0] @ Taylor(b, self.n, order), Taylor(a, self.n, order) @ b[..., 0]
        AB.coef += rest.coef
        AB.coef[..., 0] = rest.value  # A_0 B_0 was added twice
        return AB

    def __rmatmul__(self, other) -> "Taylor":
        out = other @ self.coef.reshape(self.coef.shape[:-2] + (-1,))
        return Taylor(out.reshape(out.shape[:-1] + self.coef.shape[-2:]), self.n, self.order)

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
        if not self.order:
            return Taylor(v[..., None], self.n, 0)
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


def _tan_terms(v, f0, order: int) -> list:
    """tan' = 1 + tan^2 on the series a_k: a_0 = tan v, a_1 = 1 + a_0^2 and
    (k + 1) a_(k+1) = sum_(i=0..k) a_i a_(k-i) for k >= 1."""
    a = [f0, 1.0 + f0 * f0]
    for k in range(1, order):
        a.append(sum(a[i] * a[k - i] for i in range(k + 1)) / (k + 1))
    return a[1 : order + 1]


def _arctan_terms(v, f0, order: int) -> list:
    # arctan' = Im 1/(v - i) = Im ln'(v - i), so from the second on the
    # terms are the imaginary parts of ln's at v - i
    higher = [t.imag for t in _ln_terms(v - 1j, None, order)[1:]]
    return ([1.0 / (1.0 + v * v)] + higher)[:order]


# builtin -> (ufunc of the value, series terms)
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

# ---------------------------------------------------------------------------
# Tapes
# ---------------------------------------------------------------------------


def _series_call(name: str):
    f, terms = _FN_TABLE[name]

    def call(x: Taylor) -> Taylor:
        v = x.value
        f0 = f(v)
        if not x.order:
            return Taylor(f0[..., None], x.n, 0)
        return x.compose(f0, terms(v, f0, x.order))

    return call


def _series_power(x: Taylor, c: float) -> Taylor:
    """x^c for a literal non-integer exponent c (x > 0 is checked before)."""
    v = x.value
    f0 = np.power(v, c)
    if not x.order:
        return Taylor(f0[..., None], x.n, 0)
    return x.compose(f0, _power_terms(v, c * np.power(v, c - 1.0), c, x.order))


# instruction name -> its function on series; at run time at least one
# operand is a series, the other may be a float constant.  A result's value
# slot is the ufunc of the operand values (see Taylor), so every order gives
# the bits of order 0, the values.
_INSTRUCTIONS = {
    "add": operator.add,
    "sub": operator.sub,
    "mul": operator.mul,
    "div": operator.truediv,
    "neg": operator.neg,
    "pow": _series_power,
    **{name: _series_call(name) for name in _FN_TABLE},
}

_CHECKS = {
    "positive": lambda v: v > 0.0,
    "nonzero": lambda v: v != 0.0,
}

_POINTS, _SINK = 0, 1  # registers: the point batch, and the target of checks


def _check(holds, node: Expr, what: str):
    """Instruction raising DomainError at the first point where holds(value)
    fails, the first point of a non-empty batch for a constant that fails."""

    def check(x, points):
        ok = holds(x.value if isinstance(x, Taylor) else x)
        if not np.all(ok) and len(points):
            raise DomainError(to_source(node), points[int(np.argmin(ok))], what)

    return check


def _execute(code: tuple, regs: list):
    with np.errstate(all="ignore"):
        for fn, dst, a, b in code:
            regs[dst] = fn(regs[a]) if b is None else fn(regs[a], regs[b])


class Tape:
    """Expressions compiled into one straight-line program in SSA form.

    Built by compile_tape; run on truncated Taylor series of any order by
    eval_series, and at order 0, whose series are the values, by
    eval_scalar_many.  Every instruction is (function on series,
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

    def _series(self, points: np.ndarray, order: int) -> np.ndarray:
        """Taylor coefficients of every output at points (m, n) up to the
        given order: shape (m, k, size), laid out as Taylor.coef, a view of
        a (k, m, size) block written one output at a time.  Variable u_i is
        seeded as the series u_i + e_i."""
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
        _execute(self.code, regs)
        out = np.zeros((len(self.outputs), m, size))
        for o, reg in enumerate(self.outputs):
            r = regs[reg]
            if isinstance(r, Taylor):
                out[o] = r.coef
            else:
                out[o, :, 0] = r
        if not np.isfinite(out).all():
            # DomainError names the first output with a non-finite
            # coefficient, at its first such point of the lowest such degree
            for o, e in enumerate(self.exprs):
                for q in range(order + 1):
                    bad = ~np.isfinite(out[o, :, _size(n, q - 1) : _size(n, q)]).all(axis=1)
                    if bad.any():
                        raise DomainError(to_source(e), points[int(np.argmax(bad))], "non-finite value")
        return out.transpose(1, 0, 2)


class _Compiler:
    """Value numbering over the expression trees: every instruction is keyed
    by its name and operand registers, so equal subexpressions anywhere in
    the tape share one register, and an instruction whose operands are all
    constants is folded on the spot.  reads counts the variables and params
    read and the constant checks that fail: a subtree that leaves it
    unchanged has compiled to a constant without emitting an instruction."""

    def __init__(self):
        self.registers = [None, None]  # _POINTS, _SINK
        self.code = []
        self.numbers = {}  # instruction key -> register
        self.consts = {}  # register -> float
        self.variables = []
        self.reads = 0

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
        self.reads += 1
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
        fn = _INSTRUCTIONS[name]
        if a in self.consts and (b is None or b in self.consts):
            # the instruction on a one-point series of order 0, so the folded
            # constant has the bits evaluation would give
            x = Taylor(np.array([[self.consts[a]]]), 1, 0)
            reg = self.const((fn(x) if b is None else fn(x, self.consts[b])).value[0])
        else:
            reg = self._register()
            self.code.append((fn, reg, a, b))
        self.numbers[key] = reg
        return reg

    def check(self, kind: str, a: int, node: Expr, what: str):
        """A domain check on register a: only the first of a kind on a register
        is kept, and one on a constant only when the constant fails it."""
        holds = _CHECKS[kind]
        fails = a in self.consts and not holds(self.consts[a])
        self.reads += fails
        key = (kind, a)
        if key in self.numbers:
            return
        self.numbers[key] = _SINK
        if a not in self.consts or fails:
            self.code.append((_check(holds, node, what), _SINK, a, _POINTS))

    def expr(self, e: Expr, params: Mapping[str, float]) -> int:
        if isinstance(e, Num):
            return self.const(e.value)
        if isinstance(e, Var):
            return self.var(e.index)
        if isinstance(e, Param):
            self.reads += 1
            if e.name not in params:
                raise UnknownIdentifierError(e.name)
            return self.const(params[e.name])
        if isinstance(e, Neg):
            return self.op("neg", self.expr(e.a, params))
        if isinstance(e, (Add, Sub, Mul, Div)):
            a, b = self.expr(e.a, params), self.expr(e.b, params)
            if isinstance(e, Div):
                self.check("nonzero", b, e, "division by zero")
            return self.op(type(e).__name__.lower(), a, b)
        if isinstance(e, Pow):
            return self.power(e, params)
        if isinstance(e, Call):
            arg = self.expr(e.args[0], params)
            if e.fn in _POSITIVE_DOMAIN:
                self.check("positive", arg, e, f"{e.fn} of non-positive value")
            return self.op(e.fn, arg)
        raise TypeError(f"not an Expr: {e!r}")

    def power(self, e: Pow, params: Mapping[str, float]) -> int:
        """Repeated multiplications when the exponent compiles to an integer
        leaving reads unchanged (so it emitted no code), else exp(expo *
        ln(base)); the base check comes first and is taken back if integer."""
        base = self.expr(e.base, params)
        key, code, reads = ("positive", base), len(self.code), self.reads
        fresh = key not in self.numbers
        self.check("positive", base, e, "non-integer power of non-positive base")
        checked = self.reads
        expo = self.expr(e.expo, params)
        if self.reads == checked and expo in self.consts and self.consts[expo].is_integer():
            del self.code[code:]
            self.reads = reads
            if fresh:
                del self.numbers[key]
            k = int(self.consts[expo])
            if k < 0:
                self.check("nonzero", base, e, "division by zero")
            return self.int_power(base, k)
        if isinstance(e.expo, Num):
            return self.op("pow", base, expo)
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


def _run(e, points: np.ndarray, order: int, params: Mapping[str, float]) -> np.ndarray:
    """eval_series, private so that a tracer wrapping the public functions
    (perfbench/tracing.py) books eval_scalar_many's order-0 run to
    eval_scalar_many."""
    points = np.asarray(points, dtype=float)
    tape = e if isinstance(e, Tape) else compile_tape(((e,), params))
    coef = tape._series(points.reshape(-1, points.shape[-1]), order)
    shape = points.shape[:-1] + ((len(tape.outputs),) if isinstance(e, Tape) else ())
    return coef.reshape(shape + coef.shape[-1:])


def eval_scalar_many(e, points: np.ndarray, params: Mapping[str, float] = {}) -> np.ndarray:
    """Values at points (..., n), the series of order 0.  e is a Tape,
    giving shape (..., k) over its k outputs, or a bare Expr, compiled with
    params into a one-output tape and giving shape (...).  A Tape's params
    were bound when it was compiled."""
    return _run(e, points, 0, params)[..., 0]


def eval_series(e, points: np.ndarray, order: int, params: Mapping[str, float] = {}) -> np.ndarray:
    """Taylor coefficients up to the given order at points (..., n): the
    last axis is Taylor.coef's, d^a f / a! for the multi-indices a of
    _monomials(n, order).  e is a Tape, whose outputs add an axis after the
    batch axes, or a bare Expr, compiled with params into a one-output
    tape."""
    return _run(e, points, order, params)
