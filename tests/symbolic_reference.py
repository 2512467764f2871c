"""Symbolic differentiation of exprlang expressions: an independent
reference for the tapes' series kernel, which the tests compare against.
It differentiates the expression tree itself, with trivial zero/one
folding only, so it shares no code with the Taylor arithmetic."""

from __future__ import annotations

from eigenframe.exprlang import Add, Call, Div, Expr, Mul, Neg, Num, Param, Pow, Sub, Var

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

