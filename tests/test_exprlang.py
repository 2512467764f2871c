"""Tokenizer, parser, and tape-evaluation tests, including the
finite-difference oracle for gradients and Hessians and the symbolic
reference for Taylor series."""

from __future__ import annotations

import math
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import jets
from symbolic_reference import differentiate

from eigenframe import exprlang as ex
from eigenframe.errors import (
    DomainError,
    ExprSyntaxError,
    IllegalCharacterError,
    UnknownIdentifierError,
)

VARS3 = ["u1", "u2", "u3"]


def parse(src, vars=VARS3, params=()):
    return ex.parse_expression(src, vars, params)


# ---------------------------------------------------------------------------
# tokenizer
# ---------------------------------------------------------------------------


def test_tokenize_power_expression():
    kinds = [(t.kind, t.text) for t in ex.tokenize("u1^2/2")[:-1]]
    assert kinds == [
        ("ident", "u1"),
        ("op", "^"),
        ("num", "2"),
        ("op", "/"),
        ("num", "2"),
    ]


def test_tokenize_call_with_unary_minus():
    kinds = [(t.kind, t.text) for t in ex.tokenize("exp(-u3)")[:-1]]
    assert kinds == [
        ("ident", "exp"),
        ("op", "("),
        ("op", "-"),
        ("ident", "u3"),
        ("op", ")"),
    ]


def test_tokenize_illegal_character_offset():
    with pytest.raises(IllegalCharacterError) as err:
        ex.tokenize("u1 @ 2")
    assert err.value.offset == 3


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def test_parse_structure():
    e = parse("(u1+u2)/(u1*u2)")
    assert isinstance(e, ex.Div)
    assert isinstance(e.a, ex.Add)
    assert isinstance(e.b, ex.Mul)


def test_unknown_identifier():
    with pytest.raises(UnknownIdentifierError) as err:
        ex.parse_expression("K*(1+g^2)", VARS3, {"K"})
    assert err.value.name == "g"


def test_misuse_is_refused():
    """Repeated variable names, a param without a value, a non-Expr and @ of
    two series above order 1 raise."""
    with pytest.raises(ValueError):
        ex.parse_expression("u1", ["u1", "u1"])
    with pytest.raises(UnknownIdentifierError):
        ex.compile_tape(((parse("K*u1", params={"K"}),), {}))
    for fn in (ex.to_source, lambda e: ex.compile_tape(((e,), {}))):
        with pytest.raises(TypeError):
            fn("u1")
    s = ex.Taylor(np.zeros((2, 2, ex._size(3, 2))), 3, 2)
    with pytest.raises(NotImplementedError):
        s @ s


def test_eigenvalue_style_expression_parses():
    e = ex.parse_expression(
        "sqrt(gamma)*exp(S/2)*v^(-(gamma+1)/2)", ["v", "u", "S"], {"gamma"}
    )
    val = ex.eval_scalar_many(e, [2.0, 0.0, 1.0], {"gamma": 1.4})
    expected = np.sqrt(1.4) * np.exp(0.5) * 2.0 ** (-1.2)
    assert val == pytest.approx(expected, rel=1e-14)


def test_unary_minus_binds_looser_than_power():
    e = parse("-u1^2")
    assert isinstance(e, ex.Neg)
    assert isinstance(e.a, ex.Pow)
    assert ex.eval_scalar_many(e, [3.0, 0.0, 0.0]) == -9.0


def test_power_right_associative():
    e = parse("u1^2^3")
    assert ex.eval_scalar_many(e, [2.0, 0.0, 0.0]) == 2.0 ** 8


@pytest.mark.parametrize("src, error, message, position", [
    ("u1 + * u2", ExprSyntaxError, "unexpected token '*' (at position 5)", 5),
    ("sin(u1, u2)", ExprSyntaxError, "sin takes exactly one argument (at position 0)", 0),
    ("(u1", ExprSyntaxError, "expected ')', found '' (at position 3)", 3),
    ("u1 u2", ExprSyntaxError, "unexpected trailing input 'u2' (at position 3)", 3),
    ("foo(u1)", UnknownIdentifierError, "unknown identifier 'foo'", 0),
], ids=["operator-for-operand", "two-arguments", "unclosed", "trailing", "unknown-function"])
def test_syntax_error_position(src, error, message, position):
    with pytest.raises(error) as err:
        parse(src)
    assert type(err.value) is error
    assert str(err.value) == message
    assert err.value.position == position


@pytest.mark.parametrize("src, position", [
    ("(" * 600 + "u1" + ")" * 600, 400),
    ("+".join(["u1"] * 2000), 1199),
    ("u1" + "^2" * 600, 801),
    ("(" * ex.MAX_DEPTH + "u1" + ")" * ex.MAX_DEPTH, ex.MAX_DEPTH),
], ids=["parentheses", "sum", "powers", "one-level-too-deep"])
def test_depth_limit_raises_at_offending_token(src, position):
    """Parentheses are levels the parser recurses through, a long sum is
    built in a loop but compiled recursively; either is cut at the token
    that passes MAX_DEPTH, and MAX_DEPTH levels still parse."""
    with pytest.raises(ExprSyntaxError) as err:
        parse(src)
    assert err.value.position == position
    parse("(" * (ex.MAX_DEPTH - 1) + "u1" + ")" * (ex.MAX_DEPTH - 1))


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def test_eval_scalar_basics():
    assert ex.eval_scalar_many(parse("ln(u3)"), [1.0, 1.0, 1.0]) == 0.0
    assert ex.eval_scalar_many(parse("u1*u2"), [2.0, 3.0, 0.0]) == 6.0


def test_eval_scalar_division_by_zero():
    with pytest.raises(DomainError):
        ex.eval_scalar_many(parse("u1/u2"), [1.0, 0.0, 0.0])


def test_eval_scalar_log_domain():
    with pytest.raises(DomainError):
        ex.eval_scalar_many(parse("ln(u1)"), [-1.0, 0.0, 0.0])
    with pytest.raises(DomainError):
        ex.eval_scalar_many(parse("sqrt(u1)"), [0.0, 0.0, 0.0])


def test_integer_power_of_negative_base():
    assert ex.eval_scalar_many(parse("u1^3"), [-2.0, 0.0, 0.0]) == -8.0
    assert ex.eval_scalar_many(parse("u1^-2"), [-2.0, 0.0, 0.0]) == 0.25
    with pytest.raises(DomainError):
        ex.eval_scalar_many(parse("u1^0.5"), [-2.0, 0.0, 0.0])


@pytest.mark.parametrize("src, u1, expected", [
    ("u1^(2^3)", -2.0, 256.0),
    ("u1^-(1+1)", -2.0, 0.25),
    # the tape folds (1/-27)^-2 to 729.0 exactly (Python's ** gives 729.0000000000001)
    ("u1^((1/-(27))^-2)", -1.0, -1.0),
])
def test_folded_integer_exponent_accepts_negative_base(src, u1, expected):
    e = parse(src)
    point = np.array([[u1, 0.0, 0.0]])
    assert ex.eval_scalar_many(e, point)[0] == expected
    assert ex.eval_series(e, point, 2)[0, 0] == expected


def test_deep_constant_exponent_chain_compiles_fast():
    """Each exponent is compiled once, in the one pass over the tree, and
    decided an integer or not as it compiles.  18 levels run first, so that
    a compile time exponential in the depth fails before 200 levels would
    hang."""
    for depth in (18, 200):
        e = parse("u1^" + "0.5^" * depth + "(1+1)")
        start = time.perf_counter()
        ex.compile_tape(((e,), {}))
        assert time.perf_counter() - start < 1.0, depth


def test_deep_constant_exponent_chain_fits_the_stack():
    """The compiler folds each exponent in the same recursion that compiles
    it, two frames a level, so it needs no deeper stack than the parser
    does."""
    e = parse("u1^" + "0.5^" * 350 + "(1+1)")
    tape = ex.compile_tape(((e,), {}))
    assert ex.eval_scalar_many(tape, [[2.0, 0.0, 0.0]])[0, 0] > 0.0


def test_repr_of_deepest_tree_is_its_source():
    """repr() of a node is its source text, so it reaches the deepest tree
    the parser accepts, as to_source does."""
    src = "u1^" + "0.5^" * (ex.MAX_DEPTH - 2) + "2"
    e = parse(src)
    assert repr(e) == f"Pow({ex.to_source(e)!r})"
    assert repr(ex.Num(2.0)) == "Num('2.0')"
    with pytest.raises(ExprSyntaxError):
        parse("u1^0.5^" + src[3:])


def test_equality_and_hash_of_deepest_tree():
    """== on two parses of a MAX_DEPTH chain raised RecursionError (the
    dataclass __eq__ recursed); equality and hashing walk the tree with a
    stack and keep the dataclass semantics."""
    src = "u1^" + "0.5^" * (ex.MAX_DEPTH - 2) + "2"
    a, b = parse(src), parse(src)
    other = parse(src[:-1] + "3")
    assert a is not b and a == b and not a != b and hash(a) == hash(b)
    assert a != other and not a == other
    assert {a: 1}[b] == 1
    assert ex.Num(1.0) == ex.Num(1) and hash(ex.Num(1.0)) == hash(ex.Num(1))
    assert ex.Add(ex.Num(1.0), ex.Num(2.0)) != ex.Sub(ex.Num(1.0), ex.Num(2.0))
    assert parse("sin(u1)*u2") == parse("sin(u1)*u2") != parse("cos(u1)*u2")
    assert hash(parse("sin(u1)*u2")) == hash(parse("sin(u1)*u2"))


def test_jet_product_example():
    value, grad, hess = jets(parse("u1*u2"), np.array([2.0, 3.0, 5.0]))
    assert value == 6.0
    assert np.allclose(grad, [3.0, 2.0, 0.0])
    expected = np.zeros((3, 3))
    expected[0, 1] = expected[1, 0] = 1.0
    assert np.array_equal(hess, expected)


def test_jet_log_example():
    value, grad, hess = jets(parse("ln(u3)"), np.array([1.0, 1.0, 2.0]))
    assert value == pytest.approx(np.log(2.0))
    assert grad[2] == pytest.approx(0.5)
    assert hess[2, 2] == pytest.approx(-0.25)


RANDOM_SOURCES = [
    "u1^2/2 + u2*u3 - 3*u1",
    "exp(-u3)*sin(u1) + cos(u2)^2",
    "sqrt(u1+2)*ln(u2+3)",
    "(u1+u2)/(u3+2) + arctan(u1*u2)",
    "tan(u1/4) + u2^3*u3",
    "u1^(-(3)/2) * exp(u2/5)",
    "1/(1+u1^2) - u2/(u3+4)",
]


def _fd_grad_hess(e, p, h=1e-5):
    n = len(p)
    grad = np.zeros(n)
    hess = np.zeros((n, n))
    f0 = ex.eval_scalar_many(e, p)
    for i in range(n):
        pp, pm = p.copy(), p.copy()
        pp[i] += h
        pm[i] -= h
        fp, fm = ex.eval_scalar_many(e, pp), ex.eval_scalar_many(e, pm)
        grad[i] = (fp - fm) / (2 * h)
        hess[i, i] = (fp - 2 * f0 + fm) / h**2
    for i in range(n):
        for j in range(i + 1, n):
            q = p.copy()
            q[i] += h
            q[j] += h
            fpp = ex.eval_scalar_many(e, q)
            q[j] -= 2 * h
            fpm = ex.eval_scalar_many(e, q)
            q[i] -= 2 * h
            fmm = ex.eval_scalar_many(e, q)
            q[j] += 2 * h
            fmp = ex.eval_scalar_many(e, q)
            hess[i, j] = hess[j, i] = (fpp - fpm - fmp + fmm) / (4 * h**2)
    return grad, hess


def test_jets_match_finite_differences_on_100_random_cases():
    rng = np.random.default_rng(42)
    worst = 0.0
    cases = 0
    while cases < 100:
        src = RANDOM_SOURCES[cases % len(RANDOM_SOURCES)]
        e = parse(src)
        p = rng.uniform(0.3, 1.7, size=3)
        _, grad, hess = jets(e, p)
        g_fd, h_fd = _fd_grad_hess(e, p)
        scale = 1.0 + np.abs(grad).max() + np.abs(hess).max()
        worst = max(
            worst,
            np.abs(grad - g_fd).max() / scale,
            np.abs(hess - h_fd).max() / scale,
        )
        cases += 1
    assert worst < 1e-5


def test_jet_value_matches_scalar_bit_for_bit():
    pts = np.random.default_rng(7).uniform(0.4, 1.6, size=(40, 3))
    for src in RANDOM_SOURCES:
        e = parse(src)
        sv = ex.eval_scalar_many(e, pts)
        jv = ex.eval_series(e, pts, 2)[..., 0]
        assert np.array_equal(sv, jv)


def test_hessian_stored_symmetric_exactly():
    pts = np.random.default_rng(3).uniform(0.4, 1.6, size=(25, 3))
    for src in RANDOM_SOURCES:
        _, _, hess = jets(parse(src), pts)
        assert np.array_equal(hess, np.swapaxes(hess, -1, -2))


# ---------------------------------------------------------------------------
# property tests
# ---------------------------------------------------------------------------

_leaf = st.sampled_from(
    ["u1", "u2", "u3", "2", "0.5", "3", "K"]
)
_unop = st.sampled_from(["sin", "cos", "exp", "arctan"])
# the param K of generated sources; as an exponent it keeps the exp/ln power
K_PARAMS = {"K": 1.5}
PROPERTY_POINTS = np.array([[0.7, 1.1, 0.4], [1.3, 0.6, 0.9], [0.45, 1.25, 1.05]])


@st.composite
def _expr_source(draw, depth=0):
    """Sources over u1..u3 and K that stay in the smooth domain: divisors,
    ln and sqrt arguments and non-integer power bases are kept positive."""
    if depth > 2 or draw(st.booleans()):
        return draw(_leaf)
    kind = draw(st.integers(0, 8))
    a = draw(_expr_source(depth=depth + 1))
    if kind == 0:
        b = draw(_expr_source(depth=depth + 1))
        op = draw(st.sampled_from(["+", "-", "*"]))
        return f"({a}{op}{b})"
    if kind == 1:
        return f"{draw(_unop)}({a})"
    if kind == 2:
        return f"(({a})/(4+u2^2))"
    if kind == 3:
        b = draw(_expr_source(depth=depth + 1))
        return f"(({a})/(1+({b})^2))"
    if kind == 4:
        return f"sqrt(1+({a})^2)"
    if kind == 5:
        return f"ln(1+({a})^2)"
    if kind == 6:
        return f"(2+sin({a}))^K"
    if kind == 7:
        return draw(st.sampled_from([f"({a})^3", f"(2+cos({a}))^-2", f"(1+({a})^2)^0.5"]))
    return f"-({a})"


def parse_k(src):
    return parse(src, params=K_PARAMS)


@given(_expr_source(), _expr_source())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_jet_multiplication_satisfies_product_rule(src_a, src_b):
    """The Taylor product of two series is the series of the product."""
    ea, eb = parse_k(src_a), parse_k(src_b)
    pts = np.array([[0.7, 1.1, 0.4], [1.3, 0.6, 0.9]])
    sa, sb = (ex.Taylor(ex.eval_series(e, pts, 3, K_PARAMS), 3, 3) for e in (ea, eb))
    sab = ex.eval_series(ex.Mul(ea, eb), pts, 3, K_PARAMS)
    assert np.allclose((sa * sb).coef, sab, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_quotient_gathers_the_multiplication_matrix(n):
    """Column l of a series' coefficients, with a zero slot appended,
    gathered through _quotient is the Taylor product with the unit series
    e_l, at orders 1 to 3."""
    rng = np.random.default_rng(n)
    for order in range(1, 4):
        size = ex._size(n, order)
        a = rng.standard_normal((2, size))
        matrix = np.concatenate([a, np.zeros((2, 1))], axis=1)[:, ex._quotient(n, order)]
        for l, e in enumerate(np.eye(size)):
            assert (matrix[..., l] == (ex.Taylor(a, n, order) * ex.Taylor(e, n, order)).coef).all()


@given(_expr_source())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_pretty_print_round_trip(src):
    e = parse_k(src)
    again = parse_k(ex.to_source(e))
    assert again == e


# ---------------------------------------------------------------------------
# tapes
# ---------------------------------------------------------------------------


def _all_equal(x, y):
    return all(np.array_equal(a, b) for a, b in zip(x, y))


@given(_expr_source())
@settings(max_examples=80, deadline=None, derandomize=True)
def test_tape_kernels_agree_bit_for_bit(src):
    """The one series kernel gives the same values at orders 0 (the values),
    1 and 2, the same gradients at orders 1 and 2, and exactly symmetric
    Hessians."""
    tape = ex.compile_tape(((parse_k(src),), K_PARAMS))
    vals = ex.eval_scalar_many(tape, PROPERTY_POINTS)
    value1, grad1 = jets(tape, PROPERTY_POINTS, order=1)
    value2, grad2, hess = jets(tape, PROPERTY_POINTS)
    assert np.array_equal(vals, value1) and np.array_equal(vals, value2)
    assert np.array_equal(grad1, grad2)
    assert np.array_equal(hess, np.swapaxes(hess, -1, -2))


@given(_expr_source(), _expr_source())
@settings(max_examples=80, deadline=None, derandomize=True)
def test_tape_compiled_together_equals_compiled_alone(src_a, src_b):
    """Sharing registers and constants between expressions changes no bit."""
    ea, eb = parse_k(src_a), parse_k(src_b)
    both = ex.compile_tape(((ea, eb), K_PARAMS))
    alone = [ex.compile_tape(((e,), K_PARAMS)) for e in (ea, eb)]
    vals = ex.eval_scalar_many(both, PROPERTY_POINTS)
    jet = jets(both, PROPERTY_POINTS)
    for i, tape in enumerate(alone):
        assert np.array_equal(vals[:, i], ex.eval_scalar_many(tape, PROPERTY_POINTS)[:, 0])
        one = jets(tape, PROPERTY_POINTS)
        assert _all_equal([a[:, i] for a in jet], [a[:, 0] for a in one])


def test_bare_expression_matches_its_tape():
    e = parse_k("(2+sin(u1*u2))^K/(1+u3^2)")
    tape = ex.compile_tape(((e,), K_PARAMS))
    assert np.array_equal(
        ex.eval_scalar_many(e, PROPERTY_POINTS, K_PARAMS),
        ex.eval_scalar_many(tape, PROPERTY_POINTS)[:, 0],
    )
    bare, taped = jets(e, PROPERTY_POINTS, params=K_PARAMS), jets(tape, PROPERTY_POINTS)
    assert _all_equal(bare, [a[:, 0] for a in taped])


@pytest.mark.parametrize("x", [0.7312, 1.9])
@pytest.mark.parametrize("src", [
    "X + 0.3", "X - 0.3", "0.3 - X", "X*0.3", "X/0.3", "0.3/X", "-X",
    *(f"{fn}(X)" for fn in ex.BUILTINS), "X^0.3", "X^7", "X^-3",
])
def test_folded_constant_has_the_bits_of_evaluation(src, x):
    """Every instruction folds a constant operand to the bits it gives on a
    variable holding that value: each binary operation (the constant on
    either side), negation, each builtin, a literal non-integer power and
    integer powers by repeated multiplication."""
    folded = ex.compile_tape(((parse(src.replace("X", repr(x))),), {}))
    assert not folded.code
    evaluated = ex.eval_scalar_many(parse(src.replace("X", "u1")), [x, 0.0, 0.0])
    assert folded.registers[folded.outputs[0]].hex() == float(evaluated).hex()


def test_gas_frame_shares_the_sound_speed_product(corpus_cases):
    """In ex6.1b, sqrt(gamma)*exp(S/2)*v^(-(gamma+1)/2) is the frame entry
    R^2_1 and the third speed: one register, written by one instruction, and
    the speed candidate adds no instruction to the frame's tape."""
    from eigenframe.geometry import frame_tape

    case = corpus_cases["ex6.1b"]
    lam = next(c for k, c in case.candidates if k == "lambda")
    product = ex.parse_expression(
        "sqrt(gamma)*exp(S/2)*v^(-(gamma+1)/2)", case.spec.vars, case.spec.params)
    assert case.spec.columns[0][1] == product == lam.exprs[2]
    tape = frame_tape(case.spec, lam)
    reg = tape.outputs[1 * 3 + 0]  # row a=1, column j=0
    assert tape.outputs[9 + 2] == reg
    assert sum(1 for *_, dst, a, b in tape.code if dst == reg) == 1
    assert len(tape.code) == len(case.spec.tape.code)


def test_spec_and_candidates_compile_once(corpus_cases, monkeypatch):
    """A frame or candidate evaluated many times is compiled once."""
    from eigenframe import corpus as corpus_mod
    from eigenframe import systems as sy

    calls = []
    original = ex.compile_tape

    def counting(*blocks):
        calls.append(blocks)
        return original(*blocks)

    monkeypatch.setattr(ex, "compile_tape", counting)
    case = corpus_mod.load_example(corpus_cases["ex6.1b"].path)
    from eigenframe import geometry as g

    for seed in range(4):
        conn = g.eval_connection(case.spec, case.spec.sample_points(20, seed))
        for kind, cand in case.candidates:
            (sy.beta_residual if kind == "beta" else sy.lambda_residual)(conn, cand)
    assert len(calls) == 1 + len(case.candidates)


# the reference messages are those of the recursive interpreter this tape
# evaluator replaced; each violation sits at the second point
DOMAIN_MESSAGES = [
    ("ln(u1)", [-1.0, 2.0, 3.0], {},
     "domain violation in 'ln(u1)' at point [-1.  2.  3.]: ln of non-positive value"),
    ("sqrt(u1)", [0.0, 2.0, 3.0], {},
     "domain violation in 'sqrt(u1)' at point [0. 2. 3.]: sqrt of non-positive value"),
    ("u1/u2", [1.0, 0.0, 1.0], {},
     "domain violation in 'u1/u2' at point [1. 0. 1.]: division by zero"),
    ("u1^-2", [0.0, 1.0, 1.0], {},
     "domain violation in 'u1^-2.0' at point [0. 1. 1.]: division by zero"),
    ("u1^0.5", [-2.0, 1.0, 1.0], {},
     "domain violation in 'u1^0.5' at point [-2.  1.  1.]: "
     "non-integer power of non-positive base"),
    ("u1^K", [-2.0, 1.0, 1.0], {"K": 2.0},
     "domain violation in 'u1^K' at point [-2.  1.  1.]: "
     "non-integer power of non-positive base"),
    ("exp(800*u1)", [1.0, 1.0, 1.0], {},
     "domain violation in 'exp(800.0*u1)' at point [1. 1. 1.]: non-finite value"),
    # constant exponents whose folding fails a check are general powers, and
    # the check reports at the first point (the base is positive everywhere)
    ("exp(u1)^(1/(1/0))", [1.0, 1.0, 1.0], {},
     "domain violation in '1.0/0.0' at point [0.5 1.5 1. ]: division by zero"),
    ("exp(u1)^(0^-1)", [1.0, 1.0, 1.0], {},
     "domain violation in '0.0^-1.0' at point [0.5 1.5 1. ]: division by zero"),
    # a general power checks its base before its exponent: a point that
    # fails both names the power, and so does a check the exponent repeats
    ("(1-u1)^(1/(u2-1))", [2.0, 1.0, 1.0], {},
     "domain violation in '(1.0 - u1)^(1.0/(u2 - 1.0))' at point [2. 1. 1.]: "
     "non-integer power of non-positive base"),
    ("u2^sqrt(sqrt(u2))", [1.0, -1.0, 1.0], {},
     "domain violation in 'u2^sqrt(sqrt(u2))' at point [ 1. -1.  1.]: "
     "non-integer power of non-positive base"),
]


@pytest.mark.parametrize("src, bad, params, message", DOMAIN_MESSAGES)
def test_domain_error_messages_pinned(src, bad, params, message):
    e = parse(src, params=tuple(params))
    pts = np.array([[0.5, 1.5, 1.0], bad, [0.0, 0.0, 0.0]])
    runs = [
        lambda: ex.eval_scalar_many(e, pts, params),
        lambda: ex.eval_series(e, pts, 2, params),
        lambda: ex.eval_series(e, pts, 1, params),
    ]
    for run in runs:
        with pytest.raises(DomainError) as err:
            run()
        assert str(err.value) == message


# exp(709*u1) is finite at [1, 1, 1] (8.2e307), but its symbolic derivative and
# its order-1 series are not; each violation sits at the second point
DERIVATIVE_DOMAIN_MESSAGES = [
    (lambda e, pts: ex.eval_scalar_many(differentiate(e, 0), pts),
     "domain violation in 'exp(709.0*u1)*709.0' at point [1. 1. 1.]: non-finite value"),
    (lambda e, pts: ex.eval_series(e, pts, 1),
     "domain violation in 'exp(709.0*u1)' at point [1. 1. 1.]: non-finite value"),
]


@pytest.mark.parametrize("run, message", DERIVATIVE_DOMAIN_MESSAGES, ids=["tape", "jets"])
def test_derivative_domain_error_messages_pinned(run, message):
    e = parse("exp(709*u1)")
    pts = np.array([[0.5, 1.5, 1.0], [1.0, 1.0, 1.0], [0.0, 0.0, 0.0]])
    assert np.isfinite(ex.eval_scalar_many(e, pts)).all()
    with pytest.raises(DomainError) as err:
        run(e, pts)
    assert str(err.value) == message


def _reference_series(exprs, params, points, order):
    """Taylor coefficients of exprs by nested symbolic differentiation,
    shape (m, k, size): d^a e / a! for the multi-indices a of order."""
    n = points.shape[1]
    mono = ex._monomials(n, order)
    derivs = []
    for e in exprs:
        d = {(): e}
        for t in mono[1:]:
            d[t] = differentiate(d[t[:-1]], t[-1])
        derivs.extend(d[t] for t in mono)
    vals = ex.eval_scalar_many(ex.compile_tape((tuple(derivs), params)), points)
    factorials = np.array([math.prod(math.factorial(t.count(b)) for b in set(t)) for t in mono])
    return vals.reshape(len(points), len(exprs), len(mono)) / factorials


def _series_gap(series, reference):
    """Largest coefficient error of each output over 1 + its largest
    reference coefficient."""
    m, k = reference.shape[:2]
    err = np.abs(series - reference).reshape(m, k, -1).max(axis=(0, 2))
    return float((err / (1.0 + np.abs(reference).reshape(m, k, -1).max(axis=(0, 2)))).max())


@given(_expr_source())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_series_matches_nested_symbolic_derivatives(src):
    """The series kernel against nested differentiate through order 3."""
    e = parse_k(src)
    tape = ex.compile_tape(((e,), K_PARAMS))
    series = ex.eval_series(tape, PROPERTY_POINTS, 3)
    assert _series_gap(series, _reference_series((e,), K_PARAMS, PROPERTY_POINTS, 3)) < 1e-13


@pytest.mark.parametrize("src", RANDOM_SOURCES + ["u1^1.5*sqrt(u2) + tan(u3*u1)", "arctan(u1 - u2*u3)"])
def test_series_of_every_builtin_matches_to_order_4(src):
    e = parse(src)
    pts = PROPERTY_POINTS + 0.2
    series = ex.eval_series(e, pts, 4)[:, None]
    assert _series_gap(series, _reference_series((e,), {}, pts, 4)) < 1e-13


def test_frame_series_matches_nested_symbolic_derivatives(corpus_cases):
    """Order-4 series of every n = 3 corpus frame against nested
    differentiate: the derivatives the classifier reads."""
    for cid, case in corpus_cases.items():
        spec = case.spec
        if spec.n != 3:
            continue
        pts = spec.sample_points(12)
        series = ex.eval_series(spec.tape, pts, 4)
        reference = _reference_series(spec.tape.exprs, spec.params, pts, 4)
        assert _series_gap(series, reference) < 1e-13, cid


def test_symbolic_derivative_matches_jet_gradient():
    pts = np.random.default_rng(11).uniform(0.4, 1.5, size=(30, 3))
    for src in RANDOM_SOURCES:
        e = parse(src)
        _, grad, _ = jets(e, pts)
        for i in range(3):
            de = differentiate(e, i)
            vals = ex.eval_scalar_many(de, pts)
            assert np.allclose(vals, grad[:, i], rtol=1e-12, atol=1e-12)


def test_second_symbolic_derivative_matches_jet_hessian():
    pts = np.random.default_rng(13).uniform(0.5, 1.4, size=(20, 3))
    e = parse("exp(u1*u2)/(u3+2) + sin(u2)^2")
    _, _, hess = jets(e, pts)
    for i in range(3):
        for j in range(3):
            dij = differentiate(differentiate(e, i), j)
            assert np.allclose(
                ex.eval_scalar_many(dij, pts), hess[:, i, j], rtol=1e-10, atol=1e-11
            )
