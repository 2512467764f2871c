"""The CLI's error contract under generated inputs: any frame from the
expression grammar (docs/grammar.md), any chart, closed forms on either
candidate kind, any box and any flag values end in an exit code 0-3, with
exactly one stderr line on a nonzero exit, no traceback and no warning."""

from __future__ import annotations

import contextlib
import io
import json
import os
import tempfile
import warnings
from pathlib import Path
from unittest import mock

from hypothesis import example, given, settings, strategies as st

from eigenframe import cli
from eigenframe import corpus as corpus_mod
from eigenframe.exprlang import BUILTINS

_NUMBERS = ("0", "1", "2", "0.5", "3e-2", "7", "1e300", "1e-300")
_MALFORMED = ("(u1", "u1 $ 2", "foo(u1)", "u9", "1e999*u1")
_FLAWS = ((),) * 6 + (
    ("--seed", "3"), ("--seed", "-1"), ("--seed", str(10**20)), ("--samples", "4"),
    ("--tol", "1e-300"), ("--tol", "0"), ("--tol", "nan"), ("--tol", "inf"),
    ("--quadrature-tol", "nan"), ("--quadrature-tol", "-inf"),
)
_BOXES = {
    "unit": (1.0, 2.0),
    "touching-zero": (0.0, 1.0),
    "degenerate": (1.0, 1.0),
    "inverted": (2.0, 1.0),
    "overflowing": (-1e308, 1e308),
    "huge": (1.0, 1e308),
}


def _grammar(n: int, var: str = "u"):
    """Sources of the grammar over u1..un (or another variable name):
    numbers, variables, the binary operators, unary minus and every builtin,
    nested a few levels."""
    atoms = st.sampled_from(_NUMBERS + tuple(f"{var}{i + 1}" for i in range(n)))
    return st.recursive(
        atoms,
        lambda inner: st.one_of(
            st.tuples(inner, st.sampled_from("+-*/^"), inner).map(lambda t: f"({t[0]}{t[1]}{t[2]})"),
            st.tuples(st.sampled_from(BUILTINS), inner).map(lambda t: f"{t[0]}({t[1]})"),
            inner.map(lambda a: f"-{a}"),
        ),
        max_leaves=4,
    )


def _case(n, columns, box, cand, command, flags, chart=None):
    lo, hi = _BOXES[box]
    frame = {
        "id": "generated", "n": n, "vars": [f"u{i + 1}" for i in range(n)],
        "frame": columns, "domain": {"lo": [lo] * n, "hi": [hi] * n},
        "base": [lo / 2 + hi / 2] * n,
    }
    if chart is not None:
        frame["chart"] = chart
    return {"frame": frame, "candidate": cand, "argv": list(flags) + [command]}


def _chart(draw, n: int) -> dict:
    """A chart w(u) with its inverse u(w), n entries each except, at
    times, for one key, which gets from 0 to n + 1."""
    chart = {
        "w": [draw(_grammar(n)) for _ in range(n)],
        "u_inv": [draw(_grammar(n, "w")) for _ in range(n)],
        "w_vars": [f"w{i + 1}" for i in range(n)],
    }
    wrong = draw(st.sampled_from([None, None, None, "w", "u_inv", "w_vars"]))
    if wrong is not None:
        chart[wrong] = (chart[wrong] * 2)[: draw(st.sampled_from([0, 1, n - 1, n + 1]))]
    return chart


@st.composite
def _cli_cases(draw):
    n = draw(st.sampled_from([2, 3, 4]))
    expr = _grammar(n)
    # near-identity frames reach the checks past the inversion; raw ones
    # mostly stop at a domain violation or a singular frame
    raw = draw(st.booleans())
    columns = [
        [
            draw(expr) if raw else ("1+" if a == j else "") + f"0.1*({draw(expr)})"
            for a in range(n)
        ]
        for j in range(n)
    ]
    if draw(st.integers(0, 9)) == 9:
        columns[0][0] = draw(st.sampled_from(_MALFORMED))
    kind = draw(st.sampled_from(["beta", "lambda"]))
    cand = {"kind": kind, "exprs": [draw(st.sampled_from(["1", "2", draw(expr)])) for _ in range(n)]}
    # a closed form of either kind on either candidate kind
    closed = draw(st.sampled_from([None, None, "closed_eta", "closed_f"]))
    if closed == "closed_eta":
        cand["closed_eta"] = draw(expr)
    elif closed == "closed_f":
        cand["closed_f"] = [draw(expr) for _ in range(n)]
    command = draw(st.sampled_from(["analyze", "verify", "reconstruct", "selftest"]))
    # most cases keep every flag valid, so that the commands run
    flags = ["--samples", "20", "--grid", "3,3,3"] + list(draw(st.sampled_from(_FLAWS)))
    if command == "reconstruct" and kind == "lambda":
        flags.append("--flux")
    box = draw(st.sampled_from(["unit"] * 4 + sorted(_BOXES)))
    chart = _chart(draw, n) if draw(st.integers(0, 2)) == 0 else None
    return _case(n, columns, box, cand, command, flags, chart)


_IDENTITY3 = [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]
_EX610 = [["0", "u2", "u3"], ["u1", "0", "u3"], ["1", "1", "0"]]
_ONES = {"kind": "beta", "exprs": ["1", "1", "1"]}
_EX610_BETA = {"kind": "beta", "exprs": ["u1+u2", "0", "(u1+u2)/(u1*u2)"]}
# the rich ex6.4 frame, its chart, and the chart with w cut to one entry
_EX64 = [["u1", "u2", "u3"], ["u1", "u2", "0"], ["u1", "0", "u3"]]
_EX64_CHART = {
    "w": ["ln(u2)+ln(u3)-ln(u1)", "ln(u1)-ln(u3)", "ln(u1)-ln(u2)"],
    "u_inv": ["exp(w1+w2+w3)", "exp(w1+w2)", "exp(w1+w3)"],
    "w_vars": ["w1", "w2", "w3"],
}
_SHORT_W_CHART = {**_EX64_CHART, "w": _EX64_CHART["w"][:1]}
_EXPECTED = {"rich": False, "rank_beta": 0, "rank_lambda": 0,
             "lambda_case": "not_n3", "beta_case": "not_n3"}


@given(case=_cli_cases())
@example(case=_case(3, _EX610, "unit", _EX610_BETA, "reconstruct", ["--tol", "nan"]))
@example(case=_case(3, _EX610, "unit", _EX610_BETA, "verify", ["--tol", "inf"]))
@example(case=_case(3, _EX610, "unit", _EX610_BETA, "reconstruct", ["--quadrature-tol", "nan"]))
@example(case=_case(3, _EX610, "unit", _ONES, "analyze", ["--quadrature-tol", "-inf"]))
@example(case=_case(3, _EX610, "unit", _ONES, "analyze", ["--seed", "-1"]))
@example(case=_case(3, _EX610, "unit", _ONES, "analyze", ["--seed", str(10**20)]))
@example(case=_case(3, _EX610, "degenerate", _ONES, "analyze", []))
@example(case=_case(3, _EX610, "inverted", _ONES, "analyze", []))
@example(case=_case(3, _EX610, "overflowing", _ONES, "analyze", []))
@example(case=_case(3, _EX610, "huge", _EX610_BETA, "reconstruct", []))
@example(case=_case(3, _IDENTITY3, "huge", _ONES, "reconstruct", ["--grid", "3,3,3"]))
@example(case=_case(3, _EX64, "unit", _ONES, "selftest", [], _EX64_CHART))
@example(case=_case(3, _EX64, "unit", _ONES, "selftest", [], _SHORT_W_CHART))
@settings(max_examples=100, deadline=None, derandomize=True)
def test_cli_error_contract_on_generated_inputs(case):
    """analyze and verify read the frame and candidate files; selftest reads
    the corpus directory, which holds only the example document made of
    the two."""
    with tempfile.TemporaryDirectory() as tmp:
        frame, cand = Path(tmp, "frame.json"), Path(tmp, "cand.json")
        frame.write_text(json.dumps(case["frame"]))
        cand.write_text(json.dumps(case["candidate"]))
        corpus = Path(tmp, "corpus")
        corpus.mkdir()
        example_doc = {**case["frame"], "candidates": [case["candidate"]], "expected": _EXPECTED}
        Path(corpus, "generated.json").write_text(json.dumps(example_doc))
        command = case["argv"][-1]
        argv = case["argv"] + {"analyze": [str(frame)], "selftest": []}.get(
            command, [str(frame), str(cand)])
        out, err = io.StringIO(), io.StringIO()
        with mock.patch.dict(os.environ, {corpus_mod.ENV_CORPUS_DIR: str(corpus)}), \
                warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            rc = cli.main(argv)
    lines = err.getvalue().splitlines()
    assert rc in (0, 1, 2, 3), (argv, rc)
    assert not [str(w.message) for w in caught], (argv, [str(w.message) for w in caught])
    assert "Traceback" not in err.getvalue()
    if rc != 0:
        assert len(lines) == 1 and lines[0].strip(), (argv, rc, lines)
