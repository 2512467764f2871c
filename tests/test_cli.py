"""CLI behavior: exit-code contract, JSON round-trip, config validation."""

from __future__ import annotations

import builtins
import functools
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import one_unknown_constraint

from eigenframe import cli, errors
from eigenframe import corpus as corpus_mod
from eigenframe import classify, exprlang, geometry, potential, systems


def corpus_path(name: str) -> str:
    return str(Path(corpus_mod.corpus_dir()) / name)


def test_analyze_exit_zero(capsys):
    rc = cli.main(["analyze", corpus_path("ex6.2.json")])
    assert rc == cli.EXIT_PASS
    out = capsys.readouterr().out
    assert "unconstrained" in out


def test_analyze_json_round_trip(capsys):
    rc = cli.main(["--output", "json", "analyze", corpus_path("ex6.3.json")])
    assert rc == cli.EXIT_PASS
    parsed = json.loads(capsys.readouterr().out)
    assert parsed["beta_case"] == "rank2-unclassified"
    assert json.loads(json.dumps(parsed)) == parsed


def test_analyze_prints_no_negative_zero_at_the_base(capsys):
    """Rounding keeps the sign of +-1e-17 noise, so the base arrays would
    print -0.0 where the value is zero; cmd_analyze prints 0.0."""
    root = Path(corpus_mod.corpus_dir())
    paths = sorted(root.glob("*.json")) + sorted((root / "extended").glob("*.json"))
    assert len(paths) == 16
    for path in paths:
        for seed in range(4):
            argv = ["--seed", str(seed), "--output", "json", "analyze", str(path)]
            assert cli.main(argv) == cli.EXIT_PASS
            out = json.loads(capsys.readouterr().out)
            for key in ("gamma_at_base", "c_at_base"):
                values = np.ravel(out[key])
                assert not np.any(np.signbit(values) & (values == 0.0)), (path.name, seed, key)


def test_analyze_two_dimensional_frame_reports_ranks_only(tmp_path, capsys):
    frame = tmp_path / "frame2.json"
    frame.write_text(json.dumps({
        "id": "n2", "n": 2, "vars": ["u1", "u2"], "frame": [["1", "0"], ["0", "u1"]],
        "domain": {"lo": [1, 1], "hi": [2, 2]}, "base": [1.5, 1.5],
    }))
    rc = cli.main(["--output", "json", "analyze", str(frame)])
    assert rc == cli.EXIT_PASS
    out = json.loads(capsys.readouterr().out)
    assert out["n"] == 2
    assert out["lambda_case"] == out["beta_case"] == "not_n3"
    assert out["rank_beta"] == out["rank_lambda"] == 0


def test_verify_pass_and_fail(tmp_path, capsys):
    cand = tmp_path / "beta.json"
    cand.write_text(json.dumps({
        "kind": "beta", "exprs": ["-K*u2", "K*u2", "K"], "params": {"K": 1.0},
    }))
    rc = cli.main(["verify", corpus_path("ex6.11.json"), str(cand)])
    assert rc == cli.EXIT_PASS
    capsys.readouterr()
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "kind": "beta", "exprs": ["-K*u2", "K*u2", "u1"], "params": {"K": 1.0},
    }))
    rc = cli.main(["verify", corpus_path("ex6.11.json"), str(bad)])
    assert rc == cli.EXIT_MATH_FAILURE
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("candidate fails verification"), err


def test_schema_error_exit_two(tmp_path, capsys):
    frame = tmp_path / "broken.json"
    frame.write_text(json.dumps({"id": "x", "n": 3}))
    rc = cli.main(["analyze", str(frame)])
    assert rc == cli.EXIT_INPUT_ERROR


def test_undeclared_identifier_exit_two(tmp_path, capsys):
    doc = json.loads(Path(corpus_path("ex6.5.json")).read_text())
    doc["frame"][0][0] = "nope*2"
    frame = tmp_path / "frame.json"
    frame.write_text(json.dumps(doc))
    rc = cli.main(["analyze", str(frame)])
    assert rc == cli.EXIT_INPUT_ERROR


def test_singular_frame_exit_three(tmp_path, capsys):
    doc = json.loads(Path(corpus_path("ex6.5.json")).read_text())
    doc["frame"] = [["u1", "u2", "0"], ["u1", "u2", "0"], ["0", "0", "1"]]
    frame = tmp_path / "frame.json"
    frame.write_text(json.dumps(doc))
    rc = cli.main(["analyze", str(frame)])
    assert rc == cli.EXIT_DEGENERATE


def _documented_exit_codes() -> tuple:
    """{error name: code} from the exit-code list in cli's docstring and from
    the exit-code table in README.md."""
    listed, code = {}, None
    doc = cli.__doc__
    for line in doc[doc.index("Exit codes"):].split("\n\n")[0].splitlines()[1:]:
        head = re.match(r"  (\d)  ", line)
        code = int(head.group(1)) if head else code
        listed.update(dict.fromkeys(re.findall(r"\b[A-Z]\w*Error\b", line), code))
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    table = {}
    for code, cells in re.findall(r"^\| `(\d)` \|(.*)\|$", readme, re.M):
        table.update(dict.fromkeys(re.findall(r"`([A-Z]\w*Error)`", cells), int(code)))
    return listed, table


def test_documented_exit_codes_name_live_errors(monkeypatch, capsys):
    """Every error that cli's docstring or README.md lists under an exit
    code is a class of eigenframe.errors (or a builtin), and main returns
    that code when it is raised; a class deleted but left in the docs
    fails here."""
    listed, table = _documented_exit_codes()
    assert listed == table and set(listed.values()) == {1, 2, 3}, (listed, table)
    for name, code in listed.items():
        kind = getattr(errors, name, None) or getattr(builtins, name)

        def raise_it(_grid, kind=kind):
            raise kind.__new__(kind)

        monkeypatch.setattr(cli, "_parse_grid", raise_it)
        assert cli.main(["selftest"]) == code, name


def test_nine_variable_frame_runs_every_command(tmp_path, capsys):
    """Halton sampling takes one prime per variable, however many there are:
    an identity frame in 9 variables analyzes, verifies and reconstructs."""
    n = 9
    frame = tmp_path / "frame9.json"
    frame.write_text(json.dumps({
        "id": "identity9", "n": n, "vars": [f"u{a + 1}" for a in range(n)],
        "frame": [["1" if a == j else "0" for a in range(n)] for j in range(n)],
        "domain": {"lo": [1] * n, "hi": [2] * n}, "base": [1.5] * n,
    }))
    cand = tmp_path / "beta.json"
    cand.write_text(json.dumps({"kind": "beta", "exprs": [str(a + 1) for a in range(n)]}))
    assert cli.main(["--output", "json", "analyze", str(frame)]) == cli.EXIT_PASS
    out = json.loads(capsys.readouterr().out)
    assert (out["n"], out["rank_beta"], out["rank_lambda"]) == (n, 0, 0)
    assert cli.main(["--output", "json", "verify", str(frame), str(cand)]) == cli.EXIT_PASS
    assert json.loads(capsys.readouterr().out)["max_scaled_residual"] == 0.0
    assert cli.main(["--grid", "2", "reconstruct", str(frame), str(cand)]) == cli.EXIT_PASS
    assert (tmp_path / "beta_eta.csv").exists()


def test_samples_floor_enforced(capsys):
    rc = cli.main(["--samples", "4", "analyze", corpus_path("ex6.2.json")])
    assert rc == cli.EXIT_INPUT_ERROR
    rc = cli.main(["--samples", "8", "analyze", corpus_path("ex6.2.json")])
    assert rc == cli.EXIT_PASS


def test_reconstruct_writes_grids(tmp_path, capsys):
    cand = tmp_path / "beta.json"
    cand.write_text(json.dumps({
        "kind": "beta", "exprs": ["-K*u2", "K*u2", "K"], "params": {"K": 1.0},
        "closed_eta": "K*(u1^2/2+(1-u2)*ln(u3))",
    }))
    rc = cli.main(["--grid", "5,5,5", "reconstruct",
                   corpus_path("ex6.11.json"), str(cand)])
    assert rc == cli.EXIT_PASS
    csv_file = tmp_path / "beta_eta.csv"
    json_file = tmp_path / "beta_eta.json"
    assert csv_file.exists() and json_file.exists()
    header = csv_file.read_text().splitlines()[0]
    assert header.split(",")[:3] == ["u1", "u2", "u3"]
    payload = json.loads(json_file.read_text())
    assert "eta" in payload["values"]


def test_curl_violation_exit_one(tmp_path, capsys):
    cand = tmp_path / "beta.json"
    cand.write_text(json.dumps({"kind": "beta", "exprs": ["1", "1", "1"], "params": {}}))
    rc = cli.main(["--grid", "4,4,4", "--tol", "10", "reconstruct",
                   corpus_path("ex6.10.json"), str(cand)])
    assert rc == cli.EXIT_MATH_FAILURE


def test_reconstruct_candidate_above_tol_exit_one(tmp_path, capsys):
    """A candidate whose residual exceeds --tol is refused before any grid
    is built: one line, exit 1, no files."""
    cand = tmp_path / "bad.json"
    cand.write_text(json.dumps({
        "kind": "beta", "exprs": ["-K*u2", "K*u2", "u1"], "params": {"K": 1.0},
    }))
    rc = cli.main(["--grid", "4,4,4", "reconstruct", corpus_path("ex6.11.json"), str(cand)])
    assert rc == cli.EXIT_MATH_FAILURE
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1, err
    assert err[0].startswith("candidate residual ") and err[0].endswith(" is not below tol"), err
    assert not list(tmp_path.glob("bad_*"))


def test_tol_equal_to_residual_fails_verify_and_reconstruct(tmp_path, capsys):
    """A candidate is verified when its residual is below --tol: at a --tol
    equal to its own printed max_scaled_residual (a JSON float round-trips
    exactly) verify and reconstruct both exit 1, and no grid is written."""
    frame = corpus_path("ex6.10.json")
    cand = tmp_path / "cand.json"
    cand.write_text(json.dumps(json.loads(Path(frame).read_text())["candidates"][1]))
    assert cli.main(["--output", "json", "verify", frame, str(cand)]) == cli.EXIT_PASS
    residual = json.loads(capsys.readouterr().out)["max_scaled_residual"]
    assert residual > 0
    tol = ["--tol", repr(residual)]
    assert cli.main(tol + ["verify", frame, str(cand)]) == cli.EXIT_MATH_FAILURE
    assert cli.main(tol + ["--grid", "3", "reconstruct", frame, str(cand)]) == cli.EXIT_MATH_FAILURE
    last = capsys.readouterr().err.splitlines()[-1]
    assert last == f"candidate residual {residual:.3e} is not below tol"
    assert not list(tmp_path.glob("cand_*"))


def test_flux_flag_only_checks_the_candidate_kind(tmp_path, capsys):
    """The candidate's kind picks eta or flux; --flux only asserts a lambda
    candidate, so a lambda candidate writes the same flux files without it."""
    frame = corpus_path("ex6.6.json")
    lam = next(c for c in json.loads(Path(frame).read_text())["candidates"]
               if c["kind"] == "lambda")
    written = []
    for flags in ([], ["--flux"]):
        cand = tmp_path / f"lam{len(flags)}.json"
        cand.write_text(json.dumps(lam))
        assert cli.main(flags + ["--grid", "4", "reconstruct", frame, str(cand)]) == cli.EXIT_PASS
        written.append([(tmp_path / f"lam{len(flags)}_flux{ext}").read_bytes()
                        for ext in (".csv", ".json")])
    assert written[0] == written[1]


def test_flux_reconstruct_of_beta_candidate_exit_two(tmp_path, capsys):
    cand = tmp_path / "beta.json"
    cand.write_text(json.dumps({
        "kind": "beta", "exprs": ["-K*u2", "K*u2", "K"], "params": {"K": 1.0},
    }))
    rc = cli.main(["--flux", "--grid", "4,4,4", "reconstruct",
                   corpus_path("ex6.11.json"), str(cand)])
    assert rc == cli.EXIT_INPUT_ERROR
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: --flux reconstruction needs a lambda candidate"], err


def test_bad_grid_rejected(capsys):
    """A --grid that is not integers, or a count below 2, exits 2 with one
    line."""
    for grid, message in (("1,zz", "error: bad --grid value '1,zz'"),
                          ("1", "error: --grid needs counts >= 2")):
        rc = cli.main(["--grid", grid, "analyze", corpus_path("ex6.2.json")])
        assert rc == cli.EXIT_INPUT_ERROR
        assert capsys.readouterr().err.splitlines() == [message]


def test_grid_too_large_for_memory_is_input_error(tmp_path, capsys):
    """A 10^18-node grid is past the address space: numpy refuses the
    allocation at once (nothing is allocated), and the CLI exits 2 with one
    line instead of a MemoryError traceback."""
    cand = tmp_path / "beta.json"
    cand.write_text(json.dumps({
        "kind": "beta", "exprs": ["(K1-K2)*(u1+u2)", "K2*(u1+u2)", "K1*(u1+u2)/(u1*u2)"],
        "params": {"K1": 1.0, "K2": 0.0},
    }))
    rc = cli.main(["--grid", "1000000,1000000,1000000", "reconstruct",
                   corpus_path("ex6.10.json"), str(cand)])
    err = capsys.readouterr().err
    assert rc == cli.EXIT_INPUT_ERROR
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "Traceback" not in err


def test_selftest_tighter_than_roundoff_reports_failures(capsys):
    rc = cli.main(["--output", "json", "--samples", "12", "--tol", "1e-16", "selftest"])
    captured = capsys.readouterr()
    out = json.loads(captured.out)
    assert rc == cli.EXIT_MATH_FAILURE
    failing = [e for e in out["examples"] if e["failed_checks"]]
    assert failing, "tolerance below roundoff must surface distinct failures"
    # the one nonzero exit that printed nothing to stderr
    err = captured.err.splitlines()
    assert err == [f"selftest fails: {len(failing)} of {len(out['examples'])} examples failed, "
                   f"property sweeps {'passed' if out['property_sweeps']['passed'] else 'failed'}"]
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("command", [["analyze", corpus_path("ex6.2.json")], ["selftest"]])
def test_samples_beyond_physical_memory_is_input_error(capsys, monkeypatch, command):
    """--samples 1000000000 was killed by the OOM killer (exit 137, empty
    stderr): the Halton construction alone asks for more than 16 GB.  It is
    refused before any sample array is allocated."""

    def allocate(*args, **kwargs):
        raise AssertionError("a sample array was allocated")

    monkeypatch.setattr(geometry, "halton_points", allocate)
    assert cli.main(["--samples", "1000000000"] + command) == cli.EXIT_INPUT_ERROR
    line = _one_error_line(capsys)
    assert line.startswith("error: out of memory: 1000000000 samples of an n = 3 frame"), line


class _Sampled(Exception):
    """Raised in place of drawing the samples the memory gate let through."""


@pytest.mark.parametrize("samples, refused", [(66280, False), (66281, True)])
def test_sample_memory_gate_threshold(capsys, monkeypatch, samples, refused):
    """With 1 GiB of physical memory, --samples starts to exit 2 at 66281
    samples of an n = 3 frame (600 B per Gamma entry, 16.2 kB a sample),
    with one line; one sample fewer passes the gate."""
    sysconf = os.sysconf
    pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 2**18}
    monkeypatch.setattr(os, "sysconf", lambda name: pages.get(name) or sysconf(name))

    def sampled(*args, **kwargs):
        raise _Sampled

    monkeypatch.setattr(geometry, "halton_points", sampled)
    argv = ["--samples", str(samples), "analyze", corpus_path("ex6.10.json")]
    if not refused:
        with pytest.raises(_Sampled):
            cli.main(argv)
        return
    assert cli.main(argv) == cli.EXIT_INPUT_ERROR
    assert _one_error_line(capsys) == (
        "error: out of memory: 66281 samples of an n = 3 frame need about 1.07 GB, "
        "more than the 1.07 GB of physical memory")


def test_selftest_default_passes(capsys):
    rc = cli.main(["--output", "json", "--samples", "20", "selftest"])
    out = json.loads(capsys.readouterr().out)
    assert rc == cli.EXIT_PASS and out["passed"]


@pytest.mark.parametrize("entry", ["u1^(0^-1)", "u1^(10.0^400)", "exp(800*u1)"])
def test_unevaluable_frame_entry_exit_three(tmp_path, capsys, entry):
    """A constant exponent that cannot be folded in floats, or an entry that
    overflows, is a domain violation: one stderr line, no traceback, no
    RuntimeWarning (pytest turns those into errors)."""
    doc = json.loads(Path(corpus_path("ex6.5.json")).read_text())
    doc["frame"][0][0] = entry
    frame = tmp_path / "frame.json"
    frame.write_text(json.dumps(doc))
    rc = cli.main(["analyze", str(frame)])
    assert rc == cli.EXIT_DEGENERATE
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: domain violation"), err


@pytest.mark.parametrize("wrap, rc", [
    (lambda e: "(" * 600 + e + ")" * 600, cli.EXIT_INPUT_ERROR),
    (lambda e: "+".join([e] + ["u1"] * 1999), cli.EXIT_INPUT_ERROR),
    (lambda e: "(" * 50 + e + ")" * 50, cli.EXIT_PASS),
    (lambda e: "+".join([e] + ["0"] * 99), cli.EXIT_PASS),
], ids=["600-parentheses", "2000-term-sum", "50-parentheses", "100-term-sum"])
def test_frame_entry_depth_limit(tmp_path, capsys, wrap, rc):
    """An entry deeper than exprlang.MAX_DEPTH ended in a RecursionError
    traceback, in the parser (nested parentheses) or in the tape compiler
    (a long sum); it is now a syntax error, and shallower ones still load."""
    doc = json.loads(Path(corpus_path("ex6.5.json")).read_text())
    doc["frame"][0][0] = wrap(doc["frame"][0][0])
    frame = tmp_path / "frame.json"
    frame.write_text(json.dumps(doc))
    assert cli.main(["analyze", str(frame)]) == rc
    if rc == cli.EXIT_INPUT_ERROR:
        assert "nested deeper than 400 levels" in _one_error_line(capsys)


@pytest.mark.parametrize("command", ["analyze", "verify"])
def test_truncated_json_error_names_the_file(tmp_path, capsys, command):
    """A truncated frame or candidate file printed json's message alone,
    which does not say which of the files failed."""
    bad = tmp_path / "bad.json"
    bad.write_text('{"kind": "beta", ')
    argv = [command, str(bad)]
    if command == "verify":
        argv = [command, corpus_path("ex6.2.json"), str(bad)]
    assert cli.main(argv) == cli.EXIT_INPUT_ERROR
    assert _one_error_line(capsys).startswith(f"error: {bad}: unreadable JSON: ")


@pytest.mark.parametrize("case", ["base-analyze", "param-analyze", "candidate-verify",
                                  "candidate-reconstruct"])
def test_nan_in_a_file_is_one_line_exit_two(tmp_path, capsys, case):
    """json reads NaN, the schema's minimum and maximum accept it and the
    base check compared false, so a NaN base, frame param or candidate
    param exited 3 with a misleading message (a domain violation at a NaN
    point, or a sqrt of a non-positive value).  NaN is not a JSON number:
    the file is unreadable JSON, exit 2, and nothing is written."""
    ex610 = corpus_path("ex6.10.json")
    bad = tmp_path / "bad.json"
    if case == "base-analyze":
        doc = json.loads(Path(ex610).read_text())
        doc["base"][0] = float("nan")
        argv = ["analyze", str(bad)]
    elif case == "param-analyze":
        doc = json.loads(Path(corpus_path("ex6.1b.json")).read_text())
        doc["params"]["gamma"] = float("nan")
        argv = ["analyze", str(bad)]
    else:
        doc = json.loads(Path(ex610).read_text())["candidates"][1]
        doc["params"]["K1"] = float("nan")
        argv = ["--grid", "3,3,3", case.split("-")[1], ex610, str(bad)]
    bad.write_text(json.dumps(doc))
    assert cli.main(argv) == cli.EXIT_INPUT_ERROR
    line = _one_error_line(capsys)
    assert line == f"error: {bad}: unreadable JSON: NaN is not a JSON number", line
    assert [p.name for p in tmp_path.iterdir()] == ["bad.json"]


def _frame_series_runs(monkeypatch) -> list:
    """Records (tape id, order, points) for every run of the series kernel
    on a frame's own tape (FrameSpec.tape, built by frame_tape without
    candidates) from here on."""
    frame_tapes, runs = [], []
    make_tape, series = geometry.frame_tape, exprlang.Tape._series

    def tracking(spec, *cands):
        tape = make_tape(spec, *cands)
        if not cands:
            frame_tapes.append(tape)
        return tape

    def counting(tape, points, order):
        if any(tape is t for t in frame_tapes):
            runs.append((id(tape), order, np.ascontiguousarray(points, dtype=float).tobytes()))
        return series(tape, points, order)

    monkeypatch.setattr(geometry, "frame_tape", tracking)
    monkeypatch.setattr(exprlang.Tape, "_series", counting)
    return runs


def _candidate_tape_runs(monkeypatch) -> list:
    """Every run, at any order, of the tape of a candidate built from here
    on, as (tape id, points bytes)."""
    tapes, runs = [], []
    for cls in (systems.BetaCandidate, systems.LambdaCandidate):
        def tape(self, compile_=cls.tape.func):
            tapes.append(compile_(self))
            return tapes[-1]

        prop = functools.cached_property(tape)
        prop.__set_name__(cls, "tape")
        monkeypatch.setattr(cls, "tape", prop)

    series = exprlang.Tape._series

    def counting(tape, points, order):
        if any(tape is t for t in tapes):
            runs.append((id(tape), np.ascontiguousarray(points, dtype=float).tobytes()))
        return series(tape, points, order)

    monkeypatch.setattr(exprlang.Tape, "_series", counting)
    return runs


def test_each_sample_set_evaluated_once(tmp_path, capsys, monkeypatch):
    """verify and run_example build one connection per sample set (one run
    of the frame's tape at order <= 2) and pass it to every check, residual
    and classifier branch; each candidate's tape runs once per sample set,
    and its residual record's values serve the cross-system identity,
    convexity and the closed-form checks."""
    runs = _frame_series_runs(monkeypatch)
    cand_runs = _candidate_tape_runs(monkeypatch)

    def connections():
        return [(tape, raw) for tape, order, raw in runs if order <= 2]

    doc = json.loads(Path(corpus_path("ex6.1b.json")).read_text())
    cand = tmp_path / "cand.json"
    for doc_cand in doc["candidates"][:2]:  # a lambda and a beta
        cand.write_text(json.dumps(doc_cand))
        runs.clear()
        cand_runs.clear()
        assert cli.main(["verify", corpus_path("ex6.1b.json"), str(cand)]) == cli.EXIT_PASS
        seen = connections()
        assert seen and len(seen) == len(set(seen)), len(seen)
        assert "cross-identity" in capsys.readouterr().out
        # the candidate and its first verified partner, once each
        assert len(cand_runs) == len(set(cand_runs)) == 2, cand_runs
    # ex6.1b and ex6.6 have closed forms and a gap identity, ex6.4 a chart
    for name in ("ex6.1b.json", "ex6.6.json", "ex6.4.json"):
        runs.clear()
        cand_runs.clear()
        case = corpus_mod.load_example(corpus_path(name))
        verdict = corpus_mod.run_example(case)
        assert verdict["passed"]
        names = [c["name"] for c in verdict["checks"]]
        assert ("eigenvalue-gap identity" in names) == (name != "ex6.4.json"), names
        seen = connections()
        assert seen and len(seen) == len(set(seen)), len(seen)
        assert len(cand_runs) == len(set(cand_runs)) == len(case.candidates), cand_runs
    # nor on a copy that differs only by rounding (a chart round trip)
    sets = [np.frombuffer(raw) for _, raw in seen]
    for i, a in enumerate(sets):
        for b in sets[:i]:
            assert a.shape != b.shape or np.abs(a - b).max() > 1e-12
    # the non-rich rank-1 classifier differentiates exactly, on no displaced
    # sample sets
    for name in ("ex6.9.json", "ex6.11.json"):
        runs.clear()
        verdict = corpus_mod.run_example(corpus_mod.load_example(corpus_path(name)))
        assert verdict["passed"]
        assert len(connections()) == 1, (name, len(connections()))


@pytest.mark.parametrize("name", ["ex6.10", "ex6.2"])
def test_each_command_builds_at_the_order_it_reads(tmp_path, capsys, monkeypatch, name):
    """analyze, verify and reconstruct read only values of the connection,
    so they run the frame's tape at order 1 (Gamma of order 0) on their
    sample set, and analyze also on its base point; run_example runs it at
    order 2 (Gamma of order 1, for the torsion and curvature checks).  The
    count of a rank-1 frame adds one run at order 4 on one point."""
    runs = _frame_series_runs(monkeypatch)
    path = corpus_path(f"{name}.json")
    case = corpus_mod.load_example(path)
    count = [(4, 1)] if case.expected["rank_beta"] == 1 else []
    cand = tmp_path / "beta.json"
    cand.write_text(json.dumps(next(
        c for c in json.loads(Path(path).read_text())["candidates"] if c["kind"] == "beta")))
    commands = [
        (["analyze", path], sorted([(1, 1), (1, 50)] + count)),
        (["verify", path, str(cand)], [(1, 50)]),
        (["--grid", "3", "reconstruct", path, str(cand)], [(1, 50)]),
    ]
    for argv, built in commands:
        runs.clear()
        assert cli.main(argv) == cli.EXIT_PASS, argv
        assert sorted((order, len(np.frombuffer(raw)) // case.spec.n)
                      for _, order, raw in runs) == built, argv
    runs.clear()
    assert corpus_mod.run_example(case)["passed"]
    assert sorted((order, len(np.frombuffer(raw)) // case.spec.n)
                  for _, order, raw in runs) == sorted([(2, 50)] + count)


@pytest.mark.parametrize("name", ["ex6.8.json", "extended/ex6.8b.json", "extended/ex6.9-g0.json"])
def test_frame_tape_runs_once_per_sample_set_below_order_three(monkeypatch, name):
    """run_example runs the frame's tape at most once at order <= 2 on each
    sample set: the connection's order-2 series serves every lower order the
    classifier asks for.  Orders 3 and 4 may run it again."""
    runs = _frame_series_runs(monkeypatch)
    verdict = corpus_mod.run_example(corpus_mod.load_example(corpus_path(name)))
    assert verdict["passed"]
    low = [(tape, raw) for tape, order, raw in runs if order <= 2]
    assert low and len(low) == len(set(low)), sorted(order for _, order, _ in runs)


@pytest.mark.parametrize("command", ["analyze", "verify"])
def test_directory_argument_is_input_error(tmp_path, capsys, command):
    """A directory where a file is expected exits 2 with one error line."""
    argv = [command, str(tmp_path)]
    if command == "verify":
        argv = [command, corpus_path("ex6.10.json"), str(tmp_path)]
    assert cli.main(argv) == cli.EXIT_INPUT_ERROR
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err


@pytest.mark.parametrize("role, payload", [
    ("frame", [1, 2]),
    ("frame", 5),
    ("candidate", 7),
    ("candidate", {"kind": "beta", "exprs": [1, 2, 3]}),
    ("candidate", {"kind": "beta", "exprs": ["1", "1"]}),
    ("candidate", {"kind": "beta", "exprs": ["1", "1", "1", "1"]}),
    ("frame", {"id": "x", "n": 3, "vars": ["u1", "u2"], "frame": [["1"] * 3] * 3,
               "domain": {"lo": [1] * 3, "hi": [2] * 3}, "base": [1.5] * 3}),
    ("frame", {"id": "x", "n": 3, "vars": ["u1", "u2", "u3"], "frame": [["1"] * 3] * 3,
               "domain": {"lo": [1] * 2, "hi": [2] * 3}, "base": [1.5] * 3}),
], ids=["frame-list", "frame-number", "candidate-number", "exprs-not-strings",
        "two-components", "four-components", "two-vars-for-n3", "two-lo-for-n3"])
def test_malformed_document_is_input_error(tmp_path, capsys, role, payload):
    """A frame or candidate document of the wrong shape exits 2 with one
    error line that names the file, and no traceback."""
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    argv = ["analyze", str(bad)]
    if role == "candidate":
        argv = ["verify", corpus_path("ex6.10.json"), str(bad)]
    assert cli.main(argv) == cli.EXIT_INPUT_ERROR
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {bad}: "), err


def _one_error_line(capsys) -> str:
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err
    return err[0]


@pytest.mark.parametrize("flag, value, command", [
    ("--tol", "nan", "reconstruct"),
    ("--tol", "nan", "verify"),
    ("--tol", "inf", "verify"),
    ("--quadrature-tol", "nan", "reconstruct"),
    ("--quadrature-tol", "inf", "reconstruct"),
])
def test_nonfinite_tolerance_is_input_error(tmp_path, capsys, flag, value, command):
    """A NaN tolerance passed `tol <= 0` and skipped the residual gate (and
    --quadrature-tol nan ran 64 panels); an infinite --tol passed every
    candidate.  Both exit 2 before anything is computed or written."""
    doc = json.loads(Path(corpus_path("ex6.10.json")).read_text())
    cand = tmp_path / "cand.json"
    cand.write_text(json.dumps(doc["candidates"][1]))
    rc = cli.main([flag, value, "--grid", "3,3,3", command, corpus_path("ex6.10.json"), str(cand)])
    assert rc == cli.EXIT_INPUT_ERROR
    assert _one_error_line(capsys).startswith(f"error: {flag} must be finite and positive")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cand.json"]


@pytest.mark.parametrize("seed", ["-1", str(10**20)])
def test_seed_outside_halton_range_is_input_error(capsys, seed):
    """A negative seed collapsed every sample onto one corner; a huge one
    overflowed the Halton indices with a traceback."""
    assert cli.main(["--seed", seed, "analyze", corpus_path("ex6.10.json")]) == cli.EXIT_INPUT_ERROR
    assert "seed must be a non-negative integer" in _one_error_line(capsys)


def _box_frame(tmp_path, frame, lo, hi, base) -> str:
    path = tmp_path / "frame.json"
    path.write_text(json.dumps({
        "id": "box", "n": 3, "vars": ["u1", "u2", "u3"], "frame": frame,
        "domain": {"lo": [lo] * 3, "hi": [hi] * 3}, "base": [base] * 3,
    }))
    return str(path)


_EX610_FRAME = [["0", "u2", "u3"], ["u1", "0", "u3"], ["1", "1", "0"]]
_IDENTITY = [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]


@pytest.mark.parametrize("lo, hi, base", [(1.0, 1.0, 1.0), (2.0, 1.0, 1.5), (-1e308, 1e308, 0.0)],
                         ids=["degenerate", "inverted", "overflowing-width"])
def test_empty_or_overflowing_box_is_schema_error(tmp_path, capsys, lo, hi, base):
    """lo == hi gave 50 identical samples and exit 0; a width hi - lo that
    overflows printed a RuntimeWarning and then a domain violation at inf."""
    assert cli.main(["analyze", _box_frame(tmp_path, _EX610_FRAME, lo, hi, base)]) == cli.EXIT_INPUT_ERROR
    assert "domain box needs lo < hi with a finite width" in _one_error_line(capsys)


def _ex64_left_of_the_chart(tmp_path) -> str:
    """ex6.4 on a box with u1 < 0, where its chart's ln(u1) is undefined."""
    doc = json.loads(Path(corpus_path("ex6.4.json")).read_text())
    doc["domain"]["lo"][0], doc["domain"]["hi"][0], doc["base"][0] = -2.0, -1.0, -1.5
    frame = tmp_path / "frame.json"
    frame.write_text(json.dumps(doc))
    return str(frame)


def test_box_outside_the_chart_domain_is_one_line_chart_error(tmp_path):
    """Off its domain the chart raises ChartDomainError, whose message is
    one line."""
    spec = cli._load_frame(_ex64_left_of_the_chart(tmp_path))
    with pytest.raises(geometry.ChartDomainError) as info:
        geometry.chart_forward(spec.chart, spec.sample_points(20))
    assert str(info.value).startswith("domain violation in 'ln(u1)' at point ")
    assert len(str(info.value).splitlines()) == 1


def test_analyze_reads_no_chart(tmp_path, capsys):
    """The length label is counted from the frame alone, so a box outside
    the chart's domain classifies as on any other box."""
    argv = ["--output", "json", "analyze", _ex64_left_of_the_chart(tmp_path)]
    assert cli.main(argv) == cli.EXIT_PASS
    assert json.loads(capsys.readouterr().out)["beta_case"] == "rich-3"


@pytest.mark.parametrize("system", ["beta", "lambda"])
def test_inconclusive_count_is_one_line_exit_three(capsys, monkeypatch, system):
    """A singular value of the solution-jet count inside the rank
    threshold's dead zone, or a lambda constraint coefficient inside
    CLASSIFY_TOL's, ends analyze with exit 3 and one error line."""
    if system == "beta":
        spec = cli._load_frame(corpus_path("ex6.9.json"))
        conn = geometry.eval_connection(spec, spec.sample_points())
        count = systems.beta_jet_count(conn)
        monkeypatch.setattr(systems, "JET_RANK_TOL", count.kept / 3)
        expected = "error: beta jet singular value = "
    else:
        monkeypatch.setattr(classify, "CLASSIFY_TOL", 0.5)
        expected = ("error: lambda constraint coefficient of unknown 1 = 1.000e+00"
                    " is in the dead zone [5.0e-01, 5.0e+00]")
    assert cli.main(["analyze", corpus_path("ex6.9.json")]) == cli.EXIT_DEGENERATE
    assert _one_error_line(capsys).startswith(expected)


def test_algebraic_rows_left_at_the_counted_sample_is_one_line_exit_three(tmp_path, capsys):
    """A rank-1 frame whose length algebraic part, (u1 - a) times rows in b^1,
    vanishes at sample 0 (u1 = a there) but not to first order: the count
    eliminates no row, and the rows left end analyze with exit 3 and one
    error line."""
    doc = json.loads(Path(corpus_path("ex6.9.json")).read_text())
    lo, hi = (np.array(doc["domain"][end]) for end in ("lo", "hi"))
    a = float(geometry.halton_points(lo, hi, 1)[0, 0])
    doc["frame"] = [["1", "0", "0"], ["0", "1", "0"], [f"(u1-{a!r})*u2", "0", "1"]]
    frame = tmp_path / "frame.json"
    frame.write_text(json.dumps(doc))
    assert cli.main(["analyze", str(frame)]) == cli.EXIT_DEGENERATE
    assert _one_error_line(capsys) == (
        "error: beta algebraic rows left after elimination: 1.000e+00 at rank 0")
    assert cli.main(["--seed", "1", "analyze", str(frame)]) == cli.EXIT_PASS
    assert "beta_case: nr-3a" in capsys.readouterr().out


def test_one_unknown_lambda_constraint_is_one_line_exit_three(capsys, monkeypatch):
    """analyze on a frame whose rank-1 speed constraint is in one unknown
    ends with exit 3 and one error line instead of a label."""
    monkeypatch.setattr(classify, "lambda_algebraic", lambda conn: one_unknown_constraint())
    assert cli.main(["analyze", corpus_path("ex6.9.json")]) == cli.EXIT_DEGENERATE
    assert _one_error_line(capsys) == (
        "error: no lambda label has a rank-1 constraint in 1 of the 3 unknowns")


def test_overflowing_frame_inverse_is_domain_error(tmp_path, capsys):
    """On [1, 1e308]^3 the adjugate of a frame with entries near 1e307
    overflows: one domain-violation line, no RuntimeWarning, and no
    singular-frame verdict against an infinite threshold."""
    rc = cli.main(["analyze", _box_frame(tmp_path, _EX610_FRAME, 1.0, 1e308, 2.0)])
    assert rc == cli.EXIT_DEGENERATE
    assert _one_error_line(capsys).startswith("error: domain violation in 'frame determinant'")


def test_nonfinite_ray_integral_is_quadrature_failure(tmp_path, capsys):
    """On the finite box [1, 1e308]^3 the potential of H = I overflows: one
    QuadratureFailureError line instead of a RuntimeWarning and 'error nan'."""
    cand = tmp_path / "cand.json"
    cand.write_text(json.dumps({"kind": "beta", "exprs": ["1", "1", "1"]}))
    frame = _box_frame(tmp_path, _IDENTITY, 1.0, 1e308, 2.0)
    assert cli.main(["--grid", "3,3,3", "reconstruct", frame, str(cand)]) == cli.EXIT_MATH_FAILURE
    assert _one_error_line(capsys).endswith("the integral is not finite")


@pytest.mark.parametrize("budget", [None, 1], ids=["default-budget", "one-node"])
def test_singular_frame_on_a_ray_is_one_line_exit_three(tmp_path, capsys, monkeypatch, budget):
    """(u1 - 0.6)^2 vanishes on the plane u1 = 0.6, which the ray from the
    far corner (1, 0, 0) to the node (0.2, 0, 0) crosses at its middle
    Kronrod node: one singular-frame line at that point, whether a rates
    call covers a block of ray parameters or one."""
    if budget is not None:
        monkeypatch.setattr(potential, "_RAY_BATCH_POINTS", budget)
    path = tmp_path / "frame.json"
    path.write_text(json.dumps({
        "id": "box", "n": 3, "vars": ["u1", "u2", "u3"],
        "frame": [["(u1-0.6)^2", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
        "domain": {"lo": [0, 0, 0], "hi": [1, 1, 1]}, "base": [0.25, 0.5, 0.5],
    }))
    cand = tmp_path / "cand.json"
    cand.write_text(json.dumps({"kind": "lambda", "exprs": ["1", "1", "1"]}))
    assert cli.main(["--grid", "6,6,6", "reconstruct", str(path), str(cand)]) == cli.EXIT_DEGENERATE
    assert _one_error_line(capsys) == (
        "error: frame is numerically singular at [0.6 0.  0. ]: "
        "|det R| = 0.000e+00 below threshold 2.828e-12"
    )


@pytest.mark.parametrize("argv", [
    ["--quadrature-tol", "-inf", "analyze"],
    ["--no-such-flag", "analyze"],
    ["analyze"],
], ids=["value-read-as-flag", "unknown-flag", "missing-argument"])
def test_usage_error_is_one_line_input_error(capsys, argv):
    """argparse printed its usage and an error line and raised SystemExit;
    a usage error now exits 2 with one error line like every input error."""
    if argv[-1] == "analyze" and len(argv) > 1:
        argv = argv + [corpus_path("ex6.10.json")]
    assert cli.main(argv) == cli.EXIT_INPUT_ERROR
    _one_error_line(capsys)


@pytest.mark.parametrize("where", ["domain", "params"])
def test_integer_beyond_doubles_is_schema_error(tmp_path, capsys, where):
    """A JSON integer past the double range raised OverflowError with a
    traceback, from the domain check or from binding a param; the schema
    bounds every number the code converts to float."""
    doc = {"id": "big", "n": 3, "vars": ["u1", "u2", "u3"], "frame": _IDENTITY,
           "domain": {"lo": [1, 1, 1], "hi": [2, 2, 2]}, "base": [1.5, 1.5, 1.5]}
    if where == "domain":
        doc["domain"]["hi"][0] = 10**400
    else:
        doc["params"] = {"K": 10**400}
        doc["frame"] = [["K*u1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]
    frame = tmp_path / "frame.json"
    frame.write_text(json.dumps(doc))
    assert cli.main(["analyze", str(frame)]) == cli.EXIT_INPUT_ERROR
    assert "is greater than the maximum of 1.7976931348623157e+308" in _one_error_line(capsys)


def _run_on_document(tmp_path, monkeypatch, command, doc, cand_idx=0) -> int:
    """command on the example document doc: analyze and verify (on its
    candidate cand_idx) read it as a frame file, selftest as the only file
    of the corpus."""
    frame = tmp_path / "doc.json"
    frame.write_text(json.dumps(doc))
    if command == "selftest":
        monkeypatch.setenv(corpus_mod.ENV_CORPUS_DIR, str(tmp_path))
        return cli.main(["selftest"])
    if command == "analyze":
        return cli.main(["analyze", str(frame)])
    cand = tmp_path / "cand.json"
    cand.write_text(json.dumps(doc["candidates"][cand_idx]))
    return cli.main(["verify", str(frame), str(cand)])


@pytest.mark.parametrize("command", ["analyze", "verify", "selftest"])
@pytest.mark.parametrize("key", ["w", "u_inv", "w_vars"])
@pytest.mark.parametrize("count", [1, 4])
def test_chart_of_wrong_length_is_schema_error(
    tmp_path, capsys, monkeypatch, command, key, count
):
    """A chart needs n entries in each of w, u_inv and w_vars.  A short one
    used to load: analyze passed, and selftest on ex6.4 with one w entry
    ended in an IndexError traceback."""
    doc = json.loads(Path(corpus_path("ex6.4.json")).read_text())
    doc["chart"][key] = (doc["chart"][key] * 2)[:count]
    assert _run_on_document(tmp_path, monkeypatch, command, doc) == cli.EXIT_INPUT_ERROR
    assert "chart w, u_inv and w_vars need n=3 entries each" in _one_error_line(capsys)


@pytest.mark.parametrize("command", ["analyze", "verify", "selftest"])
@pytest.mark.parametrize("idx, key, value", [
    (0, "closed_eta", "u1+"),
    (1, "closed_f", ["u1", "u2", "u3"]),
], ids=["closed_eta-on-lambda", "closed_f-on-beta"])
def test_closed_form_on_wrong_kind_is_schema_error(
    tmp_path, capsys, monkeypatch, command, idx, key, value
):
    """A closed_eta on a lambda candidate or a closed_f on a beta candidate
    was never parsed, so verify on ex6.10 with the malformed closed_eta
    "u1+" on its lambda candidate passed."""
    doc = json.loads(Path(corpus_path("ex6.10.json")).read_text())
    doc["candidates"][idx][key] = value
    assert _run_on_document(tmp_path, monkeypatch, command, doc, idx) == cli.EXIT_INPUT_ERROR
    assert f"candidate cannot have {key}" in _one_error_line(capsys)


def _frame_sources(doc: dict) -> list:
    """The expressions of a frame file outside its candidates: the frame
    entries and the chart's maps."""
    chart = doc.get("chart") or {}
    return [e for col in doc["frame"] for e in col] + chart.get("w", []) + chart.get("u_inv", [])


def _candidate_sources(cand: dict) -> list:
    return cand["exprs"] + ([cand["closed_eta"]] if "closed_eta" in cand else []) + cand.get(
        "closed_f", [])


def _recorded_parses(monkeypatch) -> list:
    """The source of every exprlang.parse_expression call from here on."""
    seen = []
    parse = exprlang.parse_expression

    def recording(source, *args, **kwargs):
        seen.append(source)
        return parse(source, *args, **kwargs)

    monkeypatch.setattr(exprlang, "parse_expression", recording)
    return seen


_CORPUS_FILES = sorted(Path(corpus_mod.corpus_dir()).glob("*.json")) + sorted(
    Path(corpus_mod.corpus_dir()).glob("extended/*.json"))


@pytest.mark.parametrize("path", _CORPUS_FILES, ids=lambda p: p.stem)
def test_analyze_parses_no_candidate(capsys, monkeypatch, path):
    """analyze reads no candidate, so it parses the frame entries and the
    chart's maps and nothing else of the frame file."""
    seen = _recorded_parses(monkeypatch)
    assert cli.main(["analyze", str(path)]) == cli.EXIT_PASS
    assert sorted(seen) == sorted(_frame_sources(json.loads(path.read_text())))


def test_reconstruct_parses_only_its_candidate_file(tmp_path, capsys, monkeypatch):
    doc = json.loads(Path(corpus_path("ex6.10.json")).read_text())
    cand = tmp_path / "beta.json"
    cand.write_text(json.dumps(doc["candidates"][1]))
    seen = _recorded_parses(monkeypatch)
    assert cli.main(["--grid", "3", "reconstruct", corpus_path("ex6.10.json"), str(cand)]) == 0
    assert sorted(seen) == sorted(_frame_sources(doc) + _candidate_sources(doc["candidates"][1]))


def _partner_runs(monkeypatch) -> tuple:
    """(runs, records): the tape of every partner verify runs, one entry a
    run, and the kind of every partner residual record it forms, from here
    on.  verify's own candidate goes through candidate_residual, which
    neither sees."""
    runs, records = [], []
    run, record = cli.eval_candidate, cli._residual_record
    monkeypatch.setattr(cli, "eval_candidate",
                        lambda tape, points: runs.append(tape) or run(tape, points))
    monkeypatch.setattr(cli, "_residual_record",
                        lambda conn, kind, *a: records.append(kind) or record(conn, kind, *a))
    return runs, records


def _verify_parses(tmp_path, monkeypatch, doc: dict, idx: int) -> tuple:
    """(exit code, sources parsed, partners evaluated) of verify on doc's
    candidate idx."""
    frame, cand = tmp_path / "doc.json", tmp_path / "cand.json"
    frame.write_text(json.dumps(doc))
    cand.write_text(json.dumps(doc["candidates"][idx]))
    runs, _ = _partner_runs(monkeypatch)
    seen = _recorded_parses(monkeypatch)
    rc = cli.main(["verify", str(frame), str(cand)])
    monkeypatch.undo()
    return rc, seen, len(runs)


@pytest.mark.parametrize("name", ["ex6.10", "ex6.1b", "ex6.6"])
def test_verify_parses_only_the_partners_it_evaluates(tmp_path, capsys, monkeypatch, name):
    """verify parses the frame, its candidate file and the other-kind
    candidates of the frame file in file order, each only when it is
    evaluated as a partner, up to the first that pairs."""
    doc = json.loads(Path(corpus_path(f"{name}.json")).read_text())
    for idx, cand in enumerate(doc["candidates"]):
        rc, seen, partners = _verify_parses(tmp_path, monkeypatch, doc, idx)
        assert rc == cli.EXIT_PASS
        others = [c for c in doc["candidates"] if c["kind"] != cand["kind"]][:partners]
        expected = _frame_sources(doc) + _candidate_sources(cand)
        assert sorted(seen) == sorted(expected + [e for c in others for e in _candidate_sources(c)])


def test_verify_stops_parsing_at_the_first_pair(tmp_path, capsys, monkeypatch):
    """Before the gas's speed candidate, which pairs, a speed field that is
    no solution is evaluated and passed over; after it, an unparseable one
    is never reached."""
    doc = json.loads(Path(corpus_path("ex6.1b.json")).read_text())
    u1, u2, u3 = doc["vars"]
    wrong = {"kind": "lambda", "exprs": [u1, f"2*{u2}", f"3*{u3}"]}
    unparseable = {"kind": "lambda", "exprs": [f"{u1}+", u2, u3]}
    doc["candidates"] = [wrong] + doc["candidates"] + [unparseable]
    rc, seen, partners = _verify_parses(tmp_path, monkeypatch, doc, 2)
    assert (rc, partners) == (cli.EXIT_PASS, 2)
    expected = _frame_sources(doc) + [
        e for idx in (2, 0, 1) for e in _candidate_sources(doc["candidates"][idx])]
    assert sorted(seen) == sorted(expected)


def test_unparseable_frame_candidate_fails_only_where_read(tmp_path, capsys, monkeypatch):
    """A frame file whose second candidate, a length field, does not parse:
    analyze and reconstruct read no frame-file candidate and exit 0 (eager
    loading exited 2).  On the gas, whose speeds are apart, verify reaches
    it as the first partner of the speed candidate and exits 2 with the
    error eager loading gave; on ex6.10, whose speeds coincide, verify of
    the speed candidate reads no partner and exits 0."""
    for name, rc in (("ex6.1b", cli.EXIT_INPUT_ERROR), ("ex6.10", cli.EXIT_PASS)):
        doc = json.loads(Path(corpus_path(f"{name}.json")).read_text())
        assert [c["kind"] for c in doc["candidates"][:2]] == ["lambda", "beta"]
        doc["candidates"][1]["exprs"][0] = f"{doc['vars'][0]}+"
        with pytest.raises(exprlang.ExprSyntaxError) as parse_error:
            exprlang.parse_expression(doc["candidates"][1]["exprs"][0], doc["vars"])
        frame, cand = tmp_path / "doc.json", tmp_path / "lambda.json"
        frame.write_text(json.dumps(doc))
        cand.write_text(json.dumps(doc["candidates"][0]))
        assert cli.main(["analyze", str(frame)]) == cli.EXIT_PASS
        assert cli.main(["--grid", "3", "reconstruct", str(frame), str(cand)]) == cli.EXIT_PASS
        capsys.readouterr()
        assert cli.main(["verify", str(frame), str(cand)]) == rc, name
        if rc == cli.EXIT_INPUT_ERROR:
            assert _one_error_line(capsys) == f"error: {frame}: {parse_error.value}"
        else:
            assert capsys.readouterr().err == ""


@pytest.mark.parametrize("idx, runs, records", [(0, 0, []), (1, 1, [])])
def test_verify_reads_no_partner_of_coincident_speeds(
        tmp_path, capsys, monkeypatch, idx, runs, records):
    """ex6.10's speed candidate has coincident speeds, so it pairs with no
    partner: verify of it parses and runs none, and verify of a length
    candidate runs the speed partner's tape once and forms no residual
    record for it."""
    doc = json.loads(Path(corpus_path("ex6.10.json")).read_text())
    cand = tmp_path / "cand.json"
    cand.write_text(json.dumps(doc["candidates"][idx]))
    seen = _recorded_parses(monkeypatch)
    partner_runs, partner_records = _partner_runs(monkeypatch)
    assert cli.main(["verify", corpus_path("ex6.10.json"), str(cand)]) == cli.EXIT_PASS
    assert "cross-identity" not in capsys.readouterr().out
    assert (len(partner_runs), partner_records) == (runs, records)
    partners = [c for c in doc["candidates"] if c["kind"] != doc["candidates"][idx]["kind"]]
    expected = _frame_sources(doc) + _candidate_sources(doc["candidates"][idx])
    assert sorted(seen) == sorted(expected + [e for c in partners[:runs] for e in _candidate_sources(c)])


def test_shared_parser_is_reentrant(tmp_path, capsys, monkeypatch):
    """main reuses one parser per process; a sequence of calls with changing
    commands and flags, a usage error among them, gives each call the
    stdout, stderr and exit code of the same call on a fresh parser."""
    doc = json.loads(Path(corpus_path("ex6.10.json")).read_text())
    beta, lam = tmp_path / "beta.json", tmp_path / "lambda.json"
    for path, kind in ((beta, "beta"), (lam, "lambda")):
        path.write_text(json.dumps(next(c for c in doc["candidates"] if c["kind"] == kind)))
    frame = corpus_path("ex6.10.json")
    calls = [
        ["--flux", "--grid", "3", "reconstruct", frame, str(beta)],
        ["--grid", "3", "reconstruct", frame, str(beta)],
        ["--flux", "--grid", "3", "--output", "json", "reconstruct", frame, str(lam)],
        ["--output", "text", "analyze", frame],
        ["--no-such-flag", "analyze", frame],
        ["--output", "json", "--seed", "2", "analyze", frame],
        ["analyze"],
        ["--output", "json", "verify", frame, str(lam)],
        ["verify", frame, str(beta)],
    ]

    def run_all() -> list:
        results = []
        for argv in calls:
            rc = cli.main(argv)
            out, err = capsys.readouterr()
            results.append((rc, out, err))
        return results

    shared = run_all()
    assert cli._parser() is cli._parser()
    monkeypatch.setattr(cli, "_parser", cli.build_parser)
    assert run_all() == shared
    assert [rc for rc, _, _ in shared] == [2, 0, 0, 0, 2, 0, 2, 0, 0]


def test_module_entry_point_one_shot(capsys):
    """python -m eigenframe.cli prints what main prints in-process, and a
    usage error exits 2 with one error line."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    argv = ["--output", "json", "analyze", corpus_path("ex6.10.json")]
    proc = subprocess.run([sys.executable, "-m", "eigenframe.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == cli.EXIT_PASS, proc.stderr
    assert cli.main(argv) == cli.EXIT_PASS
    assert proc.stdout == capsys.readouterr().out
    proc = subprocess.run([sys.executable, "-m", "eigenframe.cli", "--no-such-flag", *argv],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == cli.EXIT_INPUT_ERROR
    assert proc.stdout == ""
    err = proc.stderr.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err


_IMPORT_SET_SCRIPT = """
import contextlib, io, json, sys
from eigenframe import cli, corpus

frame, cand, float_n = sys.argv[1:]
rows = {}
for command, argv in (("analyze", [frame]), ("verify", [frame, cand]), ("selftest", []),
                      ("reconstruct", [frame, cand])):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["--grid", "3", command, *argv]) == 0, command
    rows[command] = [name for name in ("jsonschema", "numpy.polynomial") if name in sys.modules]
rows["n"] = corpus.load_example(float_n).spec.n
rows["n = 3.0"] = "jsonschema" in sys.modules
print(json.dumps(rows))
"""


def test_valid_documents_import_neither_jsonschema_nor_numpy_polynomial(tmp_path):
    """In a fresh interpreter, analyze, verify, reconstruct and selftest on
    valid documents leave jsonschema unimported, and analyze, verify and
    selftest numpy.polynomial too; a document with "n": 3.0, on which the
    pre-check defers, imports jsonschema and still loads."""
    frame = corpus_path("ex6.11.json")
    doc = json.loads(Path(frame).read_text())
    cand = tmp_path / "beta.json"
    cand.write_text(json.dumps(next(c for c in doc["candidates"] if c["kind"] == "beta")))
    float_n = tmp_path / "float_n.json"
    float_n.write_text(json.dumps({**doc, "n": 3.0}))
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_SET_SCRIPT, frame, str(cand), str(float_n)],
        capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    rows = json.loads(proc.stdout)
    assert rows["analyze"] == rows["verify"] == rows["selftest"] == [], rows
    assert "jsonschema" not in rows["reconstruct"], rows
    assert rows["n"] == 3 and rows["n = 3.0"], rows
