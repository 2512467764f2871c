"""CLI behavior: exit-code contract, JSON round-trip, config validation."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from eigenframe import cli
from eigenframe import corpus as corpus_mod
from eigenframe import geometry


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


def test_bad_grid_rejected(capsys):
    rc = cli.main(["--grid", "1,zz", "analyze", corpus_path("ex6.2.json")])
    assert rc == cli.EXIT_INPUT_ERROR


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
    out = json.loads(capsys.readouterr().out)
    assert rc == cli.EXIT_MATH_FAILURE
    failing = [e for e in out["examples"] if e["failed_checks"]]
    assert failing, "tolerance below roundoff must surface distinct failures"


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


def test_each_sample_set_evaluated_once(tmp_path, capsys, monkeypatch):
    """verify and run_example build one connection per sample set and pass
    it to every check, residual and classifier branch."""
    seen = []
    original = geometry.eval_frame_jets

    def counting(spec, points):
        seen.append((id(spec), np.ascontiguousarray(points, dtype=float).tobytes()))
        return original(spec, points)

    monkeypatch.setattr(geometry, "eval_frame_jets", counting)
    doc = json.loads(Path(corpus_path("ex6.10.json")).read_text())
    cand = tmp_path / "cand.json"
    cand.write_text(json.dumps(doc["candidates"][0]))
    assert cli.main(["verify", corpus_path("ex6.10.json"), str(cand)]) == cli.EXIT_PASS
    assert seen and len(seen) == len(set(seen)), len(seen)
    seen.clear()
    verdict = corpus_mod.run_example(corpus_mod.load_example(corpus_path("ex6.4.json")))
    assert verdict["passed"]
    assert seen and len(seen) == len(set(seen)), len(seen)
    # nor on a copy that differs only by rounding (a chart round trip)
    sets = [np.frombuffer(raw) for _, raw in seen]
    for i, a in enumerate(sets):
        for b in sets[:i]:
            assert a.shape != b.shape or np.abs(a - b).max() > 1e-12
    # the non-rich rank-1 classifier differentiates exactly, on no displaced
    # sample sets
    for name in ("ex6.9.json", "ex6.11.json"):
        seen.clear()
        verdict = corpus_mod.run_example(corpus_mod.load_example(corpus_path(name)))
        assert verdict["passed"]
        assert len(seen) == 1, (name, len(seen))


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
], ids=["frame-list", "frame-number", "candidate-number", "exprs-not-strings",
        "two-components", "four-components"])
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
