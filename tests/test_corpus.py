"""Corpus loading, schema validation, the per-example runner, and the
coverage matrix over the case taxonomy."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from conftest import connect

from eigenframe import corpus as corpus_mod
from eigenframe.errors import CorpusParseError, SchemaError

CANONICAL_IDS = [
    "ex6.1a", "ex6.1b", "ex6.2", "ex6.3", "ex6.4", "ex6.5", "ex6.6",
    "ex6.7", "ex6.8", "ex6.9", "ex6.10", "ex6.11", "ex6.12",
]


def test_catalog_contains_exactly_the_canonical_ids():
    catalog = corpus_mod.list_examples()
    assert sorted(c["id"] for c in catalog) == sorted(CANONICAL_IDS)
    for entry in catalog:
        assert set(entry["expected"]) >= {
            "rich", "rank_beta", "rank_lambda", "lambda_case", "beta_case"
        }


def test_empty_directory_gives_empty_catalog(tmp_path):
    assert corpus_mod.list_examples(tmp_path) == []


def test_env_override_changes_corpus_dir(tmp_path, monkeypatch):
    monkeypatch.setenv(corpus_mod.ENV_CORPUS_DIR, str(tmp_path))
    assert corpus_mod.corpus_dir() == tmp_path


def _valid_doc():
    src = Path(corpus_mod.corpus_dir()) / "ex6.5.json"
    return json.loads(src.read_text())


def test_load_rejects_undeclared_variable(tmp_path):
    doc = _valid_doc()
    doc["frame"][0][0] = "u9+1"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    with pytest.raises(CorpusParseError):
        corpus_mod.load_example(bad)


def test_schema_error_text_matches_jsonschema_validate():
    """The cached validator raises the message jsonschema.validate gives."""
    import jsonschema

    missing = _valid_doc()
    del missing["expected"]
    wrong_type = _valid_doc()
    wrong_type["n"] = "three"
    for doc in (missing, wrong_type, missing):
        with pytest.raises(jsonschema.ValidationError) as ref:
            jsonschema.validate(doc, corpus_mod.SCHEMA)
        with pytest.raises(SchemaError) as err:
            corpus_mod.load_example_from_doc(doc, source="doc.json")
        assert str(err.value) == f"doc.json: {ref.value.message}"


def test_load_rejects_missing_field(tmp_path):
    doc = _valid_doc()
    del doc["expected"]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    with pytest.raises(SchemaError):
        corpus_mod.load_example(bad)


@pytest.mark.parametrize("count, key", [
    pytest.param(2, "exprs", id="2"),
    pytest.param(4, "exprs", id="4"),
    pytest.param(2, "closed_f", id="closed_f-2"),
    pytest.param(4, "closed_f", id="closed_f-4"),
])
def test_load_rejects_candidate_of_wrong_length(count, key):
    """A candidate needs n expressions, and n closed_f entries if it has
    them; a short closed_f used to load and then fail to broadcast."""
    doc = json.loads((Path(corpus_mod.corpus_dir()) / "ex6.6.json").read_text())
    idx, cand = next((i, c) for i, c in enumerate(doc["candidates"]) if key in c)
    cand[key] = (cand[key] * 2)[:count]
    with pytest.raises(CorpusParseError, match=f"doc.json: candidate {idx}: .* got {count}"):
        corpus_mod.load_example_from_doc(doc, source="doc.json")


def test_load_rejects_base_outside_domain(tmp_path):
    doc = _valid_doc()
    doc["base"] = [5.0, 5.0, 5.0]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    with pytest.raises(SchemaError):
        corpus_mod.load_example(bad)


def test_run_example_verdicts(corpus_cases):
    verdict = corpus_mod.run_example(corpus_cases["ex6.5"])
    assert verdict["passed"]
    names = [c["name"] for c in verdict["checks"]]
    assert "torsion identity" in names
    assert "beta case expectation" in names


def test_run_example_flags_wrong_expectation(corpus_cases):
    import copy

    case = copy.deepcopy(corpus_cases["ex6.5"])
    case.expected["beta_case"] = "nr-2"
    verdict = corpus_mod.run_example(case)
    assert not verdict["passed"]
    failed = [c["name"] for c in verdict["checks"] if not c["passed"]]
    assert failed == ["beta case expectation"]


def test_degenerate_family_instances(corpus_cases):
    """The scaling-family example and its degenerate-member variant land in
    different branches of the taxonomy."""
    assert corpus_mod.run_example(corpus_cases["ex6.9"])["passed"]
    assert corpus_mod.run_example(corpus_cases["ex6.9-g0"])["passed"]


def test_coverage_matrix(corpus_cases):
    """Corpus plus the synthetic rich-branch fixtures exercise every case
    label of the taxonomy at least once."""
    lambda_seen = set()
    beta_seen = set()
    from eigenframe.classify import classify

    for case in corpus_cases.values():
        report = classify(connect(case.spec))
        lambda_seen.add(report.lambda_case)
        beta_seen.add(report.beta_case)
    assert {"I", "IIa", "IIb", "III"} <= lambda_seen
    expected_beta = {
        "unconstrained", "rank2-unclassified", "rich-3",
        "nr-1", "nr-2", "nr-3a", "nr-3b", "nr-4a", "nr-4b", "nr-4c",
    }
    assert expected_beta <= beta_seen
    # rich-1 / rich-2 are covered at the decision-procedure level
    # (test_classify.test_rich_rank1_branches)
    from test_classify import test_rich_rank1_branches  # noqa: F401


def test_every_example_passes_its_full_verdict(corpus_cases):
    """Any corpus edit that breaks a verdict fails the suite."""
    failures = {}
    for cid, case in sorted(corpus_cases.items()):
        verdict = corpus_mod.run_example(case)
        if not verdict["passed"]:
            failures[cid] = [c["name"] for c in verdict["checks"] if not c["passed"]]
    assert not failures, failures


def test_run_example_with_reconstruction(corpus_cases):
    verdict = corpus_mod.run_example(corpus_cases["ex6.11"], reconstruct=True)
    names = [c["name"] for c in verdict["checks"]]
    assert any("gauge comparison" in n for n in names)
    assert verdict["passed"]


def test_run_example_inverts_each_sample_set_once(corpus_cases, monkeypatch):
    """ex6.6 carries a closed-form flux; its check reads the connection's
    frame and inverse instead of inverting the sample set again."""
    from eigenframe import geometry, potential

    inverted = []
    original = geometry._invert_frame

    def counting(points, R):
        inverted.append(np.ascontiguousarray(points).tobytes())
        return original(points, R)

    monkeypatch.setattr(geometry, "_invert_frame", counting)
    monkeypatch.setattr(potential, "_invert_frame", counting)
    case = corpus_cases["ex6.6"]
    assert any(kind == "lambda" and c.f_exprs is not None for kind, c in case.candidates)
    verdict = corpus_mod.run_example(case)
    assert verdict["passed"]
    assert any("closed-form flux" in c["name"] for c in verdict["checks"])
    assert len(inverted) == 1, f"{len(inverted)} inversions of {len(set(inverted))} point sets"
