"""Corpus loading, schema validation, the per-example runner, and the
coverage matrix over the case taxonomy."""

from __future__ import annotations

import copy
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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


def test_empty_directory_gives_empty_catalog(tmp_path, monkeypatch):
    monkeypatch.setenv(corpus_mod.ENV_CORPUS_DIR, str(tmp_path))
    assert corpus_mod.list_examples() == []
    monkeypatch.setenv(corpus_mod.ENV_CORPUS_DIR, str(tmp_path / "missing"))
    assert corpus_mod.list_examples() == []


def test_env_override_changes_corpus_dir(tmp_path, monkeypatch):
    monkeypatch.setenv(corpus_mod.ENV_CORPUS_DIR, str(tmp_path))
    assert corpus_mod.corpus_dir() == tmp_path


def _valid_doc():
    src = Path(corpus_mod.corpus_dir()) / "ex6.5.json"
    return json.loads(src.read_text())


def _set(doc, path, value):
    for key in path[:-1]:
        doc = doc[key]
    doc[path[-1]] = value


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
    element_level = []
    for path, value in [
        (("n",), True),
        (("id",), ""),
        (("base", 0), float("inf")),
        (("domain", "lo", 1), -math.inf),
        (("domain", "hi", 0), 10**400),
        (("candidates", 0, "kind"), 3),
        (("candidates", 0, "exprs", 1), 1.0),
        (("frame", 2, 0), None),
        (("expected", "rank_beta"), 1.5),
        (("expected", "lambda_case"), "IV"),
        (("vars",), ["u1"]),
    ]:
        doc = _valid_doc()
        _set(doc, path, value)
        element_level.append(doc)
    for doc in (missing, wrong_type, missing, *element_level):
        with pytest.raises(jsonschema.ValidationError) as ref:
            jsonschema.validate(doc, corpus_mod.SCHEMA)
        with pytest.raises(SchemaError) as err:
            corpus_mod.load_example_from_doc(doc, source="doc.json")
        assert str(err.value) == f"doc.json: {ref.value.message}"


def _corpus_documents() -> list:
    """(schema name, document) for the 16 corpus files and their 36
    candidates."""
    root = Path(corpus_mod.corpus_dir())
    docs = []
    for path in sorted(root.glob("*.json")) + sorted(root.glob("extended/*.json")):
        doc = json.loads(path.read_text())
        docs.append(("example", doc))
        docs.extend(("candidate", cand) for cand in doc["candidates"])
    return docs


CORPUS_DOCUMENTS = _corpus_documents()


def _jsonschema_valid(name: str, doc) -> bool:
    import jsonschema

    schema = corpus_mod._SCHEMAS[name]
    return jsonschema.validators.validator_for(schema)(schema).is_valid(doc)


def test_corpus_documents_take_the_fast_path(monkeypatch):
    """Every bundled document and candidate passes the pre-check, so a valid
    file never builds the jsonschema validator."""
    assert len(CORPUS_DOCUMENTS) == 16 + 36

    def no_validator(name):
        raise AssertionError(f"jsonschema validator built for a valid {name}")

    monkeypatch.setattr(corpus_mod, "_schema_validator", no_validator)
    for name, doc in CORPUS_DOCUMENTS:
        if name == "example":
            frame = doc
            corpus_mod.load_example_from_doc(doc)
        else:
            corpus_mod.load_candidate(doc, frame["vars"], frame.get("params", {}))


def _paths(node, prefix=()):
    yield prefix
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _paths(value, prefix + (key,))
    elif isinstance(node, list):
        for idx, value in enumerate(node):
            yield from _paths(value, prefix + (idx,))


_NASTY = [True, False, None, 0, 1, -1, 2, 3.0, 2.5, 10**400, -(10**400), math.inf,
          -math.inf, math.nan, "", "x", "beta", "I", [], ["u1"], [1.0], {}, {"lo": []}]


@st.composite
def _mutated_documents(draw):
    """A corpus document or candidate with one to three mutations: a value
    replaced (type swaps, out-of-range numbers), a key or entry deleted, or
    an unknown key added."""
    name, doc = draw(st.sampled_from(CORPUS_DOCUMENTS))
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(doc))))
        op = draw(st.sampled_from(["replace", "delete", "extra"]))
        value = copy.deepcopy(draw(st.sampled_from(_NASTY)))
        if not path:
            if op == "replace":
                doc = value
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if op == "replace":
            parent[path[-1]] = value
        elif op == "delete":
            del parent[path[-1]]
        elif isinstance(parent[path[-1]], dict):
            parent[path[-1]]["unknown_key"] = value
    return name, doc


@given(case=_mutated_documents())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_precheck_never_accepts_what_jsonschema_rejects(case):
    name, doc = case
    if corpus_mod._surely_valid(corpus_mod._SCHEMAS[name], doc):
        assert _jsonschema_valid(name, doc)


@pytest.mark.parametrize("path, value, fast, valid", [
    (("n",), True, False, False),
    (("n",), 3.0, False, True),
    (("n",), 10**400, True, True),
    (("base", 0), float("1e400"), False, False),
    (("base", 0), -math.inf, False, False),
    (("base", 0), math.nan, False, True),
    (("domain", "hi", 0), 10**400, False, False),
    (("chart",), None, True, True),
    (("unknown_key",), 1, True, True),
    (("candidates", 0, "kind"), 3, False, False),
    (("candidates", 0, "kind"), None, False, False),
    (("id",), "", False, False),
], ids=["n-true", "n-3.0", "n-10^400", "base-1e400", "base-minus-inf", "base-nan",
        "hi-10^400", "chart-null", "unknown-key", "kind-3", "kind-null", "empty-id"])
def test_precheck_named_cases(path, value, fast, valid):
    """The pre-check passes a document only when it is surely valid; on all
    others jsonschema decides, with its own message."""
    import jsonschema

    doc = _valid_doc()
    _set(doc, path, value)
    assert corpus_mod._surely_valid(corpus_mod.SCHEMA, doc) is fast
    assert _jsonschema_valid("example", doc) is valid
    if valid:
        corpus_mod._validate("example", doc, "doc.json")
    else:
        with pytest.raises(jsonschema.ValidationError) as ref:
            jsonschema.validate(doc, corpus_mod.SCHEMA)
        with pytest.raises(SchemaError) as err:
            corpus_mod._validate("example", doc, "doc.json")
        assert str(err.value) == f"doc.json: {ref.value.message}"


def test_n_written_as_float_still_loads():
    """jsonschema reads 3.0 as an integer, so a frame with n = 3.0 loads
    although the pre-check defers on it."""
    doc = _valid_doc()
    doc["n"] = 3.0
    assert corpus_mod.load_example_from_doc(doc).spec.n == 3


def _keywords(schema) -> set:
    """The keywords a schema uses, its subschemas' included."""
    if not isinstance(schema, dict):
        return set()
    used = set(schema)
    subschemas = [*schema.get("properties", {}).values(), schema.get("additionalProperties"),
                  schema.get("items")]
    return used.union(*map(_keywords, subschemas))


def test_schemas_pass_their_metaschema():
    """The schemas are checked against their metaschema here, not on first
    use, and use only keywords the pre-check implements (the example schema
    uses all of them)."""
    import jsonschema

    for schema in corpus_mod._SCHEMAS.values():
        jsonschema.validators.validator_for(schema).check_schema(schema)
        assert _keywords(schema) <= corpus_mod._PRECHECKED
    assert _keywords(corpus_mod.SCHEMA) == corpus_mod._PRECHECKED


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


def test_load_rejects_nan_base_in_memory():
    """A NaN coordinate compares false both ways, so `base < lo or base > hi`
    let it through; in a document built in memory (not read from JSON, which
    refuses NaN) a NaN base, or a NaN box corner, is refused by its path
    before the shape and box checks, with the message of a NaN param."""
    doc = _valid_doc()
    doc["base"] = [math.nan, 1.5, 1.5]
    with pytest.raises(SchemaError, match=r"^<memory>: base\[0\] is not a finite number$"):
        corpus_mod.load_example_from_doc(doc)
    doc = _valid_doc()
    doc["domain"]["lo"][0] = math.nan
    with pytest.raises(SchemaError, match=r"^<memory>: domain\.lo\[0\] is not a finite number$"):
        corpus_mod.load_example_from_doc(doc)


def test_load_rejects_nan_frame_param_in_memory():
    """The schema's number admits NaN, so a NaN param in a document built in
    memory used to load (and ex6.1b's sqrt(gamma) then raised DomainError
    in run_example); it is refused by its path, in the frame's params or in
    a candidate's."""
    doc = json.loads((Path(corpus_mod.corpus_dir()) / "ex6.1b.json").read_text())
    doc["params"]["gamma"] = math.nan
    with pytest.raises(SchemaError, match=r"^<memory>: params\.gamma is not a finite number$"):
        corpus_mod.load_example_from_doc(doc)
    doc["params"]["gamma"] = 1.4
    doc["candidates"][1]["params"] = {"gamma": math.nan}
    with pytest.raises(SchemaError, match=r"candidates\[1\]\.params\.gamma is not a finite"):
        corpus_mod.load_example_from_doc(doc)


def test_load_candidate_rejects_nan_param_in_memory():
    doc = json.loads((Path(corpus_mod.corpus_dir()) / "ex6.1b.json").read_text())
    cand = {**doc["candidates"][0], "params": {"gamma": math.nan}}
    with pytest.raises(SchemaError, match=r"^cand\.json: params\.gamma is not a finite number$"):
        corpus_mod.load_candidate(cand, doc["vars"], doc["params"], source="cand.json")


@pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
def test_read_json_refuses_non_json_numbers(tmp_path, constant):
    path = tmp_path / "doc.json"
    path.write_text('{"base": [%s, 1.5]}' % constant)
    with pytest.raises(CorpusParseError, match=f"{constant} is not a JSON number"):
        corpus_mod.read_json(path)


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


@pytest.mark.parametrize("cid, key, wrong, check", [
    ("ex6.11", "closed_eta", lambda eta: eta + "+u1*u2", "closed-form potential"),
    ("ex6.6", "closed_f", lambda f: [f[0] + "+u1*u2"] + f[1:], "closed-form flux"),
])
def test_wrong_closed_form_fails_its_check(cid, key, wrong, check):
    """A closed form off by u1*u2 fails the check that reads its Hessian
    (closed_eta: an off-diagonal term) or its Jacobian (closed_f) from the
    series kernel, and only that check."""
    doc = json.loads((Path(corpus_mod.corpus_dir()) / f"{cid}.json").read_text())
    for cand in doc["candidates"]:
        if key in cand:
            cand[key] = wrong(cand[key])
    verdict = corpus_mod.run_example(corpus_mod.load_example_from_doc(doc))
    failed = {c["name"]: c["value"] for c in verdict["checks"] if not c["passed"]}
    assert failed and all(name.endswith(check) for name in failed), failed
    assert min(failed.values()) > 1e-9


def test_degenerate_family_instances(corpus_cases):
    """The scaling-family example and its degenerate-member variant land in
    different branches of the taxonomy."""
    assert corpus_mod.run_example(corpus_cases["ex6.9"])["passed"]
    assert corpus_mod.run_example(corpus_cases["ex6.9-g0"])["passed"]


def test_coverage_matrix(corpus_cases):
    """Corpus plus the count table exercise every case label of the
    taxonomy at least once."""
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
    # rich-1 / rich-2 are covered by their counts
    # (test_classify.test_every_freedom_row_from_its_count)
    from test_classify import FREEDOM_ROWS

    assert {"rich-1", "rich-2"} <= {row[-1] for row in FREEDOM_ROWS}


def test_every_example_passes_its_full_verdict(corpus_cases):
    """Any corpus edit that breaks a verdict fails the suite."""
    failures = {}
    for cid, case in sorted(corpus_cases.items()):
        verdict = corpus_mod.run_example(case)
        if not verdict["passed"]:
            failures[cid] = [c["name"] for c in verdict["checks"] if not c["passed"]]
    assert not failures, failures


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
