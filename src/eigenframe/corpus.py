"""Machine-readable example corpus and the per-example verification runner.

Each example file is a JSON document holding a frame, a domain box, optional
chart, candidate solutions of both systems (with recorded parameter and
function instances), and the expected classification.  run_example executes
the full pipeline: connection invariants, richness, ranks, classification
against the expectation, candidate residuals, closed-form cross-checks, and
the eigenvalue-gap identity where a strictly hyperbolic speed candidate is
available.
"""

from __future__ import annotations

import json
import math
import os
import sys
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import Optional

import numpy as np

from . import exprlang as ex
from .classify import classify
from .errors import (
    CorpusParseError,
    EigenframeError,
    SchemaError,
)
from .geometry import (
    ConnectionEval,
    FrameSpec,
    _symmetry_flatness,
    chart_from_sources,
    eval_connection,
    frame_from_sources,
    structure_coefficients_bracket,
    verify_riemann_chart,
)
from .systems import (
    BetaCandidate,
    LambdaCandidate,
    candidate_residual,
    check_rank_duality_n3,
    coincident_speeds,
    sevennec_identity,
)

ENV_CORPUS_DIR = "EIGENFRAME_CORPUS"

# a number the code converts to float: a JSON integer past the double range
# would raise OverflowError far from the input, and 1e400 parses as inf
_DOUBLE = {"type": "number", "minimum": -sys.float_info.max, "maximum": sys.float_info.max}
SCHEMA = {
    "type": "object",
    "required": ["id", "n", "vars", "frame", "domain", "base", "candidates", "expected"],
    "properties": {
        "id": {"type": "string", "minLength": 1},
        "n": {"type": "integer", "minimum": 2},
        "vars": {"type": "array", "items": {"type": "string"}, "minItems": 2},
        "params": {"type": "object", "additionalProperties": _DOUBLE},
        "frame": {
            "type": "array",
            "items": {"type": "array", "items": {"type": "string"}},
        },
        "domain": {
            "type": "object",
            "required": ["lo", "hi"],
            "properties": {
                "lo": {"type": "array", "items": _DOUBLE},
                "hi": {"type": "array", "items": _DOUBLE},
            },
        },
        "base": {"type": "array", "items": _DOUBLE},
        "chart": {
            "type": ["object", "null"],
            "required": ["w", "u_inv", "w_vars"],
            "properties": {
                "w": {"type": "array", "items": {"type": "string"}},
                "u_inv": {"type": "array", "items": {"type": "string"}},
                "w_vars": {"type": "array", "items": {"type": "string"}},
            },
        },
        "candidates": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["kind", "exprs"],
                "properties": {
                    "kind": {"enum": ["beta", "lambda"]},
                    "exprs": {"type": "array", "items": {"type": "string"}},
                    "params": {"type": "object", "additionalProperties": _DOUBLE},
                    "closed_eta": {"type": "string"},
                    "closed_f": {"type": "array", "items": {"type": "string"}},
                },
            },
        },
        "expected": {
            "type": "object",
            "required": ["rich", "rank_beta", "rank_lambda", "lambda_case", "beta_case"],
            "properties": {
                "rich": {"type": "boolean"},
                "rank_beta": {"type": "integer"},
                "rank_lambda": {"type": "integer"},
                "lambda_case": {"enum": ["I", "IIa", "IIb", "III", "not_n3"]},
                "beta_case": {"type": "string"},
            },
        },
        "notes": {"type": "object"},
    },
}


class Candidates(Sequence):
    """A frame file's checked candidate documents as a list of (kind,
    candidate), each parsed at its first read; a parse error is then a
    CorpusParseError naming the file."""

    def __init__(self, docs: list, vars, params, path: str):
        self._docs = docs
        self._vars = vars
        self._params = params
        self._path = path
        self._parsed = {}

    def __len__(self) -> int:
        return len(self._docs)

    def __getitem__(self, idx):
        idx = range(len(self))[idx]
        if idx not in self._parsed:
            try:
                self._parsed[idx] = _parse_candidate(
                    self._docs[idx], self._vars, self._params)
            except EigenframeError as err:
                raise CorpusParseError(self._path, str(err)) from err
        return self._parsed[idx]

    def of_kind(self, kind: str):
        """The candidates of one kind, in file order, each parsed only when
        the iteration reaches it."""
        return (self[idx][1] for idx, doc in enumerate(self._docs) if doc["kind"] == kind)


@dataclass
class ExampleCase:
    id: str
    spec: FrameSpec
    candidates: Candidates  # (kind, BetaCandidate | LambdaCandidate) pairs
    expected: dict
    notes: dict = field(default_factory=dict)
    path: Optional[str] = None


def corpus_dir() -> Path:
    override = os.environ.get(ENV_CORPUS_DIR)
    if override:
        return Path(override)
    return Path(__file__).parent / "corpus_data"


def _not_a_number(name: str):
    raise ValueError(f"{name} is not a JSON number")


def read_json(path):
    """The JSON document in a file; a file that cannot be read or parsed
    raises CorpusParseError naming it, and so does NaN, Infinity or
    -Infinity, which json would read but are not JSON numbers (RFC 8259)."""
    path = Path(path)
    try:
        return json.loads(path.read_text(), parse_constant=_not_a_number)
    except (OSError, ValueError) as err:
        raise CorpusParseError(path, f"unreadable JSON: {err}") from err


def load_example(path) -> ExampleCase:
    return load_example_from_doc(read_json(path), source=str(Path(path)))


_SCHEMAS = {"example": SCHEMA, "candidate": SCHEMA["properties"]["candidates"]["items"]}

# the keywords _surely_valid implements; it defers on a schema with any other
_PRECHECKED = frozenset({
    "type", "required", "properties", "additionalProperties", "items",
    "minItems", "minLength", "minimum", "maximum", "enum"})
_IS_TYPE = {
    "object": lambda x: type(x) is dict,
    "array": lambda x: type(x) is list,
    "string": lambda x: type(x) is str,
    "integer": lambda x: type(x) is int,
    "number": lambda x: type(x) is int or type(x) is float,
    "boolean": lambda x: type(x) is bool,
    "null": lambda x: x is None,
}


def _surely_valid(schema, doc) -> bool:
    """True only when doc certainly satisfies schema; False whenever it may
    not, which includes documents jsonschema accepts by a looser reading
    (3.0 for an integer, a NaN within a range, an enum value that is not a
    string) and any schema with a keyword outside _PRECHECKED.  The
    recursion follows the schema, so its depth is the schema's."""
    if type(schema) is not dict or not _PRECHECKED.issuperset(schema):
        return schema is True
    if "type" in schema:
        types = schema["type"]
        if not any(name in _IS_TYPE and _IS_TYPE[name](doc)
                   for name in ([types] if type(types) is str else types)):
            return False
    if "enum" in schema and not (type(doc) is str and doc in schema["enum"]):
        return False
    kind = type(doc)
    if kind is dict:
        props = schema.get("properties", {})
        extra = schema.get("additionalProperties", True)
        return all(key in doc for key in schema.get("required", ())) and all(
            _surely_valid(props[key] if key in props else extra, value)
            for key, value in doc.items())
    if kind is list:
        items = schema.get("items", True)
        return len(doc) >= schema.get("minItems", 0) and all(
            _surely_valid(items, item) for item in doc)
    if kind is str:
        return len(doc) >= schema.get("minLength", 0)
    if kind is int or kind is float:  # false for NaN, and for inf past a bound
        return schema.get("minimum", -math.inf) <= doc <= schema.get("maximum", math.inf)
    return True


@lru_cache(maxsize=None)
def _schema_validator(name: str):
    """The validator of an example or a candidate document (the schemas'
    agreement with their metaschema is a test).  jsonschema is imported
    here, at the first document the pre-check defers on, so a process that
    loads only valid documents never imports it."""
    import jsonschema

    schema = _SCHEMAS[name]
    return jsonschema.validators.validator_for(schema)(schema)


def _validate(name: str, doc, source: str) -> bool:
    """Return when doc is valid, True if the strict pre-check deferred it to
    jsonschema; otherwise raise SchemaError with the error
    jsonschema.validate would raise.  jsonschema is imported and walks only
    the documents the strict pre-check cannot pass, so it decides every
    rejection and writes every message."""
    if _surely_valid(_SCHEMAS[name], doc):
        return False
    import jsonschema

    err = jsonschema.exceptions.best_match(_schema_validator(name).iter_errors(doc))
    if err is not None:
        raise SchemaError(f"{source}: {err.message}") from err
    return True


def _require_finite(doc, source: str, path: str = "") -> None:
    """Raise SchemaError naming the first NaN or infinite number in doc by
    its path (params.gamma, candidates[0].params.a).  The schema's number
    admits NaN, which only read_json refuses; the pre-check never passes a
    NaN, so only a document that _validate deferred needs the walk."""
    if type(doc) is float and not math.isfinite(doc):
        raise SchemaError(f"{source}: {path} is not a finite number")
    if type(doc) is dict:
        for key, value in doc.items():
            _require_finite(value, source, f"{path}.{key}" if path else key)
    elif type(doc) is list:
        for idx, value in enumerate(doc):
            _require_finite(value, source, f"{path}[{idx}]")


def _check_candidate(doc: dict, vars, source: str) -> None:
    """Raise SchemaError unless a schema-valid candidate document has one
    expression (and one closed_f entry, if any) per variable and no closed
    form of the other kind."""
    other = {"beta": "closed_f", "lambda": "closed_eta"}[doc["kind"]]
    if other in doc:
        raise SchemaError(f"{source}: a {doc['kind']} candidate cannot have {other}")
    for key, what in (("exprs", "expressions"), ("closed_f", "closed_f entries")):
        if len(doc.get(key, vars)) != len(vars):
            raise SchemaError(
                f"{source}: a {doc['kind']} candidate needs n={len(vars)} {what}, "
                f"got {len(doc[key])}"
            )


def _parse_candidate(doc: dict, vars, params) -> tuple:
    """(kind, candidate) from a checked candidate document; its params
    override the frame's."""
    cparams = {**params, **doc.get("params", {})}
    if doc["kind"] == "beta":
        return "beta", BetaCandidate.from_sources(
            doc["exprs"], vars, cparams, doc.get("closed_eta"))
    return "lambda", LambdaCandidate.from_sources(
        doc["exprs"], vars, cparams, doc.get("closed_f"))


def load_candidate(doc, vars, params, source: str = "<memory>") -> tuple:
    """(kind, candidate) from a candidate document for a frame with the
    given variables and params; a document that is not one raises
    SchemaError."""
    if _validate("candidate", doc, source):
        _require_finite(doc, source)
    _check_candidate(doc, vars, source)
    return _parse_candidate(doc, vars, params)


def load_example_from_doc(doc: dict, source: str = "<memory>") -> ExampleCase:
    """The case of an example document (source names it in errors), with
    every candidate checked (_check_candidate) but parsed only when read,
    from doc's candidate documents (Candidates)."""
    path = source
    if _validate("example", doc, path):
        _require_finite(doc, path)
    n = doc["n"]
    vars = doc["vars"]
    if len(vars) != n or len(doc["frame"]) != n or any(len(c) != n for c in doc["frame"]):
        raise SchemaError(f"{path}: frame/vars shapes disagree with n={n}")
    ch = doc.get("chart")
    if ch and any(len(ch[key]) != n for key in ("w", "u_inv", "w_vars")):
        raise SchemaError(f"{path}: chart w, u_inv and w_vars need n={n} entries each")
    params = doc.get("params", {})
    try:
        chart = None
        if ch:
            chart = chart_from_sources(ch["w"], ch["u_inv"], vars, ch["w_vars"], params)
        spec = frame_from_sources(
            doc["frame"],
            vars,
            params,
            domain=(doc["domain"]["lo"], doc["domain"]["hi"]),
            base_point=doc["base"],
            chart=chart,
        )
        # the example schema has validated every candidate document
        for idx, cand in enumerate(doc["candidates"]):
            _check_candidate(cand, vars, f"candidate {idx}")
    except EigenframeError as err:
        raise CorpusParseError(path, str(err)) from err
    base = np.asarray(doc["base"], dtype=float)
    lo, hi = np.asarray(doc["domain"]["lo"], dtype=float), np.asarray(doc["domain"]["hi"], dtype=float)
    if not lo.shape == hi.shape == base.shape == (n,):
        raise SchemaError(f"{path}: domain lo, hi and base need n={n} entries each")
    with np.errstate(over="ignore"):
        width = hi - lo
    if not (np.all(lo < hi) and np.all(np.isfinite(width))):
        raise SchemaError(f"{path}: the domain box needs lo < hi with a finite width hi - lo")
    if not np.all((lo <= base) & (base <= hi)):
        raise SchemaError(f"{path}: base point outside the domain box")
    return ExampleCase(
        id=doc["id"], spec=spec, candidates=Candidates(doc["candidates"], vars, params, path),
        expected=doc["expected"], notes=doc.get("notes", {}), path=str(path),
    )


def list_examples() -> list:
    """Catalog of the corpus examples: id, n, and expected classification."""
    catalog = []
    for path in sorted(corpus_dir().glob("*.json")):
        case = load_example(path)
        catalog.append({
            "id": case.id,
            "n": case.spec.n,
            "expected": dict(case.expected),
            "path": str(path),
        })
    return catalog


def _closed_eta_check(conn: ConnectionEval, cand, vals: np.ndarray) -> float:
    """Residual of the closed-form potential against the candidate's values
    at conn.points: the frame must be orthogonal for its Hessian and
    reproduce the lengths."""
    index, factor = ex._hessian_index(conn.n)
    H = ex.eval_series(cand.eta_tape, conn.points, 2)[:, 0, index] * factor
    quad = np.einsum("mai,mab,mbj->mij", conn.R, H, conn.R)
    scale = 1.0 + np.abs(quad).max()
    res_diag = np.abs(np.stack([quad[:, i, i] for i in range(conn.n)], axis=1) - vals)
    off = quad.copy()
    for i in range(conn.n):
        off[:, i, i] = 0.0
    return float(max(res_diag.max(), np.abs(off).max()) / scale)


def _closed_f_check(conn: ConnectionEval, cand, lam: np.ndarray) -> float:
    """Jacobian of the closed-form flux vs R diag[l] L, assembled from the
    connection's frame and inverse and the candidate's values lam at
    conn.points."""
    A = np.einsum("mak,mkb->mab", conn.R, lam[:, :, None] * conn.L)
    Df = ex.eval_series(cand.f_tape, conn.points, 1)[..., 1:]
    return float(np.abs(Df - A).max() / (1.0 + np.abs(A).max()))


def run_example(case: ExampleCase, samples: int = 50, tol: float = 1e-9, seed: int = 0) -> dict:
    """Execute the pipeline on one example; failures become verdict entries."""
    checks = []

    def record(name, value, bound, passed=None):
        ok = bool(value < bound) if passed is None else bool(passed)
        checks.append({"name": name, "value": value, "bound": bound, "passed": ok})
        return ok

    spec = case.spec
    conn = eval_connection(spec, spec.sample_points(samples, seed))
    c_br = structure_coefficients_bracket(conn)
    torsion, curvature = _symmetry_flatness(conn, c_br)
    record("torsion identity", torsion, 1e-8)
    record("curvature identity", curvature, 1e-8)
    cross = float(np.abs(conn.c - c_br).max() / (1.0 + np.abs(conn.Gamma).max()))
    record("bracket cross-check", cross, 1e-10)
    if spec.n == 3:
        record("rank duality identity", check_rank_duality_n3(conn), 1e-12)
    if spec.chart is not None:
        chart_rep = verify_riemann_chart(conn, spec.chart)
        record("chart normalization", chart_rep["normalization_residual"], 1e-9)
        record("chart round trip", chart_rep["roundtrip_residual"], 1e-9)
    report = classify(conn)
    record("richness expectation", float(report.richness != case.expected["rich"]), 1,
           passed=report.richness == case.expected["rich"])
    record("rank expectation",
           abs(report.rank_beta - case.expected["rank_beta"])
           + abs(report.rank_lambda - case.expected["rank_lambda"]), 1,
           passed=(report.rank_beta == case.expected["rank_beta"]
                   and report.rank_lambda == case.expected["rank_lambda"]))
    record("lambda case expectation", 0.0, 1,
           passed=report.lambda_case == case.expected["lambda_case"])
    record("beta case expectation", 0.0, 1,
           passed=report.beta_case == case.expected["beta_case"])
    verified = {"beta": [], "lambda": []}
    for idx, (kind, cand) in enumerate(case.candidates):
        rec = candidate_residual(conn, kind, cand)
        if record(f"candidate {idx} ({kind}) residual", rec.max_scaled, tol):
            verified[kind].append(rec.values)
        if kind == "beta" and cand.eta_expr is not None:
            record(f"candidate {idx} closed-form potential",
                   _closed_eta_check(conn, cand, rec.values), 1e-9)
        if kind == "lambda" and cand.f_exprs is not None:
            record(f"candidate {idx} closed-form flux",
                   _closed_f_check(conn, cand, rec.values), 1e-9)
    apart = [lam for lam in verified["lambda"] if coincident_speeds(lam) is None]
    if apart and verified["beta"]:
        record("eigenvalue-gap identity",
               sevennec_identity(conn, verified["beta"][0], apart[0]), 1e-9)
    return {
        "id": case.id,
        "classification": report.to_dict(),
        "checks": checks,
        "passed": all(c["passed"] for c in checks),
    }
