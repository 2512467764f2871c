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
import os
import sys
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import Optional

import jsonschema
import numpy as np

from . import exprlang as ex
from .classify import classify
from .errors import (
    CoincidentEigenvaluesError,
    CorpusParseError,
    EigenframeError,
    SchemaError,
)
from .geometry import (
    ConnectionEval,
    FrameSpec,
    chart_from_sources,
    check_symmetry_flatness,
    eval_connection,
    frame_from_sources,
    structure_coefficients_bracket,
    verify_riemann_chart,
)
from .systems import (
    BetaCandidate,
    LambdaCandidate,
    beta_residual,
    check_rank_duality_n3,
    lambda_residual,
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


@dataclass
class ExampleCase:
    id: str
    spec: FrameSpec
    candidates: list  # (kind, BetaCandidate | LambdaCandidate)
    expected: dict
    notes: dict = field(default_factory=dict)
    path: Optional[str] = None


def corpus_dir() -> Path:
    override = os.environ.get(ENV_CORPUS_DIR)
    if override:
        return Path(override)
    return Path(__file__).parent / "corpus_data"


def load_example(path) -> ExampleCase:
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as err:
        raise CorpusParseError(path, f"unreadable JSON: {err}") from err
    return load_example_from_doc(doc, source=str(path))


_SCHEMAS = {"example": SCHEMA, "candidate": SCHEMA["properties"]["candidates"]["items"]}


@lru_cache(maxsize=None)
def _schema_validator(name: str):
    """The validator of an example or a candidate document, checked against
    its metaschema once, on first use (jsonschema.validate repeats that
    check on every call)."""
    schema = _SCHEMAS[name]
    cls = jsonschema.validators.validator_for(schema)
    cls.check_schema(schema)
    return cls(schema)


def _validate(name: str, doc, source: str):
    # the error jsonschema.validate would raise
    err = jsonschema.exceptions.best_match(_schema_validator(name).iter_errors(doc))
    if err is not None:
        raise SchemaError(f"{source}: {err.message}") from err


def _candidate(doc: dict, vars, params, source: str) -> tuple:
    """(kind, candidate) from a schema-valid candidate document with one
    expression (and one closed_f entry, if any) per variable and no closed
    form of the other kind; its params override the frame's."""
    other = {"beta": "closed_f", "lambda": "closed_eta"}[doc["kind"]]
    if other in doc:
        raise SchemaError(f"{source}: a {doc['kind']} candidate cannot have {other}")
    for key, what in (("exprs", "expressions"), ("closed_f", "closed_f entries")):
        if len(doc.get(key, vars)) != len(vars):
            raise SchemaError(
                f"{source}: a {doc['kind']} candidate needs n={len(vars)} {what}, "
                f"got {len(doc[key])}"
            )
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
    _validate("candidate", doc, source)
    return _candidate(doc, vars, params, source)


def load_example_from_doc(doc: dict, source: str = "<memory>") -> ExampleCase:
    path = source
    _validate("example", doc, path)
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
        candidates = [
            _candidate(cand, vars, params, f"candidate {idx}")
            for idx, cand in enumerate(doc["candidates"])
        ]
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
    if np.any(base < lo) or np.any(base > hi):
        raise SchemaError(f"{path}: base point outside the domain box")
    return ExampleCase(
        id=doc["id"], spec=spec, candidates=candidates,
        expected=doc["expected"], notes=doc.get("notes", {}), path=str(path),
    )


def list_examples(directory: Optional[Path] = None) -> list:
    """Catalog of bundled examples: id, n, and expected classification."""
    directory = Path(directory) if directory else corpus_dir()
    catalog = []
    if not directory.is_dir():
        return catalog
    for path in sorted(directory.glob("*.json")):
        case = load_example(path)
        catalog.append({
            "id": case.id,
            "n": case.spec.n,
            "expected": dict(case.expected),
            "path": str(path),
        })
    return catalog


def _closed_eta_check(conn: ConnectionEval, cand) -> float:
    """Residual of the closed-form potential against the candidate: the
    frame must be orthogonal for its Hessian and reproduce the lengths."""
    index, factor = ex._hessian_index(conn.n)
    H = ex.eval_series(cand.eta_tape, conn.points, 2)[:, 0, index] * factor
    quad = np.einsum("mai,mab,mbj->mij", conn.R, H, conn.R)
    vals = ex.eval_scalar_many(cand.tape, conn.points)
    scale = 1.0 + np.abs(quad).max()
    res_diag = np.abs(np.stack([quad[:, i, i] for i in range(conn.n)], axis=1) - vals)
    off = quad.copy()
    for i in range(conn.n):
        off[:, i, i] = 0.0
    return float(max(res_diag.max(), np.abs(off).max()) / scale)


def _closed_f_check(conn: ConnectionEval, cand) -> float:
    """Jacobian of the closed-form flux vs R diag[l] L, assembled from the
    connection's frame and inverse."""
    from .potential import _flux_formula, _matrices

    lam = ex.eval_scalar_many(cand.tape, conn.points)
    [A] = _matrices(_flux_formula, lam.shape[0], conn.n, conn.R, conn.L, lam)
    Df = ex.eval_series(cand.f_tape, conn.points, 1)[..., 1:]
    return float(np.abs(Df - A).max() / (1.0 + np.abs(A).max()))


def run_example(
    case: ExampleCase,
    samples: int = 50,
    tol: float = 1e-9,
    seed: int = 0,
    reconstruct: bool = False,
    grid: tuple = (7, 7, 7),
) -> dict:
    """Execute the pipeline on one example; failures become verdict entries.

    With reconstruct=True, every verified length candidate carrying a
    closed-form potential is also reconstructed on a small grid and compared
    to it up to the affine gauge."""
    checks = []

    def record(name, value, bound, passed=None):
        ok = bool(value < bound) if passed is None else bool(passed)
        checks.append({"name": name, "value": value, "bound": bound, "passed": ok})
        return ok

    spec = case.spec
    conn = eval_connection(spec, spec.sample_points(samples, seed))
    torsion, curvature = check_symmetry_flatness(conn)
    record("torsion identity", torsion, 1e-8)
    record("curvature identity", curvature, 1e-8)
    c_br = structure_coefficients_bracket(conn)
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
        if kind == "beta":
            rec = beta_residual(conn, cand)
        else:
            rec = lambda_residual(conn, cand)
        ok = record(f"candidate {idx} ({kind}) residual", rec.max_scaled, tol)
        if ok:
            verified[kind].append(cand)
        if kind == "beta" and cand.eta_expr is not None:
            record(f"candidate {idx} closed-form potential",
                   _closed_eta_check(conn, cand), 1e-9)
        if kind == "lambda" and cand.f_exprs is not None:
            record(f"candidate {idx} closed-form flux",
                   _closed_f_check(conn, cand), 1e-9)
    sevennec_run = False
    for lcand in verified["lambda"]:
        for bcand in verified["beta"]:
            try:
                res = sevennec_identity(conn, bcand, lcand)
            except CoincidentEigenvaluesError:
                continue
            record("eigenvalue-gap identity", res, 1e-9)
            sevennec_run = True
            break
        if sevennec_run:
            break
    if reconstruct:
        from .potential import affine_gauge_compare, reconstruct_eta

        counts = tuple(grid[: spec.n]) + (grid[-1],) * max(0, spec.n - len(grid))
        for idx, bcand in enumerate(verified["beta"]):
            if bcand.eta_expr is None:
                continue
            pg = reconstruct_eta(spec, bcand, spec.base_point, counts)
            nodes = pg.nodes()
            ref = ex.eval_scalar_many(bcand.eta_tape, nodes)[:, 0]
            err = affine_gauge_compare(nodes, pg.values["eta"].ravel(), ref)
            record(f"reconstruction {idx} gauge comparison", err, 1e-6)
            record(
                f"reconstruction {idx} path independence",
                pg.meta["path_independence_residual"], 1e-7,
            )
    return {
        "id": case.id,
        "classification": report.to_dict(),
        "checks": checks,
        "passed": all(c["passed"] for c in checks),
    }
