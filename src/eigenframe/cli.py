"""Command-line front end.

Commands:
  analyze      frame classification report (richness, connection tables at
               the base point, algebraic ranks, case label, decision trace)
  verify       residuals of a candidate against its system, the cross-system
               identity, and the convexity classification
  reconstruct  scalar-potential or flux grids from a verified candidate
  selftest     run the bundled example corpus plus quick property sweeps

Exit codes (an error prints one "error: ..." line to stderr):
  0  pass
  1  mathematical failure: a residual above --tol; CurlViolationError,
     NotRichError, NotRankZeroError, ChartDomainError, ZeroScalingError,
     QuadratureFailureError, StepFailureError
  2  input error: SchemaError, CorpusParseError, ExprSyntaxError,
     IllegalCharacterError, UnknownIdentifierError, a file that cannot be
     read or written (OSError: missing, a directory, no permission),
     ValueError (bad flag values, malformed JSON), MemoryError (an input
     too large for memory, such as a --grid past the address space)
  3  numerical degeneracy: SingularFrameError, CoincidentEigenvaluesError,
     NormalizationFailedError, InconclusiveVanishingError, DomainError

Each command evaluates the frame once on its sample set (one
ConnectionEval) and hands that to every check.  Sampling is deterministic
in --seed.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import corpus as corpus_mod
from . import exprlang
from .classify import classify
from .errors import (
    CoincidentEigenvaluesError,
    CorpusParseError,
    CurlViolationError,
    DomainError,
    EigenframeError,
    ExprSyntaxError,
    IllegalCharacterError,
    InconclusiveVanishingError,
    NormalizationFailedError,
    SchemaError,
    SingularFrameError,
    UnknownIdentifierError,
)
from .geometry import eval_connection, scale_frame
from .systems import (
    BetaCandidate,
    beta_residual,
    convexity_classify,
    lambda_residual,
    sevennec_identity,
)
from .potential import reconstruct_eta, reconstruct_flux

EXIT_PASS = 0
EXIT_MATH_FAILURE = 1
EXIT_INPUT_ERROR = 2
EXIT_DEGENERATE = 3

_INPUT_ERRORS = (
    SchemaError,
    CorpusParseError,
    ExprSyntaxError,
    IllegalCharacterError,
    UnknownIdentifierError,
    OSError,
    ValueError,
)
_DEGENERATE_ERRORS = (
    SingularFrameError,
    CoincidentEigenvaluesError,
    NormalizationFailedError,
    InconclusiveVanishingError,
    DomainError,
)


@dataclass
class RunConfig:
    samples: int = 50
    tol: float = 1e-8
    seed: int = 0
    grid: tuple = (11, 11, 11)
    output: str = "text"
    quadrature_tol: float = 1e-10
    flux: bool = False

    def __post_init__(self):
        if self.samples < 8:
            raise ValueError("--samples must be at least 8")
        if self.tol <= 0 or self.quadrature_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.output not in ("text", "json"):
            raise ValueError("--output must be text or json")


def _load_case(path: str):
    """A frame file is an example document; candidate entries are optional."""
    doc = json.loads(Path(path).read_text())
    if isinstance(doc, dict):  # anything else is left to the schema to reject
        doc = {"candidates": [], "expected": {
            "rich": False, "rank_beta": 0, "rank_lambda": 0,
            "lambda_case": "not_n3", "beta_case": "not_n3"}, **doc}
    return corpus_mod.load_example_from_doc(doc, source=str(path))


def _load_frame(path: str):
    return _load_case(path).spec


def _load_candidate(path: str, vars, params):
    doc = json.loads(Path(path).read_text())
    return corpus_mod.load_candidate(doc, vars, params, source=str(path))


def _emit(report: dict, config: RunConfig):
    if config.output == "json":
        print(json.dumps(report, indent=2, sort_keys=True))
        return
    def walk(obj, indent=0):
        pad = "  " * indent
        if isinstance(obj, dict):
            for k, v in obj.items():
                if isinstance(v, (dict, list)) and v:
                    print(f"{pad}{k}:")
                    walk(v, indent + 1)
                else:
                    print(f"{pad}{k}: {v}")
        elif isinstance(obj, list):
            for item in obj:
                if isinstance(item, (dict, list)):
                    walk(item, indent)
                    print()
                else:
                    print(f"{pad}- {item}")
    walk(report)


def cmd_analyze(args, config: RunConfig) -> int:
    spec = _load_frame(args.frame_file)
    report = classify(eval_connection(spec, spec.sample_points(config.samples, config.seed)))
    base = eval_connection(spec, np.asarray(spec.base_point)[None, :])
    out = report.to_dict()
    out["base_point"] = list(spec.base_point)
    out["gamma_at_base"] = np.round(base.Gamma[0], 12).tolist()
    out["c_at_base"] = np.round(base.c[0], 12).tolist()
    _emit(out, config)
    return EXIT_PASS


def cmd_verify(args, config: RunConfig) -> int:
    case = _load_case(args.frame_file)
    spec = case.spec
    kind, cand = _load_candidate(args.candidate_file, spec.vars, spec.params)
    conn = eval_connection(spec, spec.sample_points(config.samples, config.seed))
    residual = beta_residual if kind == "beta" else lambda_residual
    rec = residual(conn, cand)
    out = {
        "kind": kind,
        "max_scaled_residual": rec.max_scaled,
        "tol": config.tol,
        "worst": rec.worst(),
        "families": {
            f"{kind}-pde": float(rec.pde_scaled.max()) if rec.pde_scaled.size else 0.0,
            f"{kind}-alg": float(rec.alg_scaled.max()) if rec.alg_scaled.size else 0.0,
        },
    }
    if kind == "beta":
        out["convexity"] = convexity_classify(cand, conn.points)
    passed = rec.max_scaled < config.tol
    # cross-system identity, paired with a verified partner from the frame
    # file when one is recorded there
    partner_kind = "beta" if kind == "lambda" else "lambda"
    for k, partner in case.candidates:
        if k != partner_kind:
            continue
        check = beta_residual if k == "beta" else lambda_residual
        if check(conn, partner).max_scaled > config.tol:
            continue
        bcand, lcand = (cand, partner) if kind == "beta" else (partner, cand)
        try:
            res = sevennec_identity(conn, bcand, lcand)
        except CoincidentEigenvaluesError:
            continue
        out["cross-identity"] = res
        passed = passed and res < max(config.tol, 1e-9)
        break
    out["passed"] = bool(passed)
    _emit(out, config)
    return EXIT_PASS if passed else EXIT_MATH_FAILURE


def cmd_reconstruct(args, config: RunConfig) -> int:
    spec = _load_frame(args.frame_file)
    kind, cand = _load_candidate(args.candidate_file, spec.vars, spec.params)
    conn = eval_connection(spec, spec.sample_points(config.samples, config.seed))
    counts = config.grid[: spec.n]
    if len(counts) < spec.n:
        counts = tuple(counts) + (counts[-1],) * (spec.n - len(counts))
    if config.flux and kind != "lambda":
        raise SchemaError("--flux reconstruction needs a lambda candidate")
    if kind == "lambda":
        name, residual, reconstruct = "flux", lambda_residual, reconstruct_flux
    else:
        name, residual, reconstruct = "eta", beta_residual, reconstruct_eta
    rec = residual(conn, cand)
    if rec.max_scaled > config.tol:
        print(f"candidate residual {rec.max_scaled:.3e} exceeds tol", file=sys.stderr)
        return EXIT_MATH_FAILURE
    grid = reconstruct(spec, cand, spec.base_point, counts, config.quadrature_tol)
    stem = Path(args.candidate_file).with_suffix("")
    out_csv = Path(f"{stem}_{name}.csv")
    out_json = Path(f"{stem}_{name}.json")
    out_csv.write_text(grid.to_csv(spec.vars))
    out_json.write_text(grid.to_json())
    summary = {"written": [str(out_csv), str(out_json)], **grid.meta}
    _emit(summary, config)
    return EXIT_PASS


def cmd_selftest(args, config: RunConfig) -> int:
    root = Path(corpus_mod.corpus_dir())
    bundled = [corpus_mod.load_example(p) for p in sorted(root.glob("*.json"))]
    extended = [corpus_mod.load_example(p) for p in sorted(root.glob("extended/*.json"))]
    results = [
        corpus_mod.run_example(case, samples=config.samples, tol=config.tol, seed=config.seed)
        for case in bundled + extended
    ]
    prop = _property_sweeps(config, {case.id: case for case in bundled})
    all_passed = all(r["passed"] for r in results) and prop["passed"]
    out = {
        "examples": [
            {"id": r["id"], "passed": r["passed"],
             "failed_checks": [c["name"] for c in r["checks"] if not c["passed"]]}
            for r in results
        ],
        "property_sweeps": prop,
        "passed": bool(all_passed),
    }
    _emit(out, config)
    return EXIT_PASS if all_passed else EXIT_MATH_FAILURE


def _property_sweeps(config: RunConfig, bundled: dict) -> dict:
    """Quick cross-cutting invariants (the full versions live in the test
    suite): geometric identities on random frames, the rank-duality
    identity, and scaling covariance on a bundled corpus example (bundled
    maps example ids to loaded cases)."""
    from .geometry import frame_from_sources, check_symmetry_flatness
    from .systems import beta_algebraic, check_rank_duality_n3, generic_rank, lambda_algebraic

    rng = np.random.default_rng(config.seed)
    sweeps = {}
    worst_geom = 0.0
    worst_dual = 0.0
    rank_ok = True
    for _ in range(10):
        cols = [
            [
                ("1+" if a == j else "") + f"{rng.uniform(-0.15, 0.15):.6f}*u1"
                f"+{rng.uniform(-0.15, 0.15):.6f}*u2*u3+{rng.uniform(-0.15, 0.15):.6f}*u{a + 1}^2"
                for a in range(3)
            ]
            for j in range(3)
        ]
        spec = frame_from_sources(cols, ["u1", "u2", "u3"], domain=((0, 0, 0), (1, 1, 1)))
        conn = eval_connection(spec, spec.sample_points(20, config.seed))
        t, c = check_symmetry_flatness(conn)
        worst_geom = max(worst_geom, t, c)
        worst_dual = max(worst_dual, check_rank_duality_n3(conn))
        rank_ok = rank_ok and (
            generic_rank(beta_algebraic(conn).matrix) == generic_rank(lambda_algebraic(conn).matrix)
        )
    sweeps["geometric_identities"] = worst_geom
    sweeps["rank_duality"] = worst_dual
    sweeps["rank_equality"] = rank_ok
    # scaling covariance on a bundled example
    worst_scaled = 0.0
    if "ex6.10" in bundled:
        case = bundled["ex6.10"]
        spec = case.spec
        bcand = next(c for k, c in case.candidates if k == "beta")
        alphas = ["1+u2^2/4", "2+u1/2", "1+u3/3"]
        scaled = scale_frame(spec, alphas)
        sq = [f"({a})^2" for a in alphas]
        new_sources = [
            f"({sq[j]})*({exprlang.to_source(e)})" for j, e in enumerate(bcand.exprs)
        ]
        scaled_cand = BetaCandidate.from_sources(new_sources, spec.vars, bcand.params)
        conn = eval_connection(scaled, spec.sample_points(20, config.seed))
        worst_scaled = beta_residual(conn, scaled_cand).max_scaled
    sweeps["scaling_covariance"] = worst_scaled
    passed = (
        worst_geom < 1e-8 and worst_dual < 1e-12 and rank_ok and worst_scaled < 1e-8
    )
    return {**sweeps, "passed": bool(passed)}


def _parse_grid(text: str) -> tuple:
    try:
        parts = tuple(int(p) for p in text.split(","))
    except ValueError as err:
        raise ValueError(f"bad --grid value {text!r}") from err
    if not parts or any(p < 2 for p in parts):
        raise ValueError("--grid needs counts >= 2")
    return parts


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eigenframe",
        description="Analyze, verify, and reconstruct extension/entropy and "
                    "flux systems for a prescribed eigen-frame.",
    )
    parser.add_argument("--samples", type=int, default=50)
    parser.add_argument("--tol", type=float, default=1e-8)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--grid", type=str, default="11,11,11")
    parser.add_argument("--output", choices=("text", "json"), default="text")
    parser.add_argument("--quadrature-tol", type=float, default=1e-10)
    parser.add_argument("--flux", action="store_true",
                        help="reconstruct a flux map from a lambda candidate")
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("analyze", help="classify a frame file")
    p.add_argument("frame_file")
    p = sub.add_parser("verify", help="check a candidate against its system")
    p.add_argument("frame_file")
    p.add_argument("candidate_file")
    p = sub.add_parser("reconstruct", help="reconstruct potential or flux grids")
    p.add_argument("frame_file")
    p.add_argument("candidate_file")
    sub.add_parser("selftest", help="run the bundled corpus and property sweeps")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        config = RunConfig(
            samples=args.samples,
            tol=args.tol,
            seed=args.seed,
            grid=_parse_grid(args.grid),
            output=args.output,
            quadrature_tol=args.quadrature_tol,
            flux=args.flux,
        )
        handler = {
            "analyze": cmd_analyze,
            "verify": cmd_verify,
            "reconstruct": cmd_reconstruct,
            "selftest": cmd_selftest,
        }[args.command]
        return handler(args, config)
    except CurlViolationError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_MATH_FAILURE
    except _DEGENERATE_ERRORS as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_DEGENERATE
    except _INPUT_ERRORS as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except MemoryError as err:
        print(f"error: out of memory: {err}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except EigenframeError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_MATH_FAILURE


if __name__ == "__main__":
    sys.exit(main())
