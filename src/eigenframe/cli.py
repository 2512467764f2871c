"""Command-line front end.

Commands:
  analyze      frame classification report (richness, connection tables at
               the base point, algebraic ranks, case labels, decision
               trace); a rank-1 length label is read from the count of the
               length system's solution jets, with no chart
  verify       residuals of a candidate against its system, the cross-system
               identity, and the convexity classification
  reconstruct  scalar-potential or flux grids from a verified candidate: the
               candidate's kind picks eta (beta) or flux (lambda), and
               --flux only asserts that it is a lambda candidate
  selftest     run the bundled example corpus plus quick property sweeps

Exit codes (an error prints one "error: ..." line to stderr, a failed
verify or reconstruct one line that names the residual, and a failed
selftest one line that counts the failed examples):
  0  pass
  1  mathematical failure: a residual not below --tol; CurlViolationError,
     NotRankZeroError, ChartDomainError, ZeroScalingError,
     QuadratureFailureError (a ray that does not converge, or whose integral
     is not finite), StepFailureError
  2  input error: SchemaError (also a domain box without lo < hi and a
     finite width hi - lo, or a number outside the double range),
     CorpusParseError (also an input file that cannot be read or is not
     JSON; NaN and Infinity are not JSON numbers), ExprSyntaxError (also
     an expression deeper than exprlang.MAX_DEPTH), IllegalCharacterError,
     UnknownIdentifierError, a grid file that cannot be written (OSError),
     ValueError (usage errors and bad flag values: --tol and
     --quadrature-tol must be finite and positive, --seed a non-negative
     integer below 2^63/1009), MemoryError (an input too large for memory:
     a --grid past the address space, or a --samples whose estimated
     working set exceeds the physical memory)
  3  numerical degeneracy: SingularFrameError, CoincidentEigenvaluesError,
     InconclusiveVanishingError (also a lambda constraint in fewer than two
     unknowns, or a solution count, that no label fits, and length
     algebraic rows that the count's elimination leaves),
     DomainError (also a frame whose determinant overflows)

Each command evaluates the frame once on its sample set (one
ConnectionEval) and hands that to every check, and each candidate once on
it (its residual record, whose values feed the cross-system identity and
the convexity classification).  analyze, verify and reconstruct read only
values of the connection, so they build it at order 0 (the frame's tape at
order 1, on the sample set and on analyze's base point); selftest's
examples and its random frames build it at order 1 (the tape at order 2)
for the torsion and curvature checks, and its scaling sweep at order 0.
A candidate is verified when its residual is below --tol.  Sampling is
deterministic in --seed.

verify pairs its candidate with a partner of the other kind from the frame
file for the eigenvalue-gap identity, which needs speeds apart at every
sample (systems.coincident_speeds): the first partner, in file order, that
is verified and gives such a pair.  A speed candidate whose own speeds
coincide reads no partner; a length candidate runs each speed partner's
tape once and forms that partner's residual only when its speeds are
apart.  A frame file's candidates are parsed only when read: analyze and
reconstruct parse none, verify its partners up to the first that pairs.
reconstruct's CSV and JSON grids spell each number as its repr.

The argument parser is built once per process, on the first call of main,
and every later call reuses it.  A document that fails the corpus schema
exits 2 with jsonschema's message for it (corpus._validate).  jsonschema
is imported only at the first document the strict pre-check defers on
(every failing one among them), so a run on documents the pre-check
passes never loads it.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import corpus as corpus_mod
from . import exprlang
from .classify import classify
from .errors import (
    CoincidentEigenvaluesError,
    CorpusParseError,
    DomainError,
    EigenframeError,
    ExprSyntaxError,
    IllegalCharacterError,
    InconclusiveVanishingError,
    SchemaError,
    SingularFrameError,
    UnknownIdentifierError,
)
from .geometry import eval_connection, scale_frame
from .systems import (
    BetaCandidate,
    _residual_record,
    beta_residual,
    candidate_residual,
    coincident_speeds,
    convexity_classify,
    eval_candidate,
    sevennec_identity,
)
from .potential import DEFAULT_QUAD_TOL, reconstruct_eta, reconstruct_flux

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
    InconclusiveVanishingError,
    DomainError,
)


def _load_case(path: str):
    """A frame file is an example document; candidate entries are optional."""
    doc = corpus_mod.read_json(path)
    if isinstance(doc, dict):  # anything else is left to the schema to reject
        doc = {"candidates": [], "expected": {
            "rich": False, "rank_beta": 0, "rank_lambda": 0,
            "lambda_case": "not_n3", "beta_case": "not_n3"}, **doc}
    return corpus_mod.load_example_from_doc(doc, source=str(path))


def _load_frame(path: str):
    return _load_case(path).spec


def _load_candidate(path: str, vars, params):
    return corpus_mod.load_candidate(corpus_mod.read_json(path), vars, params, source=str(path))


def _emit(report: dict, args):
    if args.output == "json":
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


def cmd_analyze(args) -> int:
    spec = _load_frame(args.frame_file)
    report = classify(eval_connection(spec, spec.sample_points(args.samples, args.seed), 0))
    base = eval_connection(spec, np.asarray(spec.base_point)[None, :], 0)
    out = report.to_dict()
    out["base_point"] = list(spec.base_point)
    # + 0.0 turns the -0.0 that rounding leaves of tiny negative noise into 0.0
    out["gamma_at_base"] = (np.round(base.Gamma[0], 12) + 0.0).tolist()
    out["c_at_base"] = (np.round(base.c[0], 12) + 0.0).tolist()
    _emit(out, args)
    return EXIT_PASS


def cmd_verify(args) -> int:
    case = _load_case(args.frame_file)
    spec = case.spec
    kind, cand = _load_candidate(args.candidate_file, spec.vars, spec.params)
    conn = eval_connection(spec, spec.sample_points(args.samples, args.seed), 0)
    rec = candidate_residual(conn, kind, cand)
    out = {
        "kind": kind,
        "max_scaled_residual": rec.max_scaled,
        "tol": args.tol,
        "worst": rec.worst(),
        "families": rec.families,
    }
    if kind == "beta":
        out["convexity"] = convexity_classify(rec.values)
    passed = rec.max_scaled < args.tol
    cross = _cross_identity(conn, rec, case.candidates, args.tol)
    if cross is not None:
        out["cross-identity"] = cross
        passed = passed and cross < max(args.tol, 1e-9)
    out["passed"] = bool(passed)
    _emit(out, args)
    if not passed:
        detail = "" if cross is None else f", cross-system identity {cross:.3e}"
        print(f"candidate fails verification: residual {rec.max_scaled:.3e}{detail}, "
              f"tol {args.tol:.1e}", file=sys.stderr)
        return EXIT_MATH_FAILURE
    return EXIT_PASS


def _cross_identity(conn, rec, candidates, tol: float):
    """The eigenvalue-gap identity of rec's candidate with its first partner
    among the other-kind candidates of the frame file that is verified
    (residual below tol) and whose pair has speeds apart at every sample, or
    None.  Partners are parsed and run one at a time, up to that one."""
    if rec.kind == "lambda" and coincident_speeds(rec.values) is not None:
        return None
    other = "lambda" if rec.kind == "beta" else "beta"
    for partner in candidates.of_kind(other):
        vals, grads = eval_candidate(partner.tape, conn.points)
        bvals, lvals = (rec.values, vals) if other == "lambda" else (vals, rec.values)
        if (coincident_speeds(lvals) is None
                and _residual_record(conn, other, vals, grads).max_scaled < tol):
            return sevennec_identity(conn, bvals, lvals)
    return None


def cmd_reconstruct(args) -> int:
    spec = _load_frame(args.frame_file)
    kind, cand = _load_candidate(args.candidate_file, spec.vars, spec.params)
    conn = eval_connection(spec, spec.sample_points(args.samples, args.seed), 0)
    counts = args.grid[: spec.n]
    if len(counts) < spec.n:
        counts = tuple(counts) + (counts[-1],) * (spec.n - len(counts))
    if args.flux and kind != "lambda":
        raise SchemaError("--flux reconstruction needs a lambda candidate")
    name, reconstruct = ("flux", reconstruct_flux) if kind == "lambda" else ("eta", reconstruct_eta)
    rec = candidate_residual(conn, kind, cand)
    if not rec.max_scaled < args.tol:
        print(f"candidate residual {rec.max_scaled:.3e} is not below tol", file=sys.stderr)
        return EXIT_MATH_FAILURE
    grid = reconstruct(spec, cand, spec.base_point, counts, args.quadrature_tol)
    stem = Path(args.candidate_file).with_suffix("")
    out_csv = Path(f"{stem}_{name}.csv")
    out_json = Path(f"{stem}_{name}.json")
    out_csv.write_text(grid.to_csv(spec.vars))
    out_json.write_text(grid.to_json())
    summary = {"written": [str(out_csv), str(out_json)], **grid.meta}
    _emit(summary, args)
    return EXIT_PASS


def cmd_selftest(args) -> int:
    root = Path(corpus_mod.corpus_dir())
    bundled = [corpus_mod.load_example(p) for p in sorted(root.glob("*.json"))]
    extended = [corpus_mod.load_example(p) for p in sorted(root.glob("extended/*.json"))]
    results = [
        corpus_mod.run_example(case, samples=args.samples, tol=args.tol, seed=args.seed)
        for case in bundled + extended
    ]
    prop = _property_sweeps(args, {case.id: case for case in bundled})
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
    _emit(out, args)
    if not all_passed:
        failed = sum(not r["passed"] for r in results)
        sweeps = "passed" if prop["passed"] else "failed"
        print(f"selftest fails: {failed} of {len(results)} examples failed, "
              f"property sweeps {sweeps}", file=sys.stderr)
        return EXIT_MATH_FAILURE
    return EXIT_PASS


def _property_sweeps(args, bundled: dict) -> dict:
    """Quick cross-cutting invariants (the full versions live in the test
    suite): geometric identities on random frames, the rank-duality
    identity, and scaling covariance on a bundled corpus example (bundled
    maps example ids to loaded cases)."""
    from .exprlang import Add, Mul, Num, Pow, Var
    from .geometry import frame_from_sources, check_symmetry_flatness
    from .systems import beta_algebraic, check_rank_duality_n3, generic_rank, lambda_algebraic

    rng = np.random.default_rng(args.seed)
    u = [Var(i, f"u{i + 1}") for i in range(3)]

    def coef():  # a coefficient rounded as "%.6f" writes it
        return Num(float(f"{rng.uniform(-0.15, 0.15):.6f}"))

    def entry(a, j):
        """1 (on the diagonal) + c1*u1 + c2*u2*u3 + c3*u{a+1}^2, in the tree
        the parser gives that text (a negative c is Num(c) where it gives
        Neg(Num(-c)), which the tape compiler folds to the same constant)."""
        terms = [Mul(coef(), u[0]), Mul(Mul(coef(), u[1]), u[2]), Mul(coef(), Pow(u[a], Num(2.0)))]
        if a == j:
            terms.insert(0, Num(1.0))
        return functools.reduce(Add, terms)

    sweeps = {}
    worst_geom = 0.0
    worst_dual = 0.0
    rank_ok = True
    for _ in range(10):
        cols = [[entry(a, j) for a in range(3)] for j in range(3)]
        spec = frame_from_sources(cols, ["u1", "u2", "u3"], domain=((0, 0, 0), (1, 1, 1)))
        conn = eval_connection(spec, spec.sample_points(20, args.seed))
        t, c = check_symmetry_flatness(conn)
        worst_geom = max(worst_geom, t, c)
        worst_dual = max(worst_dual, check_rank_duality_n3(conn))
        rank_ok = rank_ok and (
            generic_rank(beta_algebraic(conn)) == generic_rank(lambda_algebraic(conn))
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
        alphas = [exprlang.parse_expression(a, spec.vars, spec.params)
                  for a in ("1+u2^2/4", "2+u1/2", "1+u3/3")]
        scaled = scale_frame(spec, alphas)
        # the length candidate of the scaled frame is alpha_j^2 b^j
        scaled_cand = BetaCandidate(tuple(
            Mul(Pow(a, Num(2.0)), e) for a, e in zip(alphas, bcand.exprs)
        ), bcand.params)
        conn = eval_connection(scaled, spec.sample_points(20, args.seed), 0)
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


class _ArgumentParser(argparse.ArgumentParser):
    """Usage errors (an unknown flag, a missing or malformed value) raise
    ValueError, which exits 2 with one error line like every input error,
    instead of printing the usage and calling sys.exit."""

    def error(self, message):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="eigenframe",
        description="Analyze, verify, and reconstruct extension/entropy and "
                    "flux systems for a prescribed eigen-frame.",
    )
    parser.add_argument("--samples", type=int, default=50)
    parser.add_argument("--tol", type=float, default=1e-8)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--grid", type=str, default="11,11,11")
    parser.add_argument("--output", choices=("text", "json"), default="text")
    parser.add_argument("--quadrature-tol", type=float, default=DEFAULT_QUAD_TOL)
    parser.add_argument("--flux", action="store_true",
                        help="require a lambda candidate for reconstruct (the "
                             "candidate's kind picks flux or eta)")
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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser, built on first use; parse_args reads it
    and changes nothing in it."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        args.grid = _parse_grid(args.grid)
        if args.samples < 8:
            raise ValueError("--samples must be at least 8")
        for flag, tol in (("--tol", args.tol), ("--quadrature-tol", args.quadrature_tol)):
            if not (math.isfinite(tol) and tol > 0):
                raise ValueError(f"{flag} must be finite and positive, got {tol!r}")
        handler = {
            "analyze": cmd_analyze,
            "verify": cmd_verify,
            "reconstruct": cmd_reconstruct,
            "selftest": cmd_selftest,
        }[args.command]
        return handler(args)
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
