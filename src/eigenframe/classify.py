"""Case labels of the n=3 solution-set taxonomy.

The speed ("lambda") system is labelled by the rank and sparsity pattern of
its algebraic part, the (m, rows, 3) array systems.lambda_algebraic gives:

  lambda_case: I (rank 0), IIa / IIb (rank 1, three resp. two unknowns in
  the constraint), III (rank 2), not_n3.

An unknown enters a rank-1 constraint when its weight does not vanish: its
largest entry over a sample's largest, |v_a| / max |v| for a sample u v^T,
maximized over the samples, since the constraint may rotate with the base
point.  A constraint in fewer than two unknowns has no label.

The length ("beta") system is labelled by the size of its solution set,
"the number of free constants and functions present in the general
solution", which FREEDOM names for each label.  Rank 0 is unconstrained
and rank 2 unclassified.  At rank 1 the size is counted
(systems.beta_jet_count): the solution jets of order 3 at one point,
projected onto the coefficients of degree <= k, have dimension
d_k = f (k + 1) + c for f arbitrary functions of one variable and c
arbitrary constants, and the label is the rich-1..3 (rich frames) or
nr-1..nr-4c label whose FREEDOM has (f, c); nr-3b and nr-4c, one constant
each, differ in the support, the number of components not forced to
vanish (two resp. three).

The lambda verdicts use a two-threshold scheme at the module tolerance
CLASSIFY_TOL: a scaled magnitude below it counts as zero, above 10 times it
as nonzero, and anything in between raises InconclusiveVanishingError
rather than silently guessing.  The count reads its pivots and ranks the
same way at systems.JET_RANK_TOL, and raises InconclusiveVanishingError
where algebraic rows are left after its elimination.  The error is also
raised when no label fits: a lambda constraint in fewer than two unknowns,
or a count with d_2 != 3f + c or with an (f, c) that no label has.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import InconclusiveVanishingError
from .geometry import ConnectionEval, is_rich
from .systems import (
    JetCount,
    beta_algebraic,
    beta_jet_count,
    generic_rank,
    lambda_algebraic,
)

FREEDOM = {
    "unconstrained": "3 arbitrary functions of 1 variable",
    "rich-1": "only the trivial solution",
    "rich-2": "1 arbitrary function of 1 variable",
    "rich-3": "2 arbitrary functions of 1 variable",
    "nr-1": "only the trivial solution",
    "nr-2": "1 arbitrary function of 1 variable",
    "nr-3a": "2 arbitrary functions of 1 variable",
    "nr-3b": "1 arbitrary constant",
    "nr-4a": "1 arbitrary function of 1 variable and 1 arbitrary constant",
    "nr-4b": "2 arbitrary constants",
    "nr-4c": "1 arbitrary constant",
    "rank2-unclassified": "not covered by the rank-1 taxonomy",
    "not_n3": "",
}

CLASSIFY_TOL = 1e-6  # vanishing tolerance for classifier coefficients


@dataclass
class ClassificationReport:
    n: int
    richness: bool
    rank_beta: int
    rank_lambda: int
    lambda_case: str
    beta_case: str
    freedom: str
    trace: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "richness": self.richness,
            "rank_beta": self.rank_beta,
            "rank_lambda": self.rank_lambda,
            "lambda_case": self.lambda_case,
            "beta_case": self.beta_case,
            "freedom": self.freedom,
            "trace": [
                {"condition": c, "value": float(v), "verdict": s} for c, v, s in self.trace
            ],
        }


class _Trace(list):
    def note(self, condition: str, value: float, verdict: str):
        self.append((condition, float(value), verdict))


def _vanishes(name: str, value: float, trace: _Trace) -> bool:
    """Two-threshold vanishing verdict on a scaled magnitude."""
    if value < CLASSIFY_TOL:
        trace.note(name, value, "zero")
        return True
    if value > 10 * CLASSIFY_TOL:
        trace.note(name, value, "nonzero")
        return False
    raise InconclusiveVanishingError(name, value, CLASSIFY_TOL)


# ---------------------------------------------------------------------------
# lambda classification
# ---------------------------------------------------------------------------


def classify_lambda_n3(matrix: np.ndarray, rank: int) -> tuple:
    """Case label for the speed system from its algebraic part (m, rows, 3)
    and that part's generic rank: rank 0 -> I; rank 1 -> IIa when all three
    unknowns enter the constraint, IIb when exactly two; rank 2 -> III."""
    trace = _Trace()
    trace.note("lambda algebraic rank", rank, "info")
    if rank == 0:
        return "I", trace
    if rank == 2:
        return "III", trace
    top = np.abs(matrix).max(axis=1)
    peak = top.max(axis=1, keepdims=True)
    # an all-zero sample weighs 0 in every unknown
    weights = np.divide(top, peak, out=np.zeros_like(top), where=peak > 0).max(axis=0)
    count = sum(not _vanishes(f"lambda constraint coefficient of unknown {a + 1}", float(w), trace)
                for a, w in enumerate(weights))
    if count == 3:
        return "IIa", trace
    if count == 2:
        return "IIb", trace
    raise InconclusiveVanishingError(
        f"no lambda label has a rank-1 constraint in {count} of the 3 unknowns")


# ---------------------------------------------------------------------------
# beta labels from the count
# ---------------------------------------------------------------------------


def _freedom_counts(text: str) -> tuple:
    """(functions, constants) named by a FREEDOM text."""
    found = [re.search(rf"(\d+) arbitrary {word}", text) for word in ("function", "constant")]
    return tuple(int(m[1]) if m else 0 for m in found)


# label -> (functions, constants) of its FREEDOM text
_COUNTS = {label: _freedom_counts(text) for label, text in FREEDOM.items()}


# the two rank-1 labels with one arbitrary constant differ in the support
_SUPPORT = {"nr-3b": 2, "nr-4c": 3}


def beta_label(rich: bool, rank: int, count: Optional[JetCount]) -> str:
    """The length-system label of an n = 3 frame from its richness, the
    generic rank of its algebraic part and, at rank 1, the count of its
    solution jets: rank 0 is unconstrained and rank 2 unclassified; at rank
    1, with d_k = f (k + 1) + c, the rich-* or nr-* label whose FREEDOM has
    f functions and c constants, nr-3b and nr-4c told apart by the support.
    A count not of that form, or an (f, c) that no label has, raises
    InconclusiveVanishingError."""
    if rank != 1:
        return "unconstrained" if rank == 0 else "rank2-unclassified"
    d0, d1, d2 = count.dims
    f, c = d1 - d0, 2 * d0 - d1
    if d2 != 3 * f + c:
        raise InconclusiveVanishingError(
            f"beta solution jet dimensions {list(count.dims)} are not f (k + 1) + c")
    prefix = "rich-" if rich else "nr-"
    labels = [label for label, counts in _COUNTS.items()
              if label.startswith(prefix) and counts == (f, c)
              and _SUPPORT.get(label, count.support) == count.support]
    if not labels:
        raise InconclusiveVanishingError(
            f"no {prefix}* label has {f} functions and {c} constants on support {count.support}")
    return labels[0]


# ---------------------------------------------------------------------------
# top-level dispatcher
# ---------------------------------------------------------------------------


def classify(conn: ConnectionEval) -> ClassificationReport:
    """Full classification over the connection's sample set: richness at
    RICH_TOL, the speed verdicts at CLASSIFY_TOL and the ranks of the
    solution-jet count at systems.JET_RANK_TOL."""
    spec = conn.spec
    bmat = beta_algebraic(conn)
    lmat = lambda_algebraic(conn)
    # for n=2 there are no distinct index triples, so both matrices are empty
    rank_beta = generic_rank(bmat / (1.0 + np.abs(bmat).max(initial=0.0)))
    rank_lambda = generic_rank(lmat / (1.0 + np.abs(lmat).max(initial=0.0)))
    rich, witness = is_rich(conn)
    trace = _Trace()
    trace.note("richness worst witness", witness["value"], "rich" if rich else "not rich")
    if spec.n != 3:
        return ClassificationReport(
            n=spec.n, richness=rich, rank_beta=rank_beta, rank_lambda=rank_lambda,
            lambda_case="not_n3", beta_case="not_n3", freedom=FREEDOM["not_n3"],
            trace=list(trace),
        )
    lambda_case, ltrace = classify_lambda_n3(lmat, rank_lambda)
    trace.extend(ltrace)
    count = None
    if rank_beta == 1:
        count = beta_jet_count(conn)
        for k, d in enumerate(count.dims):
            trace.note(f"beta solution jets at sample 0, degree <= {k}", d, "count")
        trace.note("beta components not forced to vanish", count.support, "count")
        trace.note("beta smallest kept singular value", count.kept, "nonzero")
        trace.note("beta largest dropped singular value", count.dropped, "zero")
    beta_case = beta_label(rich, rank_beta, count)
    return ClassificationReport(
        n=3, richness=rich, rank_beta=rank_beta, rank_lambda=rank_lambda,
        lambda_case=lambda_case, beta_case=beta_case, freedom=FREEDOM[beta_case],
        trace=list(trace),
    )
