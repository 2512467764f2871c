"""Decision-tree classification: corpus case labels, branch unit tests, and
invariance under scalings and field permutations."""

from __future__ import annotations

import numpy as np
import pytest

from conftest import V3, connect

from eigenframe import classify as cl
from eigenframe import geometry as g
from eigenframe.errors import InconclusiveVanishingError, NormalizationFailedError

EXPECTED_CASES = {
    "ex6.1a": ("I", "unconstrained"),
    "ex6.1b": ("IIa", "nr-4a"),
    "ex6.2": ("I", "unconstrained"),
    "ex6.3": ("III", "rank2-unclassified"),
    "ex6.4": ("IIb", "rich-3"),
    "ex6.5": ("IIb", "nr-1"),
    "ex6.6": ("IIa", "nr-2"),
    "ex6.7": ("IIb", "nr-2"),
    "ex6.8": ("IIa", "nr-3a"),
    "ex6.9": ("IIb", "nr-3b"),
    "ex6.10": ("IIb", "nr-4b"),
    "ex6.11": ("IIb", "nr-4c"),
    "ex6.9-g0": ("IIb", "nr-3a"),
    "ex6.8b": ("IIa", "nr-3a"),
    "ex6.10-nr4a-variant": ("IIb", "nr-4a"),
}


@pytest.mark.parametrize("cid", sorted(EXPECTED_CASES))
def test_corpus_classification(corpus_cases, cid):
    case = corpus_cases[cid]
    report = cl.classify(connect(case.spec))
    lam, beta = EXPECTED_CASES[cid]
    assert report.lambda_case == lam
    assert report.beta_case == beta
    assert report.freedom == cl.FREEDOM[beta]


def test_n4_frame_reports_ranks_only(corpus_cases):
    report = cl.classify(connect(corpus_cases["ex6.12"].spec))
    assert report.lambda_case == "not_n3"
    assert report.beta_case == "not_n3"
    assert (report.rank_lambda, report.rank_beta) == (3, 2)


def test_rank_consistency_invariants(corpus_cases):
    """Case labels respect the rank bookkeeping of the taxonomy."""
    for cid, case in corpus_cases.items():
        report = cl.classify(connect(case.spec))
        if report.lambda_case in ("IIa", "IIb"):
            assert report.rank_lambda == 1, cid
        if report.lambda_case == "III":
            assert report.rank_lambda == 2, cid
        if report.lambda_case == "I":
            assert report.rank_lambda == 0, cid
        if report.beta_case.startswith("nr-"):
            assert not report.richness, cid
        if report.beta_case.startswith("rich-"):
            assert report.richness, cid
        if case.spec.n == 3:
            assert report.rank_beta == report.rank_lambda, cid


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------


def test_normalize_indices_on_nonrich_frames(corpus_cases):
    for cid in ("ex6.6", "ex6.11"):
        spec = corpus_cases[cid].spec
        conn = connect(spec, 30)
        perms = cl.normalize_indices(conn)
        assert perms, cid
        view = cl._PermView(conn, perms[0])
        assert np.abs(view.C(3, 2, 1)).min() > 0


def test_normalize_indices_fails_on_rich_frame(corpus_cases):
    spec = corpus_cases["ex6.2"].spec
    with pytest.raises(NormalizationFailedError):
        cl.normalize_indices(connect(spec, 20))


# ---------------------------------------------------------------------------
# rich rank-1 branch logic on synthetic chart-space samples
# ---------------------------------------------------------------------------


def _synthetic_Z(z112, z113, z223, z332, m=12, seed=0):
    """Rank-1 pattern with Z[2,3,1] = 1 and prescribed secondary entries;
    symmetric in the two subscripts."""
    rng = np.random.default_rng(seed)
    Z = np.zeros((m, 3, 3, 3))
    val = 1.0 + 0.2 * rng.standard_normal(m)
    Z[:, 1, 2, 0] = Z[:, 2, 1, 0] = val
    Z[:, 0, 0, 1] = z112
    Z[:, 0, 0, 2] = z113
    Z[:, 1, 1, 2] = z223
    Z[:, 2, 2, 1] = z332
    # harmless diagonal entries
    Z[:, 0, 0, 0] = 0.7
    Z[:, 1, 1, 1] = -0.4
    return Z


@pytest.mark.parametrize(
    "z112,z113,z223,z332,expected",
    [
        (0.8, -0.5, 0.0, 0.0, "rich-1"),   # both secondary entries nonzero
        (0.8, 0.0, 0.3, 0.0, "rich-1"),    # one nonzero and its blocker set
        (0.8, 0.0, 0.0, 0.0, "rich-2"),
        (0.0, 0.6, 0.0, 0.4, "rich-1"),
        (0.0, 0.6, 0.0, 0.0, "rich-2"),
        (0.0, 0.0, 0.0, 0.0, "rich-3"),
    ],
)
def test_rich_rank1_branches(z112, z113, z223, z332, expected):
    trace = cl._Trace()
    case, perm = cl._classify_rich_rank1_from_Z(
        _synthetic_Z(z112, z113, z223, z332), cl.CLASSIFY_TOL, trace
    )
    assert case == expected


def test_rich_rank1_dead_zone_raises():
    trace = cl._Trace()
    Z = _synthetic_Z(3 * cl.CLASSIFY_TOL, 0.0, 0.0, 0.0)
    with pytest.raises(InconclusiveVanishingError):
        cl._classify_rich_rank1_from_Z(Z, cl.CLASSIFY_TOL, trace)


def test_rich_rank1_end_to_end(corpus_cases):
    case, perm, trace = cl.classify_beta_rich_rank1(connect(corpus_cases["ex6.4"].spec, 30))
    assert case == "rich-3"


def test_row_activity_matches_per_sample_loop():
    """One batched SVD gives the activity of the per-sample loop bit for
    bit; an all-zero sample is skipped, not read as active."""
    rng = np.random.default_rng(5)
    rows = rng.standard_normal((40, 1, 1)) * np.array([1e-12, -0.5, 1.0])
    matrices = np.concatenate([rows, 2 * rows, np.zeros((40, 1, 3))], axis=1)
    matrices[7] = 0.0
    expected = np.zeros(3)
    for mat in matrices:
        if np.linalg.norm(mat, axis=1).max() <= 0:
            continue
        v = np.abs(np.linalg.svd(mat)[2][0])
        expected = np.maximum(expected, v / v.max())
    trace = cl._Trace()
    assert cl._row_activity(matrices, 1e-6, trace, "rows") == [False, True, True]
    assert [value for _, value, _ in trace] == expected.tolist()


# ---------------------------------------------------------------------------
# invariance properties
# ---------------------------------------------------------------------------


def test_classification_invariant_under_scaling(corpus_cases):
    spec = corpus_cases["ex6.6"].spec
    scaled = g.scale_frame(spec, ["1+u1^2/5", "2+u3/3", "1+u2/4"])
    report = cl.classify(connect(scaled))
    assert report.beta_case == "nr-2"
    assert report.lambda_case == "IIa"


def test_classification_invariant_under_field_permutation(corpus_cases):
    base = corpus_cases["ex6.11"].spec
    for order in ((1, 2, 0), (2, 0, 1), (1, 0, 2)):
        cols = tuple(base.columns[j] for j in order)
        from dataclasses import replace

        permuted = replace(base, columns=cols)
        report = cl.classify(connect(permuted))
        assert report.beta_case == "nr-4c", order
        assert report.lambda_case == "IIb", order


def test_scaled_variant_of_nr4b_keeps_case(corpus_cases):
    spec = corpus_cases["ex6.10"].spec
    scaled = g.scale_frame(spec, ["2", "1+u3/5", "3"])
    report = cl.classify(connect(scaled))
    assert report.beta_case == "nr-4b"


def test_report_round_trips_to_dict(corpus_cases):
    report = cl.classify(connect(corpus_cases["ex6.5"].spec))
    d = report.to_dict()
    assert d["beta_case"] == "nr-1"
    assert isinstance(d["trace"], list) and d["trace"]
    import json

    assert json.loads(json.dumps(d)) == d
