"""Decision-tree classification: corpus case labels, branch unit tests, and
invariance under scalings and field permutations."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from conftest import V3, connect

from eigenframe import classify as cl
from eigenframe import geometry as g
from eigenframe import systems as sy
from eigenframe.errors import ChartDomainError, InconclusiveVanishingError, NormalizationFailedError

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


def test_verdicts_stable_across_samples_and_seeds(corpus_cases):
    """At 20, 50 and 200 samples and seeds 0-3 every corpus file gets its
    expected labels or an inconclusive verdict, never another label."""
    for cid, case in corpus_cases.items():
        for count in (20, 50, 200):
            for seed in range(4):
                try:
                    report = cl.classify(connect(case.spec, count, seed))
                except InconclusiveVanishingError:
                    continue
                got = (report.lambda_case, report.beta_case)
                assert got == (case.expected["lambda_case"], case.expected["beta_case"]), (
                    cid, count, seed)


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
        assert np.abs(view.C(3, 2, 1).value).min() > 0


def test_normalize_indices_fails_on_rich_frame(corpus_cases):
    spec = corpus_cases["ex6.2"].spec
    with pytest.raises(NormalizationFailedError):
        cl.normalize_indices(connect(spec, 20))


def test_nonrich_rank1_without_a_permutation_fails_normalization(corpus_cases, monkeypatch):
    """No normalized permutation at all leaves no case to try."""
    monkeypatch.setattr(cl, "normalize_indices", lambda conn: [])
    with pytest.raises(NormalizationFailedError, match="no normalized permutation matches"):
        cl.classify_beta_nonrich_rank1(connect(corpus_cases["ex6.10"].spec, 20))


def test_nonrich_rank1_reraises_the_last_inconclusive_permutation(corpus_cases, monkeypatch):
    """When every permutation's case is inconclusive, the error of the last
    permutation tried is raised."""
    raised = []

    def inconclusive(conn, perm, trace):
        raised.append(InconclusiveVanishingError(f"case at {perm}", 5e-6, cl.CLASSIFY_TOL))
        raise raised[-1]

    for name in ("_case_all_three", "_case_two", "_case_one"):
        monkeypatch.setattr(cl, name, inconclusive)
    with pytest.raises(InconclusiveVanishingError) as info:
        cl.classify_beta_nonrich_rank1(connect(corpus_cases["ex6.10"].spec, 20))
    assert raised and info.value is raised[-1]


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
        _synthetic_Z(z112, z113, z223, z332), trace
    )
    assert case == expected


def test_rich_rank1_dead_zone_raises():
    trace = cl._Trace()
    Z = _synthetic_Z(3 * cl.CLASSIFY_TOL, 0.0, 0.0, 0.0)
    with pytest.raises(InconclusiveVanishingError):
        cl._classify_rich_rank1_from_Z(Z, trace)


def test_rich_rank1_two_cross_families_raise():
    """Two nonvanishing cross families are no rank-1 pattern: the message
    names every family's magnitude and claims no dead zone."""
    Z = _synthetic_Z(0.0, 0.0, 0.0, 0.0)
    Z[:, 0, 2, 1] = Z[:, 2, 0, 1] = 0.5
    scale = 1.0 + np.abs(Z).max()
    message = (
        "no rank-1 cross pattern of the chart-space connection: cross families "
        f"Z[2,3,1] = {np.abs(Z[:, 1, 2, 0]).max() / scale:.3e}, "
        f"Z[1,3,2] = {0.5 / scale:.3e}, Z[1,2,3] = 0.000e+00 "
        "(one must exceed 1.0e-05, the others stay below 1.0e-06)"
    )
    with pytest.raises(NormalizationFailedError) as info:
        cl._classify_rich_rank1_from_Z(Z, cl._Trace())
    assert str(info.value) == message


def test_rich_rank1_cross_family_in_dead_zone_is_inconclusive():
    """A second cross family between CLASSIFY_TOL and ten times it leaves
    the pattern undecided, and the message names that family."""
    Z = _synthetic_Z(0.0, 0.0, 0.0, 0.0)
    scale = 1.0 + np.abs(Z).max()
    Z[:, 0, 2, 1] = Z[:, 2, 0, 1] = 3e-6 * scale
    with pytest.raises(InconclusiveVanishingError) as info:
        cl._classify_rich_rank1_from_Z(Z, cl._Trace())
    assert str(info.value) == (
        "coefficient chart cross family Z[1,3,2] = 3.000e-06 is in the dead zone "
        "[1.0e-06, 1.0e-05]"
    )


def test_rich_rank1_needs_a_chart(corpus_cases):
    spec = dataclasses.replace(corpus_cases["ex6.4"].spec, chart=None)
    with pytest.raises(ChartDomainError):
        cl.classify_beta_rich_rank1(connect(spec, 20))


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
    assert cl._row_activity(matrices, trace, "rows") == [False, True, True]
    assert [value for _, value, _ in trace] == expected.tolist()


def test_lambda_constraint_with_one_active_unknown_is_degenerate_sampling():
    """A rank-1 constraint on a single unknown is not a case of the taxonomy;
    it is labelled IIb with a "degenerate sampling" trace entry."""
    rng = np.random.default_rng(3)
    matrix = np.zeros((10, 3, 3))
    matrix[:, :, 0] = rng.standard_normal((10, 3))
    lsys = sy.AlgebraicSystem(sy.algebraic_triples(3), matrix)
    case, trace = cl.classify_lambda_n3(lsys, 1)
    assert case == "IIb"
    assert trace[-1] == ("lambda constraint active count", 1.0, "degenerate sampling")


def test_null_branch_names_the_vanishing_component():
    nulls = np.array([[0.0, 1.0], [1e-9, -1.0], [-2e-8, 1.0]])
    assert cl._null_branch(nulls, cl._Trace()) == "first"
    assert cl._null_branch(nulls[:, ::-1], cl._Trace()) == "second"
    assert cl._null_branch(np.full((3, 2), 0.6), cl._Trace()) == "mixed"


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


def _same_report(got, want):
    assert (got.lambda_case, got.beta_case, got.permutation) == (
        want.lambda_case, want.beta_case, want.permutation)
    assert (got.rank_beta, got.rank_lambda, got.richness) == (
        want.rank_beta, want.rank_lambda, want.richness)
    assert [(c, s) for c, _, s in got.trace] == [(c, s) for c, _, s in want.trace]
    for (c, a, _), (_, b, _) in zip(got.trace, want.trace):
        assert abs(a - b) <= 1e-13, (c, a, b)


def test_classify_on_reused_or_sliced_series(corpus_cases, monkeypatch):
    """A connection hands out lower orders of Gamma as leading slices of a
    series it already holds.  Classifying a connection twice, or one whose
    order-3 series was computed first, gives the report of a connection
    that computes every order it is asked for afresh."""
    sets = {(cid, seed): case.spec.sample_points(50, seed)
            for cid, case in corpus_cases.items() if case.spec.n == 3 for seed in (0, 3)}
    reused, sliced = {}, {}
    for (cid, seed), points in sets.items():
        spec = corpus_cases[cid].spec
        conn = g.eval_connection(spec, points)
        cl.classify(conn)
        reused[cid, seed] = cl.classify(conn)
        conn = g.eval_connection(spec, points)
        G3 = conn.taylor(3)
        assert all(np.shares_memory(conn.taylor(k).coef, G3.coef) for k in (0, 1, 2))
        sliced[cid, seed] = cl.classify(conn)
    monkeypatch.setattr(g.ConnectionEval, "taylor", lambda self, order: g._gamma_series(
        self._frame_series(order + 1), self.L,
        g._frame_operator(self._frame_series(order), order + 1)))
    for key, points in sets.items():
        fresh = cl.classify(g.eval_connection(corpus_cases[key[0]].spec, points))
        _same_report(reused[key], fresh)
        _same_report(sliced[key], fresh)


def test_frame_operator_built_once_per_order(corpus_cases, monkeypatch):
    """eval_connection and taylor keep the operator their Gamma series
    solved with, and r slices it: classifying a connection builds each order
    of the frame-derivative operator at most once per sample set, in
    increasing order, since a lower order is a slice of the highest built.
    ex6.9's classifier reaches Gamma of order 3, whose series uses the
    operator of order 4."""
    built = []
    operator = g._frame_operator
    monkeypatch.setattr(
        g, "_frame_operator", lambda R, order: built.append(order) or operator(R, order))
    for cid, case in corpus_cases.items():
        if case.spec.n != 3:
            continue
        for seed in (0, 3):
            built.clear()
            cl.classify(connect(case.spec, seed=seed))
            assert built[0] == 2 and built == sorted(set(built)), (cid, seed, built)
            if cid == "ex6.9":
                assert {3, 4} <= set(built), built


def test_operator_slices_match_fresh_builds(corpus_cases):
    """A lower order of the frame-derivative operator is a leading slice of
    the highest order built: after taylor(3) builds the order-4 operator, its
    slices of orders 1 to 3 have the bits of fresh _frame_operator builds,
    signs of zeros included."""
    for cid, case in corpus_cases.items():
        if case.spec.n != 3:
            continue
        for seed in (0, 3):
            conn = connect(case.spec, seed=seed)
            conn.taylor(3)
            assert conn._series["operator"].shape[2] == g._size(3, 4), cid
            for order in (1, 2, 3):
                fresh = g._frame_operator(conn._frame_series(order - 1), order)
                held = conn._operator(order)
                assert held.shape == fresh.shape, (cid, seed, order)
                assert np.ascontiguousarray(held).tobytes() == fresh.tobytes(), (cid, seed, order)
