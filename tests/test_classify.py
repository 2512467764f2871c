"""Classification: corpus case labels, the length labels read from the
count of solution jets, and invariance under scalings and field
permutations."""

from __future__ import annotations

import dataclasses
import itertools
import types

import numpy as np
import pytest

from conftest import V3, connect, one_unknown_constraint

from eigenframe import classify as cl
from eigenframe import geometry as g
from eigenframe import systems as sy
from eigenframe.errors import InconclusiveVanishingError

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
# length labels from the count of solution jets
# ---------------------------------------------------------------------------


def _count(f, c, support):
    return sy.JetCount((f + c, 2 * f + c, 3 * f + c), support, 1.0, 0.0)


# (richness, rank, functions, constants, support, label) of every n = 3 label
FREEDOM_ROWS = [
    (False, 0, 3, 0, 3, "unconstrained"),
    (True, 0, 3, 0, 3, "unconstrained"),
    (True, 1, 0, 0, 0, "rich-1"),
    (True, 1, 1, 0, 1, "rich-2"),
    (True, 1, 2, 0, 2, "rich-3"),
    (False, 1, 0, 0, 0, "nr-1"),
    (False, 1, 1, 0, 1, "nr-2"),
    (False, 1, 2, 0, 2, "nr-3a"),
    (False, 1, 0, 1, 2, "nr-3b"),
    (False, 1, 1, 1, 3, "nr-4a"),
    (False, 1, 0, 2, 3, "nr-4b"),
    (False, 1, 0, 1, 3, "nr-4c"),
    (False, 2, 1, 0, 1, "rank2-unclassified"),
]


@pytest.mark.parametrize("rich, rank, f, c, support, label", FREEDOM_ROWS)
def test_every_freedom_row_from_its_count(rich, rank, f, c, support, label):
    """Each n = 3 label of FREEDOM is read back from richness, rank and, at
    rank 1, the count: f functions and c constants, which its FREEDOM text
    names, and the support."""
    assert cl.beta_label(rich, rank, _count(f, c, support) if rank == 1 else None) == label
    if rank == 1:
        assert cl._freedom_counts(cl.FREEDOM[label]) == (f, c)


def test_freedom_rows_cover_every_n3_label():
    assert {row[-1] for row in FREEDOM_ROWS} == set(cl.FREEDOM) - {"not_n3"}


@pytest.mark.parametrize("rich, count, message", [
    (False, sy.JetCount((1, 2, 4), 3, 1.0, 0.0),
     "beta solution jet dimensions [1, 2, 4] are not f (k + 1) + c"),
    (True, _count(1, 1, 3), "no rich-* label has 1 functions and 1 constants on support 3"),
    (False, _count(3, 0, 3), "no nr-* label has 3 functions and 0 constants on support 3"),
    (False, _count(0, 1, 1), "no nr-* label has 0 functions and 1 constants on support 1"),
])
def test_count_no_label_fits_is_inconclusive(rich, count, message):
    with pytest.raises(InconclusiveVanishingError) as info:
        cl.beta_label(rich, 1, count)
    assert str(info.value) == message


def _rich_rank1_frame(z112, z113):
    """The coordinate frame du/dw of the chart

        u = (w1 - z112 z113 w1^4 / 4 + w2 w3, w2 + z112 w1^2 / 2, w3 + z113 w1^2 / 2)

    at u = w = 0, where its connection is Z[2,3,1] = 1, Z[1,1,2] = z112
    and Z[1,1,3] = z113.  u is w1-terms plus (w2, w3)-terms, so Z[1,2,*]
    and Z[1,3,*] vanish everywhere, and so do Z[2,2,*] and Z[3,3,*]; a
    zero z112 or z113 vanishes everywhere too.  The quartic term makes w1
    the root of a quadratic in u, so the frame is explicit."""
    w1 = "(2*(u1-u2*u3)/(1+sqrt(1-2*(q*u2+p*u3)*(u1-u2*u3))))"
    columns = [
        [f"1-p*q*{w1}^3", f"p*{w1}", f"q*{w1}"],
        [f"u3-q*{w1}^2/2", "1", "0"],
        [f"u2-p*{w1}^2/2", "0", "1"],
    ]
    return g.frame_from_sources(columns, V3, {"p": z112, "q": z113},
                                domain=((-0.2,) * 3, (0.2,) * 3))


# Z[2,2,3] and Z[3,3,2] stay zero: where Z[1,1,3] and Z[1,2,3] vanish, the
# flatness of a chart gives Z[1,1,2] Z[2,2,3] = 0, and by symmetry
# Z[1,1,3] Z[3,3,2] = 0, so no frame has a nonzero pair of either kind.
@pytest.mark.parametrize(
    "z112,z113,z223,z332,expected",
    [
        (0.8, -0.5, 0.0, 0.0, "rich-1"),   # both secondary entries nonzero
        (0.8, 0.0, 0.0, 0.0, "rich-2"),
        (0.0, 0.6, 0.0, 0.0, "rich-2"),
        (0.0, 0.0, 0.0, 0.0, "rich-3"),
    ],
)
def test_rich_rank1_branches(z112, z113, z223, z332, expected):
    """A rich rank-1 frame with the chart-space connection Z of the
    parameters at its base point is labelled, from the count of its
    solution jets, as its vanishing pattern says: rich-1 if Z[1,1,2] and
    Z[1,1,3] are both nonzero, rich-2 if one is, rich-3 if none is."""
    spec = _rich_rank1_frame(z112, z113)
    Z = g.eval_connection(spec, np.zeros((1, 3))).Gamma[0]
    assert Z[1, 2, 0] == pytest.approx(1.0)
    assert [Z[0, 0, 1], Z[0, 0, 2], Z[1, 1, 2], Z[2, 2, 1]] == pytest.approx(
        [z112, z113, z223, z332], abs=1e-12)
    assert np.abs([Z[0, 1, 2], Z[0, 2, 1]]).max() < 1e-12
    report = cl.classify(connect(spec, 20))
    assert (report.richness, report.rank_beta, report.beta_case) == (True, 1, expected)


def test_rich_rank1_dead_zone_raises(corpus_cases, monkeypatch):
    """A singular value of the count between tol and ten times tol is
    inconclusive, for the rich frame ex6.4 as for any: a dead zone
    [kept / 9.99, 1.001 kept] holds the smallest kept value alone."""
    conn = connect(corpus_cases["ex6.4"].spec, 30)
    count = sy.beta_jet_count(conn)
    tol = count.kept / 9.99
    monkeypatch.setattr(sy, "JET_RANK_TOL", tol)
    with pytest.raises(InconclusiveVanishingError) as info:
        sy.beta_jet_count(conn)
    assert str(info.value) == (f"beta jet singular value = {count.kept:.3e} "
                               f"is in the dead zone [{tol:.1e}, {10 * tol:.1e}]")


def test_rich_rank1_end_to_end(corpus_cases):
    report = cl.classify(connect(corpus_cases["ex6.4"].spec, 30))
    assert (report.richness, report.rank_beta, report.beta_case) == (True, 1, "rich-3")
    assert ("beta solution jets at sample 0, degree <= 2", 6.0, "count") in report.trace


def test_rich_rank1_needs_no_chart(corpus_cases):
    """The count reads no chart: ex6.4 without its chart is still rich-3."""
    spec = dataclasses.replace(corpus_cases["ex6.4"].spec, chart=None)
    assert cl.classify(connect(spec, 20)).beta_case == "rich-3"


def test_count_matches_the_labels_of_the_corpus(corpus_cases):
    """The count of every rank-1 n = 3 corpus file at seeds 0-3: its freedom
    is the one of its label; the kept singular values stay 1000 times
    above the dead zone and the dropped ones 1000 times below it."""
    tol = sy.JET_RANK_TOL
    for cid, case in corpus_cases.items():
        label = case.expected["beta_case"]
        if case.spec.n != 3 or case.expected["rank_beta"] != 1:
            continue
        for seed in range(4):
            count = sy.beta_jet_count(connect(case.spec, 50, seed))
            d0, d1, _ = count.dims
            assert (d1 - d0, 2 * d0 - d1) == cl._freedom_counts(cl.FREEDOM[label]), (cid, seed)
            assert count.kept > 1e4 * tol and count.dropped < 1e-3 * tol, (cid, seed)


# the components not forced to vanish in the count of each rank-1 n = 3
# corpus file
RANK1_SUPPORT = {
    "ex6.1b": 3, "ex6.4": 2, "ex6.5": 0, "ex6.6": 1, "ex6.7": 1, "ex6.8": 2, "ex6.8b": 2,
    "ex6.9": 2, "ex6.9-g0": 2, "ex6.10": 3, "ex6.10-nr4a-variant": 3, "ex6.11": 3,
}


def test_count_at_every_rank_and_point(corpus_cases):
    """At 20 Halton points of each of the 15 n = 3 corpus files, the count
    on a one-point connection reads the file's (dims, support): ((3, 6, 9),
    3) at rank 0 (no row eliminated), ((1, 2, 3), 1) at rank 2 (two
    components eliminated) and, at rank 1, d_k = f (k + 1) + c for the
    (f, c) of the file's label, on its support."""
    files = 0
    for cid, case in corpus_cases.items():
        if case.spec.n != 3:
            continue
        files += 1
        rank = case.expected["rank_beta"]
        if rank == 1:
            f, c = cl._COUNTS[case.expected["beta_case"]]
            want = (tuple(f * (k + 1) + c for k in range(3)), RANK1_SUPPORT[cid])
        else:
            want = {0: ((3, 6, 9), 3), 2: ((1, 2, 3), 1)}[rank]
        for point in case.spec.sample_points(20):
            count = sy.beta_jet_count(g.eval_connection(case.spec, point[None]))
            assert (count.dims, count.support) == want, (cid, point)
    assert files == 15


def test_algebraic_pivot_dead_zone_raises(corpus_cases, monkeypatch):
    """A pivot of the algebraic part's value between tol and ten times tol
    is inconclusive: ex6.4's first pivot, max |A_0| over 1 + max |A_0| for
    the frame with unit columns at the point, in the dead zone
    [pivot / 3, 10 pivot / 3]."""
    conn = connect(corpus_cases["ex6.4"].spec, 30)
    w = 1.0 / np.linalg.norm(conn.R[0], axis=0)
    G = conn.Gamma[:1] * (w[:, None, None] * w[:, None] / w)
    top = np.abs(sy._beta_matrix(G, G - G.transpose(0, 2, 1, 3))).max()
    pivot = top / (1.0 + top)
    monkeypatch.setattr(sy, "JET_RANK_TOL", pivot / 3)
    with pytest.raises(InconclusiveVanishingError) as info:
        sy.beta_jet_count(conn)
    assert info.value.condition == "beta algebraic pivot"
    assert info.value.value == pytest.approx(pivot, rel=1e-12)


def _vanishing_constraint_frame(a: float):
    """r_1 = d_1, r_2 = d_2 and r_3 = d_3 + (u1 - a) u2 d_1 on [0, 2]^3: the
    length system's algebraic part is (u1 - a) times rows in b^1 alone, of
    rank 1, and vanishes on u1 = a, where its first-order coefficients do
    not."""
    columns = [["1", "0", "0"], ["0", "1", "0"], [f"(u1-{a!r})*u2", "0", "1"]]
    return g.frame_from_sources(columns, V3, domain=((0.0,) * 3, (2.0,) * 3))


def test_algebraic_rows_left_after_elimination_raise():
    """Off u1 = a the count eliminates b^1 and reads two functions; on it
    the value of the algebraic part vanishes, no row is eliminated, and its
    first-order rows left raise InconclusiveVanishingError."""
    spec = _vanishing_constraint_frame(0.3)
    count = sy.beta_jet_count(g.eval_connection(spec, np.array([[0.6, 0.5, 0.5]])))
    assert (count.dims, count.support) == ((2, 4, 6), 2)
    with pytest.raises(InconclusiveVanishingError) as info:
        sy.beta_jet_count(g.eval_connection(spec, np.array([[0.3, 0.5, 0.5]])))
    assert str(info.value) == "beta algebraic rows left after elimination: 1.000e+00 at rank 0"


def test_count_calls_no_linalg_routine_but_svd_and_solve(corpus_cases, monkeypatch):
    """The count reads ranks with svd and eliminates with solve, and calls
    no other routine of np.linalg but norm: another LAPACK routine, such as
    qr's, would be paged in for the count alone and raise the benchmark's
    peak resident set (0.15 MB in 8 of 8 pairs, measured with qr)."""
    linalg = types.SimpleNamespace(svd=np.linalg.svd, solve=np.linalg.solve, norm=np.linalg.norm)
    numpy = types.SimpleNamespace(**{**vars(np), "linalg": linalg})
    conn = connect(corpus_cases["ex6.9"].spec)
    want = sy.beta_jet_count(conn)
    monkeypatch.setattr(sy, "np", numpy)
    assert sy.beta_jet_count(conn) == want


def test_lambda_weights_of_rank1_batches():
    """On rank-1 samples u v^T an unknown's weight is |v_a| / max |v|, the
    largest over the samples is traced, and an all-zero sample is not read
    as active."""
    rng = np.random.default_rng(5)
    for m in (1, 7, 40):
        u = rng.standard_normal((m, 3))
        v = rng.standard_normal((m, 3)) * np.array([1e-12, -0.5, 1.0])
        matrices = np.concatenate([u[:, :, None] * v[:, None, :], np.zeros((1, 3, 3))])
        expected = (np.abs(v) / np.abs(v).max(axis=1, keepdims=True)).max(axis=0)
        case, trace = cl.classify_lambda_n3(matrices, 1)
        assert case == "IIb"
        weights = [value for _, value, _ in trace[1:]]
        assert np.abs(np.array(weights) - expected).max() <= 1e-14, m
        assert [verdict for _, _, verdict in trace[1:]] == ["zero", "nonzero", "nonzero"]


def test_lambda_constraint_with_one_active_unknown_is_inconclusive():
    """A rank-1 constraint on a single unknown fits no case of the taxonomy."""
    with pytest.raises(InconclusiveVanishingError) as err:
        cl.classify_lambda_n3(one_unknown_constraint(), 1)
    assert str(err.value) == "no lambda label has a rank-1 constraint in 1 of the 3 unknowns"


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


def _metamorphic_copies(spec):
    """The frame under the 6 column permutations and six column scalings,
    constant and smooth (in the frame's own variable names)."""
    x1, x2, x3 = spec.vars
    for order in itertools.permutations(range(3)):
        yield order, dataclasses.replace(spec, columns=tuple(spec.columns[j] for j in order))
    for alphas in (("1", "1", "100"), ("1", "1", "1000"), ("0.1", "1", "10"),
                   ("0.001", "1", "1000"), ("-1", "1", "1"),
                   (f"1+{x1}^2/5", f"2+{x3}/3", f"1+{x2}/4")):
        yield alphas, g.scale_frame(spec, alphas)


def test_labels_invariant_under_permutations_and_scalings(corpus_cases):
    """Rescaling r_j by a nonvanishing alpha_j keeps the directions and maps
    b^j to alpha_j^2 b^j, and a permutation relabels the components, so
    neither changes the solution sets: every n = 3 corpus file keeps its
    labels at seeds 0-1."""
    for cid, case in corpus_cases.items():
        if case.spec.n != 3:
            continue
        want = (case.expected["lambda_case"], case.expected["beta_case"])
        for how, spec in _metamorphic_copies(case.spec):
            for seed in (0, 1):
                report = cl.classify(connect(spec, 50, seed))
                assert (report.lambda_case, report.beta_case) == want, (cid, how, seed)


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
    assert (got.lambda_case, got.beta_case) == (want.lambda_case, want.beta_case)
    assert (got.rank_beta, got.rank_lambda, got.richness) == (
        want.rank_beta, want.rank_lambda, want.richness)
    assert [(c, s) for c, _, s in got.trace] == [(c, s) for c, _, s in want.trace]
    for (c, a, _), (_, b, _) in zip(got.trace, want.trace):
        assert abs(a - b) <= 1e-13, (c, a, b)


def test_classify_on_reused_connection(corpus_cases):
    """Classifying a connection twice gives the report of a fresh
    connection on the same sample set."""
    for cid, case in corpus_cases.items():
        if case.spec.n != 3:
            continue
        for seed in (0, 3):
            points = case.spec.sample_points(50, seed)
            conn = g.eval_connection(case.spec, points)
            cl.classify(conn)
            _same_report(cl.classify(conn), cl.classify(g.eval_connection(case.spec, points)))


def test_frame_operator_built_once_per_order(corpus_cases, monkeypatch):
    """eval_connection keeps the operator its Gamma series solved with, and
    r slices it: classifying a connection builds the frame-derivative
    operator of order 2 once on the sample set, and the count of a rank-1
    frame builds the order-4 operator at its one point, for Gamma of
    order 3."""
    built = []
    operator = g._frame_operator

    def recording(R, order):
        built.append((len(R.coef), order))
        return operator(R, order)

    monkeypatch.setattr(g, "_frame_operator", recording)
    monkeypatch.setattr(sy, "_frame_operator", recording)
    for cid, case in corpus_cases.items():
        if case.spec.n != 3:
            continue
        for seed in (0, 3):
            built.clear()
            cl.classify(connect(case.spec, seed=seed))
            count = [(1, 4)] if case.expected["rank_beta"] == 1 else []
            assert built == [(50, 2)] + count, (cid, seed, built)


def test_operator_slices_match_fresh_builds(corpus_cases, monkeypatch):
    """A lower order of the frame-derivative operator is a leading slice of
    a higher one: the slices of orders 1 to 3 of the order-4 operator that
    beta_jet_count builds at its one point, and the order-1 slice of a
    connection's order-2 operator, have the bits of fresh _frame_operator
    builds, signs of zeros included."""
    built = []
    operator = g._frame_operator

    def recording(R, order):
        built.append((R, operator(R, order)))
        return built[-1][1]

    monkeypatch.setattr(sy, "_frame_operator", recording)
    for cid, case in corpus_cases.items():
        if case.spec.n != 3:
            continue
        for seed in (0, 3):
            conn = connect(case.spec, seed=seed)
            built.clear()
            sy.beta_jet_count(conn)
            [(R, D)] = built
            assert D.shape[2] == g._size(3, 4), cid
            cases = [(R, D, order) for order in (1, 2, 3)] + [(conn.frame, conn.operator, 1)]
            for frame, built_operator, order in cases:
                low = g._size(3, order - 1)
                fresh = operator(g.Taylor(frame.coef[..., :low], 3, order - 1), order)
                held = built_operator[..., : g._size(3, order), :low]
                assert held.shape == fresh.shape, (cid, seed, order)
                assert np.ascontiguousarray(held).tobytes() == fresh.tobytes(), (cid, seed, order)
