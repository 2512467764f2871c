"""Curl tests and reconstruction of potentials by ray integration, the one
integration scheme of every potential, flux map and entropy flux.

Given a frame and a verified length candidate b, the matrix field
L^T diag[b] L is the Hessian of the scalar potential being reconstructed;
given a verified speed candidate l, R diag[l] L is the Jacobian of the flux
map.  The box is convex, so every grid node x is reached from the base point
x0 by the ray x0 + t d, d = x - x0 (the homotopy operator of the Poincare
lemma):

    f(x)        = int_0^1 M(x0 + t d) d dt,
    grad eta(x) = int_0^1 H(x0 + t d) d dt,
    eta(x)      = int_0^1 grad eta(x0 + t d) . d dt,
    q(x)        = int_0^1 grad eta(x0 + t d) . A(x0 + t d) d dt,

with grad eta carried along the ray by a Legendre-basis cumulative-integration
matrix at the quadrature nodes.  Every field is evaluated through one class,
MatrixField, with one field per candidate: the Hessian for a length
candidate, the flux Jacobian for a speed candidate.  One tape run over the
frame and the candidates per point set serves every field, so the Hessian
and flux fields of q share one MatrixField, and the first field says what
the rays carry: grad eta, with eta (and q) integrated alongside, or f.  The
direction d is the same at every node of a ray, so eta is integrated from
the rule's weights and the rate of grad eta, not node by node; only q's
integrand needs grad eta at the nodes.  All nodes are integrated together:
one values-only field evaluation covers a block of ray parameters over the
grid (at most _RAY_BATCH_POINTS points, never less than one parameter), and
a grid's meta counts the ray parameters evaluated as field_evaluations.
The three reconstructions share one grid setup (box, base point, axes and
curl probes) and one builder of ray rates.  A nested Gauss-Kronrod pair of
Q and 2Q+1 nodes estimates the error of every ray from one set of field
values (the Q Gauss nodes are among the 2Q+1).  Every ray is first tried
with the 8/17 pair at one panel; a ray that pass does not certify goes on
along the 16/33 ladder, at 1, 2, 4, ... panels, and a ray that does not
converge there, or whose integral is not finite, raises
QuadratureFailureError.  Both pairs come from one construction.  Curl tests
gate every integration (curl_residual, each field's matrices and curl
residual at the probes); path independence is checked by a second family
of rays from another grid node.  Each field is written once, applied to a
direction d: the rays apply H = L^T diag[b] L as L^T (b * (L d)) and
A = R diag[l] L as R (l * (L d)), all fields from one L d, and never form H
or A.  For n = 3 they do not form L = R^{-1} either: L d = adj(R) d / det R
and L^T z = adj(R)^T z / det R are applied from the cofactors of R, past the
same singularity gate as a frame inversion; other n invert the frame once
per point set.  The matrices and their exact first derivatives, which the
curl tests read, are formed as order-1 Taylor fields, one series product
L^T (b L) or R (l L) per field, with L formed.  A grid's CSV and JSON text
come from one formatting pass, run once per grid (PotentialGrid).

The chart-space boundary-value solver (solve_rich_beta) fills a grid with
the unique solution determined by one single-variable function per axis,
by Picard iteration of the axis-ordered Volterra integral form with
4th-order cumulative Simpson quadrature.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field as dc_field
from functools import cached_property, lru_cache
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import exprlang as ex
from .errors import (
    CurlViolationError,
    EigenframeError,
    NotRankZeroError,
    QuadratureFailureError,
    StepFailureError,
)
from .exprlang import Taylor
from .geometry import (
    FrameSpec,
    RiemannChart,
    _cofactor_rows,
    _graded_solve,
    _invert_frame,
    _require_invertible,
    chart_inverse,
    distinct_triple_mask,
    eval_connection,
    frame_tape,
    split_frame_tape,
)
from .systems import BetaCandidate, LambdaCandidate

DEFAULT_QUAD_TOL = 1e-10
# the curl residual a field may have at the probes before reconstruction
# refuses it (q's field gets 100 * CURL_TOL); read at call time
CURL_TOL = 1e-7
_RAY_Q = 16  # Gauss nodes per panel of the ladder; the Kronrod rule nested in it has 2Q+1
_RAY_MAX_PANELS = 64  # a ray still over the tolerance at this many panels fails
# Gauss nodes of the one-panel first pass, before the _RAY_Q ladder: on 34 of
# the 36 corpus grids at 11^3 every ray meets the tolerance with the 8/17
# pair, and the field evaluations over all 36 fall from 2376 to 1290; with
# the 7/15 pair rays are left over on 12 of the 36
_RAY_FIRST_Q = 8
# points per rates call: the Kronrod nodes of a panel are evaluated in blocks
# of up to this many points, never less than one node.  Small calls pay the
# per-call overhead and large ones a working set past the L2 cache: the
# reconstruct-grids op set (eta and flux at 6^3 and 11^3, q at 6^3) took a
# median pass_ref_s of 0.227 s at 2048 points, 0.207 s at 4096 and 0.212 s
# at 8192 (perfbench/run.py --seconds 10, five interleaved runs each, with
# the n = 3 cofactor kernel), on a 2-core Xeon with 4 MiB of L2 a core
_RAY_BATCH_POINTS = 4096


# ---------------------------------------------------------------------------
# Matrix fields with exact first derivatives
# ---------------------------------------------------------------------------


class MatrixField:
    """One n x n matrix field M per candidate, from the frame R, its inverse
    L and the candidate's values: a length candidate b gives the Hessian
    L^T diag[b] L, a speed candidate l the flux Jacobian R diag[l] L.  One
    tape run over the frame and the candidates per point set serves every
    field, so the Hessian and flux fields of q share one MatrixField.  The
    fields are applied to a direction d, as L^T (b * (L d)) and
    R (l * (L d)) from one L d, and never formed.  For n = 3, values works
    on the frame entries and candidate components as rows (m,) and applies
    L by cofactors, L d = adj(R) d / det and L^T z = adj(R)^T z / det,
    without forming L; other n invert the frame once per point set.  The
    matrices and their exact first derivatives (value_grad) are one series
    product per field on order-1 Taylor fields, L^T (b L) or R (l L), with
    L's order-1 series solved from R L = I by geometry._graded_solve.

    values(points, d) -> [(m, N), ...], M d at each point with its own
    direction; value_grad(points) -> [(V, G), ...] with V the matrices and
    G[p, a, b, d] = dM[a,b]/dx_d.  hessian[c] says whether candidate c's
    field is a Hessian.
    """

    def __init__(self, spec: FrameSpec, cands: tuple):
        self.n = spec.n
        self.tape = frame_tape(spec, *cands)
        self.hessian = tuple(isinstance(c, BetaCandidate) for c in cands)

    def values(self, points: np.ndarray, d: np.ndarray) -> list:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        block = ex.eval_scalar_many(self.tape, pts)
        R, cands = split_frame_tape(block, self.n)
        if self.n != 3:  # einsum is about twice as fast as a stacked @
            L = _invert_frame(pts, R)[0]
            Ld = np.einsum("mab,mb->ma", L, d)
            return [
                np.einsum("mab,mb->ma", L.transpose(0, 2, 1) if h else R, s * Ld)
                for h, s in zip(self.hessian, cands)
            ]
        # every frame entry R[a, j] and candidate component as a row (m,),
        # views of one copy of the block; L d = adj(R) d / det
        Rr, cand_rows = split_frame_tape(np.ascontiguousarray(block.T)[None], 3)
        Rr, cand_rows = Rr[0], [s[0] for s in cand_rows]
        C, det = _cofactor_rows(Rr.reshape(9, -1))
        _require_invertible(pts, R, det)
        d = np.ascontiguousarray(d.T)  # rows d[a]
        Ld = [_dot3(C[3 * k : 3 * k + 3], d) / det for k in range(3)]
        fields = []
        for h, s in zip(self.hessian, cand_rows):
            z = [sa * y for sa, y in zip(s, Ld)]
            if h:  # L^T z = adj(R)^T z / det
                Md = [_dot3(C[a::3], z) / det for a in range(3)]
            else:  # R z
                Md = [_dot3(Rr[a], z) for a in range(3)]
            fields.append(np.stack(Md, axis=1))
        return fields

    def value_grad(self, points: np.ndarray) -> list:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        m, n = pts.shape[0], self.n
        R, cands = split_frame_tape(ex.eval_series(self.tape, pts, 1), n)
        R = Taylor(R, n, 1)
        # L from R L = I, solved degree by degree
        eye = np.zeros((m, n, n + 1, n))
        eye[:, :, 0] = np.eye(n)
        L = _graded_solve(R, _invert_frame(pts, R.value)[0], eye)
        L = Taylor(L.transpose(0, 1, 3, 2), n, 1)
        fields = [
            (L.transpose(0, 2, 1) if h else R) @ (Taylor(s, n, 1)[:, :, None] * L)
            for h, s in zip(self.hessian, cands)
        ]
        return [(M.value, M.coef[..., 1:]) for M in fields]


def _dot3(x, z) -> np.ndarray:
    """x[0] z[0] + x[1] z[1] + x[2] z[2], over rows (m,)."""
    return x[0] * z[0] + x[1] * z[1] + x[2] * z[2]


def curl_residual(field: MatrixField, points: np.ndarray) -> list:
    """[(V, residual), ...] per field M: its matrices V at the points and
    the max over rows k and pairs i<j of |d_i M[k,j] - d_j M[k,i]|,
    normalized by the field's magnitude."""
    out = []
    for V, G in field.value_grad(points):
        curl = G - G.transpose(0, 1, 3, 2)  # [p,k,j,i] - [p,k,i,j]
        scale = 1.0 + np.abs(V).max() + np.abs(G).max()
        out.append((V, float(np.abs(curl).max() / scale)))
    return out


# ---------------------------------------------------------------------------
# Potential grids
# ---------------------------------------------------------------------------


# nodes per step of PotentialGrid's formatting pass, which holds the cell
# strings of one step at a time.  One step over a whole table holds every
# cell's string at once: for ex6.10's eta at 11^3 (1331 nodes, 7 columns),
# to_csv and to_json then peak at 1.45 MB of Python allocations
# (tracemalloc), against 0.67 MB at 256 nodes a step; a prototype that held
# them raised the benchmark's reconstruct-grids peak RSS by 0.7 MB.  In a
# fresh process that reconstruct peaks at 35.5 MB RSS either way, during
# the ray integration.
_CSV_CHUNK = 256

# json's spelling of the floats whose repr is not JSON
_JSON_SPECIAL = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def grid_nodes(axes: Sequence[np.ndarray]) -> np.ndarray:
    """The nodes of the grid over the per-variable axes, one row each, the
    last variable fastest."""
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


def _json_separators(shape: tuple) -> np.ndarray:
    """The text json.dumps writes after each value of the nested lists of a
    nonempty array of this shape, in C order: ", " inside the last axis,
    k closing brackets, ", " and k opening ones where k axes end, and the
    closing brackets of every axis after the last value.  An object array
    over the few distinct strings."""
    ends = np.zeros(int(np.prod(shape)), dtype=np.intp)
    stride = 1
    for k in reversed(shape[1:]):
        stride *= k
        ends[stride - 1 :: stride] += 1
    ends[-1] = len(shape)
    texts = [", "] + ["]" * k + ", " + "[" * k for k in range(1, len(shape))]
    return np.array(texts + ["]" * len(shape)], dtype=object)[ends]


@dataclass
class PotentialGrid:
    """A reconstructed grid and its two files.  to_csv and to_json share one
    formatting pass, run at the first call of either and kept: a grid is
    formatted once, however often and in whatever order they are called,
    and its values are written as they stand at that first call."""

    axes: list  # per-variable node arrays
    values: dict  # name -> ndarray over the grid (vector fields have a trailing axis)
    base_point: tuple
    meta: dict = dc_field(default_factory=dict)

    def nodes(self) -> np.ndarray:
        return grid_nodes(self.axes)

    def to_json(self) -> str:
        """json.dumps of the grid with every array as nested lists, byte for
        byte; the value arrays come from the formatting pass."""
        head = json.dumps({
            "axes": [a.tolist() for a in self.axes],
            "base_point": list(self.base_point),
            "meta": self.meta,
        })
        parts = [head[:-1], ', "values": {']
        for k, (key, chunks) in enumerate(zip(self.values, self._format_pass[1])):
            parts += [", " * (k > 0), json.dumps(key), ": ", *chunks]
        return "".join(parts + ["}}"])

    def to_csv(self, var_names: Sequence[str]) -> str:
        """The header, then one row per node: its coordinates and every
        value (one column per component of a vector field), each cell the
        repr of its float, which is the spelling of the same number in
        to_json; the rows come from the formatting pass."""
        names = []
        for key, arr in self.values.items():
            if np.ndim(arr) == len(self.axes):
                names.append(key)
            else:
                names.extend(f"{key}{c + 1}" for c in range(np.shape(arr)[-1]))
        out = io.StringIO()
        csv.writer(out).writerow(list(var_names) + names)
        return "".join([out.getvalue(), *self._format_pass[0]])

    @cached_property
    def _format_pass(self) -> tuple:
        """(CSV rows, JSON texts of the value arrays), as lists of one
        string per chunk of _CSV_CHUNK nodes.  Every value is formatted
        once, as its repr (json writes a float as its repr), and the axes
        once each.  A row takes its cells from those strings; an array's
        JSON text interleaves the same strings (NaN and inf in json's
        spelling) with the array's fixed separators (_json_separators)."""
        shape = tuple(len(a) for a in self.axes)
        count = int(np.prod(shape))
        labels = [np.array([repr(x) for x in a.tolist()], dtype=object) for a in self.axes]
        arrays = [np.asarray(v) for v in self.values.values()]
        flat = [a.reshape(count, -1) for a in arrays]  # (node, component)
        seps = [_json_separators(a.shape) for a in arrays]
        texts = [["[" * a.ndim] for a in arrays]
        rows = []
        for start in range(0, count, _CSV_CHUNK):
            stop = min(start + _CSV_CHUNK, count)
            index = np.unravel_index(np.arange(start, stop), shape)
            columns = [lab[i].tolist() for lab, i in zip(labels, index)]
            for f, sep, text in zip(flat, seps, texts):
                k = f.shape[1]
                block = f[start:stop]
                strings = list(map(repr, block.ravel().tolist()))
                columns += [strings[c::k] for c in range(k)]
                if not np.isfinite(block).all():
                    strings = [_JSON_SPECIAL.get(x, x) for x in strings]
                text.append("".join(map(str.__add__, strings, sep[start * k : stop * k].tolist())))
            rows.append("\r\n".join(map(",".join, zip(*columns))) + "\r\n")
        return rows, texts


# ---------------------------------------------------------------------------
# Ray integration from the base point
# ---------------------------------------------------------------------------


class _RayRule(NamedTuple):
    """A nested Gauss-Kronrod pair on [0, 1]: the 2q+1 Kronrod nodes t with
    their weights w and cumulative-integration matrix K, and the q embedded
    Gauss nodes t[gauss] with their own weights and matrix.  (K f)_i is the
    integral from 0 to t_i of the polynomial interpolating the values f."""

    t: np.ndarray
    w: np.ndarray
    K: np.ndarray
    gauss: np.ndarray
    w_gauss: np.ndarray
    K_gauss: np.ndarray


@lru_cache(maxsize=None)
def _ray_rule(q: int) -> _RayRule:
    """The Gauss-Kronrod pair of q and 2q+1 nodes, built in the Legendre
    basis (a monomial basis is unstable at these orders).  The q+1 Kronrod
    nodes are the roots of the Stieltjes polynomial E_{q+1}, which is
    orthogonal to P_q P_k for every k <= q; the Kronrod weights solve the
    Legendre moment equations at all 2q+1 nodes."""
    leg = np.polynomial.legendre
    x, w_gauss = leg.leggauss(q)
    # E = P_{q+1} + sum_{j<=q} c_j P_j; the integrals of P_q P_k P_j have
    # degree <= 3q+1, exact with 2q Gauss nodes
    y, wy = leg.leggauss(2 * q)
    P = leg.legvander(y, q + 1)
    A = np.einsum("y,yk,yj->kj", wy * P[:, q], P[:, : q + 1], P)
    c = np.linalg.solve(A[:, : q + 1], -A[:, q + 1])
    z = np.concatenate([x, leg.legroots(np.append(c, 1.0))])
    order = np.argsort(z)
    z, gauss = z[order], np.flatnonzero(order < q)
    V = leg.legvander(z, 2 * q)
    moments = np.zeros(2 * q + 1)
    moments[0] = 2.0
    w = np.linalg.solve(V.T, moments)
    # Kronrod: Legendre coefficients of the interpolant by a Vandermonde
    # solve; Gauss: exact by Gauss orthogonality
    anti = leg.legval(z, leg.legint(np.eye(2 * q + 1), lbnd=-1)).T
    K = np.linalg.solve(V.T, anti.T).T
    to_coef = (np.arange(q) + 0.5)[:, None] * (leg.legvander(x, q - 1) * w_gauss[:, None]).T
    K_gauss = leg.legval(x, leg.legint(np.eye(q), lbnd=-1)).T @ to_coef
    return _RayRule(
        0.5 * (z + 1.0), 0.5 * w, 0.5 * K, gauss, 0.5 * w_gauss, 0.5 * K_gauss
    )


def _advance(G, S, h: float, w, K, Jd, V, d):
    """One panel of width h of one rule: G(t) = G + h K Jd at the nodes, and
    the carried vector and scalar integrals at the panel's end.  Unless V
    is None, the scalars are eta, the integral of G(t) . d, and then one
    integral of G(t) . v_k per further field v_k of V.  d is the same at
    every node of a ray, so eta is taken from the rule's weights,
    h [(sum w) G + h (w K) Jd] . d, the sum over the nodes of w_j G(t_j) . d
    rearranged; only the further fields need G at the nodes."""
    Jd_flat = Jd.reshape(w.size, -1)
    G_end = G + h * (w @ Jd_flat).reshape(G.shape)
    if V is None:
        return G_end, np.empty((d.shape[0], 0))
    G_w = w.sum() * G + (h * (w @ K) @ Jd_flat).reshape(G.shape)
    scalars = [np.einsum("mn,mn->m", G_w, d)[:, None]]
    if V.shape[1]:
        G_nodes = (h * K @ Jd_flat).reshape(Jd.shape)
        G_nodes += G
        scalars.append(np.einsum("j,jmn,jkmn->mk", w, G_nodes, V))
    return G_end, S + h * np.hstack(scalars)


def _node_block(rates, base, d, ts):
    """J d and the stacked further fields v_k at the points base + t d of
    every ray, for each t in ts: shapes (b, m, n) and (b, k, m, n) (None
    when rates gives None), from one rates call over the points stacked
    node-major.  When that call raises, the nodes are run again one by one,
    so the error is the one the first failing node raises, as with one
    call per node: a tape runs each check over all the points of a call
    before the next check, so in a block an earlier check can fail at a
    later node."""
    m, n = d.shape
    pts = (base + ts[:, None, None] * d).reshape(-1, n)
    try:
        Jd, V = rates(pts, np.broadcast_to(d, (ts.size, m, n)).reshape(-1, n))
    except EigenframeError:
        for t in ts:
            rates(base + t * d, d)
        raise
    if V is not None:
        V = V.reshape(V.shape[0], ts.size, m, n).swapaxes(0, 1)
    return Jd.reshape(ts.size, m, n), V


def _panel_sums(rates, base, d, grad0, q: int, panels: int):
    """The Kronrod and the embedded Gauss rule of _ray_rule(q) on each of
    `panels` equal panels of [0, 1]: the carried vector G(1) and the scalar
    integrals S(1) of every ray, as (Kronrod, Gauss) pairs.  One rates call
    covers a block of consecutive Kronrod nodes: at most _RAY_BATCH_POINTS
    points, and never less than one node."""
    rule = _ray_rule(q)
    g = rule.gauss
    h = 1.0 / panels
    block = max(1, _RAY_BATCH_POINTS // d.shape[0])
    G = np.array(grad0, dtype=float)
    (Gk, Sk), (Gg, Sg) = (G, 0.0), (G, 0.0)
    for p in range(panels):
        steps = [
            _node_block(rates, base, d, (p + rule.t[j : j + block]) * h)
            for j in range(0, rule.t.size, block)
        ]
        Jd = np.concatenate([s[0] for s in steps])  # (2q+1, m, n)
        V = None if steps[0][1] is None else np.concatenate([s[1] for s in steps])
        del steps  # peak memory: a few (2q+1, m, n) arrays
        Gk, Sk = _advance(Gk, Sk, h, rule.w, rule.K, Jd, V, d)
        Vg = None if V is None else V[g]
        Gg, Sg = _advance(Gg, Sg, h, rule.w_gauss, rule.K_gauss, Jd[g], Vg, d)
    return (Gk, Sk), (Gg, Sg)


def _ray_family(rates, base: np.ndarray, nodes: np.ndarray, quad_tol: float, grad0):
    """Integrals along the rays x(t) = base + t d, d = node - base, to every
    node at once:

        G(t) = grad0 + int_0^t J(x(s)) d ds,   S_k = int_0^1 G(t) . v_k(t) dt,

    where rates(points, d) returns J d and the stacked further fields, or
    None for them when J is not a Hessian: then there are no S_k, and
    otherwise v_0 = d (eta, integrated from the rule's weights in _advance)
    and the further fields follow.  Each ray parameter is evaluated over
    all unfinished nodes, a block of parameters per rates call
    (_panel_sums).  A node is done when the Kronrod and the Gauss sums of a
    pass agree to quad_tol (relative once the result exceeds 1), and keeps
    that pass's Kronrod result.  The first pass runs the _RAY_FIRST_Q pair
    on one panel; the nodes it leaves go on along the ladder of the _RAY_Q
    pair on 1, 2, 4, ... panels, up to _RAY_MAX_PANELS.  A sum that is not
    finite raises QuadratureFailureError at once.  Also returns the largest
    panel count reached and the number of ray parameters evaluated (Kronrod
    nodes times panels, summed over the passes)."""
    d = nodes - base
    grad0 = np.broadcast_to(grad0, d.shape)
    G, S = np.empty(d.shape), None
    todo = np.arange(d.shape[0])
    passes = [(_RAY_FIRST_Q, 1), (_RAY_Q, 1)]
    while passes[-1][1] < _RAY_MAX_PANELS:
        passes.append((_RAY_Q, 2 * passes[-1][1]))
    evaluations = 0
    for q, panels in passes:
        with np.errstate(over="ignore", invalid="ignore"):
            (Gk, Sk), (Gg, Sg) = _panel_sums(rates, base, d[todo], grad0[todo], q, panels)
        evaluations += panels * _ray_rule(q).t.size
        kronrod, gauss = np.hstack([Gk, Sk]), np.hstack([Gg, Sg])
        finite = np.isfinite(kronrod).all(axis=1) & np.isfinite(gauss).all(axis=1)
        if not finite.all():
            raise QuadratureFailureError(
                f"ray from {base.tolist()} to {nodes[todo[np.argmin(finite)]].tolist()}: "
                "the integral is not finite"
            )
        err = np.abs(kronrod - gauss).max(axis=1)
        ok = err <= quad_tol * (1.0 + np.abs(kronrod).max(axis=1))
        if S is None:
            S = np.empty((d.shape[0], Sk.shape[1]))
        G[todo[ok]], S[todo[ok]] = Gk[ok], Sk[ok]
        todo, err = todo[~ok], err[~ok]
        if todo.size == 0:
            return G, S, (panels, evaluations)
    worst = int(np.argmax(err))
    raise QuadratureFailureError(
        f"ray from {base.tolist()} to {nodes[todo[worst]].tolist()} did not "
        f"converge in {panels} panels (error {err[worst]:.3e} > {quad_tol:.1e})"
    )


def _ray_families(rates, base: np.ndarray, axes: list, quad_tol: float, grad0=0.0):
    """Family A of rays from the base point and family B from the grid corner
    farthest from it.  B starts from A's carried vector at that corner and
    its scalars are shifted by A's values there, so the two agree exactly at
    the corner and elsewhere up to path dependence and quadrature error.
    The work done goes into a grid's meta: the largest panel count either
    family reached and the ray parameters both evaluated."""
    nodes = grid_nodes(axes)
    G, S, (panels, evals) = _ray_family(rates, base, nodes, quad_tol, grad0)
    far = tuple(0 if abs(a[0] - b) >= abs(a[-1] - b) else len(a) - 1 for a, b in zip(axes, base))
    c = int(np.ravel_multi_index(far, [len(a) for a in axes]))
    G_b, S_b, (panels_b, evals_b) = _ray_family(rates, nodes[c], nodes, quad_tol, G[c])
    work = {"ray_panels": max(panels, panels_b), "field_evaluations": evals + evals_b}
    return G, S, G_b, S_b + S[c], work


def _rates(field: MatrixField):
    """Along a ray with direction d the carried vector changes by J d, J the
    first field: the flux Jacobian for f, the Hessian for grad eta.  When J
    is a Hessian, grad eta is also integrated against d (eta, which
    _advance takes from the rule's weights) and against A d for every
    further field A (q, with A the flux Jacobian): rates returns J d and the
    stacked A d, or J d and None when J is not a Hessian."""

    def rates(pts, d):
        Jd, *rest = field.values(pts, d)
        return Jd, np.array(rest).reshape((-1,) + d.shape) if field.hessian[0] else None

    return rates


def _require_closed(res: float, tol: float) -> float:
    """A curl residual, which must not exceed tol."""
    if res > tol:
        raise CurlViolationError(res, tol)
    return res


def _grid_setup(spec: FrameSpec, field: MatrixField, base, counts):
    """The base point, the grid axes over the frame's domain, and each
    field's values and curl residual at 20 sample points and the base,
    where the curl must not exceed CURL_TOL.  A node within rounding of the
    base point is moved onto it, so the gauge holds exactly at that node."""
    base = np.asarray(base, dtype=float)
    axes = [np.linspace(lo, hi, k) for lo, hi, k in zip(spec.domain_lo, spec.domain_hi, counts)]
    for axis, b in zip(axes, base):
        axis[np.abs(axis - b) <= 1e-12 * max(1.0, abs(b))] = b
    probes = np.vstack([spec.sample_points(20), base[None, :]])
    gates = [(V, _require_closed(res, CURL_TOL)) for V, res in curl_residual(field, probes)]
    return base, axes, gates


def reconstruct_flux(
    spec: FrameSpec,
    cand: LambdaCandidate,
    base: Sequence[float],
    counts: Sequence[int],
    quad_tol: float = DEFAULT_QUAD_TOL,
) -> PotentialGrid:
    """Flux map f with Df = R diag[l] L and f(base) = 0 on a grid."""
    field = MatrixField(spec, (cand,))
    base, axes, [(_, res)] = _grid_setup(spec, field, base, counts)
    F, _, F_b, _, work = _ray_families(_rates(field), base, axes, quad_tol)
    return PotentialGrid(
        axes=axes,
        values={"f": F.reshape(tuple(counts) + (spec.n,))},
        base_point=tuple(base),
        meta={
            "curl_residual": res,
            "path_independence_residual": float(np.abs(F - F_b).max()),
            "quad_tol": quad_tol,
            **work,
            "kind": "flux",
        },
    )


def reconstruct_eta(
    spec: FrameSpec,
    cand: BetaCandidate,
    base: Sequence[float],
    counts: Sequence[int],
    quad_tol: float = DEFAULT_QUAD_TOL,
) -> PotentialGrid:
    """Scalar potential with Hessian L^T diag[b] L, gauge-fixed so that the
    value and gradient vanish at the base point.

    psi is the gradient carried along the second ray family; its agreement
    with grad_eta, and that of the two families' potentials, are recorded
    as consistency residuals.
    """
    field = MatrixField(spec, (cand,))
    base, axes, [(V, res)] = _grid_setup(spec, field, base, counts)
    shape = tuple(counts)
    sym = float(np.abs(V - V.transpose(0, 2, 1)).max() / (1.0 + np.abs(V).max()))
    grad, S, psi, S_b, work = _ray_families(_rates(field), base, axes, quad_tol)
    grad_res = float(np.abs(grad - psi).max())
    return PotentialGrid(
        axes=axes,
        values={
            "eta": S[:, 0].reshape(shape),
            "grad_eta": grad.reshape(shape + (spec.n,)),
            "psi": psi.reshape(shape + (spec.n,)),
        },
        base_point=tuple(base),
        meta={
            "curl_residual": res,
            "symmetry_residual": sym,
            "path_independence_residual": max(float(np.abs(S - S_b).max()), grad_res),
            "grad_consistency_residual": grad_res,
            "quad_tol": quad_tol,
            **work,
            "kind": "eta",
        },
    )


def entropy_flux(
    spec: FrameSpec,
    lambda_cand: LambdaCandidate,
    beta_cand: BetaCandidate,
    base: Sequence[float],
    counts: Sequence[int],
    quad_tol: float = DEFAULT_QUAD_TOL,
) -> PotentialGrid:
    """Scalar q whose gradient is grad(eta) . (R diag[l] L), gauge q(base)=0.

    grad(eta) is carried along each ray by the Hessian field of the length
    candidate, starting from zero or, when a closed-form potential is
    attached to the candidate, from that potential's gradient at the base.
    """
    # M = L^T diag[b] L and A = R diag[l] L from one frame evaluation
    field = MatrixField(spec, (beta_cand, lambda_cand))
    base, axes, _ = _grid_setup(spec, field, base, counts)
    shape = tuple(counts)
    # with a closed-form potential attached, q corresponds to that potential
    # (its base gradient seeds the rays); otherwise to the gauge-fixed one
    grad0 = 0.0
    if beta_cand.eta_expr is not None:
        grad0 = ex.eval_series(beta_cand.eta_tape, base, 1)[0, 1:]
    grad, S, _, S_b, work = _ray_families(_rates(field), base, axes, quad_tol, grad0)
    # curl of w = grad(eta) . A at grid probes: d_e w_d = M[a,e] A[a,d] +
    # grad(eta)_a d_e A[a,d]
    step = max(1, grad.shape[0] // 40)
    (M, _), (A, dA) = field.value_grad(grid_nodes(axes)[::step])
    dw = np.einsum("mae,mad->mde", M, A) + np.einsum("ma,made->mde", grad[::step], dA)
    scale = 1.0 + np.abs(M).max() + np.abs(A).max()
    wres = _require_closed(float(np.abs(dw - dw.transpose(0, 2, 1)).max() / scale), 100 * CURL_TOL)
    return PotentialGrid(
        axes=axes,
        values={
            "q": S[:, 1].reshape(shape),
            "eta": S[:, 0].reshape(shape),
            "grad_eta": grad.reshape(shape + (spec.n,)),
        },
        base_point=tuple(base),
        meta={
            "q_curl_residual": wres,
            "path_independence_residual": float(np.abs(S[:, 1] - S_b[:, 1]).max()),
            **work,
            "kind": "entropy-flux",
        },
    )


def affine_gauge_compare(
    points: np.ndarray, values: np.ndarray, reference: np.ndarray
) -> float:
    """Max residual of values - reference after removing the best-fit affine
    field a . u + b (the gauge freedom of scalar potentials)."""
    points = np.atleast_2d(points)
    diff = np.asarray(values, dtype=float).ravel() - np.asarray(reference, dtype=float).ravel()
    design = np.hstack([points, np.ones((points.shape[0], 1))])
    coef, *_ = np.linalg.lstsq(design, diff, rcond=None)
    return float(np.abs(diff - design @ coef).max())


# ---------------------------------------------------------------------------
# Chart-space boundary-value solver (rich, rank 0)
# ---------------------------------------------------------------------------


def cumulative_simpson(A: np.ndarray, dx: float, axis: int) -> np.ndarray:
    """4th-order cumulative integral along an axis (composite Simpson with a
    cubic-interpolation first step); node-only stencils."""
    A = np.moveaxis(A, axis, 0)
    npts = A.shape[0]
    if npts < 4:
        raise ValueError("cumulative_simpson needs at least 4 nodes per axis")
    out = np.zeros_like(A)
    out[1] = dx * (9 * A[0] + 19 * A[1] - 5 * A[2] + A[3]) / 24.0
    for k in range(2, npts):
        out[k] = out[k - 2] + dx * (A[k - 2] + 4 * A[k - 1] + A[k]) / 3.0
    return np.moveaxis(out, 0, axis)


def solve_rich_beta(
    spec: FrameSpec,
    chart: RiemannChart,
    boundary_fns: Sequence[Callable],
    base_w: Sequence[float],
    counts: Sequence[int],
    h: float,
) -> PotentialGrid:
    """Solve the chart-space system d_i g^j = Z[j,i,j] g^j - Z[j,j,i] g^i
    (i != j) on a grid with data g^j = phi_j on the j-th axis through the
    base point.

    One gate, on the grid: the cross components Z[i,j,k] (pairwise-distinct
    indices) must vanish at every node (rank 0), and so then does c[i,j,k] =
    Z[i,j,k] - Z[j,i,k] (richness).  The unique solution is computed by
    Picard iteration of the axis-ordered integral form; quadrature is
    4th-order cumulative Simpson, so the grid error is O(h^4).
    """
    n = spec.n
    base_w = np.asarray(base_w, dtype=float)
    axes = [base_w[d] + h * np.arange(counts[d]) for d in range(n)]
    # the chart-space connection is the frame's connection at u(w)
    Z = eval_connection(spec, chart_inverse(chart, grid_nodes(axes)), 0).Gamma
    zscale = 1.0 + np.abs(Z).max()
    cross = float(np.abs(np.where(distinct_triple_mask(n)[None], Z, 0.0)).max() / zscale)
    if cross > 1e-7:
        raise NotRankZeroError(
            f"frame is not rich with rank 0 on this grid: scaled cross component {cross:.3e}"
        )
    shape = tuple(counts)
    Z = Z.reshape(shape + (n, n, n))
    boundary = [
        np.broadcast_to(
            boundary_fns[j](axes[j]).reshape(
                tuple(len(axes[j]) if d == j else 1 for d in range(n))
            ),
            shape,
        )
        for j in range(n)
    ]
    gamma = [b.copy() for b in boundary]
    prev_delta = np.inf
    for sweep in range(400):
        new = []
        for j in range(n):
            acc = boundary[j].copy()
            for i in range(n):
                if i == j:
                    continue
                integrand = Z[..., j, i, j] * gamma[j] - Z[..., j, j, i] * gamma[i]
                slicer = tuple(
                    slice(None) if (d <= i or d == j) else slice(0, 1) for d in range(n)
                )
                cum = cumulative_simpson(integrand[slicer], h, axis=i)
                acc = acc + cum
            new.append(acc)
        delta = max(float(np.abs(new[j] - gamma[j]).max()) for j in range(n))
        gamma = new
        scale = 1.0 + max(float(np.abs(gmm).max()) for gmm in gamma)
        if delta < 1e-14 * scale:
            break
        if sweep > 60 and delta > prev_delta and delta > 1e-10 * scale:
            raise StepFailureError(
                f"Picard sweeps stopped contracting (delta {delta:.3e}) "
                f"after {sweep + 1} sweeps"
            )
        prev_delta = min(prev_delta, delta)
    else:
        raise StepFailureError("no convergence within 400 sweeps")
    # a-posteriori residual of the PDE by central differences
    residual = 0.0
    for j in range(n):
        for i in range(n):
            if i == j:
                continue
            dnum = np.gradient(gamma[j], h, axis=i, edge_order=2)
            rhs = Z[..., j, i, j] * gamma[j] - Z[..., j, j, i] * gamma[i]
            residual = max(residual, float(np.abs(dnum - rhs).max()))
    return PotentialGrid(
        axes=axes,
        values={f"gamma{j + 1}": gamma[j] for j in range(n)},
        base_point=tuple(base_w),
        meta={
            "fd_residual": residual,
            "sweeps": sweep + 1,
            "h": h,
            "kind": "chart-space solution",
        },
    )
