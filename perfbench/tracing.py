"""In-memory spans around the public functions of each eigenframe module.

The tracer replaces every public function of each module, at every
eigenframe module that imports it, with a wrapper that records a span
(name, start, end, parent, op id).  ``MatrixField.values``,
``MatrixField.value_grad``, ``PotentialGrid.to_csv`` and
``PotentialGrid.to_json`` are wrapped on their classes.  Nothing under
``src/`` changes: ``install`` patches attributes and ``uninstall`` puts the
originals back.

A call that re-enters a span of the same name (recursion, or a wrapper such
as ``eval_jet2`` calling ``eval_jet2_many``) is folded into the outer span,
so calls and points count what callers asked for.  A span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import hashlib
import importlib
import inspect
import json
from collections import defaultdict
from time import perf_counter

import numpy as np

LAYERS = ("exprlang", "geometry", "systems", "classify", "potential", "corpus", "cli")

# Public functions with a span name of their own; every other public function
# of a layer records as "<layer>.other".
SPAN_NAMES = {
    "exprlang": {
        "eval_jet2_many": "jet2", "eval_jet2": "jet2",
        "eval_scalar_many": "values", "eval_scalar": "values",
        "parse_expression": "parse", "tokenize": "parse",
        "differentiate": "differentiate",
    },
    "geometry": {
        "eval_frame_jets": "frame_jets", "eval_connection": "connection",
        "check_symmetry_flatness": "checks", "structure_coefficients_bracket": "checks",
        "is_rich": "checks", "verify_riemann_chart": "checks",
        "flatness_residual": "checks", "directional_gamma": "checks",
        "pullback_connection": "checks",
    },
    "systems": {
        "beta_residual": "residual", "lambda_residual": "residual",
        "generic_rank": "rank", "sevennec_identity": "sevennec",
        "convexity_classify": "convexity",
    },
    "classify": {
        "classify_lambda_n3": "lambda_n3", "classify_beta_rich_rank1": "beta_rich",
        "classify_beta_nonrich_rank1": "beta_nonrich", "normalize_indices": "normalize",
        "classify": "dispatch",
    },
    "potential": {
        "reconstruct_eta": "sweep", "reconstruct_flux": "sweep",
        "entropy_flux": "sweep", "integrate_jacobian": "sweep",
        "curl_residual": "curl",
    },
    "corpus": {"load_example": "load", "load_example_from_doc": "load",
               "run_example": "run_example"},
    "cli": {},  # every public function of the CLI records as "cli"
}
METHOD_SPANS = (
    ("potential", "MatrixField", "values", "potential.field_values"),
    ("potential", "MatrixField", "value_grad", "potential.field_grad"),
    ("potential", "PotentialGrid", "to_csv", "potential.io"),
    ("potential", "PotentialGrid", "to_json", "potential.io"),
)
# Counted on every call, recursion included, without a span.
COUNTED = {("potential", "adaptive_gauss_segment"): "potential.quad_panels"}
# Span name -> index of the argument that holds the batch of points.
POINT_ARGS = {
    "exprlang.jet2": 1, "exprlang.values": 1, "geometry.frame_jets": 1,
    "geometry.connection": 1, "potential.field_values": 1,
}


def _span_name(layer: str, fn_name: str) -> str:
    if layer == "cli":
        return "cli"
    return f"{layer}.{SPAN_NAMES[layer].get(fn_name, 'other')}"


def _batch(points) -> int:
    shape = np.shape(points)
    return 1 if len(shape) < 2 else int(shape[0])


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, op id, points]
        self.counts = defaultdict(int)
        self.frame_sets = defaultdict(set)  # op id -> distinct frame-jet inputs
        self._frame_keys = {}  # id(spec) -> (spec, structural hash of the frame)
        self.op_id = None
        self._stack = []
        self._patches = []  # (owner, attribute, original)

    # -- wrappers ----------------------------------------------------------

    def _span_wrapper(self, fn, name: str):
        point_arg = POINT_ARGS.get(name)
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack
            if stack and tracer.spans[stack[-1]][0] == name:
                return fn(*args, **kwargs)
            points = 0
            if point_arg is not None and len(args) > point_arg:
                points = _batch(args[point_arg])
            if name == "geometry.frame_jets":
                tracer._note_frame_set(args)
            idx = len(tracer.spans)
            tracer.spans.append([name, perf_counter(), 0.0,
                                 stack[-1] if stack else -1, tracer.op_id, points])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                tracer.spans[idx][2] = perf_counter()
            if name == "classify.dispatch":
                tracer.counts["classify.perms_tried"] += sum(
                    "permutation" in entry[0] for entry in result.trace)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_wrapper(self, fn, name: str):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _note_frame_set(self, args):
        """Fingerprint of one eval_frame_jets input: the frame, by structure
        (a file loaded twice is one frame), and the sample set."""
        spec, points = args[0], np.ascontiguousarray(args[1], dtype=float)
        known = self._frame_keys.get(id(spec))
        if known is None or known[0] is not spec:
            known = (spec, hash((spec.columns, tuple(sorted(spec.params.items())))))
            self._frame_keys[id(spec)] = known
        digest = hashlib.blake2b(points.tobytes(), digest_size=16).hexdigest()
        self.frame_sets[self.op_id].add((known[1], digest))

    # -- patching ----------------------------------------------------------

    def install(self):
        modules = {layer: importlib.import_module(f"eigenframe.{layer}") for layer in LAYERS}
        replacements = {}  # id(original) -> (original, wrapper)
        for layer, mod in modules.items():
            for fn_name, fn in vars(mod).items():
                if (fn_name.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                counted = COUNTED.get((layer, fn_name))
                if counted:
                    replacements[id(fn)] = (fn, self._count_wrapper(fn, counted))
                else:
                    replacements[id(fn)] = (fn, self._span_wrapper(fn, _span_name(layer, fn_name)))
        # every eigenframe module that imported a wrapped function by name
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(mod, attr, hit[1])
        for layer, cls_name, meth, name in METHOD_SPANS:
            cls = getattr(modules[layer], cls_name)
            self._patch(cls, meth, self._span_wrapper(vars(cls)[meth], name))

    def _patch(self, owner, attr, wrapper):
        original = vars(owner)[attr]
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results -----------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: calls, points and self seconds; plus counters."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = defaultdict(lambda: {"calls": 0, "points": 0, "self_s": 0.0})
        for i, (name, start, end, _, _, points) in enumerate(self.spans):
            row = out[name]
            row["calls"] += 1
            row["points"] += points
            row["self_s"] += (end - start) - child_time[i]
        useful = sum(len(s) for s in self.frame_sets.values())
        return {"spans": dict(out), "counts": dict(self.counts), "frame_sets": useful}

    def write(self, path):
        """All spans as JSON lines: name, start, end, parent, op, points."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
