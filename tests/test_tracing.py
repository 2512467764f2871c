"""The benchmark's tracer (perfbench/tracing.py) against the library: its
patch targets exist, install wraps them, and uninstall puts every original
back."""

from __future__ import annotations

import importlib
import importlib.util
import inspect
from pathlib import Path

import numpy as np

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
# span targets the tracer still names although the library dropped them
STALE_TARGETS = {
    ("potential", "integrate_jacobian"),
    ("exprlang", "eval_jet2_many"),
    ("exprlang", "eval_jet2"),
    ("exprlang", "eval_scalar"),
    ("exprlang", "differentiate"),
    ("geometry", "eval_frame_jets"),
    ("geometry", "pullback_connection"),
    ("geometry", "directional_gamma"),
    ("classify", "classify_beta_rich_rank1"),
    ("classify", "classify_beta_nonrich_rank1"),
    ("classify", "normalize_indices"),
}


def _load_tracing():
    spec = importlib.util.spec_from_file_location("eigenframe_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _attributes(tracing, modules) -> dict:
    """Every module attribute and every traced method, keyed by owner."""
    attrs = {(mod, name): value for mod in modules.values() for name, value in vars(mod).items()}
    for layer, cls_name, meth, _ in tracing.METHOD_SPANS:
        cls = getattr(modules[layer], cls_name)
        attrs[(cls, meth)] = vars(cls)[meth]
    return attrs


def test_tracer_wraps_its_targets_and_restores_every_attribute():
    tracing = _load_tracing()
    modules = {layer: importlib.import_module(f"eigenframe.{layer}") for layer in tracing.LAYERS}
    targets = [(layer, fn) for layer, names in tracing.SPAN_NAMES.items() for fn in names]
    missing = {t for t in targets if not inspect.isfunction(vars(modules[t[0]]).get(t[1]))}
    assert missing == STALE_TARGETS
    before = _attributes(tracing, modules)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for layer, fn in targets:
            if (layer, fn) not in STALE_TARGETS:
                mod = modules[layer]
                assert getattr(mod, fn).__wrapped__ is before[(mod, fn)], (layer, fn)
        for layer, cls_name, meth, _ in tracing.METHOD_SPANS:
            cls = getattr(modules[layer], cls_name)
            assert vars(cls)[meth].__wrapped__ is before[(cls, meth)], (cls_name, meth)
        ex = modules["exprlang"]
        ex.eval_scalar_many(ex.parse_expression("u1*u2", ["u1", "u2"]), np.ones((4, 2)))
        values = tracer.summary()["spans"]["exprlang.values"]
        assert (values["calls"], values["points"]) == (1, 4)
    finally:
        tracer.uninstall()
    after = _attributes(tracing, modules)
    assert after.keys() == before.keys()
    changed = [key for key, value in before.items() if after[key] is not value]
    assert not changed, changed
