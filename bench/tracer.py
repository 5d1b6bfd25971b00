"""Span tracer that wraps kdcn's public functions at their attributes.

Each wrapped callable records its calls, its total wall time and its self
time (total minus the time spent in wrapped callees), so spans nest inside
the program's real loops without any change to the program. A target that
no longer exists is reported as missing, never as zero.
"""

from __future__ import annotations

import importlib
import time
from dataclasses import dataclass

# (span name, module, attribute path). The program resolves these names at
# call time (module globals or class attributes), so replacing the attribute
# puts the span around every call the program makes.
SPANS = [
    ("datagen.generate_world", "kdcn.datagen", "generate_world"),
    ("graph.Graph", "kdcn.graph", "Graph.__init__"),
    ("pretrain.pretrain", "kdcn.pretrain", "pretrain"),
    ("pretrain.negative_sample", "kdcn.pretrain", "negative_sample"),
    ("pretrain.sample_layer_draws", "kdcn.pretrain", "sample_layer_draws"),
    ("pretrain.pretrain_loss_grads", "kdcn.pretrain", "pretrain_loss_grads"),
    ("pretrain.adam_step", "kdcn.pretrain", "adam_step"),
    ("pretrain.encode_entities", "kdcn.pretrain", "encode_entities"),
    ("pretrain.hits_at_k", "kdcn.pretrain", "hits_at_k"),
    ("model.fit", "kdcn.model", "fit"),
    ("model.adam_step", "kdcn.model", "adam_step"),
    ("model.auc", "kdcn.model", "auc"),
    ("model.score_dataset", "kdcn.model", "score_dataset"),
    ("model.Featurizer.prepare", "kdcn.model", "Featurizer.prepare"),
    ("model.Dataset.batch", "kdcn.model", "Dataset.batch"),
    ("model.KdcnModel.forward", "kdcn.model", "KdcnModel.forward"),
    ("model.KdcnModel.loss_and_grads", "kdcn.model", "KdcnModel.loss_and_grads"),
    ("model.KdcnModel.predict_batch", "kdcn.model", "KdcnModel.predict_batch"),
    ("model.rank_candidates", "kdcn.model", "rank_candidates"),
]

# spans whose only reported figure is the total time (set-up steps)
TOTAL_ONLY = {"datagen.generate_world", "graph.Graph"}


@dataclass
class SpanStats:
    calls: int = 0
    total: float = 0.0
    self_time: float = 0.0


def _resolve(module_name: str, path: str):
    """Return (owner, attribute) for a dotted path, or None if it is gone."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    if isinstance(owner, type):
        if attr not in owner.__dict__:
            return None
    elif not hasattr(owner, attr):
        return None
    return owner, attr


class Tracer:
    """Installs span wrappers on enter and restores the originals on exit.

    ``hooks`` maps a span name to a function called with the wrapped call's
    arguments before the span starts; it lets a probe keep references to
    the arguments without adding to the span's time.
    """

    def __init__(self, hooks=None):
        self.stats = {name: SpanStats() for name, _, _ in SPANS}
        self.missing: set[str] = set()
        self.hooks = hooks or {}
        self._stack: list[float] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        stats = self.stats[name]
        stack = self._stack
        hook = self.hooks.get(name)
        clock = time.perf_counter

        def span(*args, **kwargs):
            if hook is not None:
                hook(args, kwargs)
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = stack.pop()
                stats.calls += 1
                stats.total += elapsed
                stats.self_time += elapsed - children
                if stack:
                    stack[-1] += elapsed

        span.__name__ = getattr(fn, "__name__", name)
        span.__qualname__ = getattr(fn, "__qualname__", name)
        span.__doc__ = getattr(fn, "__doc__", None)
        span.__wrapped__ = fn
        return span

    def __enter__(self):
        for name, module_name, path in SPANS:
            found = _resolve(module_name, path)
            if found is None:
                self.missing.add(name)
                continue
            owner, attr = found
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        return False

    def metrics(self) -> dict[str, dict]:
        """Per-layer metrics: <span>.{calls,s,self_s}; missing spans are flagged."""
        out: dict[str, dict] = {}
        for name, _, _ in SPANS:
            st = self.stats[name]
            fields = [("s", st.total, "s")]
            if name not in TOTAL_ONLY:
                fields = [("calls", st.calls, "count")] + fields + [("self_s", st.self_time, "s")]
            for suffix, value, unit in fields:
                key = f"{name}.{suffix}"
                if name in self.missing:
                    out[key] = {"value": None, "unit": unit, "missing": True}
                else:
                    out[key] = {"value": value, "unit": unit}
        return out
