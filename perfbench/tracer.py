"""Spans and counters wrapped around mnarkit's module attributes.

A :class:`Tracer` replaces attributes of modules and classes with wrappers
while it is installed and puts the originals back when it is removed. A
span wrapper records calls, total time and self time (its duration minus
the durations of spans that ran inside it). A counter wrapper only counts
calls, for functions too small or too frequent to time.

The functions are wrapped from outside the program: nothing under ``src/``
knows about the tracer, and calls reach a wrapper only when they look the
name up in the patched namespace at call time.
"""

from __future__ import annotations

import time
from dataclasses import dataclass


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class Tracer:
    """Installs span and counter wrappers; use as a context manager.

    ``spans`` is a list of ``(name, owner, attribute, observe)``. ``observe``
    is ``None`` or a callable ``observe(tracer, args, result)`` that runs
    after the span has closed, to derive counts from arguments or results.
    ``counters`` is a list of ``(name, owner, attribute)``.
    """

    def __init__(self, spans, counters=(), clock=time.perf_counter):
        self.clock = clock
        self.stats = {name: SpanStats() for name, *_ in spans}
        self.counts = {name: 0 for name, *_ in counters}
        self._spans = list(spans)
        self._counters = list(counters)
        self._open = []      # child time accumulated by each open span
        self._saved = []     # (owner, attribute, original) in install order

    # -- wrappers ---------------------------------------------------------

    def _span_wrapper(self, name, fn, observe):
        stats = self.stats[name]
        clock = self.clock
        open_spans = self._open

        def wrapper(*args, **kwargs):
            start = clock()
            open_spans.append(0.0)
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                child = open_spans.pop()
                stats.calls += 1
                stats.total_s += duration
                stats.self_s += duration - child
                if open_spans:
                    open_spans[-1] += duration
            if observe is not None:
                observe(self, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counter_wrapper(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- totals across processes -------------------------------------------

    def snapshot(self) -> dict:
        """Span statistics and counts as plain data, for another process."""
        return {"stats": {n: [st.calls, st.total_s, st.self_s] for n, st in self.stats.items()},
                "counts": dict(self.counts)}

    def absorb(self, snapshot) -> None:
        """Add a snapshot taken in another process to this tracer's totals."""
        if snapshot is None:
            return
        for name, (calls, total_s, self_s) in snapshot["stats"].items():
            st = self.stats[name]
            st.calls += calls
            st.total_s += total_s
            st.self_s += self_s
        for name, value in snapshot["counts"].items():
            self.counts[name] += value

    # -- install / remove -------------------------------------------------

    def _patch(self, owner, attribute, wrapper_of):
        original = vars(owner)[attribute]
        self._saved.append((owner, attribute, original))
        setattr(owner, attribute, wrapper_of(original))

    def install(self) -> "Tracer":
        if self._saved:
            raise RuntimeError("tracer is already installed")
        try:
            for name, owner, attribute, observe in self._spans:
                self._patch(owner, attribute,
                            lambda fn, n=name, o=observe: self._span_wrapper(n, fn, o))
            for name, owner, attribute in self._counters:
                self._patch(owner, attribute,
                            lambda fn, n=name: self._counter_wrapper(n, fn))
        except BaseException:
            self.remove()
            raise
        return self

    def remove(self) -> None:
        while self._saved:
            owner, attribute, original = self._saved.pop()
            setattr(owner, attribute, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.remove()
        return False


# ---------------------------------------------------------------------------
# the mnarkit layers


def _count_matmul_flops(tracer, args, result):
    a, b = args[0], args[1]
    m, k = a.value.shape
    tracer.counts["autodiff.matmul.flops"] += 2 * m * k * b.value.shape[1]


def _count_ess(tracer, args, result):
    """Normalized Kish ESS per row, 1 / (k * sum w^2), from the returned
    ImportanceWeightSet's self-normalized weights."""
    w = result.normalized
    frac = 1.0 / (w.shape[1] * (w * w).sum(axis=1))
    tracer.counts["ess.rows"] += frac.size
    tracer.counts["ess.sum"] += float(frac.sum())


def mnarkit_tracer(model, autodiff) -> Tracer:
    """Tracer over the layers of ``mnarkit.model`` and ``mnarkit.autodiff``.

    ``backward`` and ``adam_step`` are wrapped in the model's namespace,
    which is where ``train`` looks them up.
    """
    spans = [
        ("model.train", model, "train", None),
        ("model.impute", model, "impute", None),
        ("model.multiple_impute", model, "multiple_impute", None),
        ("model.encode", model, "encode", None),
        ("model.sample_latent", model, "sample_latent", None),
        ("model.importance_log_weights", model, "importance_log_weights", _count_ess),
        ("model.decode_data", model, "decode_data", None),
        ("model.decode_mask", model, "decode_mask", None),
        ("model.decode_mask_serial", model, "decode_mask_serial", None),
        ("autodiff.backward", model, "backward", None),
        ("autodiff.adam_step", model, "adam_step", None),
        ("model.ParamBlocks.flatten", model.ParamBlocks, "flatten", None),
        ("model.ParamBlocks.unflatten", model.ParamBlocks, "unflatten", None),
        ("model.save_checkpoint", model, "save_checkpoint", None),
        ("model.load_checkpoint", model, "load_checkpoint", None),
        ("autodiff.matmul", autodiff, "matmul", _count_matmul_flops),
    ]
    counters = [
        ("autodiff.Tensor.nodes", autodiff.Tensor, "__init__"),
        ("autodiff.Tensor._accumulate.calls", autodiff.Tensor, "_accumulate"),
    ]
    tracer = Tracer(spans, counters)
    tracer.counts.update({"autodiff.matmul.flops": 0, "ess.rows": 0, "ess.sum": 0.0})
    return tracer
