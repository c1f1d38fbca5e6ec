"""Layer probes for the klpricer benchmark, built from the benchmark's files.

``traced(tracer)`` replaces public functions of ``klpricer.pricing`` and
``klpricer.process`` with timing and counting wrappers, each patched under the
name its caller looks up, and restores the originals on exit.  The ``klcore``
layer is measured through the names ``pricing`` and ``process`` import from
it.  Every wrapper returns exactly what the original returns and draws
nothing itself, so a traced request prints the same JSON as an untraced one
apart from ``wall_time_ms``.
"""

from __future__ import annotations

import functools
import inspect
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

import numpy as np


class Tracer:
    """Span times (ms) and counters of the request being traced.

    A span's self time is its duration minus the durations of the spans
    opened directly inside it.
    """

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.ms: Counter = Counter()
        self.self_ms: Counter = Counter()
        self.counts: Counter = Counter()
        self.fill_cols = 0  # row width of the last 2-D normal fill
        self._child_s: list[float] = []

    def snapshot(self) -> dict:
        return {
            "ms": dict(self.ms),
            "self_ms": dict(self.self_ms),
            "counts": dict(self.counts),
        }

    @contextmanager
    def span(self, name: str):
        self._child_s.append(0.0)
        start = perf_counter()
        try:
            yield
        finally:
            elapsed = perf_counter() - start
            children = self._child_s.pop()
            self.ms[name] += elapsed * 1e3
            self.self_ms[name] += (elapsed - children) * 1e3
            if self._child_s:
                self._child_s[-1] += elapsed


class TracedGenerator(np.random.Generator):
    """A Generator that times and counts its normal and uniform fills.

    Built on the bit generator of the stream it replaces, so it yields the
    same draws, and it still passes ``isinstance(rng, np.random.Generator)``.
    """

    tracer: Tracer

    def standard_normal(self, size=None, dtype=np.float64, out=None):
        with self.tracer.span("process.rng_fill"):
            z = super().standard_normal(size, dtype=dtype, out=out)
        self.tracer.counts["normals_drawn"] += np.size(z)
        if np.ndim(z) == 2:
            self.tracer.fill_cols = z.shape[1]
        return z

    def random(self, size=None, dtype=np.float64, out=None):
        with self.tracer.span("process.rng_fill"):
            u = super().random(size, dtype=dtype, out=out)
        self.tracer.counts["uniforms_drawn"] += np.size(u)
        return u


@contextmanager
def traced(tracer: Tracer):
    """Attach the probes for the duration of the block."""
    from klpricer import pricing, process

    originals = []

    def patch(module, name, make):
        original = getattr(module, name)
        originals.append((module, name, original))
        setattr(module, name, functools.wraps(original)(make(original)))

    def timed(span, after=None):
        def make(original):
            def wrapper(*args, **kwargs):
                with tracer.span(span):
                    result = original(*args, **kwargs)
                if after is not None:
                    after(result, *args, **kwargs)
                return result

            return wrapper

        return make

    def stream(original):
        def wrapper(*args, **kwargs):
            with tracer.span("process.stream"):
                rng = TracedGenerator(original(*args, **kwargs).bit_generator)
            rng.tracer = tracer
            tracer.counts["stream_calls"] += 1
            return rng

        return wrapper

    def coefficients_drawn(coeffs, *args, **kwargs):
        tracer.counts["normals_used"] += coeffs.a.size
        tracer.counts["clipped"] += coeffs.n_clipped

    def times_accepted(result, *args, **kwargs):
        times, n_proposals = result
        tracer.counts["proposals"] += n_proposals
        tracer.counts["accepted"] += len(times)

    def series_evaluated(values, coeffs, t):
        tracer.counts["horner_points"] += np.size(values)
        tracer.counts["horner_point_modes"] += np.size(values) * coeffs.order

    def proposals_evaluated(values, coeffs, t):
        series_evaluated(values, coeffs, t)
        tracer.counts["sampler_points"] += np.size(values)

    def price(original):
        signature = inspect.signature(original)

        def wrapper(*args, **kwargs):
            tracer.fill_cols = 0
            with tracer.span("pricing.price"):
                estimate = original(*args, **kwargs)
            n_paths = signature.bind(*args, **kwargs).arguments.get("n_paths")
            if n_paths and tracer.fill_cols:
                # flat kernels use n_paths rows of each block they draw
                tracer.counts["normals_used"] += n_paths * tracer.fill_cols
            return estimate

        return wrapper

    try:
        patch(process, "stream", stream)
        patch(process, "sample_coefficients",
              timed("process.sample_coefficients", coefficients_drawn))
        patch(process, "rejection_sample_times", timed("process.rejection", times_accepted))
        patch(process, "wiener_eval_horner", timed("klcore.horner", proposals_evaluated))
        patch(pricing, "wiener_eval_horner", timed("klcore.horner", series_evaluated))
        patch(pricing, "truncation_index_bm", timed("klcore.truncation"))
        for name in pricing.__all__:
            if name.startswith("price_"):
                patch(pricing, name, price)
        yield tracer
    finally:
        for module, name, original in reversed(originals):
            setattr(module, name, original)
