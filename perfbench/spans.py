"""Per-layer spans recorded from outside the package.

``patched`` swaps the public callables that the package calls through for
wrappers that time each call as a span, and puts every original back when
it exits, also on error.  Each thread keeps its own span stack, so the CLI
worker threads of the sweep do not see each other's spans.  A span's self
time is its duration minus the durations of its direct child spans, which
on one thread nest and never overlap.
"""

from __future__ import annotations

import dataclasses
import functools
import threading
import time
from contextlib import contextmanager
from typing import Callable, Optional

import numpy as np

from mlpicard import analysis, cli, mlp, problems, sampling

MAX_LEVEL_REPORTED = 4   # mlp.rows.l1 .. l4: the deepest workload has depth 5


class Tracer:
    """Accumulates span time, call counts and work counts per name."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[tuple[dict, dict]] = []

    def _state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            # spans: name -> [total_s, child_s, calls]; counts: name -> n
            state = self._local.state = ([], {}, {})
            with self._lock:
                self._threads.append(state[1:])
        return state

    def wrap(self, name: str, fn: Callable,
             count: Optional[Callable[..., dict]] = None) -> Callable:
        """``fn`` timed as span ``name``; ``count(*args)`` gives work counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack, spans, counts = self._state()
            stack.append(0.0)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                child = stack.pop()
                if stack:
                    stack[-1] += elapsed
                rec = spans.setdefault(name, [0.0, 0.0, 0])
                rec[0] += elapsed
                rec[1] += child
                rec[2] += 1
                if count is not None:
                    for key, n in count(*args, **kwargs).items():
                        counts[key] = counts.get(key, 0) + n

        return traced

    def self_time(self) -> float:
        """Summed self time of every span on every thread."""
        spans, _ = self.totals()
        return sum(total - child for total, child, _ in spans.values())

    def totals(self) -> tuple[dict, dict]:
        """Spans and counts summed over every thread that recorded any."""
        spans: dict = {}
        counts: dict = {}
        with self._lock:
            threads = list(self._threads)
        for t_spans, t_counts in threads:
            for name, rec in t_spans.items():
                acc = spans.setdefault(name, [0.0, 0.0, 0])
                for i in range(3):
                    acc[i] += rec[i]
            for name, n in t_counts.items():
                counts[name] = counts.get(name, 0) + n
        return spans, counts


def _normal_values(digests, offset, count):
    return {"sampling.normal_block.values": int(np.size(digests)) * int(count)}


def _digest_rows(digests, level, slot, replicas):
    rows = int(np.size(digests)) * int(np.size(replicas))
    return {"sampling.child_digests.values": rows, f"mlp.rows.l{level}": rows}


def _terminal_points(x):
    x = np.asarray(x)
    return {"problems.terminal.values": x.size // max(1, x.shape[-1])}


def _generator_values(t, y, z):
    return {"problems.generator.values": int(np.size(y))}


# (module, attribute, span name, work counter)
TARGETS = (
    (mlp, "normal_block", "sampling.normal_block", _normal_values),
    (mlp, "child_digests", "sampling.child_digests", _digest_rows),
    (mlp, "build_rule", "quadrature.build_rule", None),
    (analysis, "build_rule", "quadrature.build_rule", None),
    (analysis, "run_batch", "mlp.run_batch", None),
    (analysis, "deterministic_picard", "analysis.deterministic_picard", None),
    (sampling, "uniform_block", "sampling.uniform_block", None),
    (sampling, "ndtri", "sampling.ndtri", None),
)
# make_problem is bound by name in both modules; its wrapper traces the
# problem's terminal and generator
PROBLEM_FACTORIES = ((problems, "make_problem"), (cli, "make_problem"))


def _traced_factory(tracer: Tracer, factory: Callable) -> Callable:
    @functools.wraps(factory)
    def make(*args, **kwargs):
        p = factory(*args, **kwargs)
        return dataclasses.replace(
            p,
            terminal=tracer.wrap("problems.terminal", p.terminal,
                                 _terminal_points),
            generator=tracer.wrap("problems.generator", p.generator,
                                  _generator_values))
    return make


@contextmanager
def patched(tracer: Tracer):
    """Install every wrapper for the duration of the block."""
    saved = []
    try:
        for module, attr, name, count in TARGETS:
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(name, original, count))
        for module, attr in PROBLEM_FACTORIES:
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, _traced_factory(tracer, original))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def layer_metrics(tracer: Tracer, calls: int) -> dict:
    """Per-call layer figures from ``calls`` traced workload calls.

    Returns name -> (value, unit).  ``sampling.ns_per_value`` and
    ``sampling.mib_per_call`` are computed from the measured ones.
    """
    spans, counts = tracer.totals()

    def total(name):
        return spans.get(name, [0.0, 0.0, 0])[0] / calls

    def self_s(name):
        rec = spans.get(name, [0.0, 0.0, 0])
        return (rec[0] - rec[1]) / calls

    def n_calls(name):
        return spans.get(name, [0.0, 0.0, 0])[2] / calls

    def n_values(name):
        return counts.get(name, 0) / calls

    out = {}
    for layer in ("sampling.normal_block", "sampling.uniform_block",
                  "sampling.ndtri", "sampling.child_digests",
                  "problems.terminal", "problems.generator",
                  "quadrature.build_rule"):
        out[f"{layer}.self_s"] = (self_s(layer), "s")
        out[f"{layer}.calls"] = (n_calls(layer), "count")
    for layer in ("sampling.normal_block", "sampling.child_digests",
                  "problems.terminal", "problems.generator"):
        out[f"{layer}.values"] = (n_values(f"{layer}.values"), "count")
    values = n_values("sampling.normal_block.values")
    sampling_s = sum(self_s(f"sampling.{n}")
                     for n in ("normal_block", "uniform_block", "ndtri"))
    out["sampling.ns_per_value"] = (
        sampling_s * 1e9 / values if values else 0.0, "ns")
    block_calls = n_calls("sampling.normal_block")
    out["sampling.mib_per_call"] = (
        values * 8 / 2**20 / block_calls if block_calls else 0.0, "MiB")
    out["mlp.self_s"] = (self_s("mlp.run_batch"), "s")
    for level in range(1, MAX_LEVEL_REPORTED + 1):
        out[f"mlp.rows.l{level}"] = (n_values(f"mlp.rows.l{level}"), "count")
    out["analysis.deterministic_picard.s"] = (
        total("analysis.deterministic_picard"), "s")
    out["analysis.oracle.self_s"] = (
        self_s("analysis.deterministic_picard"), "s")
    return out
