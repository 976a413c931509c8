"""Span recording around the program's layer functions, from the outside.

The program calls its layers through module-level names (``register`` in
``cloudmorph.cli``, ``e_step`` in ``cloudmorph.bcpd``, ...). A :class:`Tracer`
replaces every module-level binding of a layer function with a wrapper that
records a span (name, start, end, parent span) and, for some functions, a
count. Nothing under ``src/`` changes, and uninstalling restores every
binding. Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import contextlib
import os
import time
from collections import defaultdict

import cloudmorph
from cloudmorph import bcpd, cli, cloudio, kernel, metrics, morpher


def _solve_spd_flops(counts, args, kwargs, result):
    # Cholesky of an M x M matrix, then two triangular solves per right-hand side.
    m = args[0].shape[0]
    k = args[1].shape[1] if args[1].ndim == 2 else 1
    counts["kernel.solve_spd.flops_computed"] += m ** 3 // 3 + 2 * m * m * k


def _build_gram_bytes(counts, args, kwargs, result):
    counts["kernel.build_gram.bytes_computed"] += 8 * result.values.size


def _e_step_bytes(counts, args, kwargs, result):
    # One float64 M x N array (the posterior) per call.
    counts["bcpd.e_step.bytes_computed"] += 8 * len(args[1]) * len(args[2])


def _register_counts(counts, args, kwargs, result):
    counts["bcpd.registrations"] += 1
    counts["bcpd.iterations"] += result.iterations
    counts["bcpd.cap_hits"] += not result.converged


def _load_bytes(counts, args, kwargs, result):
    counts["cloudio.load_ply.bytes"] += os.path.getsize(args[0])


def _save_bytes(counts, args, kwargs, result):
    counts["cloudio.save_ply.bytes"] += os.path.getsize(args[1])


def _records(counts, args, kwargs, result):
    counts["metrics.records"] += len(result)


# span name -> count hook (or None). The span name is "<module>.<function>".
LAYERS = {
    "cloudio.load_ply": _load_bytes,
    "cloudio.save_ply": _save_bytes,
    "cloudio.downsample": None,
    "cloudio.normalize": None,
    "cloudio.denormalize": None,
    "kernel.build_gram": _build_gram_bytes,
    "kernel.solve_spd": _solve_spd_flops,
    "bcpd.register": _register_counts,
    "bcpd.init_state": None,
    "bcpd.e_step": _e_step_bytes,
    "bcpd.update_displacement": None,
    "bcpd.update_similarity": None,
    "morpher.aligned_colored_source": None,
    "morpher.correspondence_targets": None,
    "morpher.morph": None,
    "metrics.read_scores_csv": _records,
    "metrics.read_nonmated_csv": None,
    "metrics.threshold_at_fmr": None,
    "metrics.build_report": None,
    "metrics.write_report_csv": None,
    "metrics.write_scatter_csv": None,
    "cli.main": None,
}

MODULES = {
    "cloudio": cloudio, "kernel": kernel, "bcpd": bcpd,
    "morpher": morpher, "metrics": metrics, "cli": cli,
}


class Tracer:
    """Records spans while installed; one per traced run, single-threaded."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: dict[str, int] = defaultdict(int)
        self.absent: list[str] = []
        self.enabled = True
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def _wrap(self, name: str, func, count):
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter

        def traced(*args, **kwargs):
            if not self.enabled:
                return func(*args, **kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if count is not None:
                try:
                    count(counts, args, kwargs, result)
                except (AttributeError, IndexError, TypeError, OSError):
                    # The function's signature or result changed; the span stays.
                    counts["trace.count_errors"] += 1
            return result

        return traced

    def install(self) -> None:
        """Wrap every layer function, under every name the package binds it to.

        A function missing from its module (renamed or removed by a later
        change) is listed in ``absent`` instead of failing the run.
        """
        for name, count in LAYERS.items():
            home, attr = name.split(".")
            original = getattr(MODULES[home], attr, None)
            if not callable(original):
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original, count)
            for module in (cloudmorph, *MODULES.values()):
                for binding, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, binding, wrapper)
                        self._patches.append((module, binding, original))

    @contextlib.contextmanager
    def paused(self):
        """Let the benchmark's own checks call the program without spans."""
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = True

    def uninstall(self) -> None:
        for module, binding, original in reversed(self._patches):
            setattr(module, binding, original)
        self._patches.clear()

    def summary(self) -> dict:
        """Per span name: calls, inclusive seconds, and self seconds.

        Self time is a span's duration minus the durations of its direct
        children, which nest inside it because the run is single-threaded.
        """
        out = {
            name: {"calls": 0, "s": 0.0, "self_s": 0.0}
            for name in LAYERS
            if name not in self.absent
        }
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for (name, start, end, _), children in zip(self.spans, child_time):
            entry = out[name]
            entry["calls"] += 1
            entry["s"] += end - start
            entry["self_s"] += end - start - children
        return out
