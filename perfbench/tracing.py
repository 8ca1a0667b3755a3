"""In-memory span recorder around obsmap's public functions.

The package's modules import each other with ``from .x import f``, so every
caller looks ``f`` up in its own module namespace. The recorder therefore
rebinds every loaded ``obsmap`` module attribute that is bound to a traced
function to one wrapper around the original, so a call passes through
exactly one wrapper whichever import site it used. Spans (name, start, end,
parent) stay in memory until the caller writes them out; ``installed()``
restores every patched attribute on exit.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import os
import sys
import time
from collections import Counter, defaultdict
from typing import Callable, Iterator

# (defining module, function, layer name, note). A note asks the wrapper to
# keep one extra fact per call: "args" keeps the bound arguments (distinct
# graphs), "file_bytes" the size of the file named by the ``path`` argument.
# quantize_absolute and quantize_relative share one layer, as do write_csv
# and write_records_csv (write_csv delegates, so only the latter is wrapped).
LAYERS = (
    ("graphs", "random_regular", "graphs.random_regular", "args"),
    ("graphs", "anchor_profile", "graphs.anchor_profile", None),
    ("spectral", "normalized_laplacian", "spectral.normalized_laplacian", None),
    ("spectral", "low_frequency_basis", "spectral.low_frequency_basis", None),
    ("spectral", "energy_embedding", "spectral.energy_embedding", None),
    ("spectral", "quantize_absolute", "spectral.quantize", None),
    ("spectral", "quantize_relative", "spectral.quantize", None),
    ("spectral", "codebook_size", "spectral.codebook_size", None),
    ("observation", "build_observation", "observation.build_observation", None),
    ("observation", "fiber_stats", "observation.fiber_stats", None),
    ("observation", "bucket_diagnostics", "observation.bucket_diagnostics", None),
    ("theory", "bound_report", "theory.bound_report", None),
    ("harness", "select_anchors", "harness.select_anchors", None),
    ("harness", "evaluate_instance", "harness.evaluate_instance", None),
    ("harness", "analyze_records", "harness.analyze_records", None),
    ("harness", "run_sweep", "harness.run_sweep", None),
    ("harness", "write_records_csv", "harness.write_csv", "file_bytes"),
    ("harness", "read_csv_rows", "harness.read_csv_rows", None),
    ("harness", "kemp_table", "harness.kemp_table", None),
    ("cli", "main", "cli.main", None),
)


def _package_modules() -> list:
    return [
        mod for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == "obsmap" or name.startswith("obsmap."))
    ]


class Tracer:
    """Records one span per call of a traced function.

    spans[i] is [name, start, end, parent], times from time.perf_counter
    and parent the index of the enclosing span or -1. Calls are assumed to
    come from one thread, so spans nest.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.call_args: dict[str, list[tuple]] = defaultdict(list)
        self.file_bytes: Counter = Counter()
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, Callable]] = []

    def _wrap(self, fn: Callable, layer: str, note: str | None) -> Callable:
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append([layer, time.perf_counter(), 0.0, parent])
            self._stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                self.spans[idx][2] = time.perf_counter()
                self._stack.pop()
                if note is not None:
                    bound = signature.bind(*args, **kwargs).arguments
                    if note == "args":
                        self.call_args[layer].append(tuple(bound.values()))
                    else:
                        with contextlib.suppress(OSError):
                            self.file_bytes[layer] += os.path.getsize(bound["path"])

        wrapper.traced_layer = layer
        return wrapper

    def install(self) -> None:
        """Wrap every import site of every traced function."""
        if self._patched:
            raise RuntimeError("tracer is already installed")
        modules = _package_modules()
        for defining, fname, layer, note in LAYERS:
            original = getattr(importlib.import_module(f"obsmap.{defining}"), fname, None)
            if original is None:
                continue
            wrapper = self._wrap(original, layer, note)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))

    def restore(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    @contextlib.contextmanager
    def installed(self) -> Iterator["Tracer"]:
        self.install()
        try:
            yield self
        finally:
            self.restore()

    def clear(self) -> None:
        self.spans.clear()
        self.call_args.clear()
        self.file_bytes.clear()


def layer_totals(spans: list[list]) -> tuple[dict[str, int], dict[str, float], float]:
    """Calls and self time (ms) per layer, plus the seconds covered by root spans.

    A span's self time is its duration minus the durations of its direct
    children; spans nest, so the children never overlap.
    """
    child_s = [0.0] * len(spans)
    root_s = 0.0
    for _, start, end, parent in spans:
        if parent >= 0:
            child_s[parent] += end - start
        else:
            root_s += end - start
    calls: Counter = Counter()
    self_ms: defaultdict = defaultdict(float)
    for i, (name, start, end, _) in enumerate(spans):
        calls[name] += 1
        self_ms[name] += (end - start - child_s[i]) * 1000.0
    return dict(calls), dict(self_ms), root_s
