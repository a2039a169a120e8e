"""Span tracer that wraps kvtrace's public functions from outside the package.

``Tracer.install`` replaces every public function defined in a kvtrace
module with a timing wrapper, in every kvtrace namespace that binds it
(``cli`` and ``report`` import names directly, so patching only the
defining module would miss their calls). Public methods are patched on
their classes. Spans stay in memory until ``write`` is called; nothing is
recorded or patched outside ``install``/``uninstall``.

A span is ``(parent, name, start_ns, end_ns)``; ``parent`` is the index of
the enclosing span, or -1 at top level. ``attend_full_precision`` is
recorded as ``attention.exact`` when ``attend_mixed`` calls it and as
``attention.oracle`` otherwise.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
from collections import defaultdict
from time import perf_counter_ns

MODULES = ("cli", "trace", "cache", "quant", "outlier", "attention", "tensor", "report")

# Method spans use the names the benchmark reports; other methods are
# recorded as ``module.Class.method``.
METHOD_ALIASES = {
    "TieredCache.append": "append",
    "TieredCache.quantize_oldest_group": "quantize_oldest_group",
    "TieredCache.memory_usage": "memory_usage",
    "OutlierPool.update": "pool_update",
    "QuantizedBlock.to_matrix": "to_matrix",
}

_FULL_PRECISION = "attention.attend_full_precision"
_MIXED = "attention.attend_mixed"


def _count_read_bytes(counters, args, result):
    counters["trace.read_trace.bytes"] += os.path.getsize(args[0])


def _count_rows_dequantized(counters, args, result):
    counters["quant.to_matrix.rows"] += result.shape[0]


def _count_rows_quantized(counters, args, result):
    counters["quant.rows_quantized"] += len(args[0])


def _count_pool_update(counters, args, result):
    selected, evicted = result
    counters["outlier.pool_update.candidates"] += len(args[1])
    counters["outlier.pool_update.admitted"] += len(selected)
    counters["outlier.pool_update.evicted"] += len(evicted)


def _count_reconstructed_bytes(counters, args, result):
    counters["attention.reconstructed_kv.bytes"] += sum(m.nbytes for m in result)


# Counters read from a call's arguments and result, keyed by span name.
COUNTER_HOOKS = {
    "trace.read_trace": _count_read_bytes,
    "quant.to_matrix": _count_rows_dequantized,
    "quant.quantize_keys_channelwise": _count_rows_quantized,
    "quant.quantize_values_tokenwise": _count_rows_quantized,
    "outlier.pool_update": _count_pool_update,
    "attention.reconstructed_kv": _count_reconstructed_bytes,
}


class Tracer:
    """Records nested call spans of kvtrace while installed."""

    def __init__(self):
        self.spans: list = []
        self.counters: dict[str, float] = defaultdict(float)
        self.hook_errors: dict[str, str] = {}
        self.installed: set[str] = set()
        self._open: list[tuple[int, str]] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str):
        tracer = self
        hook = COUNTER_HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            open_spans = tracer._open
            parent, parent_name = open_spans[-1] if open_spans else (-1, "")
            span_name = name
            if name == _FULL_PRECISION:
                span_name = "attention.exact" if parent_name == _MIXED else "attention.oracle"
            sid = len(tracer.spans)
            tracer.spans.append(None)
            open_spans.append((sid, name))
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                open_spans.pop()
                tracer.spans[sid] = (parent, span_name, start, end)
            if hook is not None and name not in tracer.hook_errors:
                try:
                    hook(tracer.counters, args, result)
                except (TypeError, AttributeError, IndexError, ValueError, OSError) as exc:
                    # A refactor changed the call's shape: stop counting it, keep timing it.
                    tracer.hook_errors[name] = repr(exc)
            return result

        self.installed.add(name)
        return wrapper

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Patch kvtrace's public functions and methods; modules missing are skipped."""
        wrappers = {}
        for short in MODULES:
            try:
                mod = importlib.import_module(f"kvtrace.{short}")
            except ImportError:
                continue
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrappers[obj] = self._wrap(obj, f"{short}.{attr}")
                elif inspect.isclass(obj):
                    for meth, fn in list(vars(obj).items()):
                        if meth.startswith("_") or not inspect.isfunction(fn):
                            continue
                        qual = f"{obj.__name__}.{meth}"
                        self._patch(obj, meth, self._wrap(fn, f"{short}.{METHOD_ALIASES.get(qual, qual)}"))
        namespaces = [m for n, m in list(sys.modules.items()) if n == "kvtrace" or n.startswith("kvtrace.")]
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patch(ns, attr, wrappers[obj])

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def absent(self, expected) -> list[str]:
        """Expected span names whose function was not found to patch."""
        have = set(self.installed)
        if _FULL_PRECISION in have:
            have |= {"attention.exact", "attention.oracle"}
        return [name for name in expected if name not in have]

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: ``calls``, inclusive ``s`` and ``self_s``."""
        child_ns = [0] * len(self.spans)
        for parent, _name, start, end in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for i, (_parent, name, start, end) in enumerate(self.spans):
            row = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["s"] += (end - start) / 1e9
            row["self_s"] += (end - start - child_ns[i]) / 1e9
        return out

    def write(self, path, extra=None) -> None:
        """Write the recorded spans, counters and ``extra`` as one JSON file."""
        names = sorted({s[1] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        doc = {
            "names": names,
            "spans": [[p, index[n], s, e] for p, n, s, e in self.spans],
            "counters": dict(self.counters),
            "hook_errors": self.hook_errors,
            **(extra or {}),
        }
        with open(path, "w") as f:
            json.dump(doc, f, separators=(",", ":"))
