"""In-memory span tracing around calls into smoa's layers.

Tracing never edits smoa. :meth:`Tracer.install` rebinds the public
functions of smoa's layer modules in every namespace that calls them
(smoa's own modules and the benchmark's workloads) to thin wrappers, and
:meth:`Tracer.uninstall` puts the originals back. A wrapper records one
span per call: label ``<module>.<function>``, parent span, start, end
and an optional size key. Spans stay in memory until the run ends.
"""
from __future__ import annotations

import functools
import os
import statistics
import types
from contextlib import contextmanager
from time import perf_counter

# Modules whose public functions are layer boundaries. ``cli`` is traced
# by the workloads themselves, one ``cli.<command>`` span per invocation.
LAYERS = ("preprocess", "spectrum", "adapters", "capacity", "trainer",
          "diagnostics", "matio", "fileutil", "gen")


def _shape_key(args, kwargs):
    w = args[0] if args else next(iter(kwargs.values()))
    return "{}x{}".format(*w.shape)


def _path_bytes(path):
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


# label -> function(args, kwargs, result) giving the span's ``extra``
_EXTRA = {
    "spectrum.svd": lambda a, k, r: _shape_key(a, k),
    "spectrum.singular_values": lambda a, k, r: _shape_key(a, k),
    "trainer.fit": lambda a, k, r: r.step_count,
    "matio.save_matrix": lambda a, k, r: _path_bytes(a[1] if len(a) > 1 else k["path"]),
    "preprocess.save_plan": lambda a, k, r: _path_bytes(a[1] if len(a) > 1 else k["path"]),
}


class Tracer:
    """Records spans as ``[label, parent, start, end, extra]`` lists."""

    def __init__(self, namespaces):
        self.namespaces = list(namespaces)
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple[types.ModuleType, str, object]] = []

    def _open(self, label: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([label, parent, perf_counter(), None, None])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][3] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, label: str):
        index = self._open(label)
        try:
            yield self.spans[index]
        finally:
            self._close(index)

    def _wrap(self, label: str, fn):
        extra = _EXTRA.get(label)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self._open(label)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if extra is not None:
                self.spans[index][4] = extra(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        wrapped: dict[int, object] = {}
        for module in self.namespaces:
            for name, value in list(vars(module).items()):
                if name.startswith("_") or not isinstance(value, types.FunctionType):
                    continue
                owner = value.__module__.rpartition(".")[2]
                if not value.__module__.startswith("smoa.") or owner not in LAYERS:
                    continue
                if id(value) not in wrapped:
                    wrapped[id(value)] = self._wrap(f"{owner}.{value.__name__}", value)
                self._saved.append((module, name, value))
                setattr(module, name, wrapped[id(value)])

    def uninstall(self) -> None:
        for module, name, value in reversed(self._saved):
            setattr(module, name, value)
        self._saved.clear()


class NullTracer:
    """Stand-in used for untraced passes; ``span`` costs one generator."""

    @contextmanager
    def span(self, label: str):
        yield None


def self_times(spans: list[list]) -> list[float]:
    """Duration of each span minus the part its child spans cover."""
    own = [s[3] - s[2] for s in spans]
    for s in spans:
        if s[1] >= 0:
            own[s[1]] -= s[3] - s[2]
    return own


def roots_of(spans: list[list]) -> list[int]:
    """Index of the top-level span each span descends from."""
    root = []
    for i, s in enumerate(spans):
        root.append(i if s[1] < 0 else root[s[1]])
    return root


def aggregate(spans: list[list], root_labels: set[str]) -> dict[str, dict]:
    """Per-label statistics over spans under roots named in ``root_labels``.

    Each entry holds ``calls``, ``self_s`` (summed self time),
    ``incl_s`` (summed inclusive time), ``median_ms`` (inclusive, per
    call) and ``extras`` (the recorded size keys or counts). Spectrum
    spans are also grouped per call size as ``<label>@<rows>x<cols>``.
    """
    own = self_times(spans)
    root = roots_of(spans)
    groups: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        if spans[root[i]][0] not in root_labels or s[1] < 0:
            continue
        groups.setdefault(s[0], []).append(i)
        if s[0].startswith("spectrum.") and isinstance(s[4], str):
            groups.setdefault(f"{s[0]}@{s[4]}", []).append(i)
    table = {}
    for label, members in sorted(groups.items()):
        durations = [spans[i][3] - spans[i][2] for i in members]
        table[label] = {
            "calls": len(members),
            "self_s": sum(own[i] for i in members),
            "incl_s": sum(durations),
            "median_ms": 1e3 * statistics.median(durations),
            "extras": [spans[i][4] for i in members if spans[i][4] is not None],
        }
    return table
