"""In-memory span tracing around slsid's layer boundaries.

A :class:`Tracer` records one span per call of a wrapped function: its
name, start and end (``time.perf_counter``), the span that was open when it
started, and the workload operation it belongs to.  Calls to
``numpy.linalg.lstsq`` and ``numpy.linalg.svd`` are counted and attributed
to the innermost open span.  Spans stay in flat arrays until the run ends;
:meth:`Tracer.save` writes them out and :meth:`Tracer.totals` folds them
into per-name durations, self times and counts.

Functions are patched under the name their caller's module looks them up
by, so that ``slsid.bcd.assign_step`` sees a traced ``residual_matrix``
through ``slsid.bcd`` while ``slsid.model.objective_integer`` sees one
through ``slsid.model``.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array
from contextlib import contextmanager

import numpy as np

# (module, attribute, span name).  The attribute is replaced in that module
# only, which is where the calling code resolves it.
PATCHES = (
    ("slsid.bcd", "assign_step", "bcd.assign_step"),
    ("slsid.bcd", "objective_integer", "bcd.objective"),
    ("slsid.bcd", "residual_matrix", "model.residual"),
    ("slsid.model", "residual_matrix", "model.residual"),
    ("slsid.order", "bcd_solve", "bcd.solve"),
    ("slsid.pe", "check_distinct_params", "pe.cond1"),
    ("slsid.pe", "check_no_separating_regressor", "pe.cond2"),
    ("slsid.pe", "check_cluster_pe", "pe.cluster_pe"),
    ("slsid.pe", "check_partition_condition", "pe.partition"),
    ("slsid.pe", "check_genericity_sufficient", "pe.genericity"),
    ("slsid.pe", "min_rank_deficient_partition", "partitions.search"),
    ("slsid.pe", "gram_nonsingular", "partitions.gram"),
    ("slsid.partitions", "gram_nonsingular", "partitions.gram"),
)
COUNTED = (("numpy.linalg", "lstsq"), ("numpy.linalg", "svd"))


class Tracer:
    """Span store plus the patching that feeds it.

    Spans are recorded only while :attr:`active` is set, which the run loop
    does around each operation and each scoring call; correctness checks
    run with it cleared so their own calls into slsid are not attributed
    to any layer.
    """

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.op = array("l")
        self.failed = array("b")
        self.calls = {kind: array("l") for _, kind in COUNTED}
        self.counters: dict[str, float] = {}
        self.active = False
        self.op_id = -1
        self._stack: list[int] = []

    def _name_id(self, name: str) -> int:
        idx = self._ids.get(name)
        if idx is None:
            idx = self._ids[name] = len(self.names)
            self.names.append(name)
        return idx

    def open(self, name: str) -> int:
        idx = len(self.start)
        self.name.append(self._name_id(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.failed.append(0)
        self.end.append(0.0)
        for counts in self.calls.values():
            counts.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int, failed: bool = False) -> None:
        self.end[idx] = time.perf_counter()
        self.failed[idx] = failed
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {idx} closed while span {popped} was innermost")

    @contextmanager
    def span(self, name: str):
        idx = self.open(name)
        failed = True
        try:
            yield
            failed = False
        finally:
            self.close(idx, failed)

    def add(self, counts: dict[str, float]) -> None:
        for key, value in counts.items():
            self.counters[key] = self.counters.get(key, 0) + value

    def _wrap(self, fn, name: str, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.close(idx, failed=True)
                if after is not None:
                    self.add(after(args, kwargs, None, exc))
                raise
            self.close(idx)
            if after is not None:
                self.add(after(args, kwargs, result, None))
            return result

        return traced

    def _count(self, fn, kind: str):
        counts = self.calls[kind]

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if self.active and self._stack:
                counts[self._stack[-1]] += 1
            return fn(*args, **kwargs)

        return counted

    @contextmanager
    def patched(self, after: dict | None = None):
        """Install the wrappers for the duration of the block.

        ``after`` maps a span name to a callback ``(args, kwargs, result,
        exc) -> dict`` whose counts are added once the wrapped call returns
        or raises.
        """
        after = after or {}
        saved = []
        try:
            for module_name, attr, name in PATCHES:
                module = importlib.import_module(module_name)
                fn = getattr(module, attr)
                saved.append((module, attr, fn))
                setattr(module, attr, self._wrap(fn, name, after.get(name)))
            for module_name, kind in COUNTED:
                module = importlib.import_module(module_name)
                fn = getattr(module, kind)
                saved.append((module, kind, fn))
                setattr(module, kind, self._count(fn, kind))
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def arrays(self) -> dict[str, np.ndarray]:
        out = {
            "name": np.asarray(self.name, dtype=np.int64),
            "start": np.asarray(self.start, dtype=float),
            "end": np.asarray(self.end, dtype=float),
            "parent": np.asarray(self.parent, dtype=np.int64),
            "op": np.asarray(self.op, dtype=np.int64),
            "failed": np.asarray(self.failed, dtype=bool),
        }
        for kind, counts in self.calls.items():
            out[kind] = np.asarray(counts, dtype=np.int64)
        return out

    def totals(self, scale=None) -> dict[str, dict[str, float]]:
        """Per span name: count, total and self seconds, counted calls.

        A span's self time is its duration minus the durations of the
        spans whose parent it is.  ``scale``, indexed by operation id,
        divides each span's duration by its operation's factor.
        """
        cols = self.arrays()
        if cols["start"].size == 0:
            return {}
        dur = cols["end"] - cols["start"]
        if scale is not None:
            dur = dur / np.asarray(scale, dtype=float)[cols["op"]]
        has_parent = cols["parent"] >= 0
        child = np.bincount(
            cols["parent"][has_parent], weights=dur[has_parent], minlength=dur.size
        )
        self_time = dur - child
        out = {}
        for idx, name in enumerate(self.names):
            mask = cols["name"] == idx
            row = {
                "count": float(np.count_nonzero(mask)),
                "total_s": float(dur[mask].sum()),
                "self_s": float(self_time[mask].sum()),
            }
            for kind in self.calls:
                row[kind] = float(cols[kind][mask].sum())
            out[name] = row
        return out

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.asarray(self.names), **self.arrays())
