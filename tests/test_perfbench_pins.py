"""The benchmark harness reaches into slsid by name; those names must exist
and its calls must still work.

``perfbench/tracing.py`` replaces module attributes listed in ``PATCHES``,
and ``perfbench/workloads.py`` imports its calls from ``slsid``.  A rename
or signature change that breaks either passes the rest of this suite but
crashes the benchmark, so both are loaded by path and checked, and every
tiny workload instance is run through its timed call and its check.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str, monkeypatch):
    path = PERFBENCH / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while it executes
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_traced_attribute_resolves(monkeypatch):
    tracing = _load("tracing", monkeypatch)
    assert tracing.PATCHES
    targets = [(module, attr) for module, attr, _ in tracing.PATCHES]
    targets += tracing.COUNTED
    missing = [
        f"{module}.{attr}"
        for module, attr in targets
        if not hasattr(importlib.import_module(module), attr)
    ]
    assert not missing


def test_workloads_import_their_slsid_names(monkeypatch):
    workloads = _load("workloads", monkeypatch)
    assert set(workloads.WORKLOADS) == {"fit", "select", "oracle", "certify"}


def test_every_workload_call_passes_its_check(monkeypatch):
    # names resolving is not enough: a changed signature or result breaks
    # the timed call itself, so run every tiny instance through it
    workloads = _load("workloads", monkeypatch)
    for name, cls in workloads.WORKLOADS.items():
        workload = cls(tiny=True)
        pools = workload.generate(7, workloads.Clock())
        for kind, pool in zip(workload.kinds, pools):
            assert pool, f"{name}/{kind.label}: empty pool"
            for i, inst in enumerate(pool):
                reason = workload.check(inst, workload.call(inst))
                assert reason is None, (name, kind.label, i, reason)
