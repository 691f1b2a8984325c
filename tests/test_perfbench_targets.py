"""The benchmark's tracer wraps kernel functions and methods by name. Each of
its targets must still resolve, as a plain function or method, so that a
rename or a `@staticmethod` fails here instead of silently dropping
per-layer metrics. The tracer is read from `perfbench/`, never edited."""

import importlib.util
import inspect
import sys
from pathlib import Path

from tdthr.simkernel import Simulation

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules while executing
    monkeypatch.setitem(sys.modules, spec.name, tracer)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_perfbench_wrap_target_resolves(monkeypatch):
    tracer = _load_tracer(monkeypatch)
    targets = tracer.layer_targets()
    warnings = []
    layers = tracer.Tracer(targets, warn=warnings.append)
    select = Simulation.__dict__["_select"]
    with layers.attached():
        assert Simulation.__dict__["_select"] is not select
    assert layers.missing == set() and warnings == []
    assert len(targets) >= 49
    # a staticmethod resolves, as it is callable, but its wrapper is then
    # bound like a method and passes `self` to it
    for target in targets:
        original = tracer._resolve(target)[2]
        assert inspect.isfunction(original), target.qualname
    assert Simulation.__dict__["_select"] is select  # originals restored


def test_the_kernel_event_handlers_are_the_benchmark_event_kinds(monkeypatch):
    # The benchmark counts every `_ev_*` call as one dispatched event, so a
    # helper named `_ev_*` that is not an event would inflate `events_per_s`.
    # Each handler must be one of the kinds the benchmark reports by name.
    tracer = _load_tracer(monkeypatch)
    assert sorted(tracer.event_kinds()) == sorted(tracer.EVENT_KINDS)
