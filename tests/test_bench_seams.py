"""The functions the benchmark's tracer patches exist under their names.

``bench/tracer.py`` wraps the package's layer boundaries by attribute
name, so renaming or removing one of them would otherwise show only when
the benchmark runs.
"""

import importlib
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_tracer_installs_and_restores_every_target(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    tracer = importlib.import_module("tracer")
    targets = [(owner, attr) for owner, attr, _ in tracer._TARGETS]
    originals = [getattr(owner, attr) for owner, attr in targets]
    t = tracer.Tracer()
    try:
        t.install()
        for (owner, attr), original in zip(targets, originals):
            assert getattr(owner, attr).__wrapped__ is original, attr
    finally:
        t.restore()
    for (owner, attr), original in zip(targets, originals):
        assert getattr(owner, attr) is original, attr
