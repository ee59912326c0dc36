"""The functions the benchmark's tracer patches exist under their names.

``bench/tracer.py`` wraps the package's layer boundaries by attribute
name, so renaming or removing one of them would otherwise show only when
the benchmark runs.  The traced call counts must also equal the search's
own counters, as the benchmark checks on every traced learn.  The
benchmark's seed-1 inputs are pinned byte for byte.
"""

import hashlib
import importlib
from pathlib import Path

import pytest

from conftest import random_network
from rpdaglearn import Scorer, sample, save_csv, search

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


@pytest.mark.parametrize("space", ["rpdag", "dag"])
@pytest.mark.parametrize("strategy", ["greedy", "tabu"])
def test_traced_calls_equal_search_counters(monkeypatch, space, strategy):
    # The benchmark's wiring check at more than its self-test's n = 6:
    # each traced call count equals the counter the search reports.
    monkeypatch.syspath_prepend(str(BENCH))
    tracer = importlib.import_module("tracer")
    run = {("rpdag", "greedy"): search.greedy_search,
           ("rpdag", "tabu"): search.tabu_search,
           ("dag", "greedy"): search.dag_greedy_search,
           ("dag", "tabu"): search.dag_tabu_search}[space, strategy]
    ds = sample(random_network(12, seed=12, p=0.3), 2000, seed=12)
    kwargs = {} if strategy == "greedy" else {"tsit": 40}
    with tracer.Tracer() as t:
        _, report = run(ds, Scorer(ds), **kwargs)
    calls = t.calls
    assert report.iterations_applied > 5
    assert calls["search.delta"] == report.individuals_evaluated
    assert calls["scoring.local"] == report.requested
    assert calls["scoring.count"] == report.evaluated
    assert calls["search.neighborhood"] == (report.iterations_applied
                                            + (strategy == "greedy"))


@pytest.mark.parametrize("name, digest", [
    ("rpdag-greedy-n60",
     "0b964e4c6c59b2b8ea5edb2aeb8d5f1a2324ee3b3b3277ac032100f3b8f87a49"),
    ("rpdag-tabu-n26",
     "84cb116a4eedab26a26fe4cb247df96b2271dd32fc15e9a71b653b00b37425ae"),
    ("dag-cli-wide",
     "40ac5819f5f124858edb84ecf34a4f68c2e0bf1a1c677c72ed350f8d7f254458")])
def test_seed1_data_pinned(monkeypatch, tmp_path, name, digest):
    # The CSV each workload learns from at seed 1: a change to the
    # generator, sample or save_csv that alters the benchmark's data shows
    # here, not only in the learned digests.
    monkeypatch.syspath_prepend(str(BENCH))
    workloads = importlib.import_module("workloads")
    w = workloads.WORKLOADS[name]
    path = tmp_path / "d.csv"
    save_csv(sample(workloads.generate_network(w), w.m, seed=1), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
