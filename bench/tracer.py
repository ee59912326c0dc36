"""Per-layer tracing of rpdaglearn from outside the program.

``Tracer.install()`` replaces the functions at each layer boundary with
timing wrappers and ``restore()`` puts the originals back.  Every wrapped
call adds to an aggregate (calls, total time, self time = total minus the
time of wrapped calls made inside it).  Two kinds of spans are kept as
records with their parent: one per search iteration (from one
neighbourhood build to the next) and one per ``count_statistics`` call.

The search drivers reach their operators through the ``_RPDAG_SPACE`` and
``_DAG_SPACE`` bundles, which hold references taken at import time, so
those bundles are patched as well as the module attributes.
"""

from __future__ import annotations

import time
from collections import defaultdict

from rpdaglearn import cli, data, evaluation, graph, scoring, search

# (owner, attribute, span name) for every call the tracer times.
_TARGETS = (
    (data, "load_csv", "data.load_csv"),
    (scoring, "count_statistics", "scoring.count"),
    (scoring.Scorer, "_compute", "scoring.family"),
    (scoring.Scorer, "local", "scoring.local"),
    (scoring.Scorer, "score_dag", "scoring.rescore"),
    (cli, "kl_fit_term", "scoring.kl"),
    (evaluation, "kl_fit_term", "scoring.kl"),
    (cli, "hamming", "evaluation.hamming"),
    (evaluation, "hamming", "evaluation.hamming"),
    (search, "is_applicable", "search.applicable"),
    (search, "dag_is_applicable", "search.applicable"),
    (search._RPDAG_SPACE, "neighborhood", "search.neighborhood"),
    (search._DAG_SPACE, "neighborhood", "search.neighborhood"),
    (search._RPDAG_SPACE, "delta", "search.delta"),
    (search._DAG_SPACE, "delta", "search.delta"),
    (search._RPDAG_SPACE, "apply_inplace", "search.apply"),
    (search._DAG_SPACE, "apply_inplace", "search.apply"),
    (search, "_directed_reachable", "graph.reach"),
    (graph.PartialDag, "partially_directed_reachable", "graph.reach"),
    (graph.PartialDag, "undirected_reachable", "graph.reach"),
    (graph.PartialDag, "complete_cascade", "graph.cascade"),
    (graph.PartialDag, "undo_cascade", "graph.cascade"),
    (graph.PartialDag, "copy", "graph.copy"),
    (cli, "cmd_learn", "cli.learn"),
    (cli, "greedy_search", "search.run"),
    (cli, "tabu_search", "search.run"),
    (cli, "dag_greedy_search", "search.run"),
    (cli, "dag_tabu_search", "search.run"),
)


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.emitted = 0              # operators returned by neighbourhoods
        self.iterations = []          # (start, end) per search iteration
        self.counts = []              # per count_statistics call
        self._stack = []              # open frames: [name, child time]
        self.search_calls = defaultdict(int)   # calls inside search.run
        self.search_total = defaultdict(float)
        self._iteration_start = None
        self._search_start = None
        self._saved = []

    # -- aggregates ------------------------------------------------------

    def wrap(self, name, fn):
        """Return ``fn`` wrapped so that its calls add to ``name``."""
        stack, clock = self._stack, time.perf_counter
        calls, total, self_time = self.calls, self.total, self.self_time
        on_enter = self._on_enter.get(name)
        on_exit = self._on_exit.get(name)

        def wrapper(*args, **kwargs):
            if on_enter is not None:
                on_enter(self)
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                calls[name] += 1
                total[name] += dur
                self_time[name] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
            if on_exit is not None:
                on_exit(self, args, result, t0, dur)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def snapshot(self):
        """Copy of the aggregates, for taking differences over a span."""
        return {"calls": dict(self.calls), "total": dict(self.total),
                "self": dict(self.self_time), "emitted": self.emitted,
                "iterations": len(self.iterations),
                "counts": len(self.counts)}

    # -- span hooks --------------------------------------------------------

    def _iteration_boundary(self):
        now = time.perf_counter()
        if self._iteration_start is not None:
            self.iterations.append((self._iteration_start, now))
        self._iteration_start = now

    def _search_enter(self):
        self._search_start = (dict(self.calls), dict(self.total))

    def _search_exit(self, *_):
        start, self._iteration_start = self._iteration_start, None
        if start is not None:
            self.iterations.append((start, time.perf_counter()))
        calls0, total0 = self._search_start
        for k, v in self.calls.items():
            self.search_calls[k] += v - calls0.get(k, 0)
        for k, v in self.total.items():
            self.search_total[k] += v - total0.get(k, 0.0)

    def _count_done(self, args, table, t0, dur):
        dataset, y, parents = args
        parent = self._stack[-1][0] if self._stack else None
        self.counts.append({
            "parent": parent, "start": t0, "seconds": dur,
            "bytes": dataset.m * (len(parents) + 1) * 8,
            "cells": int(table.counts.size)})

    def _neighborhood_done(self, args, ops, t0, dur):
        self.emitted += len(ops)

    _on_enter = {"search.neighborhood": _iteration_boundary,
                 "search.run": _search_enter}
    _on_exit = {"search.run": _search_exit,
                "scoring.count": _count_done,
                "search.neighborhood": _neighborhood_done}

    # -- patching ----------------------------------------------------------

    def install(self):
        for owner, attr, name in _TARGETS:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original))
        return self

    def restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.restore()
