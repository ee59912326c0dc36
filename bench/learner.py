"""Timed learns of one workload, run in a process of their own.

Usage: python3 learner.py JOB_JSON

The job names the workload, the run's seed and length, whether to trace,
and the dataset, gold network and scratch files that ``run.py`` prepared.
The learner loads the dataset, learns repeatedly until the run's time is
used, checks every result, and writes its records to the job's
``result`` path.  Running in its own process makes the peak resident set
size that of the learns alone: the CLI workload's learns load the data
themselves, so the learner loads its own copy for the rescore checks only
after the peak has been read.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import resource
import statistics
import sys
import time
import traceback

import srcpath

srcpath.use_checkout_source()

from rpdaglearn import Scorer, cli, evaluate, hamming, search  # noqa: E402
from rpdaglearn import data as data_mod  # noqa: E402

from probe import probe_times  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import ESS, Workload  # noqa: E402

MIN_LEARNS = 2        # untraced learns, so that repeats can be compared
SCORE_RTOL = 1e-9

_ENTRY_POINTS = {("rpdag", "greedy"): "greedy_search",
                 ("rpdag", "tabu"): "tabu_search",
                 ("dag", "greedy"): "dag_greedy_search"}


def _close(a, b):
    return abs(a - b) <= SCORE_RTOL * max(abs(a), abs(b))


def _digest(obj):
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@dataclasses.dataclass
class Outcome:
    """What one learn produced and what its checks found."""

    seconds: float
    traced: bool
    errors: list
    probes: list = None        # calibration probe times around the learn
    signature: object = None   # compared exactly between repeats
    digest: str = None         # graph, moves, counters and score, hashed
    bdeu: float = None
    shd: int = None
    counters: dict = None
    layers: dict = None


class Learner:
    def __init__(self, job):
        self.job = job
        self.w = Workload(**job["workload"])
        self.dataset, self.load_s = None, None
        if self.w.entry == "library":       # the library call's input
            t0 = time.perf_counter()
            self.dataset = data_mod.load_csv(job["csv"])
            self.load_s = time.perf_counter() - t0
        self.rescores = []      # CLI: (outcome, graph, report BDeu)
        self.gold = data_mod.load_network(job["gold"]).structure
        self.valid = ("is_rpdag" if self.w.space == "rpdag" else "is_dag")

    # -- one learn -----------------------------------------------------------

    def learn(self, tracer=None):
        w = self.w
        if w.entry == "library":
            fn = getattr(search, _ENTRY_POINTS[(w.space, w.strategy)])
            if tracer is not None:
                fn = tracer.wrap("search.run", fn)
            scorer = Scorer(self.dataset, "bdeu", ESS)
            t0 = time.perf_counter()
            graph, report = fn(self.dataset, scorer)
            seconds = time.perf_counter() - t0
            return seconds, (graph, report, scorer)
        argv = ["learn", "--data", self.job["csv"], "--out", self.job["out"],
                "--report", self.job["report"], "--gold", self.job["gold"],
                "--space", w.space, "--strategy", w.strategy,
                "--ess", repr(ESS)]
        with contextlib.redirect_stdout(io.StringIO()):
            t0 = time.perf_counter()
            code = cli.main(argv)
            seconds = time.perf_counter() - t0
        return seconds, code

    # -- checks ------------------------------------------------------------

    def check(self, seconds, result, traced):
        if self.w.entry == "library":
            return self._check_library(seconds, traced, *result)
        return self._check_cli(seconds, traced, result)

    def _check_library(self, seconds, traced, graph, report, scorer):
        out = Outcome(seconds, traced, [])
        if not getattr(graph, self.valid)():
            out.errors.append(f"learned graph fails {self.valid}()")
            return out
        record = evaluate(graph, self.dataset, gold=self.gold, ess=ESS)
        if not _close(report.best_score, record["bdeu_train"]):
            out.errors.append(f"best_score {report.best_score!r} != rescore "
                              f"{record['bdeu_train']!r}")
        if len(scorer.cache.store) != report.evaluated:
            out.errors.append("cache size differs from EstEv")
        out.counters = {"Iter": report.iterations_applied,
                        "BIter": report.best_iteration,
                        "Ind": report.individuals_evaluated,
                        "EstEv": report.evaluated,
                        "TEst": report.requested}
        arcs, links = sorted(graph.arcs()), sorted(graph.links())
        moves = [(op.kind, op.x, op.y, op.z) for op, _ in report.trace]
        out.signature = (arcs, links, [(m, d) for m, (_, d)
                                       in zip(moves, report.trace)],
                         report.best_score, out.counters)
        out.digest = _digest([arcs, links, moves, out.counters,
                              f"{report.best_score:.6f}"])
        out.bdeu, out.shd = report.best_score, record["hamming_total"]
        return out

    def _check_cli(self, seconds, traced, code):
        out = Outcome(seconds, traced, [])
        if code != 0:
            out.errors.append(f"rpdaglearn learn exited {code}")
            return out
        with open(self.job["report"], encoding="utf-8") as fh:
            record = json.load(fh)
        graph = data_mod.load_network(self.job["out"]).structure
        if not getattr(graph, self.valid)():
            out.errors.append(f"written network fails {self.valid}()")
            return out
        self.rescores.append((out, graph, record["BDeu"]))
        if hamming(graph, self.gold).total != record["H"]:
            out.errors.append("report H differs from a library hamming()")
        out.counters = {k: record[k]
                        for k in ("Iter", "BIter", "Ind", "EstEv", "TEst")}
        arcs, links = sorted(graph.arcs()), sorted(graph.links())
        out.signature = (arcs, links, record["BDeu"], out.counters)
        out.digest = _digest([arcs, links, out.counters,
                              f"{record['BDeu']:.6f}"])
        out.bdeu, out.shd = record["BDeu"], record["H"]
        return out

    # -- traced learn --------------------------------------------------------

    def traced(self):
        """One learn under the tracer; the outcome carries layer records."""
        tracer = Tracer()
        probes = probe_times(self.w.probe)
        with tracer:
            seconds, result = self.learn(tracer)
            learned = tracer.snapshot()
            out = self.check(seconds, result, traced=True)
            checked = tracer.snapshot()
        if out.counters is not None:
            self._check_wiring(tracer, out)
        out.layers = {"learn": learned, "check": _minus(checked, learned),
                      "search_calls": dict(tracer.search_calls),
                      "search_total": dict(tracer.search_total),
                      "iter_ms": [(b - a) * 1e3 for a, b in tracer.iterations],
                      "counts": tracer.counts[:learned["counts"]]}
        out.probes = probes + probe_times(self.w.probe)
        return out

    def _check_wiring(self, tracer, out):
        """Wrapped call counts must equal the program's own counters."""
        calls = tracer.search_calls
        for name, counter in (("search.delta", "Ind"),
                              ("scoring.local", "TEst"),
                              ("scoring.count", "EstEv")):
            if calls.get(name, 0) != out.counters[counter]:
                out.errors.append(f"traced {name} calls {calls.get(name, 0)}"
                                  f" != {counter} {out.counters[counter]}")
        expected = out.counters["Iter"] + (self.w.strategy == "greedy")
        if len(tracer.iterations) != expected:
            out.errors.append(f"{len(tracer.iterations)} iteration spans, "
                              f"expected {expected}")

    def check_rescores(self):
        """The CLI's report BDeu must equal a library rescore of the
        written network; done after the learns, with one load of the data
        and one rescore per distinct network."""
        if not self.rescores:
            return
        dataset = data_mod.load_csv(self.job["csv"])
        scorer = Scorer(dataset, "bdeu", ESS)
        score = (scorer.score_rpdag if self.w.space == "rpdag"
                 else scorer.score_dag)
        done = {}
        for out, graph, bdeu in self.rescores:
            key = (tuple(sorted(graph.arcs())), tuple(sorted(graph.links())))
            if key not in done:
                done[key] = score(graph)
            if not _close(bdeu, done[key]):
                out.errors.append(f"report BDeu {bdeu!r} != rescore "
                                  f"{done[key]!r}")

    def untraced(self):
        probes = probe_times(self.w.probe)
        seconds, result = self.learn()
        probes += probe_times(self.w.probe)
        out = self.check(seconds, result, traced=False)
        out.probes = probes
        return out


def _minus(after, before):
    out = {}
    for key in ("calls", "total", "self"):
        out[key] = {k: v - before[key].get(k, 0)
                    for k, v in after[key].items()}
    for key in ("emitted", "iterations", "counts"):
        out[key] = after[key] - before[key]
    return out


def run(job):
    learner = Learner(job)
    seconds, trace = job["seconds"], job["trace"]
    outcomes = []
    cycle = []                # wall time of each step, learn plus checks
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        try:
            outcomes.append(learner.untraced())
            if trace:
                outcomes.append(learner.traced())
        except Exception as exc:  # a crash counts as a failed learn
            traceback.print_exc()
            outcomes.append(Outcome(0.0, False, [f"{type(exc).__name__}: "
                                                  f"{exc}"]))
            break
        cycle.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        enough = trace or len(cycle) >= MIN_LEARNS
        if enough and elapsed + statistics.median(cycle) > seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    learner.check_rescores()
    first = next((o for o in outcomes if o.signature is not None), None)
    for o in outcomes:
        if o.signature is not None and o.signature != first.signature:
            o.errors.append("result differs from the first learn of the run")
    return {
        "load_s": learner.load_s,
        "peak_rss_mb": peak_rss_mb,
        "outcomes": [dataclasses.asdict(dataclasses.replace(o, signature=None))
                     for o in outcomes],
    }


def main(argv):
    with open(argv[1], encoding="utf-8") as fh:
        job = json.load(fh)
    result = run(job)
    with open(job["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
