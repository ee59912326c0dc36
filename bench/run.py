"""Seeded learn-time benchmark for rpdaglearn.

Usage (from the root of a checkout):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

The run generates its inputs from the seed, sets them up several times
(network, data sample, CSV and gold network file) to time the set-up,
then hands them to ``learner.py`` in a process of its own, which learns
until S seconds are used and checks every result.  With ``--trace 0`` the
last line of output is a JSON object with the end-to-end metrics; with
``--trace 1`` untraced and traced learns alternate and it holds the
per-layer metrics.  Lines before it give every metric with its unit, the
result digest, and the checks.  See README.md for the metric table.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

import srcpath

srcpath.use_checkout_source()

from rpdaglearn import sample, save_csv, save_network  # noqa: E402

from probe import probe_times, scaled  # noqa: E402
from workloads import WORKLOADS, generate_network  # noqa: E402

BENCH = Path(__file__).resolve().parent
WORK = BENCH / "_work"
SETUP_MIN_REPEATS = 5
SETUP_MIN_S = 2.0     # cheap set-ups repeat until this much time is spent
SETUP_PROBE = "python"  # writing the CSV row by row dominates every set-up
# The learner stops after --seconds plus at most one learn cycle; it may
# also load data and rescore.  Past this margin it is taken to hang.
LEARNER_MARGIN_S = 120

END_TO_END = {"learn_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
              "bdeu_loss": "nats"}
PER_LAYER = {
    "data.load_csv_s": "s", "data.sample_s": "s", "data.save_csv_s": "s",
    "scoring.count_calls": "count", "scoring.count_s": "s",
    "scoring.count_bytes": "bytes", "scoring.count_max_table_cells": "count",
    "scoring.family_s": "s", "scoring.lookups": "count",
    "scoring.hit_ratio": "ratio", "scoring.local_self_s": "s",
    "scoring.cache_entries": "count", "scoring.rescore_s": "s",
    "scoring.kl_s": "s",
    "search.neighborhood_s": "s", "search.applicable_calls": "count",
    "search.applicable_s": "s", "search.applicable_yield": "ratio",
    "search.delta_s": "s", "search.apply_s": "s",
    "search.driver_self_s": "s", "search.iterations": "count",
    "search.evaluations": "count", "search.iter_ms_p50": "ms",
    "search.iter_ms_tail": "ms",
    "graph.reach_calls": "count", "graph.reach_s": "s",
    "evaluation.hamming_s": "s",
    "trace.overhead_ratio": "ratio",
}
# Printed and written to the trace file but left out of the result line:
# each reads exactly 0 on some workload of BENCHMARK.json (no CLI in the
# library workloads, no cascades or copies in DAG space), or is constant
# on the others (one copy per greedy learn).
PER_LAYER_EXTRA = {"graph.cascade_calls": "count", "graph.cascade_s": "s",
                   "graph.copy_calls": "count", "graph.copy_s": "s",
                   "cli.search_s": "s", "cli.report_s": "s"}
LAYER_UNITS = {**PER_LAYER, **PER_LAYER_EXTRA}


def tail_percentile(samples):
    """Highest percentile with at least ten samples beyond it, and its
    value; None when there are fewer than eleven samples."""
    n = len(samples)
    if n < 11:
        return None
    p = math.floor(100 * (n - 10) / n)
    ordered = sorted(samples)
    return p, ordered[math.ceil(p * n / 100) - 1]


def file_digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def set_up(w, seed, workdir):
    """Generate, sample and write the inputs at least SETUP_MIN_REPEATS
    times and for at least SETUP_MIN_S seconds; return the median times
    (``setup_s`` at reference speed, see probe.py) and whether every repeat
    wrote the same bytes."""
    csv_path, gold_path = workdir / "data.csv", workdir / "gold.json"
    total, probes, sampled, saved, digests = [], [], [], [], set()
    start = time.perf_counter()
    while (len(total) < SETUP_MIN_REPEATS
           or time.perf_counter() - start < SETUP_MIN_S):
        probes.append(probe_times(SETUP_PROBE))
        t0 = time.perf_counter()
        net = generate_network(w)
        t1 = time.perf_counter()
        dataset = sample(net, w.m, seed)
        t2 = time.perf_counter()
        save_csv(dataset, csv_path)
        t3 = time.perf_counter()
        save_network(net, gold_path)
        t4 = time.perf_counter()
        total.append(t4 - t0)
        sampled.append(t2 - t1)
        saved.append(t3 - t2)
        digests.add((file_digest(csv_path), file_digest(gold_path)))
    return {"setup_s": statistics.median(
                scaled(t, SETUP_PROBE, p) for t, p in zip(total, probes)),
            "setup_wall_s": statistics.median(total),
            "data.sample_s": statistics.median(sampled),
            "data.save_csv_s": statistics.median(saved),
            "repeats": len(total),
            "deterministic": len(digests) == 1,
            "gold_edges": net.structure.edge_count()}


def run_learner(job, workdir):
    job_path = workdir / "job.json"
    job_path.write_text(json.dumps(job))
    limit = job["seconds"] + LEARNER_MARGIN_S
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "learner.py"), str(job_path)],
            capture_output=True, text=True, timeout=limit)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"error: learner still running after {limit:g} s "
                         f"(--seconds plus {LEARNER_MARGIN_S} s); stopped")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"error: learner exited {proc.returncode}")
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    return json.loads(Path(job["result"]).read_text())


def layer_metrics(w, outcome, load_s):
    """Per-layer metrics of one traced learn, and the shares of its time
    that confirm what the workload was chosen for."""
    layers = outcome["layers"]
    learn = layers["learn"]
    calls, total, self_time = learn["calls"], learn["total"], learn["self"]
    # The library workloads rescore, compute KL and the Hamming distance in
    # the benchmark's own check, after the learn; the CLI does it inside.
    evaluation = layers["check"] if w.entry == "library" else learn
    counters = outcome["counters"]
    counts = layers["counts"]
    applicable = calls.get("search.applicable", 0)
    cli_learn = total.get("cli.learn", 0.0)
    load = total.get("data.load_csv", 0.0) if w.entry == "cli" else load_s
    search_s = total.get("search.run", 0.0)
    rescore_s = evaluation["total"].get("scoring.rescore", 0.0)
    if w.entry == "cli":   # leave out the initial score inside the search
        rescore_s -= layers["search_total"].get("scoring.rescore", 0.0)
    metrics = {
        "data.load_csv_s": load,
        "scoring.count_calls": calls.get("scoring.count", 0),
        "scoring.count_s": total.get("scoring.count", 0.0),
        "scoring.count_bytes": sum(c["bytes"] for c in counts),
        "scoring.count_max_table_cells": max((c["cells"] for c in counts),
                                             default=0),
        "scoring.family_s": total.get("scoring.family", 0.0),
        "scoring.lookups": counters["TEst"],
        "scoring.hit_ratio": 1.0 - counters["EstEv"] / counters["TEst"],
        "scoring.local_self_s": self_time.get("scoring.local", 0.0),
        "scoring.cache_entries": counters["EstEv"],
        "scoring.rescore_s": rescore_s,
        "scoring.kl_s": evaluation["total"].get("scoring.kl", 0.0),
        "search.neighborhood_s": total.get("search.neighborhood", 0.0),
        "search.applicable_calls": applicable,
        "search.applicable_s": total.get("search.applicable", 0.0),
        "search.applicable_yield": learn["emitted"] / applicable
        if applicable else 0.0,
        "search.delta_s": total.get("search.delta", 0.0),
        "search.apply_s": total.get("search.apply", 0.0),
        "search.driver_self_s": self_time.get("search.run", 0.0),
        "search.iterations": counters["Iter"],
        "search.evaluations": counters["Ind"],
        "graph.reach_calls": calls.get("graph.reach", 0),
        "graph.reach_s": total.get("graph.reach", 0.0),
        "graph.cascade_calls": calls.get("graph.cascade", 0),
        "graph.cascade_s": total.get("graph.cascade", 0.0),
        "graph.copy_calls": calls.get("graph.copy", 0),
        "graph.copy_s": total.get("graph.copy", 0.0),
        "evaluation.hamming_s": evaluation["total"].get(
            "evaluation.hamming", 0.0),
        "cli.search_s": search_s if w.entry == "cli" else 0.0,
        "cli.report_s": cli_learn - load - search_s
        if w.entry == "cli" else 0.0,
    }
    seconds = outcome["seconds"]
    search_self = sum(v for k, v in self_time.items() if k.startswith("search."))
    shares = {"search": (search_self + total.get("graph.reach", 0.0)) / seconds,
              "count": total.get("scoring.count", 0.0) / seconds}
    return metrics, shares


def trace_metrics(w, setup, result, problems, lines):
    """Per-layer metrics of a traced run: counts from the first traced
    learn (they must repeat exactly), times as medians."""
    outcomes = result["outcomes"]
    traced = [o for o in outcomes if o["traced"] and o["layers"]]
    if not traced:
        raise SystemExit("error: no traced learn completed")
    per_learn = [layer_metrics(w, o, result["load_s"]) for o in traced]
    metrics = {}
    for k in per_learn[0][0]:
        values = [m[k] for m, _ in per_learn]
        if LAYER_UNITS[k] in ("count", "bytes"):
            metrics[k] = values[0]
            if any(v != values[0] for v in values):
                problems.append(f"{k} differs between traced learns")
        else:
            metrics[k] = statistics.median(values)
    metrics["data.sample_s"] = setup["data.sample_s"]
    metrics["data.save_csv_s"] = setup["data.save_csv_s"]
    iter_ms = [t for o in traced for t in o["layers"]["iter_ms"]]
    tail = tail_percentile(iter_ms) or (100, max(iter_ms))
    metrics["search.iter_ms_p50"] = statistics.median(iter_ms)
    metrics["search.iter_ms_tail"] = tail[1]
    lines.append(f"search.iter_ms_tail is p{tail[0]} of {len(iter_ms)} "
                 f"iteration spans")
    # Each traced learn follows an untraced one; comparing neighbours, at
    # the reference speed, keeps drift in machine speed out of the ratio.
    pairs = [(_scaled(w, a), _scaled(w, b)) for a, b in zip(outcomes, outcomes[1:])
             if not a["traced"] and b["traced"] and a["digest"] and b["digest"]]
    metrics["trace.overhead_ratio"] = statistics.median(
        b / a for a, b in pairs) - 1.0
    search = statistics.median(s["search"] for _, s in per_learn)
    count = statistics.median(s["count"] for _, s in per_learn)
    lines.append(f"chosen-for: search self + graph.reach share {search:.3f}, "
                 f"scoring.count share {count:.3f} of traced learn time")
    return metrics


def _scaled(w, outcome):
    return scaled(outcome["seconds"], w.probe, outcome["probes"])


def summarise(w, setup, result, trace):
    """Metrics, failure count, failed checks and report lines of a run."""
    outcomes = result["outcomes"]
    failed = sum(1 for o in outcomes if o["errors"])
    problems = list(dict.fromkeys(e for o in outcomes for e in o["errors"]))
    if not setup["deterministic"]:
        problems.append("set-up repeats wrote different inputs")
    done = [o for o in outcomes if o["digest"] is not None]
    if not done:
        raise SystemExit("error: no learn completed:\n" + "\n".join(problems))
    ref = done[0]
    untraced = [o for o in done if not o["traced"]]
    learn_s = [_scaled(w, o) for o in untraced]
    wall_s = [o["seconds"] for o in untraced]
    probes = [statistics.median(o["probes"]) for o in untraced]
    lines = [f"set-ups: {setup['repeats']}; wall median "
             f"{setup['setup_wall_s']:.4f} s",
             f"learns: {len(learn_s)} untraced, {len(done) - len(learn_s)} "
             f"traced, {failed} failed; fail_ratio "
             f"{failed / len(outcomes):.4f}",
             f"digest {ref['digest']}  counters {ref['counters']}",
             f"final_score {ref['bdeu']!r} (BDeu)  shd {ref['shd']} "
             f"(gold edges {setup['gold_edges']})"]
    tail = tail_percentile(learn_s)
    lines.append(f"learn_s samples {len(learn_s)}; tail: "
                 + (f"p{tail[0]} {tail[1]:.4f} s" if tail
                    else "none, needs at least 11 samples")
                 + f"; wall median {statistics.median(wall_s):.4f} s, probe "
                 f"median {1e3 * statistics.median(probes):.2f} ms")
    if trace:
        metrics = trace_metrics(w, setup, result, problems, lines)
    else:
        metrics = {"learn_s": statistics.median(learn_s),
                   "setup_s": setup["setup_s"],
                   "peak_rss_mb": result["peak_rss_mb"],
                   "bdeu_loss": -ref["bdeu"] / (w.m * w.n)}
    return metrics, failed, problems, lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return run(WORKLOADS[args.workload], args.seed, args.seconds,
               bool(args.trace))


def run(w, seed, seconds, trace, out=sys.stdout):
    """Run one workload and print its report; the last line is the
    result JSON.  Returns the process exit code."""
    workdir = WORK / w.name
    workdir.mkdir(parents=True, exist_ok=True)
    setup = set_up(w, seed, workdir)
    job = {"workload": vars(w), "seed": seed, "seconds": seconds,
           "trace": trace, "csv": str(workdir / "data.csv"),
           "gold": str(workdir / "gold.json"),
           "out": str(workdir / "learned.json"),
           "report": str(workdir / "report.json"),
           "result": str(workdir / "result.json")}
    result = run_learner(job, workdir)
    metrics, failed, problems, lines = summarise(w, setup, result, trace)
    units = LAYER_UNITS if trace else END_TO_END
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted((srcpath.SRC / "rpdaglearn").glob("*.py")))

    def say(text):
        print(text, file=out)

    say(f"workload {w.name}  seed {seed}  seconds {seconds:g}  "
        f"trace {int(trace)}")
    say(f"why: {w.why}")
    say(f"inputs: n={w.n} m={w.m} states {w.min_states}-{w.max_states} "
        f"net_seed {w.net_seed}; {w.entry} {w.space} {w.strategy}")
    for line in lines:
        say(line)
    for name, value in metrics.items():
        say(f"metric {name} {value:.6g} {units[name]}")
    say(f"info src_lines {src_lines} (not a metric)")
    for problem in problems:
        say(f"CHECK FAILED: {problem}")
    if trace:
        (workdir / "trace.json").write_text(json.dumps(
            {"metrics": metrics, "learns": result["outcomes"]}))
    keep = PER_LAYER if trace else END_TO_END
    say(json.dumps({
        "correct": not problems,
        "attempted": len(result["outcomes"]),
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": keep[k]}
                    for k in keep},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
