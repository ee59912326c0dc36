"""Acceptance gate: one test per shipping criterion.

Each test prints a single PASS/FAIL line (run with -s or read captured
output) and asserts the criterion at its stated tolerance.
"""

import time
from importlib.resources import files

import numpy as np

from conftest import (bdeu_sequential_oracle, extension_by_definition,
                      is_extension, random_dataset, random_rpdag)
from rpdaglearn.census import census, enumerate_dags, group_by_rpdag_key
from rpdaglearn.data import load_network, sample
from rpdaglearn.evaluation import hamming
from rpdaglearn.scoring import Scorer, bdeu_local, count_statistics
from rpdaglearn.search import (MoveOperator, apply_operator,
                               dag_apply_operator, dag_is_applicable,
                               delta_score,
                               dag_greedy_search, enumerate_neighborhood,
                               greedy_search, tabu_search)

NETS = files("rpdaglearn") / "nets"


def _verdict(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    line = f"[criterion {num}] {name}: {status}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def bundled(name):
    return load_network(str(NETS / name))


class TestCriterion1Census:
    def test_exact_counts(self):
        t0 = time.perf_counter()
        expected = {3: (25, 11), 4: (543, 185), 5: (29281, 8782)}
        results = {n: census(n) for n in expected}
        got = {n: (r.dag_count, r.class_count) for n, r in results.items()}
        elapsed = time.perf_counter() - t0
        ok = got == expected and elapsed < 120.0
        _verdict(1, "census exactness",
                 ok, f"{got}, {elapsed:.1f}s")


class TestCriterion2Partition:
    def test_exhaustive_small_graphs(self):
        ok = True
        for n in (2, 3, 4):
            groups = group_by_rpdag_key(n)
            reps = {}
            for key, dags in groups.items():
                rep = dags[0].reduce_to_rpdag()
                reps[key] = rep
                # reduction is valid and shared by the whole group
                ok &= rep.is_rpdag()
                ok &= all(h.reduce_to_rpdag() == rep for h in dags)
                # extension count equals the chain-component product
                ok &= rep.count_extensions() == len(dags)
                # each group member extends its representative
                ok &= all(is_extension(rep, h)
                          and extension_by_definition(rep, h) for h in dags)
            # disjointness: every DAG extends exactly one representative
            for h in enumerate_dags(n):
                owners = [k for k, rep in reps.items()
                          if is_extension(rep, h)]
                ok &= len(owners) == 1
        _verdict(2, "equivalence partition properties", ok)


class TestCriterion3DeltaScores:
    def test_randomized_triples(self):
        rng = np.random.default_rng(404)
        checked = 0
        worst = 0.0
        ok = True
        while checked < 1000:
            n = int(rng.integers(3, 7))
            g = random_rpdag(n, rng)
            ops = enumerate_neighborhood(g)
            if not ops:
                continue
            op = ops[int(rng.integers(len(ops)))]
            ds = random_dataset(n, int(rng.integers(5, 201)), rng)
            for score in ("bdeu", "bic"):
                scorer = Scorer(ds, score, ess=2.0)
                d = delta_score(g, op, scorer)
                full = (scorer.score_rpdag(apply_operator(g, op))
                        - scorer.score_rpdag(g))
                err = abs(d - full)
                worst = max(worst, err)
                ok &= err < 1e-9
            checked += 1
        # arc reversal in the DAG space: two local-score pairs
        reversals = 0
        while reversals < 200:
            n = int(rng.integers(3, 7))
            h = random_rpdag(n, rng).extend()
            arcs = list(h.arcs())
            if not arcs:
                continue
            x, y = arcs[int(rng.integers(len(arcs)))]
            op = MoveOperator("R_arc", x, y)
            if not dag_is_applicable(h, op):
                continue
            ds = random_dataset(n, int(rng.integers(5, 201)), rng)
            scorer = Scorer(ds)
            d = delta_score(h, op, scorer)
            full = (scorer.score_dag(dag_apply_operator(h, op))
                    - scorer.score_dag(h))
            err = abs(d - full)
            worst = max(worst, err)
            ok &= err < 1e-9
            reversals += 1
        _verdict(3, "two-local-score deltas",
                 ok, f"{checked} moves + {reversals} reversals, "
                     f"max err {worst:.2e}")


class TestCriterion4ScoreEquivalence:
    def test_equal_totals_and_oracle(self):
        rng = np.random.default_rng(505)
        ok = True
        # every extension of every 3-node restricted PDAG scores the same
        ds = random_dataset(3, 60, rng)
        for ess in (1.0, 4.0):
            scorer = Scorer(ds, "bdeu", ess=ess)
            for dags in group_by_rpdag_key(3).values():
                totals = [scorer.score_dag(h) for h in dags]
                ok &= max(totals) - min(totals) < 1e-9
        # closed form vs sequential predictive oracle on tiny samples
        worst = 0.0
        for _ in range(200):
            n = int(rng.integers(2, 5))
            small = random_dataset(n, int(rng.integers(1, 7)), rng)
            y = int(rng.integers(n))
            pool = [v for v in range(n) if v != y]
            k = int(rng.integers(0, len(pool) + 1))
            parents = list(rng.choice(pool, size=k, replace=False))
            ess = float(rng.choice([0.5, 1.0, 3.0]))
            got = bdeu_local(count_statistics(small, y, parents), ess)
            want = bdeu_sequential_oracle(small, y, parents, ess)
            worst = max(worst, abs(got - want))
            ok &= abs(got - want) < 1e-9
        _verdict(4, "score equivalence + predictive oracle",
                 ok, f"max err {worst:.2e}")


class TestCriterion5LocalOptimumEscape:
    def test_collider_recovery(self):
        net = bundled("collider3.json")
        gold = net.structure.reduce_to_rpdag()
        successes = 0
        for seed in range(5):
            ds = sample(net, 20000, seed=seed)
            learned, rep = greedy_search(ds, Scorer(ds))
            _, dag_rep = dag_greedy_search(ds, Scorer(ds))
            if learned == gold and \
                    rep.best_score >= dag_rep.best_score - 1e-9:
                successes += 1
        _verdict(5, "head-to-head local-optimum escape",
                 successes >= 4, f"{successes}/5 seeds")


class TestCriterion6DeskScaleRecovery:
    def test_eight_node_network(self):
        net = bundled("gold8.json")
        gold = net.structure
        close = 0
        never_worse = True
        hs = []
        for seed in range(5):
            ds = sample(net, 10000, seed=seed)
            learned, rep = greedy_search(ds, Scorer(ds))
            _, dag_rep = dag_greedy_search(ds, Scorer(ds))
            h = hamming(learned, gold).total
            hs.append(h)
            if h <= 2:
                close += 1
            never_worse &= rep.best_score >= dag_rep.best_score - 1e-9
        _verdict(6, "8-node recovery and score dominance",
                 close >= 4 and never_worse, f"H per seed {hs}")


class TestCriterion7TabuContract:
    def test_defaults_and_dominance(self):
        net = bundled("gold8.json")
        ok = True
        details = []
        for seed in (0, 1):
            ds = sample(net, 2000, seed=seed)
            _, greedy_rep = greedy_search(ds, Scorer(ds))
            _, tabu_rep = tabu_search(ds, Scorer(ds))
            n = ds.n
            ok &= tabu_rep.iterations_applied == n * (n - 1)
            ok &= tabu_rep.best_score >= greedy_rep.best_score - 1e-9
            details.append(f"seed {seed}: {tabu_rep.iterations_applied} it, "
                           f"{tabu_rep.best_score - greedy_rep.best_score:+.3f}")
        _verdict(7, "tabu iteration count and dominance",
                 ok, "; ".join(details))


class TestCriterion8CounterSemantics:
    def test_counters_exact_and_reproducible(self):
        net = bundled("gold8.json")
        ds = sample(net, 2000, seed=0)

        def run():
            scorer = Scorer(ds)
            _, rep = greedy_search(ds, scorer)
            return scorer.cache, rep

        cache, rep = run()
        ok = rep.evaluated == len(cache.store)
        ok &= rep.requested >= rep.evaluated
        mean_family = float(np.mean([len(parents) + 1
                                     for _, parents in cache.store]))
        ok &= abs(rep.nvars - mean_family) < 1e-12
        cache2, rep2 = run()
        ok &= (rep2.evaluated, rep2.requested, rep2.nvars) == \
            (rep.evaluated, rep.requested, rep.nvars)
        _verdict(8, "cache counter semantics",
                 ok, f"EstEv {rep.evaluated}, TEst {rep.requested}, "
                     f"NVars {rep.nvars:.3f}")
