"""The exact optimum of each score as a reference for the searches.

``conftest.exact_optimum`` finds the best DAG by dynamic programming over
every family's local score.  At n <= 4 it must equal the best score of
every DAG the census enumerates, so the two references check each other.
At n = 8-10 no search may beat it, and the restricted PDAG of the optimal
DAG must rescore to it, which checks score equivalence on a graph that is
not tiny.
"""

import functools

import pytest

from conftest import exact_optimum, random_dataset, random_network
from rpdaglearn.census import enumerate_dags
from rpdaglearn.data import sample
from rpdaglearn.scoring import Scorer
from rpdaglearn.search import (dag_greedy_search, dag_tabu_search,
                               greedy_search, tabu_search)

SCORES = ["bdeu", "bic"]
# (n, network seed); each network is sampled at 1,000 rows, data seed 1.
NETWORKS = [(8, 8), (8, 80), (9, 9), (10, 10)]


@functools.lru_cache(maxsize=None)
def optimum(score, n, seed):
    scorer = Scorer(sample(random_network(n, seed), 1000, seed=1), score)
    return (scorer, *exact_optimum(scorer))


@pytest.mark.parametrize("score", SCORES)
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_equals_best_of_every_dag(rng, score, n):
    scorer = Scorer(random_dataset(n, 200, rng), score)
    value, dag = exact_optimum(scorer)
    assert dag.is_dag()
    assert scorer.score_dag(dag) == pytest.approx(value, rel=1e-12)
    best = max(scorer.score_dag(h) for h in enumerate_dags(n))
    assert best == pytest.approx(value, rel=1e-12)


@pytest.mark.parametrize("n, seed", NETWORKS)
@pytest.mark.parametrize("score", SCORES)
def test_no_search_beats_optimum(score, n, seed):
    scorer, value, _ = optimum(score, n, seed)
    for search in (greedy_search, tabu_search, dag_greedy_search,
                   dag_tabu_search):
        _, report = search(scorer.dataset, scorer)
        assert report.best_score <= value + 1e-9 * abs(value)


@pytest.mark.parametrize("n, seed", NETWORKS)
@pytest.mark.parametrize("score", SCORES)
def test_optimal_rpdag_rescores_to_optimum(score, n, seed):
    scorer, value, dag = optimum(score, n, seed)
    assert scorer.score_dag(dag) == pytest.approx(value, rel=1e-12)
    assert scorer.score_rpdag(dag.reduce_to_rpdag()) == pytest.approx(
        value, rel=1e-12)
