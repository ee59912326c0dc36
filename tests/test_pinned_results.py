"""Pinned search results: the learned graph, the move trace with its
deltas and the best score of all four space x strategy pairs, under BDeu
and under BIC, must not change when the search is made faster.

The BDeu entries of ``pinned_results.json`` were recorded before the
operator deltas were cached across iterations, and the BIC entries
("gold8-bic", "random12-bic") before BIC was scored in batches.
Regenerate them, only for an intended change of results, with

    PYTHONPATH=src python tests/test_pinned_results.py
"""

import json
import re
from importlib.resources import files
from pathlib import Path

import pytest

from conftest import random_network
from rpdaglearn.data import load_network, sample
from rpdaglearn.scoring import Scorer
from rpdaglearn.search import (dag_greedy_search, dag_tabu_search,
                               greedy_search, tabu_search)

EXPECTED = Path(__file__).with_name("pinned_results.json")
SEARCHES = {"rpdag-greedy": greedy_search, "rpdag-tabu": tabu_search,
            "dag-greedy": dag_greedy_search, "dag-tabu": dag_tabu_search}
# Entry name -> (dataset, score); BDeu entries are named by dataset alone.
CASES = {"gold8": ("gold8", "bdeu"), "random12": ("random12", "bdeu"),
         "gold8-bic": ("gold8", "bic"), "random12-bic": ("random12", "bic")}


def datasets():
    gold8 = load_network(str(files("rpdaglearn") / "nets" / "gold8.json"))
    return {"gold8": sample(gold8, 2000, seed=5),
            "random12": sample(random_network(12, seed=12), 3000, seed=12)}


def result(dataset, search, score):
    graph, report = SEARCHES[search](dataset, Scorer(dataset, score))
    return {"arcs": sorted(graph.arcs()), "links": sorted(graph.links()),
            "moves": [[op.kind, op.x, op.y, op.z, d]
                      for op, d in report.trace],
            "best_score": report.best_score,
            "Iter": report.iterations_applied,
            "BIter": report.best_iteration, "EstEv": report.evaluated}


def record():
    data = datasets()
    return {case: {search: result(data[name], search, score)
                   for search in SEARCHES}
            for case, (name, score) in CASES.items()}


@pytest.fixture(scope="module")
def data():
    return datasets()


@pytest.mark.parametrize("search", sorted(SEARCHES))
@pytest.mark.parametrize("case", list(CASES))
def test_result_pinned(data, case, search):
    expected = json.loads(EXPECTED.read_text())[case][search]
    name, score = CASES[case]
    # JSON turns tuples into lists; compare through one round trip.
    got = json.loads(json.dumps(result(data[name], search, score)))
    assert got["moves"] == expected["moves"]
    assert got == expected


if __name__ == "__main__":
    # One move or edge per line keeps the file short and its diffs local.
    text = re.sub(r"\[\s+([^][]*?)\s+\]",
                  lambda m: "[" + " ".join(m.group(1).split()) + "]",
                  json.dumps(record(), indent=1))
    EXPECTED.write_text(text + "\n")
