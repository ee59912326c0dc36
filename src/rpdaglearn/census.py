"""Exhaustive enumeration of small DAGs and their equivalence structure.

Used as an independent oracle: every DAG on n nodes is generated by
assigning one of {absent, ->, <-} to each unordered node pair and keeping
the acyclic results.  DAGs are then grouped by the skeleton+v-structure
key (Markov equivalence classes) and by the skeleton+head-to-head key
(restricted-PDAG preimages).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .graph import GraphError, PartialDag


MAX_CENSUS_NODES = 5


@dataclass
class CensusResult:
    node_count: int
    dag_count: int
    class_count: int
    rpdag_key_count: int


def enumerate_dags(n):
    """Yield every DAG on n nodes, as a PartialDag without links."""
    pairs = list(itertools.combinations(range(n), 2))
    for assignment in itertools.product((0, 1, 2), repeat=len(pairs)):
        g = PartialDag(n)
        for (x, y), a in zip(pairs, assignment):
            if a == 1:
                g.add_arc(x, y)
            elif a == 2:
                g.add_arc(y, x)
        if not g.has_directed_cycle():
            yield g


def rpdag_key(g):
    """The key a restricted PDAG shares with every DAG extending it."""
    return g.skeleton(), g.hh_patterns()


def census(n):
    """Count DAGs, Markov equivalence classes, and restricted-PDAG keys."""
    if n > MAX_CENSUS_NODES:
        raise GraphError(f"census limited to n <= {MAX_CENSUS_NODES}")
    dags = 0
    classes = set()
    rpdag_keys = set()
    for g in enumerate_dags(n):
        dags += 1
        key = rpdag_key(g)
        classes.add((key[0], g.v_structures()))   # skeleton first
        rpdag_keys.add(key)
    return CensusResult(n, dags, len(classes), len(rpdag_keys))


def group_by_rpdag_key(n):
    """Map :func:`rpdag_key` -> list of DAGs sharing that key."""
    groups = {}
    for g in enumerate_dags(n):
        groups.setdefault(rpdag_key(g), []).append(g)
    return groups
