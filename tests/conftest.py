"""Shared generators and independent oracles for the test suite."""

import math

import numpy as np
import pytest

from rpdaglearn.data import BayesNet, Dataset
from rpdaglearn.graph import GraphError, PartialDag


def random_dag(n, rng, p=0.4):
    """Random DAG: arcs follow a random permutation order."""
    order = rng.permutation(n)
    g = PartialDag(n)
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                g.add_arc(int(order[i]), int(order[j]))
    return g


def random_rpdag(n, rng, p=0.4):
    return random_dag(n, rng, p).reduce_to_rpdag()


def random_network(n, seed, p=0.3):
    """Random DAG (as random_dag) with 2-3 states per variable and
    Dirichlet(1) tables, all drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    g = random_dag(n, rng, p)
    cards = [int(rng.integers(2, 4)) for _ in range(n)]
    cpts = []
    for y in range(n):
        q = int(np.prod([cards[x] for x in sorted(g.pa(y))]))
        cpts.append(rng.dirichlet(np.ones(cards[y]), size=q))
    return BayesNet([f"v{i}" for i in range(n)], cards, g, cpts)


def random_dataset(n, m, rng, max_card=3):
    cards = [int(rng.integers(2, max_card + 1)) for _ in range(n)]
    rows = np.column_stack([rng.integers(0, r, size=m) for r in cards]) \
        if m > 0 else np.zeros((0, n), dtype=np.int64)
    return Dataset([f"v{i}" for i in range(n)], cards, rows)


def extension_by_definition(g, h):
    """Definition-level extension check: same skeleton, all arcs of g kept
    in h, same head-to-head patterns."""
    if g.skeleton() != h.skeleton():
        return False
    if not all(x in h.pa(y) for x, y in g.arcs()):
        return False
    return g.hh_patterns() == h.hh_patterns()


def is_extension(g, h):
    """True iff the DAG h extends the restricted PDAG g.

    Checks the three-way characterization: same skeleton; any parented
    node in g keeps exactly its parents in h; any unparented node of g
    gains at most one parent in h.
    """
    if not g.is_rpdag():
        raise GraphError("first argument must be a restricted PDAG")
    if not h.is_dag():
        raise GraphError("second argument must be a DAG")
    if g.node_count != h.node_count:
        raise GraphError("node count mismatch")
    if g.skeleton() != h.skeleton():
        return False
    for y in range(g.node_count):
        if g.pa(y):
            if h.pa(y) != g.pa(y):
                return False
        elif h.pa(y) and len(h.pa(y)) != 1:
            return False
    return True


def bdeu_sequential_oracle(dataset, y, parents, ess):
    """Log product of Dirichlet predictive probabilities, row by row.

    Independent of the closed-form Gamma expression; only usable for
    small m.
    """
    parents = sorted(parents)
    r = dataset.cardinalities[y]
    radices = [dataset.cardinalities[p] for p in parents]
    q = 1
    for rad in radices:
        q *= rad
    a_jk = ess / (r * q)
    a_j = ess / q
    njk = {}
    nj = {}
    logp = 0.0
    for row in dataset.rows:
        j = 0
        for p, rad in zip(parents, radices):
            j = j * rad + int(row[p])
        k = int(row[y])
        logp += math.log((njk.get((j, k), 0) + a_jk) / (nj.get(j, 0) + a_j))
        njk[(j, k)] = njk.get((j, k), 0) + 1
        nj[j] = nj.get(j, 0) + 1
    return logp


@pytest.fixture
def rng():
    return np.random.default_rng(20230815)
