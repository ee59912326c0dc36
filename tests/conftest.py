"""Shared generators and independent oracles for the test suite."""

import math

import numpy as np
import pytest

from rpdaglearn.data import BayesNet, Dataset
from rpdaglearn.graph import GraphError, PartialDag
from rpdaglearn.search import _directed_reachable


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


def oracle_is_applicable(g, op):
    """Check the applicability conditions of an operator on a restricted
    PDAG, including the pre-insertion cycle tests."""
    x, y, z = op.x, op.y, op.z
    if op.kind == "A_arc":
        if g.is_adjacent(x, y):
            return False
        px, py = len(g.pa(x)), len(g.pa(y))
        if px == 0 and py == 0:
            return False
        if px != 0 and (g.ch(y) or g.ne(y)):
            return not g.partially_directed_reachable(y, x)
        return True
    if op.kind == "A_link":
        if g.is_adjacent(x, y):
            return False
        if g.pa(x) or g.pa(y):
            return False
        if g.ne(x) and g.ne(y):
            return not g.undirected_reachable(x, y)
        return True
    if op.kind == "D_arc":
        return x in g.pa(y)
    if op.kind == "D_link":
        return x in g.ne(y)
    if op.kind == "A_hh":
        if g.is_adjacent(x, y) or z not in g.ne(y):
            return False
        if g.pa(y):
            return False
        outgoing = g.ch(y) or len(g.ne(y)) >= 2
        if outgoing and (g.pa(x) or g.ne(x)):
            return not g.partially_directed_reachable(y, x, skip_link=(y, z))
        return True
    raise GraphError(f"unknown operator kind {op.kind!r}")


def oracle_dag_is_applicable(g, op):
    """Check that an arc addition or reversal on a DAG closes no directed
    cycle, or that an arc to delete is there."""
    x, y = op.x, op.y
    if op.kind == "A_arc":
        return not g.is_adjacent(x, y) and not _directed_reachable(g, y, x)
    if op.kind == "D_arc":
        return x in g.pa(y)
    if op.kind == "R_arc":
        if x not in g.pa(y):
            return False
        return not _directed_reachable(g, x, y, skip_arc=(x, y))
    raise GraphError(f"unknown DAG operator kind {op.kind!r}")


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


def exact_optimum(scorer):
    """The best score of any DAG on the scorer's data, and one DAG that
    has it, from every family's local score (2^(n-1) per node).

    The best-parent-set recursion of Koivisto & Sood (JMLR 2004) finds
    each node's best parents within every candidate set, and the
    best-order recursion of Silander & Myllymaki (UAI 2006) the best
    network on every node set from its best sink.  Sets are bitmasks over
    the nodes, so every subset of a set is met before the set itself.
    """
    n = scorer.dataset.n
    sets = range(1 << n)

    def members(mask):
        return [v for v in range(n) if mask >> v & 1]

    scorer.precompute((y, members(c)) for y in range(n) for c in sets
                      if not c >> y & 1)
    # best[y][c]: (score, parent mask) of y's best parents within c.
    best = [[None] * len(sets) for _ in range(n)]
    for y in range(n):
        for c in sets:
            if not c >> y & 1:
                best[y][c] = max(
                    [(scorer.local(y, members(c)), c)]
                    + [best[y][c & ~(1 << v)] for v in members(c)],
                    key=lambda pair: pair[0])
    # total[w]: best score of a network on the nodes w; sink[w]: its sink.
    total, sink = [0.0] * len(sets), [None] * len(sets)
    for w in sets[1:]:
        total[w], sink[w] = max(
            ((total[w & ~(1 << y)] + best[y][w & ~(1 << y)][0], y)
             for y in members(w)), key=lambda pair: pair[0])
    dag, w = PartialDag(n), sets[-1]
    while w:
        y = sink[w]
        w &= ~(1 << y)
        for x in members(best[y][w][1]):
            dag.add_arc(x, y)
    return total[-1], dag


@pytest.fixture
def rng():
    return np.random.default_rng(20230815)
