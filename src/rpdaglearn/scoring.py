"""Decomposable, score-equivalent scoring: BDeu and BIC with a local cache.

Local scores are functions of a child node and its parent set only, so a
structure score is the sum of per-family terms and single-edge changes can
be evaluated from at most two local scores.  The cache maps (child,
sorted-parent-tuple) keys to values and tracks how many distinct
statistics were evaluated versus requested.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import gammaln

from .data import family_counts
from .graph import GraphError

SCORE_IDS = ("bdeu", "bic")
PRIOR_IDS = ("uniform", "param-penalty")
PARAM_PENALTY_LOG = math.log(0.001)


@dataclass
class ContingencyTable:
    """Joint counts of a child against its parent configurations.

    ``counts[j, k]`` is the number of rows with parent configuration j
    (mixed radix, lowest-index parent most significant) and child state k.
    """

    counts: np.ndarray
    r_child: int
    q: int

    @property
    def marginals(self):
        return self.counts.sum(axis=1)

    @property
    def total(self):
        return int(self.counts.sum())


def count_statistics(dataset, y, parents):
    """Exact joint counts of variable y against a parent set."""
    parents = sorted(parents)
    if y in parents:
        raise GraphError("child cannot be its own parent")
    for v in (y, *parents):
        if not 0 <= v < dataset.n:
            raise GraphError(f"node index {v} out of range")
    counts = family_counts(dataset, y, parents)
    return ContingencyTable(counts, dataset.cardinalities[y], counts.shape[0])


def bdeu_local(table, ess, prior="uniform"):
    """BDeu family score: log marginal likelihood under a Dirichlet prior
    with total equivalent sample size ``ess`` split uniformly, plus the
    log structure-prior contribution of this family."""
    if ess <= 0:
        raise ValueError("ess must be positive")
    if prior not in PRIOR_IDS:
        raise ValueError(f"unknown prior {prior!r}")
    r, q = table.r_child, table.q
    a_jk = ess / (r * q)
    a_j = ess / q
    nj = table.marginals
    value = float(np.sum(gammaln(a_j) - gammaln(a_j + nj))
                  + np.sum(gammaln(a_jk + table.counts) - gammaln(a_jk)))
    if prior == "param-penalty":
        value += (r - 1) * q * PARAM_PENALTY_LOG
    return value


def bic_local(table, m):
    """BIC family score: maximized log likelihood minus (ln m / 2) times
    the family's free parameter count.  Empty data scores 0."""
    if m == 0:
        return 0.0
    counts = table.counts
    nj = np.broadcast_to(table.marginals[:, None], counts.shape)
    nonzero = counts > 0
    loglik = float(np.sum(counts[nonzero]
                          * np.log(counts[nonzero] / nj[nonzero])))
    penalty = 0.5 * math.log(m) * (table.r_child - 1) * table.q
    return loglik - penalty


@dataclass
class LocalScoreCache:
    """Store of computed local scores with instrumentation counters."""

    store: dict = field(default_factory=dict)
    evaluated: int = 0        # cache misses (EstEv)
    requested: int = 0        # total lookups (TEst)
    variable_count_sum: int = 0

    @property
    def nvars(self):
        """Mean number of variables per evaluated statistic."""
        if self.evaluated == 0:
            return 0.0
        return self.variable_count_sum / self.evaluated


class Scorer:
    """Scoring front end: a dataset, a score function, and a cache.

    ``local(y, parents)`` returns the family score through the cache;
    ``score_dag`` and ``score_rpdag`` sum families over a structure.
    """

    def __init__(self, dataset, score="bdeu", ess=1.0, prior="uniform",
                 cache=None):
        if score not in SCORE_IDS:
            raise ValueError(f"unknown score {score!r}")
        if prior not in PRIOR_IDS:
            raise ValueError(f"unknown prior {prior!r}")
        if ess <= 0:
            raise ValueError("ess must be positive")
        self.dataset = dataset
        self.score = score
        self.ess = ess
        self.prior = prior
        self.cache = cache if cache is not None else LocalScoreCache()

    def _compute(self, y, parents):
        table = count_statistics(self.dataset, y, parents)
        if self.score == "bdeu":
            return bdeu_local(table, self.ess, self.prior)
        return bic_local(table, self.dataset.m)

    def local(self, y, parents):
        key = (y, tuple(sorted(parents)))
        self.cache.requested += 1
        value = self.cache.store.get(key)
        if value is None:
            value = self._compute(y, key[1])
            self.cache.store[key] = value
            self.cache.evaluated += 1
            self.cache.variable_count_sum += len(key[1]) + 1
        return value

    def score_dag(self, h):
        if not h.is_dag():
            raise GraphError("score_dag requires a DAG")
        return sum(self.local(y, h.pa(y)) for y in range(h.node_count))

    def score_rpdag(self, g):
        if not g.is_rpdag():
            raise GraphError("score_rpdag requires a restricted PDAG")
        return self.score_dag(g.extend())


def mutual_information(dataset, y, parents):
    """Empirical mutual information (nats) between y and its parent set."""
    table = count_statistics(dataset, y, parents)
    m = table.total
    if m == 0:
        return 0.0
    nj = table.marginals.astype(float)
    nk = table.counts.sum(axis=0).astype(float)
    mi = 0.0
    for j in range(table.q):
        if nj[j] == 0:
            continue
        for k in range(table.r_child):
            njk = table.counts[j, k]
            if njk == 0 or nk[k] == 0:
                continue
            mi += (njk / m) * math.log(njk * m / (nj[j] * nk[k]))
    return mi


def kl_fit_term(h, dataset):
    """Fit term of the Kullback-Leibler transformation: the sum of the
    empirical mutual information between each parented node and its
    parents.  Higher means better fit; the empty graph scores 0."""
    if not h.is_dag():
        h = h.extend()
    return sum(mutual_information(dataset, y, h.pa(y))
               for y in range(h.node_count) if h.pa(y))
