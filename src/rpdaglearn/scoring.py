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
    if len(set(parents)) != len(parents):
        raise GraphError("a parent is named twice")
    n = dataset.n
    for v in (y, *parents):
        if not 0 <= v < n:
            raise GraphError(f"node index {v} out of range")
    counts = family_counts(dataset, y, parents)
    return ContingencyTable(counts, dataset.cardinalities[y], counts.shape[0])


def _check_ess(ess):
    # A NaN ess would make every BDeu delta NaN, and greedy never stop.
    if not (math.isfinite(ess) and ess > 0):
        raise ValueError(f"ess must be finite and positive, got {ess}")


def bdeu_local(table, ess, prior="uniform"):
    """BDeu family score: log marginal likelihood under a Dirichlet prior
    with total equivalent sample size ``ess`` split uniformly, plus the
    log structure-prior contribution of this family.  A family with no
    child states or no parent configurations (only possible on empty
    data) has no rows and no parameters, and scores 0."""
    _check_ess(ess)
    if prior not in PRIOR_IDS:
        raise ValueError(f"unknown prior {prior!r}")
    r, q = table.r_child, table.q
    if r * q == 0:
        return 0.0
    a_jk = ess / (r * q)
    a_j = ess / q
    # gammaln overflows to inf without a warning; subtracting two infs
    # would warn and make the score NaN, so the two scalar terms are
    # checked first.
    lg_j, lg_jk = gammaln(a_j), gammaln(a_jk)
    value = math.nan
    if math.isfinite(lg_j) and math.isfinite(lg_jk):
        nj = table.marginals
        value = float((lg_j - gammaln(a_j + nj)).sum()
                      + (gammaln(a_jk + table.counts) - lg_jk).sum())
    if not math.isfinite(value):
        raise ValueError(f"ess {ess} gives a BDeu score that is not finite")
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
    requested: int = 0        # total lookups (TEst)

    @property
    def evaluated(self):
        """Cache misses (EstEv): each stores one key, and none is removed."""
        return len(self.store)

    @property
    def nvars(self):
        """Mean number of variables per evaluated statistic."""
        if not self.store:
            return 0.0
        return sum(len(pa) + 1 for _, pa in self.store) / len(self.store)


class Scorer:
    """Scoring front end: a dataset, a score function, and its own cache.

    ``local(y, parents)`` returns the family score through the cache;
    ``score_dag`` and ``score_rpdag`` sum families over a structure.
    """

    def __init__(self, dataset, score="bdeu", ess=1.0, prior="uniform"):
        if score not in SCORE_IDS:
            raise ValueError(f"unknown score {score!r}")
        if prior not in PRIOR_IDS:
            raise ValueError(f"unknown prior {prior!r}")
        _check_ess(ess)
        self.dataset = dataset
        self.score = score
        self.ess = ess
        self.prior = prior
        self.cache = LocalScoreCache()

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
        return value

    def score_dag(self, h):
        if not h.is_dag():
            raise GraphError("score_dag requires a DAG")
        return sum(self.local(y, h.pa(y)) for y in range(h.node_count))

    def score_rpdag(self, g):
        """Score of the canonical extension, which refuses a non-RPDAG."""
        return self.score_dag(g.extend())


def mutual_information(dataset, y, parents):
    """Empirical mutual information (nats) between y and its parent set."""
    table = count_statistics(dataset, y, parents)
    counts = table.counts
    m = table.total
    if m == 0:
        return 0.0
    j, k = np.nonzero(counts)
    njk = counts[j, k]
    nj, nk = table.marginals[j], counts.sum(axis=0)[k]
    return float(np.sum(njk / m * np.log(njk * m / (nj * nk))))


def kl_fit_term(h, dataset):
    """Fit term of the Kullback-Leibler transformation: the sum of the
    empirical mutual information between each parented node and its
    parents.  Higher means better fit; the empty graph scores 0."""
    if not h.is_dag():
        h = h.extend()
    return sum(mutual_information(dataset, y, h.pa(y))
               for y in range(h.node_count) if h.pa(y))
