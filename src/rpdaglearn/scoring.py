"""Decomposable, score-equivalent scoring: BDeu and BIC with a local cache.

Local scores are functions of a child node and its parent set only, so a
structure score is the sum of per-family terms and single-edge changes can
be evaluated from at most two local scores.  The cache maps (child,
sorted-parent-tuple) keys to values and tracks how many distinct
statistics were evaluated versus requested.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, field

import numpy as np

# Counted in data; read through this module's globals, which
# bench/tracer.py patches as scoring.count_statistics.
from .data import count_statistics
from .graph import GraphError, family_key

SCORE_IDS = ("bdeu", "bic")
PRIOR_IDS = ("uniform", "param-penalty")
PARAM_PENALTY_LOG = math.log(0.001)


def _check_bdeu(ess, prior):
    if prior not in PRIOR_IDS:
        raise ValueError(f"unknown prior {prior!r}")
    # A NaN ess would make every BDeu delta NaN, and greedy never stop.
    if not (math.isfinite(ess) and ess > 0):
        raise ValueError(f"ess must be finite and positive, got {ess}")


def _check_size(h, dataset):
    # Scoring sums over h's nodes, so a smaller h would score a part of
    # the data and a larger one would fail at its first missing variable.
    if h.node_count != dataset.n:
        raise GraphError(f"structure has {h.node_count} nodes but the data "
                         f"has {dataset.n} variables")


def bdeu_local(table, ess, prior="uniform"):
    """BDeu family score: log marginal likelihood under a Dirichlet prior
    with total equivalent sample size ``ess`` split uniformly, plus the
    log structure-prior contribution of this family.  A family with no
    child states or no parent configurations (only possible on empty
    data) has no rows and no parameters, and scores 0."""
    _check_bdeu(ess, prior)
    return float(_bdeu(table.counts[None], ess, prior)[0])


# lgamma(a + N) for a BDeu prior weight a > 0 and a count N >= 0 is
# math.lgamma(a + N), read from a table per a, for N < LGAMMA_TABLE_N, and
# Stirling's series to the x**-3 term for larger N: at x = a + N >= 128 the
# first term left out, 1 / (1260 x**5), is below half an ulp of lgamma(x).
LGAMMA_TABLE_N = 128
_STIRLING_K = 0.5 * math.log(2 * math.pi) - 0.5
# Gamma(x) ~ 1/x overflows a double below this, and lgamma is taken as
# inf there, so an ess whose prior weights are that small is refused.
_GAMMA_TINY = 1 / sys.float_info.max


def _lgamma_scalar(x):
    if x < _GAMMA_TINY:
        return math.inf
    try:
        return math.lgamma(x)
    except OverflowError:
        return math.inf


@functools.lru_cache(maxsize=256)
def _lgamma_table(a):
    """lgamma(a + i) for i < LGAMMA_TABLE_N, read-only."""
    table = np.array([_lgamma_scalar(a + i) for i in range(LGAMMA_TABLE_N)])
    table.flags.writeable = False
    return table


def _stirling(x):
    """lgamma(x) for x >= LGAMMA_TABLE_N, as (x - 1/2)(ln x - 1)
    + ln(2 pi)/2 - 1/2 + 1/(12 x) - 1/(360 x**3); x is overwritten.  A
    smaller x is raised to LGAMMA_TABLE_N first, so no step overflows."""
    np.maximum(x, LGAMMA_TABLE_N, out=x)
    series = np.divide(-1 / 360, x)
    series /= x
    series += 1 / 12
    series /= x
    series += _STIRLING_K
    out = np.log(x)
    out -= 1.0
    x -= 0.5
    out *= x
    out += series
    return out


def _lgamma(counts, a_j, a_jk):
    """lgamma(a_j + N_j) and lgamma(a_jk + N_jk), as defined above, for
    (k, q, r) BDeu counts N_jk and their sums N_j over the last axis.
    Each value depends on its a and N alone, not on the other counts."""
    k, q, r = counts.shape
    nj = np.einsum("kqr->kq", counts)   # sums short rows faster than sum
    table_j, table_jk = _lgamma_table(a_j), _lgamma_table(a_jk)
    if nj.max() < LGAMMA_TABLE_N:      # so is every count
        return table_j.take(nj), table_jk.take(counts)
    # One series pass over both: x[:k q] is a_j + N_j, the rest a_jk + N_jk.
    x = np.empty(k * q * (r + 1))
    np.add(nj, a_j, out=x[:k * q].reshape(k, q))
    np.add(counts, a_jk, out=x[k * q:].reshape(k, q, r))
    out = _stirling(x)
    lg_nj, lg_njk = out[:k * q].reshape(k, q), out[k * q:].reshape(k, q, r)
    for lg, n, table in ((lg_nj, nj, table_j), (lg_njk, counts, table_jk)):
        np.putmask(lg, n < LGAMMA_TABLE_N, table.take(n, mode="clip"))
    return lg_nj, lg_njk


def _bdeu(counts, ess, prior):
    """BDeu scores, as :func:`bdeu_local` defines them, of k families of
    one table shape from their stacked (k, q, r) counts."""
    k, q, r = counts.shape
    if r * q == 0:
        return np.zeros(k)
    a_jk = ess / (r * q)
    a_j = ess / q
    # lgamma is inf at the ess that make a_j or a_jk too large or too
    # small; a later inf would make the score NaN with a warning, so the
    # two scalar terms are checked first.
    lg_j, lg_jk = _lgamma_table(a_j)[0], _lgamma_table(a_jk)[0]
    finite = math.isfinite(lg_j) and math.isfinite(lg_jk)
    if finite:
        lg_nj, lg_njk = _lgamma(counts, a_j, a_jk)
        values = (lg_j - lg_nj).sum(1) + (lg_njk - lg_jk).sum((1, 2))
        finite = np.isfinite(values).all()
    if not finite:
        raise ValueError(f"ess {ess} gives a BDeu score that is not finite")
    if prior == "param-penalty":
        values += (r - 1) * q * PARAM_PENALTY_LOG
    return values


def bic_local(table, m):
    """BIC family score: maximized log likelihood minus (ln m / 2) times
    the family's free parameter count.  Empty data scores 0."""
    return float(_bic(table.counts[None], m)[0])


def _bic(counts, m):
    """BIC scores, as :func:`bic_local` defines them, of k families of one
    table shape from their stacked (k, q, r) counts, on m rows."""
    k, q, r = counts.shape
    if m == 0:
        return np.zeros(k)
    nonzero = counts > 0
    njk = counts[nonzero]
    nj = np.broadcast_to(counts.sum(2)[..., None], counts.shape)[nonzero]
    terms = njk * np.log(njk / nj)
    # Each family's terms are summed on their own, so its score is the
    # one its table alone gives, bit for bit.
    ends = np.cumsum(nonzero.sum((1, 2)))[:-1]
    loglik = [part.sum() for part in np.split(terms, ends)]
    return np.array(loglik) - 0.5 * math.log(m) * (r - 1) * q


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
    ``precompute`` scores many families in one batch beforehand;
    ``score_dag`` and ``score_rpdag`` sum families over a structure.
    """

    def __init__(self, dataset, score="bdeu", ess=1.0, prior="uniform"):
        if score not in SCORE_IDS:
            raise ValueError(f"unknown score {score!r}")
        _check_bdeu(ess, prior)
        self.dataset = dataset
        self.score = score
        self.ess = ess
        self.prior = prior
        self.cache = LocalScoreCache()

    def _compute(self, keys):
        """Count each family of ``keys``, distinct cache keys none of which
        is stored, and store their scores once all are scored.

        BDeu and BIC alike score the tables held in one pass per table
        shape, and do so before they would hold more cells than the data
        has rows: the held tables then take no more memory than the
        m x 8-byte intp key copy that the bincount kernel makes for a
        large table (a bitset count's temporaries stay under that size).
        """
        dataset = self.dataset
        scores, held, cells = {}, {}, 0   # held: shape -> keys, counts
        for key in keys:
            counts = count_statistics(dataset, *key).counts
            if cells + counts.size > dataset.m:
                self._score_held(held, scores)
                held, cells = {}, 0
            group = held.setdefault(counts.shape, ([], []))
            group[0].append(key)
            group[1].append(counts)
            cells += counts.size
        self._score_held(held, scores)
        self.cache.store.update(scores)

    def _score_held(self, held, scores):
        for keys, tables in held.values():
            counts = np.stack(tables)
            values = (_bic(counts, self.dataset.m) if self.score == "bic"
                      else _bdeu(counts, self.ess, self.prior))
            scores.update(zip(keys, values.tolist()))

    def precompute(self, families):
        """Score, in one batch, each (child, parent set) pair of ``families``
        not yet stored.  Each is keyed by
        :func:`~rpdaglearn.graph.family_key`, as :meth:`local` keys it, so
        a bad member is refused whether its family is stored or not.  No
        lookup is counted: the callers read scores through :meth:`local`."""
        store, n = self.cache.store, self.dataset.n
        keys = dict.fromkeys(family_key(y, pa, n) for y, pa in families)
        missing = [key for key in keys if key not in store]
        if missing:
            self._compute(missing)

    def local(self, y, parents):
        """Score of y given ``parents`` through the cache, hit or miss keyed
        by :func:`~rpdaglearn.graph.family_key`; one lookup (TEst)."""
        key = family_key(y, parents, self.dataset.n)
        value = self.cache.store.get(key)
        if value is None:
            self._compute([key])
            value = self.cache.store[key]
        self.cache.requested += 1
        return value

    def score_dag(self, h):
        _check_size(h, self.dataset)
        if not h.is_dag():
            raise GraphError("score_dag requires a DAG")
        families = [(y, h.pa(y)) for y in range(h.node_count)]
        self.precompute(families)
        return sum(self.local(y, pa) for y, pa in families)

    def score_rpdag(self, g):
        """Score of the canonical extension, which refuses a non-RPDAG."""
        return self.score_dag(g.extend())


def mutual_information(dataset, y, parents):
    """Empirical mutual information (nats) between y and its parent set."""
    return _mutual_information(count_statistics(dataset, y, parents))


def _mutual_information(table):
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
    _check_size(h, dataset)
    if not h.is_dag():
        h = h.extend()
    return sum((mutual_information(dataset, y, h.pa(y))
                for y in range(h.node_count) if h.pa(y)), 0.0)


def dag_scores(h, dataset, ess=1.0, prior="uniform"):
    """BDeu, BIC and the KL fit term of DAG h, from one count per family.

    Each equals what its own pass gives, bit for bit:
    ``Scorer(dataset, "bdeu", ess, prior).score_dag(h)``,
    ``Scorer(dataset, "bic").score_dag(h)`` and ``kl_fit_term(h, dataset)``
    each score every family's table alone and sum the families in node
    order, as this does.  The tables are not kept.
    """
    _check_bdeu(ess, prior)
    _check_size(h, dataset)
    if not h.is_dag():
        raise GraphError("dag_scores requires a DAG")
    bdeu, bic, kl = [], [], []
    for y in range(h.node_count):
        parents = h.pa(y)
        table = count_statistics(dataset, y, parents)
        bdeu.append(bdeu_local(table, ess, prior))
        bic.append(bic_local(table, dataset.m))
        if parents:
            kl.append(_mutual_information(table))
    return sum(bdeu), sum(bic), sum(kl, 0.0)
