import itertools
import math
import re

import numpy as np
import pytest

from scipy.special import gammaln

from conftest import bdeu_sequential_oracle, random_dataset, random_rpdag
from rpdaglearn import scoring
from rpdaglearn.census import enumerate_dags, rpdag_key
from rpdaglearn.data import DataError, Dataset
from rpdaglearn.graph import GraphError, PartialDag
from rpdaglearn.scoring import (LocalScoreCache, Scorer, bdeu_local,
                                bic_local, count_statistics, kl_fit_term,
                                mutual_information)


def dataset_from(cards, rows):
    rows = np.array(rows, dtype=np.int64).reshape(-1, len(cards))
    return Dataset([f"v{i}" for i in range(len(cards))], list(cards), rows)


class TestCountStatistics:
    def test_no_parents(self):
        ds = dataset_from([2], [[0], [1], [1]])
        table = count_statistics(ds, 0, [])
        assert table.counts.tolist() == [[1, 2]]
        assert (table.q, table.r_child) == (1, 2)

    def test_parent_config_order(self):
        # lowest-index parent most significant: config j = p0 * r1 + p1
        ds = dataset_from([2, 3, 2], [[1, 2, 0]])
        table = count_statistics(ds, 2, [0, 1])
        assert table.q == 6
        assert table.counts[1 * 3 + 2, 0] == 1
        assert table.total == 1

    def test_parent_order_input_irrelevant(self):
        ds = dataset_from([2, 3, 2], [[1, 2, 0], [0, 1, 1]])
        a = count_statistics(ds, 2, [0, 1])
        b = count_statistics(ds, 2, [1, 0])
        assert np.array_equal(a.counts, b.counts)

    def test_child_in_parents_rejected(self):
        ds = dataset_from([2, 2], [[0, 0]])
        with pytest.raises(GraphError):
            count_statistics(ds, 0, [0, 1])
        # A parent named twice would be counted as two parents (q = r**2).
        ds = dataset_from([2, 3], [[0, 0], [1, 1], [1, 2]])
        with pytest.raises(GraphError):
            count_statistics(ds, 0, [1, 1])
        scorer = Scorer(ds)
        with pytest.raises(GraphError):
            scorer.local(0, [1, 1])
        assert scorer.cache.store == {}
        assert scorer.cache.requested == 0

    @pytest.mark.parametrize("y, parents, bad", [
        (2, [], 2), (0, [3], 3), (-1, [], -1), (0, [-1], -1)])
    def test_node_outside_dataset(self, y, parents, bad):
        ds = dataset_from([2, 2], [[0, 1]])
        with pytest.raises(GraphError, match=f"node index {bad} out of range"):
            count_statistics(ds, y, parents)

    @pytest.mark.parametrize("n", [42, 66])
    def test_family_too_wide_to_count(self, n):
        # Binary child with n - 1 binary parents: 2**42 cells (32 TiB) cannot
        # be allocated, and 2**66 cannot even be indexed.
        ds = dataset_from([2] * n, [[0] * n, [1] * n])
        with pytest.raises(DataError, match=rf"family of v0 is too wide to "
                                            rf"count: q \* r = {2 ** n} "):
            count_statistics(ds, 0, range(1, n))


class TestUnknownNames:
    @pytest.mark.parametrize("kwargs, message", [
        ({"score": "aic"}, "unknown score 'aic'"),
        ({"prior": "flat"}, "unknown prior 'flat'")])
    def test_scorer(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            Scorer(dataset_from([2], [[0]]), **kwargs)

    def test_bdeu_prior(self):
        table = count_statistics(dataset_from([2], [[0]]), 0, [])
        with pytest.raises(ValueError, match="unknown prior 'flat'"):
            bdeu_local(table, 1.0, "flat")


class TestBdeuLocal:
    def test_single_row_uniform_prior(self):
        # One observation of a binary root: log(1/2) exactly.
        ds = dataset_from([2], [[0]])
        table = count_statistics(ds, 0, [])
        assert bdeu_local(table, ess=1.0) == pytest.approx(math.log(0.5))

    def test_matches_sequential_oracle(self, rng):
        for trial in range(60):
            n = int(rng.integers(2, 5))
            m = int(rng.integers(1, 7))
            ds = random_dataset(n, m, rng)
            y = int(rng.integers(n))
            pool = [v for v in range(n) if v != y]
            k = int(rng.integers(0, len(pool) + 1))
            parents = list(rng.choice(pool, size=k, replace=False))
            ess = float(rng.choice([0.5, 1.0, 2.0, 8.0]))
            table = count_statistics(ds, y, parents)
            expected = bdeu_sequential_oracle(ds, y, parents, ess)
            assert bdeu_local(table, ess) == pytest.approx(expected, abs=1e-9)

    def test_300_state_variable_matches_sequential_oracle(self):
        # 300 states need uint16 rows and keys past one byte.
        rng = np.random.default_rng(300)
        cards = [300, 3, 2]
        rows = np.column_stack([rng.integers(r, size=40) for r in cards])
        rows[0] = [299, 2, 1]
        ds = dataset_from(cards, rows)
        assert ds.rows.dtype == np.uint16
        for y in range(3):
            others = [v for v in range(3) if v != y]
            for k in range(3):
                for parents in itertools.combinations(others, k):
                    table = count_statistics(ds, y, parents)
                    ref = np.zeros((table.q, cards[y]), np.int64)
                    for row in rows.tolist():
                        j = 0
                        for p in parents:
                            j = j * cards[p] + row[p]
                        ref[j, row[y]] += 1
                    assert np.array_equal(table.counts, ref)
                    assert bdeu_local(table, 1.0) == pytest.approx(
                        bdeu_sequential_oracle(ds, y, parents, 1.0),
                        abs=1e-9)

    def test_param_penalty_prior_shift(self):
        ds = dataset_from([2, 3], [[0, 1], [1, 2]])
        table = count_statistics(ds, 0, [1])
        plain = bdeu_local(table, 1.0, "uniform")
        penalized = bdeu_local(table, 1.0, "param-penalty")
        # f = (r-1) q = 1 * 3 free parameters
        assert penalized == pytest.approx(plain + 3 * math.log(0.001))

    def test_rejects_bad_ess(self):
        table = count_statistics(dataset_from([2], [[0]]), 0, [])
        with pytest.raises(ValueError):
            bdeu_local(table, 0.0)

    @pytest.mark.parametrize("ess", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_ess(self, ess):
        ds = dataset_from([2], [[0]])
        with pytest.raises(ValueError, match="finite and positive"):
            bdeu_local(count_statistics(ds, 0, []), ess)
        with pytest.raises(ValueError, match="finite and positive"):
            Scorer(ds, "bdeu", ess=ess)

    # gammaln overflows to inf at both values, which would make every
    # family score NaN.
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("ess", [1e308, 1e-320])
    def test_rejects_ess_whose_scores_are_not_finite(self, ess):
        ds = dataset_from([2, 3], [[0, 1], [1, 2], [1, 0]])
        message = f"ess {ess} gives a BDeu score that is not finite"
        with pytest.raises(ValueError, match=re.escape(message)):
            Scorer(ds, "bdeu", ess=ess).local(0, (1,))

    def test_family_without_states_scores_zero(self):
        # A header-only CSV gives variables with no states: r = 0, and
        # q = 0 as soon as there is a parent.
        ds = dataset_from([0, 0], np.zeros((0, 2)))
        for parents in ([], [1]):
            table = count_statistics(ds, 0, parents)
            for prior in ("uniform", "param-penalty"):
                assert bdeu_local(table, 1.0, prior) == 0.0


def bdeu_one_table(table, ess, prior):
    """BDeu of one table, summed as the per-family path did before
    families were scored in batches; the batched sums must equal it bit
    for bit."""
    r, q = table.r_child, table.q
    if r * q == 0:
        return 0.0
    a_jk, a_j = ess / (r * q), ess / q
    value = float((gammaln(a_j) - gammaln(a_j + table.marginals)).sum()
                  + (gammaln(a_jk + table.counts) - gammaln(a_jk)).sum())
    if prior == "param-penalty":
        value += (r - 1) * q * scoring.PARAM_PENALTY_LOG
    return value


def record_batches(monkeypatch):
    """Make the BDeu kernel record the (k, q, r) shape of each batch."""
    kernel, shapes = scoring._bdeu, []

    def recorded(counts, ess, prior):
        shapes.append(counts.shape)
        return kernel(counts, ess, prior)

    monkeypatch.setattr(scoring, "_bdeu", recorded)
    return shapes


class TestBatchedBdeu:
    @pytest.mark.parametrize("prior", ["uniform", "param-penalty"])
    @pytest.mark.parametrize("ess", [1e-3, 1.0, 10.0])
    def test_bit_identical_to_one_table(self, monkeypatch, rng, ess, prior):
        # Up to three parents of up to five states: tables of 2 to 625
        # cells, past numpy's 128-element pairwise blocks, in batches that
        # mix shapes.
        ds = random_dataset(7, 3000, rng, max_card=5)
        families = [(y, parents) for y in range(7) for k in range(4)
                    for parents in itertools.combinations(
                        [v for v in range(7) if v != y], k)]
        shapes = record_batches(monkeypatch)
        scorer = Scorer(ds, "bdeu", ess, prior)
        scorer.precompute(families)
        assert len(scorer.cache.store) == len(families)
        assert max(q * r for k, q, r in shapes if k > 1) > 128
        for (y, parents), value in scorer.cache.store.items():
            table = count_statistics(ds, y, parents)
            expected = bdeu_one_table(table, ess, prior)
            assert value == expected
            assert bdeu_local(table, ess, prior) == expected

    def test_memory_bound_flushes_mid_batch(self, monkeypatch, rng):
        # 20 rows: the held tables are scored whenever their cells would
        # pass 20, so each shape is scored in several batches.
        ds = random_dataset(6, 20, rng, max_card=4)
        families = [(y, parents) for y in range(6) for k in range(3)
                    for parents in itertools.combinations(
                        [v for v in range(6) if v != y], k)]
        shapes = record_batches(monkeypatch)
        batched = Scorer(ds)
        batched.precompute(families)
        assert all(k * q * r <= 20 or k == 1 for k, q, r in shapes)
        assert len(shapes) > len({(q, r) for _, q, r in shapes})
        one_at_a_time = Scorer(ds)
        assert batched.cache.store == {
            key: one_at_a_time.local(*key) for key in batched.cache.store}

    def test_empty_data(self):
        ds = dataset_from([0, 2, 3], np.zeros((0, 3)))
        families = [(0, ()), (0, (1,)), (1, ()), (1, (0,)), (1, (2,)),
                    (2, (1,))]
        for prior in ("uniform", "param-penalty"):
            scorer = Scorer(ds, "bdeu", 1.0, prior)
            scorer.precompute(families)
            for (y, parents), value in scorer.cache.store.items():
                table = count_statistics(ds, y, parents)
                assert value == bdeu_one_table(table, 1.0, prior)
                if table.q * table.r_child == 0:
                    assert value == 0.0

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("ess", [1e308, 1e-320])
    def test_ess_whose_gammaln_overflows(self, ess):
        ds = dataset_from([2, 3, 2], [[0, 1, 1], [1, 2, 0], [1, 0, 1]])
        scorer = Scorer(ds, "bdeu", ess=ess)
        message = f"ess {ess} gives a BDeu score that is not finite"
        with pytest.raises(ValueError, match=re.escape(message)):
            scorer.precompute([(0, ()), (0, (1,)), (2, (0, 1)), (1, (2,))])
        assert scorer.cache.store == {}


class TestBicLocal:
    def test_known_value(self):
        # 3 of 4 rows at state 0: loglik = 3 ln(3/4) + ln(1/4),
        # penalty = 0.5 ln 4 * 1.
        ds = dataset_from([2], [[0], [0], [0], [1]])
        table = count_statistics(ds, 0, [])
        expected = 3 * math.log(0.75) + math.log(0.25) - 0.5 * math.log(4)
        assert bic_local(table, 4) == pytest.approx(expected)

    def test_penalty_counts_unseen_configs(self):
        # Parent state 1 never occurs but still contributes to q.
        ds = dataset_from([2, 2], [[0, 0], [0, 1]])
        table = count_statistics(ds, 1, [0])
        expected = 2 * math.log(0.5) - 0.5 * math.log(2) * 1 * 2
        assert bic_local(table, 2) == pytest.approx(expected)

    def test_empty_data(self):
        ds = dataset_from([2], np.zeros((0, 1)))
        assert bic_local(count_statistics(ds, 0, []), 0) == 0.0


class TestScoreEquivalence:
    def test_all_extensions_equal_bdeu(self, rng):
        # Equivalent DAGs must score identically; exercised over every
        # 3-node structure group.
        ds = random_dataset(3, 40, rng)
        scorer = Scorer(ds, "bdeu", ess=2.0)
        groups = {}
        for h in enumerate_dags(3):
            groups.setdefault(rpdag_key(h), []).append(h)
        for dags in groups.values():
            scores = [scorer.score_dag(h) for h in dags]
            assert max(scores) - min(scores) < 1e-9

    def test_bic_equivalent_too(self, rng):
        ds = random_dataset(3, 40, rng)
        scorer = Scorer(ds, "bic")
        chain = PartialDag.from_edges(3, arcs=[(0, 1), (1, 2)])
        rev = PartialDag.from_edges(3, arcs=[(1, 0), (1, 2)])
        assert scorer.score_dag(chain) == pytest.approx(scorer.score_dag(rev),
                                                        abs=1e-9)

    @pytest.mark.parametrize("arcs, links", [
        ([], [(0, 1)]), ([(0, 1), (1, 2), (2, 0)], [])],
        ids=["link", "directed-cycle"])
    def test_score_dag_refuses_non_dag(self, rng, arcs, links):
        g = PartialDag.from_edges(3, arcs, links)
        with pytest.raises(GraphError, match="score_dag requires a DAG"):
            Scorer(random_dataset(3, 10, rng)).score_dag(g)

    def test_rpdag_score_is_extension_score(self, rng):
        ds = random_dataset(4, 60, rng)
        scorer = Scorer(ds)
        for _ in range(20):
            g = random_rpdag(4, rng)
            assert scorer.score_rpdag(g) == pytest.approx(
                scorer.score_dag(g.extend()), abs=1e-12)


class TestCache:
    def test_hit_vs_miss_counting(self, rng):
        ds = random_dataset(3, 30, rng)
        scorer = Scorer(ds)
        scorer.local(0, [1])
        scorer.local(0, [1])
        scorer.local(0, [1, 2])
        assert scorer.cache.evaluated == 2
        assert scorer.cache.requested == 3
        assert len(scorer.cache.store) == 2

    def test_parent_order_shares_entry(self, rng):
        ds = random_dataset(3, 30, rng)
        scorer = Scorer(ds)
        assert scorer.local(0, [2, 1]) == scorer.local(0, [1, 2])
        assert scorer.cache.evaluated == 1

    def test_nvars_mean_family_size(self, rng):
        ds = random_dataset(4, 30, rng)
        scorer = Scorer(ds)
        scorer.local(0, [])        # 1 variable
        scorer.local(1, [0, 2, 3]) # 4 variables
        assert scorer.cache.nvars == pytest.approx(2.5)

    def test_empty_cache_nvars(self):
        assert LocalScoreCache().nvars == 0.0


def mutual_information_loop(table):
    """The double loop over (j, k) that mutual_information replaced, kept
    as an oracle."""
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


class TestMutualInformation:
    def test_matches_loop_oracle(self, rng):
        # Each column draws from a random subset of its states, so tables
        # have empty parent configurations (rows) and child states
        # (columns); every tenth dataset is empty.
        empty_rows = empty_columns = 0
        for trial in range(300):
            cards = [int(c) for c in rng.integers(2, 6, size=4)]
            m = int(rng.integers(1, 300)) if trial % 10 else 0
            rows = np.column_stack([
                rng.choice(rng.choice(r, size=int(rng.integers(1, r + 1)),
                                      replace=False), size=m)
                for r in cards]).astype(np.int64).reshape(m, 4)
            ds = dataset_from(cards, rows)
            parents = [p for p in (1, 2, 3) if rng.random() < 0.6]
            table = count_statistics(ds, 0, parents)
            empty_rows += bool(np.any(table.marginals == 0))
            empty_columns += bool(np.any(table.counts.sum(axis=0) == 0))
            want = mutual_information_loop(table)
            got = mutual_information(ds, 0, parents)
            assert abs(got - want) <= 1e-12 * abs(want), (got, want)
        assert empty_rows and empty_columns

    def test_independent_uniform(self):
        rows = list(itertools.product((0, 1), repeat=2)) * 5
        ds = dataset_from([2, 2], rows)
        assert mutual_information(ds, 0, [1]) == pytest.approx(0.0, abs=1e-12)

    def test_deterministic_copy(self):
        ds = dataset_from([2, 2], [[0, 0], [1, 1], [0, 0], [1, 1]])
        assert mutual_information(ds, 0, [1]) == pytest.approx(math.log(2))

    def test_nonnegative_random(self, rng):
        for _ in range(20):
            ds = random_dataset(3, 25, rng)
            assert mutual_information(ds, 0, [1, 2]) >= -1e-12


class TestKlFitTerm:
    def test_empty_graph_zero(self, rng):
        ds = random_dataset(3, 20, rng)
        kl = kl_fit_term(PartialDag(3), ds)
        assert kl == 0.0 and type(kl) is float

    def test_sum_over_families(self, rng):
        ds = random_dataset(3, 50, rng)
        h = PartialDag.from_edges(3, arcs=[(0, 1), (0, 2), (1, 2)])
        expected = (mutual_information(ds, 1, [0])
                    + mutual_information(ds, 2, [0, 1]))
        assert kl_fit_term(h, ds) == pytest.approx(expected)

    def test_equal_across_equivalent_structures(self, rng):
        ds = random_dataset(3, 50, rng)
        chain = PartialDag.from_edges(3, arcs=[(0, 1), (1, 2)])
        linked = PartialDag.from_edges(3, links=[(0, 1), (1, 2)])
        assert kl_fit_term(linked, ds) == pytest.approx(kl_fit_term(chain, ds),
                                                        abs=1e-9)
