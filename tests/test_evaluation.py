import numpy as np
import pytest

from conftest import random_dataset
from rpdaglearn import scoring
from rpdaglearn.data import Dataset, count_statistics
from rpdaglearn.evaluation import HammingBreakdown, evaluate, hamming
from rpdaglearn.graph import GraphError, PartialDag
from rpdaglearn.scoring import Scorer, kl_fit_term


def g_from(n, arcs=(), links=()):
    return PartialDag.from_edges(n, arcs, links)


class TestHamming:
    def test_identical(self):
        g = g_from(3, arcs=[(0, 2), (1, 2)])
        b = hamming(g, g)
        assert (b.added, b.deleted, b.inverted, b.total) == (0, 0, 0, 0)

    def test_added_edge(self):
        gold = g_from(3, arcs=[(0, 2), (1, 2)])
        learned = g_from(3, arcs=[(0, 2), (1, 2), (0, 1)])
        assert hamming(learned, gold).added == 1

    def test_deleted_edge(self):
        gold = g_from(3, arcs=[(0, 2), (1, 2)])
        learned = g_from(3, arcs=[(0, 2), (1, 2)])
        learned.remove_arc(1, 2)
        b = hamming(learned.reduce_to_rpdag(), gold)
        assert b.deleted == 1
        assert b.added == 0

    def test_inverted_edge(self):
        gold = g_from(2, arcs=[(0, 1)])
        learned = g_from(2, arcs=[(1, 0)])
        b = hamming(learned, gold)
        assert (b.added, b.deleted, b.inverted) == (0, 0, 1)

    def test_links_use_canonical_orientation(self):
        # The canonical extension roots each chain component at its
        # lowest-index node, so a link 0-1 counts as the arc 0 -> 1.
        gold_fwd = g_from(2, arcs=[(0, 1)])
        gold_rev = g_from(2, arcs=[(1, 0)])
        learned = g_from(2, links=[(0, 1)])
        assert hamming(learned, gold_fwd).total == 0
        assert hamming(learned, gold_rev).total == 1

    def test_gold_must_be_dag(self):
        with pytest.raises(GraphError):
            hamming(g_from(2), g_from(2, links=[(0, 1)]))

    def test_arity_mismatch(self):
        with pytest.raises(GraphError):
            hamming(PartialDag(2), PartialDag(3))

    def test_total_property(self):
        assert HammingBreakdown(2, 1, 3).total == 6


class TestEvaluate:
    def test_train_only_keys(self, rng):
        ds = random_dataset(3, 40, rng)
        record = evaluate(g_from(3, arcs=[(0, 1), (2, 1)]), ds)
        assert set(record) == {"edges", "bdeu_train", "bic_train", "kl_train"}
        assert record["edges"] == 2

    def test_scores_match_direct_calls(self, rng):
        ds = random_dataset(3, 60, rng)
        g = g_from(3, links=[(0, 1)])
        record = evaluate(g, ds, ess=2.0)
        h = g.extend()
        assert record["bdeu_train"] == Scorer(ds, "bdeu", ess=2.0).score_dag(h)
        assert record["bic_train"] == Scorer(ds, "bic").score_dag(h)
        assert record["kl_train"] == kl_fit_term(g, ds)

    @pytest.mark.parametrize("prior", ["uniform", "param-penalty"])
    @pytest.mark.parametrize("kind", ["rpdag", "dag"])
    def test_one_count_per_family_equals_separate_passes(
            self, monkeypatch, prior, kind):
        # Each dataset's BDeu, BIC and KL come from one count of each
        # family, and equal the three separate passes bit for bit.
        rng = np.random.default_rng(7)
        train = random_dataset(6, 300, rng, max_card=4)
        test = Dataset(train.variable_names, train.cardinalities,
                       random_dataset(6, 80, np.random.default_rng(8),
                                      max_card=2).rows)
        g = (g_from(6, arcs=[(0, 2), (1, 2), (2, 3)], links=[(4, 5)])
             if kind == "rpdag"
             else g_from(6, arcs=[(0, 1), (2, 1), (1, 3), (3, 4), (0, 5)]))
        assert g.is_dag() == (kind == "dag")
        counted = []

        def count(dataset, y, parents):
            counted.append((id(dataset), y))
            return count_statistics(dataset, y, parents)

        monkeypatch.setattr(scoring, "count_statistics", count)
        record = evaluate(g, train, test=test, ess=3.0, prior=prior)
        assert sorted(counted) == sorted((id(ds), y) for ds in (train, test)
                                         for y in range(6))
        monkeypatch.undo()
        h = g if g.is_dag() else g.extend()
        for ds, tag in ((train, "train"), (test, "test")):
            assert record[f"bdeu_{tag}"] == Scorer(ds, "bdeu", 3.0,
                                                   prior).score_dag(h)
            assert record[f"bic_{tag}"] == Scorer(ds, "bic").score_dag(h)
            assert record[f"kl_{tag}"] == kl_fit_term(h, ds)

    def test_test_split_scored_independently(self, rng):
        train = random_dataset(3, 50, rng)
        test = random_dataset(3, 50, rng)
        g = g_from(3, arcs=[(0, 1), (2, 1)])
        record = evaluate(g, train, test=test)
        direct = Scorer(test).score_dag(g)
        assert record["bdeu_test"] == pytest.approx(direct)

    def test_gold_adds_hamming_fields(self, rng):
        ds = random_dataset(3, 30, rng)
        gold = g_from(3, arcs=[(0, 1), (2, 1)])
        record = evaluate(PartialDag(3), ds, gold=gold)
        assert record["hamming_deleted"] == 2
        assert record["hamming_total"] == 2

    def test_variable_mismatch(self, rng):
        ds = random_dataset(3, 10, rng)
        with pytest.raises(GraphError):
            evaluate(PartialDag(4), ds)
        with pytest.raises(GraphError, match="gold/dataset variable mismatch"):
            evaluate(PartialDag(3), ds, gold=PartialDag(4))
