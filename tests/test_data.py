import itertools

import numpy as np
import pytest

from rpdaglearn.data import (BayesNet, DataError, Dataset, family_counts,
                             fit_parameters, load_csv, load_network,
                             parent_configs, sample, save_csv, save_network)
from rpdaglearn.graph import PartialDag


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def small_net():
    g = PartialDag.from_edges(2, arcs=[(0, 1)])
    cpts = [np.array([[0.3, 0.7]]),
            np.array([[0.9, 0.1], [0.2, 0.8]])]
    return BayesNet(["x", "y"], [2, 2], g, cpts)


class TestLoadCsv:
    def test_basic(self, tmp_path):
        path = write(tmp_path / "d.csv", "u,v\na,0\na,1\nb,0\nb,1\n")
        ds = load_csv(path)
        assert ds.cardinalities == [2, 2]
        assert ds.m == 4
        assert ds.state_labels[0] == ["a", "b"]

    def test_missing_token_is_last_state(self, tmp_path):
        path = write(tmp_path / "d.csv", "v\nyes\nno\n?\nno\n")
        ds = load_csv(path)
        assert ds.cardinalities == [3]
        assert ds.state_labels[0] == ["no", "yes", "?"]

    def test_header_only(self, tmp_path):
        ds = load_csv(write(tmp_path / "d.csv", "a,b\n"))
        assert ds.m == 0
        assert ds.n == 2

    def test_ragged_rows(self, tmp_path):
        path = write(tmp_path / "d.csv", "a,b\n1,2\n1\n")
        with pytest.raises(DataError):
            load_csv(path)

    def test_duplicate_header(self, tmp_path):
        with pytest.raises(DataError):
            load_csv(write(tmp_path / "d.csv", "a,a\n1,2\n"))

    def test_empty_file(self, tmp_path):
        with pytest.raises(DataError):
            load_csv(write(tmp_path / "d.csv", ""))

    def test_roundtrip(self, tmp_path):
        path = write(tmp_path / "d.csv", "u,v\na,0\nb,?\n")
        ds = load_csv(path)
        save_csv(ds, tmp_path / "e.csv")
        ds2 = load_csv(tmp_path / "e.csv")
        assert ds2.variable_names == ds.variable_names
        assert ds2.state_labels == ds.state_labels
        assert np.array_equal(ds2.rows, ds.rows)


class TestCounting:
    def test_first_parent_most_significant(self):
        rows = np.array([[0, 2, 1], [1, 0, 0], [1, 2, 1]])
        j, q = parent_configs(rows, [0, 1], [2, 3, 2])
        assert j.tolist() == [2, 3, 5]
        assert q == 6 and type(q) is int

    def test_family_counts(self):
        ds = Dataset(["a", "b"], [2, 3], [[0, 2], [1, 0], [1, 2], [1, 2]])
        assert family_counts(ds, 1, [0]).tolist() == [[0, 0, 1], [1, 0, 2]]
        assert family_counts(ds, 0, []).tolist() == [[1, 3]]
        empty = Dataset(["a", "b"], [2, 3], np.zeros((0, 2)))
        assert family_counts(empty, 1, [0]).tolist() == [[0] * 3] * 2


class TestSample:
    def test_degenerate_cpt(self):
        g = PartialDag(1)
        net = BayesNet(["y"], [2], g, [np.array([[0.0, 1.0]])])
        ds = sample(net, 25, seed=3)
        assert np.all(ds.rows == 1)

    def test_fair_coin_frequency(self):
        g = PartialDag(1)
        net = BayesNet(["y"], [2], g, [np.array([[0.5, 0.5]])])
        ds = sample(net, 10000, seed=7)
        freq = np.mean(ds.rows[:, 0] == 0)
        assert abs(freq - 0.5) < 0.02

    def test_deterministic(self):
        net = small_net()
        a = sample(net, 500, seed=11)
        b = sample(net, 500, seed=11)
        assert np.array_equal(a.rows, b.rows)

    def test_empirical_joint_converges(self):
        # 3-node chain; total variation against the exact joint.
        g = PartialDag.from_edges(3, arcs=[(0, 1), (1, 2)])
        cpts = [np.array([[0.4, 0.6]]),
                np.array([[0.8, 0.2], [0.3, 0.7]]),
                np.array([[0.9, 0.1], [0.25, 0.75]])]
        net = BayesNet(["a", "b", "c"], [2, 2, 2], g, cpts)
        ds = sample(net, 100000, seed=5)
        tv = 0.0
        for va, vb, vc in itertools.product((0, 1), repeat=3):
            exact = cpts[0][0, va] * cpts[1][va, vb] * cpts[2][vb, vc]
            emp = np.mean((ds.rows[:, 0] == va) & (ds.rows[:, 1] == vb)
                          & (ds.rows[:, 2] == vc))
            tv += abs(exact - emp)
        assert tv / 2 < 0.02


class TestFitParameters:
    def test_empty_data_gives_uniform(self):
        ds = Dataset(["x", "y"], [2, 3], np.zeros((0, 2), dtype=np.int64))
        net = fit_parameters(PartialDag(2), ds, smoothing=1.0)
        assert np.allclose(net.cpts[0], 0.5)
        assert np.allclose(net.cpts[1], 1 / 3)

    def test_mle_single_variable(self):
        ds = Dataset(["y"], [2], np.array([[0], [0], [0], [1]]))
        net = fit_parameters(PartialDag(1), ds, smoothing=0.0)
        assert net.cpts[0][0, 0] == pytest.approx(0.75)

    def test_sample_then_fit_recovers(self):
        net = small_net()
        ds = sample(net, 50000, seed=9)
        refit = fit_parameters(net.structure, ds, smoothing=1.0)
        for y in range(2):
            assert np.max(np.abs(refit.cpts[y] - net.cpts[y])) < 0.02

    def test_smoothed_tables_strictly_positive(self):
        ds = Dataset(["x", "y"], [2, 2], np.array([[0, 0], [0, 0]]))
        net = fit_parameters(PartialDag.from_edges(2, arcs=[(0, 1)]), ds,
                             smoothing=1.0)
        assert all(np.all(t > 0) for t in net.cpts)


class TestNetworkFile:
    def test_roundtrip_with_cpts(self, tmp_path):
        net = small_net()
        save_network(net, tmp_path / "n.json")
        loaded = load_network(tmp_path / "n.json")
        assert loaded.variable_names == net.variable_names
        assert loaded.structure == net.structure
        for y in range(2):
            assert np.allclose(loaded.cpts[y], net.cpts[y])

    def test_roundtrip_structure_with_links(self, tmp_path):
        g = PartialDag.from_edges(4, arcs=[(0, 2), (1, 2)], links=[(2, 3)])
        g2 = PartialDag.from_edges(4, links=[(0, 1), (1, 2)])
        for graph in (g, g2):
            net = BayesNet(list("wxyz"), [2, 2, 2, 2], graph)
            save_network(net, tmp_path / "s.json")
            loaded = load_network(tmp_path / "s.json")
            assert loaded.structure == graph
            assert loaded.cpts is None

    def test_bad_row_sum_rejected(self, tmp_path):
        text = """{
          "variables": [{"name": "y", "states": ["0", "1"]}],
          "edges": {"arcs": [], "links": []},
          "cpts": {"y": [[0.4, 0.5]]}
        }"""
        with pytest.raises(DataError):
            load_network(write(tmp_path / "bad.json", text))

    @pytest.mark.parametrize("table", ['[[0.5, "a"]]', '[[0.5, 0.5], [1.0]]'])
    def test_malformed_table_rejected(self, tmp_path, table):
        text = ('{"variables": [{"name": "y", "states": ["0", "1"]}],'
                f' "cpts": {{"y": {table}}}}}')
        with pytest.raises(DataError):
            load_network(write(tmp_path / "bad.json", text))

    def test_malformed_json(self, tmp_path):
        with pytest.raises(DataError):
            load_network(write(tmp_path / "bad.json", "{not json"))
