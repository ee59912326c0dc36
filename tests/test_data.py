import csv
import functools
import itertools
import math
import sys
import tracemalloc

import numpy as np
import pytest

from conftest import random_network
from rpdaglearn import data
from rpdaglearn.data import (CSV_BLOCK_ROWS, BayesNet, DataError, Dataset,
                             count_statistics, fit_parameters, load_csv,
                             load_network, parent_configs, sample, save_csv,
                             save_network)
from rpdaglearn.graph import PartialDag


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def narrowest(count):
    """The unsigned width a Dataset stores state indices 0 ... count - 1
    in: uint8 up to 256 states, then uint16, then uint32."""
    return next(np.dtype(t) for t in (np.uint8, np.uint16, np.uint32)
                if count - 1 <= np.iinfo(t).max)


def load_csv_oracle(path, missing_token="?"):
    """The per-cell decoder that load_csv replaced, kept as the reference:
    header, alphabets and rows, in the narrowest width for the largest
    alphabet."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        raw = list(reader)
    n = len(header)
    labels = []
    for i in range(n):
        tokens = {row[i] for row in raw}
        has_missing = missing_token in tokens
        alphabet = sorted(tokens - {missing_token})
        if has_missing:
            alphabet.append(missing_token)
        labels.append(alphabet)
    index = [{tok: k for k, tok in enumerate(alpha)} for alpha in labels]
    width = narrowest(max(map(len, labels)))
    rows = np.array([[index[i][row[i]] for i in range(n)] for row in raw],
                    dtype=width).reshape(-1, n)
    return header, labels, rows


def assert_decodes_like_oracle(path, names, cells, missing,
                               quoting=csv.QUOTE_MINIMAL):
    """Write ``cells`` under ``names``, check that load_csv decodes them
    as load_csv_oracle does, and return the alphabets."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, quoting=quoting)
        writer.writerow(names)
        writer.writerows(cells.tolist())
    ds = load_csv(path, missing)
    header, labels, rows = load_csv_oracle(path, missing)
    assert ds.variable_names == header == names
    assert ds.state_labels == labels
    assert ds.cardinalities == [len(a) for a in labels]
    assert ds.rows.dtype == rows.dtype and ds.rows.shape == rows.shape
    assert np.array_equal(ds.rows, rows)
    return labels


def save_csv_oracle(dataset, path):
    """The per-row writer that save_csv replaced, kept as the reference."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(dataset.variable_names)
        for row in dataset.rows:
            writer.writerow([dataset.state_labels[i][row[i]]
                             for i in range(dataset.n)])


# Tokens csv must quote (commas, quotes, newlines), non-ASCII ones, padding
# and the empty field.
AWKWARD_TOKENS = ["a", "b", "10", "9", "x,y", 'say "hi"', "two\nlines",
                  "\u00fc", "\u65e5\u672c", " pad ", "", "NA"]


def counts_reference(rows, y, parents, cards):
    """Family counts by np.add.at over the mixed-radix index."""
    j = np.zeros(rows.shape[0], dtype=np.int64)
    for p in parents:
        j = j * cards[p] + rows[:, p]
    table = np.zeros((math.prod(cards[p] for p in parents), cards[y]),
                     dtype=np.int64)
    np.add.at(table, (j, rows[:, y]), 1)
    return j, table


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


    @pytest.mark.parametrize("text,line", [
        ("a,b\n1,2\n3,4\n5\n6\n", 4),
        ('a,b\n"x\ny",2\n5\n', 4),
        # In the second block, after a record spanning two lines.
        ("a,b\n" + "1,2\n" * CSV_BLOCK_ROWS + '"x\ny",2\n5\n',
         CSV_BLOCK_ROWS + 4),
    ])
    def test_ragged_reports_first_bad_line(self, tmp_path, text, line):
        path = write(tmp_path / "d.csv", text)
        with pytest.raises(DataError, match=f"d.csv:{line}: expected 2 "
                                            f"fields, got 1"):
            load_csv(path)

    @pytest.mark.parametrize("seed", range(16))
    def test_equals_per_cell_decoder(self, tmp_path, seed):
        rng = np.random.default_rng(seed)
        m = [0, 1, 7, 60][seed % 4]
        n = [1, 3][seed // 4 % 2]
        missing = ["?", "NA"][seed // 8]
        with_missing = seed % 3 != 0
        names = [f"v{i}" for i in range(n - 1)] + ["last, \"col\""]
        cells = rng.choice(AWKWARD_TOKENS, size=(m, n))
        if with_missing and m:
            cells[rng.integers(m), :] = missing
        else:
            cells[cells == missing] = "a"
        quoting = csv.QUOTE_ALL if seed % 2 else csv.QUOTE_MINIMAL
        labels = assert_decodes_like_oracle(tmp_path / "d.csv", names, cells,
                                            missing, quoting)
        assert (missing in labels[0]) == (with_missing and m > 0)

    @pytest.mark.parametrize("m", [CSV_BLOCK_ROWS - 1, CSV_BLOCK_ROWS,
                                   CSV_BLOCK_ROWS + 1, 2 * CSV_BLOCK_ROWS + 1])
    def test_block_boundaries(self, tmp_path, m):
        rng = np.random.default_rng(m)
        cells = rng.choice(AWKWARD_TOKENS, size=(m, 3)).astype(object)
        # A token, and the missing token, first seen in the last block.
        cells[-1, :2] = "late", "?"
        labels = assert_decodes_like_oracle(tmp_path / "d.csv",
                                            ["a", "b", "c"], cells, "?")
        assert "late" in labels[0] and labels[1][-1] == "?"

    def test_ids_widen_past_int32(self, tmp_path, monkeypatch):
        # With the int32 limit lowered to one block of distinct tokens,
        # the first block's ids just fit int32 and every later block's
        # are int64.
        monkeypatch.setattr(data, "_INT32_IDS", CSV_BLOCK_ROWS)
        dtypes, fromiter = [], np.fromiter

        def spy(iterable, dtype, count):
            dtypes.append(np.dtype(dtype))
            return fromiter(iterable, dtype, count)

        monkeypatch.setattr(np, "fromiter", spy)
        cells = np.arange(2 * CSV_BLOCK_ROWS + 1).astype(str)[:, None]
        assert_decodes_like_oracle(tmp_path / "d.csv", ["a"], cells, "?")
        assert dtypes == [np.int32, np.int64, np.int64]

    def test_peak_memory(self, tmp_path):
        # Derived bound, per cell: 4 bytes of int32 token ids and the
        # rows' own itemsize (1 byte for these 2-3 state variables); per
        # row, two int64 column temporaries while one column is mapped;
        # and one block of records (the sampled labels are one-character
        # strings, which CPython shares rather than allocates).
        path, n = tmp_path / "d.csv", 10
        save_csv(sample(random_network(n, 5), 20000, seed=5), path)
        tracemalloc.start()
        try:
            ds = load_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ds.rows.itemsize == 1
        cells = ds.m * n
        bound = (cells * (4 + ds.rows.itemsize) + 2 * 8 * ds.m
                 + CSV_BLOCK_ROWS * sys.getsizeof([None] * n))
        assert peak <= bound, (peak / cells, bound / cells)


class TestSaveCsv:
    @pytest.mark.parametrize("m", [0, 1, 200])
    def test_bytes_equal_per_row_writer(self, tmp_path, m):
        rng = np.random.default_rng(m)
        labels = [["?", "a,b", 'q"uote'], ["x\ny", "", "\u00e9t\u00e9", "?"],
                  ["0"], ["plain", "with space "]]
        rows = np.column_stack([rng.integers(len(a), size=m) for a in labels])
        ds = Dataset(["c,1", 'c"2', "c\n3", "c4"],
                     [len(a) for a in labels], rows, labels)
        save_csv(ds, tmp_path / "new.csv")
        save_csv_oracle(ds, tmp_path / "old.csv")
        new = (tmp_path / "new.csv").read_bytes()
        assert new == (tmp_path / "old.csv").read_bytes()
        back = load_csv(tmp_path / "new.csv")
        assert back.variable_names == ds.variable_names
        assert ([[back.state_labels[i][k] for k in back.rows[:, i]]
                 for i in range(ds.n)]
                == [[ds.state_labels[i][k] for k in ds.rows[:, i]]
                    for i in range(ds.n)])


class TestColumnMajor:
    """Dataset rows are stored once, column-major, in the narrowest width
    for the largest cardinality: uint8 for these 2-3 state variables."""

    @staticmethod
    def assert_column_major(ds, shape):
        assert ds.rows.dtype == np.uint8
        assert ds.rows.shape == shape
        assert ds.rows.flags.f_contiguous

    def test_list_input(self):
        ds = Dataset(["a", "b", "c"], [2, 3, 2], [[0, 2, 1], [1, 0, 0]])
        self.assert_column_major(ds, (2, 3))
        assert ds.rows.tolist() == [[0, 2, 1], [1, 0, 0]]

    def test_c_order_input(self):
        rows = np.ascontiguousarray([[0, 2, 1], [1, 0, 0], [1, 1, 1]],
                                    dtype=np.int32)
        ds = Dataset(["a", "b", "c"], [2, 3, 2], rows)
        self.assert_column_major(ds, (3, 3))
        assert np.array_equal(ds.rows, rows)

    def test_sample(self):
        self.assert_column_major(sample(small_net(), 40, seed=1), (40, 2))

    def test_load_csv(self, tmp_path):
        ds = load_csv(write(tmp_path / "d.csv", "u,v,w\na,0,x\nb,?,y\n"))
        self.assert_column_major(ds, (2, 3))

    def test_narrow_input_kept_without_copy(self):
        rows = np.asfortranarray([[0, 2, 1], [1, 0, 0]], dtype=np.uint8)
        assert Dataset(["a", "b", "c"], [2, 3, 2], rows).rows is rows

    @pytest.mark.parametrize("cards, width", [
        ([1], np.uint8), ([256, 2], np.uint8), ([257, 2], np.uint16)])
    def test_width_for_largest_cardinality(self, cards, width):
        # Rows hold each variable's first and last state; int64 input is
        # narrowed only after its range check, so 256 in a 256-state
        # column is refused, not wrapped to 0.
        top = [r - 1 for r in cards]
        ds = Dataset([f"v{i}" for i in range(len(cards))], cards,
                     np.array([[0] * len(cards), top]))
        assert ds.rows.dtype == width and ds.rows.flags.f_contiguous
        assert ds.rows.tolist() == [[0] * len(cards), top]
        with pytest.raises(DataError, match="cell index out of range for "
                                            "variable v0"):
            Dataset(ds.variable_names, cards, np.array([[cards[0], *top[1:]]]))

    def test_width_for_header_only_csv(self, tmp_path):
        ds = load_csv(write(tmp_path / "d.csv", "a,b\n"))
        assert ds.cardinalities == [0, 0]
        self.assert_column_major(ds, (0, 2))


class TestCounting:
    def test_first_parent_most_significant(self):
        rows = np.array([[0, 2, 1], [1, 0, 0], [1, 2, 1]])
        j = parent_configs(rows, [0, 1], [2, 3, 2], 6)
        assert j.tolist() == [2, 3, 5]

    @pytest.mark.parametrize("cards, width", [
        ([16, 16], np.uint8), ([1, 256], np.uint8), ([1, 257, 1], np.uint16),
        ([256, 256], np.uint16), ([65537], np.uint32),
        ([65536, 65536], np.uint32), ([641, 6700417], np.intp)])
    def test_key_width_boundaries(self, cards, width):
        # q = 256, 257, 65536, 65537, 2**32 and 2**32 + 1 (= 641 * 6700417):
        # the key is the narrowest width holding q - 1, and equal to a
        # Python-int reference on the first, last and some random
        # configurations.  [1, 256] needs no radix of 256 in its one-byte
        # key.
        rng = np.random.default_rng(math.prod(cards))
        rows = np.array([[0] * len(cards), [r - 1 for r in cards],
                         *([int(rng.integers(r)) for r in cards]
                           for _ in range(6))])
        parents = list(range(len(cards)))
        ref = [functools.reduce(lambda j, p: j * cards[p] + int(row[p]),
                                parents, 0) for row in rows]
        j = parent_configs(rows, parents, cards, math.prod(cards))
        assert j.dtype == width
        assert j.tolist() == ref
        assert ref[1] == math.prod(cards) - 1

    def test_numpy_int_cardinalities(self):
        # Cardinalities read off the data are numpy ints; the key keeps
        # its narrow width.
        rows = np.array([[0, 1, 2], [1, 0, 1]])
        ds = Dataset(["a", "b", "c"], list(rows.max(axis=0) + 1), rows)
        assert parent_configs(ds.rows, [1, 2], ds.cardinalities, 6).dtype \
            == np.uint8
        assert count_statistics(ds, 0, [1, 2]).counts.tolist() == [
            [0, 0], [0, 1], [0, 0], [0, 0], [0, 0], [1, 0]]
        assert all(type(r) is int for r in ds.cardinalities)

    def test_numpy_int_cardinalities_too_wide(self):
        # 2**66 cells: a product of 66 numpy-int radices would wrap to 0.
        rows = np.array([[0] * 66, [1] * 66])
        ds = Dataset([f"v{i}" for i in range(66)],
                     list(rows.max(axis=0) + 1), rows)
        with pytest.raises(DataError, match="family of v0 is too wide to "
                                            "count"):
            count_statistics(ds, 0, range(1, 66))

    def test_key_past_intp_refused(self):
        # 45 ternary columns: the last configuration is 3**45 - 1, which
        # int64 arithmetic would wrap to 2,833,654,757,305,440,082.
        ds = Dataset([f"v{i}" for i in range(45)], [3] * 45,
                     np.full((2, 45), 2))
        with pytest.raises(DataError, match=rf"family of v0 is too wide to "
                                            rf"count: q \* r = {3 ** 45} "):
            count_statistics(ds, 0, range(1, 45))

    def test_family_counts(self):
        ds = Dataset(["a", "b"], [2, 3], [[0, 2], [1, 0], [1, 2], [1, 2]])
        assert count_statistics(ds, 1, [0]).counts.tolist() == [
            [0, 0, 1], [1, 0, 2]]
        assert count_statistics(ds, 0, []).counts.tolist() == [[1, 3]]
        empty = Dataset(["a", "b"], [2, 3], np.zeros((0, 2)))
        assert count_statistics(empty, 1, [0]).counts.tolist() == [
            [0] * 3] * 2
        # No state for a: q * r = 0, so the 300 is never multiplied into
        # a one-byte key.
        stateless = Dataset(["a", "b", "c"], [0, 2, 300], np.zeros((0, 3)))
        assert count_statistics(stateless, 0, [1, 2]).counts.shape == (600, 0)

    @pytest.mark.parametrize("m", [0, 1, 37, 500])
    def test_equal_to_reference_in_either_layout(self, m):
        rng = np.random.default_rng(m)
        cards = [1, 2, 3, 4, 2, 3]
        c_rows = np.ascontiguousarray(
            np.column_stack([rng.integers(r, size=m) for r in cards]))
        names = [f"v{i}" for i in range(len(cards))]
        for rows in (c_rows, np.asfortranarray(c_rows)):
            ds = Dataset(names, cards, rows)
            for y in range(len(cards)):
                others = [v for v in range(len(cards)) if v != y]
                for k in range(5):
                    for parents in map(list, itertools.combinations(others, k)):
                        j_ref, ref = counts_reference(rows, y, parents, cards)
                        j = parent_configs(rows, parents, cards,
                                           len(ref))
                        assert np.array_equal(j, j_ref)
                        table = count_statistics(ds, y, parents).counts
                        assert table.dtype == ref.dtype
                        assert table.shape == ref.shape
                        assert np.array_equal(table, ref)


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

    def test_negative_seed_refused(self):
        with pytest.raises(ValueError, match="seed must be non-negative, "
                                             "not -1"):
            sample(small_net(), 5, seed=-1)

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

    @pytest.mark.parametrize("structure, message", [
        (PartialDag.from_edges(2, links=[(0, 1)]), "requires a DAG"),
        (PartialDag.from_edges(2, arcs=[(0, 1)]), "arity mismatch")],
        ids=["link", "arity"])
    def test_structure_refused(self, structure, message):
        ds = Dataset(["y"], [2], np.array([[0], [1]]))
        with pytest.raises(DataError, match=message):
            fit_parameters(structure, ds)

    @pytest.mark.parametrize("smoothing", [float("nan"), -1.0,
                                           float("inf")])
    def test_bad_smoothing_refused(self, smoothing):
        ds = Dataset(["y"], [2], np.array([[0], [1]]))
        with pytest.raises(ValueError, match="smoothing"):
            fit_parameters(PartialDag(1), ds, smoothing=smoothing)


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


class TestVariableChecks:
    """Datasets and networks share one variable-list check; networks also
    require non-negative table rows that sum to 1."""

    @pytest.mark.parametrize("names, cards, labels", [
        (["a", "a"], [2, 2], None),
        (["a", "b"], [2], None),
        (["a", "b"], [2, 2], [["0", "1", "2"], ["0", "1"]]),
        (["a", "b"], [2, 2], [["0", "0"], ["0", "1"]]),
        (["a", "b"], [2, 2], [["0", "1"]]),
    ])
    def test_bad_variable_list_rejected(self, names, cards, labels):
        with pytest.raises(DataError):
            BayesNet(names, cards, PartialDag(2), state_labels=labels)
        with pytest.raises(DataError):
            Dataset(names, cards, np.zeros((1, 2), np.int64), labels)

    @pytest.mark.parametrize("row", [[math.nan, 1.0], [1.5, -0.5],
                                     [math.inf, 0.0]])
    def test_bad_table_rejected(self, row):
        with pytest.raises(DataError, match="non-negative and sum to 1"):
            BayesNet(["y"], [2], PartialDag(1), [np.array([row])])

    @pytest.mark.parametrize("labels, name", [
        ([[0, "0"], ["0", "1"]], "a"), ([["0", "1"], [b"0", b"1"]], "b")])
    def test_non_string_labels_rejected(self, labels, name):
        # 0 and "0" are distinct but would be written as the same token.
        message = f"variable {name} has a state label that is not a string"
        with pytest.raises(DataError, match=message):
            BayesNet(["a", "b"], [2, 2], PartialDag(2), state_labels=labels)
        with pytest.raises(DataError, match=message):
            Dataset(["a", "b"], [2, 2], np.zeros((1, 2), np.int64), labels)

    @pytest.mark.parametrize("build, message", [
        # Rows must be an (m, n) table of whole numbers: none is reshaped
        # or truncated.
        (lambda: Dataset(["a", "b"], [2, 2], [[0, 1, 1], [1, 0, 0]]),
         r"rows must be an \(m, 2\) table, got shape \(2, 3\)"),
        (lambda: Dataset(["a", "b"], [2, 2], np.zeros((4, 3), int)),
         r"rows must be an \(m, 2\) table, got shape \(4, 3\)"),
        (lambda: Dataset(["a"], [2], [[0.7], [1.9]]),
         "variable a has a cell that is not a whole number"),
        (lambda: Dataset(["a", "b"], [2, 2], [[0.0, 1.0], [1.0, math.nan]]),
         "variable b has a cell that is not a whole number"),
        (lambda: Dataset(["a", "b"], [2, 3], [[0, 2], [1, 3]]),
         "cell index out of range for variable b"),
        (lambda: Dataset(["a"], [2], [[-1]]),
         "cell index out of range for variable a"),
        (lambda: Dataset(["a"], [2.5], [[0]]),
         "a cardinality is not an integer"),
        (lambda: BayesNet(["a"], [2.5], PartialDag(1)),
         "a cardinality is not an integer"),
        (lambda: BayesNet(["a", "b"], [2, 2], PartialDag(3)),
         "structure/variable count mismatch"),
        (lambda: BayesNet(["a", "b"], [2, 2],
                          PartialDag.from_edges(2, links=[(0, 1)]),
                          [np.full((1, 2), 0.5)] * 2),
         "parameterized network must be a DAG"),
        (lambda: BayesNet(["a", "b"], [2, 2], PartialDag(2),
                          [np.full((1, 2), 0.5)]),
         "one table per variable required"),
        (lambda: BayesNet(["a", "b"], [2, 2],
                          PartialDag.from_edges(2, arcs=[(0, 1)]),
                          [np.full((1, 2), 0.5)] * 2),
         r"table shape mismatch for variable b: \(1, 2\)"),
    ])
    def test_documented_messages(self, build, message):
        with pytest.raises(DataError, match=message):
            build()

    @pytest.mark.parametrize("rows, name", [([["x", 0]], "a"),
                                            ([[0, None]], "b")])
    def test_cell_int_cannot_read(self, rows, name):
        message = f"variable {name} has a cell that is not a whole number"
        with pytest.raises(DataError, match=message):
            Dataset(["a", "b"], [2, 2], rows)
