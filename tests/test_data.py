import collections
import csv
import functools
import hashlib
import io
import itertools
import math
import string
import sys
import tracemalloc
from importlib.resources import files

import numpy as np
import pytest

from conftest import random_dag, random_network
from rpdaglearn import data
from rpdaglearn.data import (CSV_BLOCK_BYTES, CSV_BLOCK_ROWS,
                             CSV_HEADER_BYTES, BayesNet, DataError, Dataset,
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
    with open(path, newline="", encoding="utf-8-sig") as fh:
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


def sample_oracle(net, m, seed):
    """The sampler that sample replaced, kept as the reference: each row's
    uniform draw compared with all of its cumulative bounds at once, as an
    m x r matrix."""
    rng = np.random.default_rng(seed)
    rows = np.zeros((m, len(net.cardinalities)), np.int64)
    for y in net.structure.topological_order():
        table = net.cpts[y]
        j = parent_configs(rows, net.parents(y), net.cardinalities,
                           len(table))
        u = rng.random(m)
        cum = np.cumsum(table, axis=1)
        drawn = (u[:, None] > cum[j]).sum(axis=1)
        rows[:, y] = np.minimum(drawn, net.cardinalities[y] - 1)
    return rows


def awkward_tables(g, cards, rng):
    """Dirichlet tables for g with zero-probability states and rows scaled
    a hair under 1."""
    cpts = []
    for y in range(len(cards)):
        q = math.prod(cards[x] for x in sorted(g.pa(y)))
        table = rng.dirichlet(np.ones(cards[y]), size=q)
        table[rng.random(table.shape) < 0.3] = 0.0
        table[np.arange(q), rng.integers(cards[y], size=q)] += 0.01
        table /= table.sum(axis=1, keepdims=True)
        table[rng.random(q) < 0.5] *= 1 - 1e-10
        cpts.append(table)
    return cpts


def awkward_network(seed, n=6):
    """Random net with one-state variables, one 256-state variable and
    awkward tables."""
    rng = np.random.default_rng(seed)
    g = random_dag(n, rng)
    cards = [int(rng.integers(1, 4)) for _ in range(n)]
    cards[int(rng.integers(n))] = 256
    return BayesNet([f"v{i}" for i in range(n)], cards, g,
                    awkward_tables(g, cards, rng))


def wide_states_network(seed):
    """Fixed net stored in uint16 rows, with awkward tables: a 300-state
    variable with a parent, a 256-state child of three parents (one of
    them one-state) and a child of both, whose key needs 32 bits."""
    g = PartialDag.from_edges(6, arcs=[(1, 2), (1, 3), (0, 4), (1, 4),
                                       (2, 4), (3, 5), (4, 5)])
    cards = [1, 3, 2, 300, 256, 2]
    return BayesNet([f"v{i}" for i in range(6)], cards, g,
                    awkward_tables(g, cards, np.random.default_rng(seed)))


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
        # A block's token ids take index_dtype of the tokens seen so far:
        # 200 tokens in the first block (uint8), then 4,097 more (uint16).
        # With the 32-bit width lowered to 4,096 tokens, the first block's
        # ids fit it and every later block's are intp.  Quoted fields keep
        # the file on the csv.reader path.
        path = tmp_path / "d.csv"
        cells = np.r_[np.arange(CSV_BLOCK_ROWS) % 200,
                      200 + np.arange(CSV_BLOCK_ROWS + 1)].astype(str)
        assert_decodes_like_oracle(path, ["a"], cells[:, None], "?",
                                   csv.QUOTE_ALL)
        assert data._byte_token_ids(path) is None

        def widths():
            with open(path, newline="") as fh:
                return [b.dtype for b in
                        data._token_ids(csv.reader(fh), path)[1]]

        assert widths() == [np.uint8, np.uint16, np.uint16]
        monkeypatch.setattr(data, "_WIDTHS",
                            [(CSV_BLOCK_ROWS - 1, np.dtype(np.uint32))])
        assert widths() == [np.uint32, np.intp, np.intp]

    def test_peak_memory(self, tmp_path, monkeypatch):
        # The csv.reader path.  Derived bound, per cell: at most 4 bytes of
        # token ids (1 byte here, and one block's in the width of its
        # bound before they are narrowed) and the rows' own itemsize (1
        # byte for these 2-3 state variables); per row, two int64 column
        # temporaries while one column is mapped; and one block of records
        # (the sampled labels are one-character strings, which CPython
        # shares rather than allocates).
        monkeypatch.setattr(data, "_byte_token_ids", lambda path: None)
        path, n = tmp_path / "d.csv", 10
        save_csv(sample(random_network(n, 5), 20000, seed=5), path)
        ds, peak = traced_peak(load_csv, path)
        assert ds.rows.itemsize == 1
        cells = ds.m * n
        bound = (cells * (4 + ds.rows.itemsize) + 2 * 8 * ds.m
                 + CSV_BLOCK_ROWS * sys.getsizeof([None] * n))
        assert peak <= bound, (peak / cells, bound / cells)

    def test_peak_memory_byte_path(self, tmp_path, monkeypatch):
        # Derived bound, per cell: 1 byte of token ids (at most 256
        # distinct tokens) and the rows' itemsize; per row, two int64
        # column temporaries while one column is mapped; the intp id
        # table and one bincount of as many codes, 2**16 entries each;
        # and one block's temporaries, each at most a byte's worth of
        # tokens: block copies (3 bytes), the delimiter masks (3), the
        # token ends (8), lengths (4), the aligned windows (2 + 1), the
        # codes and their transpose (2 + 2) and the intp ids (8).
        path, n = tmp_path / "d.csv", 10
        save_csv(sample(random_network(n, 5), 20000, seed=5), path)

        def refuse(reader, path):
            raise AssertionError("read by csv.reader")

        monkeypatch.setattr(data, "_token_ids", refuse)
        ds, peak = traced_peak(load_csv, path)
        assert ds.rows.itemsize == 1
        cells = ds.m * n
        bound = (cells * (1 + ds.rows.itemsize) + 2 * 8 * ds.m
                 + 2 * 8 * 2 ** 16 + 33 * CSV_BLOCK_BYTES)
        assert peak <= bound, (peak / cells, bound / cells)


def traced_peak(f, *args):
    """f(*args) and the peak memory tracemalloc saw while it ran."""
    tracemalloc.start()
    try:
        out = f(*args)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# Tokens of 0 to 2 UTF-8 bytes with no '"', NUL, CR, LF or comma, which
# the byte path decodes.  "\x85" ends a line for str.splitlines but not
# for csv.reader.
BYTE_TOKENS = ["", "a", "b", "?", "10", "9", " p", "x ", "NA", "\u00fc",
               "\u00e9", "\x85", "\x7f~"]


# One-byte tokens the fixed-offset case reads, "?" the missing token.
ONE_BYTE_TOKENS = ["0", "1", "2", "9", "?", "a", "Z", " ", "~", "\x7f",
                   "\x01", "\t"]


def count_block_decodes(monkeypatch):
    """Counts of the _ByteDecoder block decodes from now on, by (name,
    whether it gave ids)."""
    counts = collections.Counter()
    for name in ("_one_byte_ids", "_ids"):
        def counted(self, buf, decode=getattr(data._ByteDecoder, name),
                    name=name):
            ids = decode(self, buf)
            counts[name, ids is not None] += 1
            return ids
        monkeypatch.setattr(data._ByteDecoder, name, counted)
    return counts


def load_outcome(path, missing="?"):
    """What load_csv gives for ``path``: its dataset's parts, or the
    message of the DataError it raises."""
    try:
        ds = load_csv(path, missing)
    except DataError as exc:
        return str(exc)
    return (ds.variable_names, ds.state_labels, ds.rows.dtype,
            ds.rows.tolist())


class TestBytePath:
    """A plain file is decoded as bytes by data._byte_token_ids; any other
    is read again from its start by csv.reader.  Either way load_csv gives
    what load_csv_oracle gives, or csv.reader's error."""

    @pytest.mark.parametrize("seed", range(24))
    def test_equals_oracle(self, tmp_path, monkeypatch, seed):
        rng = np.random.default_rng(seed)
        # Blocks down to one byte, so records straddle block ends and
        # outgrow whole blocks; at the real size, files of a few blocks.
        block = [1, 7, 64, CSV_BLOCK_BYTES][seed % 4]
        monkeypatch.setattr(data, "CSV_BLOCK_BYTES", block)
        n = [1, 2, 5][seed % 3]
        m = int(rng.integers(0, 20000 if block == CSV_BLOCK_BYTES else 300))
        # With n = 1 an empty field would be a blank line.
        tokens = BYTE_TOKENS[n == 1:]
        cells = rng.choice(tokens, size=(m, n))
        if n > 1 and seed % 5 == 0:
            cells[:, -1] = ""   # every record ends in a comma
        kind = int(rng.integers(3))   # LF, CRLF or mixed line ends
        eols = (rng.choice(["\n", "\r\n"], size=m + 1) if kind == 2
                else [["\n", "\r\n"][kind]] * (m + 1))
        # Header names are not bound by the token length.
        names = [f"v{i} \u65e5\u672c" for i in range(n)]
        lines = [",".join(names)] + [",".join(row) for row in cells.tolist()]
        text = "".join(line + eol for line, eol in zip(lines, eols))
        if rng.random() < 0.5:
            text = text.removesuffix(eols[-1])
        if rng.random() < 0.5:
            text = "\ufeff" + text
        path = tmp_path / "d.csv"
        path.write_bytes(text.encode())
        assert data._byte_token_ids(path) is not None
        ds = load_csv(path)
        header, labels, rows = load_csv_oracle(path)
        assert ds.variable_names == header == names
        assert ds.state_labels == labels
        assert ds.rows.dtype == rows.dtype and np.array_equal(ds.rows, rows)

    @pytest.mark.parametrize("seed", range(24))
    def test_one_byte_tokens_equal_oracle(self, tmp_path, monkeypatch,
                                          seed):
        # Files whose tokens are all one ASCII byte.  With one kind of
        # line end every block is read at fixed offsets; with both, a
        # block holding both goes through the general byte decode.
        rng = np.random.default_rng(seed)
        block = [1, 7, 64, CSV_BLOCK_BYTES][seed % 4]
        monkeypatch.setattr(data, "CSV_BLOCK_BYTES", block)
        n = [1, 2, 5][seed % 3]
        m = int(rng.integers(1, 20000 if block == CSV_BLOCK_BYTES else 300))
        cells = rng.choice(ONE_BYTE_TOKENS, size=(m, n))
        kind = seed // 4 % 3   # LF, CRLF or mixed line ends
        eols = (rng.choice(["\n", "\r\n"], size=m + 1) if kind == 2
                else [["\n", "\r\n"][kind]] * (m + 1))
        lines = [",".join(f"v{i}" for i in range(n))]
        lines += [",".join(row) for row in cells.tolist()]
        text = "".join(line + eol for line, eol in zip(lines, eols))
        if seed % 5 == 0:
            text = text.removesuffix(eols[-1])
        if seed % 7 < 3:
            text = "\ufeff" + text
        path = tmp_path / "d.csv"
        path.write_bytes(text.encode())
        decodes = count_block_decodes(monkeypatch)
        ds = load_csv(path)
        if kind < 2:
            assert set(decodes) == {("_one_byte_ids", True)}
        header, labels, rows = load_csv_oracle(path)
        assert ds.variable_names == header
        assert ds.state_labels == labels
        assert ds.rows.dtype == rows.dtype and np.array_equal(ds.rows, rows)

    @pytest.mark.parametrize("block", [7, 64, CSV_BLOCK_BYTES])
    @pytest.mark.parametrize("n", [1, 3])
    @pytest.mark.parametrize("late", [
        "ab",     # a two-byte token
        "",       # a blank line (n = 1) or an empty field
        "\r",     # a CR as a token
    ])
    def test_later_block_leaves_fixed_offsets(self, tmp_path, monkeypatch,
                                              block, n, late):
        # Blocks of one-byte tokens, then one that is not: the same
        # outcome as csv.reader alone gives, the first blocks read at
        # fixed offsets and the later one by the general byte decode,
        # which leaves a CR and a blank line to csv.reader.
        monkeypatch.setattr(data, "CSV_BLOCK_BYTES", block)
        rng = np.random.default_rng(n)
        cells = rng.choice(ONE_BYTE_TOKENS, size=(3 * block // (2 * n), n))
        lines = [",".join(row) for row in cells.tolist()]
        lines.append(",".join([late] + ["0"] * (n - 1)))
        lines += [",".join(row) for row in cells[:5].tolist()]
        path = tmp_path / "d.csv"
        header = ",".join(f"v{i}" for i in range(n))
        path.write_bytes("".join(line + "\n" for line in [header, *lines])
                         .encode())
        decodes = count_block_decodes(monkeypatch)
        got = load_outcome(path)
        # An empty field among others is plain; a blank line is not.
        plain = late == "ab" or (late == "" and n > 1)
        assert decodes["_one_byte_ids", True] > 1
        assert decodes["_ids", plain] == 1
        if plain:
            header, labels, rows = load_csv_oracle(path)
            assert got == (header, labels, rows.dtype, rows.tolist())
        monkeypatch.setattr(data, "_byte_token_ids", lambda path: None)
        assert load_outcome(path) == got

    @pytest.mark.parametrize("token", [b",", b'"', b"\0", b"\x80", b"\xe9",
                                       b"\xff"])
    @pytest.mark.parametrize("eol", [b"\n", b"\r\n"])
    def test_impossible_token_byte_at_fixed_offsets(self, tmp_path,
                                                    monkeypatch, token, eol):
        # In a token's place of a fixed-offset record: the outcome
        # csv.reader alone gives, which for a byte past ASCII is that the
        # file is not UTF-8.
        lines = [b"a,b", b"1,2", b"3,4", token + b",5", b"6,7"]
        path = tmp_path / "d.csv"
        path.write_bytes(b"".join(line + eol for line in lines))
        got = load_outcome(path)
        if token[0] >= 0x80:
            assert isinstance(got, str) and got.startswith(
                f"{path}: not UTF-8")
        monkeypatch.setattr(data, "_byte_token_ids", lambda path: None)
        assert load_outcome(path) == got

    @pytest.mark.parametrize("raw", [
        b"a,b\r\n1,2\r\n3,45\n6,7\r\n",    # a token byte where a CR goes
        b"a,b\r\n1,2\r\n3,4\r\r\n",        # a CR where a token byte goes
        b"a,b\n1,2\n345\n6,7\n",           # a token byte where a comma goes
        b"a,b\n1,2\n3,\n\n5,6\n",          # an empty field, then a blank line
        b"a\nx\n\ry\n",                     # a CR token and a blank line
        b"a\r\nx\r\nyz\n",                  # ... and at the end
    ])
    def test_records_as_long_as_fixed_offsets(self, tmp_path, monkeypatch,
                                              raw):
        # Records of the fixed-offset width whose bytes are laid out
        # otherwise: the outcome csv.reader alone gives.
        path = tmp_path / "d.csv"
        path.write_bytes(raw)
        got = load_outcome(path)
        monkeypatch.setattr(data, "_byte_token_ids", lambda path: None)
        assert load_outcome(path) == got

    def test_saved_sample_read_at_fixed_offsets(self, tmp_path, monkeypatch):
        # Up to 10 states, labelled "0" ... "9": every block of the saved
        # file is read at fixed offsets, so both general decodes refuse.
        rng = np.random.default_rng(10)
        g = random_dag(7, rng, 0.4)
        cards = [int(rng.integers(1, 11)) for _ in range(7)]
        cards[0] = 10
        cpts = [rng.dirichlet(np.ones(cards[y]),
                              size=math.prod(cards[x] for x in g.pa(y)))
                for y in range(7)]
        net = BayesNet([f"v{i}" for i in range(7)], cards, g, cpts)
        ds = sample(net, 3 * CSV_BLOCK_ROWS, seed=10)
        save_csv(ds, tmp_path / "d.csv")

        def refuse(*args):
            raise AssertionError("read by the general decode")

        monkeypatch.setattr(data._ByteDecoder, "_ids", refuse)
        monkeypatch.setattr(data, "_token_ids", refuse)
        back = load_csv(tmp_path / "d.csv")
        assert back.variable_names == ds.variable_names
        assert back.state_labels == ds.state_labels
        assert np.array_equal(back.rows, ds.rows)

    @pytest.mark.parametrize("raw, message", [
        (b'a,b\n"x",y\n1,2\n', None),             # a quote
        (b"a,b\nx\0,y\n", None),                   # NUL (refused by 3.10)
        (b"a,b\n1,2\r3,4\n", None),               # a bare CR
        (b"a,b\r1,2\n", None),                    # a bare CR in the header
        (b"a\nx\ry\n", None),                      # a bare CR in a token
        (b"a,b\nx\ry,1\n", "d.csv:2: expected 2 fields, got 1"),
        (b"a,b\n123,2\n", None),                  # a 3-byte token
        ("a,b\n1,\u65e5\n".encode(), None),       # a 3-byte character
        ("a,b\n1,\ufeffb\n".encode(), None),      # a BOM inside the file
        (b"a,b\n1,2\n3,456\n" * 3000, None),     # past the first block
        (b"a,b\n1,2\n3,456", None),               # ... and no final LF
        (b"a\nx\n\ny\n", "d.csv:3: expected 1 fields, got 0"),   # blank
        (b"a\r\nx\r\n\r\ny\r\n", "d.csv:3: expected 1 fields, got 0"),
        (b"a,b\n1,2\n\n3,4\n", "d.csv:3: expected 2 fields, got 0"),
        (b"\na,b\n1,2\n", "d.csv: header has no fields"),
        (b"", "d.csv: empty file"),
        (b"\xef\xbb\xbf", "d.csv: empty file"),
        (b"a,a\n1,2\n", "d.csv: duplicate header names"),
        (b"a,b\n\xff,1\n", "d.csv: not UTF-8"),
        (b"a,b\n\xc3(,1\n", "d.csv: not UTF-8"),  # an invalid 2-byte token
        (b"\xffa,b\n1,2\n", "d.csv: not UTF-8"),
        (b"a,b\n" + b"x" * (csv.field_size_limit() + 1) + b",1\n",
         f"d.csv:2: field larger than field limit "
         f"({csv.field_size_limit()})"),
        (b"a," + b"x" * (csv.field_size_limit() + 1) + b"\n1,2\n",
         f"d.csv:1: field larger than field limit "
         f"({csv.field_size_limit()})"),
        (b"a,b\n1,2\n3\n", "d.csv:3: expected 2 fields, got 1"),
        (b"a,b\n1,2\n3,4,5\n", "d.csv:3: expected 2 fields, got 3"),
        # A ragged record past the first byte block.
        (b"a,b\n" + b"1,2\n" * 20000 + b"3\n",
         "d.csv:20002: expected 2 fields, got 1"),
        (b"a\n" + b"1," * 100 + b"1\n", "d.csv:2: expected 1 fields, got 101"),
    ])
    def test_other_files_read_by_csv_reader(self, tmp_path, monkeypatch, raw,
                                            message):
        path = tmp_path / "d.csv"
        path.write_bytes(raw)
        assert data._byte_token_ids(path) is None
        got = load_outcome(path)
        if message is None:
            header, labels, rows = load_csv_oracle(path)
            assert got == (header, labels, rows.dtype, rows.tolist())
        else:
            assert isinstance(got, str) and got.startswith(
                f"{path.parent}/{message}")
        # The same as csv.reader alone gives.
        monkeypatch.setattr(data, "_byte_token_ids", lambda path: None)
        assert load_outcome(path) == got

    def test_saved_sample_takes_byte_path(self, tmp_path, monkeypatch):
        # A silent fall-back on every file would show here.
        ds = sample(random_network(8, 3), 3 * CSV_BLOCK_ROWS, seed=3)
        save_csv(ds, tmp_path / "d.csv")

        def refuse(reader, path):
            raise AssertionError("read by csv.reader")

        monkeypatch.setattr(data, "_token_ids", refuse)
        back = load_csv(tmp_path / "d.csv")
        assert back.variable_names == ds.variable_names
        assert back.state_labels == ds.state_labels
        assert np.array_equal(back.rows, ds.rows)

    def test_ids_widen_with_the_tokens_seen(self, tmp_path):
        # The byte path's twin of TestLoadCsv.test_ids_widen_past_int32: a
        # block's ids take the narrowest width that holds every id so far.
        # 200 tokens fill the first blocks (uint8); then 2,704 distinct
        # 2-letter tokens pass 256 (uint16).
        pairs = [a + b for a in string.ascii_letters
                 for b in string.ascii_letters]
        cells = [pairs[i % 200] for i in range(2 * CSV_BLOCK_BYTES // 3)]
        cells += pairs * 3
        path = tmp_path / "d.csv"
        path.write_text("a\n" + "".join(c + "\n" for c in cells))
        blocks = data._byte_token_ids(path)[1]
        widths = [b.dtype for b in blocks]
        assert widths[0] == np.uint8 and widths[-1] == np.uint16
        assert widths == sorted(widths, key=lambda t: t.itemsize)
        ds = load_csv(path)
        header, labels, rows = load_csv_oracle(path)
        assert ds.state_labels == labels
        assert ds.rows.dtype == rows.dtype and np.array_equal(ds.rows, rows)

    def test_cr_line_ends_not_read_whole(self, tmp_path):
        # A file with CR line ends has no LF, so its header line would be
        # the whole file: the byte path reads at most CSV_HEADER_BYTES + 1
        # bytes of it (held twice while readline returns) before it leaves
        # the file to csv.reader.  The file is 8 times as long.
        path = tmp_path / "d.csv"
        path.write_bytes(b"a,b\r" + b"1,2\r" * (2 * CSV_HEADER_BYTES))
        parsed, peak = traced_peak(data._byte_token_ids, path)
        assert parsed is None
        assert peak < 3 * CSV_HEADER_BYTES
        header, labels, rows = load_csv_oracle(path)
        assert load_outcome(path) == (header, labels, rows.dtype,
                                      rows.tolist())


class TestSaveCsv:
    @pytest.mark.parametrize("m", [0, 1, 200, CSV_BLOCK_ROWS - 1,
                                   CSV_BLOCK_ROWS, CSV_BLOCK_ROWS + 1,
                                   2 * CSV_BLOCK_ROWS + 1])
    def test_bytes_equal_per_row_writer(self, tmp_path, m):
        rng = np.random.default_rng(m)
        # (names, labels, whether every column's written labels have one
        # UTF-8 width, so save_csv writes the file as bytes)
        for names, labels, fixed in [
                (["c,1", 'c"2', "c\n3", "c4"],
                 [["?", "a,b", 'q"uote'], ["x\ny", "", "\u00e9t\u00e9", "?"],
                  ["0"], ["plain", "with space "]], False),
                # A lone empty field is written '""', unlike one among
                # others.
                (["c"], [["", "a", "x,y"]], False),
                # Multi-byte UTF-8 labels of 2 and 3 bytes.
                (["a", "b"], [["\u00e9", "\u00fc", "ab"],
                              ["\u65e5", "\u672c", "xyz"]], True),
                # Every label quoted, each to 5 bytes.
                (["q", "p"], [["x,y", "x\ny", 'a"'], ["0", "1"]], True),
                # A one-state column labelled "": written as no bytes.
                (["a", "e", "b"], [["0", "1"], [""], ["x", "y", "z"]], True),
                (["c"], [["ab", "cd", "ef"]], True),
                # uint16 rows.
                (["w", "x"], [[f"{k:03}" for k in range(300)], ["0", "1"]],
                 True),
                # A ragged column beside fixed-width ones.
                (["a", "r", "b"], [["0", "1"], ["x", "yy"], ["p", "q"]],
                 False)]:
            rows = np.column_stack([rng.integers(len(a), size=m)
                                    for a in labels])
            ds = Dataset(names, [len(a) for a in labels], rows, labels)
            record = data._csv_record()
            assert fixed == all(
                data._byte_table(data._csv_fields(a, ds.n, record))
                is not None
                for a in labels)
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

    def test_no_variables_written_as_header_alone(self, tmp_path):
        # Records of no fields would be blank lines.
        save_csv(Dataset([], [], np.zeros((5, 0))), tmp_path / "d.csv")
        assert (tmp_path / "d.csv").read_bytes() == b"\r\n"

    def test_peak_memory(self, tmp_path):
        # Derived bound, for one block of B rows whatever m is: n object
        # pointers a row for the gathered columns, and each record three
        # times over (its str, the block's str and the block's encoded
        # bytes) plus a list slot while the block is joined.
        m, n = 50000, 4
        ds = Dataset([f"v{i}" for i in range(n)], [3] * n,
                     np.random.default_rng(0).integers(3, size=(m, n)))
        tracemalloc.start()
        try:
            save_csv(ds, tmp_path / "d.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        record = ",".join(["0"] * n)
        bound = CSV_BLOCK_ROWS * (8 * n + sys.getsizeof(record) + 8
                                  + 2 * len(record + "\r\n"))
        assert peak <= bound, (peak, bound)

    def test_peak_memory_byte_path(self, tmp_path):
        # Derived bound, for one block of B rows whatever m is: the
        # (B, record bytes) uint8 block; one column's gather, its B x 1
        # byte slice and the B x 8-byte intp copy of the state column that
        # np.take makes; per column, its quoted labels and byte table,
        # under 1 KiB for two 1-byte labels; and the 128 KiB (32,768 UCS4
        # characters) record buffer that a csv.writer allocates for the
        # labels and the header, and the file's buffer.  The string path
        # holds some 260 bytes a row for this block, so it fails here.
        m, n = 50000, 16
        ds = Dataset([f"v{i}" for i in range(n)], [2] * n,
                     np.random.default_rng(0).integers(2, size=(m, n)))
        record = len(",".join(["0"] * n) + "\r\n")
        _, peak = traced_peak(save_csv, ds, tmp_path / "d.csv")
        bound = (CSV_BLOCK_ROWS * (record + 1 + 8) + n * 1024 + 4 * 2 ** 15
                 + io.DEFAULT_BUFFER_SIZE)
        assert peak <= bound, (peak, bound)

    def test_gold8_sample_bytes_pinned(self, tmp_path):
        # Two samples of the bundled gold network, as the installed
        # console script is also checked to write them: a change to sample,
        # parent_configs or save_csv that alters the data shows here.  The
        # 2,000 rows fill one write block, the 50,000 rows 13.
        net = load_network(str(files("rpdaglearn") / "nets" / "gold8.json"))
        for m, seed, digest in [
                (2000, 1, "a2a4dc3c13ae20f2b221bb7648f8c7866d1ebc9e2097792"
                          "3b5911d3431556d5d"),
                (50000, 3, "64696273c4c55ff6a34150803f861930a4c4e32550ec52"
                           "63ab11afe016159be3")]:
            save_csv(sample(net, m, seed=seed), tmp_path / "d.csv")
            assert (hashlib.sha256((tmp_path / "d.csv").read_bytes())
                    .hexdigest() == digest), (m, seed)


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


def per_row_counts(rows, y, parents, cards):
    """Family counts by a Python loop over the rows, parents in ascending
    order with the first most significant."""
    parents = sorted(parents)
    table = [[0] * cards[y] for _ in range(math.prod(cards[p]
                                                     for p in parents))]
    for row in rows.tolist():
        j = 0
        for p in parents:
            j = j * cards[p] + row[p]
        table[j][row[y]] += 1
    return table


# The bitset kernel needs np.bitwise_count (numpy >= 2); without it
# BITSET_MAX_CELLS is 0 and every family takes the bincount kernel.
HAS_POPCOUNT = hasattr(np, "bitwise_count")
needs_popcount = pytest.mark.skipif(not HAS_POPCOUNT,
                                    reason="numpy has no bitwise_count")


class TestCountingKernels:
    """The bitset kernel (tables of at most BITSET_MAX_CELLS cells) and
    the bincount kernel give the same exact counts."""

    @pytest.mark.parametrize("m", [0, 1, 63, 64, 65, 5000])
    def test_kernels_equal_per_row_count(self, monkeypatch, m):
        rng = np.random.default_rng(m)
        # One state, up to five, and 300, which makes the rows uint16.
        # Without rows a variable may have no state.
        cards = [1, 2, 3, 2, 4, 5, 300] + ([0] if m == 0 else [])
        rows = np.column_stack([rng.integers(r, size=m) for r in cards[:7]]
                               + ([np.zeros(0, int)] if m == 0 else []))
        ds = Dataset([f"v{i}" for i in range(len(cards))], cards, rows)
        assert ds.rows.dtype == np.uint16
        for _ in range(40 if m == 5000 else 80):
            family = rng.permutation(len(cards))[:rng.integers(1, 5)]
            if math.prod(cards[v] for v in family) > 5000:
                continue
            y, parents = int(family[0]), [int(v) for v in family[1:]]
            ref = per_row_counts(ds.rows, y, parents, cards)
            # The limit set so that one kernel, then the other, counts.
            for limit in (0, 10 ** 6) if HAS_POPCOUNT else (0,):
                monkeypatch.setattr(data, "BITSET_MAX_CELLS", limit)
                table = count_statistics(ds, y, parents).counts
                assert table.dtype == np.intp
                assert table.tolist() == ref, (limit, y, parents)

    @needs_popcount
    def test_cell_limit(self):
        # Exactly BITSET_MAX_CELLS cells take the bitsets; one more cell,
        # the child's extra state, does not.
        limit = data.BITSET_MAX_CELLS
        rng = np.random.default_rng(limit)
        cards = [2, limit // 2, limit + 1]
        rows = np.column_stack([rng.integers(r, size=200) for r in cards])
        ds = Dataset(["a", "b", "c"], cards, rows)
        assert count_statistics(ds, 1, [0]).counts.tolist() == \
            per_row_counts(ds.rows, 1, [0], cards)
        assert set(ds._bits) == {0, 1}
        assert count_statistics(ds, 2, []).counts.tolist() == \
            per_row_counts(ds.rows, 2, [], cards)
        assert set(ds._bits) == {0, 1}

    def test_bitsets_made_on_first_count_only(self, tmp_path):
        net = random_network(8, seed=8)
        ds = sample(net, 500, seed=8)
        assert ds._bits == {}
        save_csv(ds, tmp_path / "d.csv")
        loaded = load_csv(tmp_path / "d.csv")
        assert ds._bits == {} and loaded._bits == {}
        assert Dataset(ds.variable_names, ds.cardinalities, ds.rows)._bits \
            == {}
        count_statistics(ds, 3, [5, 1])
        read = {1, 3, 5} if HAS_POPCOUNT else set()
        assert set(ds._bits) == read
        # A table past the limit is counted without bitsets.
        wide = list(range(1, 7))
        assert math.prod(ds.cardinalities[v] for v in [0, *wide]) > \
            data.BITSET_MAX_CELLS
        count_statistics(ds, 0, wide)
        assert set(ds._bits) == read

    @needs_popcount
    def test_set_bits_past_uint32(self):
        # A row of 2**26 full words has 2**32 set bits, which uint32 sums
        # would wrap to 0.
        words = np.broadcast_to(np.uint64(2 ** 64 - 1), (1, 2 ** 26))
        assert data._set_bits(words).tolist() == [2 ** 32]

    def test_empty_table_makes_no_bitsets(self):
        # A zero-state variable leaves no cell: the table is empty at once,
        # and no bitset is made for the other member's states.
        ds = Dataset(["a", "b"], [0, 10 ** 7], np.zeros((0, 2)))
        table = count_statistics(ds, 1, [0])
        assert table.counts.shape == (0, 10 ** 7) and ds._bits == {}

    @needs_popcount
    def test_bitset_count_memory(self, monkeypatch):
        # At the limit, with two states in the last variable that splits
        # rows and so the largest next-to-last array, a count allocates no
        # more than the m x 8-byte intp key the bincount kernel copies,
        # and the bincount kernel more.  The one-state child splits no
        # rows.  The dataset keeps the bitsets, as it keeps its rows, so
        # they are made before the measurement.
        m = 200_000
        limit = data.BITSET_MAX_CELLS
        cards = [2, limit // 4, 2, 1]
        rng = np.random.default_rng(m)
        ds = Dataset(["a", "b", "c", "d"], cards, np.column_stack(
            [rng.integers(r, size=m) for r in cards]))
        count_statistics(ds, 3, [0, 1, 2])
        peaks = []
        for kernel_limit in (limit, 0):
            monkeypatch.setattr(data, "BITSET_MAX_CELLS", kernel_limit)
            tracemalloc.start()
            try:
                count_statistics(ds, 3, [0, 1, 2])
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] <= m * 8 <= peaks[1], peaks


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

    @pytest.mark.parametrize("m", [0, 1, 1000, 20000])
    @pytest.mark.parametrize("network, seed", [
        *(pytest.param(awkward_network, s, id=str(s)) for s in range(3)),
        pytest.param(wide_states_network, 0, id="wide")])
    def test_equals_oracle(self, network, m, seed):
        net = network(seed)
        rows = sample(net, m, seed).rows
        assert rows.dtype == narrowest(max(net.cardinalities))
        assert np.array_equal(rows, sample_oracle(net, m, seed))

    def test_memory_per_row(self):
        # Beyond its rows, sample holds the draws, the intp key, one
        # gathered bound and one comparison: 25 bytes a row.
        m = 200000
        net = random_network(12, seed=12, p=0.3)
        ds, peak = traced_peak(sample, net, m, 1)
        assert peak - ds.rows.nbytes <= 32 * m, peak / m

    def test_clamped_to_last_state(self):
        # Rows of half the mass, past what BayesNet accepts, so that u
        # passes the last bound in about half the rows: they must take the
        # last state, 255, which has no mass of its own (a count of 256
        # kept in the rows' uint8 would wrap to state 0).
        net = BayesNet(["y"], [256], PartialDag(1),
                       [np.full((1, 256), 1 / 256)])
        net.cpts[0] = np.append(np.full(255, 0.5 / 255), 0.0)[None, :]
        rows = sample(net, 1000, seed=2).rows
        assert np.array_equal(rows, sample_oracle(net, 1000, seed=2))
        assert 400 < np.count_nonzero(rows == 255) < 600

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

    @pytest.mark.parametrize("smoothing", [1.0, 0.0])
    def test_zero_state_variable_refused(self, tmp_path, smoothing):
        # A header-only CSV loads each variable with no states; the first
        # one is named.
        ds = load_csv(write(tmp_path / "d.csv", "a,b\n"))
        assert ds.cardinalities == [0, 0]
        with pytest.raises(DataError, match="variable a has no states"):
            fit_parameters(PartialDag(2), ds, smoothing=smoothing)

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
