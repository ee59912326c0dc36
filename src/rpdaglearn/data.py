"""Categorical datasets and their family counts, Bayesian networks, CSV
and network-file I/O.

Datasets store rows as unsigned state indices in the narrowest width that
holds them (see :func:`index_dtype`); each variable's alphabet is
fixed at load time (distinct column tokens sorted lexicographically, with
the missing-value token, if present, appended as the last state).  Network
files are JSON documents holding variables, arcs, links, and optional
conditional probability tables.
"""

from __future__ import annotations

import codecs
import collections
import csv
import io
import itertools
import json
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .graph import GraphError, PartialDag, family_key

CPT_ROW_TOL = 1e-9
DEFAULT_MISSING_TOKEN = "?"
CSV_BLOCK_ROWS = 4096  # records per block in save_csv and load_csv's csv path
# Bytes per block on load_csv's byte path.  Not smaller: with glibc's
# malloc, 32 or 64 KiB blocks leave their many small arrays scattered
# through the heap, and the resident peak of repeated loads then differs
# by up to 3 MB from one process to the next; from 128 KiB on every load
# reuses the same heap.
CSV_BLOCK_BYTES = 2 ** 17
CSV_HEADER_BYTES = 2 ** 20  # longest header line the byte path reads
_INTP_MAX = np.iinfo(np.intp).max  # the most cells a count table can index
# Families of at most this many cells are counted from per-state bitsets,
# larger ones by np.bincount: past 40 cells the bitsets stop being faster
# at 5,000 rows, and at 64 the joint bitsets alone, 64 * ceil(m / 64)
# words, would match the m x 8-byte intp key np.bincount copies.  Without
# np.bitwise_count (numpy < 2) every family takes np.bincount, as no
# other popcount measured faster than it.
BITSET_MAX_CELLS = 40 if hasattr(np, "bitwise_count") else 0
# (largest value, type) of each narrow width, for index_dtype.  A width
# must cast safely to intp, as bincount and fancy indexing read intp.
_WIDTHS = [(np.iinfo(t).max, np.dtype(t)) for t in (np.uint8, np.uint16,
                                                      np.uint32)
           if np.can_cast(t, np.intp)]
_JSON_TYPES = {dict: "object", list: "array", str: "string"}
# The bytes that can be a one-byte token of a plain CSV file: ASCII but
# NUL, '"', ',', CR and LF.
_TOKEN_BYTES = np.zeros(256, bool)
_TOKEN_BYTES[1:128] = True
_TOKEN_BYTES[list(b'",\r\n')] = False


class DataError(Exception):
    """Malformed dataset or network file."""


@dataclass
class Dataset:
    """Discrete data table: m rows of state indices over n variables.

    ``rows`` is stored column-major in ``index_dtype`` of the largest
    cardinality (uint8 for up to 256 states).  Other input is checked to
    be whole numbers in range before it is narrowed; input already in
    that width and column-major is kept without a copy.  The rows must
    not change after construction: counts derived from them are kept.
    """

    variable_names: list
    cardinalities: list
    rows: np.ndarray
    state_labels: list = field(default=None)
    # Variable -> its per-state bitsets, made on first use by _state_bits.
    _bits: dict = field(default_factory=dict, init=False, repr=False,
                        compare=False)

    def __post_init__(self):
        self.cardinalities, self.state_labels = _checked_labels(
            self.variable_names, self.cardinalities, self.state_labels)
        self.n = len(self.variable_names)   # read on every score lookup
        rows = np.asarray(self.rows)
        if rows.ndim != 2 or rows.shape[1] != self.n:
            raise DataError(f"rows must be an (m, {self.n}) table, got "
                            f"shape {rows.shape}")
        # Column-major, as counting reads whole columns.
        dtype = index_dtype(max(self.cardinalities, default=0))
        narrow = rows.dtype == dtype
        self.rows = (np.asfortranarray(rows) if narrow
                     else np.empty(rows.shape, dtype, order="F"))
        for i, (name, r) in enumerate(zip(self.variable_names,
                                          self.cardinalities)):
            col = rows[:, i] if narrow else _whole_numbers(rows[:, i], name)
            if col.size and (col.min() < 0 or col.max() >= r):
                raise DataError(f"cell index out of range for variable "
                                f"{name}")
            if not narrow:
                self.rows[:, i] = col

    @property
    def m(self):
        return self.rows.shape[0]


def index_dtype(count):
    """Narrowest of uint8, uint16 and uint32 that holds 0 ... count - 1 and
    casts safely to intp; intp when none does."""
    for top, t in _WIDTHS:
        if count - 1 <= top:
            return t
    return np.dtype(np.intp)


def _whole_numbers(col, name):
    """``col`` as int64, or DataError if a cell is not a whole number."""
    whole = np.empty(col.shape, np.int64)
    try:
        with np.errstate(invalid="ignore"):   # NaN, inf: see below
            whole[:] = col
        ok = np.array_equal(whole, col)
    except (TypeError, ValueError):   # a cell int() cannot read
        ok = False
    if not ok:
        raise DataError(f"variable {name} has a cell that is not a whole "
                        f"number")
    return whole


def _checked_labels(names, cardinalities, state_labels):
    """Cardinalities, as Python ints, and state labels of a variable list
    with unique names, each with one integer cardinality r and r distinct
    string labels ("0" ... "r-1" if none given)."""
    try:   # numpy ints would wrap the products of radices
        cardinalities = [operator.index(r) for r in cardinalities]
    except TypeError:
        raise DataError("a cardinality is not an integer") from None
    if state_labels is None:
        state_labels = [[str(k) for k in range(r)] for r in cardinalities]
    if len(set(names)) != len(names):
        raise DataError("duplicate variable names")
    if not len(names) == len(cardinalities) == len(state_labels):
        raise DataError("variable list lengths differ")
    for name, r, labels in zip(names, cardinalities, state_labels):
        if not all(isinstance(label, str) for label in labels):
            raise DataError(f"variable {name} has a state label that is "
                            f"not a string")
        if len(labels) != r or len(set(labels)) != r:
            raise DataError(f"variable {name} needs {r} distinct labels")
    return cardinalities, state_labels


def load_csv(path, missing_token=DEFAULT_MISSING_TOKEN):
    """Load a comma-separated file with a header row into a Dataset.

    Each column's alphabet is its set of distinct tokens, sorted; the
    missing token becomes an ordinary extra state, placed last.  A plain
    file (see :func:`_byte_token_ids`) is decoded as bytes; any other file
    is read again from its start by ``csv.reader``, which also gives the
    message for a malformed one.
    """
    parsed = _byte_token_ids(path)
    if parsed is None:
        try:
            with open(path, newline="", encoding="utf-8-sig") as fh:
                reader = csv.reader(fh)
                try:
                    parsed = _token_ids(reader, path)
                except csv.Error as exc:
                    raise DataError(f"{path}:{reader.line_num}: "
                                    f"{exc}") from None
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: not UTF-8 ({exc})") from None
    header, blocks, tokens = parsed
    # The file's token ids, column-major, gathered from the blocks once;
    # the blocks are then freed.
    ids = np.empty((sum(map(len, blocks)), len(header)),
                   index_dtype(len(tokens)), order="F")
    start = 0
    for block in blocks:
        ids[start:start + len(block)] = block
        start += len(block)
    del blocks[:]
    # Each column's alphabet, as token ids in state order.
    orders = [sorted(np.flatnonzero(np.bincount(col)).tolist(),
                     key=lambda k: (tokens[k] == missing_token, tokens[k]))
              for col in ids.T]
    dtype = index_dtype(max(map(len, orders), default=0))
    # The state indices overwrite the ids when they have the same width:
    # in its default mode np.take writes to a copy of ``out``, so it may
    # be the index.
    rows = ids if ids.dtype == dtype else np.empty(ids.shape, dtype, "F")
    # Token id -> state index in the column at hand; only the ids present
    # in that column are written and read.
    lookup = np.empty(len(tokens), dtype)
    for i, order in enumerate(orders):
        lookup[order] = np.arange(len(order))
        np.take(lookup, ids[:, i], out=rows[:, i])
    labels = [[tokens[k] for k in order] for order in orders]
    return Dataset(list(header), [len(a) for a in labels], rows, labels)


def _token_ids(reader, path):
    """Header, the file-wide token id of every cell as a list of (k, n)
    blocks in record order, and the tokens in id order.

    Records are decoded CSV_BLOCK_ROWS at a time, so the file is never
    held as Python rows; each block's cells map to ids in one C-level pass.
    """
    header = next(reader, None)
    if header is None:
        raise DataError(f"{path}: empty file")
    if not header:
        raise DataError(f"{path}: header has no fields")
    if len(set(header)) != len(header):
        raise DataError(f"{path}: duplicate header names")
    n = len(header)
    token_id = collections.defaultdict(itertools.count().__next__)
    blocks = []
    while block := list(itertools.islice(reader, CSV_BLOCK_ROWS)):
        if any(map(n.__ne__, map(len, block))):
            raise DataError(_ragged_record(path, n))
        size = len(block) * n
        # Ids count up from 0, so none can reach the tokens seen before
        # this block plus its cells.
        ids = np.fromiter(
            map(token_id.__getitem__, itertools.chain.from_iterable(block)),
            index_dtype(len(token_id) + size), size).reshape(-1, n)
        del block   # else it is held while the next block is read
        blocks.append(_narrow_ids(ids, token_id))
    return header, blocks, list(token_id)


def _narrow_ids(ids, tokens):
    """A block's token ids in the narrowest width that holds every id of
    ``tokens`` so far, so a file of at most 256 distinct tokens keeps one
    byte of ids a cell."""
    return ids.astype(index_dtype(len(tokens)), copy=False)


def _ragged_record(path, n):
    """Message naming the last physical line of the first record of
    ``path`` that does not have n fields.  Only this error path re-reads
    the file."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        for row in reader:
            if len(row) != n:
                return (f"{path}:{reader.line_num}: expected {n} fields, "
                        f"got {len(row)}")
    return f"{path}: changed while it was read"


def _byte_token_ids(path):
    """What :func:`_token_ids` returns for a plain file, decoded as bytes;
    None for any other file.

    A plain file is UTF-8, a leading byte-order mark dropped, with LF or
    CRLF line ends.  It has no '"', NUL, bare CR or blank line, a header
    line of at most CSV_HEADER_BYTES bytes and unique names within the csv
    field limit, records of as many fields as the header, and data tokens
    of at most 2 bytes.  It is read CSV_BLOCK_BYTES at a time, each block
    cut after its last line end.
    """
    with open(path, "rb") as fh:
        # Bounded, so a file with no LF, such as one with CR line ends, is
        # not read whole.
        line = fh.readline(CSV_HEADER_BYTES + 1)
        if len(line) > CSV_HEADER_BYTES:
            return None
        try:
            text = line.removeprefix(codecs.BOM_UTF8).decode()
        except UnicodeDecodeError:
            return None
        text = text.removesuffix("\n").removesuffix("\r")
        header = text.split(",")
        limit = csv.field_size_limit()
        if (not text or any(c in text for c in '"\0\r')
                or len(set(header)) != len(header)
                or max(map(len, header)) > limit):
            return None
        n, longest = len(header), min(2, limit)
        decoder = _ByteDecoder(n, longest)
        rest = b""
        while data := fh.read(CSV_BLOCK_BYTES):
            data = rest + data
            cut = data.rfind(b"\n") + 1
            rest = data[cut:]
            # A plain record has at most n * (longest + 1) bytes before
            # its LF, so a longer tail is never read whole.
            if len(rest) > n * (longest + 1) or not decoder.add(data[:cut]):
                return None
        if rest and not decoder.add(rest + b"\n"):
            return None
    return header, decoder.blocks, decoder.tokens


class _ByteDecoder:
    """File-wide token ids of the blocks of a plain CSV file, found from
    each block's bytes with numpy.

    A token's code is its at most two bytes packed little-endian and
    zero-padded into a uint16; NUL is excluded, so distinct tokens have
    distinct codes.  Codes map to ids through a dense 2**16-entry table,
    and a token is decoded to str once, when its code is first seen.  That
    is the one UTF-8 check, as no UTF-8 character holds a ',', LF or CR byte.
    A block whose tokens are all one ASCII byte is read at fixed offsets
    (see :meth:`_one_byte_ids`); any other goes through :meth:`_ids`.
    """

    def __init__(self, n, longest):
        self.n, self.longest = n, longest
        self.blocks, self.tokens = [], []
        self.table = np.full(2 ** 16, -1, np.intp)

    def add(self, buf):
        """Append the (k, n) ids of ``buf``, k whole lines each ending in
        LF; False, appending nothing, if it is not plain."""
        if not buf:
            return True
        ids = self._one_byte_ids(buf)
        if ids is None:
            ids = self._ids(buf)
            if ids is None:
                return False
        # Column-major, so each column of the block is read contiguously.
        self.blocks.append(_narrow_ids(ids, self.tokens).T)
        return True

    def _one_byte_ids(self, buf):
        """(n, k) ids of ``buf`` when its k records all have n one-byte
        tokens and one line end, so that each is 2n bytes (LF) or 2n + 1
        (CRLF) long; None for any other block.

        Such a block is a (k, width) array whose commas, CRs and LFs sit
        at fixed columns, and whose tokens are every other byte.  Each
        token byte maps through the first 256 entries of the id table;
        one that is unknown, or that no one-byte token can be, maps to a
        value past every id.  As every byte is checked, no delimiter is
        searched for.  The header holds a name of at least one character
        within the csv field limit, so the limit admits one-byte tokens.
        """
        n = self.n
        width = 2 * n + buf.endswith(b"\r\n")
        if len(buf) % width:
            return None
        r = np.frombuffer(buf, np.uint8).reshape(-1, width)
        if not ((r[:, -1] == ord("\n")).all()
                and (r[:, 1:2 * n - 1:2] == ord(",")).all()
                and (width % 2 == 0 or (r[:, -2] == ord("\r")).all())):
            return None
        codes = r[:, 0:2 * n:2].T
        ids, unknown = self._byte_ids(codes)
        if unknown.any():
            new = np.flatnonzero(np.bincount(codes[unknown]))
            if not _TOKEN_BYTES[new].all():
                return None
            first = len(self.tokens)
            self.tokens += map(chr, new.tolist())
            self.table[new] = np.arange(first, len(self.tokens))
            ids, _ = self._byte_ids(codes)
        return ids

    def _byte_ids(self, codes):
        """Ids of one-byte token ``codes``, and where they are unknown."""
        # In the width of one id more than there are tokens, the table's
        # -1s wrap to the largest value, which no id reaches.
        lut = self.table[:256].astype(index_dtype(len(self.tokens) + 1))
        ids = np.take(lut, codes)
        return ids, ids == np.iinfo(lut.dtype).max

    def _ids(self, buf):
        """(n, k) ids of any plain block, from its delimiters' offsets;
        None if it is not plain."""
        if b'"' in buf or b"\0" in buf:
            return None
        n = self.n
        a = np.frombuffer(buf, np.uint8)
        ends = np.flatnonzero((a == ord(",")) | (a == ord("\n")))
        # With k LFs and k * n ends, every n-th of them an LF, each record
        # has n fields.
        if (len(ends) != buf.count(b"\n") * n
                or not np.all(a[ends[n - 1::n]] == ord("\n"))):
            return None
        lens = np.empty(len(ends), np.int32)
        lens[0] = ends[0]
        np.subtract(ends[1:], ends[:-1], out=lens[1:])
        lens[1:] -= 1
        # A CR is allowed only before an LF, and is not part of the token.
        crs = a[ends[n - 1::n] - 1] == ord("\r")
        if np.count_nonzero(crs) != buf.count(b"\r"):
            return None
        starts = np.subtract(ends, lens, out=ends)
        lens[n - 1::n] -= crs
        # With n = 1 an empty token is a blank line, which csv.reader
        # reads as a record of no fields.
        if lens.max() > self.longest or (n == 1 and lens.min() == 0):
            return None
        # The two bytes at every offset of buf, zero-padded at its end,
        # copied to aligned memory: an unaligned gather is far slower.
        window = np.ndarray(len(buf), "<u2", buf + b"\0", strides=(1,)).copy()
        codes = np.take(window, starts)
        codes &= np.take(np.array([0, 0xff, 0xffff], np.uint16), lens)
        del a, ends, starts, lens, window
        codes = codes.reshape(-1, n).T.copy()
        # np.take, as fancy indexing by a non-intp index is slower.
        ids = np.take(self.table, codes)
        if (ids < 0).any():
            # Sorted by bincount, which counting runs anyway: a sort here
            # would add its code pages to the resident set.
            new = np.flatnonzero(np.bincount(codes[ids < 0]))
            first = len(self.tokens)
            try:   # the list is made whole first, so a bad token adds none
                self.tokens += [c.to_bytes(2, "little").rstrip(b"\0")
                                .decode() for c in new.tolist()]
            except UnicodeDecodeError:
                return None
            self.table[new] = np.arange(first, len(self.tokens))
            ids = np.take(self.table, codes)
        return ids


def save_csv(dataset, path):
    """Write ``dataset`` to ``path`` as CSV: a header of variable names,
    then one record of state labels per row.

    Each state label is quoted once, by ``csv.writer`` itself, and rows are
    streamed CSV_BLOCK_ROWS at a time, so memory holds one block whatever
    m is.  When each column's quoted labels have one UTF-8 width, a block
    is built as bytes: a (rows, record bytes) uint8 array filled from a
    template row of commas and CRLF, each column's slice by one gather
    from its (r, width) byte table.  Any other file writes each block as
    one string.  Either way the bytes equal those of a ``csv.writer``
    writing the rows one by one.
    """
    record = _csv_record()
    fields = [_csv_fields(labels, dataset.n, record)
              for labels in dataset.state_labels]
    header = record(dataset.variable_names)
    del record   # and the writer's record buffer, before any block
    tables = [_byte_table(f) for f in fields]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(header)
        # No variables: the header alone, as records of no fields would
        # be blank lines.
        if not dataset.n:
            return
        starts = range(0, dataset.m, CSV_BLOCK_ROWS)
        if any(t is None for t in tables):
            for start in starts:
                block = dataset.rows[start:start + CSV_BLOCK_ROWS]
                cols = [f[col] for f, col in zip(fields, block.T)]
                fh.write("\r\n".join(map(",".join, zip(*cols))) + "\r\n")
            return
        fh.flush()   # the header goes before the binary blocks
        widths = [t.shape[1] for t in tables]
        ends = np.cumsum([w + 1 for w in widths])   # past each field's comma
        # One block of records, made once from a template row of commas
        # and CRLF; each block then overwrites only the fields.
        out = np.full((min(dataset.m, CSV_BLOCK_ROWS), ends[-1] + 1),
                      ord(","), np.uint8)
        out[:, -2:] = list(b"\r\n")
        for start in starts:
            block = dataset.rows[start:start + CSV_BLOCK_ROWS]
            records = out[:len(block)]
            for table, col, end, w in zip(tables, block.T, ends, widths):
                records[:, end - w - 1:end - 1] = np.take(table, col, axis=0)
            fh.buffer.write(records)


def _byte_table(fields):
    """(r, width) uint8 table of the UTF-8 bytes of ``fields``; None if
    they differ in width."""
    encoded = [f.encode() for f in fields]
    width = len(encoded[0]) if encoded else 0
    if any(len(e) != width for e in encoded):
        return None
    return np.frombuffer(b"".join(encoded), np.uint8).reshape(len(encoded),
                                                              width)


def _csv_record():
    """A function giving the text ``csv.writer`` writes for one record.
    Every call shares one writer, so its record buffer, 128 KiB from the
    first record on, is allocated once."""
    buf = io.StringIO()
    writerow = csv.writer(buf).writerow

    def record(fields):
        buf.seek(0)
        buf.truncate()
        writerow(fields)
        return buf.getvalue()

    return record


def _csv_fields(labels, n, record):
    """Object array of ``labels`` as ``csv.writer`` writes them in a
    record of n fields, each written by ``record`` (see
    :func:`_csv_record`).  A lone empty field is written as '""', an empty
    field among others as nothing."""
    # The end of a record with a second, empty field after the label.
    pad, end = ([""], ",\r\n") if n > 1 else ([], "\r\n")
    fields = np.empty(len(labels), object)
    for k, label in enumerate(labels):
        fields[k] = record([label, *pad]).removesuffix(end)
    return fields


@dataclass
class BayesNet:
    """DAG structure plus conditional probability tables.

    ``cpts`` may be None for a bare structure (learned graphs with links
    are carried this way; a structure with links must have no tables).
    Each table has one row per parent configuration, parents taken in
    ascending node order with the first (lowest-index) parent most
    significant, and one column per child state.
    """

    variable_names: list
    cardinalities: list
    structure: PartialDag
    cpts: list = None
    state_labels: list = field(default=None)

    def __post_init__(self):
        self.cardinalities, self.state_labels = _checked_labels(
            self.variable_names, self.cardinalities, self.state_labels)
        n = len(self.variable_names)
        if self.structure.node_count != n:
            raise DataError("structure/variable count mismatch")
        if self.cpts is not None:
            if not self.structure.is_dag():
                raise DataError("parameterized network must be a DAG")
            if len(self.cpts) != n:
                raise DataError("one table per variable required")
            for y, name in enumerate(self.variable_names):
                table = np.asarray(self.cpts[y], dtype=float)
                q = math.prod(self.cardinalities[p] for p in self.parents(y))
                if table.shape != (q, self.cardinalities[y]):
                    raise DataError(f"table shape mismatch for variable "
                                    f"{name}: {table.shape}")
                # A NaN fails both comparisons.
                if not (np.all(table >= 0) and np.all(
                        np.abs(table.sum(axis=1) - 1.0) <= CPT_ROW_TOL)):
                    raise DataError(f"rows of table for {name} must be "
                                    f"non-negative and sum to 1")
                self.cpts[y] = table

    def parents(self, y):
        return sorted(self.structure.pa(y))


def parent_configs(rows, parents, cardinalities, q):
    """Mixed-radix parent-configuration index of every row, the first of
    ``parents`` most significant.  Callers pass the parents in ascending
    node order and their number of configurations q, which must fit intp.

    The key is stored in ``index_dtype(q)``, so for q up to 256 it is one
    byte a row.
    """
    dtype = index_dtype(q)
    # A one-state parent adds nothing to the key; skipping it keeps every
    # radix multiplied in below q, so it fits the key's width.  q = 0
    # leaves no valid row.
    parents = [p for p in parents if cardinalities[p] > 1]
    if q == 0 or not parents:
        return np.zeros(rows.shape[0], dtype)
    j = rows[:, parents[0]].astype(dtype)
    for p in parents[1:]:
        j *= int(cardinalities[p])   # a numpy int would widen the product
        j += rows[:, p].astype(dtype, copy=False)
    return j


@dataclass
class ContingencyTable:
    """Joint counts of a child against its parent configurations.

    ``counts[j, k]`` is the number of rows with parent configuration j
    (see :func:`parent_configs`) and child state k.
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
    """Exact joint counts of variable y against a parent set, given in any
    order.  A family of at most BITSET_MAX_CELLS cells is counted from
    per-state bitsets, a larger one by np.bincount over the
    configuration key.  Members must pass :func:`check_node`; a child among
    its parents or a repeated parent raises GraphError, and a family whose
    dense q * r_y table cannot be indexed or allocated raises DataError."""
    y, parents = family_key(y, parents, dataset.n)
    if y in parents:
        raise GraphError("child cannot be its own parent")
    if len(set(parents)) != len(parents):
        raise GraphError("a parent is named twice")
    cardinalities = dataset.cardinalities
    r = cardinalities[y]
    q = math.prod(map(cardinalities.__getitem__, parents))
    cells = q * r
    family = [*parents, y]
    if 0 < cells <= BITSET_MAX_CELLS:
        # The rows of each state combination, parents first and the child
        # last, so the table has the mixed-radix layout of the key below.
        # A one-state variable selects every row and is left out; every
        # other one has two states or more, so the last two arrays hold at
        # most 1.5 * cells bitsets.
        members = [v for v in family if cardinalities[v] != 1] or family[:1]
        joint = _state_bits(dataset, members[0])
        for v in members[1:]:
            joint = joint[..., None, :] & _state_bits(dataset, v)
        return ContingencyTable(_set_bits(joint).reshape(q, r), r, q)
    if cells <= _INTP_MAX:
        j = parent_configs(dataset.rows, family, cardinalities, cells)
        try:
            return ContingencyTable(
                np.bincount(j, minlength=cells).reshape(q, r), r, q)
        except MemoryError:
            pass
    raise DataError(f"family of {dataset.variable_names[y]} is too wide to "
                    f"count: q * r = {cells} cells")


def _state_bits(dataset, v):
    """(r_v, ceil(m / 64)) uint64 bitsets of variable v: row i of the data
    sets one fixed bit of word i // 64 in the bitset of its state, and
    padding bits are clear.  Made on first use and kept on the dataset."""
    bits = dataset._bits.get(v)
    if bits is None:
        col = dataset.rows[:, v]
        m = len(col)
        packed = np.zeros((dataset.cardinalities[v], -(-m // 64) * 8),
                          np.uint8)
        for k, row in enumerate(packed):
            row[:-(-m // 8)] = np.packbits(col == k, bitorder="little")
        bits = dataset._bits[v] = packed.view(np.uint64)
    return bits


def _set_bits(words):
    """Set bits of each row of C-contiguous uint64 ``words``, summed over
    the last axis, as intp."""
    # uint32 sums are about twice as fast as 64-bit ones, and a row of
    # fewer than 2**26 words has fewer than 2**32 bits.
    dtype = np.uint32 if words.shape[-1] < 2 ** 26 else np.uint64
    return np.add.reduce(np.bitwise_count(words), axis=-1,
                         dtype=dtype).astype(np.intp)


def sample(net, m, seed):
    """Draw m rows by forward sampling in a topological order.

    Each variable takes one ``rng.random(m)`` draw u per row; its state is
    the number of the row's first r - 1 cumulative CPT bounds that u
    exceeds.  The bounds are compared one state at a time and counted in
    the variable's own column of the rows, so memory per state is O(m).
    Fully determined by the seed; repeated calls with the same arguments
    produce identical datasets.
    """
    if net.cpts is None:
        raise DataError("sampling requires conditional probability tables")
    if m < 0:
        raise ValueError("sample size must be non-negative")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, not {seed}")
    rng = np.random.default_rng(seed)
    order = net.structure.topological_order()
    n = net.structure.node_count
    try:
        rows = np.zeros((m, n), index_dtype(max(net.cardinalities, default=0)),
                        order="F")
    except (MemoryError, ValueError):   # ValueError: a shape past intp
        raise ValueError(f"sample size {m} is too large: its {m} x {n} "
                         f"table cannot be allocated") from None
    for y in order:
        table = net.cpts[y]   # one row per configuration, as validated
        j = parent_configs(rows, net.parents(y), net.cardinalities,
                           len(table)).astype(np.intp)   # gathers fastest
        u = rng.random(m)
        col = rows[:, y]   # contiguous, as the rows are column-major
        # BayesNet's rows are non-negative, so a u past the last bound is
        # past all r - 1 before it: counting those gives state r - 1.
        for bound in np.cumsum(table, axis=1).T[:-1]:
            # One configuration (a root): j is all 0, so skip the gather.
            col += u > (bound[0] if len(bound) == 1 else bound.take(j))
    return Dataset(list(net.variable_names), list(net.cardinalities), rows,
                   [list(a) for a in net.state_labels])


def fit_parameters(structure, dataset, smoothing=1.0):
    """Estimate tables for a DAG from data.

    With smoothing = s > 0 each cell gets the posterior-mean estimate
    (N_jk + s/(r*q)) / (N_j + s/q); s = 0 gives maximum likelihood with a
    uniform row wherever a parent configuration never occurs.  A negative
    or non-finite s raises ValueError, and a variable with no states (read
    from a header-only CSV) DataError.
    """
    if not (math.isfinite(smoothing) and smoothing >= 0):
        raise ValueError(f"smoothing must be finite and non-negative, "
                         f"not {smoothing}")
    if not structure.is_dag():
        raise DataError("fit_parameters requires a DAG")
    if structure.node_count != dataset.n:
        raise DataError("structure/dataset arity mismatch")
    for name, r in zip(dataset.variable_names, dataset.cardinalities):
        if r == 0:
            raise DataError(f"variable {name} has no states: a table row "
                            f"over 0 states cannot sum to 1")
    cpts = []
    for y in range(dataset.n):
        counts = count_statistics(dataset, y, structure.pa(y)).counts
        q, r = counts.shape
        nj = counts.sum(axis=1, keepdims=True)
        if smoothing > 0:
            table = (counts + smoothing / (r * q)) / (nj + smoothing / q)
        else:
            with np.errstate(invalid="ignore"):
                table = counts / nj
            table[np.isnan(table[:, 0])] = 1.0 / r
        cpts.append(table)
    return BayesNet(list(dataset.variable_names), list(dataset.cardinalities),
                    structure.copy(), cpts,
                    [list(a) for a in dataset.state_labels])


def save_network(net, path):
    names = net.variable_names
    doc = {
        "variables": [{"name": name, "states": list(labels)}
                      for name, labels in zip(names, net.state_labels)],
        "edges": {kind: [[names[x], names[y]] for x, y in sorted(edges)]
                  for kind, edges in (("arcs", net.structure.arcs()),
                                      ("links", net.structure.links()))},
    }
    if net.cpts is not None:
        doc["cpts"] = {name: t.tolist() for name, t in zip(names, net.cpts)}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def load_network(path):
    try:
        with open(path, encoding="utf-8-sig") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: not valid JSON ({exc})") from None
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 ({exc})") from None
    try:
        doc = _typed(doc, dict, "the document")
        variables = [_typed(v, dict, "each variable")
                     for v in _typed(doc["variables"], list, "variables")]
        names = [_typed(v["name"], str, "name") for v in variables]
        states = [_typed(v["states"], list, "states") for v in variables]
        index = {name: i for i, name in enumerate(names)}
        edges = _typed(doc.get("edges", {}), dict, "edges")
        arcs, links = ([_edge(e, index)
                        for e in _typed(edges.get(kind, []), list, kind)]
                       for kind in ("arcs", "links"))
        g = PartialDag.from_edges(len(names), arcs, links)
        cpts = None
        if "cpts" in doc:
            tables = _typed(doc["cpts"], dict, "cpts")
            if set(tables) != set(names):
                raise DataError("cpts keys are not the variable names")
            cpts = [_table(tables[name], name) for name in names]
        return BayesNet(names, [len(s) for s in states], g, cpts, states)
    except KeyError as exc:
        raise DataError(f"{path}: missing field {exc}") from None
    except (TypeError, ValueError, OverflowError, GraphError,
            DataError) as exc:
        raise DataError(f"{path}: {exc}") from None


def _typed(value, kind, what):
    if not isinstance(value, kind):
        raise DataError(f"{what} must be a JSON {_JSON_TYPES[kind]}")
    return value


def _table(rows, name):
    """A table given as a JSON array of equally long rows of numbers."""
    if not (isinstance(rows, list)
            and all(isinstance(row, list) and len(row) == len(rows[0])
                    and all(isinstance(p, (int, float))
                            and not isinstance(p, bool) for p in row)
                    for row in rows)):
        raise DataError(f"table for {name} must be a JSON array of equally "
                        f"long rows of numbers")
    return np.asarray(rows, dtype=float)


def _edge(e, index):
    if (isinstance(e, list) and len(e) == 2
            and all(isinstance(v, str) and v in index for v in e)):
        return index[e[0]], index[e[1]]
    raise DataError(f"edge {json.dumps(e)} is not a pair of variable names")
