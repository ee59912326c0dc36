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

import collections
import csv
import itertools
import json
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .graph import GraphError, PartialDag

CPT_ROW_TOL = 1e-9
DEFAULT_MISSING_TOKEN = "?"
CSV_BLOCK_ROWS = 4096  # records decoded at a time by load_csv
_INT32_IDS = 2 ** 31   # token ids below this fit int32
_INTP_MAX = np.iinfo(np.intp).max  # the most cells a count table can index
# (largest value, type) of each narrow width, for index_dtype.  A width
# must cast safely to intp, as bincount and fancy indexing read intp.
_WIDTHS = [(np.iinfo(t).max, np.dtype(t)) for t in (np.uint8, np.uint16,
                                                      np.uint32)
           if np.can_cast(t, np.intp)]
_JSON_TYPES = {dict: "object", list: "array", str: "string"}


class DataError(Exception):
    """Malformed dataset or network file."""


@dataclass
class Dataset:
    """Discrete data table: m rows of state indices over n variables.

    ``rows`` is stored column-major in ``index_dtype`` of the largest
    cardinality (uint8 for up to 256 states).  Other input is checked to
    be whole numbers in range before it is narrowed; input already in
    that width and column-major is kept without a copy.
    """

    variable_names: list
    cardinalities: list
    rows: np.ndarray
    state_labels: list = field(default=None)

    def __post_init__(self):
        self.cardinalities, self.state_labels = _checked_labels(
            self.variable_names, self.cardinalities, self.state_labels)
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
    def n(self):
        return len(self.variable_names)

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
    missing token becomes an ordinary extra state, placed last.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            try:
                header, blocks, tokens = _token_ids(reader, path)
            except csv.Error as exc:
                raise DataError(f"{path}:{reader.line_num}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 ({exc})") from None

    def ids(i):
        """Token ids of column i; only one column is copied at a time."""
        return np.concatenate([b[:, i] for b in blocks]
                              or [np.empty(0, np.int32)])

    n = len(header)
    # Each column's alphabet, as token ids in state order.
    orders = [sorted(np.flatnonzero(np.bincount(ids(i))).tolist(),
                     key=lambda k: (tokens[k] == missing_token, tokens[k]))
              for i in range(n)]
    dtype = index_dtype(max(map(len, orders), default=0))
    rows = np.empty((sum(map(len, blocks)), n), dtype, order="F")
    # Token id -> state index in the column at hand; only the ids present
    # in that column are written and read.
    lookup = np.empty(len(tokens), dtype)
    for i, order in enumerate(orders):
        lookup[order] = np.arange(len(order))
        rows[:, i] = lookup[ids(i)]
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
        # Ids count up from 0, so none can exceed the cells read so far;
        # a block that could pass int32 is stored as int64 instead.
        dtype = np.int32 if len(token_id) + size <= _INT32_IDS else np.int64
        blocks.append(np.fromiter(
            map(token_id.__getitem__, itertools.chain.from_iterable(block)),
            dtype, size).reshape(-1, n))
        del block   # else it is held while the next block is read
    return header, blocks, list(token_id)


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


def save_csv(dataset, path):
    cols = [list(map(alphabet.__getitem__, col))
            for alphabet, col in zip(dataset.state_labels,
                                     dataset.rows.T.tolist())]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(dataset.variable_names)
        writer.writerows(zip(*cols))


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
    order.  The table is dense, so a family whose q * r_y cells cannot be
    indexed or allocated raises DataError.
    """
    parents = sorted(parents)
    if y in parents:
        raise GraphError("child cannot be its own parent")
    if len(set(parents)) != len(parents):
        raise GraphError("a parent is named twice")
    n = dataset.n
    # The parents are sorted, so their two ends bound the rest.
    for v in (y, parents[0], parents[-1]) if parents else (y,):
        if not 0 <= v < n:
            raise GraphError(f"node index {v} out of range")
    cardinalities = dataset.cardinalities
    r = cardinalities[y]
    q = math.prod(map(cardinalities.__getitem__, parents))
    cells = q * r
    if cells <= _INTP_MAX:
        j = parent_configs(dataset.rows, [*parents, y], cardinalities, cells)
        try:
            return ContingencyTable(
                np.bincount(j, minlength=cells).reshape(q, r), r, q)
        except MemoryError:
            pass
    raise DataError(f"family of {dataset.variable_names[y]} is too wide to "
                    f"count: q * r = {cells} cells")


def sample(net, m, seed):
    """Draw m rows by forward sampling in a topological order.

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
                           len(table))
        u = rng.random(m)
        cum = np.cumsum(table, axis=1)
        drawn = (u[:, None] > cum[j]).sum(axis=1)
        rows[:, y] = np.minimum(drawn, net.cardinalities[y] - 1)
    return Dataset(list(net.variable_names), list(net.cardinalities), rows,
                   [list(a) for a in net.state_labels])


def fit_parameters(structure, dataset, smoothing=1.0):
    """Estimate tables for a DAG from data.

    With smoothing = s > 0 each cell gets the posterior-mean estimate
    (N_jk + s/(r*q)) / (N_j + s/q); s = 0 gives maximum likelihood with a
    uniform row wherever a parent configuration never occurs.  A negative
    or non-finite s raises ValueError.
    """
    if not (math.isfinite(smoothing) and smoothing >= 0):
        raise ValueError(f"smoothing must be finite and non-negative, "
                         f"not {smoothing}")
    if not structure.is_dag():
        raise DataError("fit_parameters requires a DAG")
    if structure.node_count != dataset.n:
        raise DataError("structure/dataset arity mismatch")
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
