"""Categorical datasets, Bayesian networks, CSV and network-file I/O.

Datasets store rows as integer state indices; each variable's alphabet is
fixed at load time (distinct column tokens sorted lexicographically, with
the missing-value token, if present, appended as the last state).  Network
files are JSON documents holding variables, arcs, links, and optional
conditional probability tables.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field

import numpy as np

from .graph import GraphError, PartialDag

CPT_ROW_TOL = 1e-9
DEFAULT_MISSING_TOKEN = "?"


class DataError(Exception):
    """Malformed dataset or network file."""


@dataclass
class Dataset:
    """Discrete data table: m rows of state indices over n variables."""

    variable_names: list
    cardinalities: list
    rows: np.ndarray
    state_labels: list = field(default=None)

    def __post_init__(self):
        n = len(self.variable_names)
        if len(set(self.variable_names)) != n:
            raise DataError("duplicate variable names")
        if len(self.cardinalities) != n:
            raise DataError("cardinalities/name count mismatch")
        self.rows = np.asarray(self.rows, dtype=np.int64).reshape(-1, n)
        if self.state_labels is None:
            self.state_labels = [[str(k) for k in range(r)]
                                 for r in self.cardinalities]
        for i, r in enumerate(self.cardinalities):
            if self.m > 0 and r < 1:
                raise DataError(f"variable {self.variable_names[i]} has no states")
            if len(self.state_labels[i]) != r:
                raise DataError("state label count mismatch")
        if self.m > 0:
            for i, r in enumerate(self.cardinalities):
                col = self.rows[:, i]
                if col.min() < 0 or col.max() >= r:
                    raise DataError(f"cell index out of range for variable "
                                    f"{self.variable_names[i]}")

    @property
    def n(self):
        return len(self.variable_names)

    @property
    def m(self):
        return self.rows.shape[0]


def load_csv(path, missing_token=DEFAULT_MISSING_TOKEN):
    """Load a comma-separated file with a header row into a Dataset.

    Each column's alphabet is its set of distinct tokens, sorted; the
    missing token becomes an ordinary extra state, placed last.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        if len(set(header)) != len(header):
            raise DataError(f"{path}: duplicate header names")
        raw = []
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise DataError(f"{path}:{lineno}: expected {len(header)} "
                                f"fields, got {len(row)}")
            raw.append(row)

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
    rows = np.array([[index[i][row[i]] for i in range(n)] for row in raw],
                    dtype=np.int64).reshape(-1, n)
    return Dataset(list(header), [len(a) for a in labels], rows, labels)


def save_csv(dataset, path):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(dataset.variable_names)
        for row in dataset.rows:
            writer.writerow([dataset.state_labels[i][row[i]]
                             for i in range(dataset.n)])


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
        n = len(self.variable_names)
        if self.structure.node_count != n:
            raise DataError("structure/variable count mismatch")
        if self.state_labels is None:
            self.state_labels = [[str(k) for k in range(r)]
                                 for r in self.cardinalities]
        if self.cpts is not None:
            if not self.structure.is_dag():
                raise DataError("parameterized network must be a DAG")
            if len(self.cpts) != n:
                raise DataError("one table per variable required")
            no_rows = np.zeros((0, n), dtype=np.int64)
            for y in range(n):
                table = np.asarray(self.cpts[y], dtype=float)
                q = parent_configs(no_rows, self.parents(y),
                                   self.cardinalities)[1]
                if table.shape != (q, self.cardinalities[y]):
                    raise DataError(f"table shape mismatch for variable "
                                    f"{self.variable_names[y]}: {table.shape}")
                if np.any(np.abs(table.sum(axis=1) - 1.0) > CPT_ROW_TOL):
                    raise DataError(f"rows of table for "
                                    f"{self.variable_names[y]} do not sum to 1")
                self.cpts[y] = table

    def parents(self, y):
        return sorted(self.structure.pa(y))


def parent_configs(rows, parents, cardinalities):
    """Mixed-radix parent-configuration index of every row, the first of
    ``parents`` most significant, and the configuration count q (a Python
    int).  Callers pass the parents in ascending node order."""
    j = np.zeros(rows.shape[0], dtype=np.int64)
    q = 1
    for p in parents:
        r = cardinalities[p]
        j *= r
        j += rows[:, p]
        q *= r
    return j, q


def family_counts(dataset, y, parents):
    """Joint counts, shape (q, r_y): row j is parent configuration j (see
    :func:`parent_configs`), column k is state k of variable y."""
    r = dataset.cardinalities[y]
    j, q = parent_configs(dataset.rows, parents, dataset.cardinalities)
    j *= r
    j += dataset.rows[:, y]
    return np.bincount(j, minlength=q * r).reshape(q, r)


def sample(net, m, seed):
    """Draw m rows by forward sampling in a topological order.

    Fully determined by the seed; repeated calls with the same arguments
    produce identical datasets.
    """
    if net.cpts is None:
        raise DataError("sampling requires conditional probability tables")
    if m < 0:
        raise ValueError("sample size must be non-negative")
    rng = np.random.default_rng(seed)
    order = net.structure.topological_order()
    n = net.structure.node_count
    rows = np.zeros((m, n), dtype=np.int64)
    for y in order:
        j, _ = parent_configs(rows, net.parents(y), net.cardinalities)
        table = net.cpts[y]
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
    uniform row wherever a parent configuration never occurs.
    """
    if not structure.is_dag():
        raise DataError("fit_parameters requires a DAG")
    if structure.node_count != dataset.n:
        raise DataError("structure/dataset arity mismatch")
    cpts = []
    for y in range(dataset.n):
        counts = family_counts(dataset, y, sorted(structure.pa(y)))
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
    doc = {
        "variables": [{"name": net.variable_names[i],
                       "states": list(net.state_labels[i])}
                      for i in range(len(net.variable_names))],
        "edges": {
            "arcs": [[net.variable_names[x], net.variable_names[y]]
                     for x, y in sorted(net.structure.arcs())],
            "links": [[net.variable_names[x], net.variable_names[y]]
                      for x, y in sorted(net.structure.links())],
        },
    }
    if net.cpts is not None:
        doc["cpts"] = {net.variable_names[y]: net.cpts[y].tolist()
                       for y in range(len(net.variable_names))}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def load_network(path):
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: not valid JSON ({exc})") from None
    try:
        names = [v["name"] for v in doc["variables"]]
        states = [list(v["states"]) for v in doc["variables"]]
        edges = doc.get("edges", {})
        arc_names = edges.get("arcs", [])
        link_names = edges.get("links", [])
    except (KeyError, TypeError) as exc:
        raise DataError(f"{path}: missing field {exc}") from None
    idx = {name: i for i, name in enumerate(names)}
    if len(idx) != len(names):
        raise DataError(f"{path}: duplicate variable names")
    g = PartialDag(len(names))
    try:
        for a, b in arc_names:
            g.add_arc(idx[a], idx[b])
        for a, b in link_names:
            g.add_link(idx[a], idx[b])
    except (KeyError, GraphError) as exc:
        raise DataError(f"{path}: bad edge ({exc})") from None
    cpts = None
    if "cpts" in doc:
        missing = set(names) - set(doc["cpts"])
        if missing:
            raise DataError(f"{path}: tables missing for {sorted(missing)}")
        try:
            cpts = [np.asarray(doc["cpts"][name], dtype=float)
                    for name in names]
        except (TypeError, ValueError) as exc:
            raise DataError(f"{path}: bad table ({exc})") from None
    try:
        return BayesNet(names, [len(s) for s in states], g, cpts, states)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None
