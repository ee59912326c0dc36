"""Local search over restricted PDAGs, with a DAG-space baseline.

The restricted-PDAG neighborhood uses five operators: arc addition, link
addition, arc deletion, link deletion, and head-to-head creation (adding
an arc x->y while redirecting an existing link y-z into z->y).  Every
operator's score change is computed from exactly two local scores.  The
DAG baseline uses arc addition, deletion, and reversal (reversal costs
two local-score pairs).  One search loop runs greedy or fixed-iteration
tabu search in either space.

Each iteration builds the neighbourhood as one boolean mask per move kind
(:class:`Neighbourhood`) from the graph's reach matrix.  The loop keeps
computed deltas in arrays laid out like the masks, computes only masked
entries not yet kept, and picks the first move whose delta is within a
tolerance of the maximum (:func:`_first_max`).  Tabu search knocks out
the moves its list blocks, one at a time from the top, taking the next
such move after each.
A delta stays valid until a parent set it reads changes: Pa(y) for arc
additions and deletions, also Pa(x) for a DAG reversal, none otherwise.
"""

from __future__ import annotations

import bisect
import sys
import time
import types
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .graph import GraphError, PartialDag

# Score equivalence makes many moves tie in exact arithmetic (a DAG arc
# and its reversal, a covered-arc reversal that gains zero), and their
# float deltas then differ by a few ulps of the scores they add.  Deltas
# within TIE_RTOL of the total's magnitude are treated as equal, so the
# rounding of the score kernel decides no move: its drift is at most
# about 1e-15 of the total, and real gains are many orders larger.
TIE_RTOL = 1e-12

_KINDS = ("A_link", "A_arc", "A_hh", "D_arc", "D_link", "R_arc")
_KIND_ORDER = {kind: i for i, kind in enumerate(_KINDS)}


@dataclass(frozen=True)
class MoveOperator:
    """A tagged move with its node arguments (z is used by A_hh only)."""

    kind: str
    x: int
    y: int
    z: int = None

    def __post_init__(self):
        if self.kind not in _KIND_ORDER:
            raise GraphError(f"unknown operator kind {self.kind!r}")
        if self.x == self.y:
            raise GraphError("operator endpoints must differ")
        if self.kind == "A_hh":
            if self.z is None or self.z in (self.x, self.y):
                raise GraphError("A_hh needs a third, distinct node")
        elif self.z is not None:
            raise GraphError(f"{self.kind} takes no third node")

    def sort_key(self):
        return (_KIND_ORDER[self.kind], self.x, self.y,
                -1 if self.z is None else self.z)


@dataclass
class SearchReport:
    """Run statistics: applied moves, evaluations, cache counters, time."""

    best_score: float
    iterations_applied: int
    best_iteration: int
    individuals_evaluated: int
    evaluated: int
    requested: int
    nvars: float
    wall_time_seconds: float
    trace: list = field(default_factory=list)


# -- restricted-PDAG operators ----------------------------------------------


def is_applicable(g, op):
    """True iff op is a move of g's restricted-PDAG neighbourhood, a link
    move named (y, x) counting as (x, y).  GraphError for a node outside g."""
    g._check_node(*(op.x, op.y, op.z)[:2 if op.z is None else 3])
    if op.kind in ("A_link", "D_link") and op.x > op.y:
        op = MoveOperator(op.kind, op.y, op.x)
    return op in enumerate_neighborhood(g)


def _apply_inplace(g, op):
    """Apply an applicable operator in place, cascades included."""
    x, y, z = op.x, op.y, op.z
    if op.kind == "A_link":
        g.add_link(x, y)
    elif op.kind == "A_arc":
        g.add_arc(x, y)
        g.complete_cascade(y)
    elif op.kind == "A_hh":
        g.remove_link(y, z)
        g.add_arc(z, y)
        g.add_arc(x, y)
        g.complete_cascade(y)
    elif op.kind == "D_arc":
        g.remove_arc(x, y)
        g.undo_cascade(y)
    elif op.kind == "D_link":
        g.remove_link(x, y)
    return g


def apply_operator(g, op):
    """Return the neighboring restricted PDAG produced by an applicable
    operator.  The input graph is left untouched."""
    if not is_applicable(g, op):
        raise GraphError(f"operator {op} not applicable")
    return _apply_inplace(g.copy(), op)


def _families(g, op):
    """The (child, parent set) pairs whose local scores give op's delta in
    either space, in pairs: a family after the move, then before it."""
    x, y, z = op.x, op.y, op.z
    if op.kind == "A_link":
        return [(y, {x}), (y, ())]
    if op.kind == "A_arc":
        pa = g.pa(y)
        return [(y, pa | {x}), (y, pa)]
    if op.kind == "A_hh":
        return [(y, {x, z}), (y, {z})]
    if op.kind == "D_link":
        return [(y, ()), (y, {x})]
    if op.kind == "D_arc":
        pa = g.pa(y)
        return [(y, pa - {x}), (y, pa)]
    if op.kind == "R_arc":
        pay, pax = g.pa(y), g.pa(x)
        return [(y, pay - {x}), (y, pay), (x, pax | {y}), (x, pax)]


def delta_score(g, op, scorer):
    """Score change of an applicable operator in either space: the local
    scores of :func:`_families`, added and subtracted in turn."""
    d = 0.0
    for i, (v, pa) in enumerate(_families(g, op)):
        s = scorer.local(v, pa)
        d = d - s if i % 2 else d + s
    return d


class Neighbourhood:
    """The applicable moves of one graph as boolean masks, one per move
    kind of its space, keyed in ``_KINDS`` order.

    ``masks[kind][x, y]`` marks the move (kind, x, y), except that column i
    of the A_hh mask stands for the link ``links[i]`` = (y, z), sorted.
    Read row by row and laid end to end in that order, the masks list the
    moves in :meth:`MoveOperator.sort_key` order: ``flat`` is that layout,
    and ``start[k]`` where the k-th of its kinds begins in it."""

    def __init__(self, masks, links=()):
        self.masks, self.kinds, self.links = masks, list(masks), list(links)
        self.flat = np.concatenate([m.ravel() for m in masks.values()])
        self.start = np.cumsum([0] + [m.size for m in masks.values()]).tolist()

    def __len__(self):
        return int(np.count_nonzero(self.flat))

    def move(self, i):
        """The move at position i of ``flat``."""
        k = bisect.bisect_right(self.start, i) - 1   # skips empty masks
        kind = self.kinds[k]
        x, c = divmod(i - self.start[k], self.masks[kind].shape[1])
        if kind == "A_hh":
            return MoveOperator(kind, x, *self.links[c])
        return MoveOperator(kind, x, c)

    def moves(self):
        return [self.move(i) for i in np.flatnonzero(self.flat).tolist()]


def _rpdag_neighbourhood(g):
    """The applicable restricted-PDAG moves of g, from one reach matrix.

    The UC test of x-y holds iff x reaches y: between parentless nodes a
    semi-directed path can only run along links (condition 1).  The DC
    test of x->y reads the reach of y, and that of x->y<-z one reach set
    of y with the link y-z skipped, without the paper's guards: a path
    from y to x != y leaves y along an edge and enters x along an arc or
    a link, so x has a parent or a neighbour; and if y has a parent, so
    does every node it reaches (condition 1)."""
    n = g.node_count
    arcs, links, reach = g.matrices()
    pa = arcs.any(0)
    free = ~(arcs | arcs.T | links | np.eye(n, dtype=bool))
    # Linked nodes have no parent (condition 1): every link y-z, both ways.
    hh_links = list(map(tuple, np.argwhere(links).tolist()))
    hh = free[:, [y for y, _ in hh_links]]
    for i, (y, z) in enumerate(hh_links):
        hh[list(g.semi_directed_reach(y, (y, z))), i] = False
    return Neighbourhood({
        "A_link": np.triu(free & ~pa[:, None] & ~pa & ~reach, 1),
        "A_arc": free & (pa[:, None] | pa) & ~reach.T,
        "A_hh": hh, "D_arc": arcs, "D_link": np.triu(links, 1)}, hh_links)


def enumerate_neighborhood(g):
    """The restricted-PDAG neighbourhood of g, read from
    :func:`_rpdag_neighbourhood`: every move of the five operators whose
    applicability conditions and cycle pre-tests hold on g, link moves
    once with x < y, sorted by :meth:`MoveOperator.sort_key`."""
    return _rpdag_neighbourhood(g).moves()


# -- DAG-space operators -----------------------------------------------------


def _directed_reachable(g, src, dst, skip_arc=None):
    """True iff arcs other than ``skip_arc`` lead from src to dst != src."""
    seen, stack = {src}, [src]
    while stack:
        u = stack.pop()
        ahead = {t for t in g.ch(u) if t not in seen and (u, t) != skip_arc}
        seen |= ahead
        stack += ahead
    return dst in seen


def dag_is_applicable(g, op):
    """True iff op is a move of g's DAG neighbourhood.  GraphError for a
    node outside g."""
    g._check_node(*(op.x, op.y, op.z)[:2 if op.z is None else 3])
    return op in dag_enumerate_neighborhood(g)


def _dag_apply_inplace(g, op):
    x, y = op.x, op.y
    if op.kind == "A_arc":
        g.add_arc(x, y)
    elif op.kind == "D_arc":
        g.remove_arc(x, y)
    elif op.kind == "R_arc":
        g.remove_arc(x, y)
        g.add_arc(y, x)
    return g


def dag_apply_operator(g, op):
    if not dag_is_applicable(g, op):
        raise GraphError(f"operator {op} not applicable")
    return _dag_apply_inplace(g.copy(), op)


def _dag_neighbourhood(g):
    """The applicable add/delete/reverse moves on the DAG g, from one
    descendant matrix: x->y closes a cycle iff x descends from y, and
    reversing x->y does iff y descends from another child of x."""
    arcs, _, desc = g.matrices()
    # desc is reflexive, so the first test also rules out x == y, and
    # each arc x->y counts y itself among the children y descends from.
    into = arcs.astype(np.float32) @ desc.astype(np.float32)
    return Neighbourhood({
        "A_arc": ~arcs & ~desc.T, "D_arc": arcs, "R_arc": arcs & (into == 1)})


def dag_enumerate_neighborhood(g):
    """The DAG neighbourhood of g, read from :func:`_dag_neighbourhood`:
    every arc addition and reversal that keeps g acyclic and every arc
    deletion, sorted by :meth:`MoveOperator.sort_key`."""
    return _dag_neighbourhood(g).moves()


# -- tabu bookkeeping --------------------------------------------------------


_INVERSE_KIND = {"A_link": "D_link", "D_link": "A_link", "A_arc": "D_arc",
                 "D_arc": "A_arc", "A_hh": "D_arc"}


def _signature(op):
    """Edge-change signature of a move, used for tabu matching.  Both
    enumerators emit link moves with x < y, so equal edges match."""
    return ("A_arc" if op.kind == "A_hh" else op.kind, op.x, op.y)


def _inverse_signature(op):
    if op.kind == "R_arc":
        return ("R_arc", op.y, op.x)
    return (_INVERSE_KIND[op.kind], op.x, op.y)


# -- drivers ------------------------------------------------------------------


class StartError(GraphError):
    """A start structure that does not fit the dataset or the search
    space: bad input rather than a broken invariant."""


# The operator set of a search space, as a settable record.
_Space = types.SimpleNamespace
_RPDAG_SPACE = _Space(neighborhood=_rpdag_neighbourhood, delta=delta_score,
                      apply_inplace=_apply_inplace,
                      initial_score=lambda scorer, g: scorer.score_rpdag(g),
                      start_problem=PartialDag.rpdag_problem)
_DAG_SPACE = _Space(neighborhood=_dag_neighbourhood, delta=delta_score,
                    apply_inplace=_dag_apply_inplace,
                    initial_score=lambda scorer, g: scorer.score_dag(g),
                    start_problem=PartialDag.dag_problem)


def _scored(g, nb, deltas, space, scorer):
    """The delta of every move of ``nb`` in its flat layout, -inf off the
    masks, and how many ``space.delta`` computed: one per move whose kept
    delta is NaN, after the scorer has scored the families those deltas
    read in one batch.  ``deltas`` holds an n x n array per pair kind and,
    for A_hh, a length-n vector (over x) per link (y, z)."""
    n = g.node_count
    hh = deltas["A_hh"]
    unset = np.full(n, np.nan)
    kept = np.concatenate([
        np.array([hh.get(link, unset) for link in nb.links]).T.ravel()
        if kind == "A_hh" else deltas[kind].ravel() for kind in nb.masks])
    missing = [(i, nb.move(i))
               for i in np.flatnonzero(nb.flat & np.isnan(kept)).tolist()]
    scorer.precompute([f for _, op in missing for f in _families(g, op)])
    for i, op in missing:
        d = kept[i] = space.delta(g, op, scorer)
        if op.kind == "A_hh":
            hh.setdefault((op.y, op.z), unset.copy())[op.x] = d
        else:
            deltas[op.kind][op.x, op.y] = d
    return np.where(nb.flat, kept, -np.inf), len(missing)


def _tol(score):
    """The tolerance within which two deltas or scores near ``score`` are
    taken as equal."""
    return TIE_RTOL * max(1.0, abs(score))


def _first_max(values, tol):
    """Index of the first entry at least max(values) - tol."""
    return int(np.argmax(values >= values.max() - tol))


def _search(dataset, scorer, space, start, greedy, tll=None, tsit=None):
    """The one search loop.  Each iteration applies the first maximal move
    the tabu list does not block, or the first maximal move when every move
    is blocked, where a move is maximal if its delta is within tol =
    :func:`_tol` (total) of the maximum: :func:`_first_max` over the
    scored neighbourhood, repeated on a copy with each blocked pick set to
    -inf.  A blocked move is allowed if it beats the best score by more
    than tol.  Greedy keeps no tabu list and stops before a move whose
    delta is at most tol; its best graph is its current graph, as each
    move it applies raises the score.  Tabu runs tsit iterations, keeps a
    copy of the best graph seen, and counts a total as a new best when it
    beats the best by more than :func:`_tol` (best)."""
    if scorer.dataset is not dataset:
        raise ValueError("the scorer is built on a different dataset")
    n = dataset.n
    if greedy:
        tll = 0
    else:
        if (tll is not None and tll < 0
                or tsit is not None and not 1 <= tsit <= sys.maxsize):
            raise ValueError("tabu parameters out of range")
        # At n = 1 the default tsit is 0: the empty graph, as greedy gives.
        tll = n if tll is None else tll
        tsit = n * (n - 1) if tsit is None else tsit
        # The list gains one entry per iteration, so a cap of tsit changes
        # no run and keeps deque's maxlen within a C ssize_t.
        tll = min(tll, tsit)
    t0 = time.perf_counter()
    g = PartialDag(dataset.n) if start is None else start.copy()
    if g.node_count != dataset.n:
        raise StartError("start structure / dataset arity mismatch")
    if problem := space.start_problem(g):
        raise StartError(f"start structure invalid: {problem}")
    best_graph = g if greedy else g.copy()
    total = best_score = space.initial_score(scorer, g)
    best_iteration = 0
    deltas = {kind: {} if kind == "A_hh" else np.full((n, n), np.nan)
              for kind in _KINDS}
    misses = 0
    tabu = deque(maxlen=tll)
    trace = []
    while greedy or len(trace) < tsit:
        nb = space.neighborhood(g)
        values, computed = _scored(g, nb, deltas, space, scorer)
        misses += computed
        if not nb.flat.any():
            break
        tol = _tol(total)
        i = first = _first_max(values, tol)
        if tabu:
            allowed = values.copy()
            # Knock out listed moves that set no new best, best first.
            while (total + allowed[i] <= best_score + tol
                   and _signature(nb.move(i)) in tabu):
                allowed[i] = -np.inf
                i = _first_max(allowed, tol)
                if allowed[i] == -np.inf:   # every move is blocked
                    i = first
                    break
        op, d = nb.move(i), float(values[i])
        if greedy and d <= tol:
            break
        tabu.append(_inverse_signature(op))
        before = [set(p) for p in g._pa]
        space.apply_inplace(g, op)
        changed = [v for v, p in enumerate(g._pa) if p != before[v]]
        for kind in ("A_arc", "D_arc", "R_arc"):   # the deltas reading Pa(y)
            deltas[kind][:, changed] = np.nan
        deltas["R_arc"][changed] = np.nan
        total += d
        trace.append((op, d))
        if greedy:
            best_score, best_iteration = total, len(trace)
        elif total > best_score + _tol(best_score):
            best_graph, best_score = g.copy(), total
            best_iteration = len(trace)
    report = SearchReport(
        best_score=best_score, iterations_applied=len(trace),
        best_iteration=best_iteration, individuals_evaluated=misses,
        evaluated=scorer.cache.evaluated, requested=scorer.cache.requested,
        nvars=scorer.cache.nvars,
        wall_time_seconds=time.perf_counter() - t0, trace=trace)
    return best_graph, report


def greedy_search(dataset, scorer, start=None):
    """Greedy best-improvement search over restricted PDAGs from the
    empty graph (or a given valid start)."""
    return _search(dataset, scorer, _RPDAG_SPACE, start, True)


def tabu_search(dataset, scorer, tll=None, tsit=None, start=None):
    """Tabu search over restricted PDAGs: exactly tsit iterations, each
    applying the best non-forbidden move (even if it worsens the score),
    with a list of the last tll applied moves' inverses and aspiration by
    best score seen.  Defaults: tll = n, tsit = n(n-1), so no iteration
    at n = 1."""
    return _search(dataset, scorer, _RPDAG_SPACE, start, False, tll, tsit)


def dag_greedy_search(dataset, scorer, start=None):
    """Baseline greedy search over DAGs (add / delete / reverse)."""
    return _search(dataset, scorer, _DAG_SPACE, start, True)


def dag_tabu_search(dataset, scorer, tll=None, tsit=None, start=None):
    """Baseline tabu search over DAGs; defaults as in tabu_search."""
    return _search(dataset, scorer, _DAG_SPACE, start, False, tll, tsit)
