"""Local search over restricted PDAGs, with a DAG-space baseline.

The restricted-PDAG neighborhood uses five operators: arc addition, link
addition, arc deletion, link deletion, and head-to-head creation (adding
an arc x->y while redirecting an existing link y-z into z->y).  Every
operator's score change is computed from exactly two local scores.  The
DAG baseline uses arc addition, deletion, and reversal (reversal costs
two local-score pairs).  Both spaces come with a greedy driver and a
fixed-iteration tabu driver.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field

from .graph import GraphError, PartialDag

IMPROVE_TOL = 1e-12

RPDAG_KINDS = ("A_link", "A_arc", "A_hh", "D_arc", "D_link")
DAG_KINDS = ("A_arc", "D_arc", "R_arc")
_KIND_ORDER = {"A_link": 0, "A_arc": 1, "A_hh": 2, "D_arc": 3,
               "D_link": 4, "R_arc": 5}


@dataclass(frozen=True)
class MoveOperator:
    """A tagged move with its node arguments (z is used by A_hh only)."""

    kind: str
    x: int
    y: int
    z: int = None

    def __post_init__(self):
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
    edge_count: int
    trace: list = field(default_factory=list)


# -- restricted-PDAG operators ----------------------------------------------


def is_applicable(g, op):
    """Check the applicability conditions of an operator on a restricted
    PDAG, including the pre-insertion cycle tests."""
    x, y, z = op.x, op.y, op.z
    if op.kind == "A_arc":
        if g.is_adjacent(x, y):
            return False
        px, py = len(g.pa(x)), len(g.pa(y))
        if px == 0 and py == 0:
            return False
        if px != 0 and (g.ch(y) or g.ne(y)):
            return not g.partially_directed_reachable(y, x)
        return True
    if op.kind == "A_link":
        if g.is_adjacent(x, y):
            return False
        if g.pa(x) or g.pa(y):
            return False
        if g.ne(x) and g.ne(y):
            return not g.undirected_reachable(x, y)
        return True
    if op.kind == "D_arc":
        return x in g.pa(y)
    if op.kind == "D_link":
        return x in g.ne(y)
    if op.kind == "A_hh":
        if g.is_adjacent(x, y) or z not in g.ne(y):
            return False
        if g.pa(y):
            return False
        outgoing = g.ch(y) or len(g.ne(y)) >= 2
        if outgoing and (g.pa(x) or g.ne(x)):
            return not g.partially_directed_reachable(y, x, skip_link=(y, z))
        return True
    raise GraphError(f"unknown operator kind {op.kind!r}")


def _apply_inplace(g, op):
    x, y, z = op.x, op.y, op.z
    if op.kind == "A_link":
        g.add_link(x, y)
    elif op.kind == "A_arc":
        complete = bool(g.pa(x)) and bool(g.ne(y))
        g.add_arc(x, y)
        if complete:
            g.complete_cascade(y)
    elif op.kind == "A_hh":
        complete = len(g.ne(y)) >= 2
        g.remove_link(y, z)
        g.add_arc(z, y)
        g.add_arc(x, y)
        if complete:
            g.complete_cascade(y)
    elif op.kind == "D_arc":
        undo = len(g.pa(y)) <= 2
        g.remove_arc(x, y)
        if undo:
            g.undo_cascade(y)
    elif op.kind == "D_link":
        g.remove_link(x, y)
    else:
        raise GraphError(f"unknown operator kind {op.kind!r}")
    return g


def apply_operator(g, op):
    """Return the neighboring restricted PDAG produced by an applicable
    operator.  The input graph is left untouched."""
    if not is_applicable(g, op):
        raise GraphError(f"operator {op} not applicable")
    return _apply_inplace(g.copy(), op)


def delta_score(g, op, scorer):
    """Score change of an applicable operator, from two local scores."""
    x, y, z = op.x, op.y, op.z
    local = scorer.local
    if op.kind == "A_link":
        return local(y, {x}) - local(y, ())
    if op.kind == "A_arc":
        pa = g.pa(y)
        return local(y, pa | {x}) - local(y, pa)
    if op.kind == "A_hh":
        return local(y, {x, z}) - local(y, {z})
    if op.kind == "D_link":
        return local(y, ()) - local(y, {x})
    if op.kind == "D_arc":
        pa = g.pa(y)
        return local(y, pa - {x}) - local(y, pa)
    raise GraphError(f"unknown operator kind {op.kind!r}")


def enumerate_neighborhood(g):
    """All applicable operators on g, deduplicated (undirected moves are
    emitted once, with x < y) and in deterministic tie-break order."""
    ops = []
    n = g.node_count
    for x in range(n):
        for y in range(n):
            if x == y or g.is_adjacent(x, y):
                continue
            if x < y:
                op = MoveOperator("A_link", x, y)
                if is_applicable(g, op):
                    ops.append(op)
            op = MoveOperator("A_arc", x, y)
            if is_applicable(g, op):
                ops.append(op)
            for z in sorted(g.ne(y)):
                if z == x:
                    continue
                op = MoveOperator("A_hh", x, y, z)
                if is_applicable(g, op):
                    ops.append(op)
    for x, y in g.arcs():
        ops.append(MoveOperator("D_arc", x, y))
    for x, y in g.links():
        ops.append(MoveOperator("D_link", x, y))
    ops.sort(key=MoveOperator.sort_key)
    return ops


# -- DAG-space operators -----------------------------------------------------


def _directed_reachable(g, src, dst, skip_arc=None):
    stack = [src]
    seen = {src}
    while stack:
        u = stack.pop()
        for t in g.ch(u):
            if skip_arc is not None and (u, t) == skip_arc:
                continue
            if t == dst:
                return True
            if t not in seen:
                seen.add(t)
                stack.append(t)
    return False


def dag_is_applicable(g, op):
    x, y = op.x, op.y
    if op.kind == "A_arc":
        return not g.is_adjacent(x, y) and not _directed_reachable(g, y, x)
    if op.kind == "D_arc":
        return x in g.pa(y)
    if op.kind == "R_arc":
        if x not in g.pa(y):
            return False
        return not _directed_reachable(g, x, y, skip_arc=(x, y))
    raise GraphError(f"unknown DAG operator kind {op.kind!r}")


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


def dag_delta_score(g, op, scorer):
    if op.kind in ("A_arc", "D_arc"):
        return delta_score(g, op, scorer)
    if op.kind == "R_arc":
        x, y, local = op.x, op.y, scorer.local
        pay, pax = g.pa(y), g.pa(x)
        return (local(y, pay - {x}) - local(y, pay)
                + local(x, pax | {y}) - local(x, pax))
    raise GraphError(f"unknown DAG operator kind {op.kind!r}")


def dag_enumerate_neighborhood(g):
    ops = []
    n = g.node_count
    for x in range(n):
        for y in range(n):
            if x == y or g.is_adjacent(x, y):
                continue
            op = MoveOperator("A_arc", x, y)
            if dag_is_applicable(g, op):
                ops.append(op)
    for x, y in g.arcs():
        ops.append(MoveOperator("D_arc", x, y))
        op = MoveOperator("R_arc", x, y)
        if dag_is_applicable(g, op):
            ops.append(op)
    ops.sort(key=MoveOperator.sort_key)
    return ops


# -- tabu bookkeeping --------------------------------------------------------


_INVERSE_KIND = {"A_link": "D_link", "D_link": "A_link", "A_arc": "D_arc",
                 "D_arc": "A_arc", "A_hh": "D_arc"}


def _signature(op, kind=None):
    """Edge-change signature of a move, read as a move of ``kind`` when
    given; used for tabu matching."""
    kind = kind or ("A_arc" if op.kind == "A_hh" else op.kind)
    if kind in ("A_link", "D_link"):
        return (kind, min(op.x, op.y), max(op.x, op.y))
    return (kind, op.x, op.y)


def _inverse_signature(op):
    if op.kind == "R_arc":
        return ("R_arc", op.y, op.x)
    return _signature(op, _INVERSE_KIND[op.kind])


# -- drivers ------------------------------------------------------------------


class _Space:
    """Bundles the operator set of a search space."""

    def __init__(self, neighborhood, delta, apply_inplace, initial_score,
                 validate_start):
        self.neighborhood = neighborhood
        self.delta = delta
        self.apply_inplace = apply_inplace
        self.initial_score = initial_score
        self.validate_start = validate_start


_RPDAG_SPACE = _Space(enumerate_neighborhood, delta_score, _apply_inplace,
                      lambda scorer, g: scorer.score_rpdag(g),
                      lambda g: g.is_rpdag())
_DAG_SPACE = _Space(dag_enumerate_neighborhood, dag_delta_score,
                    _dag_apply_inplace,
                    lambda scorer, g: scorer.score_dag(g),
                    lambda g: g.is_dag())


def _prepare_start(dataset, start, space):
    g = PartialDag(dataset.n) if start is None else start.copy()
    if g.node_count != dataset.n:
        raise GraphError("start structure / dataset arity mismatch")
    if not space.validate_start(g):
        raise GraphError("start structure invalid for this search space")
    return g


def _greedy(dataset, scorer, space, start):
    t0 = time.perf_counter()
    g = _prepare_start(dataset, start, space)
    total = space.initial_score(scorer, g)
    iterations = 0
    individuals = 0
    trace = []
    while True:
        best_op = None
        best_delta = IMPROVE_TOL
        for op in space.neighborhood(g):
            d = space.delta(g, op, scorer)
            individuals += 1
            if d > best_delta:
                best_op, best_delta = op, d
        if best_op is None:
            break
        space.apply_inplace(g, best_op)
        total += best_delta
        iterations += 1
        trace.append((best_op, best_delta))
    report = SearchReport(
        best_score=total, iterations_applied=iterations,
        best_iteration=iterations, individuals_evaluated=individuals,
        evaluated=scorer.cache.evaluated, requested=scorer.cache.requested,
        nvars=scorer.cache.nvars,
        wall_time_seconds=time.perf_counter() - t0,
        edge_count=g.edge_count(), trace=trace)
    return g, report


def _tabu(dataset, scorer, space, start, tll, tsit):
    n = dataset.n
    tll = n if tll is None else tll
    tsit = n * (n - 1) if tsit is None else tsit
    if tll < 0 or tsit < 1:
        raise ValueError("tabu parameters out of range")
    t0 = time.perf_counter()
    g = _prepare_start(dataset, start, space)
    total = space.initial_score(scorer, g)
    best_graph, best_score, best_iteration = g.copy(), total, 0
    tabu = deque(maxlen=tll)
    iterations = 0
    individuals = 0
    trace = []
    for it in range(1, tsit + 1):
        chosen = chosen_delta = None
        fallback = fallback_delta = None
        for op in space.neighborhood(g):
            d = space.delta(g, op, scorer)
            individuals += 1
            if fallback is None or d > fallback_delta:
                fallback, fallback_delta = op, d
            blocked = (tll > 0 and _signature(op) in tabu
                       and total + d <= best_score + IMPROVE_TOL)
            if blocked:
                continue
            if chosen is None or d > chosen_delta:
                chosen, chosen_delta = op, d
        if fallback is None:
            break  # no moves at all (single-node domain)
        if chosen is None:
            chosen, chosen_delta = fallback, fallback_delta
        if tll > 0:
            tabu.append(_inverse_signature(chosen))
        space.apply_inplace(g, chosen)
        total += chosen_delta
        iterations += 1
        trace.append((chosen, chosen_delta))
        if total > best_score + IMPROVE_TOL:
            best_graph, best_score, best_iteration = g.copy(), total, it
    report = SearchReport(
        best_score=best_score, iterations_applied=iterations,
        best_iteration=best_iteration, individuals_evaluated=individuals,
        evaluated=scorer.cache.evaluated, requested=scorer.cache.requested,
        nvars=scorer.cache.nvars,
        wall_time_seconds=time.perf_counter() - t0,
        edge_count=best_graph.edge_count(), trace=trace)
    return best_graph, report


def greedy_search(dataset, scorer, start=None):
    """Greedy best-improvement search over restricted PDAGs from the
    empty graph (or a given valid start)."""
    return _greedy(dataset, scorer, _RPDAG_SPACE, start)


def tabu_search(dataset, scorer, tll=None, tsit=None, start=None):
    """Tabu search over restricted PDAGs: exactly tsit iterations, each
    applying the best non-forbidden move (even if it worsens the score),
    with a list of the last tll applied moves' inverses and aspiration by
    best score seen.  Defaults: tll = n, tsit = n(n-1)."""
    return _tabu(dataset, scorer, _RPDAG_SPACE, start, tll, tsit)


def dag_greedy_search(dataset, scorer, start=None):
    """Baseline greedy search over DAGs (add / delete / reverse)."""
    return _greedy(dataset, scorer, _DAG_SPACE, start)


def dag_tabu_search(dataset, scorer, tll=None, tsit=None, start=None):
    """Baseline tabu search over DAGs; defaults as in tabu_search."""
    return _tabu(dataset, scorer, _DAG_SPACE, start, tll, tsit)
