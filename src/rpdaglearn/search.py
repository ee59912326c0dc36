"""Local search over restricted PDAGs, with a DAG-space baseline.

The restricted-PDAG neighborhood uses five operators: arc addition, link
addition, arc deletion, link deletion, and head-to-head creation (adding
an arc x->y while redirecting an existing link y-z into z->y).  Every
operator's score change is computed from exactly two local scores.  The
DAG baseline uses arc addition, deletion, and reversal (reversal costs
two local-score pairs).  One search loop runs greedy or fixed-iteration
tabu search in either space.
"""

from __future__ import annotations

import functools
import time
import types
from collections import deque
from dataclasses import dataclass, field

from .graph import GraphError, PartialDag

IMPROVE_TOL = 1e-12

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
    """Score change of an applicable operator in either space."""
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
    if op.kind == "R_arc":
        pay, pax = g.pa(y), g.pa(x)
        return (local(y, pay - {x}) - local(y, pay)
                + local(x, pax | {y}) - local(x, pax))
    raise GraphError(f"unknown operator kind {op.kind!r}")


# Operators are frozen values, so the enumerator hands out one shared
# instance per distinct move instead of building a new one every iteration,
# and the delta cache's lookups match it by identity, not field by field.
# The bound caps the memory held.
_operator = functools.lru_cache(maxsize=1 << 16)(MoveOperator)


def enumerate_neighborhood(g):
    """All applicable operators on g, deduplicated (undirected moves are
    emitted once, with x < y) and in deterministic tie-break order.

    The list equals every candidate filtered through :func:`is_applicable`
    and sorted by :meth:`MoveOperator.sort_key`, built in one pass: the UC
    test compares link-component ids and each DC test reads one
    semi-directed reach set per source node (and skipped link)."""
    n = g.node_count
    pa, ch, ne = g._pa, g._ch, g._ne
    component = [0] * n
    for i, comp in enumerate(g.chain_components()):
        for v in comp:
            component[v] = i
    reach = {}      # (y, skipped neighbour or None) -> semi-directed reach

    def reaches(y, x, z=None):
        key = (y, z)
        if key not in reach:
            reach[key] = g.semi_directed_reach(
                y, None if z is None else (y, z))
        return x in reach[key]

    neighbours = [sorted(s) for s in ne]
    links, arcs, hhs = [], [], []
    for x in range(n):
        adjacent = pa[x] | ch[x] | ne[x]
        anchored = bool(pa[x] or ne[x])
        for y in range(n):
            if x == y or y in adjacent:
                continue
            if not (pa[x] or pa[y]):
                if x < y and component[x] != component[y]:
                    links.append(_operator("A_link", x, y))
            elif not (pa[x] and (ch[y] or ne[y]) and reaches(y, x)):
                arcs.append(_operator("A_arc", x, y))
            if pa[y]:
                continue
            outgoing = ch[y] or len(ne[y]) >= 2
            for z in neighbours[y]:
                if z != x and not (outgoing and anchored
                                   and reaches(y, x, z)):
                    hhs.append(_operator("A_hh", x, y, z))
    return (links + arcs + hhs
            + [_operator("D_arc", x, y) for x, y in sorted(g.arcs())]
            + [_operator("D_link", x, y) for x, y in sorted(g.links())])


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


def dag_enumerate_neighborhood(g):
    """All applicable add/delete/reverse moves on the DAG g, in
    tie-break order.

    The list equals every candidate filtered through
    :func:`dag_is_applicable` and sorted by :meth:`MoveOperator.sort_key`,
    built in one pass from one descendant set per node: x->y closes a
    cycle iff x descends from y, and reversing x->y does iff y descends
    from another child of x."""
    n, ch = g.node_count, g._ch
    desc = [g.semi_directed_reach(v) for v in range(n)]
    arcs = sorted(g.arcs())
    # x in desc[x], so the descendant test also rules out x == y.
    return ([_operator("A_arc", x, y) for x in range(n) for y in range(n)
             if y not in ch[x] and x not in desc[y]]
            + [_operator("D_arc", x, y) for x, y in arcs]
            + [_operator("R_arc", x, y) for x, y in arcs
               if not any(y in desc[c] for c in ch[x] if c != y)])


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
_RPDAG_SPACE = _Space(neighborhood=enumerate_neighborhood, delta=delta_score,
                      apply_inplace=_apply_inplace,
                      initial_score=lambda scorer, g: scorer.score_rpdag(g),
                      start_problem=PartialDag.rpdag_problem)
_DAG_SPACE = _Space(neighborhood=dag_enumerate_neighborhood, delta=delta_score,
                    apply_inplace=_dag_apply_inplace,
                    initial_score=lambda scorer, g: scorer.score_dag(g),
                    start_problem=PartialDag.dag_problem)


def _prepare_start(dataset, start, space):
    g = PartialDag(dataset.n) if start is None else start.copy()
    if g.node_count != dataset.n:
        raise StartError("start structure / dataset arity mismatch")
    problem = space.start_problem(g)
    if problem:
        raise StartError(f"start structure invalid: {problem}")
    return g


def _parents_read(op):
    """Nodes whose parent sets the delta of ``op`` reads; the link and
    head-to-head moves score fixed families."""
    if op.kind in ("A_arc", "D_arc"):
        return (op.y,)
    if op.kind == "R_arc":
        return (op.x, op.y)
    return ()


class _DeltaCache:
    """Operator deltas kept across the iterations of one search.

    A delta stays valid until a parent set it reads (see
    :func:`_parents_read`) changes, so after each move only the deltas
    reading a changed parent set are dropped.  ``space.delta`` runs only
    on a miss; ``misses`` counts those runs (the ``Ind`` counter)."""

    def __init__(self, space, scorer, n):
        self.space, self.scorer = space, scorer
        self.values = {}
        self.readers = [[] for _ in range(n)]
        self.misses = 0

    def scored(self, g):
        """(operator, delta) for each move of g's neighbourhood."""
        values = self.values
        for op in self.space.neighborhood(g):
            d = values.get(op)
            if d is None:
                d = values[op] = self.space.delta(g, op, self.scorer)
                self.misses += 1
                for v in _parents_read(op):
                    self.readers[v].append(op)
            yield op, d

    def apply(self, g, op):
        """Apply op to g in place, cascades included, and drop the deltas
        that read a parent set it changed."""
        before = [set(p) for p in g._pa]
        self.space.apply_inplace(g, op)
        for v, parents in enumerate(g._pa):
            if parents != before[v]:
                for stale in self.readers[v]:
                    self.values.pop(stale, None)
                self.readers[v] = []


def _search(dataset, scorer, space, start, greedy, tll=None, tsit=None):
    """The one search loop.  Each iteration applies the first maximal move
    the tabu list does not block, or the first maximal move when every move
    is blocked; the list is read only for a move that beats the allowed one
    so far.  Greedy keeps no tabu list and stops before a move whose
    delta is at most IMPROVE_TOL; its best graph is its current graph,
    since an applied move may gain less than the score's ulp.  Tabu runs
    tsit iterations and keeps a copy of the best graph seen."""
    n = dataset.n
    if greedy:
        tll = 0
    else:
        tll = n if tll is None else tll
        tsit = n * (n - 1) if tsit is None else tsit
        if tll < 0 or tsit < 1:
            raise ValueError("tabu parameters out of range")
    t0 = time.perf_counter()
    g = _prepare_start(dataset, start, space)
    best_graph = g if greedy else g.copy()
    total = best_score = space.initial_score(scorer, g)
    best_iteration = 0
    deltas = _DeltaCache(space, scorer, n)
    tabu = deque(maxlen=tll)
    trace = []
    while greedy or len(trace) < tsit:
        best = allowed = None
        for op, d in deltas.scored(g):
            if best is None or d > best[1]:
                best = op, d
            if (allowed is None or d > allowed[1]) and not (
                    tabu and _signature(op) in tabu
                    and total + d <= best_score + IMPROVE_TOL):
                allowed = op, d
        chosen = allowed or best
        if chosen is None or (greedy and chosen[1] <= IMPROVE_TOL):
            break
        op, d = chosen
        tabu.append(_inverse_signature(op))
        deltas.apply(g, op)
        total += d
        trace.append(chosen)
        if greedy:
            best_score, best_iteration = total, len(trace)
        elif total > best_score + IMPROVE_TOL:
            best_graph, best_score = g.copy(), total
            best_iteration = len(trace)
    report = SearchReport(
        best_score=best_score, iterations_applied=len(trace),
        best_iteration=best_iteration, individuals_evaluated=deltas.misses,
        evaluated=scorer.cache.evaluated, requested=scorer.cache.requested,
        nvars=scorer.cache.nvars,
        wall_time_seconds=time.perf_counter() - t0,
        edge_count=best_graph.edge_count(), trace=trace)
    return best_graph, report


def greedy_search(dataset, scorer, start=None):
    """Greedy best-improvement search over restricted PDAGs from the
    empty graph (or a given valid start)."""
    return _search(dataset, scorer, _RPDAG_SPACE, start, True)


def tabu_search(dataset, scorer, tll=None, tsit=None, start=None):
    """Tabu search over restricted PDAGs: exactly tsit iterations, each
    applying the best non-forbidden move (even if it worsens the score),
    with a list of the last tll applied moves' inverses and aspiration by
    best score seen.  Defaults: tll = n, tsit = n(n-1)."""
    return _search(dataset, scorer, _RPDAG_SPACE, start, False, tll, tsit)


def dag_greedy_search(dataset, scorer, start=None):
    """Baseline greedy search over DAGs (add / delete / reverse)."""
    return _search(dataset, scorer, _DAG_SPACE, start, True)


def dag_tabu_search(dataset, scorer, tll=None, tsit=None, start=None):
    """Baseline tabu search over DAGs; defaults as in tabu_search."""
    return _search(dataset, scorer, _DAG_SPACE, start, False, tll, tsit)
