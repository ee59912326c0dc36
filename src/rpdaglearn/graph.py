"""Partially directed acyclic graphs with restricted-PDAG machinery.

A ``PartialDag`` holds arcs (directed edges) and links (undirected edges)
over nodes 0..n-1, with constant-time parent/child/neighbor lookups.  The
module provides the structural queries needed by the local search: validity
tests for restricted PDAGs, the undirected-cycle and directed-cycle path
tests, the orientation cascades that restore validity after an edge change,
extension to a representative DAG, and the skeleton and head-to-head
patterns that :mod:`rpdaglearn.census` groups DAGs by.
"""

from __future__ import annotations

import itertools
from collections import deque


class GraphError(Exception):
    """Structural precondition violated (bad node, duplicate edge, ...)."""


class PartialDag:
    """Mixed graph of arcs x->y and links x-y over nodes 0..n-1.

    At most one edge per node pair, no self loops.  Mutation methods keep
    the parent/child/neighbor indices consistent; they do not enforce
    restricted-PDAG validity (use :meth:`is_rpdag` for that).
    """

    def __init__(self, node_count):
        if node_count < 0:
            raise GraphError("node_count must be non-negative")
        self.node_count = node_count
        self._pa = [set() for _ in range(node_count)]
        self._ch = [set() for _ in range(node_count)]
        self._ne = [set() for _ in range(node_count)]

    # -- construction helpers -------------------------------------------

    @classmethod
    def from_edges(cls, node_count, arcs=(), links=()):
        g = cls(node_count)
        for x, y in arcs:
            g.add_arc(x, y)
        for x, y in links:
            g.add_link(x, y)
        return g

    def copy(self):
        g = PartialDag(self.node_count)
        g._pa = [set(s) for s in self._pa]
        g._ch = [set(s) for s in self._ch]
        g._ne = [set(s) for s in self._ne]
        return g

    def __eq__(self, other):
        if not isinstance(other, PartialDag):
            return NotImplemented
        return (self.node_count == other.node_count
                and self._pa == other._pa and self._ne == other._ne)

    def __repr__(self):
        arcs = sorted(self.arcs())
        links = sorted(self.links())
        return f"PartialDag(n={self.node_count}, arcs={arcs}, links={links})"

    # -- basic queries ---------------------------------------------------

    def _check_node(self, y):
        if not 0 <= y < self.node_count:
            raise GraphError(f"node index {y} out of range [0, {self.node_count})")

    def pa(self, y):
        self._check_node(y)
        return self._pa[y]

    def ch(self, y):
        self._check_node(y)
        return self._ch[y]

    def ne(self, y):
        self._check_node(y)
        return self._ne[y]

    def ad(self, y):
        self._check_node(y)
        return self._pa[y] | self._ch[y] | self._ne[y]

    def is_adjacent(self, x, y):
        return y in self.ad(x)

    def arcs(self):
        for y in range(self.node_count):
            for x in self._pa[y]:
                yield (x, y)

    def links(self):
        for x in range(self.node_count):
            for y in self._ne[x]:
                if x < y:
                    yield (x, y)

    def edge_count(self):
        arcs = sum(len(s) for s in self._pa)
        links = sum(len(s) for s in self._ne) // 2
        return arcs + links

    def skeleton(self):
        pairs = set()
        for x, y in self.arcs():
            pairs.add((min(x, y), max(x, y)))
        pairs.update(self.links())
        return frozenset(pairs)

    # -- mutation --------------------------------------------------------

    def add_arc(self, x, y):
        self._check_node(x)
        self._check_node(y)
        if x == y:
            raise GraphError("self loop")
        if self.is_adjacent(x, y):
            raise GraphError(f"nodes {x}, {y} already adjacent")
        self._pa[y].add(x)
        self._ch[x].add(y)

    def remove_arc(self, x, y):
        if x not in self.pa(y):
            raise GraphError(f"arc {x}->{y} not present")
        self._pa[y].discard(x)
        self._ch[x].discard(y)

    def add_link(self, x, y):
        self._check_node(x)
        self._check_node(y)
        if x == y:
            raise GraphError("self loop")
        if self.is_adjacent(x, y):
            raise GraphError(f"nodes {x}, {y} already adjacent")
        self._ne[x].add(y)
        self._ne[y].add(x)

    def remove_link(self, x, y):
        if x not in self.ne(y):
            raise GraphError(f"link {x}-{y} not present")
        self._ne[x].discard(y)
        self._ne[y].discard(x)

    # -- validity --------------------------------------------------------

    def _kahn_order(self):
        """Kahn's algorithm over the arcs, lowest ready node first and
        children in ascending order; shorter than node_count iff the arcs
        contain a directed cycle."""
        indeg = [len(self._pa[y]) for y in range(self.node_count)]
        queue = deque(y for y in range(self.node_count) if indeg[y] == 0)
        order = []
        while queue:
            u = queue.popleft()
            order.append(u)
            for t in sorted(self._ch[u]):
                indeg[t] -= 1
                if indeg[t] == 0:
                    queue.append(t)
        return order

    def has_directed_cycle(self):
        return len(self._kahn_order()) < self.node_count

    def has_undirected_cycle(self):
        # The links-only subgraph is acyclic iff each connected component
        # is a tree (edges = nodes - 1).
        for comp in self.chain_components():
            edges = sum(len(self._ne[u] & comp) for u in comp) // 2
            if edges >= len(comp):
                return True
        return False

    def dag_problem(self):
        """What keeps the graph from being a DAG; "" for a DAG."""
        if any(self._ne):
            return "not a DAG: it has links"
        if self.has_directed_cycle():
            return "not a DAG: it has a directed cycle"
        return ""

    def is_dag(self):
        return not self.dag_problem()

    def rpdag_violations(self):
        """Return the list of violated restricted-PDAG conditions (1-4)."""
        bad = []
        if any(self._pa[y] and self._ne[y] for y in range(self.node_count)):
            bad.append(1)
        if self.has_directed_cycle():
            bad.append(2)
        if self.has_undirected_cycle():
            bad.append(3)
        for x, y in self.arcs():
            if len(self._pa[y]) < 2 and not self._pa[x]:
                bad.append(4)
                break
        return bad

    def rpdag_problem(self):
        """The failed restricted-PDAG conditions; "" for a restricted
        PDAG."""
        bad = ", ".join(map(str, self.rpdag_violations()))
        return bad and f"restricted-PDAG condition {bad} fails"

    def is_rpdag(self):
        return not self.rpdag_violations()

    # -- path tests ------------------------------------------------------

    def undirected_reachable(self, x, y):
        """True iff a links-only path joins x and y (the UC test)."""
        self._check_node(x)
        self._check_node(y)
        if x == y:
            return True
        seen = {x}
        queue = deque([x])
        while queue:
            u = queue.popleft()
            for t in self._ne[u]:
                if t == y:
                    return True
                if t not in seen:
                    seen.add(t)
                    queue.append(t)
        return False

    def partially_directed_reachable(self, y, x, skip_link=None):
        """True iff a semi-directed path runs from y to x (the DC test).

        Links may be traversed in both directions, arcs only forward.
        ``skip_link`` names one link (as an unordered pair) to ignore,
        used when a link is about to be redirected by an operator.
        """
        self._check_node(x)
        self._check_node(y)
        return x == y or x in self.semi_directed_reach(y, skip_link)

    def semi_directed_reach(self, y, skip_link=None):
        """The set of nodes on semi-directed paths from y, y included;
        ``skip_link`` as in :meth:`partially_directed_reachable`."""
        a, b = skip_link if skip_link is not None else (None, None)
        seen = {y}
        stack = [y]
        while stack:
            u = stack.pop()
            for t in self._ch[u]:
                if t not in seen:
                    seen.add(t)
                    stack.append(t)
            for t in self._ne[u]:
                if t not in seen and not (u in (a, b) and t in (a, b)):
                    seen.add(t)
                    stack.append(t)
        return seen

    # -- cascades --------------------------------------------------------

    def complete_cascade(self, y):
        """Direct all links away from y, in cascade (in place).

        Called after y gains a parent: every link y-t becomes the arc
        y->t, and every node that thereby gains a parent fires in turn,
        until no node has both a parent and a neighbor.  A no-op when y has
        no parent or no link.
        """
        pending = deque([y])
        while pending:
            u = pending.popleft()
            if not self._pa[u]:
                continue
            for t in list(self._ne[u]):
                self.remove_link(u, t)
                self.add_arc(u, t)
                pending.append(t)
        return self

    def undo_cascade(self, y):
        """Convert arcs back into links after an arc into y was deleted
        (or, from :meth:`reduce_to_rpdag`, below a parentless y).

        Restores condition 4 in one breadth-first pass, which turns each
        arc v->t with Pa(t) = {v} into a link and goes on from t.  It
        starts at y's one parent u if Pa(u) is empty, or at y if y has no
        parent; a no-op when |Pa(y)| > 1 or when y's one parent has one.
        """
        start = y
        if self._pa[y]:
            if len(self._pa[y]) > 1:
                return self
            (start,) = self._pa[y]
            if self._pa[start]:
                return self
        pending = deque([start])
        while pending:
            v = pending.popleft()
            for t in list(self._ch[v]):
                if self._pa[t] == {v}:
                    self.remove_arc(v, t)
                    self.add_link(v, t)
                    pending.append(t)
        return self

    def reduce_to_rpdag(self):
        """Return the unique restricted PDAG with the same skeleton and
        head-to-head patterns, obtained by undirecting every arc x->y with
        Pa(x) empty and Pa(y) = {x}: the undo cascade from each node that
        has no parent.

        The input must satisfy conditions 1-3 (no parent-with-neighbor
        node, no directed cycle, no completely undirected cycle).
        """
        bad = [c for c in self.rpdag_violations() if c != 4]
        if bad:
            raise GraphError(f"input violates conditions {bad}")
        g = self.copy()
        for y in range(self.node_count):
            if not self._pa[y]:
                g.undo_cascade(y)
        return g

    # -- chain components and extension -----------------------------------

    def chain_components(self):
        """Partition of the nodes into links-only connected components."""
        comps = []
        seen = set()
        for s in range(self.node_count):
            if s in seen:
                continue
            comp = {s}
            queue = deque([s])
            seen.add(s)
            while queue:
                u = queue.popleft()
                for t in self._ne[u]:
                    if t not in seen:
                        seen.add(t)
                        comp.add(t)
                        queue.append(t)
            comps.append(comp)
        return comps

    def count_extensions(self):
        """Number of DAGs extending this restricted PDAG: the product of
        the chain component sizes."""
        if not self.is_rpdag():
            raise GraphError("count_extensions requires a restricted PDAG")
        total = 1
        for comp in self.chain_components():
            total *= len(comp)
        return total

    def extend(self):
        """Return the canonical DAG extension.

        Each chain component is rooted at its lowest-index node and its
        link tree is oriented away from the root.  Deterministic, so that
        scoring and structural comparison are reproducible.
        """
        if not self.is_rpdag():
            raise GraphError("extend requires a restricted PDAG")
        g = self.copy()
        for comp in self.chain_components():
            # Nodes with links have no parent (condition 1), so once the
            # root's links point away from it, the completion cascade from
            # each of its neighbours orients the rest of the tree.
            root = min(comp)
            neighbours = list(g._ne[root])
            for t in neighbours:
                g.remove_link(root, t)
                g.add_arc(root, t)
            for t in neighbours:
                g.complete_cascade(t)
        return g

    def topological_order(self):
        order = self._kahn_order()
        if any(self._ne) or len(order) < self.node_count:
            raise GraphError("topological order requires a DAG")
        return order

    # -- equivalence -------------------------------------------------------

    def hh_patterns(self):
        """Head-to-head triplets (x, y, z), x < z, with arcs x->y and z->y."""
        out = set()
        for y in range(self.node_count):
            for x, z in itertools.combinations(sorted(self._pa[y]), 2):
                out.add((x, y, z))
        return frozenset(out)

    def v_structures(self):
        """Head-to-head patterns whose endpoints are non-adjacent."""
        return frozenset((x, y, z) for x, y, z in self.hh_patterns()
                         if not self.is_adjacent(x, z))
