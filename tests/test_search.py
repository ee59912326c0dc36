import itertools

import numpy as np
import pytest

from conftest import (is_extension, oracle_dag_is_applicable,
                      oracle_is_applicable, random_dag, random_dataset,
                      random_network, random_rpdag)
from rpdaglearn import scoring, search
from rpdaglearn.census import enumerate_dags, group_by_rpdag_key, rpdag_key
from rpdaglearn.data import BayesNet, Dataset, sample
from rpdaglearn.graph import GraphError, PartialDag
from rpdaglearn.scoring import Scorer
from rpdaglearn.search import (MoveOperator, StartError, apply_operator,
                               dag_apply_operator,
                               dag_enumerate_neighborhood, dag_greedy_search,
                               dag_is_applicable, dag_tabu_search,
                               delta_score, enumerate_neighborhood,
                               greedy_search, is_applicable, tabu_search)


DAG_KINDS = ("A_arc", "D_arc", "R_arc")
EPS = np.finfo(float).eps


def g_from(n, arcs=(), links=()):
    return PartialDag.from_edges(n, arcs, links)


def pair_ops(ops, x, y):
    """Operators that connect the unordered pair {x, y}."""
    return [op for op in ops
            if op.kind in ("A_link", "A_arc", "A_hh")
            and {op.x, op.y} == {x, y}]


class TestOperatorValidation:
    def test_identical_endpoints(self):
        with pytest.raises(GraphError):
            MoveOperator("A_arc", 1, 1)

    def test_hh_needs_third_node(self):
        with pytest.raises(GraphError):
            MoveOperator("A_hh", 0, 1)
        with pytest.raises(GraphError):
            MoveOperator("A_hh", 0, 1, 1)

    def test_third_node_only_for_hh(self):
        with pytest.raises(GraphError):
            MoveOperator("A_arc", 0, 1, 2)

    def test_unknown_kind(self):
        with pytest.raises(GraphError, match="unknown operator kind 'A_ark'"):
            MoveOperator("A_ark", 0, 1)


class TestApplicability:
    def test_link_between_unparented(self):
        assert is_applicable(PartialDag(2), MoveOperator("A_link", 0, 1))

    def test_link_blocked_by_parent(self):
        g = g_from(3, arcs=[(0, 1), (2, 1)])
        assert not is_applicable(g, MoveOperator("A_link", 1, 2))

    def test_link_blocked_by_undirected_path(self):
        g = g_from(3, links=[(0, 1), (1, 2)])
        assert not is_applicable(g, MoveOperator("A_link", 0, 2))

    def test_arc_needs_anchoring(self):
        # Neither endpoint has a parent: an arc would violate the
        # restricted form, so only a link may connect them.
        assert not is_applicable(PartialDag(2), MoveOperator("A_arc", 0, 1))

    def test_arc_cycle_pretest(self):
        g = g_from(4, arcs=[(0, 1), (2, 1)], links=[])
        g.add_arc(1, 3)
        assert not is_applicable(g, MoveOperator("A_arc", 3, 0))
        assert is_applicable(g, MoveOperator("A_arc", 0, 3))

    def test_hh_requires_link_at_y(self):
        g = g_from(3, arcs=[(2, 1)])
        assert not is_applicable(g, MoveOperator("A_hh", 0, 1, 2))

    def test_hh_semi_directed_cycle_pretest(self):
        # y - z plus a path from y back to x through links/arcs.
        g = g_from(4, links=[(1, 2), (1, 3)])
        g2 = g.copy()
        g2.add_link(3, 0)
        assert not is_applicable(g2, MoveOperator("A_hh", 0, 1, 2))
        assert is_applicable(g, MoveOperator("A_hh", 0, 1, 2))

    @pytest.mark.parametrize("applicable", [is_applicable, dag_is_applicable],
                             ids=["rpdag", "dag"])
    @pytest.mark.parametrize("kind", search._KINDS)
    def test_node_outside_graph_refused(self, applicable, kind):
        # Whichever node is outside g, in either space and for every kind,
        # even one the space does not have.
        nodes = ([(5, 0, 1), (0, 5, 1), (0, 1, 5), (-1, 0, 1)]
                 if kind == "A_hh" else [(5, 0), (0, 5), (-1, 0)])
        for args in nodes:
            with pytest.raises(GraphError, match="out of range"):
                applicable(PartialDag(3), MoveOperator(kind, *args))

    def test_kind_of_other_space_not_applicable(self):
        g = g_from(3, arcs=[(0, 1), (2, 1)])
        assert dag_is_applicable(g, MoveOperator("R_arc", 0, 1))
        assert not is_applicable(g, MoveOperator("R_arc", 0, 1))
        assert is_applicable(PartialDag(3), MoveOperator("A_link", 0, 1))
        for op in (MoveOperator("A_link", 0, 1), MoveOperator("D_link", 0, 1),
                   MoveOperator("A_hh", 0, 1, 2)):
            assert not dag_is_applicable(PartialDag(3), op)

    def test_link_move_named_either_way(self):
        for g in (PartialDag(2), g_from(2, links=[(0, 1)])):
            for kind in ("A_link", "D_link"):
                answer = is_applicable(g, MoveOperator(kind, 0, 1))
                assert is_applicable(g, MoveOperator(kind, 1, 0)) == answer
        assert is_applicable(PartialDag(2), MoveOperator("A_link", 1, 0))
        assert is_applicable(g_from(2, links=[(0, 1)]),
                             MoveOperator("D_link", 1, 0))


class TestNeighborhoodCounts:
    def test_empty_graph_all_links(self):
        for n in (2, 3, 5):
            ops = enumerate_neighborhood(PartialDag(n))
            assert len(ops) == n * (n - 1) // 2
            assert all(op.kind == "A_link" for op in ops)

    def test_unparented_pair_with_neighbors(self):
        # Both endpoints unparented: one link plus one head-to-head per
        # neighbor on each side, n(x) + n(y) + 1 ways to connect them.
        g = g_from(6, links=[(0, 2), (1, 3), (1, 4)])
        ops = pair_ops(enumerate_neighborhood(g), 0, 1)
        kinds = sorted(op.kind for op in ops)
        assert kinds == ["A_hh", "A_hh", "A_hh", "A_link"]

    def test_parented_x_with_neighbored_y(self):
        # x has a parent, y has two neighbors: both arc directions plus
        # one head-to-head per neighbor of y, and no link.
        g = g_from(6, arcs=[(5, 0)], links=[(1, 3), (1, 4)])
        ops = pair_ops(enumerate_neighborhood(g), 0, 1)
        kinds = sorted(op.kind for op in ops)
        assert kinds == ["A_arc", "A_arc", "A_hh", "A_hh"]
        hh = [op for op in ops if op.kind == "A_hh"]
        assert all(op.x == 0 and op.y == 1 for op in hh)

    def test_every_edge_deletable(self):
        g = g_from(5, arcs=[(0, 2), (1, 2)], links=[(3, 4)])
        ops = enumerate_neighborhood(g)
        assert MoveOperator("D_arc", 0, 2) in ops
        assert MoveOperator("D_arc", 1, 2) in ops
        assert MoveOperator("D_link", 3, 4) in ops

    def test_sorted_and_unique(self, rng):
        for _ in range(25):
            g = random_rpdag(5, rng)
            ops = enumerate_neighborhood(g)
            keys = [op.sort_key() for op in ops]
            assert keys == sorted(keys)
            assert len(set(ops)) == len(ops)


def oracle_neighborhood(g):
    """Every candidate operator filtered through oracle_is_applicable, in
    tie-break order: the neighbourhood by definition."""
    n = g.node_count
    candidates = []
    for x in range(n):
        for y in range(n):
            if x == y:
                continue
            kinds = ("A_link", "A_arc", "D_arc", "D_link") if x < y \
                else ("A_arc", "D_arc")
            candidates += [MoveOperator(kind, x, y) for kind in kinds]
            candidates += [MoveOperator("A_hh", x, y, z)
                           for z in range(n) if z not in (x, y)]
    return sorted((op for op in candidates if oracle_is_applicable(g, op)),
                  key=MoveOperator.sort_key)


def oracle_graphs(count):
    """Seeded random restricted PDAGs, n = 4..9: reduced random DAGs of
    several densities, and the ends of random operator walks."""
    rng = np.random.default_rng(77)
    graphs = []
    while len(graphs) < count:
        n = int(rng.integers(4, 10))
        graphs.append(random_rpdag(n, rng, p=float(rng.uniform(0.1, 0.7))))
        g = PartialDag(n)
        for _ in range(int(rng.integers(1, 3 * n))):
            ops = enumerate_neighborhood(g)
            g = apply_operator(g, ops[int(rng.integers(len(ops)))])
        graphs.append(g)
    return graphs


class TestNeighborhoodOracle:
    def test_equals_filtered_candidates(self):
        skip_matters = 0
        for g in oracle_graphs(240):
            assert g.is_rpdag()
            expected = oracle_neighborhood(g)
            assert enumerate_neighborhood(g) == expected, g
            # A head-to-head move whose DC test passes only because the
            # redirected link y-z is skipped.
            skip_matters += sum(
                1 for op in expected if op.kind == "A_hh"
                and g.partially_directed_reachable(op.y, op.x))
        assert skip_matters > 0

    def test_graphs_visited_by_tabu(self, monkeypatch):
        # Larger chain components than oracle_graphs builds: every graph a
        # seeded tabu run visits at n = 12.
        visited, build = [], search._RPDAG_SPACE.neighborhood

        def recorded(g):
            visited.append(g.copy())
            return build(g)

        monkeypatch.setattr(search._RPDAG_SPACE, "neighborhood", recorded)
        ds = sample(random_network(12, seed=12), 2000, seed=12)
        tabu_search(ds, Scorer(ds))
        assert len(visited) == 132
        assert max(len(c) for g in visited
                   for c in g.chain_components()) == 8
        for g in visited:
            assert g.is_rpdag()
            assert enumerate_neighborhood(g) == oracle_neighborhood(g), g


def dag_oracle_neighborhood(g):
    """Every add/delete/reverse candidate filtered through
    oracle_dag_is_applicable, in tie-break order."""
    n = g.node_count
    candidates = [MoveOperator(kind, x, y) for kind in DAG_KINDS
                  for x in range(n) for y in range(n) if x != y]
    return sorted((op for op in candidates
                   if oracle_dag_is_applicable(g, op)),
                  key=MoveOperator.sort_key)


def dag_oracle_graphs(count):
    """Seeded random DAGs, n = 2..9: random DAGs of several densities, and
    the ends of random add/delete/reverse walks."""
    rng = np.random.default_rng(78)
    graphs = []
    while len(graphs) < count:
        n = int(rng.integers(2, 10))
        graphs.append(random_dag(n, rng, p=float(rng.uniform(0.1, 0.8))))
        g = PartialDag(n)
        for _ in range(int(rng.integers(1, 3 * n))):
            ops = dag_enumerate_neighborhood(g)
            g = dag_apply_operator(g, ops[int(rng.integers(len(ops)))])
        graphs.append(g)
    return graphs


class TestDagNeighborhoodOracle:
    def test_equals_filtered_candidates(self):
        cycle_arcs = long_reversals = 0
        for g in dag_oracle_graphs(240):
            assert g.is_dag()
            expected = dag_oracle_neighborhood(g)
            assert dag_enumerate_neighborhood(g) == expected, g
            # Additions between non-adjacent nodes refused because they
            # would close a directed cycle.
            n = g.node_count
            cycle_arcs += sum(
                1 for x in range(n) for y in range(n)
                if x != y and not g.is_adjacent(x, y)
                and MoveOperator("A_arc", x, y) not in expected)
            # Reversals of x->y blocked only by a path x->c->...->y of at
            # least three arcs.
            long_reversals += sum(
                1 for x, y in g.arcs()
                if MoveOperator("R_arc", x, y) not in expected
                and not any(y in g.ch(c) for c in g.ch(x)))
        assert cycle_arcs > 0
        assert long_reversals > 0


class TestNeighbourhoodKinds:
    @pytest.mark.parametrize("build, make, kinds", [
        (search._rpdag_neighbourhood, random_rpdag,
         ("A_link", "A_arc", "A_hh", "D_arc", "D_link")),
        (search._dag_neighbourhood, random_dag, DAG_KINDS)],
        ids=["rpdag", "dag"])
    def test_holds_only_its_space_kinds(self, build, make, kinds):
        assert [k for k in search._KINDS if k in kinds] == list(kinds)
        rng = np.random.default_rng(14)
        applied = set()
        for _ in range(60):
            n = int(rng.integers(2, 10))
            nb = build(make(n, rng, p=float(rng.uniform(0.1, 0.8))))
            assert list(nb.masks) == list(kinds)
            assert nb.start[-1] == nb.flat.size
            ops = nb.moves()
            assert [nb.move(i) for i in np.flatnonzero(nb.flat)] == ops
            assert len(nb) == len(ops)
            applied |= {op.kind for op in ops}
        assert applied == set(kinds)


class TestClosure:
    def test_all_operators_preserve_restricted_form_n4(self):
        # Exhaustive: every representative restricted PDAG on 4 nodes,
        # every applicable operator.
        reps = [dags[0].reduce_to_rpdag()
                for dags in group_by_rpdag_key(4).values()]
        reps.append(PartialDag(4))
        for g in reps:
            for op in enumerate_neighborhood(g):
                h = apply_operator(g, op)
                assert h.is_rpdag(), (g, op, h)

    def test_random_walks_beyond_census(self):
        # Every move on 6-12 nodes keeps the restricted form and changes
        # exactly the moved pair, with the edge the operator names.
        rng = np.random.default_rng(7013)
        for _ in range(60):
            g = random_rpdag(int(rng.integers(6, 13)), rng,
                             p=float(rng.uniform(0.1, 0.5)))
            for _ in range(15):
                ops = enumerate_neighborhood(g)
                op = ops[int(rng.integers(len(ops)))]
                h = apply_operator(g, op)
                assert h.is_rpdag(), (g, op, h)
                pair = {(min(op.x, op.y), max(op.x, op.y))}
                assert h.skeleton() ^ g.skeleton() == pair, (g, op, h)
                if op.kind == "A_link":
                    assert op.x in h.ne(op.y)
                elif op.kind in ("A_arc", "A_hh"):
                    assert op.x in h.pa(op.y)
                    assert op.z is None or op.z in h.pa(op.y)
                g = h

    def test_input_untouched(self):
        g = g_from(3, links=[(0, 1)])
        before = g.copy()
        apply_operator(g, MoveOperator("D_link", 0, 1))
        assert g == before

    @pytest.mark.parametrize("apply, g, op", [
        (apply_operator, g_from(3, links=[(0, 1)]),
         MoveOperator("D_arc", 0, 1)),
        (dag_apply_operator, g_from(3, arcs=[(0, 1), (1, 2)]),
         MoveOperator("A_arc", 2, 0)),
    ], ids=["rpdag", "dag"])
    def test_inapplicable_move_refused(self, apply, g, op):
        before = g.copy()
        with pytest.raises(GraphError, match="not applicable"):
            apply(g, op)
        assert g == before

    def test_insertion_deletion_roundtrip(self):
        g = g_from(4, arcs=[(0, 1), (2, 1)])
        h = apply_operator(g, MoveOperator("A_arc", 1, 3))
        back = apply_operator(h, MoveOperator("D_arc", 1, 3))
        assert back == g

    def test_hh_insertion_creates_pattern(self):
        g = g_from(3, links=[(1, 2)])
        h = apply_operator(g, MoveOperator("A_hh", 0, 1, 2))
        assert h == g_from(3, arcs=[(0, 1), (2, 1)])

    def test_arc_insertion_cascades(self):
        g = g_from(4, arcs=[(3, 0)], links=[(1, 2)])
        h = apply_operator(g, MoveOperator("A_arc", 0, 1))
        assert h == g_from(4, arcs=[(3, 0), (0, 1), (1, 2)])

    def test_deletion_undo_cascades(self):
        g = g_from(4, arcs=[(0, 1), (2, 1), (1, 3)])
        h = apply_operator(g, MoveOperator("D_arc", 0, 1))
        assert h == g_from(4, links=[(1, 2), (1, 3)])


def single_arc_edits(g, extensions):
    """The keys of the acyclic single-arc additions, deletions and
    reversals on the extensions of g that change g's key, each listed once
    per extension and arc."""
    key = rpdag_key(g)
    additions, deletions, reversals = [], [], []
    for h in extensions:
        for x, y in itertools.permutations(range(h.node_count), 2):
            if x in h.pa(y):
                deleted = h.copy()
                deleted.remove_arc(x, y)
                flipped = deleted.copy()
                flipped.add_arc(y, x)
                edits = [(deletions, deleted), (reversals, flipped)]
            elif not h.is_adjacent(x, y):
                added = h.copy()
                added.add_arc(x, y)
                edits = [(additions, added)]
            else:
                continue
            for found, h2 in edits:
                if h2.is_dag() and rpdag_key(h2) != key:
                    found.append(rpdag_key(h2))
    return additions, deletions, reversals


class TestNeighborhoodCompleteness:
    def test_matches_single_arc_edits_of_extensions_n3(self):
        # Oracle: the operator neighborhood of G is exactly the set of
        # structures obtained by adding or deleting one arc in some
        # consistent extension of G.
        reps = [dags[0].reduce_to_rpdag()
                for dags in group_by_rpdag_key(3).values()]
        reps.append(PartialDag(3))
        for g in reps:
            got = {rpdag_key(apply_operator(g, op).extend())
                   for op in enumerate_neighborhood(g)}
            extensions = [h for h in enumerate_dags(3)
                          if is_extension(g, h)]
            additions, deletions, _ = single_arc_edits(g, extensions)
            want = set(additions + deletions)
            assert got == want, g

    @pytest.mark.parametrize("n, tally", [
        (3, {"additions": (48, 48), "deletions": (48, 48),
             "moves": (48, 48), "reversals": (0, 18)}),
        (4, {"additions": (2016, 2016), "deletions": (2016, 2016),
             "moves": (1932, 1932), "reversals": (0, 972)})],
        ids=["n3", "n4"])
    def test_census_of_single_arc_edits(self, n, tally):
        # A reference independent of the applicability oracles: for every
        # restricted PDAG g on n nodes (a reduced census representative,
        # extended by the DAGs sharing its key), the keys one rpdag move
        # reaches are those of the key-changing arc additions and
        # deletions on g's extensions, and never that of a key-changing
        # reversal: the paper's five operators reverse no arc.  ``tally``
        # pins (hits, total) per list, summed over every g.
        counted = dict.fromkeys(tally, (0, 0))
        for dags in group_by_rpdag_key(n).values():
            g = dags[0].reduce_to_rpdag()
            moves = [rpdag_key(apply_operator(g, op).extend())
                     for op in enumerate_neighborhood(g)]
            additions, deletions, reversals = single_arc_edits(g, dags)
            reached, edits = set(moves), set(additions + deletions)
            assert reached == edits, g
            assert not reached & set(reversals), g
            for name, keys, target in [
                    ("additions", additions, reached),
                    ("deletions", deletions, reached),
                    ("moves", moves, edits),
                    ("reversals", reversals, reached)]:
                hits, total = counted[name]
                counted[name] = (hits + sum(k in target for k in keys),
                                 total + len(keys))
        assert counted == tally


class TestDeltaScore:
    def test_matches_full_rescore(self, rng):
        for trial in range(120):
            n = int(rng.integers(3, 6))
            g = random_rpdag(n, rng)
            ops = enumerate_neighborhood(g)
            if not ops:
                continue
            op = ops[int(rng.integers(len(ops)))]
            ds = random_dataset(n, int(rng.integers(5, 80)), rng)
            for score in ("bdeu", "bic"):
                scorer = Scorer(ds, score, ess=2.0)
                d = delta_score(g, op, scorer)
                full = (scorer.score_rpdag(apply_operator(g, op))
                        - scorer.score_rpdag(g))
                assert d == pytest.approx(full, abs=1e-9), (g, op, score)

    def test_dag_reversal_two_pairs(self, rng):
        ds = random_dataset(4, 50, rng)
        scorer = Scorer(ds)
        h = g_from(4, arcs=[(0, 1), (1, 2), (0, 3)])
        op = MoveOperator("R_arc", 1, 2)
        assert dag_is_applicable(h, op)
        d = delta_score(h, op, scorer)
        full = scorer.score_dag(dag_apply_operator(h, op)) - scorer.score_dag(h)
        assert d == pytest.approx(full, abs=1e-9)

    def test_dag_neighborhood_acyclic(self, rng):
        ds = random_dataset(4, 20, rng)
        h = g_from(4, arcs=[(0, 1), (1, 2), (2, 3)])
        for op in dag_enumerate_neighborhood(h):
            assert dag_apply_operator(h, op).is_dag()


def record_scored(monkeypatch):
    """Make the search loop record each iteration's scored neighbourhood,
    as (move, delta) pairs in tie-break order; returns the record."""
    scored = search._scored
    neighbourhoods = []

    def recorded(g, nb, deltas, space, scorer):
        values, computed = scored(g, nb, deltas, space, scorer)
        neighbourhoods.append(list(zip(nb.moves(), values[nb.flat].tolist(),
                                       strict=True)))
        return values, computed

    monkeypatch.setattr(search, "_scored", recorded)
    return neighbourhoods


def replay_tabu(neighbourhoods, report, start_score, tll):
    """Replay the tabu list and the best score of a tabu run from its
    trace.  Returns one record per iteration: the scored moves, the pool
    the rule picks from (the allowed moves, or every move when all are
    blocked), the applied move, whether the list held it, whether it set
    a new best, and the tolerance of its pick; and the best score."""
    total = best = start_score
    tabu, steps = [], []
    for moves, applied in zip(neighbourhoods, report.trace, strict=True):
        tol = search._tol(total)
        allowed = [(op, d) for op, d in moves
                   if not (search._signature(op) in tabu[-tll:]
                           and total + d <= best + tol)]
        op, d = applied
        listed = search._signature(op) in tabu[-tll:]
        tabu.append(search._inverse_signature(op))
        total += d
        improved = total > best + search._tol(best)
        if improved:
            best = total
        steps.append((moves, allowed or moves, applied, listed, improved,
                      tol))
    return steps, best


def five_node_net():
    # x -> y <- z, z -> w, v isolated
    g = PartialDag.from_edges(5, arcs=[(0, 1), (2, 1), (2, 3)])
    cpts = [np.array([[0.5, 0.5]]),
            np.array([[0.1, 0.9], [0.5, 0.5], [0.5, 0.5], [0.9, 0.1]]),
            np.array([[0.5, 0.5]]),
            np.array([[0.8, 0.2], [0.2, 0.8]]),
            np.array([[0.5, 0.5]])]
    return BayesNet(list("xyzwv"), [2] * 5, g, cpts)


class TestDeltaCache:
    @pytest.mark.parametrize("run", [
        greedy_search, tabu_search, dag_greedy_search, dag_tabu_search])
    def test_used_deltas_equal_fresh_deltas(self, monkeypatch, run):
        # At every iteration, each delta the search loop compares (kept or
        # not) equals the space's delta against a fresh scorer.
        scored = search._scored
        used = []

        def checked(g, nb, deltas, space, scorer):
            values, computed = scored(g, nb, deltas, space, scorer)
            fresh = Scorer(scorer.dataset)
            for op, d in zip(nb.moves(), values[nb.flat].tolist(),
                             strict=True):
                assert d == space.delta(g, op, fresh), op
                used.append(op)
            return values, computed

        monkeypatch.setattr(search, "_scored", checked)
        ds = sample(random_network(7, seed=3, p=0.4), 1500, seed=3)
        _, report = run(ds, Scorer(ds))
        assert report.iterations_applied > 3
        assert len(used) > 2 * report.individuals_evaluated

    @pytest.mark.parametrize("run", [
        greedy_search, tabu_search, dag_greedy_search, dag_tabu_search])
    def test_batches_score_only_families_looked_up(self, monkeypatch, run):
        # Each iteration scores its new families in one batch before its
        # deltas read them; the batch scores no family a delta leaves unread.
        local, looked_up = Scorer.local, set()

        def recorded(scorer, y, parents):
            looked_up.add((y, tuple(sorted(parents))))
            return local(scorer, y, parents)

        monkeypatch.setattr(Scorer, "local", recorded)
        ds = sample(random_network(12, seed=12), 2000, seed=12)
        scorer = Scorer(ds)
        kwargs = {"tsit": 40} if run in (tabu_search, dag_tabu_search) else {}
        _, report = run(ds, scorer, **kwargs)
        assert report.iterations_applied > 5
        assert set(scorer.cache.store) == looked_up


class TestGreedy:
    def test_trace_improves_monotonically(self, rng):
        ds = random_dataset(4, 100, rng)
        g, report = greedy_search(ds, Scorer(ds))
        assert all(d > 0 for _, d in report.trace)
        assert report.iterations_applied == len(report.trace)

    def test_reported_score_matches_graph(self, rng):
        ds = random_dataset(4, 100, rng)
        g, report = greedy_search(ds, Scorer(ds))
        assert g.is_rpdag()
        assert report.best_score == pytest.approx(
            Scorer(ds).score_rpdag(g), abs=1e-6)

    def test_deterministic(self, rng):
        ds = random_dataset(5, 150, rng)
        g1, r1 = greedy_search(ds, Scorer(ds))
        g2, r2 = greedy_search(ds, Scorer(ds))
        assert g1 == g2
        assert r1.trace == r2.trace

    def test_recovers_five_node_structure(self):
        net = five_node_net()
        ds = sample(net, 20000, seed=41)
        learned, _ = greedy_search(ds, Scorer(ds, ess=1.0))
        gold = net.structure.reduce_to_rpdag()
        assert learned == gold

    def test_invalid_start_rejected(self, rng):
        ds = random_dataset(3, 10, rng)
        bad = g_from(3, arcs=[(0, 1)])  # violates the restricted form
        with pytest.raises(GraphError):
            greedy_search(ds, Scorer(ds), start=bad)

    def test_start_of_another_size_rejected(self, rng):
        ds = random_dataset(3, 10, rng)
        with pytest.raises(StartError, match="arity mismatch"):
            greedy_search(ds, Scorer(ds), start=PartialDag(4))

    @pytest.mark.parametrize("run", [
        greedy_search, tabu_search, dag_greedy_search, dag_tabu_search])
    @pytest.mark.parametrize("n_data, n_scored", [(5, 5), (3, 5), (5, 3)])
    def test_scorer_of_other_data_rejected(self, rng, run, n_data, n_scored):
        # Another sample of the same size would be learned silently, a
        # larger one in part, and a smaller one fail on a node index.
        ds = random_dataset(n_data, 30, rng)
        other = random_dataset(n_scored, 30, rng)
        with pytest.raises(ValueError, match="different dataset"):
            run(ds, Scorer(other))

    @staticmethod
    def one_move_greedy(monkeypatch, rng, start_score, gain):
        """DAG greedy in a stub space whose one move A_arc(0, 1) gains
        ``gain`` (its undo loses it) from a score of ``start_score``."""
        add, delete = MoveOperator("A_arc", 0, 1), MoveOperator("D_arc", 0, 1)
        one = np.eye(2, k=1, dtype=bool)       # the pair (0, 1) only
        stub = search._Space(
            neighborhood=lambda g: search.Neighbourhood(
                {(delete if g.pa(1) else add).kind: one}),
            delta=lambda g, op, scorer: gain if op == add else -gain,
            apply_inplace=search._dag_apply_inplace,
            initial_score=lambda scorer, g: start_score,
            start_problem=PartialDag.dag_problem)
        monkeypatch.setattr(search, "_DAG_SPACE", stub)
        ds = random_dataset(2, 10, rng)
        return add, *dag_greedy_search(ds, Scorer(ds))

    def test_returns_current_graph_after_sub_ulp_move(self, monkeypatch,
                                                      rng):
        # A move that gains less than the ulp of the total would leave the
        # float total unchanged.  It is within tol, so greedy stops before
        # it and returns the current graph with its score.
        start_score, gain = -1e6, 5e-12
        assert start_score + gain == start_score
        _, g, report = self.one_move_greedy(monkeypatch, rng, start_score,
                                            gain)
        assert report.trace == []
        assert list(g.arcs()) == []
        assert report.best_score == start_score
        assert report.best_iteration == report.iterations_applied == 0

    @pytest.mark.parametrize("start_score, gain, applied", [
        (-1e6, 9e-7, False), (-1e6, 2e-6, True),
        (0.5, 9e-13, False), (0.5, 2e-12, True)])
    def test_stops_at_gain_within_tol(self, monkeypatch, rng, start_score,
                                      gain, applied):
        # tol = 1e-12 * max(1, |total|): greedy stops before a gain of at
        # most tol and applies a larger one; the returned graph, best
        # score and best iteration are then those of the current graph.
        add, g, report = self.one_move_greedy(monkeypatch, rng, start_score,
                                              gain)
        assert report.trace == ([(add, gain)] if applied else [])
        assert list(g.arcs()) == ([(0, 1)] if applied else [])
        assert report.best_score == start_score + gain * applied
        assert report.best_iteration == report.iterations_applied == applied

    def test_dag_greedy_runs(self, rng):
        ds = random_dataset(4, 100, rng)
        h, report = dag_greedy_search(ds, Scorer(ds))
        assert h.is_dag()
        assert report.best_score == pytest.approx(
            Scorer(ds).score_dag(h), abs=1e-6)


class TestTabu:
    def test_runs_exactly_tsit_iterations(self, rng):
        ds = random_dataset(4, 80, rng)
        _, report = tabu_search(ds, Scorer(ds))
        assert report.iterations_applied == 4 * 3

    def test_never_worse_than_greedy(self, rng):
        for _ in range(5):
            ds = random_dataset(5, 120, rng)
            _, greedy_report = greedy_search(ds, Scorer(ds))
            _, tabu_report = tabu_search(ds, Scorer(ds))
            assert tabu_report.best_score >= greedy_report.best_score - 1e-9

    def test_trace_prefix_equals_greedy(self, rng):
        # With aspiration by best score, the improving phase of tabu
        # replicates the greedy trajectory move for move.
        ds = random_dataset(5, 120, rng)
        _, greedy_report = greedy_search(ds, Scorer(ds))
        _, tabu_report = tabu_search(ds, Scorer(ds),
                                     tsit=len(greedy_report.trace) + 8)
        k = len(greedy_report.trace)
        assert tabu_report.trace[:k] == greedy_report.trace

    def test_best_iteration_consistent(self, rng):
        ds = random_dataset(4, 80, rng)
        scorer = Scorer(ds)
        start_score = Scorer(ds).score_rpdag(PartialDag(4))
        _, report = tabu_search(ds, scorer)
        running = start_score
        best = start_score
        best_it = 0
        for it, (_, d) in enumerate(report.trace, start=1):
            running += d
            if running > best + 1e-12:
                best, best_it = running, it
        assert report.best_iteration == best_it
        assert report.best_score == pytest.approx(best, abs=1e-9)

    def test_dag_tabu_never_worse_than_dag_greedy(self, rng):
        ds = random_dataset(4, 80, rng)
        _, g_rep = dag_greedy_search(ds, Scorer(ds))
        _, t_rep = dag_tabu_search(ds, Scorer(ds))
        assert t_rep.best_score >= g_rep.best_score - 1e-9

    @pytest.mark.parametrize("space", ["rpdag", "dag"])
    def test_returns_best_graph_not_current(self, space):
        # From a greedy optimum no tabu move on this data beats the start,
        # so tabu must return the start, not the graph it walked on to.
        greedy, tabu, rescore = {
            "rpdag": (greedy_search, tabu_search, "score_rpdag"),
            "dag": (dag_greedy_search, dag_tabu_search, "score_dag")}[space]
        ds = sample(five_node_net(), 300, seed=5)
        top, _ = greedy(ds, Scorer(ds))
        g, report = tabu(ds, Scorer(ds), tsit=6, start=top)
        assert report.best_iteration == 0
        assert g == top
        assert getattr(Scorer(ds), rescore)(g) == pytest.approx(
            report.best_score, abs=1e-9)

    def test_parameter_validation(self, rng):
        ds = random_dataset(3, 10, rng)
        with pytest.raises(ValueError):
            tabu_search(ds, Scorer(ds), tll=-1)
        with pytest.raises(ValueError):
            tabu_search(ds, Scorer(ds), tsit=0)


class TestTabuSelection:
    """Each tabu iteration applies the first maximal move the tabu list
    does not block, or the first maximal move when every move is
    blocked."""

    @pytest.mark.parametrize("run, moves", [
        (tabu_search, [("A_link", 0, 1), ("D_link", 0, 1)] * 3),
        (dag_tabu_search, [("A_arc", 0, 1), ("R_arc", 0, 1),
                           ("D_arc", 1, 0)] * 2),
    ], ids=["rpdag", "dag"])
    def test_two_variables(self, run, moves):
        # a and b agree in 12 of 14 rows.  With tll = 1 the rpdag run's
        # neighbourhood is a single move, blocked from the second
        # iteration on, so every later move is the all-blocked fallback.
        # The DAG run cannot undo the move just made, so it reverses the
        # arc, deletes it and adds it again.
        ds = Dataset(["a", "b"], [2, 2],
                     [[0, 0]] * 6 + [[1, 1]] * 6 + [[0, 1], [1, 0]])
        g, report = run(ds, Scorer(ds), tll=1, tsit=6)
        assert [(op.kind, op.x, op.y) for op, _ in report.trace] == moves
        gain = report.trace[0][1]
        assert gain > 0
        assert [d for _, d in report.trace] == {
            tabu_search: [gain, -gain] * 3,
            dag_tabu_search: [gain, 0.0, -gain] * 2}[run]
        assert report.best_iteration == 1
        assert report.best_score == Scorer(ds).score_dag(PartialDag(2)) + gain
        assert g.edge_count() == 1

    @pytest.mark.parametrize("run, rescore, seed", [
        (tabu_search, "score_rpdag", 52), (dag_tabu_search, "score_dag", 8)],
        ids=["rpdag", "dag"])
    def test_applies_first_maximal_allowed_move(self, monkeypatch, run,
                                                rescore, seed):
        # Replays the tabu list and the best score from the trace and
        # checks every applied move against each iteration's scored
        # neighbourhood.  The seeds give runs in which the list overrules
        # the first maximal move, knocks out two or more moves that score
        # above the applied one, and aspiration admits a listed move that
        # beats the best score by more than tol.
        neighbourhoods = record_scored(monkeypatch)
        ds = sample(random_network(7, seed=seed, p=0.4), 1500, seed=seed)
        tll = 7
        _, report = run(ds, Scorer(ds), tll=tll, tsit=60)
        steps, best = replay_tabu(
            neighbourhoods, report,
            getattr(Scorer(ds), rescore)(PartialDag(7)), tll)
        overruled = chained = aspirated = 0
        for moves, pool, applied, listed, improved, tol in steps:
            top = max(d for _, d in pool)
            assert applied == next(m for m in pool if m[1] >= top - tol)
            overruled += applied != max(moves, key=lambda m: m[1])
            chained += sum(m[1] > applied[1] and m not in pool
                           for m in moves) >= 2
            aspirated += listed and improved
        assert report.best_score == best
        assert overruled > 0 and chained > 0 and aspirated > 0


def twin_columns():
    """Data in which a1 and a2 are one column twice, b follows it in 80%
    of the rows and n is noise: a move and its copy with a1 and a2
    swapped score exactly alike."""
    rng = np.random.default_rng(2)
    a = rng.integers(0, 2, 400)
    noise = rng.integers(0, 3, 400)
    b = np.where(rng.random(400) < 0.8, a, 1 - a)
    return Dataset(["n", "a1", "a2", "b"], [3, 2, 2, 2],
                   np.column_stack([noise, a, a, b]))


def first_tied(pool, tol):
    """The moves of pool whose delta is within tol of the maximum, and the
    first of them in sort_key order."""
    top = max(d for _, d in pool)
    tied = [m for m in pool if m[1] >= top - tol]
    return tied, min(tied, key=lambda m: m[0].sort_key())


class TestTieBreak:
    """Moves whose deltas are within tol of the maximum tie: the first in
    sort_key order is applied."""

    @pytest.mark.parametrize("run, first_moves", [
        (greedy_search, [("A_link", 1, 2), ("A_link", 1, 3)]),
        (dag_greedy_search, [("A_arc", 1, 2), ("A_arc", 1, 3)]),
    ], ids=["rpdag", "dag"])
    def test_greedy(self, monkeypatch, run, first_moves):
        # rpdag: the second move ties A_link(1, 3) with A_link(2, 3).  DAG:
        # the first ties A_arc(1, 2) with A_arc(2, 1), the second A_arc(1,
        # 3) with A_arc(2, 3) and A_arc(3, 1).
        neighbourhoods = record_scored(monkeypatch)
        ds = twin_columns()
        _, report = run(ds, Scorer(ds))
        assert [(op.kind, op.x, op.y)
                for op, _ in report.trace[:2]] == first_moves
        total = Scorer(ds).score_dag(PartialDag(4))
        ties = 0
        for moves, applied in zip(neighbourhoods, report.trace):
            tied, first = first_tied(moves, search._tol(total))
            assert applied == first
            ties += len(tied) > 1
            total += applied[1]
        assert ties >= 1

    @pytest.mark.parametrize("run, first_moves", [
        (greedy_search, [("A_link", 1, 2), ("A_link", 1, 3)]),
        (dag_greedy_search, [("A_arc", 1, 2), ("A_arc", 1, 3)]),
    ], ids=["rpdag", "dag"])
    def test_tie_within_tol(self, monkeypatch, run, first_moves):
        # Scores of families with a2 but not a1 among the parents are
        # raised by 1e-10, far above the rounding of these deltas and
        # below tol (about 1e-9 here), so the copy of a tied move that
        # reads a2 in place of a1 gains more than the a1 move: rpdag's
        # A_link(2, 3) against A_link(1, 3), DAG's A_arc(2, 1) against
        # A_arc(1, 2) and A_arc(2, 3) against A_arc(1, 3).  The moves still
        # tie within tol, and the first in sort_key order is applied.
        local = Scorer.local

        def nudged(scorer, y, parents):
            value = local(scorer, y, parents)
            return value + 1e-10 if 2 in parents and 1 not in parents \
                else value

        monkeypatch.setattr(Scorer, "local", nudged)
        neighbourhoods = record_scored(monkeypatch)
        ds = twin_columns()
        scorer = Scorer(ds)
        total = scorer.score_dag(PartialDag(4))
        _, report = run(ds, scorer)
        assert [(op.kind, op.x, op.y)
                for op, _ in report.trace[:2]] == first_moves
        overruled = 0
        for moves, (_, d) in zip(neighbourhoods[:2], report.trace):
            top = max(delta for _, delta in moves)
            assert top - d <= search._tol(total)
            overruled += top > d
            total += d
        assert overruled == len(first_moves) - (run is greedy_search)

    @pytest.mark.parametrize("seed", [1, 3, 4])
    @pytest.mark.parametrize("run", [
        greedy_search, dag_greedy_search, tabu_search, dag_tabu_search])
    def test_kernel_swap_keeps_results(self, monkeypatch, run, seed):
        # An lgamma kernel that rounds differently, here the package's
        # times 1 + 4 eps, moves every score by ulps but changes no move,
        # graph or counter.  With TIE_RTOL = 0 the same swap changes four
        # of these twelve runs.
        def outcome():
            g, report = run(ds, Scorer(ds))
            return {"arcs": sorted(g.arcs()), "links": sorted(g.links()),
                    "moves": [(op.kind, op.x, op.y, op.z)
                              for op, _ in report.trace],
                    "counters": (report.iterations_applied,
                                 report.best_iteration,
                                 report.individuals_evaluated,
                                 report.evaluated, report.requested)}, \
                report.best_score

        ds = sample(random_network(9, seed=seed, p=0.4), 2000, seed=seed)
        before, best = outcome()
        lgamma = scoring._lgamma
        monkeypatch.setattr(scoring, "_lgamma", lambda *args: tuple(
            values * (1 + 4 * EPS) for values in lgamma(*args)))
        after, swapped_best = outcome()
        assert swapped_best != best
        assert after == before

    @pytest.mark.parametrize("run, rescore", [
        (tabu_search, "score_rpdag"), (dag_tabu_search, "score_dag")],
        ids=["rpdag", "dag"])
    def test_tabu_allowed_pick(self, monkeypatch, run, rescore):
        # Iterations in which the list blocks the first maximal move and
        # two allowed moves tie: the first of those two is applied.
        neighbourhoods = record_scored(monkeypatch)
        ds = twin_columns()
        tll = 4
        _, report = run(ds, Scorer(ds), tll=tll, tsit=12)
        steps, _ = replay_tabu(
            neighbourhoods, report,
            getattr(Scorer(ds), rescore)(PartialDag(4)), tll)
        overruled_ties = 0
        for moves, pool, applied, _, _, tol in steps:
            tied, first = first_tied(pool, tol)
            assert applied == first
            overruled_ties += (len(tied) > 1
                               and applied != first_tied(moves, tol)[1])
        assert overruled_ties > 0
