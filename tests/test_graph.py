import itertools
import re

import numpy as np
import pytest

from conftest import (extension_by_definition, is_extension, random_dag,
                      random_rpdag)
from rpdaglearn.census import (census, enumerate_dags, group_by_rpdag_key,
                               rpdag_key)
from rpdaglearn.data import Dataset, count_statistics
from rpdaglearn.graph import GraphError, PartialDag
from rpdaglearn.scoring import Scorer
from rpdaglearn.search import MoveOperator, dag_is_applicable, is_applicable


def g_from(n, arcs=(), links=()):
    return PartialDag.from_edges(n, arcs, links)


# Entry points that take a node index, each fed one bad value v on a
# 3-node graph or a 3-variable dataset.
NODE_ENTRY_POINTS = {
    "add_arc": lambda g, ds, v: g.add_arc(v, 0),
    "add_link": lambda g, ds, v: g.add_link(0, v),
    "pa": lambda g, ds, v: g.pa(v),
    "is_adjacent": lambda g, ds, v: g.is_adjacent(0, v),
    "from_edges": lambda g, ds, v: PartialDag.from_edges(3, links=[(v, 0)]),
    "is_applicable": lambda g, ds, v: is_applicable(
        g, MoveOperator("A_arc", v, 0)),
    "dag_is_applicable": lambda g, ds, v: dag_is_applicable(
        g, MoveOperator("A_arc", 0, v)),
    "count_statistics": lambda g, ds, v: count_statistics(ds, 0, [v, 1]),
    "Scorer.local": lambda g, ds, v: Scorer(ds).local(v, []),
}


class TestNodeRule:
    @pytest.mark.parametrize("entry", NODE_ENTRY_POINTS)
    @pytest.mark.parametrize("v, message", [
        (True, "node index True is not an integer"),
        (1.0, "node index 1.0 is not an integer"),
        (np.float64(1), f"node index {np.float64(1)!r} is not an integer"),
        ("1", "node index '1' is not an integer"),
        (None, "node index None is not an integer"),
        (-1, "node index -1 out of range [0, 3)"),
        (3, "node index 3 out of range [0, 3)"),
    ], ids=["bool", "float", "np.float64", "str", "None", "-1", "n"])
    def test_same_refusal_everywhere(self, entry, v, message):
        g = g_from(3, links=[(1, 2)])
        ds = Dataset(["a", "b", "c"], [2, 2, 2], np.zeros((4, 3), np.int64))
        with pytest.raises(GraphError) as refused:
            NODE_ENTRY_POINTS[entry](g, ds, v)
        assert str(refused.value) == message
        assert g == g_from(3, links=[(1, 2)])

    @pytest.mark.parametrize("v", [0, 2, np.int64(2), np.uint8(1)])
    def test_integers_in_range_accepted(self, v):
        g = g_from(3)
        assert g.pa(v) == set() and not g.is_adjacent(v, (v + 1) % 3)


class TestRepresentation:
    def test_repr_lists_sorted_edges(self):
        g = g_from(3, arcs=[(2, 0), (1, 0)], links=[(2, 1)])
        assert repr(g) == \
            "PartialDag(n=3, arcs=[(1, 0), (2, 0)], links=[(1, 2)])"

    def test_not_equal_to_other_types(self):
        g = g_from(3)
        assert g.__eq__(3) is NotImplemented
        assert not g == 3 and g != 3


class TestIsDag:
    def test_empty(self):
        assert PartialDag(3).is_dag()

    def test_two_cycle(self):
        g = PartialDag(2)
        g.add_arc(0, 1)
        g._pa[0].add(1)  # force a 2-cycle past the adjacency guard
        g._ch[1].add(0)
        assert not g.is_dag()

    def test_link_disqualifies(self):
        assert not g_from(3, arcs=[(0, 1)], links=[(1, 2)]).is_dag()


class TestTopologicalOrder:
    def test_lowest_ready_node_first(self):
        g = PartialDag.from_edges(4, arcs=[(3, 0), (2, 1), (3, 1)])
        assert g.topological_order() == [2, 3, 0, 1]

    def test_requires_dag(self):
        for g in (PartialDag.from_edges(2, links=[(0, 1)]),
                  PartialDag.from_edges(3, arcs=[(0, 1), (1, 2), (2, 0)])):
            with pytest.raises(GraphError):
                g.topological_order()


class TestRefusals:
    def test_negative_node_count(self):
        with pytest.raises(GraphError, match="non-negative"):
            PartialDag(-1)

    @pytest.mark.parametrize("x, y", [(0, 5), (5, 0), (0, -1), (-1, 0)])
    def test_adjacency_of_node_outside_graph(self, x, y):
        with pytest.raises(GraphError, match="out of range"):
            PartialDag(3).is_adjacent(x, y)

    @pytest.mark.parametrize("arcs, links, call, message", [
        ([], [], ("add_arc", 1, 1), "self loop"),
        ([(0, 1)], [], ("add_arc", 1, 0), "nodes 1, 0 already adjacent"),
        ([], [], ("add_link", 2, 2), "self loop"),
        ([], [(0, 1)], ("add_link", 1, 0), "nodes 1, 0 already adjacent"),
        ([], [(0, 1)], ("remove_arc", 0, 1), "arc 0->1 not present"),
        ([(0, 1)], [], ("remove_link", 0, 1), "link 0-1 not present"),
        # A lone arc breaks condition 4.
        ([(0, 1)], [], ("count_extensions",), "requires a restricted PDAG"),
        ([(0, 1)], [], ("extend",), "requires a restricted PDAG"),
    ])
    def test_structural_precondition(self, arcs, links, call, message):
        g = g_from(3, arcs, links)
        before = g.copy()
        with pytest.raises(GraphError, match=message):
            getattr(g, call[0])(*call[1:])
        assert g == before

    @pytest.mark.parametrize("count", [2.5, True, np.float64(2), "2", None])
    def test_node_count_not_an_integer(self, count):
        with pytest.raises(GraphError, match=re.escape(
                f"node_count {count!r} is not an integer")):
            PartialDag(count)

    def test_census_past_its_limit(self):
        with pytest.raises(GraphError, match="census limited to n <= 5"):
            census(6)


class TestIsRpdag:
    def test_link_chain(self):
        assert g_from(3, links=[(0, 1), (1, 2)]).is_rpdag()

    def test_lone_arc_violates_condition_4(self):
        g = g_from(2, arcs=[(0, 1)])
        assert not g.is_rpdag()
        assert g.rpdag_violations() == [4]

    def test_link_triangle_violates_condition_3(self):
        g = g_from(3, links=[(0, 1), (1, 2), (0, 2)])
        assert 3 in g.rpdag_violations()

    def test_parent_and_neighbor_violates_condition_1(self):
        g = g_from(4, arcs=[(0, 2), (1, 2)], links=[])
        g._ne[2].add(3)
        g._ne[3].add(2)
        assert 1 in g.rpdag_violations()


class TestPathTests:
    def test_uc_link_chain(self):
        g = g_from(3, links=[(0, 1), (1, 2)])
        assert g.undirected_reachable(0, 2)

    def test_uc_ignores_arcs(self):
        g = g_from(3, arcs=[(0, 1), (1, 2)])
        assert not g.undirected_reachable(0, 2)

    def test_uc_disconnected(self):
        assert not g_from(3, links=[(0, 1)]).undirected_reachable(0, 2)

    def test_dc_arc_path(self):
        g = g_from(3, arcs=[(1, 2), (2, 0)])
        assert g.partially_directed_reachable(1, 0)

    def test_dc_link_then_arc(self):
        g = g_from(3, links=[(1, 2)])
        g2 = g_from(3, arcs=[(2, 0)], links=[(1, 2)])
        assert g2.partially_directed_reachable(1, 0)
        assert not g.partially_directed_reachable(1, 0)

    def test_dc_backward_arc_blocked(self):
        g = g_from(2, arcs=[(0, 1)])
        assert not g.partially_directed_reachable(1, 0)

    def test_dc_skip_link(self):
        g = g_from(3, links=[(0, 1)])
        assert not g.partially_directed_reachable(0, 1, skip_link=(0, 1))

    def test_matrices_match_edges_and_reach_sets(self, rng):
        # Random DAGs and restricted PDAGs, n = 0..12, and graphs with a
        # directed cycle and a link cycle, which the closure must also
        # cover.
        graphs = [PartialDag(0), g_from(4, arcs=[(0, 1), (1, 2), (2, 0)]),
                  g_from(4, links=[(0, 1), (1, 2), (2, 0)], arcs=[(2, 3)])]
        for _ in range(60):
            n = int(rng.integers(1, 13))
            p = float(rng.uniform(0.05, 0.6))
            graphs += [random_dag(n, rng, p), random_rpdag(n, rng, p)]
        for g in graphs:
            arcs, links, reach = g.matrices()
            n = g.node_count
            assert {(x, y) for x, y in zip(*np.nonzero(arcs))} \
                == set(g.arcs())
            assert {(x, y) for x, y in zip(*np.nonzero(links)) if x < y} \
                == set(g.links())
            assert (links == links.T).all()
            for y in range(n):
                assert set(np.flatnonzero(reach[y])) \
                    == g.semi_directed_reach(y), (g, y)


class TestCascades:
    def test_complete_single_step(self):
        g = g_from(3, arcs=[(0, 1)], links=[(1, 2)])
        g.complete_cascade(1)
        assert g == g_from(3, arcs=[(0, 1), (1, 2)])

    def test_complete_chain_component(self):
        # After inserting the pattern x->y<-z, every link in y's chain
        # component ends up directed away from y.
        g = g_from(5, arcs=[(0, 2), (1, 2)], links=[(2, 3), (3, 4)])
        g.complete_cascade(2)
        assert g == g_from(5, arcs=[(0, 2), (1, 2), (2, 3), (3, 4)])

    def test_complete_noop_without_links(self):
        g = g_from(3, arcs=[(0, 1), (2, 1)])
        before = g.copy()
        assert g.complete_cascade(1) == before

    def test_complete_noop_without_parent(self):
        g = g_from(3, links=[(0, 1), (1, 2)])
        before = g.copy()
        assert g.complete_cascade(1) == before

    def test_undo_child_becomes_neighbor(self):
        g = g_from(3, arcs=[(0, 1), (1, 2)])
        g.remove_arc(0, 1)
        g.undo_cascade(1)
        assert g == g_from(3, links=[(1, 2)])

    def test_undo_two_parent_case(self):
        # Pa(y) = {x, u} with Pa(u) empty: after removing x->y, u->y turns
        # into a link and the cascade continues below y.
        g = g_from(4, arcs=[(0, 2), (1, 2), (2, 3)])
        g.remove_arc(0, 2)
        g.undo_cascade(2)
        assert g == g_from(4, links=[(1, 2), (2, 3)])

    def test_undo_keeps_two_remaining_parents(self):
        g = g_from(4, arcs=[(0, 3), (1, 3), (2, 3)])
        g.remove_arc(0, 3)
        g.undo_cascade(3)
        assert g == g_from(4, arcs=[(1, 3), (2, 3)])


class TestReduce:
    def test_single_root_chain_becomes_links(self):
        g = g_from(4, arcs=[(0, 1), (1, 2), (2, 3)])
        assert g.reduce_to_rpdag() == g_from(4, links=[(0, 1), (1, 2),
                                                       (2, 3)])

    def test_idempotent_on_random_rpdags(self, rng):
        for _ in range(50):
            r = random_rpdag(5, rng)
            assert r.is_rpdag()
            assert r.reduce_to_rpdag() == r

    def test_hh_pattern_preserved(self):
        g = g_from(4, arcs=[(0, 1), (2, 1), (1, 3)])
        assert g.reduce_to_rpdag() == g

    def test_rejects_condition_violation(self):
        with pytest.raises(GraphError):
            g_from(3, links=[(0, 1), (1, 2), (0, 2)]).reduce_to_rpdag()


class TestExtend:
    def test_single_link_roots_low_index(self):
        assert g_from(2, links=[(0, 1)]).extend() == g_from(2, arcs=[(0, 1)])

    def test_dag_unchanged(self):
        g = g_from(3, arcs=[(0, 2), (1, 2)])
        assert g.extend() == g

    def test_output_is_extension_everywhere(self, rng):
        for _ in range(80):
            r = random_rpdag(5, rng)
            h = r.extend()
            assert h.is_dag()
            assert is_extension(r, h)
            assert extension_by_definition(r, h)


def random_dags_beyond_census(count=240, seed=6012):
    """Seeded random DAGs with 6-12 nodes and arc densities 0.1-0.6."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(6, 13))
        yield random_dag(n, rng, p=float(rng.uniform(0.1, 0.6)))


class TestReduceExtendProperties:
    # Checked only against characterisations that do not orient anything:
    # the extension tests, the equivalence key and the rooting rule.

    def test_reduce_gives_a_restricted_pdag_extended_by_the_dag(self):
        for h in random_dags_beyond_census():
            r = h.reduce_to_rpdag()
            assert r.is_rpdag(), h
            assert is_extension(r, h), h
            assert extension_by_definition(r, h), h
            assert r.reduce_to_rpdag() == r, h

    def test_extend_is_equivalent_and_rooted_at_component_minima(self):
        for h in random_dags_beyond_census():
            r = h.reduce_to_rpdag()
            e = r.extend()
            assert rpdag_key(e) == rpdag_key(h), h
            for comp in r.chain_components():
                assert not e.pa(min(comp)) & comp, (r, comp)


class TestIsExtension:
    def test_link_to_arc(self):
        assert is_extension(g_from(2, links=[(0, 1)]),
                            g_from(2, arcs=[(0, 1)]))

    def test_redirected_arc_rejected(self):
        g = g_from(3, arcs=[(0, 1), (2, 1)])
        h = g_from(3, arcs=[(0, 1), (1, 2)])
        assert not is_extension(g, h)

    def test_agrees_with_definition_on_three_nodes(self):
        rpdags = {}
        for h in enumerate_dags(3):
            rpdags.setdefault(rpdag_key(h), h.reduce_to_rpdag())
        for g in rpdags.values():
            for h in enumerate_dags(3):
                assert is_extension(g, h) == extension_by_definition(g, h)


class TestCountExtensions:
    def test_empty_graph(self):
        assert PartialDag(4).count_extensions() == 1

    def test_tree_component(self):
        g = g_from(4, links=[(0, 1), (1, 2), (1, 3)])
        assert g.count_extensions() == 4

    def test_matches_brute_force_groups_n4(self):
        for dags in group_by_rpdag_key(4).values():
            r = dags[0].reduce_to_rpdag()
            assert r.count_extensions() == len(dags)


class TestEquivalenceKey:
    def test_collider(self):
        skeleton, hh_patterns = rpdag_key(g_from(3, arcs=[(0, 1), (2, 1)]))
        assert skeleton == frozenset({(0, 1), (1, 2)})
        assert hh_patterns == frozenset({(0, 1, 2)})

    def test_chains_share_key(self):
        a = g_from(3, arcs=[(0, 1), (1, 2)])
        b = g_from(3, arcs=[(1, 0), (1, 2)])
        assert rpdag_key(a) == rpdag_key(b)

    def test_key_partition_matches_reduce(self):
        # Two DAGs share a key iff they reduce to the same restricted PDAG.
        dags = list(enumerate_dags(3))
        for a, b in itertools.combinations(dags, 2):
            same_key = rpdag_key(a) == rpdag_key(b)
            same_rpdag = a.reduce_to_rpdag() == b.reduce_to_rpdag()
            assert same_key == same_rpdag


class TestChainComponents:
    def test_empty(self):
        assert PartialDag(3).chain_components() == [{0}, {1}, {2}]

    def test_mixed(self):
        g = g_from(5, arcs=[(3, 4)], links=[(0, 1), (1, 2)])
        assert sorted(map(sorted, g.chain_components())) == \
            [[0, 1, 2], [3], [4]]

    def test_components_are_trees_in_rpdags(self):
        for n in (2, 3, 4):
            seen = set()
            for h in enumerate_dags(n):
                key = rpdag_key(h)
                if key in seen:
                    continue
                seen.add(key)
                r = h.reduce_to_rpdag()
                for comp in r.chain_components():
                    edges = sum(len(r.ne(u) & comp) for u in comp) // 2
                    assert edges == len(comp) - 1


def links_form_cycle(g):
    """Reference: some chain component has as many links as nodes."""
    return any(sum(len(g.ne(u) & comp) for u in comp) // 2 >= len(comp)
               for comp in g.chain_components())


class TestHasUndirectedCycle:
    def test_matches_per_component_edge_count(self):
        rng = np.random.default_rng(14)
        seen = {True: 0, False: 0}
        several = 0
        for _ in range(400):
            n = int(rng.integers(1, 13))
            p = float(rng.uniform(0.05, 0.4))
            g = PartialDag(n)
            for x, y in itertools.combinations(range(n), 2):
                r = rng.random()
                if r < p:
                    g.add_link(x, y)
                elif r < p + 0.1:   # arcs do not count
                    g.add_arc(x, y)
            expected = links_form_cycle(g)
            assert g.has_undirected_cycle() == expected, g
            seen[expected] += 1
            several += sum(len(c) > 1 for c in g.chain_components()) > 1
        assert min(seen.values()) > 50 and several > 50


class TestCensusCounts:
    def test_three_nodes(self):
        result = census(3)
        assert (result.dag_count, result.class_count) == (25, 11)
        assert 11 <= result.rpdag_key_count <= 25

    def test_complete_class_multiplicity(self):
        # The equivalence class of the complete DAG on 3 nodes splits into
        # 3!/2 = 3 restricted-PDAG groups.
        full = [h for h in enumerate_dags(3) if len(h.skeleton()) == 3]
        classes = {}
        for h in full:
            classes.setdefault((h.skeleton(), h.v_structures()), []).append(h)
        no_v = classes[(frozenset({(0, 1), (0, 2), (1, 2)}), frozenset())]
        keys = {rpdag_key(h) for h in no_v}
        assert len(keys) == 3
