import random
import sys

import pytest

from degenera.graphs import (
    DartGraph,
    automorphism_group,
    check_dart_isomorphism,
    circulant_graph,
    complete_bipartite,
    complete_graph,
    cycle_basis,
    cycle_space_rank,
    doubled_cycle,
    edge_orbits,
    family,
    find_isomorphism,
    is_admissible,
    is_isomorphic,
    is_vertex_transitive,
    theta_loops,
)
from helpers import (
    base_orbit_bound,
    breadth_first_base,
    brute_closure,
    dart_group_order,
    edge_stabilizer,
    exhaustive_dart_automorphisms,
    networkx_vertex_automorphisms,
    random_connected_multigraph,
    relabel_graph,
    vertex_stabilizer,
)


class TestDartGraph:
    def test_counts_and_involution(self):
        g = theta_loops()
        assert g.vertex_count == 2 and g.edge_count == 4 and g.dart_count == 8
        inv = g.involution
        assert all(inv[inv[d]] == d and inv[d] != d for d in range(8))
        assert g.partner(4) == 5 and g.edge_of(5) == 2

    def test_loop_counts_twice(self):
        g = DartGraph(1, [(0, 0), (0, 0)])
        assert g.degree(0) == 4
        assert g.is_loop(0) and g.is_loop(1)

    def test_single_loop_genus(self):
        g = DartGraph(1, [(0, 0)])
        assert g.genus() == 1
        assert cycle_basis(g) == [(0,)]

    def test_disconnected_rejected(self):
        with pytest.raises(ValueError):
            DartGraph(4, [(0, 1), (2, 3)])
        DartGraph(4, [(0, 1), (2, 3)], require_connected=False)

    def test_bad_edges(self):
        with pytest.raises(ValueError):
            DartGraph(2, [(0, 2)])
        with pytest.raises(ValueError):
            DartGraph(0, [])

    def test_dart_at(self):
        g = DartGraph(3, [(0, 1), (1, 2)])
        assert g.dart_at(0, 0) == 0 and g.dart_at(0, 1) == 1
        with pytest.raises(ValueError):
            g.dart_at(1, 0)
        loopy = DartGraph(1, [(0, 0)])
        with pytest.raises(ValueError):
            loopy.dart_at(0, 0)

    def test_parse_roundtrip(self):
        g = theta_loops()
        assert DartGraph.parse(g.to_text()) == g
        text = "vertices 2\n\nedge 0 1\nedge 1 1\nedge 0 0\n"
        h = DartGraph.parse(text)
        assert h.edges == ((0, 1), (1, 1), (0, 0))

    def test_parse_errors(self):
        for text in ("", "edge 0 1\n", "vertices 2\nedge 0\n", "vertices x\n",
                     "vertices 2\nloop 0\n"):
            with pytest.raises(ValueError):
                DartGraph.parse(text)

    def test_from_darts(self):
        g = theta_loops()
        rebuilt = DartGraph.from_darts(
            [g.vertex_of(d) for d in range(g.dart_count)], list(g.involution)
        )
        assert rebuilt == g
        with pytest.raises(ValueError):
            DartGraph.from_darts([0, 0], [0, 1])
        with pytest.raises(ValueError):
            DartGraph.from_darts([0, 0], [1, 0, 2])

    def test_multiplicity(self):
        g = theta_loops()
        assert g.multiplicity(0, 1) == 2
        assert g.multiplicity(0, 0) == 1
        assert g.parallel_classes() == {(0, 0): [2], (0, 1): [0, 1], (1, 1): [3]}


class TestFamilies:
    def test_k5(self):
        g = complete_graph(5)
        assert g.vertex_count == 5 and g.edge_count == 10
        assert set(g.degrees()) == {4} and g.genus() == 6

    def test_circulant_counts(self):
        for genus in range(7, 13):
            g = circulant_graph(genus)
            assert g.vertex_count == genus - 1
            assert g.edge_count == 2 * (genus - 1)
            assert set(g.degrees()) == {4}
            assert g.genus() == genus

    def test_double_cycle_counts(self):
        for genus in range(4, 11):
            g = doubled_cycle(genus)
            assert g.vertex_count == genus - 1
            assert g.edge_count == 2 * (genus - 1)
            assert set(g.degrees()) == {4}
            assert g.genus() == genus

    def test_theta_loops(self):
        g = theta_loops()
        assert g.vertex_count == 2 and g.edge_count == 4
        assert sum(g.is_loop(k) for k in range(4)) == 2
        assert set(g.degrees()) == {4} and g.genus() == 3

    def test_family_dispatch(self):
        assert family("k5") == complete_graph(5)
        assert family("circulant", 9) == circulant_graph(9)
        assert family("double-cycle", 5) == doubled_cycle(5)
        assert family("theta-loops") == theta_loops()
        with pytest.raises(ValueError):
            family("circulant", 6)
        with pytest.raises(ValueError):
            family("double-cycle", 3)
        with pytest.raises(ValueError):
            family("circulant")
        with pytest.raises(ValueError):
            family("petersen")


class TestAutomorphisms:
    def test_k5_order(self):
        assert automorphism_group(complete_graph(5)).group.order() == 120

    def test_circulant_orders(self):
        # genus 7 is the octahedron, whose group is larger than dihedral
        assert automorphism_group(circulant_graph(7)).group.order() == 48
        for genus in range(8, 13):
            aut = automorphism_group(circulant_graph(genus))
            assert aut.group.order() == 2 * (genus - 1)

    def test_double_cycle_orders(self):
        for genus in range(4, 9):
            n = genus - 1
            aut = automorphism_group(doubled_cycle(genus))
            assert aut.group.order() == 2 * n * 2**n

    def test_theta_exhaustive(self):
        g = theta_loops()
        aut = automorphism_group(g)
        brute = exhaustive_dart_automorphisms(g)
        assert aut.group.order() == len(brute) == 16
        assert {p.images for p in aut.group.elements()} == {p.images for p in brute}

    def test_doubled_edge_exhaustive(self):
        g = DartGraph(2, [(0, 1), (0, 1)])
        aut = automorphism_group(g)
        brute = exhaustive_dart_automorphisms(g)
        assert aut.group.order() == len(brute) == 4

    def test_two_loops_exhaustive(self):
        g = DartGraph(1, [(0, 0), (0, 0)])
        brute = exhaustive_dart_automorphisms(g)
        assert automorphism_group(g).group.order() == len(brute) == 8

    def test_generators_commute_with_involution(self):
        rng = random.Random(55)
        graphs = [complete_graph(5), circulant_graph(8), doubled_cycle(5),
                  theta_loops()]
        for g in graphs:
            inv = g.involution
            group = automorphism_group(g).group
            for p in group.generators:
                assert all(p.images[inv[d]] == inv[p.images[d]]
                           for d in range(g.dart_count))
            elements = group.elements()
            for _ in range(10):
                a, b = rng.choice(elements), rng.choice(elements)
                p = a * b
                assert all(p.images[inv[d]] == inv[p.images[d]]
                           for d in range(g.dart_count))

    def test_vertex_perm_covering(self):
        g = complete_graph(5)
        aut = automorphism_group(g)
        for p in aut.group.generators:
            vp = aut.vertex_perm(p)
            for d in range(g.dart_count):
                assert g.vertex_of(p.images[d]) == vp.images[g.vertex_of(d)]

    def test_vertex_without_dart_rejected(self):
        # only a disconnected graph can have a vertex with no dart
        aut = automorphism_group(DartGraph(3, [(0, 1)] * 3, require_connected=False))
        with pytest.raises(ValueError, match="no dart"):
            aut.vertex_perm(aut.group.generators[0])
        with pytest.raises(ValueError, match="no dart"):
            aut.vertex_orbits()
        with pytest.raises(ValueError, match="no dart"):
            aut.edge_orbits()

    def test_simple_graph_dart_group_equals_vertex_group(self):
        # a simple graph's dart action is determined by the vertex action
        for g in (complete_graph(4), complete_graph(5), circulant_graph(8)):
            aut = automorphism_group(g)
            vertex_images = {aut.vertex_perm(p).images for p in aut.group.elements()}
            assert len(vertex_images) == aut.group.order()

    def test_networkx_vertex_count_oracle(self):
        nx = pytest.importorskip("networkx")
        from networkx.algorithms.isomorphism import GraphMatcher, MultiGraphMatcher

        for g in (complete_graph(5), circulant_graph(7), circulant_graph(8)):
            ng = nx.Graph()
            ng.add_nodes_from(range(g.vertex_count))
            ng.add_edges_from(g.edges)
            count = sum(1 for _ in GraphMatcher(ng, ng).isomorphisms_iter())
            assert count == automorphism_group(g).group.order()
        # multigraph: vertex maps alone undercount the dart group
        g = doubled_cycle(4)
        ng = nx.MultiGraph()
        ng.add_nodes_from(range(g.vertex_count))
        ng.add_edges_from(g.edges)
        count = sum(1 for _ in MultiGraphMatcher(ng, ng).isomorphisms_iter())
        aut = automorphism_group(g)
        vertex_images = {aut.vertex_perm(p).images for p in aut.group.elements()}
        assert count == len(vertex_images) == 6
        assert aut.group.order() == 6 * 2**3


def rigid_fixture():
    return DartGraph(3, [(0, 1)] + [(0, 2)] * 3 + [(1, 2)] * 5)


class TestAutOrderFromSearch:
    """|Aut| as the generator search gives it (product of the basic orbit
    lengths times the kernel order) against the Schreier-Sims chain and the
    networkx vertex automorphism count."""

    @staticmethod
    def check(graph):
        aut = automorphism_group(graph)
        vertex_count = len(networkx_vertex_automorphisms(graph))
        assert aut.order == aut.group.order() == dart_group_order(graph, vertex_count)

    def test_families_and_complete_graphs(self):
        pytest.importorskip("networkx")
        graphs = [circulant_graph(g) for g in range(7, 13)]
        graphs += [complete_graph(5), theta_loops()]
        graphs += [doubled_cycle(g) for g in range(4, 11)]
        graphs += [complete_bipartite(3, 3), complete_bipartite(4, 4)]
        graphs += [complete_graph(6), complete_graph(7), rigid_fixture()]
        graphs.append(DartGraph(1, [(0, 0), (0, 0)]))
        for g in graphs:
            self.check(g)

    def test_random_multigraphs(self):
        pytest.importorskip("networkx")
        rng = random.Random(5)
        graphs = [
            random_connected_multigraph(rng, rng.randint(1, 6), rng.randint(1, 7))
            for _ in range(20)
        ]
        assert any(g.is_loop(k) for g in graphs for k in range(g.edge_count))
        assert any(
            len(ids) > 1 for g in graphs for ids in g.parallel_classes().values()
        )
        for g in graphs:
            self.check(g)


class TestGeneratorSearch:
    """The small generating set spans the whole group: orders against
    networkx, generators checked as dart isomorphisms, counts bounded by the
    orbit lengths along the breadth-first base."""

    @staticmethod
    def check(graph):
        aut = automorphism_group(graph)
        automorphisms = networkx_vertex_automorphisms(graph)
        order = aut.group.order()
        assert order == dart_group_order(graph, len(automorphisms))
        if graph.dart_count <= 8:
            assert order == len(exhaustive_dart_automorphisms(graph))
        for p in aut.group.generators:
            assert check_dart_isomorphism(graph, graph, p.images)
        moving = [p for p in aut.group.generators if not aut.vertex_perm(p).is_identity()]
        assert len(moving) <= base_orbit_bound(automorphisms, breadth_first_base(graph))
        return len(moving)

    def test_families_and_complete_graphs(self):
        pytest.importorskip("networkx")
        graphs = [circulant_graph(g) for g in range(7, 13)]
        graphs += [complete_graph(5), theta_loops(), rigid_fixture()]
        graphs += [doubled_cycle(g) for g in range(4, 11)]
        graphs += [complete_graph(6), complete_bipartite(3, 3)]
        for g in graphs:
            self.check(g)
        assert self.check(complete_graph(6)) <= 5
        assert self.check(complete_bipartite(4, 4)) <= 7

    def test_random_multigraphs(self):
        pytest.importorskip("networkx")
        rng = random.Random(5)
        graphs = [
            random_connected_multigraph(rng, rng.randint(1, 6), rng.randint(1, 7))
            for _ in range(20)
        ]
        assert any(g.is_loop(k) for g in graphs for k in range(g.edge_count))
        assert any(
            len(ids) > 1 for g in graphs for ids in g.parallel_classes().values()
        )
        assert any(g.dart_count <= 8 for g in graphs)
        for g in graphs:
            self.check(g)

    def test_deep_graph_without_recursion(self):
        # several hundred vertices, searched with a recursion limit far
        # below the vertex count
        rng = random.Random(12)
        g = doubled_cycle(301)
        images = list(range(g.vertex_count))
        rng.shuffle(images)
        order = list(range(g.edge_count))
        rng.shuffle(order)
        h = relabel_graph(g, images, shuffle_edges=order)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(100)
        try:
            witness = find_isomorphism(g, h)
            aut = automorphism_group(h)
        finally:
            sys.setrecursionlimit(limit)
        assert check_dart_isomorphism(g, h, witness)
        vertex_gens = {aut.vertex_perm(p).images for p in aut.group.generators}
        vertex_gens.discard(tuple(range(h.vertex_count)))
        # the dihedral group of the 300-cycle
        assert len(brute_closure(list(vertex_gens))) == 600
        assert len(aut.group.generators) == len(vertex_gens) + 300


class TestTransitivityAndOrbits:
    def test_k5_single_edge_orbit(self):
        assert is_vertex_transitive(complete_graph(5))
        assert len(edge_orbits(complete_graph(5))) == 1

    def test_circulant_orbits(self):
        assert len(edge_orbits(circulant_graph(7))) == 1
        for genus in (8, 9, 10):
            g = circulant_graph(genus)
            assert is_vertex_transitive(g)
            orbits = edge_orbits(g)
            assert len(orbits) == 2
            n = genus - 1
            # distance-1 edges come first in construction order
            assert orbits[0] == tuple(range(n))
            assert orbits[1] == tuple(range(n, 2 * n))

    def test_single_vertex_trivially_transitive(self):
        assert is_vertex_transitive(DartGraph(1, [(0, 0), (0, 0)]))

    def test_theta_orbits(self):
        orbits = edge_orbits(theta_loops())
        assert orbits == [(0, 1), (2, 3)]

    def test_fixture_not_transitive(self):
        g = DartGraph(3, [(0, 1)] + [(0, 2)] * 3 + [(1, 2)] * 5)
        assert not is_vertex_transitive(g)


class TestLiftedStabilizers:
    """Point stabilizers and orbits of the lifted action against element filters."""

    @staticmethod
    def check_against_elements(graph):
        aut = automorphism_group(graph)
        elements = aut.group.elements()

        def fixing(darts):
            darts = set(darts)
            return {p.images for p in elements if {p.images[d] for d in darts} == darts}

        def images(group):
            return {p.images for p in group.elements()}

        for v in range(graph.vertex_count):
            assert images(vertex_stabilizer(aut, v)) == fixing(graph.darts_at(v))
        for e in range(graph.edge_count):
            assert images(edge_stabilizer(aut, e)) == fixing(graph.dart_pair(e))
        vertex_orbits = {
            tuple(sorted({graph.vertex_of(p.images[d]) for p in elements}))
            for d in range(graph.dart_count)
        }
        edge_orbits = {
            tuple(sorted({p.images[2 * e] // 2 for p in elements}))
            for e in range(graph.edge_count)
        }
        assert set(aut.vertex_orbits()) == vertex_orbits
        assert set(aut.edge_orbits()) == edge_orbits

    def test_families(self):
        graphs = [circulant_graph(g) for g in range(7, 13)]
        graphs += [complete_graph(5), theta_loops()]
        graphs += [doubled_cycle(g) for g in range(4, 11)]
        for g in graphs:
            self.check_against_elements(g)

    def test_random_multigraphs(self):
        rng = random.Random(2019)
        graphs = [
            random_connected_multigraph(rng, rng.randint(2, 5), rng.randint(2, 5))
            for _ in range(20)
        ]
        assert any(g.is_loop(k) for g in graphs for k in range(g.edge_count))
        assert any(
            len(ids) > 1 for g in graphs for ids in g.parallel_classes().values()
        )
        for g in graphs:
            self.check_against_elements(g)

    def test_out_of_range(self):
        aut = automorphism_group(theta_loops())
        for bad in (-1, 2):
            with pytest.raises(ValueError):
                vertex_stabilizer(aut, bad)
        for bad in (-1, 4):
            with pytest.raises(ValueError):
                edge_stabilizer(aut, bad)


class TestAdmissibility:
    def test_k34(self):
        assert is_admissible(complete_bipartite(3, 4))

    def test_k4(self):
        assert not is_admissible(complete_graph(4))

    def test_families(self):
        for g in (complete_graph(5), circulant_graph(7), circulant_graph(9),
                  doubled_cycle(4), theta_loops()):
            assert is_admissible(g)

    def test_unstable_rejected(self):
        with pytest.raises(ValueError):
            is_admissible(DartGraph(1, [(0, 0)]))

    def test_min_degree_four_always_admissible(self):
        rng = random.Random(77)
        for _ in range(30):
            g = random_connected_multigraph(
                rng, rng.randint(2, 6), rng.randint(2, 8), min_degree=4
            )
            assert g.min_degree() >= 4
            assert is_admissible(g)


class TestCycleSpace:
    def test_rank_equals_genus(self):
        graphs = [complete_graph(5), circulant_graph(7), circulant_graph(10),
                  doubled_cycle(4), doubled_cycle(8), theta_loops(),
                  complete_bipartite(3, 4), DartGraph(1, [(0, 0), (0, 0)])]
        rng = random.Random(3)
        for _ in range(10):
            graphs.append(random_connected_multigraph(rng, rng.randint(1, 6),
                                                      rng.randint(0, 6)))
        for g in graphs:
            assert cycle_space_rank(g) == g.genus()

    def test_basis_elements_are_cycles(self):
        # every vertex of a basis element meets an even number of its darts
        for g in (complete_graph(5), theta_loops(), doubled_cycle(5)):
            for edge_set in cycle_basis(g):
                degrees = {}
                for k in edge_set:
                    u, v = g.edges[k]
                    degrees[u] = degrees.get(u, 0) + 1
                    degrees[v] = degrees.get(v, 0) + 1
                assert all(d % 2 == 0 for d in degrees.values())

    def test_theta_basis_size(self):
        assert len(cycle_basis(theta_loops())) == 3


class TestIsomorphism:
    def test_identity_witness(self):
        g = complete_graph(5)
        witness = find_isomorphism(g, g)
        assert witness is not None
        assert check_dart_isomorphism(g, g, witness)

    def test_different_sizes(self):
        assert not is_isomorphic(complete_graph(5), circulant_graph(7))

    def test_same_profile_not_isomorphic(self):
        four_parallel = DartGraph(2, [(0, 1)] * 4)
        assert not is_isomorphic(theta_loops(), four_parallel)

    def test_relabeled_recovery(self):
        rng = random.Random(8)
        for g in (doubled_cycle(4), theta_loops(), circulant_graph(8)):
            images = list(range(g.vertex_count))
            rng.shuffle(images)
            order = list(range(g.edge_count))
            rng.shuffle(order)
            h = relabel_graph(g, images, shuffle_edges=order)
            witness = find_isomorphism(g, h)
            assert witness is not None
            assert check_dart_isomorphism(g, h, witness)

    def test_witness_validity_checker(self):
        g = theta_loops()
        witness = list(find_isomorphism(g, g))
        witness[0], witness[1] = witness[1], witness[0]
        # swapping one dart with its partner breaks the vertex covering only
        # if they sit at distinct vertices; darts 0,1 of the parallel edge do
        assert not check_dart_isomorphism(g, g, witness)
        assert not check_dart_isomorphism(g, g, [0] * g.dart_count)
