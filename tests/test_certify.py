import math
import random

import pytest

from degenera.certify import (
    CERTIFIED_NONSPLIT,
    NOT_CERTIFIED,
    SPLITS_TRIVIALLY,
    DEFAULT_ENUMERATION_CAP,
    EnumerationCapError,
    NoEndpointSwapError,
    certify_nonsplit,
    gamma_dagger,
    orbit_subgraph,
    roundtrip_report,
    stabilizer_tower,
)
from degenera.graphs import (
    DartGraph,
    automorphism_group,
    check_dart_isomorphism,
    circulant_graph,
    complete_graph,
    doubled_cycle,
    theta_loops,
)
from degenera.perms import (
    CosetAction,
    Perm,
    PermGroup,
    _best_image,
    even_orbit_search,
    verify_certificate,
)
from helpers import (
    brute_closure,
    brute_coset_orbit_sizes,
    complete_bipartite,
    coset_even_orbit_search,
    coset_gamma_dagger,
    explicit_group,
    explicit_root_stabilizer,
    graph_text,
    group_elements,
    image_order,
    networkx_dart_isomorphism,
    odd_powers,
    petersen_graph,
    prism_graph,
    random_connected_multigraph,
    relabel_graph,
    stable_graphs_by_canonical_form,
    tower_groups,
    vertex_orbits,
    vertex_stabilizer,
)


def rigid_fixture():
    """Distinct even degrees force every branch orbit at any vertex to have
    odd size, so no even-orbit certificate can exist."""
    return DartGraph(3, [(0, 1)] + [(0, 2)] * 3 + [(1, 2)] * 5)


class TestStabilizerTower:
    def test_k5_orders(self):
        cd = stabilizer_tower(automorphism_group(complete_graph(5)), 0, 0)
        assert cd.orders() == (120, 24, 6, 12)
        assert cd.n == 5 and cd.m == 4

    def test_k5_any_vertex_edge(self):
        g = complete_graph(5)
        for v0 in range(5):
            e0 = next(k for k, (u, v) in enumerate(g.edges) if v0 in (u, v))
            cd = stabilizer_tower(automorphism_group(g), v0, e0)
            assert cd.orders() == (120, 24, 6, 12)

    def test_circulant_small_genus_is_octahedral(self):
        cd = stabilizer_tower(automorphism_group(circulant_graph(7)), 0, 0)
        assert cd.orders() == (48, 8, 2, 4)
        assert cd.n == 6 and cd.m == 4

    def test_circulant_dihedral_range(self):
        for genus in (8, 9, 10, 12):
            g = circulant_graph(genus)
            cd = stabilizer_tower(automorphism_group(g), 0, 0)
            _, g2, g3, _ = tower_groups(cd)
            assert g2.order() == 2
            assert g3.order() == 1
            assert cd.m == 2
            assert cd.n == genus - 1

    def test_double_cycle_coset_action_structure(self):
        # the four branches at the base vertex carry a dihedral action: the
        # two parallel swaps commute, and the neighbor swap conjugates one
        # into the other, so the dart stabilizer is not normal
        cd = stabilizer_tower(automorphism_group(doubled_cycle(4)), 0, 0)
        assert cd.m == 4
        _, g2, g3, _ = tower_groups(cd)
        action = CosetAction(g2, g3)
        images = {action.permutation(Perm(p)).images for p in group_elements(g2)}
        assert len(images) == 8
        assert sorted({Perm(i).order() for i in images}) == [1, 2, 4]
        normal = all(
            g * h * g.inverse() in g3
            for g in g2.generators
            for h in g3.generators
        )
        assert not normal

    def test_theta_loops_both_edges(self):
        g = theta_loops()
        parallel = stabilizer_tower(automorphism_group(g), 0, 0)
        assert parallel.orders() == (16, 8, 4, 8)
        loop = stabilizer_tower(automorphism_group(g), 0, 2)
        assert loop.orders() == (16, 8, 4, 8)
        assert loop.base_dart == 4

    def test_index_identities(self):
        for g in (complete_graph(5), circulant_graph(8), theta_loops(),
                  doubled_cycle(5)):
            for e0 in {min(o) for o in automorphism_group(g).edge_orbits()}:
                v0 = g.edges[e0][0]
                cd = stabilizer_tower(automorphism_group(g), v0, e0)
                g1, g2, g3, g4 = tower_groups(cd)
                assert g1.order() == cd.n * g2.order()
                assert g2.order() == cd.m * g3.order()
                assert g2.contains_group(g3)
                assert g4.contains_group(g3)

    def test_edge_choice_in_one_orbit_gives_same_orders(self):
        g = circulant_graph(9)
        aut = automorphism_group(g)
        for orbit in aut.edge_orbits():
            seen = set()
            for e0 in orbit[:4]:
                u, _ = g.edges[e0]
                seen.add(stabilizer_tower(aut, u, e0).orders())
            assert len(seen) == 1

    def test_rejects_unstable(self):
        with pytest.raises(ValueError):
            stabilizer_tower(automorphism_group(DartGraph(1, [(0, 0)])), 0, 0)

    def test_rejects_detached_edge(self):
        g = complete_graph(5)
        with pytest.raises(ValueError):
            stabilizer_tower(automorphism_group(g), 0, 9)  # edge 9 joins 3 and 4

    def test_rejects_out_of_range_edge(self):
        # edge -1 would index the last edge, which does touch vertex 3
        g = complete_graph(5)
        for e0 in (-1, g.edge_count):
            with pytest.raises(ValueError, match="out of range"):
                stabilizer_tower(automorphism_group(g), 3, e0)


class TestGammaDagger:
    def test_k5_reconstruction(self):
        cd = stabilizer_tower(automorphism_group(complete_graph(5)), 0, 0)
        rebuilt = gamma_dagger(cd)
        assert rebuilt.vertex_count == 5 and rebuilt.edge_count == 10
        assert networkx_dart_isomorphism(rebuilt, complete_graph(5)) is not None

    def test_vertex_edge_degree_counts(self):
        for g, v0, e0 in ((complete_graph(5), 0, 0), (theta_loops(), 0, 0),
                          (theta_loops(), 0, 2), (doubled_cycle(4), 0, 0)):
            cd = stabilizer_tower(automorphism_group(g), v0, e0)
            rebuilt = gamma_dagger(cd)
            g1, g2, _, g4 = tower_groups(cd)
            assert rebuilt.vertex_count == g1.order() // g2.order()
            assert rebuilt.edge_count == g1.order() // g4.order()
            assert set(rebuilt.degrees()) == {cd.m}

    def test_theta_loop_orbit_is_disconnected(self):
        cd = stabilizer_tower(automorphism_group(theta_loops()), 0, 2)
        rebuilt = gamma_dagger(cd)
        with pytest.raises(ValueError, match="graph is not connected"):
            DartGraph(rebuilt.vertex_count, rebuilt.edges)
        assert rebuilt.vertex_count == 2 and rebuilt.edge_count == 2
        assert all(rebuilt.is_loop(k) for k in range(2))

    def test_matches_coset_oracle(self):
        # every edge orbit of the degree-4 families (theta-loops' loop orbit
        # included) and K_{4,4}: the orbit walk and explicit coset tables
        # rebuild isomorphic graphs
        graphs = [circulant_graph(g) for g in range(7, 13)]
        graphs += [complete_graph(5), theta_loops(), complete_bipartite(4, 4)]
        graphs += [doubled_cycle(g) for g in range(4, 11)]
        for g in graphs:
            for orbit in automorphism_group(g).edge_orbits():
                e0 = min(k for k in orbit if 0 in g.edges[k])
                cd = stabilizer_tower(automorphism_group(g), 0, e0)
                oracle = coset_gamma_dagger(cd)
                rebuilt = gamma_dagger(cd)
                witness = networkx_dart_isomorphism(oracle, rebuilt)
                assert witness is not None
                assert check_dart_isomorphism(oracle, rebuilt, witness)

    def test_no_endpoint_swap(self):
        # a bridge between vertices of distinct degrees cannot be reversed
        g = DartGraph(2, [(0, 1), (0, 0), (0, 0), (1, 1), (1, 1), (1, 1)])
        cd = stabilizer_tower(automorphism_group(g), 0, 0)
        _, _, g3, g4 = tower_groups(cd)
        assert g4.order() == g3.order()
        with pytest.raises(NoEndpointSwapError):
            gamma_dagger(cd)


class TestTowerOrdersOracle:
    """Orbit-stabilizer orders of the tower against chain-built groups."""

    @staticmethod
    def pointed_edges():
        families = [circulant_graph(g) for g in range(7, 13)]
        families += [doubled_cycle(g) for g in range(4, 11)]
        families += [complete_graph(5), theta_loops(), complete_bipartite(4, 4)]
        rng = random.Random(23)
        families += [
            random_connected_multigraph(
                rng, rng.randint(2, 6), rng.randint(2, 6), min_degree=3
            )
            for _ in range(20)
        ]
        for g in families:
            for orbit in automorphism_group(g).edge_orbits():
                e0 = min(orbit)
                for v0 in sorted(set(g.edges[e0])):
                    yield g, v0, e0
        g = theta_loops()
        for e0 in range(g.edge_count):
            if g.is_loop(e0):
                yield g, g.edges[e0][0], e0

    def test_orders_match_chains(self):
        swaps = {True: 0, False: 0}
        for g, v0, e0 in self.pointed_edges():
            cd = stabilizer_tower(automorphism_group(g), v0, e0)
            g1, g2, g3, g4 = (h.order() for h in tower_groups(cd))
            assert cd.orders() == (g1, g2, g3, g4)
            assert (cd.n, cd.m) == (g1 // g2, g2 // g3)
            dart_orbits = automorphism_group(g).group.orbits()
            assert set(cd.walk) == set(
                next(o for o in dart_orbits if cd.base_dart in o)
            )
            swapped = g4 != g3
            swaps[swapped] += 1
            if swapped:
                gamma_dagger(cd)
            else:
                with pytest.raises(NoEndpointSwapError):
                    gamma_dagger(cd)
        # both sides of the endpoint-swap condition are exercised
        assert swaps[True] and swaps[False]


class TestChainCount:
    """Schreier-Sims chains built per call."""

    @staticmethod
    def chains_built(monkeypatch, run, graph):
        from degenera import perms

        built = []
        init = perms._StabilizerChain.__init__

        def counting(self, degree, generators, base_prefix=()):
            built.append((degree, tuple(base_prefix)))
            init(self, degree, generators, base_prefix)

        monkeypatch.setattr(perms._StabilizerChain, "__init__", counting)
        run(graph)
        monkeypatch.undo()
        return built

    def test_roundtrip_builds_no_chain(self, monkeypatch):
        for g in (complete_bipartite(4, 4), doubled_cycle(11), theta_loops()):
            assert self.chains_built(monkeypatch, roundtrip_report, g) == []
        assert len(roundtrip_report(theta_loops())) == 2

    def test_certify_builds_no_edge_or_admissibility_chain(self, monkeypatch):
        # at the default cap no chain is built, neither on a branch orbit of
        # up to 9 darts, whose image has at most 9! < cap elements, nor on
        # the 10 darts of the 5-loop bouquet or of a vertex of K11, where
        # |H| is |G2| over the automorphisms fixing the orbit; none on the
        # darts or the lifted points
        bouquet = DartGraph(1, [(0, 0)] * 4)
        for g in (complete_graph(5), complete_bipartite(4, 4), doubled_cycle(11),
                  theta_loops(), rigid_fixture(), bouquet):
            assert self.chains_built(monkeypatch, certify_nonsplit, g) == []
            assert max(r.m for r in certify_nonsplit(g).per_orbit) <= 9
        assert [r.m for r in certify_nonsplit(bouquet).per_orbit] == [8]
        bouquet5 = DartGraph(1, [(0, 0)] * 5)
        assert self.chains_built(monkeypatch, certify_nonsplit, bouquet5) == []
        assert certify_nonsplit(bouquet5).status == CERTIFIED_NONSPLIT

        def refused(graph, cap=DEFAULT_ENUMERATION_CAP):
            with pytest.raises(EnumerationCapError, match="elements > cap %d$" % cap):
                certify_nonsplit(graph, cap=cap)

        assert self.chains_built(monkeypatch, refused, complete_graph(11)) == []
        # nor with a cap between |H| and m! on each even branch orbit of m
        # darts, with the verdict of the default cap, nor with a cap below
        # |H|, which is refused
        for g in (circulant_graph(7), doubled_cycle(11), DartGraph(1, [(0, 0)] * 2),
                  bouquet):
            verdict = certify_nonsplit(g)
            even = [r for r in verdict.per_orbit if r.m % 2 == 0]
            stabilizer = explicit_root_stabilizer(automorphism_group(g)).generators
            cap = max(
                len(brute_closure([
                    [r.dart_orbit.index(p.images[x]) for x in r.dart_orbit]
                    for p in stabilizer
                ]))
                for r in even
            )
            assert cap < min(math.factorial(r.m) for r in even)
            run = lambda graph: certify_nonsplit(graph, cap=cap)
            assert self.chains_built(monkeypatch, run, g) == []
            assert run(g) == verdict
            below = lambda graph: refused(graph, cap - 1)
            assert self.chains_built(monkeypatch, below, g) == []

    def test_analyze_builds_no_chain(self, monkeypatch, capsys, tmp_path):
        from degenera.cli import main

        for name, g in (("k44", complete_bipartite(4, 4)), ("dc11", doubled_cycle(11)),
                        ("rigid", rigid_fixture())):
            path = tmp_path / (name + ".graph")
            path.write_text(graph_text(g))
            codes = []
            run = lambda graph: codes.append(main(["graph", "analyze", str(path)]))
            assert self.chains_built(monkeypatch, run, g) == []
            assert codes == [0]
        capsys.readouterr()

    def test_degree_three_builds_no_dart_chain(self, monkeypatch, capsys, tmp_path):
        # admissibility comes from the generator search, not from a chain
        # on the darts pinned at the darts of degree >= 4
        from degenera.cli import main

        graphs = {
            "k34": complete_bipartite(3, 4),
            "k4": complete_graph(4),
            "petersen": petersen_graph(),
            "mixed": DartGraph(
                4, [(0, 1), (0, 1), (1, 2), (2, 3), (2, 3), (3, 0), (0, 0)]
            ),
        }
        for name, g in graphs.items():
            assert g.min_degree() == 3
            path = tmp_path / (name + ".graph")
            path.write_text(graph_text(g))
            codes = []
            run = lambda graph: codes.append(main(["graph", "analyze", str(path)]))
            assert self.chains_built(monkeypatch, run, g) == []
            assert self.chains_built(monkeypatch, certify_nonsplit, g) == []
            assert codes == [0]
        capsys.readouterr()


class TestOneSearchPerCall:
    @staticmethod
    def spy(monkeypatch):
        """Record (prefix, pinned) of every generator search."""
        from degenera import graphs

        searches = []
        search = graphs._vertex_generators

        def counting(graph, prefix, pinned=0):
            searches.append((tuple(prefix), pinned))
            return search(graph, prefix, pinned)

        monkeypatch.setattr(graphs, "_vertex_generators", counting)
        return searches

    @staticmethod
    def aut_roots(searches):
        """Roots of the searches that run every level, those that build Aut;
        every other search runs only the levels after its pinned prefix."""
        assert all(pinned in (0, len(prefix)) for prefix, pinned in searches)
        return [prefix[0] for prefix, pinned in searches if pinned == 0]

    def test_certify_off_vertex_zero_searches_once(self, monkeypatch, capsys):
        # G2 comes from the search rooted at the base vertex, so no second
        # Aut is built for it when every degree is at least 4
        from degenera.cli import main

        searches = self.spy(monkeypatch)
        for g, base in ((complete_graph(5), 2), (complete_bipartite(4, 4), 5),
                        (doubled_cycle(6), 3), (rigid_fixture(), 1)):
            assert g.min_degree() >= 4
            searches.clear()
            certify_nonsplit(g, base_vertex=base)
            assert searches == [((base,), 0)]
        searches.clear()
        assert main(["certify", "--family", "k5", "--base-vertex", "3"]) == 0
        assert searches == [((3,), 0)]
        capsys.readouterr()

    def test_admissibility_builds_no_second_aut(self, monkeypatch):
        # with degree-3 vertices, admissibility runs only the levels after
        # the pinned vertices, so certify builds Aut once, rooted at its base
        g = DartGraph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (1, 3), (0, 1)])
        assert g.min_degree() == 3 and max(g.degrees()) == 4
        searches = self.spy(monkeypatch)
        for base in range(4):
            searches.clear()
            certify_nonsplit(g, base_vertex=base)
            assert self.aut_roots(searches) == [base]
        # with no vertex of degree >= 4, admissibility reads |Aut| off the
        # group certify already built, so that is the only search
        for g in (complete_graph(4), petersen_graph()):
            assert max(g.degrees()) == 3
            for base in range(3):
                searches.clear()
                certify_nonsplit(g, base_vertex=base)
                assert searches == [((base,), 0)]


def even_degree_multigraph(rng):
    """Random stable multigraph with every degree even: odd vertices are
    paired off by extra edges."""
    g = random_connected_multigraph(
        rng, rng.randint(2, 5), rng.randint(2, 6), min_degree=3
    )
    odd = [v for v in range(g.vertex_count) if g.degree(v) % 2]
    return DartGraph(g.vertex_count, list(g.edges) + list(zip(odd[::2], odd[1::2])))


class TestEvenOrbitSearchOracle:
    def test_matches_coset_table_search(self):
        # on every branch orbit, certify's search (on the generators that
        # the generator search rooted at the base vertex found to fix it)
        # chooses the same image on the dart orbit, the same orbit sizes and
        # the same found-or-none as the image rule run over an explicit coset
        # table of G2/G3 with G3 = Stab(d0), both groups chain-built; the
        # lifted element lies in G2, acts on the orbit as an odd power of the
        # chosen image and passes verify_certificate
        cases = [(g, 0) for g in (complete_graph(5), theta_loops(),
                                  complete_bipartite(4, 4))]
        cases += [(circulant_graph(g), 0) for g in range(7, 13)]
        cases += [(doubled_cycle(g), 0) for g in range(4, 11)]
        cases += [(rigid_fixture(), base) for base in range(3)]
        cases.append((theta_loops(), 1))
        rng = random.Random(41)
        cases += [(even_degree_multigraph(rng), 0) for _ in range(20)]
        found = 0
        for g, base in cases:
            aut = automorphism_group(g, base)
            g2 = vertex_stabilizer(aut, base)
            branches = explicit_root_stabilizer(aut)
            verdict = certify_nonsplit(g, base_vertex=base)
            orbits = g2.orbits(points=g.darts_at(base))
            assert [r.dart_orbit for r in verdict.per_orbit] == orbits
            for report, dart_orbit in zip(verdict.per_orbit, orbits):
                d0 = dart_orbit[0]
                g3 = g2.pointwise_stabilizer((d0,))
                expected = coset_even_orbit_search(g2, g3, d0)
                cert = report.certificate
                assert (cert is None) == (expected is None)
                if cert is None:
                    continue
                found += 1
                image, sizes = expected
                orbit, chosen, _ = _best_image(branches, d0)
                assert orbit == dart_orbit
                assert tuple(orbit[i] for i in chosen) == image
                assert cert.orbit_sizes == sizes
                assert cert.element in g2
                assert verify_certificate(cert, g2, g3)
                on_orbit = tuple(cert.element.images[x] for x in orbit)
                powers = {tuple(orbit[i] for i in p) for p in odd_powers(chosen)}
                assert on_orbit in powers
        assert found >= 30


class TestFixingOrderOracle:
    """GraphAut.fixing_order against the explicit group's chain pinned at
    the same darts: each branch orbit at every vertex, where |G2| over it is
    the order of G2's image on the orbit, the darts at the vertices of
    degree >= 4, every single dart and the empty set."""

    def check(self, g):
        aut = automorphism_group(g)
        group = explicit_group(aut)
        fixing = lambda darts: group.pointwise_stabilizer(darts).order()
        assert aut.fixing_order(()) == aut.order == group.order()
        for d in range(g.dart_count):
            assert aut.fixing_order((d,)) == fixing((d,))
        heavy = [d for d in range(g.dart_count) if g.degree(g.vertex_of(d)) >= 4]
        assert aut.fixing_order(heavy) == fixing(heavy)
        for v in range(g.vertex_count):
            stabilizer = explicit_root_stabilizer(automorphism_group(g, v))
            g2_order = stabilizer.order()
            for orbit in stabilizer.orbits(points=g.darts_at(v)):
                count = aut.fixing_order(orbit)
                assert count == fixing(orbit)
                assert g2_order // count == image_order(stabilizer, orbit)

    def test_families_and_named_graphs(self):
        graphs = [circulant_graph(g) for g in range(7, 13)] + [complete_graph(5)]
        graphs += [doubled_cycle(g) for g in range(4, 11)] + [theta_loops()]
        graphs += [DartGraph(1, [(0, 0)] * k) for k in range(1, 7)]
        graphs += [DartGraph(2, [(0, 1)] * k) for k in range(1, 9)]
        graphs += [complete_bipartite(4, 4), complete_bipartite(4, 6), rigid_fixture()]
        for g in graphs:
            self.check(g)

    def test_random_multigraphs(self):
        rng = random.Random(23)
        for _ in range(60):
            self.check(random_connected_multigraph(rng, rng.randint(1, 6), rng.randint(1, 8)))

    def test_stable_graphs_of_genus_at_most_four(self):
        for genus in (2, 3, 4):
            for g in stable_graphs_by_canonical_form(genus):
                self.check(g)


class TestImplicitKernelOracle:
    """The implicit kernel at every base vertex against the explicit group,
    with every parallel swap and loop flip a dart permutation: orbits,
    generator counts, orbit walks in order, branch orbits and certificates."""

    CAP = 5000

    @classmethod
    def search(cls, group, d0):
        orbit = group.orbit(d0)
        if len(orbit) % 2 == 0 and image_order(group, orbit) > cls.CAP:
            return "over the cap"
        return even_orbit_search(group, d0)

    def check(self, g):
        for v in range(g.vertex_count):
            aut = automorphism_group(g, v)
            group = explicit_group(aut)
            stabilizer = explicit_root_stabilizer(aut)
            dart_orbits = group.orbits()
            orbits = sorted(
                {tuple(sorted({g.vertex_of(d) for d in o})) for o in dart_orbits}
            )
            assert vertex_orbits(aut) == orbits
            assert aut.edge_orbits() == sorted(
                {tuple(sorted({d >> 1 for d in o})) for o in dart_orbits}
            )
            assert aut.is_vertex_transitive() == (len(orbits) == 1)
            assert aut.root_orbit == len(next(o for o in orbits if v in o))
            assert aut.generator_count == len(group.generators)
            assert aut.group.generators == group.generators
            for d in range(g.dart_count):
                assert aut.orbit(d) == group.orbit(d)
            at_v = g.darts_at(v)
            branches = PermGroup(g.dart_count, aut.branch_generators())
            orbits = stabilizer.orbits(points=at_v)
            assert branches.orbits(points=at_v) == orbits
            searches = [self.search(stabilizer, o[0]) for o in orbits]
            assert [self.search(branches, o[0]) for o in orbits] == searches
            if not g.is_stable():
                continue
            for e in {d >> 1 for d in at_v}:
                cd = stabilizer_tower(aut, v, e)
                assert cd.walk == tuple(group.orbit(cd.base_dart))
            if not g.all_degrees_even():
                continue
            if "over the cap" in searches:
                with pytest.raises(EnumerationCapError):
                    certify_nonsplit(g, base_vertex=v, cap=self.CAP)
                continue
            verdict = certify_nonsplit(g, base_vertex=v, cap=self.CAP)
            assert [r.dart_orbit for r in verdict.per_orbit] == orbits
            assert [r.certificate for r in verdict.per_orbit] == searches

    def test_families_and_named_graphs(self):
        graphs = [circulant_graph(g) for g in range(7, 13)] + [complete_graph(5)]
        graphs += [doubled_cycle(g) for g in range(4, 11)] + [theta_loops()]
        graphs += [complete_bipartite(4, 4), petersen_graph(), rigid_fixture()]
        graphs += [prism_graph(n) for n in range(3, 8)]
        for g in graphs:
            self.check(g)

    def test_random_multigraphs(self):
        rng = random.Random(18)
        graphs = [
            random_connected_multigraph(rng, rng.randint(1, 6), rng.randint(1, 8))
            for _ in range(200)
        ]
        assert sum(any(g.is_loop(k) for k in range(g.edge_count)) for g in graphs) > 50
        assert sum(
            any(len(ids) > 1 for ids in g.parallel_classes().values()) for g in graphs
        ) > 50
        assert sum(g.is_stable() and g.all_degrees_even() for g in graphs) > 10
        for g in graphs:
            self.check(g)

    def test_stable_graphs_of_genus_at_most_four(self):
        for genus in (2, 3, 4):
            for g in stable_graphs_by_canonical_form(genus):
                self.check(g)


class TestRoundtrip:
    def test_families(self):
        assert all(r.ok for r in roundtrip_report(complete_graph(5)))
        assert all(r.ok for r in roundtrip_report(theta_loops()))
        for genus in (7, 8, 9):
            assert all(r.ok for r in roundtrip_report(circulant_graph(genus)))
        for genus in (4, 5, 6):
            assert all(r.ok for r in roundtrip_report(doubled_cycle(genus)))

    def test_single_orbit_rebuilds_whole_graph(self):
        reports = roundtrip_report(complete_graph(5))
        assert len(reports) == 1
        rebuilt = reports[0].reconstructed
        assert networkx_dart_isomorphism(rebuilt, complete_graph(5)) is not None

    def test_per_orbit_subgraphs(self):
        g = circulant_graph(8)
        reports = roundtrip_report(g)
        assert len(reports) == 2
        for rep in reports:
            sub = orbit_subgraph(g, rep.edge_orbit)
            assert rep.subgraph == sub
            assert rep.ok
            # each orbit of the circulant is a single 7-cycle on all vertices
            assert sub.vertex_count == 7 and sub.edge_count == 7

    def test_witnesses_are_valid(self):
        graphs = [circulant_graph(g) for g in range(7, 13)]
        graphs += [complete_graph(5), theta_loops(), complete_bipartite(4, 4)]
        graphs += [doubled_cycle(g) for g in range(4, 11)]
        for g in graphs:
            for rep in roundtrip_report(g):
                assert check_dart_isomorphism(
                    rep.reconstructed, rep.subgraph, list(rep.witness)
                )

    def test_two_loop_bouquet(self):
        assert all(r.ok for r in roundtrip_report(DartGraph(1, [(0, 0), (0, 0)])))

    def test_k7_certifies_and_roundtrips(self):
        verdict = certify_nonsplit(complete_graph(7))
        assert verdict.status == CERTIFIED_NONSPLIT
        assert verdict.g1_order == 5040
        assert verdict.g2_order == 720
        assert all(r.ok for r in roundtrip_report(complete_graph(7)))

    def test_requires_vertex_transitivity(self):
        with pytest.raises(ValueError):
            roundtrip_report(rigid_fixture())


class TestCertify:
    def test_k5(self):
        verdict = certify_nonsplit(complete_graph(5))
        assert verdict.status == CERTIFIED_NONSPLIT
        assert verdict.admissible and verdict.all_degrees_even
        assert verdict.vertex_transitive
        assert (verdict.g1_order, verdict.g2_order, verdict.n) == (120, 24, 5)
        assert len(verdict.per_orbit) == 1
        report = verdict.per_orbit[0]
        assert report.m == 4 and report.g3_order == 6 and report.g4_order == 12
        cert = report.certificate
        assert cert.element_order == 4
        assert cert.orbit_sizes == (4,)

    def test_certificates_reverify_from_scratch(self):
        for g in (complete_graph(5), circulant_graph(7), circulant_graph(8),
                  doubled_cycle(4), theta_loops()):
            verdict = certify_nonsplit(g)
            assert verdict.status == CERTIFIED_NONSPLIT
            aut = automorphism_group(g)
            g2 = vertex_stabilizer(aut, verdict.base_vertex)
            for report in verdict.per_orbit:
                cert = report.certificate
                assert cert is not None
                g3 = g2.pointwise_stabilizer((report.base_dart,))
                assert verify_certificate(cert, g2, g3)
                brute = brute_coset_orbit_sizes(
                    cert.element.images,
                    group_elements(g2),
                    group_elements(g3),
                )
                assert brute == cert.orbit_sizes
                assert all(size % 2 == 0 for size in brute)

    def test_circulant_certificate_orders(self):
        verdict = certify_nonsplit(circulant_graph(7))
        assert [r.certificate.element_order for r in verdict.per_orbit] == [4]
        for genus in range(8, 13):
            verdict = certify_nonsplit(circulant_graph(genus))
            assert verdict.status == CERTIFIED_NONSPLIT
            assert len(verdict.per_orbit) == 2
            for report in verdict.per_orbit:
                assert report.m == 2
                assert report.certificate.element_order == 2
                assert report.certificate.orbit_sizes == (2,)

    def test_theta(self):
        verdict = certify_nonsplit(theta_loops())
        assert verdict.status == CERTIFIED_NONSPLIT
        kinds = {(r.is_loop, r.m, r.certificate.element_order)
                 for r in verdict.per_orbit}
        assert kinds == {(False, 2, 2), (True, 2, 2)}

    def test_double_cycle_range(self):
        for genus in range(4, 11):
            verdict = certify_nonsplit(doubled_cycle(genus))
            assert verdict.status == CERTIFIED_NONSPLIT
            (report,) = verdict.per_orbit
            assert report.m == 4
            assert report.certificate.element_order == 4
            assert report.certificate.orbit_sizes == (4,)

    def test_double_cycle_genus_20_and_40(self):
        # |G2| = 2^20 and 2^40: far beyond any enumeration, while G2 acts on
        # the four darts at the base vertex as a group of order 8
        for genus in (20, 40):
            g = doubled_cycle(genus)
            verdict = certify_nonsplit(g)
            assert verdict.status == CERTIFIED_NONSPLIT
            assert verdict.g2_order == 2**genus
            g2 = vertex_stabilizer(automorphism_group(g), 0)
            assert g2.order() == verdict.g2_order
            (report,) = verdict.per_orbit
            cert = report.certificate
            assert (cert.element_order, cert.orbit_sizes) == (4, (4,))
            g3 = g2.pointwise_stabilizer((report.base_dart,))
            assert verify_certificate(cert, g2, g3)

    def test_double_cycle_order_two_witness_exists(self):
        # the returned certificate has order 4, but an order-2 element with
        # all-even coset orbits also exists in the vertex stabilizer
        g = doubled_cycle(4)
        verdict = certify_nonsplit(g)
        (report,) = verdict.per_orbit
        assert report.certificate.element_order == 4
        aut = automorphism_group(g)
        g2 = vertex_stabilizer(aut, 0)
        g3 = g2.pointwise_stabilizer((report.base_dart,))
        action = CosetAction(g2, g3)
        assert any(
            p.order() == 2
            and all(s % 2 == 0 for s in action.cyclic_orbit_sizes(p))
            for p in map(Perm, group_elements(g2))
        )

    def test_k4_splits_trivially(self):
        verdict = certify_nonsplit(complete_graph(4))
        assert verdict.status == SPLITS_TRIVIALLY
        assert not verdict.admissible
        assert not verdict.all_degrees_even
        assert verdict.per_orbit == ()

    def test_odd_degree_admissible_graph_still_splits(self):
        verdict = certify_nonsplit(complete_bipartite(3, 4))
        assert verdict.status == SPLITS_TRIVIALLY
        assert verdict.admissible

    def test_not_certified_fixture(self):
        g = rigid_fixture()
        for base in range(3):
            verdict = certify_nonsplit(g, base_vertex=base)
            assert verdict.status == NOT_CERTIFIED
            assert verdict.admissible and verdict.all_degrees_even
            assert all(r.certificate is None for r in verdict.per_orbit)
            assert all(r.m % 2 == 1 for r in verdict.per_orbit)

    def test_status_independent_of_base_vertex(self):
        for g in (complete_graph(5), circulant_graph(8), theta_loops(),
                  doubled_cycle(5)):
            statuses = {certify_nonsplit(g, base_vertex=v).status
                        for v in range(g.vertex_count)}
            assert statuses == {CERTIFIED_NONSPLIT}

    def test_status_invariant_under_relabeling(self):
        rng = random.Random(17)
        for g in (complete_graph(5), circulant_graph(8), doubled_cycle(4),
                  theta_loops(), rigid_fixture()):
            expected = certify_nonsplit(g)
            images = list(range(g.vertex_count))
            rng.shuffle(images)
            order = list(range(g.edge_count))
            rng.shuffle(order)
            h = relabel_graph(g, images, shuffle_edges=order)
            got = certify_nonsplit(h)
            assert got.status == expected.status
            assert got.g1_order == expected.g1_order

    def test_rejects_unstable(self):
        with pytest.raises(ValueError):
            certify_nonsplit(DartGraph(2, [(0, 1), (0, 1)]))
        with pytest.raises(ValueError):
            certify_nonsplit(complete_graph(5), base_vertex=5)

    def test_verdict_serialization(self):
        verdict = certify_nonsplit(theta_loops())
        data = verdict.to_dict()
        assert data["status"] == CERTIFIED_NONSPLIT
        assert data["aut_order"] == 16
        assert len(data["orbits"]) == 2
        for orbit in data["orbits"]:
            cert = orbit["certificate"]
            assert sorted(cert["element"]) == list(range(8))
            assert cert["orbit_sizes"] == [2]
