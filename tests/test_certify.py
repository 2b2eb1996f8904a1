import random

import pytest

from degenera.certify import (
    CERTIFIED_NONSPLIT,
    NOT_CERTIFIED,
    SPLITS_TRIVIALLY,
    NoEndpointSwapError,
    _branch_lifts,
    certify_nonsplit,
    gamma_dagger,
    orbit_subgraph,
    roundtrip_check,
    roundtrip_report,
    stabilizer_tower,
)
from degenera.graphs import (
    DartGraph,
    automorphism_group,
    check_dart_isomorphism,
    circulant_graph,
    complete_bipartite,
    complete_graph,
    doubled_cycle,
    find_isomorphism,
    is_isomorphic,
    theta_loops,
)
from degenera.perms import (
    DEFAULT_ENUMERATION_CAP,
    CosetAction,
    Perm,
    PermGroup,
    _best_image,
    verify_certificate,
)
from helpers import (
    brute_coset_orbit_sizes,
    coset_even_orbit_search,
    coset_gamma_dagger,
    odd_powers,
    random_connected_multigraph,
    relabel_graph,
    tower_groups,
    vertex_stabilizer,
)


def rigid_fixture():
    """Distinct even degrees force every branch orbit at any vertex to have
    odd size, so no even-orbit certificate can exist."""
    return DartGraph(3, [(0, 1)] + [(0, 2)] * 3 + [(1, 2)] * 5)


class TestStabilizerTower:
    def test_k5_orders(self):
        cd = stabilizer_tower(complete_graph(5), 0, 0)
        assert cd.orders() == (120, 24, 6, 12)
        assert cd.n == 5 and cd.m == 4

    def test_k5_any_vertex_edge(self):
        g = complete_graph(5)
        for v0 in range(5):
            e0 = next(k for k, (u, v) in enumerate(g.edges) if v0 in (u, v))
            cd = stabilizer_tower(g, v0, e0)
            assert cd.orders() == (120, 24, 6, 12)

    def test_circulant_small_genus_is_octahedral(self):
        cd = stabilizer_tower(circulant_graph(7), 0, 0)
        assert cd.orders() == (48, 8, 2, 4)
        assert cd.n == 6 and cd.m == 4

    def test_circulant_dihedral_range(self):
        for genus in (8, 9, 10, 12):
            g = circulant_graph(genus)
            cd = stabilizer_tower(g, 0, 0)
            _, g2, g3, _ = tower_groups(cd)
            assert g2.order() == 2
            assert g3.order() == 1
            assert cd.m == 2
            assert cd.n == genus - 1

    def test_double_cycle_coset_action_structure(self):
        # the four branches at the base vertex carry a dihedral action: the
        # two parallel swaps commute, and the neighbor swap conjugates one
        # into the other, so the dart stabilizer is not normal
        cd = stabilizer_tower(doubled_cycle(4), 0, 0)
        assert cd.m == 4
        _, g2, g3, _ = tower_groups(cd)
        action = CosetAction(g2, g3)
        images = {action.permutation(p).images for p in g2.elements()}
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
        parallel = stabilizer_tower(g, 0, 0)
        assert parallel.orders() == (16, 8, 4, 8)
        loop = stabilizer_tower(g, 0, 2)
        assert loop.orders() == (16, 8, 4, 8)
        assert loop.base_dart == 4

    def test_index_identities(self):
        for g in (complete_graph(5), circulant_graph(8), theta_loops(),
                  doubled_cycle(5)):
            for e0 in {min(o) for o in automorphism_group(g).edge_orbits()}:
                v0 = g.edges[e0][0]
                cd = stabilizer_tower(g, v0, e0)
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
                seen.add(stabilizer_tower(g, u, e0).orders())
            assert len(seen) == 1

    def test_rejects_unstable(self):
        with pytest.raises(ValueError):
            stabilizer_tower(DartGraph(1, [(0, 0)]), 0, 0)

    def test_rejects_detached_edge(self):
        g = complete_graph(5)
        with pytest.raises(ValueError):
            stabilizer_tower(g, 0, 9)  # edge 9 joins 3 and 4

    def test_rejects_out_of_range_edge(self):
        # edge -1 would index the last edge, which does touch vertex 3
        g = complete_graph(5)
        for e0 in (-1, g.edge_count):
            with pytest.raises(ValueError, match="out of range"):
                stabilizer_tower(g, 3, e0)


class TestGammaDagger:
    def test_k5_reconstruction(self):
        cd = stabilizer_tower(complete_graph(5), 0, 0)
        rebuilt = gamma_dagger(cd)
        assert rebuilt.vertex_count == 5 and rebuilt.edge_count == 10
        assert is_isomorphic(rebuilt, complete_graph(5))

    def test_vertex_edge_degree_counts(self):
        for g, v0, e0 in ((complete_graph(5), 0, 0), (theta_loops(), 0, 0),
                          (theta_loops(), 0, 2), (doubled_cycle(4), 0, 0)):
            cd = stabilizer_tower(g, v0, e0)
            rebuilt = gamma_dagger(cd)
            g1, g2, _, g4 = tower_groups(cd)
            assert rebuilt.vertex_count == g1.order() // g2.order()
            assert rebuilt.edge_count == g1.order() // g4.order()
            assert set(rebuilt.degrees()) == {cd.m}

    def test_theta_loop_orbit_is_disconnected(self):
        cd = stabilizer_tower(theta_loops(), 0, 2)
        rebuilt = gamma_dagger(cd)
        assert not rebuilt.connected
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
                cd = stabilizer_tower(g, 0, e0)
                oracle = coset_gamma_dagger(cd)
                rebuilt = gamma_dagger(cd)
                witness = find_isomorphism(oracle, rebuilt)
                assert witness is not None
                assert check_dart_isomorphism(oracle, rebuilt, witness)

    def test_no_endpoint_swap(self):
        # a bridge between vertices of distinct degrees cannot be reversed
        g = DartGraph(2, [(0, 1), (0, 0), (0, 0), (1, 1), (1, 1), (1, 1)])
        cd = stabilizer_tower(g, 0, 0)
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
            cd = stabilizer_tower(g, v0, e0)
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
    """Schreier-Sims chains built per call, counted from a clean cache, on
    graphs whose degrees are all at least 4."""

    @staticmethod
    def chains_built(monkeypatch, run, graph):
        from degenera import perms

        automorphism_group.cache_clear()
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
        # the only chains are the search's, one on the m points of each
        # even branch orbit; none on the darts or the lifted points
        for g in (complete_graph(5), complete_bipartite(4, 4), doubled_cycle(11),
                  theta_loops(), rigid_fixture()):
            built = self.chains_built(monkeypatch, certify_nonsplit, g)
            even = [r.m for r in certify_nonsplit(g).per_orbit if r.m % 2 == 0]
            assert sorted(built) == sorted((m, ()) for m in even)
            assert all(degree < g.dart_count for degree, _ in built)

    def test_analyze_builds_no_chain(self, monkeypatch, capsys, tmp_path):
        from degenera.cli import main

        for name, g in (("k44", complete_bipartite(4, 4)), ("dc11", doubled_cycle(11)),
                        ("rigid", rigid_fixture())):
            path = tmp_path / (name + ".graph")
            path.write_text(g.to_text())
            codes = []
            run = lambda graph: codes.append(main(["graph", "analyze", str(path)]))
            assert self.chains_built(monkeypatch, run, g) == []
            assert codes == [0]
        capsys.readouterr()


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
        # on every branch orbit, certify's search (on the Schreier lifts)
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
            aut = automorphism_group(g)
            g2 = vertex_stabilizer(aut, base)
            lifts, _ = _branch_lifts(aut, base)
            branches = PermGroup(g.dart_count, lifts)
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
                orbit, chosen, _ = _best_image(branches, d0, DEFAULT_ENUMERATION_CAP)
                assert orbit == dart_orbit
                assert tuple(orbit[i] for i in chosen) == image
                assert cert.orbit_sizes == sizes
                assert cert.element in g2
                assert verify_certificate(cert, g2, g3)
                on_orbit = tuple(cert.element.images[x] for x in orbit)
                powers = {tuple(orbit[i] for i in p) for p in odd_powers(chosen)}
                assert on_orbit in powers
        assert found >= 30


class TestRoundtrip:
    def test_families(self):
        assert roundtrip_check(complete_graph(5))
        assert roundtrip_check(theta_loops())
        for genus in (7, 8, 9):
            assert roundtrip_check(circulant_graph(genus))
        for genus in (4, 5, 6):
            assert roundtrip_check(doubled_cycle(genus))

    def test_single_orbit_rebuilds_whole_graph(self):
        reports = roundtrip_report(complete_graph(5))
        assert len(reports) == 1
        assert is_isomorphic(reports[0].reconstructed, complete_graph(5))

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
        assert roundtrip_check(DartGraph(1, [(0, 0), (0, 0)]))

    def test_k7_certifies_and_roundtrips(self):
        verdict = certify_nonsplit(complete_graph(7))
        assert verdict.status == CERTIFIED_NONSPLIT
        assert verdict.g1_order == 5040
        assert verdict.g2_order == 720
        assert roundtrip_check(complete_graph(7))

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
                    [p.images for p in g2.elements()],
                    [p.images for p in g3.elements()],
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
            for p in g2.elements()
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
