"""End-to-end acceptance suite.

One test per criterion; each prints a single [criterion N] PASS/FAIL line
(visible with `pytest -s` or in the captured output of a failing test).
Tolerances and sample sizes are part of the contract, so they are spelled
out literally instead of shared through fixtures.
"""

import contextlib
import math
import random
import time

from degenera.certify import (
    CERTIFIED_NONSPLIT,
    certify_nonsplit,
    roundtrip_report,
    stabilizer_tower,
)
from degenera.frobenius import (
    DEMO_QUARTIC,
    census,
    degree_pattern,
    discriminant,
    find_even_witnesses,
    IntPoly,
    primes_upto,
)
from degenera.graphs import (
    check_dart_isomorphism,
    circulant_graph,
    complete_bipartite,
    complete_graph,
    cycle_space_rank,
    doubled_cycle,
    is_admissible,
    theta_loops,
)
from degenera.perms import (
    CosetAction,
    Perm,
    even_orbit_search,
    group_from_generators,
    verify_certificate,
)
from helpers import (
    brute_closure,
    random_connected_multigraph,
    sympy_degree_pattern,
    tower_groups,
    trial_division_degree_pattern,
)


@contextlib.contextmanager
def criterion(number, title):
    notes = []
    try:
        yield notes
    except BaseException as exc:
        print("[criterion %d] FAIL: %s (%r)" % (number, title, exc))
        raise
    tail = "; ".join(notes)
    print("[criterion %d] PASS: %s%s" % (number, title, " (%s)" % tail if tail else ""))


def degree_four_families():
    graphs = [circulant_graph(g) for g in range(7, 13)]
    graphs.append(complete_graph(5))
    graphs += [doubled_cycle(g) for g in range(4, 11)]
    graphs.append(theta_loops())
    return graphs


def test_criterion_01_families_certify():
    with criterion(1, "all degree-4 families certify nonsplit") as notes:
        graphs = degree_four_families()
        spent = 0.0
        verdicts = []
        for graph in graphs:
            started = time.perf_counter()
            verdict = certify_nonsplit(graph)
            spent += time.perf_counter() - started
            assert verdict.status == CERTIFIED_NONSPLIT
            verdicts.append((graph, verdict))
        assert spent < 5.0
        checked = 0
        for graph, verdict in verdicts:
            reports = [r for r in verdict.per_orbit if r.certificate is not None]
            assert reports
            for rep in reports:
                tower = stabilizer_tower(graph, verdict.base_vertex, rep.base_edge)
                _, g2, g3, _ = tower_groups(tower)
                assert verify_certificate(rep.certificate, g2, g3)
                checked += 1
        notes.append("%d graphs in %.2fs" % (len(graphs), spent))
        notes.append("%d certificates re-verified" % checked)


def test_criterion_02_complete_graph_tower():
    with criterion(2, "complete-graph tower orders and order-4 certificate"):
        verdict = certify_nonsplit(complete_graph(5))
        assert verdict.g1_order == 120
        assert verdict.g2_order == 24
        (rep,) = verdict.per_orbit
        assert rep.g3_order == 6
        assert rep.m == 4
        assert rep.certificate.element_order == 4
        assert rep.certificate.orbit_sizes == (4,)


def test_criterion_03_alternating_negative_control():
    with criterion(3, "order-2 cosets in the alternating group defeat the search"):
        a4 = group_from_generators([Perm((1, 0, 3, 2)), Perm((1, 2, 0, 3))])
        assert a4.order() == 12
        h = group_from_generators([Perm((1, 0, 3, 2))])
        assert h.order() == 2
        # h fixes no point of {0..3}, so the search runs on the faithful
        # action of A4 on its six cosets, where h fixes coset 0
        action = CosetAction(a4, h)
        on_cosets = group_from_generators(
            [action.permutation(g) for g in a4.generators]
        )
        assert on_cosets.order() == 12
        assert even_orbit_search(on_cosets, 0) is None
        # exhaustion cross-check: every one of the 12 elements leaves an
        # odd orbit on the six cosets
        for g in a4.elements():
            assert any(size % 2 for size in action.cyclic_orbit_sizes(g))


def test_criterion_04_clutching_roundtrip():
    with criterion(4, "stabilizer towers rebuild each orbit subgraph") as notes:
        orbits = 0
        for graph in degree_four_families():
            for rep in roundtrip_report(graph):
                assert rep.ok
                assert check_dart_isomorphism(
                    rep.reconstructed, rep.subgraph, list(rep.witness)
                )
                orbits += 1
        notes.append("%d edge orbits" % orbits)


def test_criterion_05_admissibility():
    with criterion(5, "admissibility split between fixed and random graphs") as notes:
        assert is_admissible(complete_bipartite(3, 4))
        assert not is_admissible(complete_graph(4))
        rng = random.Random(505)
        for _ in range(100):
            graph = random_connected_multigraph(
                rng, rng.randint(4, 7), rng.randint(2, 6), min_degree=4
            )
            assert min(graph.degrees()) >= 4
            assert is_admissible(graph)
        notes.append("100 random min-degree-4 multigraphs admissible")


def test_criterion_06_genus():
    with criterion(6, "genus matches edge excess and cycle space rank") as notes:
        cases = [(circulant_graph(g), g) for g in range(7, 13)]
        cases.append((complete_graph(5), 6))
        cases += [(doubled_cycle(g), g) for g in range(4, 11)]
        cases.append((theta_loops(), 3))
        for graph, expected in cases:
            assert graph.genus() == expected
            assert graph.genus() == graph.edge_count - graph.vertex_count + 1
            assert graph.genus() == cycle_space_rank(graph)
        rng = random.Random(606)
        for _ in range(50):
            graph = random_connected_multigraph(
                rng, rng.randint(2, 8), rng.randint(0, 8)
            )
            assert graph.genus() == graph.edge_count - graph.vertex_count + 1
            assert graph.genus() == cycle_space_rank(graph)
        notes.append("%d family graphs, 50 random graphs" % len(cases))


def test_criterion_07_census_densities():
    with criterion(7, "million-bound census matches class densities") as notes:
        started = time.perf_counter()
        result = census(DEMO_QUARTIC, 10**6)
        elapsed = time.perf_counter() - started
        assert elapsed < 60.0
        expected = {
            (1, 1, 1, 1): 1 / 24,
            (2, 1, 1): 6 / 24,
            (2, 2): 3 / 24,
            (3, 1): 8 / 24,
            (4,): 6 / 24,
        }
        freqs = result.frequencies()
        assert set(freqs) == set(expected)
        deviations = [abs(freqs[pat] - share) for pat, share in expected.items()]
        assert max(deviations) < 0.01
        assert abs(result.all_even_fraction() - 0.375) < 0.01
        notes.append("%d primes in %.1fs" % (result.prime_count, elapsed))
        notes.append("max density deviation %.5f" % max(deviations))


def test_criterion_08_witness_primes():
    with criterion(8, "two all-even witness primes below 200") as notes:
        cert = find_even_witnesses(DEMO_QUARTIC, 200)
        assert cert is not None
        assert len(set(cert.primes)) == 2
        for p in cert.primes:
            pattern = degree_pattern(DEMO_QUARTIC, p)
            assert pattern is not None
            assert all(size % 2 == 0 for size in pattern)
        disc = discriminant(DEMO_QUARTIC)
        assert disc == -283
        assert all(math.gcd(p, disc) == 1 for p in cert.primes)
        notes.append("primes %d and %d" % cert.primes)


def test_criterion_09_factorization_oracle():
    with criterion(9, "degree patterns agree with complete factorization") as notes:
        rng = random.Random(909)
        polys = []
        while len(polys) < 200:
            degree = rng.randint(2, 6)
            coeffs = [rng.randint(-9, 9) for _ in range(degree)] + [1]
            f = IntPoly(coeffs)
            if discriminant(f) != 0:
                polys.append(f)
        primes = primes_upto(1000)
        for f in polys:
            for p in primes:
                assert degree_pattern(f, p) == sympy_degree_pattern(f.coeffs, p)
        # second, fully literal oracle on a subsample: trial division over
        # every monic polynomial of each degree, so only small primes
        for f in polys[:8]:
            for p in (2, 3, 5, 7, 11, 13):
                assert degree_pattern(f, p) == trial_division_degree_pattern(f.coeffs, p)
        notes.append("200 polynomials x %d primes" % len(primes))


def test_criterion_10_group_engine_oracle():
    with criterion(10, "group orders agree with brute-force closures") as notes:
        rng = random.Random(1010)
        largest = 0
        for _ in range(50):
            degree = rng.randint(4, 7)
            gens = [
                Perm(tuple(rng.sample(range(degree), degree)))
                for _ in range(rng.randint(2, 3))
            ]
            closure = brute_closure([p.images for p in gens])
            group = group_from_generators(gens)
            assert group.order() == len(closure)
            for point in range(degree):
                stabilizer = group.pointwise_stabilizer((point,))
                assert len(group.orbit(point)) * stabilizer.order() == group.order()
            largest = max(largest, group.order())
        notes.append("50 generating sets, largest order %d" % largest)
