"""Every connected stable multigraph of genus 2, 3 and 4 as an oracle input.

The graphs come from tests/helpers, deduplicated twice: by a brute-force
canonical form and by networkx's multigraph isomorphism.  On each of them
the group order, admissibility, certificates and roundtrip witnesses are
checked against independent references.
"""

import pytest

from degenera.certify import certify_nonsplit, roundtrip_report
from degenera.graphs import automorphism_group, check_dart_isomorphism, is_admissible
from degenera.perms import verify_certificate
from helpers import (
    admissible_by_chain,
    brute_canonical_form,
    dart_group_order,
    networkx_dart_isomorphism,
    networkx_vertex_automorphisms,
    stable_graphs_by_canonical_form,
    stable_graphs_by_networkx,
    vertex_stabilizer,
)

# (classes, trivalent classes) per genus: Brannetti, Melo and Viviani,
# Adv. Math. 226 (2011); Chan, Algebra & Number Theory 6 (2012)
COUNTS = {2: (3, 2), 3: (15, 5), 4: (111, 17)}


@pytest.fixture(scope="module")
def graphs():
    return [g for genus in COUNTS for g in stable_graphs_by_canonical_form(genus)]


@pytest.mark.parametrize("genus", sorted(COUNTS))
def test_counts_agree_both_ways(genus):
    expected = COUNTS[genus]
    by_form = stable_graphs_by_canonical_form(genus)
    by_networkx = stable_graphs_by_networkx(genus)
    for found in (by_form, by_networkx):
        assert all(g.is_stable() and g.genus() == genus for g in found)
        trivalent = sum(set(g.degrees()) == {3} for g in found)
        assert (len(found), trivalent) == expected
    forms = {brute_canonical_form(g) for g in by_networkx}
    assert forms == {brute_canonical_form(g) for g in by_form}


def test_aut_order_and_admissibility(graphs):
    for g in graphs:
        aut = automorphism_group(g)
        vertex_count = len(networkx_vertex_automorphisms(g))
        assert aut.order == dart_group_order(g, vertex_count)
        assert is_admissible(aut) == admissible_by_chain(g)


def test_certify_at_every_base_vertex(graphs):
    certified = 0
    for g in graphs:
        for base in range(g.vertex_count):
            verdict = certify_nonsplit(g, base_vertex=base)
            if all(r.certificate is None for r in verdict.per_orbit):
                continue
            g2 = vertex_stabilizer(automorphism_group(g), base)
            for report in verdict.per_orbit:
                if report.certificate is not None:
                    g3 = g2.pointwise_stabilizer((report.base_dart,))
                    assert verify_certificate(report.certificate, g2, g3)
                    certified += 1
    # 11 of the 129 graphs have only even degrees
    assert certified == 32


def test_roundtrip_witnesses_on_vertex_transitive_graphs(graphs):
    transitive = [g for g in graphs if automorphism_group(g).is_vertex_transitive()]
    assert len(transitive) == 17
    for g in transitive:
        for r in roundtrip_report(g):
            assert r.ok
            assert check_dart_isomorphism(r.reconstructed, r.subgraph, r.witness)
            oracle = networkx_dart_isomorphism(r.reconstructed, r.subgraph)
            assert check_dart_isomorphism(r.reconstructed, r.subgraph, oracle)
