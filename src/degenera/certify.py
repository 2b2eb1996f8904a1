"""Non-splitness certification for the conic attached to a stable dual graph.

The engine extracts a stabilizer tower from the automorphism group acting on
darts: G1 = Aut, G2 = Stab(base vertex), G4 = Stab(base edge) and G3 =
Stab(a dart of that edge).  For a non-loop edge G3 coincides with G2 meet
G4; for a loop the dart-level stabilizer is the index-2 refinement that
keeps the branch double cover nondegenerate.  An automorphism sends the
base dart d0 to g(d0), which sits at g(v0) on g(e0), so one walk of the
orbit of d0 also lists the orbits of v0 and e0, and gives every order in
the tower by orbit-stabilizer, |Stab(x)| = |G1| / |G1·x|, with no chain.

Reconstruction rebuilds a graph from cosets alone (vertices G1/G2, edges
G1/G4, darts G1/G3), read as the orbits of the base points, and checks it
against the original edge orbit.  The certificate search looks for an
element of G2 whose cyclic orbits on G2/G3 all have even size; such an
element witnesses nonzero 2-torsion in the relative Brauer group of the
corresponding global field extension, hence a conic with no rational point.
Since G3 fixes the dart d0, G2/G3 is the dart orbit Ω = G2·d0, and the
search reads those orbit sizes as cycle lengths on the darts of Ω.  |G1|
comes from the generator search, and the group data of certification come
from orbit walks as well: G2's action on the darts at v0 from Schreier
generators over the orbit of v0, and the search runs on G2's image on Ω,
which has at most m! elements.  When every degree is at least 4, no
stabilizer chain is built on the darts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .perms import (
    DEFAULT_ENUMERATION_CAP,
    OrbitCertificate,
    Perm,
    PermGroup,
    even_orbit_search,
)
from .graphs import DartGraph, automorphism_group

CERTIFIED_NONSPLIT = "CERTIFIED_NONSPLIT"
NOT_CERTIFIED = "NOT_CERTIFIED"
SPLITS_TRIVIALLY = "SPLITS_TRIVIALLY"


class NoEndpointSwapError(ValueError):
    """No automorphism swaps the two darts of the base edge.

    Reconstruction needs the dart pair stabilizer to sit above the single
    dart stabilizer with index exactly 2; otherwise the degree-2 branch
    extension degenerates and the coset graph has no edge involution.
    """


@dataclass(frozen=True)
class ClutchingData:
    """Stabilizer tower of a pointed edge in the dart automorphism group.

    walk is the orbit of the base dart d0, in walk order; dart d of it sits
    at vertex graph.vertex_of(d) on edge d >> 1.  Every order comes from it
    by orbit-stabilizer: |G2| = |G1| / n over the n distinct vertices,
    |G3| = |G1| / len(walk) and |G4| = |G1| / (number of distinct edges).
    m = len(walk) / n is the branch orbit size [G2:G3]; the reconstructed
    graph has n vertices of degree m.
    """

    graph: DartGraph
    base_vertex: int
    base_edge: int
    base_dart: int
    g1_order: int
    walk: tuple
    n: int
    m: int

    def orders(self):
        g1, edges = self.g1_order, len({d >> 1 for d in self.walk})
        return (g1, g1 // self.n, g1 // len(self.walk), g1 // edges)


def stabilizer_tower(graph, base_vertex, base_edge):
    """Tower of stabilizers for a vertex and an incident edge.

    The base dart is the dart of the edge at the base vertex (the lower
    numbered one for a loop).  The walk of the orbit of d0 lists the darts
    of G1/G3: g(d0) sits at g(v0) on g(e0).
    """
    if not graph.is_stable():
        raise ValueError("stabilizer tower needs a stable graph (all degrees >= 3)")
    if not 0 <= base_edge < graph.edge_count:
        raise ValueError("edge %d out of range" % base_edge)
    u, v = graph.edges[base_edge]
    if base_vertex not in (u, v):
        raise ValueError(
            "edge %d does not touch vertex %d" % (base_edge, base_vertex)
        )
    if graph.is_loop(base_edge):
        base_dart = 2 * base_edge
    else:
        base_dart = graph.dart_at(base_edge, base_vertex)
    aut = automorphism_group(graph)
    walk = [base_dart]
    seen = {base_dart}
    for d in walk:
        for g in aut.group.generators:
            image = g.images[d]
            if image not in seen:
                seen.add(image)
                walk.append(image)
    n = len({graph.vertex_of(d) for d in walk})
    return ClutchingData(
        graph=graph,
        base_vertex=base_vertex,
        base_edge=base_edge,
        base_dart=base_dart,
        g1_order=aut.order,
        walk=tuple(walk),
        n=n,
        m=len(walk) // n,
    )


def gamma_dagger(cd):
    """Rebuild a graph from the tower: vertices G1/G2, edges G1/G4, darts G1/G3.

    The coset gH is the image under g of the point H fixes, so the darts are
    the stored walk of d0, each at the vertex and on the edge of its dart.

    Each edge coset contains exactly two dart cosets, which the involution
    pairs.  The output may be disconnected (the orbit of the base edge need
    not span a connected subgraph), so it is built without the
    connectivity requirement.
    """
    vertex_index = {}
    dart_vertex = [
        vertex_index.setdefault(cd.graph.vertex_of(d), len(vertex_index))
        for d in cd.walk
    ]
    by_edge = {}
    for i, d in enumerate(cd.walk):
        by_edge.setdefault(d >> 1, []).append(i)
    if len(cd.walk) != 2 * len(by_edge):
        raise NoEndpointSwapError(
            "no endpoint swap on edge %d: the dart pair stabilizer has index %d "
            "over the dart stabilizer, expected 2"
            % (cd.base_edge, len(cd.walk) // len(by_edge))
        )
    involution = [None] * len(dart_vertex)
    for a, b in by_edge.values():
        involution[a], involution[b] = b, a
    return DartGraph.from_darts(dart_vertex, involution, require_connected=False)


def orbit_subgraph(graph, edge_ids):
    """Subgraph on the given edges, vertices relabeled in sorted order."""
    edge_ids = sorted(edge_ids)
    vertices = sorted({w for k in edge_ids for w in graph.edges[k]})
    index = {w: i for i, w in enumerate(vertices)}
    edges = [(index[u], index[v]) for u, v in (graph.edges[k] for k in edge_ids)]
    return DartGraph(len(vertices), edges, require_connected=False)


@dataclass(frozen=True)
class OrbitRoundtrip:
    edge_orbit_index: int
    edge_orbit: tuple
    tower: ClutchingData
    reconstructed: DartGraph
    subgraph: DartGraph
    witness: Optional[tuple]

    @property
    def ok(self):
        return self.witness is not None


def roundtrip_report(graph, base_vertex=0):
    """Reconstruction check per edge orbit, from the given base vertex.

    Only meaningful for vertex-transitive graphs, where every edge orbit
    reaches every vertex; each orbit uses its smallest edge at the base
    vertex.
    """
    from .graphs import find_isomorphism

    if not (0 <= base_vertex < graph.vertex_count):
        raise ValueError("base vertex %d out of range" % base_vertex)
    aut = automorphism_group(graph)
    if not aut.is_vertex_transitive():
        raise ValueError("reconstruction check needs a vertex-transitive graph")
    reports = []
    for idx, orbit in enumerate(aut.edge_orbits()):
        e0 = min(k for k in orbit if base_vertex in graph.edges[k])
        cd = stabilizer_tower(graph, base_vertex, e0)
        rebuilt = gamma_dagger(cd)
        sub = orbit_subgraph(graph, orbit)
        witness = find_isomorphism(rebuilt, sub)
        reports.append(
            OrbitRoundtrip(
                edge_orbit_index=idx,
                edge_orbit=orbit,
                tower=cd,
                reconstructed=rebuilt,
                subgraph=sub,
                witness=tuple(witness) if witness is not None else None,
            )
        )
    return reports


def roundtrip_check(graph, base_vertex=0):
    return all(r.ok for r in roundtrip_report(graph, base_vertex))


@dataclass(frozen=True)
class OrbitSearchReport:
    """Even-orbit search outcome for one orbit of branches at the base vertex."""

    edge_orbit_index: int
    base_dart: int
    base_edge: int
    is_loop: bool
    dart_orbit: tuple
    g3_order: int
    g4_order: int
    m: int
    certificate: Optional[OrbitCertificate]

    def to_dict(self):
        cert = None
        if self.certificate is not None:
            cert = {
                "element": list(self.certificate.element.images),
                "order": self.certificate.element_order,
                "orbit_sizes": list(self.certificate.orbit_sizes),
            }
        return {
            "edge_orbit": self.edge_orbit_index,
            "base_dart": self.base_dart,
            "base_edge": self.base_edge,
            "is_loop": self.is_loop,
            "dart_orbit": list(self.dart_orbit),
            "g3_order": self.g3_order,
            "g4_order": self.g4_order,
            "coset_count": self.m,
            "certificate": cert,
        }


@dataclass(frozen=True)
class Verdict:
    status: str
    admissible: bool
    all_degrees_even: bool
    vertex_transitive: bool
    base_vertex: int
    g1_order: int
    g2_order: Optional[int]
    n: Optional[int]
    per_orbit: tuple

    def certificates(self):
        return [r.certificate for r in self.per_orbit if r.certificate is not None]

    def to_dict(self):
        return {
            "status": self.status,
            "admissible": self.admissible,
            "all_degrees_even": self.all_degrees_even,
            "vertex_transitive": self.vertex_transitive,
            "base_vertex": self.base_vertex,
            "aut_order": self.g1_order,
            "vertex_stabilizer_order": self.g2_order,
            "vertex_orbit_size": self.n,
            "orbits": [r.to_dict() for r in self.per_orbit],
        }


def _branch_lifts(aut, base_vertex):
    """Elements of G2 = Stab(v0), one for each action on the darts at v0 that
    a Schreier generator has, and the size of the orbit of v0.

    By Schreier's lemma G2 is generated by the elements u_y^-1 g u_x, for
    every vertex x in the orbit of v0 and every generator g of G1, where u_x
    in G1 sends v0 to x (built by walking that orbit) and y = g(x), the
    vertex of g(u_x(d)) for any dart d at v0.  Their actions on the darts
    at v0 therefore generate G2's action there, which is all the
    even-orbit search reads.  Each action is computed on those
    darts alone; a full dart permutation is built only for an action not
    seen before (the identity counts as seen), and any element with that
    action would do.
    """
    graph = aut.graph
    at_v0 = graph.darts_at(base_vertex)
    one_dart = at_v0[0]
    gens = [g.images for g in aut.group.generators]
    transversal = {base_vertex: tuple(range(graph.dart_count))}
    orbit = [base_vertex]
    for x in orbit:
        ux = transversal[x]
        for g in gens:
            y = graph.vertex_of(g[ux[one_dart]])
            if y not in transversal:
                transversal[y] = tuple(map(g.__getitem__, ux))
                orbit.append(y)
    back = {x: {ux[d]: d for d in at_v0} for x, ux in transversal.items()}
    seen = {at_v0}
    lifts = []
    for x in orbit:
        ux = transversal[x]
        for g in gens:
            y = graph.vertex_of(g[ux[one_dart]])
            to_v0 = back[y]
            action = tuple(to_v0[g[ux[d]]] for d in at_v0)
            if action not in seen:
                seen.add(action)
                uy_inverse = Perm._unchecked(transversal[y]).inverse().images
                lifts.append(Perm._unchecked(tuple(uy_inverse[g[w]] for w in ux)))
    return lifts, len(orbit)


def certify_nonsplit(graph, base_vertex=0, cap=DEFAULT_ENUMERATION_CAP):
    """Run the full pipeline and return a verdict with per-orbit evidence.

    Odd degrees force a split conic outright.  Otherwise the search runs
    over each orbit of the vertex stabilizer on the branches at the base
    vertex; one even-orbit certificate suffices, since each orbit feeds a
    separate component of the base extension.  A failed search is not a
    splitness proof, so the negative verdict only reports that no
    certificate was found.

    No stabilizer chain is built on the darts: |G2| = |G1| / |orbit of v0|
    and |G3| = |G2| / m by orbit-stabilizer, and the search runs on a
    subgroup of G2 that acts on the darts at v0 as G2 does
    (_branch_lifts), so it sees the same branch orbits and the same image
    on each.
    """
    if not graph.is_stable():
        raise ValueError("certification needs a stable graph (all degrees >= 3)")
    if not (0 <= base_vertex < graph.vertex_count):
        raise ValueError("base vertex %d out of range" % base_vertex)
    aut = automorphism_group(graph)
    g1_order = aut.order
    from .graphs import is_admissible

    admissible = is_admissible(graph)
    all_even = graph.all_degrees_even()
    transitive = aut.is_vertex_transitive()
    if not all_even:
        return Verdict(
            status=SPLITS_TRIVIALLY,
            admissible=admissible,
            all_degrees_even=False,
            vertex_transitive=transitive,
            base_vertex=base_vertex,
            g1_order=g1_order,
            g2_order=None,
            n=None,
            per_orbit=(),
        )
    lifts, n = _branch_lifts(aut, base_vertex)
    g2_order = g1_order // n
    branches = PermGroup(graph.dart_count, lifts)
    edge_orbits = aut.edge_orbits()
    edge_orbit_of = {k: idx for idx, orbit in enumerate(edge_orbits) for k in orbit}
    reports = []
    for dart_orbit in branches.orbits(points=graph.darts_at(base_vertex)):
        d0 = dart_orbit[0]
        e0 = graph.edge_of(d0)
        m = len(dart_orbit)
        cert = even_orbit_search(branches, d0, cap=cap)
        reports.append(
            OrbitSearchReport(
                edge_orbit_index=edge_orbit_of[e0],
                base_dart=d0,
                base_edge=e0,
                is_loop=graph.is_loop(e0),
                dart_orbit=dart_orbit,
                g3_order=g2_order // m,
                g4_order=g1_order // len(edge_orbits[edge_orbit_of[e0]]),
                m=m,
                certificate=cert,
            )
        )
    certified = admissible and any(r.certificate is not None for r in reports)
    return Verdict(
        status=CERTIFIED_NONSPLIT if certified else NOT_CERTIFIED,
        admissible=admissible,
        all_degrees_even=True,
        vertex_transitive=transitive,
        base_vertex=base_vertex,
        g1_order=g1_order,
        g2_order=g2_order,
        n=n,
        per_orbit=tuple(reports),
    )
