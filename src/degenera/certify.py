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
G1/G4, darts G1/G3), read as the orbits of the base points; the walk maps
it onto the original edge orbit, and that map is checked.
The certificate search looks for an element of G2 whose cyclic orbits on
G2/G3 all have even size; such an element witnesses nonzero 2-torsion in
the relative Brauer group of the corresponding global field extension,
hence a conic with no rational point.  Since G3 fixes the dart d0, G2/G3 is
the dart orbit Ω = G2·d0, and the search reads those orbit sizes as cycle
lengths on the darts of Ω.  |G1| comes from the generator search, rooted at
v0 for certification, so the generators it found that fix v0, with the
kernel, generate G2 and |G2| = |G1| / |orbit of v0|.  The search runs on
those lifts and the kernel generators that move a dart at v0, which give
G2's image on Ω (at most m! elements), and the walk of d0 applies the
kernel implicitly.  Each entry point builds Aut once and passes it down.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import factorial
from typing import Optional

from .perms import OrbitCertificate, PermGroup, decimal_text, even_orbit_search
from .graphs import DartGraph, automorphism_group, check_dart_isomorphism

CERTIFIED_NONSPLIT = "CERTIFIED_NONSPLIT"
NOT_CERTIFIED = "NOT_CERTIFIED"
SPLITS_TRIVIALLY = "SPLITS_TRIVIALLY"

DEFAULT_ENUMERATION_CAP = 10**6


class EnumerationCapError(RuntimeError):
    """Raised when a search would enumerate more group elements than allowed."""


class NoEndpointSwapError(ValueError):
    """No automorphism swaps the two darts of the base edge.

    Reconstruction needs the dart pair stabilizer to sit above the single
    dart stabilizer with index exactly 2; otherwise the degree-2 branch
    extension degenerates and the coset graph has no edge involution.
    """


@dataclass(frozen=True)
class ClutchingData:
    """Stabilizer tower of a pointed edge in the dart automorphism group.

    walk is the orbit of the base dart d0 as GraphAut.orbit lists it; dart
    d of it sits at vertex graph.vertex_of(d) on edge d >> 1.  Every order
    comes from it by orbit-stabilizer: |G2| = |G1| / n over the n distinct
    vertices, |G3| = |G1| / len(walk) and |G4| = |G1| / (number of distinct
    edges).  m = len(walk) / n is the branch orbit size [G2:G3]; the
    reconstructed graph has n vertices of degree m.
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

    @cached_property
    def edge_darts(self):
        """The walk's darts grouped by edge, edges and darts in walk order;
        edge j of gamma_dagger joins the vertices of list j."""
        by_edge = {}
        for d in self.walk:
            by_edge.setdefault(d >> 1, []).append(d)
        return list(by_edge.values())


_UNSTABLE = "stabilizer tower needs a stable graph (all degrees >= 3)"


def stabilizer_tower(aut, base_vertex, base_edge):
    """Tower of stabilizers in the GraphAut aut for a vertex and an incident edge.

    The base dart is the dart of the edge at the base vertex (the lower
    numbered one for a loop).  The walk of the orbit of d0 lists the darts
    of G1/G3: g(d0) sits at g(v0) on g(e0).
    """
    graph = aut.graph
    if not graph.is_stable():
        raise ValueError(_UNSTABLE)
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
    walk = aut.orbit(base_dart)
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

    Each edge coset contains exactly two dart cosets, the ends of its edge.
    The output may be disconnected (the orbit of the base edge need not
    span a connected subgraph), so it is built without the connectivity
    requirement.
    """
    vertex_of = cd.graph.vertex_of
    vertex_index = {}
    for d in cd.walk:
        vertex_index.setdefault(vertex_of(d), len(vertex_index))
    pairs = cd.edge_darts
    if len(cd.walk) != 2 * len(pairs):
        raise NoEndpointSwapError(
            "no endpoint swap on edge %d: the dart pair stabilizer has index %d "
            "over the dart stabilizer, expected 2"
            % (cd.base_edge, len(cd.walk) // len(pairs))
        )
    edges = [
        (vertex_index[vertex_of(a)], vertex_index[vertex_of(b)]) for a, b in pairs
    ]
    return DartGraph(len(vertex_index), edges, require_connected=False)


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


def roundtrip_report(graph):
    """Reconstruction check per edge orbit.

    Only meaningful for stable vertex-transitive graphs, where every edge
    orbit reaches every vertex and every vertex gives the same result up to
    the witness's labels; each orbit uses its smallest edge at vertex 0.
    One automorphism group serves every tower.  The walk is the
    isomorphism: dart 2j+s of the rebuilt graph, the s-th dart d of
    tower.edge_darts[j], goes to dart 2i + (d & 1) of the subgraph, where
    edge d >> 1 is the i-th of the sorted orbit.  The witness is that map
    if check_dart_isomorphism accepts it, else None.
    """
    if not graph.is_stable():
        raise ValueError(_UNSTABLE)
    aut = automorphism_group(graph)
    if not aut.is_vertex_transitive():
        raise ValueError("reconstruction check needs a vertex-transitive graph")
    reports = []
    for idx, orbit in enumerate(aut.edge_orbits()):
        e0 = min(k for k in orbit if 0 in graph.edges[k])
        cd = stabilizer_tower(aut, 0, e0)
        rebuilt = gamma_dagger(cd)
        sub = orbit_subgraph(graph, orbit)
        place = {k: i for i, k in enumerate(orbit)}
        witness = tuple(2 * place[d >> 1] + (d & 1) for ds in cd.edge_darts for d in ds)
        if not check_dart_isomorphism(rebuilt, sub, witness):
            witness = None
        reports.append(
            OrbitRoundtrip(
                edge_orbit_index=idx,
                edge_orbit=orbit,
                tower=cd,
                reconstructed=rebuilt,
                subgraph=sub,
                witness=witness,
            )
        )
    return reports


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


def certify_nonsplit(graph, base_vertex=0, cap=DEFAULT_ENUMERATION_CAP):
    """Run the full pipeline and return a verdict with per-orbit evidence.

    Odd degrees force a split conic outright.  Otherwise the search runs
    over each orbit of the vertex stabilizer on the branches at the base
    vertex; one even-orbit certificate suffices, since each orbit feeds a
    separate component of the base extension.  A failed search is not a
    splitness proof, so the negative verdict only reports that no
    certificate was found.

    |G2| = |G1| / |orbit of v0| and |G3| = |G2| / m by orbit-stabilizer.
    The generator search of Aut is rooted at v0, so the generators it found
    that fix v0, with the parallel swaps and loop flips, generate G2 itself.
    The search runs on those of them that can move a dart at v0, which give
    the same image H on each even branch orbit Ω of m darts.  When m!
    exceeds cap, |H| = |G2| / (automorphisms fixing Ω), and an H of more
    than cap elements is refused before any search.
    """
    if not graph.is_stable():
        raise ValueError("certification needs a stable graph (all degrees >= 3)")
    if not (0 <= base_vertex < graph.vertex_count):
        raise ValueError("base vertex %d out of range" % base_vertex)
    aut = automorphism_group(graph, base_vertex)
    g1_order = aut.order
    from .graphs import is_admissible

    admissible = is_admissible(aut)
    all_even = graph.all_degrees_even()
    n = g2_order = None
    reports = []
    if all_even:
        n = aut.root_orbit
        g2_order = g1_order // n
        branches = PermGroup(graph.dart_count, aut.branch_generators())
        dart_orbits = branches.orbits(points=graph.darts_at(base_vertex))
        for dart_orbit in dart_orbits:
            m = len(dart_orbit)
            if m % 2 == 0 and factorial(m) > cap:
                size = g2_order // aut.fixing_order(dart_orbit)
                if size > cap:
                    raise EnumerationCapError(
                        "enumeration cap exceeded: the image on an orbit of %d points "
                        "has %s elements > cap %d" % (m, decimal_text(size), cap)
                    )
        edge_orbits = aut.edge_orbits()
        edge_orbit_of = {k: idx for idx, orbit in enumerate(edge_orbits) for k in orbit}
        for dart_orbit in dart_orbits:
            d0 = dart_orbit[0]
            e0 = graph.edge_of(d0)
            m = len(dart_orbit)
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
                    certificate=even_orbit_search(branches, d0),
                )
            )
    status = NOT_CERTIFIED if all_even else SPLITS_TRIVIALLY
    if admissible and any(r.certificate is not None for r in reports):
        status = CERTIFIED_NONSPLIT
    return Verdict(
        status=status,
        admissible=admissible,
        all_degrees_even=all_even,
        vertex_transitive=aut.is_vertex_transitive(),
        base_vertex=base_vertex,
        g1_order=g1_order,
        g2_order=g2_order,
        n=n,
        per_orbit=tuple(reports),
    )
