"""Correctness gate: pinned invariants and certificate re-verification.

Each operation's structured output is reduced to invariants that do not
depend on the seed's relabelling, nor on which certificate the search
happens to pick: verdicts, group and coset orders, roundtrip towers,
census counts and Galois patterns.  Lists whose order follows dart or edge
numbering are sorted.  expected.json pins these invariants per operation id.
"""

from __future__ import annotations

import json
import os

EXPECTED_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "expected.json"
)


def load_expected():
    with open(EXPECTED_PATH) as handle:
        return json.load(handle)


def invariants(kind, exit_code, report):
    """Seed-independent invariants of one structured `degenera` report."""
    result = report["result"]
    out = {"exit": exit_code, "command": report["command"]}
    if kind == "analyze":
        out.update(
            vertices=result["vertices"],
            edges=result["edges"],
            genus=result["genus"],
            degrees=sorted(result["degrees"]),
            stable=result["stable"],
            all_degrees_even=result["all_degrees_even"],
            aut_order=result["aut_order"],
            vertex_transitive=result["vertex_transitive"],
            edge_orbit_sizes=sorted(len(o) for o in result["edge_orbits"]),
            admissible=result["admissible"],
        )
    elif kind == "certify":
        out.update(
            status=result["status"],
            admissible=result["admissible"],
            all_degrees_even=result["all_degrees_even"],
            vertex_transitive=result["vertex_transitive"],
            aut_order=result["aut_order"],
            vertex_stabilizer_order=result["vertex_stabilizer_order"],
            vertex_orbit_size=result["vertex_orbit_size"],
            orbits=sorted(
                [
                    len(o["dart_orbit"]),
                    o["is_loop"],
                    o["coset_count"],
                    o["g3_order"],
                    o["g4_order"],
                    o["certificate"] is not None,
                ]
                for o in result["orbits"]
            ),
        )
    elif kind == "roundtrip":
        out.update(
            ok=result["ok"],
            orbits=sorted(
                [
                    len(o["edges"]),
                    o["tower"]["g1"],
                    o["tower"]["g2"],
                    o["tower"]["g3"],
                    o["tower"]["g4"],
                    o["tower"]["n"],
                    o["tower"]["m"],
                    o["reconstructed"]["vertices"],
                    o["reconstructed"]["edges"],
                    o["isomorphic"],
                ]
                for o in result["orbits"]
            ),
        )
    elif kind == "census":
        out.update(
            prime_count=result["prime_count"],
            ramified=result["ramified"],
            patterns={row["pattern"]: row["count"] for row in result["patterns"]},
        )
    elif kind == "galois":
        out.update(
            degree=result["degree"],
            patterns=sorted(result["patterns"]),
            symmetric_group_certified=result["symmetric_group_certified"],
        )
    else:
        raise ValueError("unknown operation kind %r" % kind)
    return out


def certificates(kind, report):
    """(base dart, certificate dict) for every certificate in a certify report."""
    if kind != "certify":
        return []
    return [
        (o["base_dart"], o["certificate"])
        for o in report["result"]["orbits"]
        if o["certificate"] is not None
    ]


def vertex_stabilizer(graph, group, vertex):
    """G2 as a point stabilizer of Aut acting on darts and vertices together.

    This avoids the element enumeration behind the package's own
    vertex_stabilizer, so the check does not share that path.
    """
    from degenera.perms import Perm, PermGroup

    darts = graph.dart_count
    first_dart = [graph.darts_at(v)[0] for v in range(graph.vertex_count)]

    def on_darts_and_vertices(g):
        vertices = (graph.vertex_of(g.images[d]) + darts for d in first_dart)
        return Perm(g.images + tuple(vertices))

    combined = PermGroup(
        darts + graph.vertex_count, [on_darts_and_vertices(g) for g in group.generators]
    )
    fixed = combined.pointwise_stabilizer((darts + vertex,))
    return PermGroup(darts, [Perm(h.images[:darts]) for h in fixed.generators])


def verify_certificates(op, certs):
    """Rebuild G2 and G3 for each certificate and re-check it from scratch.

    Returns a list of failure messages, empty when every certificate holds.
    """
    from degenera.graphs import DartGraph, automorphism_group
    from degenera.perms import OrbitCertificate, Perm, verify_certificate

    if not certs:
        return []
    with open(op.graph_file) as handle:
        graph = DartGraph.parse(handle.read())
    g2 = vertex_stabilizer(graph, automorphism_group(graph).group, op.base_vertex)
    failures = []
    for base_dart, cert in certs:
        g3 = g2.pointwise_stabilizer((base_dart,))
        candidate = OrbitCertificate(
            element=Perm(cert["element"]),
            element_order=cert["order"],
            orbit_sizes=tuple(cert["orbit_sizes"]),
        )
        if not verify_certificate(candidate, g2, g3):
            failures.append("certificate at dart %d fails re-verification" % base_dart)
    return failures


def check(op, exit_code, output, expected):
    """Failure messages for one operation's captured output (empty if it passed)."""
    try:
        report = json.loads(output)
    except ValueError:
        return ["exit %d without a structured report" % exit_code], []
    try:
        got = invariants(op.kind, exit_code, report)
    except (KeyError, TypeError) as exc:
        return ["report lacks a pinned field: %r" % (exc,)], []
    want = expected.get(op.id)
    if want is None:
        return ["no pinned invariants for %s" % op.id], []
    failures = [
        "%s: got %r, pinned %r" % (key, got.get(key), want[key])
        for key in sorted(want)
        if got.get(key) != want[key]
    ]
    return failures, certificates(op.kind, report)
