"""The benchmark's workloads: seeded graph inputs and the CLI calls made on them.

Graphs are built here from plain edge lists, then relabelled from the seed:
a random vertex permutation, a random orientation of every edge and a
shuffled edge order.  The program only ever sees the graph files written
during set-up, so the same seed gives byte-identical inputs and another
seed gives an isomorphic but differently numbered graph.  The census
polynomials are fixed and do not depend on the seed.

Every operation has a stable id (`<kind>:<case>`) that keys its pinned
invariants in expected.json, whatever the seed.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Op:
    """One `degenera` call: `argv` omits `--format structured`."""

    id: str
    kind: str  # analyze, certify, roundtrip, census or galois
    argv: tuple
    graph_file: str = None
    base_vertex: int = 0


def circulant(genus):
    n = genus - 1
    return n, [(i, (i + k) % n) for k in (1, 2) for i in range(n)]


def double_cycle(genus):
    n = genus - 1
    return n, [(i, (i + 1) % n) for i in range(n) for _ in range(2)]


def complete(n):
    return n, [(i, j) for i in range(n) for j in range(i + 1, n)]


def complete_bipartite(a, b):
    return a + b, [(i, a + j) for i in range(a) for j in range(b)]


THETA_LOOPS = (2, [(0, 1), (0, 1), (0, 0), (1, 1)])
# No automorphism moves a vertex, so the even-orbit search is exhaustive and
# ends without a certificate at every base vertex.
RIGID = (3, [(0, 1)] + [(0, 2)] * 3 + [(1, 2)] * 5)


def relabel(graph, rng):
    """Random isomorphic copy; returns (n, edges, vertex map old -> new)."""
    n, edges = graph
    perm = list(range(n))
    rng.shuffle(perm)
    out = []
    for u, v in edges:
        u, v = perm[u], perm[v]
        out.append((u, v) if rng.random() < 0.5 else (v, u))
    rng.shuffle(out)
    return n, out, perm


def graph_text(n, edges):
    return "vertices %d\n" % n + "".join("edge %d %d\n" % e for e in edges)


# Per workload: graph cases (name, graph) and the calls made on each case,
# as (kind, case name, original base vertex).  The census workload has no
# graphs.
_FAMILIES = (
    [("circulant-%d" % g, circulant(g)) for g in range(7, 13)]
    + [("k5", complete(5))]
    + [("double-cycle-%d" % g, double_cycle(g)) for g in range(4, 11)]
    + [("theta-loops", THETA_LOOPS)]
)

GRAPH_WORKLOADS = {
    "families": (
        _FAMILIES,
        [(kind, name, 0) for name, _ in _FAMILIES for kind in ("certify", "roundtrip")],
    ),
    "many-generators": (
        [("k6", complete(6)), ("k4-4", complete_bipartite(4, 4))],
        [
            ("certify", "k6", 0),
            ("analyze", "k4-4", 0),
            ("certify", "k4-4", 0),
            ("roundtrip", "k4-4", 0),
        ],
    ),
    "large-stabilizer": (
        [
            ("double-cycle-12", double_cycle(12)),
            ("double-cycle-11", double_cycle(11)),
            ("rigid", RIGID),
        ],
        [
            ("certify", "double-cycle-12", 0),
            ("roundtrip", "double-cycle-11", 0),
            ("certify", "rigid", 0),
            ("certify", "rigid", 1),
            ("certify", "rigid", 2),
        ],
    ),
}

CENSUS_OPS = (
    ("census", "x^4-x-1", 10**5),
    ("census", "x^8-x-1", 10**5),
    ("census", "x^12-x-1", 2 * 10**4),
    ("galois", "x^8-x-1", 3 * 10**4),
)

WORKLOADS = tuple(GRAPH_WORKLOADS) + ("census",)

_SUBCOMMAND = {
    "analyze": ("graph", "analyze"),
    "certify": ("certify",),
    "roundtrip": ("clutch", "roundtrip"),
}


def _graph_op_id(kind, name, base):
    return "%s:%s" % (kind, name) + (":v%d" % base if name == "rigid" else "")


def op_ids(workload):
    """The operation ids of one pass, in execution order; writes nothing."""
    if workload == "census":
        return ["%s:%s:%d" % op for op in CENSUS_OPS]
    _, calls = GRAPH_WORKLOADS[workload]
    return [_graph_op_id(*call) for call in calls]


def build(workload, seed, workdir):
    """Write the workload's input files into workdir and return its Ops."""
    if workload == "census":
        return [
            Op(
                id="%s:%s:%d" % (kind, poly, bound),
                kind=kind,
                argv=("frobenius", kind, poly, "--bound", str(bound)),
            )
            for kind, poly, bound in CENSUS_OPS
        ]
    graphs, calls = GRAPH_WORKLOADS[workload]
    rng = random.Random(seed)
    files = {}
    vertex_maps = {}
    for name, graph in graphs:
        n, edges, perm = relabel(graph, rng)
        path = os.path.join(workdir, name + ".graph")
        with open(path, "w") as handle:
            handle.write(graph_text(n, edges))
        files[name] = path
        vertex_maps[name] = perm
    ops = []
    for kind, name, base in calls:
        vertex = vertex_maps[name][base]
        argv = _SUBCOMMAND[kind] + (files[name],)
        if kind == "certify":
            argv += ("--base-vertex", str(vertex))
        ops.append(
            Op(
                id=_graph_op_id(kind, name, base),
                kind=kind,
                argv=argv,
                graph_file=files[name],
                base_vertex=vertex,
            )
        )
    return ops
