"""Command line front end.

Subcommands mirror the package layout: `graph analyze` for graph
invariants, `certify` for the non-splitness pipeline, `clutch roundtrip`
for the coset reconstruction check, and `frobenius census|witness|galois`
for the number-theoretic side.  Every command takes `--format text` or
`--format structured`; structured output is a single JSON object whose
fields are stable across runs except for the timing entry.

Exit codes: 0 on success (including a certified verdict), 1 when the run
completed but did not certify (NOT_CERTIFIED, SPLITS_TRIVIALLY, failed
roundtrip, witnesses not found), 2 on input or validation errors, when
memory runs out and when a worker process of `frobenius census|galois`
cannot start or fails.  A closed stdout does not change the exit code.

The environment variable DEGENERA_CAP, a positive integer, overrides the
cap on the elements the search in `certify` enumerates: those of the image
of the vertex stabilizer on one branch orbit of m darts, at most m!.  An
image larger than the cap is refused before any is enumerated, and a
branch orbit of odd size is settled without enumerating anything.
`python -m degenera` runs the same tool.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from . import __version__
from .perms import DEFAULT_ENUMERATION_CAP, EnumerationCapError
from .graphs import (
    DartGraph,
    FAMILY_NAMES,
    automorphism_group,
    family,
    is_admissible,
)
from .certify import (
    CERTIFIED_NONSPLIT,
    certify_nonsplit,
    roundtrip_report,
)
from .frobenius import (
    DEFAULT_CENSUS_BOUND,
    DEFAULT_WITNESS_BOUND,
    census,
    certifies_symmetric_group,
    find_even_witnesses,
    galois_cycle_witnesses,
    parse_poly,
)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="degenera",
        description="Non-splitness certificates for conics attached to "
        "totally degenerate stable curves, via even orbits on coset spaces.",
    )
    parser.add_argument("--version", action="version", version="degenera " + __version__)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format",
        choices=("text", "structured"),
        default="text",
        help="report format (structured = one JSON object)",
    )

    source = argparse.ArgumentParser(add_help=False)
    source.add_argument("path", nargs="?", help="graph file (vertices/edge lines)")
    source.add_argument("--file", help="graph file (alternative to the positional)")
    source.add_argument("--family", choices=FAMILY_NAMES, help="built-in family")
    source.add_argument("--genus", type=int, help="genus for parametrized families")
    source.add_argument(
        "--base-vertex", type=int, default=0, help="base vertex for stabilizers"
    )

    sub = parser.add_subparsers(dest="command", required=True)

    graph = sub.add_parser("graph", help="graph-level operations")
    graph_sub = graph.add_subparsers(dest="subcommand", required=True)
    graph_sub.add_parser(
        "analyze", parents=[common, source],
        help="genus, degrees, automorphisms, admissibility",
    )

    sub.add_parser(
        "certify", parents=[common, source],
        help="run the even-orbit non-splitness pipeline",
    )

    clutch = sub.add_parser("clutch", help="coset reconstruction")
    clutch_sub = clutch.add_subparsers(dest="subcommand", required=True)
    clutch_sub.add_parser(
        "roundtrip", parents=[common, source],
        help="rebuild the graph from its stabilizer tower, per edge orbit",
    )

    frob = sub.add_parser("frobenius", help="degree patterns modulo primes")
    frob_sub = frob.add_subparsers(dest="subcommand", required=True)
    for name, default_bound, blurb in (
        ("census", DEFAULT_CENSUS_BOUND, "pattern counts over all primes up to the bound"),
        ("witness", DEFAULT_WITNESS_BOUND, "two smallest primes with all-even patterns"),
        ("galois", DEFAULT_WITNESS_BOUND, "observed patterns and symmetric-group check"),
    ):
        p = frob_sub.add_parser(name, parents=[common], help=blurb)
        p.add_argument("poly", help="polynomial, e.g. 'x^4-x-1' or '-1,-1,0,0,1'")
        p.add_argument("--bound", type=int, default=default_bound)
    return parser


def _load_graph(args):
    chosen = [s for s in (args.path, args.file, args.family) if s]
    if len(chosen) != 1:
        raise ValueError("give exactly one graph source: a path, --file, or --family")
    if args.family:
        graph = family(args.family, args.genus)
        label = "family %s" % args.family
        if args.genus is not None:
            label += " genus %d" % args.genus
    else:
        path = args.path or args.file
        try:
            with open(path) as handle:
                text = handle.read()
        except OSError as exc:
            raise ValueError("cannot read %s: %s" % (path, exc.strerror or exc))
        graph = DartGraph.parse(text)
        label = "file %s" % path
    return graph, label


def _graph_input(graph, label):
    return {
        "source": label,
        "vertices": graph.vertex_count,
        "edges": graph.edge_count,
    }


def _fmt_pattern(pat):
    return ".".join(str(d) for d in pat)


def _cmd_graph_analyze(args, cap):
    graph, label = _load_graph(args)
    aut = automorphism_group(graph)
    orbits = aut.edge_orbits()
    stable = graph.is_stable()
    admissible = is_admissible(graph) if stable else None
    result = {
        "vertices": graph.vertex_count,
        "edges": graph.edge_count,
        "genus": graph.genus(),
        "degrees": list(graph.degrees()),
        "stable": stable,
        "all_degrees_even": graph.all_degrees_even(),
        "aut_order": aut.order,
        "aut_generators": len(aut.group.generators),
        "vertex_transitive": aut.is_vertex_transitive(),
        "edge_orbits": [list(o) for o in orbits],
        "admissible": admissible,
    }
    lines = [
        "genus: %d" % result["genus"],
        "degrees: %s" % " ".join(map(str, result["degrees"])),
        "stable: %s" % _yn(stable),
        "all degrees even: %s" % _yn(result["all_degrees_even"]),
        "|Aut| = %d" % result["aut_order"],
        "generators: %d" % result["aut_generators"],
        "vertex-transitive: %s" % _yn(result["vertex_transitive"]),
        "edge orbits: %d (sizes %s)"
        % (len(orbits), ", ".join(str(len(o)) for o in orbits)),
        "admissible: %s" % ("n/a (unstable)" if admissible is None else _yn(admissible)),
    ]
    return _graph_input(graph, label), result, lines, 0


def _cmd_certify(args, cap):
    graph, label = _load_graph(args)
    verdict = certify_nonsplit(graph, base_vertex=args.base_vertex, cap=cap)
    result = verdict.to_dict()
    lines = [
        "status: %s" % verdict.status,
        "admissible: %s" % _yn(verdict.admissible),
        "all degrees even: %s" % _yn(verdict.all_degrees_even),
        "vertex-transitive: %s" % _yn(verdict.vertex_transitive),
        "|Aut| = %d" % verdict.g1_order,
    ]
    if verdict.g2_order is not None:
        lines.append(
            "base vertex %d: |Stab| = %d, vertex orbit size %d"
            % (verdict.base_vertex, verdict.g2_order, verdict.n)
        )
    for rep in verdict.per_orbit:
        head = (
            "orbit (edge orbit %d, base edge %d%s): cosets %d, |G3| = %d, |G4| = %d"
            % (
                rep.edge_orbit_index,
                rep.base_edge,
                ", loop" if rep.is_loop else "",
                rep.m,
                rep.g3_order,
                rep.g4_order,
            )
        )
        lines.append(head)
        if rep.certificate is None:
            lines.append("  no even-orbit certificate")
        else:
            cert = rep.certificate
            lines.append(
                "  certificate: order %d, coset orbit sizes %s"
                % (cert.element_order, list(cert.orbit_sizes))
            )
            lines.append("  element: %s" % list(cert.element.images))
    return (
        _graph_input(graph, label),
        result,
        lines,
        0 if verdict.status == CERTIFIED_NONSPLIT else 1,
    )


def _cmd_roundtrip(args, cap):
    graph, label = _load_graph(args)
    reports = roundtrip_report(graph, base_vertex=args.base_vertex)
    ok = all(r.ok for r in reports)
    result = {
        "ok": ok,
        "orbits": [
            {
                "edge_orbit": r.edge_orbit_index,
                "edges": list(r.edge_orbit),
                "tower": dict(
                    zip(("g1", "g2", "g3", "g4"), r.tower.orders()),
                    n=r.tower.n,
                    m=r.tower.m,
                ),
                "reconstructed": {
                    "vertices": r.reconstructed.vertex_count,
                    "edges": r.reconstructed.edge_count,
                },
                "isomorphic": r.ok,
                "witness": list(r.witness) if r.witness else None,
            }
            for r in reports
        ],
    }
    lines = ["roundtrip: %s" % ("ok" if ok else "FAILED")]
    for r in reports:
        t = r.tower
        lines.append(
            "edge orbit %d (%d edges): tower %d/%d/%d/%d, n=%d m=%d -> "
            "%d vertices %d edges, isomorphic: %s"
            % (
                r.edge_orbit_index,
                len(r.edge_orbit),
                *t.orders(),
                t.n,
                t.m,
                r.reconstructed.vertex_count,
                r.reconstructed.edge_count,
                _yn(r.ok),
            )
        )
    return _graph_input(graph, label), result, lines, 0 if ok else 1


def _cmd_frobenius(args, cap):
    poly = parse_poly(args.poly)
    info = {"poly": str(poly), "bound": args.bound}
    if args.subcommand == "census":
        res = census(poly, args.bound)
        result = res.to_dict()
        lines = [
            "primes up to %d: %d (%d ramified: %s)"
            % (
                args.bound,
                res.prime_count,
                len(res.ramified),
                " ".join(map(str, res.ramified)) or "none",
            ),
            "pattern   count   frequency",
        ]
        for row in result["patterns"]:
            lines.append(
                "%-9s %-7d %.6f" % (row["pattern"], row["count"], row["frequency"])
            )
        lines.append("all-even fraction: %.6f" % result["all_even_fraction"])
        return info, result, lines, 0
    if args.subcommand == "witness":
        cert = find_even_witnesses(poly, args.bound)
        if cert is None:
            reason = (
                "odd degree admits no all-even pattern"
                if poly.degree % 2 == 1
                else "fewer than two all-even primes up to %d" % args.bound
            )
            result = {"found": False, "reason": reason}
            return info, result, ["witnesses: not found (%s)" % reason], 1
        result = {"found": True}
        result.update(cert.to_dict())
        lines = [
            "witness primes: %d, %d" % cert.primes,
            "patterns: %s, %s" % tuple(_fmt_pattern(p) for p in cert.patterns),
        ]
        return info, result, lines, 0
    patterns = galois_cycle_witnesses(poly, args.bound)
    certified = certifies_symmetric_group(patterns, poly.degree)
    result = {
        "degree": poly.degree,
        "patterns": [_fmt_pattern(p) for p in sorted(patterns)],
        "symmetric_group_certified": certified,
    }
    lines = [
        "observed patterns: %s" % ", ".join(result["patterns"]),
        "symmetric group S%d certified: %s" % (poly.degree, _yn(certified)),
    ]
    return info, result, lines, 0


def _yn(flag):
    return "yes" if flag else "no"


def _command_label(args):
    if getattr(args, "subcommand", None):
        return "%s %s" % (args.command, args.subcommand)
    return args.command


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    cap = DEFAULT_ENUMERATION_CAP
    env_cap = os.environ.get("DEGENERA_CAP")
    if env_cap:
        try:
            cap = int(env_cap)
        except ValueError:
            cap = 0
        if cap <= 0:
            print("error: DEGENERA_CAP must be a positive integer", file=sys.stderr)
            return 2
    handlers = {
        "graph": _cmd_graph_analyze,
        "certify": _cmd_certify,
        "clutch": _cmd_roundtrip,
        "frobenius": _cmd_frobenius,
    }
    started = time.perf_counter()
    try:
        info, result, lines, code = handlers[args.command](args, cap)
    except (ValueError, EnumerationCapError, ChildProcessError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory; try a smaller input", file=sys.stderr)
        return 2
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    label = _command_label(args)
    try:
        if args.format == "structured":
            report = {
                "command": label,
                "input": info,
                "result": result,
                "timing_ms": round(elapsed_ms, 3),
                "version": __version__,
            }
            print(json.dumps(report, indent=2, sort_keys=True))
        else:
            print("degenera %s" % label)
            print("input: %s" % _describe_input(info))
            for line in lines:
                print(line)
            print("elapsed: %.1f ms" % elapsed_ms)
    except BrokenPipeError:
        pass  # the reader is gone; the run's exit status still stands
    return code


def _describe_input(info):
    if "vertices" in info:
        return "%s (%d vertices, %d edges)" % (
            info["source"],
            info["vertices"],
            info["edges"],
        )
    return "%s, bound %d" % (info["poly"], info["bound"])


def run():
    """Console entry point.

    When the reader closes the pipe early (`| head -1`), stdout is pointed
    at os.devnull, so the flush at interpreter exit cannot raise again, and
    the command's exit status is kept (the "Note on SIGPIPE" recipe in the
    Python documentation of the signal module).
    """
    code = main()
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)


if __name__ == "__main__":
    run()
