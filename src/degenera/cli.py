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
branch orbit of odd size is settled without enumerating anything.  Only
`certify` reads the variable; other commands ignore it, even malformed.
`python -m degenera` runs the same tool.

`main` finds the leaf in `_COMMANDS` named by the first one or two words of
argv, whose handler finds the pipeline in this module's globals at call
time, and reads the rest of argv with one loop over the leaf's option table
(`_parse_leaf`).  A call whose arguments that loop takes builds no argparse
parser and does not import argparse.  Only what the loop declines (help,
abbreviations, repeats, `--`, bad values and the like) goes to the leaf's
argparse parser, built from the same table, which alone prints help and
usage errors.  The overview parser (top level, groups and leaf stubs) is
built only for help, `--version` and usage errors.
"""

from __future__ import annotations

import json
import os
import sys
import time
from json.encoder import encode_basestring_ascii
from types import SimpleNamespace

from . import __version__
from .perms import decimal_text
from .graphs import (
    DartGraph,
    FAMILY_NAMES,
    automorphism_group,
    family,
    is_admissible,
)
from .certify import (
    CERTIFIED_NONSPLIT,
    DEFAULT_ENUMERATION_CAP,
    EnumerationCapError,
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
    pattern_text,
)


# The option table of each leaf, in the order of its help: each entry is an
# option's name and the keyword arguments of its add_argument call.
# _leaf_parser builds its parser from these entries and _parse_leaf reads the
# same ones, so a name, type, choice or default is written once.
_FORMAT_OPTION = (
    "--format",
    {
        "choices": ("text", "structured"),
        "default": "text",
        "help": "report format (structured = one JSON object)",
    },
)
_SOURCE_OPTIONS = (
    _FORMAT_OPTION,
    ("path", {"nargs": "?", "help": "graph file (vertices/edge lines)"}),
    ("--file", {"help": "graph file (alternative to the positional)"}),
    ("--family", {"choices": FAMILY_NAMES, "help": "built-in family"}),
    ("--genus", {"type": int, "help": "genus for parametrized families"}),
)
_BASE_VERTEX_OPTIONS = _SOURCE_OPTIONS + (
    ("--base-vertex", {"type": int, "default": 0, "help": "base vertex for stabilizers"}),
)
_POLY_OPTION = ("poly", {"help": "polynomial, e.g. 'x^4-x-1' or '-1,-1,0,0,1'"})
_CENSUS_OPTIONS = (
    _FORMAT_OPTION,
    _POLY_OPTION,
    ("--bound", {"type": int, "default": DEFAULT_CENSUS_BOUND}),
)
_WITNESS_OPTIONS = (
    _FORMAT_OPTION,
    _POLY_OPTION,
    ("--bound", {"type": int, "default": DEFAULT_WITNESS_BOUND}),
)


def _leaf_parser(words, options):
    """The argparse parser of one leaf, built from its option table."""
    import argparse

    parser = argparse.ArgumentParser(prog="degenera " + " ".join(words))
    parser.set_defaults(subcommand=words[-1])
    for name, spec in options:
        parser.add_argument(name, **spec)
    return parser


def _is_negative_poly(token):
    """A polynomial with a leading minus sign, such as '-1,-1,0,0,1' or '-x^4+x+1'."""
    return len(token) > 1 and token[0] == "-" and token[1] in "0123456789x"


def _parse_leaf(words, options, rest):
    """The attributes that the leaf's argparse parser gives `rest`.

    One loop over the option table takes full long option names, as
    `--name value` or `--name=value`, each at most once, at most one
    positional, and values that do not start with '-', converted by the
    option's type or checked against its choices.  On a polynomial leaf, one
    whose positional is `poly`, that positional may start with a minus sign
    (`_is_negative_poly`).  Anything else, help included, goes to
    `_leaf_parser`, which alone prints help and usage errors; a polynomial
    with a leading minus that the loop has read is passed to it after `--`,
    where argparse cannot take it for an option.
    """
    specs = dict(options)
    positional = next(name for name in specs if not name.startswith("-"))
    found = {}
    poly_at = None
    tokens = enumerate(rest)
    for at, token in tokens:
        if positional == "poly" and _is_negative_poly(token):
            name, value, poly_at = positional, token, at
        elif token.startswith("-"):
            name, equals, value = token.partition("=")
            if not equals:
                value = next(tokens, (None, "-"))[1]  # "-": no value follows
            if name not in specs or value.startswith("-"):
                break
        else:
            name, value = positional, token
        if name in found:
            break
        spec = specs[name]
        try:
            value = spec.get("type", str)(value)
        except ValueError:
            break
        if "choices" in spec and value not in spec["choices"]:
            break
        found[name] = value
    else:
        if positional in found or specs[positional].get("nargs") == "?":
            return SimpleNamespace(
                subcommand=words[-1],
                **{
                    name.lstrip("-").replace("-", "_"): found.get(name, spec.get("default"))
                    for name, spec in options
                },
            )
    if poly_at is not None and "--" not in rest:
        rest = rest[:poly_at] + rest[poly_at + 1 :] + ["--", rest[poly_at]]
    return _leaf_parser(words, options).parse_args(rest)


_HELP = {
    "graph": "graph-level operations",
    "analyze": "genus, degrees, automorphisms, admissibility",
    "certify": "run the even-orbit non-splitness pipeline",
    "clutch": "coset reconstruction",
    "roundtrip": "rebuild the graph from its stabilizer tower, per edge orbit",
    "frobenius": "degree patterns modulo primes",
    "census": "pattern counts over all primes up to the bound",
    "witness": "two smallest primes with all-even patterns",
    "galois": "observed patterns and symmetric-group check",
}


def _overview_parser():
    """Top level and groups, each leaf an argument-less stub with its help line."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="degenera",
        description="Non-splitness certificates for conics attached to "
        "totally degenerate stable curves, via even orbits on coset spaces.",
    )
    parser.add_argument("--version", action="version", version="degenera " + __version__)
    sub = parser.add_subparsers(dest="command", required=True)
    groups = {}
    for words in _COMMANDS:
        if len(words) == 1:
            sub.add_parser(words[0], help=_HELP[words[0]])
            continue
        if words[0] not in groups:
            group = sub.add_parser(words[0], help=_HELP[words[0]])
            groups[words[0]] = group.add_subparsers(dest="subcommand", required=True)
        groups[words[0]].add_parser(words[1], help=_HELP[words[1]])
    return parser


def _load_graph(args):
    chosen = [s for s in (args.path, args.file, args.family) if s]
    if len(chosen) != 1:
        raise ValueError("give exactly one graph source: a path, --file, or --family")
    if args.genus is not None and args.family not in ("circulant", "double-cycle"):
        raise ValueError("--genus applies only to the circulant and double-cycle families")
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
    return {"source": label, "vertices": graph.vertex_count, "edges": graph.edge_count}


def _cmd_graph_analyze(args):
    graph, label = _load_graph(args)
    aut = automorphism_group(graph)
    orbits = aut.edge_orbits()
    stable = graph.is_stable()
    admissible = is_admissible(aut) if stable else None
    result = {
        "vertices": graph.vertex_count,
        "edges": graph.edge_count,
        "genus": graph.genus(),
        "degrees": list(graph.degrees()),
        "stable": stable,
        "all_degrees_even": graph.all_degrees_even(),
        "aut_order": aut.order,
        "aut_generators": aut.generator_count,
        "vertex_transitive": aut.is_vertex_transitive(),
        "edge_orbits": [list(o) for o in orbits],
        "admissible": admissible,
    }
    lines = [
        "genus: %d" % result["genus"],
        "degrees: %s" % " ".join(map(str, result["degrees"])),
        "stable: %s" % _yn(stable),
        "all degrees even: %s" % _yn(result["all_degrees_even"]),
        "|Aut| = %s" % decimal_text(aut.order),
        "generators: %d" % result["aut_generators"],
        "vertex-transitive: %s" % _yn(result["vertex_transitive"]),
        "edge orbits: %d (sizes %s)"
        % (len(orbits), ", ".join(str(len(o)) for o in orbits)),
        "admissible: %s" % ("n/a (unstable)" if admissible is None else _yn(admissible)),
    ]
    return _graph_input(graph, label), result, lines, 0


def _cmd_certify(args):
    try:
        cap = int(os.environ.get("DEGENERA_CAP") or DEFAULT_ENUMERATION_CAP)
    except ValueError:
        cap = 0
    if cap <= 0:
        raise ValueError("DEGENERA_CAP must be a positive integer")
    graph, label = _load_graph(args)
    verdict = certify_nonsplit(graph, base_vertex=args.base_vertex, cap=cap)
    result = verdict.to_dict()
    lines = [
        "status: %s" % verdict.status,
        "admissible: %s" % _yn(verdict.admissible),
        "all degrees even: %s" % _yn(verdict.all_degrees_even),
        "vertex-transitive: %s" % _yn(verdict.vertex_transitive),
        "|Aut| = %s" % decimal_text(verdict.g1_order),
    ]
    if verdict.g2_order is not None:
        lines.append(
            "base vertex %d: |Stab| = %s, vertex orbit size %d"
            % (verdict.base_vertex, decimal_text(verdict.g2_order), verdict.n)
        )
    for rep in verdict.per_orbit:
        lines.append(
            "orbit (edge orbit %d, base edge %d%s): cosets %d, |G3| = %s, |G4| = %s"
            % (
                rep.edge_orbit_index,
                rep.base_edge,
                ", loop" if rep.is_loop else "",
                rep.m,
                decimal_text(rep.g3_order),
                decimal_text(rep.g4_order),
            )
        )
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


def _cmd_roundtrip(args):
    graph, label = _load_graph(args)
    reports = roundtrip_report(graph)
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
            "edge orbit %d (%d edges): tower %s, n=%d m=%d -> "
            "%d vertices %d edges, isomorphic: %s"
            % (
                r.edge_orbit_index,
                len(r.edge_orbit),
                "/".join(map(decimal_text, t.orders())),
                t.n,
                t.m,
                r.reconstructed.vertex_count,
                r.reconstructed.edge_count,
                _yn(r.ok),
            )
        )
    return _graph_input(graph, label), result, lines, 0 if ok else 1


def _cmd_frobenius(args):
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
            "patterns: %s, %s" % tuple(pattern_text(p) for p in cert.patterns),
        ]
        return info, result, lines, 0
    patterns = galois_cycle_witnesses(poly, args.bound)
    certified = certifies_symmetric_group(patterns, poly.degree)
    result = {
        "degree": poly.degree,
        "patterns": [pattern_text(p) for p in sorted(patterns)],
        "symmetric_group_certified": certified,
    }
    lines = [
        "observed patterns: %s" % ", ".join(result["patterns"]),
        "symmetric group S%d certified: %s" % (poly.degree, _yn(certified)),
    ]
    return info, result, lines, 0


def _yn(flag):
    return "yes" if flag else "no"


# Command words -> (handler, option table).
_COMMANDS = {
    ("graph", "analyze"): (_cmd_graph_analyze, _SOURCE_OPTIONS),
    ("certify",): (_cmd_certify, _BASE_VERTEX_OPTIONS),
    ("clutch", "roundtrip"): (_cmd_roundtrip, _SOURCE_OPTIONS),
    ("frobenius", "census"): (_cmd_frobenius, _CENSUS_OPTIONS),
    ("frobenius", "witness"): (_cmd_frobenius, _WITNESS_OPTIONS),
    ("frobenius", "galois"): (_cmd_frobenius, _WITNESS_OPTIONS),
}


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    words = tuple(argv[:2]) if tuple(argv[:2]) in _COMMANDS else tuple(argv[:1])
    try:
        if words not in _COMMANDS:
            _overview_parser().parse_args(argv)  # help, --version or an error: exits
        handler, options = _COMMANDS[words]
        args = _parse_leaf(words, options, argv[len(words):])
    except SystemExit as exc:
        return int(exc.code or 0)
    started = time.perf_counter()
    try:
        info, result, lines, code = handler(args)
    except (ValueError, EnumerationCapError, ChildProcessError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory; try a smaller input", file=sys.stderr)
        return 2
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    try:
        if args.format == "structured":
            report = {
                "command": " ".join(words),
                "input": info,
                "result": result,
                "timing_ms": round(elapsed_ms, 3),
                "version": __version__,
            }
            print(_json_text(report))
        else:
            print("degenera %s" % " ".join(words))
            print("input: %s" % _describe_input(info))
            for line in lines:
                print(line)
            print("elapsed: %.1f ms" % elapsed_ms)
    except BrokenPipeError:
        pass  # the reader is gone; the run's exit status still stands
    return code


def _json_text(value, indent="\n"):
    """json.dumps(value, indent=2, sort_keys=True), byte for byte, from
    json's C string encoder, int.__repr__ and json's text of other scalars;
    an int is written by decimal_text, so also one too long for int.__repr__."""
    kind = type(value)
    if kind is int:
        return decimal_text(value)
    if kind is str:
        return encode_basestring_ascii(value)
    inner = indent + "  "
    if isinstance(value, dict):
        brackets = "{}"
        items = [
            encode_basestring_ascii(key) + ": " + _json_text(value[key], inner)
            for key in sorted(value)
        ]
    elif isinstance(value, (list, tuple)):
        brackets = "[]"
        items = [_json_text(item, inner) for item in value]
    else:
        return json.dumps(value)
    if not value:
        return brackets
    return brackets[0] + inner + ("," + inner).join(items) + indent + brackets[1]


def _describe_input(info):
    if "vertices" in info:
        return "%(source)s (%(vertices)d vertices, %(edges)d edges)" % info
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
