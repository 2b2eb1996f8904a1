import argparse
import contextlib
import errno
import io
import itertools
import json
import math
import os
import random
import runpy
import signal
import subprocess
import sys
import time

import pytest

import degenera
from degenera import cli, frobenius
from degenera.cli import main
from degenera.certify import roundtrip_report
from degenera.graphs import (
    DartGraph,
    automorphism_group,
    check_dart_isomorphism,
    circulant_graph,
    complete_graph,
    doubled_cycle,
    theta_loops,
)
from helpers import complete_bipartite, graph_text


# the lowest integer string conversion limit Python accepts, and its default
LOWEST_DIGIT_LIMIT = 640
DEFAULT_DIGIT_LIMIT = sys.int_info.default_max_str_digits


@contextlib.contextmanager
def digit_limit(limit):
    """Set Python's limit on integer string conversion (0 lifts it), then
    restore the one in force before."""
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(before)


@pytest.fixture(autouse=True)
def reports_written(monkeypatch):
    """Every structured report a test here writes is checked byte for byte
    against json.dumps(report, indent=2, sort_keys=True) and kept.  The
    report is written under the interpreter's digit limit; json.dumps runs
    with it lifted, so a report with a longer integer is checked too."""
    write = cli._json_text
    written = []

    def checked(value, *indent):
        text = write(value, *indent)
        if not indent:
            with digit_limit(0):
                assert text == json.dumps(value, indent=2, sort_keys=True)
            written.append(value)
        return text

    monkeypatch.setattr(cli, "_json_text", checked)
    return written


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def structured(capsys, *argv):
    code, out, err = run_cli(capsys, *argv, "--format", "structured")
    assert err == ""
    return code, json.loads(out)


class TestParsing:
    def test_version(self, capsys):
        code, out, err = run_cli(capsys, "--version")
        assert code == 0
        assert "degenera 0.1.0" in out + err

    def test_no_command(self, capsys):
        assert run_cli(capsys)[0] == 2

    def test_unknown_command(self, capsys):
        assert run_cli(capsys, "frobble")[0] == 2

    def test_missing_source(self, capsys):
        code, _, err = run_cli(capsys, "certify")
        assert code == 2
        assert err.startswith("error:")

    def test_conflicting_sources(self, capsys):
        code, _, err = run_cli(capsys, "certify", "some.graph", "--family", "k5")
        assert code == 2
        assert "exactly one" in err

    def test_family_requires_genus(self, capsys):
        assert run_cli(capsys, "certify", "--family", "circulant")[0] == 2

    def test_unknown_family(self, capsys):
        assert run_cli(capsys, "certify", "--family", "petersen")[0] == 2

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "certify", "/no/such/file.graph")
        assert code == 2
        assert "cannot read" in err

    def test_unreadable_graph_text(self, capsys, tmp_path):
        path = tmp_path / "bad.graph"
        path.write_text("this is not a graph\n")
        assert run_cli(capsys, "certify", str(path))[0] == 2

    def test_seed_option_removed(self, capsys):
        code, _, err = run_cli(capsys, "certify", "--family", "k5", "--seed", "1")
        assert code == 2
        assert "--seed" in err

    @pytest.mark.parametrize("family", ["k5", "theta-loops"])
    def test_genus_rejected_for_fixed_family(self, capsys, family):
        code, out, err = run_cli(
            capsys, "graph", "analyze", "--family", family, "--genus", "3"
        )
        assert (code, out) == (2, "")
        assert err == (
            "error: --genus applies only to the circulant and double-cycle families\n"
        )

    @pytest.mark.parametrize("flag", [[], ["--file"]])
    def test_genus_rejected_for_file_source(self, capsys, tmp_path, flag):
        path = tmp_path / "k5.graph"
        path.write_text(graph_text(complete_graph(5)))
        code, out, err = run_cli(capsys, "certify", *flag, str(path), "--genus", "3")
        assert (code, out) == (2, "")
        assert err.count("\n") == 1 and err.startswith("error: --genus")

    @pytest.mark.parametrize("family", ["circulant", "double-cycle"])
    def test_genus_above_the_limit_rejected(self, capsys, monkeypatch, family):
        # refused before any edge list is built, so an absurd genus cannot
        # exhaust memory
        from degenera import graphs

        def build(genus):
            raise AssertionError("the graph was built")

        monkeypatch.setattr(graphs, "circulant_graph", build)
        monkeypatch.setattr(graphs, "doubled_cycle", build)
        for genus in (graphs.GENUS_LIMIT + 1, 10**8):
            code, out, err = run_cli(
                capsys, "graph", "analyze", "--family", family, "--genus", str(genus)
            )
            assert (code, out) == (2, "")
            assert err == "error: genus %d exceeds the limit %d\n" % (
                genus, graphs.GENUS_LIMIT
            )


LEAVES = {
    ("graph", "analyze"): ["--family", "k5"],
    ("certify",): ["--family", "k5"],
    ("clutch", "roundtrip"): ["--family", "theta-loops"],
    ("frobenius", "census"): ["x^2+1", "--bound", "100"],
    ("frobenius", "witness"): ["x^4-x-1", "--bound", "100"],
    ("frobenius", "galois"): ["x^4-x-1", "--bound", "100"],
}


class TestDispatch:
    @pytest.fixture
    def parsers_built(self, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        return built

    @pytest.mark.parametrize("words", LEAVES, ids=" ".join)
    def test_one_parser_per_leaf_call(self, capsys, parsers_built, words):
        argv = list(words) + LEAVES[words]
        assert run_cli(capsys, *argv)[0] in (0, 1)
        assert parsers_built == []
        for tail in (["--colour"], ["--fam", "k5"], ["-h"]):
            run_cli(capsys, *argv, *tail)
            assert parsers_built == ["degenera " + " ".join(words)]
            parsers_built.clear()

    @pytest.mark.parametrize("words", LEAVES, ids=" ".join)
    def test_table_loop_matches_argparse(self, parsers_built, words):
        """Every option in both forms, in three orders, with and without the
        positional: the attributes argparse gives, with no parser built."""
        options = cli._COMMANDS[words][1]
        sample = {
            "--format": "structured",
            "--file": "g.graph",
            "--family": "circulant",
            "--genus": "3",
            "--base-vertex": "2",
            "--bound": "77",
        }
        names = [name for name, _ in options]
        values = {name: sample[name] for name in names if name.startswith("-")}
        if "poly" in names:
            positionals = ["x^4-x-1", "-1,-1,0,0,1", "-x^4+x+1"]
        else:
            positionals = [None, "other.graph"]
        shuffle = random.Random(16).shuffle
        checked = 0
        for count in range(len(values) + 1):
            for names in itertools.combinations(values, count):
                for equals, positional in itertools.product((False, True), positionals):
                    tokens = [
                        [name + "=" + values[name]] if equals else [name, values[name]]
                        for name in names
                    ]
                    reference = sum(tokens, [])
                    if positional is not None:
                        tokens.append([positional])
                        reference += ["--", positional]
                    shuffled = tokens[:]
                    shuffle(shuffled)
                    parser = cli._leaf_parser(words, options)
                    expected = vars(parser.parse_args(reference))
                    parsers_built.clear()
                    for order in (tokens, tokens[::-1], shuffled):
                        rest = sum(order, [])
                        assert vars(cli._parse_leaf(words, options, rest)) == expected
                        assert parsers_built == [], rest
                        checked += 1
        assert checked == 3 * 2 * len(positionals) * 2 ** len(values)

    @pytest.mark.parametrize(
        "words, rest",
        [
            (("certify",), ["--fam", "k5"]),
            (("certify",), ["--family", "k5", "--family", "circulant"]),
            (("certify",), ["--family", "circulant", "--genus", "-3"]),
            (("certify",), ["--family", "circulant", "--genus=-3"]),
            (("certify",), ["--family", "petersen"]),
            (("certify",), ["--genus", "3.5"]),
            (("certify",), ["a.graph", "b.graph"]),
            (("certify",), ["--", "a.graph"]),
            (("certify",), ["--file"]),
            (("frobenius", "census"), ["x^2+1", "--format", "json"]),
            (("frobenius", "census"), ["x^2+1", "x^2+2"]),
            (("frobenius", "census"), ["--bound", "100"]),
            (("frobenius", "census"), ["x^2+1", "--bound", "-5"]),
            (("frobenius", "census"), ["x^2+1", "--bou", "5"]),
        ],
        ids=repr,
    )
    def test_declined_input_goes_to_argparse(self, capsys, parsers_built, words, rest):
        """What the table's loop declines gets argparse's attributes, or its
        message and exit code, from the one parser of the leaf."""
        options = cli._COMMANDS[words][1]

        def outcome(parse):
            try:
                return vars(parse(rest))
            except SystemExit as exc:
                return exc.code, capsys.readouterr().err

        got = outcome(lambda rest: cli._parse_leaf(words, options, rest))
        assert parsers_built == ["degenera " + " ".join(words)]
        assert got == outcome(cli._leaf_parser(words, options).parse_args)

    def test_import_leaves_argparse_out(self):
        done = subprocess.run(
            [
                sys.executable,
                "-c",
                "import sys, degenera.cli; print('argparse' in sys.modules)",
            ],
            capture_output=True, text=True, env=subprocess_env(), timeout=60,
        )
        assert (done.returncode, done.stdout, done.stderr) == (0, "False\n", "")

    @pytest.mark.parametrize(
        "argv", [["graph"], ["frobenius"], ["frobble"], []], ids=repr
    )
    def test_no_leaf_prints_usage(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("usage: degenera")

    @pytest.mark.parametrize("words", LEAVES, ids=" ".join)
    def test_unknown_option_names_it(self, capsys, words):
        code, out, err = run_cli(capsys, *words, *LEAVES[words], "--colour")
        assert (code, out) == (2, "")
        assert err.startswith("usage: degenera %s " % " ".join(words))
        assert err.endswith("error: unrecognized arguments: --colour\n")

    @pytest.mark.parametrize("words", LEAVES, ids=" ".join)
    def test_leaf_help(self, capsys, words):
        code, out, err = run_cli(capsys, *words, "-h")
        assert (code, err) == (0, "")
        assert out.startswith("usage: degenera %s [-h] [--format" % " ".join(words))

    def test_python_m_reads_sys_argv(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["degenera", "certify", "--family", "k5"])
        with pytest.raises(SystemExit) as exit_info:
            runpy.run_module("degenera", run_name="__main__")
        assert exit_info.value.code == 0
        assert "status: CERTIFIED_NONSPLIT" in capsys.readouterr().out


class TestAnalyze:
    def test_k5_text(self, capsys):
        code, out, err = run_cli(capsys, "graph", "analyze", "--family", "k5")
        assert code == 0
        assert err == ""
        assert "degenera graph analyze" in out
        assert "input: family k5 (5 vertices, 10 edges)" in out
        assert "genus: 6" in out
        assert "stable: yes" in out
        assert "all degrees even: yes" in out
        assert "|Aut| = 120" in out
        assert "vertex-transitive: yes" in out
        assert "edge orbits: 1 (sizes 10)" in out
        assert "admissible: yes" in out

    def test_k5_structured(self, capsys):
        code, report = structured(capsys, "graph", "analyze", "--family", "k5")
        assert code == 0
        assert set(report) == {"command", "input", "result", "timing_ms", "version"}
        assert report["command"] == "graph analyze"
        assert report["version"] == "0.1.0"
        assert report["input"] == {"source": "family k5", "vertices": 5, "edges": 10}
        result = report["result"]
        assert result["genus"] == 6
        assert result["aut_order"] == 120
        assert result["degrees"] == [4, 4, 4, 4, 4]
        assert result["admissible"] is True

    def test_generator_count(self, capsys, tmp_path):
        g = complete_bipartite(4, 4)
        path = tmp_path / "k44.graph"
        path.write_text(graph_text(g))
        count = len(automorphism_group(g).group.generators)
        assert count <= 7
        code, report = structured(capsys, "graph", "analyze", str(path))
        assert code == 0
        assert report["result"]["aut_order"] == 1152
        assert report["result"]["aut_generators"] == count
        code, out, _ = run_cli(capsys, "graph", "analyze", str(path))
        assert code == 0
        assert "generators: %d\n" % count in out

    def test_structured_output_is_stable(self, capsys):
        _, first = structured(capsys, "graph", "analyze", "--family", "theta-loops")
        _, second = structured(capsys, "graph", "analyze", "--family", "theta-loops")
        first.pop("timing_ms")
        second.pop("timing_ms")
        assert first == second

    def test_text_output_is_stable(self, capsys):
        outs = []
        for _ in range(2):
            _, out, _ = run_cli(capsys, "graph", "analyze", "--family", "double-cycle", "--genus", "5")
            outs.append([l for l in out.splitlines() if not l.startswith("elapsed:")])
        assert outs[0] == outs[1]

    def test_file_source_matches_family(self, capsys, tmp_path):
        path = tmp_path / "k5.graph"
        path.write_text(graph_text(complete_graph(5)))
        _, by_family = structured(capsys, "graph", "analyze", "--family", "k5")
        _, by_path = structured(capsys, "graph", "analyze", str(path))
        _, by_flag = structured(capsys, "graph", "analyze", "--file", str(path))
        assert by_path["result"] == by_family["result"]
        assert by_flag["result"] == by_path["result"]

    def test_impossible_vertex_count_rejected(self, capsys, tmp_path):
        # one edge connects at most two vertices; refused before any
        # per-vertex list is allocated
        path = tmp_path / "huge.graph"
        path.write_text("vertices 1000000000000\nedge 0 1\n")
        code, out, err = run_cli(capsys, "graph", "analyze", str(path))
        assert code == 2
        assert out == ""
        assert err == "error: graph is not connected\n"

    def test_unstable_graph_reports_na(self, capsys, tmp_path):
        path = tmp_path / "loop.graph"
        path.write_text("vertices 1\nedge 0 0\n")
        code, out, _ = run_cli(capsys, "graph", "analyze", str(path))
        assert code == 0
        assert "genus: 1" in out
        assert "stable: no" in out
        assert "admissible: n/a (unstable)" in out

    def test_single_vertex_without_edges(self, capsys, tmp_path):
        # its vertex has no dart; orbits come from the vertex generators
        path = tmp_path / "point.graph"
        path.write_text("vertices 1\n")
        code, report = structured(capsys, "graph", "analyze", str(path))
        assert code == 0
        result = report["result"]
        assert (result["genus"], result["aut_order"]) == (0, 1)
        assert result["edge_orbits"] == []
        assert result["vertex_transitive"] is True
        code, out, err = run_cli(capsys, "graph", "analyze", str(path))
        assert (code, err) == (0, "")
        assert "genus: 0\n" in out and "edge orbits: 0 (sizes )\n" in out

    def test_base_vertex_is_not_an_option(self, capsys):
        # analyze reports the whole graph, so it has no base vertex to take
        code, out, err = run_cli(
            capsys, "graph", "analyze", "--family", "k5", "--base-vertex", "3"
        )
        assert (code, out) == (2, "")
        assert err.startswith("usage: degenera graph analyze ")
        assert err.endswith("error: unrecognized arguments: --base-vertex\n")


class TestCertify:
    def test_k5_certified(self, capsys):
        code, out, err = run_cli(capsys, "certify", "--family", "k5")
        assert code == 0
        assert err == ""
        assert "status: CERTIFIED_NONSPLIT" in out
        assert "certificate: order 4" in out

    def test_k5_structured(self, capsys):
        code, report = structured(capsys, "certify", "--family", "k5")
        assert code == 0
        result = report["result"]
        assert result["status"] == "CERTIFIED_NONSPLIT"
        assert result["aut_order"] == 120
        assert result["vertex_stabilizer_order"] == 24
        (orbit,) = result["orbits"]
        assert orbit["coset_count"] == 4
        assert orbit["certificate"]["order"] == 4
        assert orbit["certificate"]["orbit_sizes"] == [4]

    def test_odd_degree_exits_one(self, capsys, tmp_path):
        path = tmp_path / "k4.graph"
        path.write_text(graph_text(complete_graph(4)))
        code, out, _ = run_cli(capsys, "certify", str(path))
        assert code == 1
        assert "status: SPLITS_TRIVIALLY" in out

    def test_not_certified_exits_one(self, capsys, tmp_path):
        path = tmp_path / "k34.graph"
        path.write_text(graph_text(complete_bipartite(3, 4)))
        code, out, _ = run_cli(capsys, "certify", str(path))
        assert code == 1
        assert "status: SPLITS_TRIVIALLY" in out

    def test_base_vertex_flag(self, capsys):
        code, out, _ = run_cli(
            capsys, "certify", "--family", "theta-loops", "--base-vertex", "1"
        )
        assert code == 0
        assert "status: CERTIFIED_NONSPLIT" in out

    def test_base_vertex_out_of_range(self, capsys):
        code, _, err = run_cli(
            capsys, "certify", "--family", "k5", "--base-vertex", "9"
        )
        assert code == 2
        assert "out of range" in err


class TestRoundtrip:
    def test_k5(self, capsys):
        code, out, _ = run_cli(capsys, "clutch", "roundtrip", "--family", "k5")
        assert code == 0
        assert "roundtrip: ok" in out
        assert "tower 120/24/6/12, n=5 m=4" in out

    def test_theta_loops_structured(self, capsys):
        code, report = structured(capsys, "clutch", "roundtrip", "--family", "theta-loops")
        assert code == 0
        result = report["result"]
        assert result["ok"] is True
        assert len(result["orbits"]) == 2
        for orbit in result["orbits"]:
            assert orbit["isomorphic"] is True
            assert orbit["witness"] is not None

    def test_witnesses_pass_dart_check(self, capsys, tmp_path):
        # witnesses are checked for validity, not pinned: they follow the
        # vertex numbering of the rebuilt graph, hence the generators
        graphs = [circulant_graph(g) for g in range(7, 13)]
        graphs += [complete_graph(5), theta_loops(), complete_bipartite(4, 4)]
        graphs += [doubled_cycle(g) for g in range(4, 11)]
        path = tmp_path / "g.graph"
        for g in graphs:
            path.write_text(graph_text(g))
            code, report = structured(capsys, "clutch", "roundtrip", str(path))
            assert code == 0
            orbits = report["result"]["orbits"]
            reports = roundtrip_report(g)
            assert len(orbits) == len(reports)
            for orbit, rep in zip(orbits, reports):
                assert orbit["edges"] == list(rep.edge_orbit)
                assert check_dart_isomorphism(
                    rep.reconstructed, rep.subgraph, orbit["witness"]
                )

    def test_base_vertex_out_of_range(self, capsys):
        # a roundtrip runs only on a vertex-transitive graph, where every
        # vertex gives the same result, so no base vertex is taken: in range
        # or out of it, the option is refused before any vertex is checked
        for base in ("7", "-1", "3"):
            code, out, err = run_cli(
                capsys, "clutch", "roundtrip", "--family", "k5", "--base-vertex", base
            )
            assert (code, out) == (2, "")
            assert err.startswith("usage: degenera clutch roundtrip ")
            assert err.endswith("error: unrecognized arguments: --base-vertex\n")

    def test_non_transitive_rejected(self, capsys, tmp_path):
        path = tmp_path / "k34.graph"
        path.write_text(graph_text(complete_bipartite(3, 4)))
        code, _, err = run_cli(capsys, "clutch", "roundtrip", str(path))
        assert code == 2
        assert err.startswith("error:")

    def test_unstable_rejected_first(self, capsys, tmp_path):
        # a vertex with no dart, and a vertex of degree 1 on a graph that is
        # not vertex-transitive: stability is checked before Aut is built
        path = tmp_path / "g.graph"
        for text in ("vertices 1\n", "vertices 2\nedge 0 1\nedge 0 0\n"):
            path.write_text(text)
            code, out, err = run_cli(capsys, "clutch", "roundtrip", str(path))
            assert code == 2 and out == ""
            assert err == (
                "error: stabilizer tower needs a stable graph (all degrees >= 3)\n"
            )


class TestFrobenius:
    def test_witness_found(self, capsys):
        code, out, err = run_cli(
            capsys, "frobenius", "witness", "x^4-x-1", "--bound", "200"
        )
        assert code == 0
        assert err == ""
        assert "witness primes: 2, 3" in out
        assert "patterns: 4, 4" in out

    def test_witness_structured(self, capsys):
        code, report = structured(
            capsys, "frobenius", "witness", "x^4-x-1", "--bound", "200"
        )
        assert code == 0
        assert report["input"] == {"poly": "x^4 - x - 1", "bound": 200}
        assert report["result"] == {
            "found": True,
            "poly": "x^4 - x - 1",
            "primes": [2, 3],
            "patterns": ["4", "4"],
        }

    @pytest.mark.parametrize("poly", ["-1,-1,0,0,1", "-x^4+x+1"])
    def test_leading_minus_needs_no_double_dash(self, capsys, poly):
        options = ["--format", "structured", "--bound", "100"]
        reports = []
        for argv in ([poly, *options], [*options, "--", poly]):
            code, out, err = run_cli(capsys, "frobenius", "census", *argv)
            assert (code, err) == (0, "")
            report = json.loads(out)
            del report["timing_ms"]
            reports.append(report)
        assert reports[0] == reports[1]

    @pytest.mark.parametrize(
        "tail, message",
        [
            (["--bound", "abc"], "argument --bound: invalid int value: 'abc'"),
            (["--colour"], "unrecognized arguments: --colour"),
        ],
        ids=["bad int", "unknown option"],
    )
    def test_leading_minus_usage_error_names_the_fault(self, capsys, tail, message):
        code, out, err = run_cli(capsys, "frobenius", "census", "-1,-1,0,0,1", *tail)
        assert (code, out) == (2, "")
        assert err.endswith("error: %s\n" % message)

    def test_witness_odd_degree(self, capsys):
        code, out, _ = run_cli(capsys, "frobenius", "witness", "x^3-2")
        assert code == 1
        assert "not found" in out
        assert "odd degree" in out

    def test_witness_bad_poly(self, capsys):
        code, _, err = run_cli(capsys, "frobenius", "witness", "x^")
        assert code == 2
        assert err.startswith("error:")

    def test_witness_nonmonic_rejected(self, capsys):
        assert run_cli(capsys, "frobenius", "witness", "2x^2+1")[0] == 2

    @pytest.mark.parametrize("kind", ["witness", "galois"])
    @pytest.mark.parametrize("poly", ["2x^4+x+1", "-x^4+x+1"])
    def test_nonmonic_message_names_no_other_search(self, capsys, kind, poly):
        code, out, err = run_cli(capsys, "frobenius", kind, poly)
        assert (code, out) == (2, "")
        assert err == "error: the polynomial must be monic (leading coefficient 1)\n"

    def test_census_table(self, capsys):
        code, out, _ = run_cli(
            capsys, "frobenius", "census", "x^2+1", "--bound", "100"
        )
        assert code == 0
        assert "primes up to 100: 25 (1 ramified: 2)" in out
        assert "pattern   count   frequency" in out
        assert "%-9s %-7d %.6f" % ("1.1", 11, 11 / 24) in out
        assert "%-9s %-7d %.6f" % ("2", 13, 13 / 24) in out
        assert "all-even fraction: 0.541667" in out

    def test_census_structured(self, capsys):
        code, report = structured(
            capsys, "frobenius", "census", "x^2+1", "--bound", "100"
        )
        assert code == 0
        result = report["result"]
        assert result["ramified"] == [2]
        assert result["prime_count"] == 25
        assert {e["pattern"]: e["count"] for e in result["patterns"]} == {
            "1.1": 11,
            "2": 13,
        }

    def test_census_bad_bound(self, capsys):
        assert run_cli(capsys, "frobenius", "census", "x^2+1", "--bound", "1")[0] == 2

    @pytest.mark.parametrize("poly", ["x^2-2x+1", "2x^2"])
    def test_census_zero_discriminant_rejected(self, capsys, poly):
        code, out, err = run_cli(capsys, "frobenius", "census", poly, "--bound", "100")
        assert code == 2
        assert out == ""
        assert err == "error: polynomial is not squarefree (discriminant 0)\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ("census", "x^1000000000-1"),
            ("census", "x^100000-x-1", "--bound", "10"),
            ("witness", ",".join(["1"] + ["0"] * 300 + ["1"])),
        ],
    )
    def test_degree_above_limit_rejected(self, capsys, argv):
        # rejected while parsing, before a coefficient list is built
        code, out, err = run_cli(capsys, "frobenius", *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "limit %d" % frobenius.DEGREE_LIMIT in err

    def test_census_without_unramified_prime_rejected(self, capsys):
        # 2 is the only prime up to 2, and it divides disc(x^2+1) = -4
        code, out, err = run_cli(capsys, "frobenius", "census", "x^2+1", "--bound", "2")
        assert code == 2
        assert out == ""
        assert err == "error: no unramified prime up to 2\n"

    @pytest.mark.parametrize("bound", ["1", "-5"])
    def test_galois_without_unramified_prime_rejected(self, capsys, bound):
        code, out, err = run_cli(
            capsys, "frobenius", "galois", "x^4-x-1", "--bound", bound
        )
        assert code == 2
        assert out == ""
        assert err == "error: no unramified prime up to %s\n" % bound

    def test_odd_degree_witness_checks_bound(self, capsys):
        code, out, err = run_cli(
            capsys, "frobenius", "witness", "x^3-2", "--bound", str(2**31)
        )
        assert code == 2
        assert out == ""
        assert err == "error: bound %d must be below 2^31\n" % 2**31

    @pytest.mark.parametrize("bound", [str(2**31), str(10**30)], ids=["2^31", "10^30"])
    @pytest.mark.parametrize("command", ["census", "witness", "galois"])
    def test_bound_at_prime_limit_rejected(self, capsys, command, bound):
        # refused before the sieve allocates bound + 1 bytes
        code, out, err = run_cli(
            capsys, "frobenius", command, "x^4-x-1", "--bound", bound
        )
        assert code == 2
        assert out == ""
        assert err == "error: bound %s must be below 2^31\n" % bound

    @pytest.mark.parametrize("poly", ["x^2+1-", "x^2+1+", "+", "-", "x^2+1,", ","])
    @pytest.mark.parametrize("command", ["census", "witness", "galois"])
    def test_unparsable_tail_rejected(self, capsys, command, poly):
        # a trailing sign is not dropped, and no Python message leaks out
        code, out, err = run_cli(capsys, "frobenius", command, poly, "--bound", "100")
        assert (code, out) == (2, "")
        assert err.startswith("error: cannot parse ") and err.count("\n") == 1
        assert repr(poly) in err

    @pytest.mark.parametrize("limit", [LOWEST_DIGIT_LIMIT, DEFAULT_DIGIT_LIMIT])
    @pytest.mark.parametrize("poly", ["x^{n}", "{n}x^2+1", "1,{n}"])
    @pytest.mark.parametrize("command", ["census", "witness", "galois"])
    def test_number_over_the_digit_limit_rejected(self, capsys, command, poly, limit):
        # int() would refuse it with Python's own message
        with digit_limit(limit):
            long_poly = poly.format(n="9" * (limit + 1))
            code, out, err = run_cli(
                capsys, "frobenius", command, long_poly, "--bound", "100"
            )
            assert (code, out) == (2, "")
            assert err == "error: cannot parse a number of more than %d digits\n" % limit
            # a number of exactly `limit` digits gets past the digit check
            at_limit = poly.format(n="9" * limit)
            code, out, err = run_cli(
                capsys, "frobenius", command, at_limit, "--bound", "100"
            )
            assert "digits" not in err

    def test_number_over_a_lifted_digit_limit_parsed(self):
        with digit_limit(0):
            poly = frobenius.parse_poly("1,%s" % ("9" * 5000))
            assert poly.coeffs[1] == 10**5000 - 1

    @pytest.fixture
    def no_sieve(self, monkeypatch):
        def sieve(bound):
            raise AssertionError("the sieve was built")

        monkeypatch.setattr(frobenius, "primes_upto", sieve)

    def test_galois_degree_one_refused_before_the_sieve(self, capsys, no_sieve):
        code, out, err = run_cli(
            capsys, "frobenius", "galois", "x+1", "--bound", "100000000"
        )
        assert (code, out) == (2, "")
        assert err == "error: degree must be at least 2\n"

    def test_odd_degree_witness_answers_before_the_sieve(self, capsys, no_sieve):
        code, out, err = run_cli(
            capsys, "frobenius", "witness", "x^3-2", "--bound", "100000000"
        )
        assert (code, err) == (1, "")
        assert "witnesses: not found (odd degree admits no all-even pattern)" in out

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("galois", "x+1", "--bound", str(2**31)), "bound %d must be below 2^31" % 2**31),
            (("galois", "2x+1"), "the polynomial must be monic (leading coefficient 1)"),
            (("witness", "x^3-3x+2"), "polynomial is not squarefree (discriminant 0)"),
        ],
        ids=["bound", "monic", "discriminant"],
    )
    def test_earlier_refusals_keep_their_precedence(self, capsys, no_sieve, argv, message):
        code, out, err = run_cli(capsys, "frobenius", *argv)
        assert (code, out) == (2, "")
        assert err == "error: %s\n" % message

    def test_galois(self, capsys):
        code, out, _ = run_cli(
            capsys, "frobenius", "galois", "x^4-x-1", "--bound", "2000"
        )
        assert code == 0
        assert "observed patterns: 1.1.1.1, 2.1.1, 2.2, 3.1, 4" in out
        assert "symmetric group S4 certified: yes" in out

    def test_galois_structured(self, capsys):
        code, report = structured(
            capsys, "frobenius", "galois", "x^4-x-1", "--bound", "2000"
        )
        assert code == 0
        assert report["result"] == {
            "degree": 4,
            "patterns": ["1.1.1.1", "2.1.1", "2.2", "3.1", "4"],
            "symmetric_group_certified": True,
        }


def subprocess_env():
    """The environment with this checkout's src first on PYTHONPATH."""
    src_dir = os.path.dirname(os.path.dirname(degenera.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src_dir] + [p for p in (env.get("PYTHONPATH"),) if p]
    )
    return env


def run_into_closed_pipe(*argv):
    """Run the console entry point with stdout a pipe whose read end is
    closed before the child starts, so its first write fails with EPIPE."""
    env = subprocess_env()
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-c", "from degenera.cli import run; run()", *argv],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=env,
            text=True,
            timeout=120,
        )
    finally:
        os.close(write_end)
    return proc.returncode, proc.stderr


class BrokenStdout(io.StringIO):
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


class TestClosedOutput:
    @pytest.mark.parametrize(
        "argv, status",
        [
            (("frobenius", "census", "x^4-x-1", "--bound", "1000", "--format", "structured"), 0),
            (("frobenius", "witness", "x^3-2", "--bound", "100"), 1),
            (("certify", "--family", "k5", "--format", "structured"), 0),
        ],
        ids=["census", "witness-not-found", "certify"],
    )
    def test_closed_pipe_keeps_status_without_traceback(self, argv, status):
        # no "Traceback", no "Exception ignored" line: nothing at all
        code, err = run_into_closed_pipe(*argv)
        assert code == status
        assert err == ""

    def test_write_failure_inside_main_keeps_status(self, monkeypatch):
        # a report longer than the stdout buffer fails inside print itself
        monkeypatch.setattr(sys, "stdout", BrokenStdout())
        assert main(["frobenius", "witness", "x^3-2", "--bound", "100"]) == 1
        assert main(["frobenius", "census", "x^2+1", "--bound", "100"]) == 0

    def test_memory_error_exits_2(self, capsys, monkeypatch):
        def exhausted(bound):
            raise MemoryError()

        monkeypatch.setattr(frobenius, "primes_upto", exhausted)
        code, out, err = run_cli(
            capsys, "frobenius", "census", "x^4-x-1", "--bound", "2000000000"
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error:")
        assert err.count("\n") == 1


class TestReportWriter:
    def test_file_label_with_escaped_characters(self, capsys, tmp_path, reports_written):
        path = tmp_path / 'gr\u00e4ph \u2603 "q" \\ \t\x01\x1f.graph'
        path.write_text(graph_text(complete_graph(5)))
        for argv in (["graph", "analyze", str(path)], ["certify", "--file", str(path)],
                     ["clutch", "roundtrip", "--file", str(path)]):
            code, report = structured(capsys, *argv)
            assert code == 0
            assert report["input"]["source"] == "file " + str(path)
        assert len(reports_written) == 3

    def test_census_frequencies_and_timing(self, capsys, reports_written):
        code, report = structured(
            capsys, "frobenius", "census", "x^4-x-1", "--bound", "300"
        )
        assert code == 0
        rows = report["result"]["patterns"]
        assert rows and all(isinstance(row["frequency"], float) for row in rows)
        assert isinstance(report["timing_ms"], float)
        assert len(reports_written) == 1

    def test_crafted_values(self):
        values = [
            None, True, False, 0, -7, 10**40, 0.1 + 0.2, -0.0, 1e-7, 1e22, 12.345,
            float("nan"), float("inf"), "", "\u00e9\x00\x1f\"\\/\u2603\U0001f600",
            [], {}, [[]], [{}], [[1, [2, []]], {"a": []}], (1, 2), [True, None, 1.5],
            {"b": {"d": None, "c": [1, 2]}, "a": [], "timing_ms": 3.25, "x": {}},
        ]
        for value in values:
            assert cli._json_text(value) == json.dumps(value, indent=2, sort_keys=True)
        with pytest.raises(TypeError):
            cli._json_text({"a": object()})


class TestEnumerationCap:
    def test_cap_env_blocks_large_groups(self, capsys, monkeypatch):
        monkeypatch.setenv("DEGENERA_CAP", "10")
        code, _, err = run_cli(capsys, "certify", "--family", "k5")
        assert code == 2
        assert "enumeration cap exceeded" in err

    def test_odd_branch_orbits_enumerate_nothing(self, capsys, monkeypatch, tmp_path):
        # |Stab(v0)| = 720 > 10, but both branch orbits at v0 have odd size
        path = tmp_path / "rigid.graph"
        path.write_text(
            graph_text(DartGraph(3, [(0, 1)] + [(0, 2)] * 3 + [(1, 2)] * 5))
        )
        monkeypatch.setenv("DEGENERA_CAP", "10")
        code, out, err = run_cli(capsys, "certify", str(path))
        assert code == 1
        assert err == ""
        assert "status: NOT_CERTIFIED" in out

    @pytest.mark.parametrize("command", [("certify",)], ids=["certify"])
    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_cap_env_must_be_positive(self, capsys, monkeypatch, command, value):
        monkeypatch.setenv("DEGENERA_CAP", value)
        code, out, err = run_cli(capsys, *command, "--family", "k5")
        assert code == 2
        assert out == ""
        assert err == "error: DEGENERA_CAP must be a positive integer\n"

    def test_cap_env_must_be_integer(self, capsys, monkeypatch):
        monkeypatch.setenv("DEGENERA_CAP", "plenty")
        code, _, err = run_cli(capsys, "certify", "--family", "k5")
        assert code == 2
        assert "DEGENERA_CAP" in err

    def test_cap_env_is_checked_before_the_graph_loads(self, capsys, monkeypatch):
        monkeypatch.setenv("DEGENERA_CAP", "plenty")
        code, out, err = run_cli(capsys, "certify", "no-such-file.graph")
        assert (code, out) == (2, "")
        assert err == "error: DEGENERA_CAP must be a positive integer\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["graph", "analyze", "--family", "k5"],
            ["clutch", "roundtrip", "--family", "theta-loops"],
            ["frobenius", "census", "x^2+1", "--bound", "50"],
        ],
        ids=" ".join,
    )
    def test_only_certify_reads_the_cap(self, capsys, monkeypatch, argv):
        def report(*env):
            monkeypatch.delenv("DEGENERA_CAP", raising=False)
            if env:
                monkeypatch.setenv("DEGENERA_CAP", *env)
            code, out = structured(capsys, *argv)
            del out["timing_ms"]
            return code, out

        assert report("abc") == report("0") == report()

    def test_generous_cap_is_harmless(self, capsys, monkeypatch):
        monkeypatch.setenv("DEGENERA_CAP", "100000")
        assert run_cli(capsys, "certify", "--family", "k5")[0] == 0

    def test_cap_bounds_the_image_on_the_branch_orbit(self, capsys, monkeypatch):
        # |G2| = 2^20 on the double cycle of genus 20, but G2 acts on the
        # four darts at the base vertex as a group of order 8
        monkeypatch.setenv("DEGENERA_CAP", "8")
        code, out, err = run_cli(capsys, "certify", "--family", "double-cycle", "--genus", "20")
        assert (code, err) == (0, "")
        assert "|Stab| = 1048576" in out
        monkeypatch.setenv("DEGENERA_CAP", "7")
        code, out, err = run_cli(capsys, "certify", "--family", "double-cycle", "--genus", "20")
        assert code == 2 and out == ""
        assert "has 8 elements > cap 7" in err

    def test_k11_exceeds_the_cap_before_enumerating(self, capsys, monkeypatch, tmp_path):
        # S10 acts on the ten darts at a vertex of K11: 3628800 > 10^6
        from degenera import perms

        def walk(start, step):
            raise AssertionError("the image was walked")

        monkeypatch.setattr(perms, "_walk_tree", walk)
        path = tmp_path / "k11.graph"
        path.write_text(graph_text(complete_graph(11)))
        code, out, err = run_cli(capsys, "certify", str(path))
        assert code == 2 and out == ""
        assert err.startswith("error: enumeration cap exceeded")
        assert "3628800 elements > cap 1000000" in err
        assert err.count("\n") == 1


class TestScale:
    def test_analyze_double_cycle_160_within_a_second(self, capsys):
        started = time.perf_counter()
        code, report = structured(
            capsys, "graph", "analyze", "--family", "double-cycle", "--genus", "160"
        )
        elapsed = time.perf_counter() - started
        assert code == 0
        assert report["result"]["aut_order"] == 2 * 159 * 2**159
        assert report["result"]["admissible"] is True
        assert elapsed < 1.0

    def test_no_kernel_perm_away_from_the_base_vertex(self, capsys, monkeypatch):
        # certify, roundtrip and analyze on the double cycle of genus 1000
        # build no dart permutation for a swap or flip of a class away from
        # base vertex 0: every one they build moves a dart there
        from degenera.perms import Perm

        g = doubled_cycle(1000)
        at_base = set(g.darts_at(0))
        built = []
        init, unchecked = Perm.__init__, Perm._unchecked.__func__

        def counting_init(self, images):
            init(self, images)
            built.append(self.images)

        def counting_unchecked(cls, images):
            built.append(images)
            return unchecked(cls, images)

        monkeypatch.setattr(Perm, "__init__", counting_init)
        monkeypatch.setattr(Perm, "_unchecked", classmethod(counting_unchecked))
        source = ("--family", "double-cycle", "--genus", "1000")
        for argv in (["certify"], ["clutch", "roundtrip"], ["graph", "analyze"]):
            assert run_cli(capsys, *argv, *source)[0] == 0
        darts = [p for p in built if len(p) == g.dart_count]
        assert 0 < len(darts) < 50
        for images in darts:
            moved = {d for d, x in enumerate(images) if d != x}
            assert not moved or moved & at_base

    @pytest.mark.parametrize(
        "graph",
        [
            DartGraph(2, [(0, 1)] * 160),
            complete_bipartite(4, 80),
            DartGraph(1, [(0, 0)] * 200),
        ],
        ids=["banana-160", "k4-80", "bouquet-200"],
    )
    def test_refused_within_two_seconds(self, capsys, tmp_path, graph):
        # |H| is read as |G2| over the automorphisms fixing the branch
        # orbit; its order from a chain on the orbit took 10 s to over 120 s
        path = tmp_path / "big.graph"
        path.write_text(graph_text(graph))
        started = time.perf_counter()
        code, out, err = run_cli(capsys, "certify", str(path))
        assert time.perf_counter() - started < 2.0
        assert (code, out) == (2, "")
        assert err.startswith("error: enumeration cap exceeded")

    def test_genus_4096_within_seconds(self, capsys):
        # with every kernel generator explicit these took 12-27 s and 540 MiB each
        source = ("--family", "double-cycle", "--genus", "4096")
        for argv in (["certify"], ["graph", "analyze"], ["clutch", "roundtrip"]):
            started = time.perf_counter()
            assert run_cli(capsys, *argv, *source)[0] == 0
            assert time.perf_counter() - started < 5.0

    def test_python_m_degenera(self):
        env = subprocess_env()
        done = subprocess.run(
            [sys.executable, "-m", "degenera", "certify", "--family", "k5"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert done.returncode == 0 and done.stderr == ""
        assert "status: CERTIFIED_NONSPLIT" in done.stdout
        done = subprocess.run(
            [sys.executable, "-m", "degenera", "--version"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert done.returncode == 0
        assert done.stdout == "degenera %s\n" % degenera.__version__


class TestOrdersOverTheDigitLimit:
    """The double cycle on n = 14,400 vertices has |Aut| = 2n * 2^n, which
    has more decimal digits than Python converts by default.  Each command
    prints every order in full while the limit stays in force, at the
    default and at the lowest limit Python accepts."""

    N = 14400

    @pytest.fixture(autouse=True, params=[LOWEST_DIGIT_LIMIT, DEFAULT_DIGIT_LIMIT])
    def limit(self, request):
        with digit_limit(request.param):
            yield request.param

    @pytest.fixture(scope="class")
    def huge(self, tmp_path_factory):
        """The graph file, and the decimal digits of |Aut|, |G2|, |G3| and
        |G4| at vertex 0, converted under a lifted and restored limit."""
        n = self.N
        path = tmp_path_factory.mktemp("huge") / "double-cycle.graph"
        path.write_text(graph_text(doubled_cycle(n + 1)))
        with digit_limit(0):
            orders = [str(k) for k in (2 * n << n, 2 << n, 1 << (n - 1), 1 << n)]
        assert len(orders[0]) > DEFAULT_DIGIT_LIMIT
        return str(path), orders

    @pytest.mark.parametrize(
        "argv", [("graph", "analyze"), ("certify",), ("clutch", "roundtrip")]
    )
    def test_text(self, capsys, huge, argv):
        path, (g1, g2, g3, g4) = huge
        code, out, err = run_cli(capsys, *argv, path)
        assert (code, err) == (0, "")
        lines = out.splitlines()
        if argv == ("clutch", "roundtrip"):
            assert (
                "edge orbit 0 (28800 edges): tower %s/%s/%s/%s, n=14400 m=4 -> "
                "14400 vertices 28800 edges, isomorphic: yes" % (g1, g2, g3, g4)
            ) in lines
            return
        assert "|Aut| = %s" % g1 in lines
        if argv == ("certify",):
            assert "base vertex 0: |Stab| = %s, vertex orbit size 14400" % g2 in lines
            assert (
                "orbit (edge orbit 0, base edge 0): cosets 4, |G3| = %s, |G4| = %s"
                % (g3, g4)
            ) in lines

    def test_refusal(self, capsys, tmp_path):
        # G2 acts on the 3000 darts of a bouquet of 1500 loops as a group of
        # 2^1500 * 1500! elements, which has 4567 digits
        path = tmp_path / "bouquet.graph"
        path.write_text(graph_text(DartGraph(1, [(0, 0)] * 1500)))
        with digit_limit(0):
            size = str(math.factorial(1500) << 1500)
        assert len(size) > DEFAULT_DIGIT_LIMIT
        code, out, err = run_cli(capsys, "certify", str(path))
        assert (code, out) == (2, "")
        assert err == (
            "error: enumeration cap exceeded: the image on an orbit of 3000 points "
            "has %s elements > cap 1000000\n" % size
        )

    @pytest.mark.parametrize(
        "argv", [("graph", "analyze"), ("certify",), ("clutch", "roundtrip")]
    )
    def test_structured(self, capsys, huge, argv, reports_written):
        path, (g1, g2, g3, g4) = huge
        code, out, err = run_cli(capsys, *argv, path, "--format", "structured")
        assert (code, err) == (0, "")
        assert len(reports_written) == 1
        result = json.loads(out, parse_int=str)["result"]
        if argv == ("graph", "analyze"):
            assert result["aut_order"] == g1
        elif argv == ("certify",):
            assert result["aut_order"] == g1
            assert result["vertex_stabilizer_order"] == g2
            (orbit,) = result["orbits"]
            assert (orbit["g3_order"], orbit["g4_order"]) == (g3, g4)
        else:
            (orbit,) = result["orbits"]
            tower = orbit["tower"]
            assert [tower[k] for k in ("g1", "g2", "g3", "g4")] == [g1, g2, g3, g4]


def raise_runtime_error():
    raise RuntimeError("boom")


def raise_memory_error():
    raise MemoryError()


def kill_self():
    os.kill(os.getpid(), signal.SIGKILL)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestShardedPrimeLoop:
    """census and galois fork one child per CPU in the affinity mask after
    the first; two CPUs are set here, so the children exist on any machine."""

    @pytest.fixture(autouse=True)
    def two_cpus(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)

    @pytest.mark.parametrize("command", ["census", "galois"])
    @pytest.mark.parametrize(
        "failure, message",
        [
            (raise_runtime_error, "worker process failed (exit status 1)"),
            (raise_memory_error, "worker process failed (exit status 1)"),
            (kill_self, "worker process killed by signal 9"),
        ],
        ids=["exception", "memory-error", "killed"],
    )
    def test_child_failure_exits_2(self, capsys, monkeypatch, command, failure, message):
        parent = os.getpid()
        real = frobenius._pattern_of_squarefree

        def failing_in_children(fbar, p, mu, roots, sign):
            if os.getpid() != parent:
                failure()
            return real(fbar, p, mu, roots, sign)

        monkeypatch.setattr(frobenius, "_pattern_of_squarefree", failing_in_children)
        code, out, err = run_cli(
            capsys, "frobenius", command, "x^4-x-1", "--bound", "1000"
        )
        assert (code, out, err) == (2, "", "error: %s\n" % message)
        assert_no_child_left()

    def test_fork_failure_exits_2(self, capsys, monkeypatch):
        real_pipe = os.pipe
        pipes = []

        def recording_pipe():
            pipes.append(real_pipe())
            return pipes[-1]

        def no_fork():
            raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))

        monkeypatch.setattr(os, "pipe", recording_pipe)
        monkeypatch.setattr(os, "fork", no_fork)
        code, out, err = run_cli(
            capsys, "frobenius", "census", "x^4-x-1", "--bound", "1000"
        )
        assert (code, out) == (2, "")
        assert err == "error: cannot start a worker process: %s\n" % os.strerror(
            errno.EAGAIN
        )
        assert len(pipes) == 1
        for fd in pipes[0]:
            with pytest.raises(OSError):
                os.fstat(fd)

    def test_failure_here_kills_and_reaps_children(self, capsys, monkeypatch):
        # a child that would run for a minute is killed, not waited for
        parent = os.getpid()

        def slow_children(fbar, p, mu, roots, sign):
            if os.getpid() != parent:
                time.sleep(60)
            raise MemoryError()

        monkeypatch.setattr(frobenius, "_pattern_of_squarefree", slow_children)
        began = time.monotonic()
        code, out, err = run_cli(
            capsys, "frobenius", "census", "x^4-x-1", "--bound", "1000"
        )
        assert (code, out) == (2, "")
        assert err == "error: out of memory; try a smaller input\n"
        assert time.monotonic() - began < 30
        assert_no_child_left()

    def test_report_printed_once(self):
        # a line is left in the stdout buffer before the fork (stdout to a
        # pipe is block-buffered without PYTHONUNBUFFERED); a child that
        # flushed it, or returned into the CLI, would print it again
        env = subprocess_env()
        env.pop("PYTHONUNBUFFERED", None)
        script = (
            "import os, sys; os.sched_getaffinity = lambda pid: {0, 1}; "
            "sys.stdout.write('written before the fork\\n'); "
            "from degenera.cli import run; run()"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script, "frobenius", "census", "x^4-x-1",
             "--bound", "10000"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
            text=True,
            timeout=120,
        )
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout.count("written before the fork") == 1
        assert proc.stdout.count("degenera frobenius census") == 1
        assert proc.stdout.count("all-even fraction") == 1
