import json

import pytest

from degenera.cli import main
from degenera.graphs import DartGraph, complete_graph, complete_bipartite


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
        path.write_text(complete_graph(5).to_text())
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
        path.write_text(complete_graph(4).to_text())
        code, out, _ = run_cli(capsys, "certify", str(path))
        assert code == 1
        assert "status: SPLITS_TRIVIALLY" in out

    def test_not_certified_exits_one(self, capsys, tmp_path):
        path = tmp_path / "k34.graph"
        path.write_text(complete_bipartite(3, 4).to_text())
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

    def test_non_transitive_rejected(self, capsys, tmp_path):
        path = tmp_path / "k34.graph"
        path.write_text(complete_bipartite(3, 4).to_text())
        code, _, err = run_cli(capsys, "clutch", "roundtrip", str(path))
        assert code == 2
        assert err.startswith("error:")


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

    def test_census_without_unramified_prime_rejected(self, capsys):
        # 2 is the only prime up to 2, and it divides disc(x^2+1) = -4
        code, out, err = run_cli(capsys, "frobenius", "census", "x^2+1", "--bound", "2")
        assert code == 2
        assert out == ""
        assert err == "error: no unramified prime up to 2\n"

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
            DartGraph(3, [(0, 1)] + [(0, 2)] * 3 + [(1, 2)] * 5).to_text()
        )
        monkeypatch.setenv("DEGENERA_CAP", "10")
        code, out, err = run_cli(capsys, "certify", str(path))
        assert code == 1
        assert err == ""
        assert "status: NOT_CERTIFIED" in out

    @pytest.mark.parametrize(
        "command", [("certify",), ("clutch", "roundtrip")], ids=["certify", "roundtrip"]
    )
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

    def test_generous_cap_is_harmless(self, capsys, monkeypatch):
        monkeypatch.setenv("DEGENERA_CAP", "100000")
        assert run_cli(capsys, "certify", "--family", "k5")[0] == 0
