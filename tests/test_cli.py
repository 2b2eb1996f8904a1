import errno
import io
import json
import os
import signal
import subprocess
import sys
import time

import pytest

import degenera
from degenera import frobenius
from degenera.cli import main
from degenera.certify import roundtrip_report
from degenera.graphs import (
    DartGraph,
    automorphism_group,
    check_dart_isomorphism,
    circulant_graph,
    complete_bipartite,
    complete_graph,
    doubled_cycle,
    theta_loops,
)


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

    def test_generator_count(self, capsys, tmp_path):
        g = complete_bipartite(4, 4)
        path = tmp_path / "k44.graph"
        path.write_text(g.to_text())
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

    def test_witnesses_pass_dart_check(self, capsys, tmp_path):
        # witnesses are checked for validity, not pinned: they follow the
        # vertex numbering of the rebuilt graph, hence the generators
        graphs = [circulant_graph(g) for g in range(7, 13)]
        graphs += [complete_graph(5), theta_loops(), complete_bipartite(4, 4)]
        graphs += [doubled_cycle(g) for g in range(4, 11)]
        path = tmp_path / "g.graph"
        for g in graphs:
            path.write_text(g.to_text())
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
        for base in ("7", "-1"):
            code, out, err = run_cli(
                capsys, "clutch", "roundtrip", "--family", "k5", "--base-vertex", base
            )
            assert code == 2
            assert out == ""
            assert err == "error: base vertex %s out of range\n" % base

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

        def walk(generators):
            raise AssertionError("the image was walked")

        monkeypatch.setattr(perms, "_image_walk", walk)
        path = tmp_path / "k11.graph"
        path.write_text(complete_graph(11).to_text())
        code, out, err = run_cli(capsys, "certify", str(path))
        assert code == 2 and out == ""
        assert err.startswith("error: enumeration cap exceeded")
        assert "3628800 elements > cap 1000000" in err
        assert err.count("\n") == 1


class TestScale:
    def test_analyze_double_cycle_160_within_a_second(self, capsys):
        automorphism_group.cache_clear()
        started = time.perf_counter()
        code, report = structured(
            capsys, "graph", "analyze", "--family", "double-cycle", "--genus", "160"
        )
        elapsed = time.perf_counter() - started
        assert code == 0
        assert report["result"]["aut_order"] == 2 * 159 * 2**159
        assert report["result"]["admissible"] is True
        assert elapsed < 1.0

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

        def failing_in_children(fbar, p):
            if os.getpid() != parent:
                failure()
            return real(fbar, p)

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

        def slow_children(fbar, p):
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
