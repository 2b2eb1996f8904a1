"""Structured output pinned by hash across a fixed list of commands.

Each command runs through `cli.main` with `--format structured`.  Its exit
code, its stderr and its report, less the `timing_ms` line, are hashed
together, and the hash must equal the one recorded in golden.json.  Input
files live in a temporary directory, whose path is replaced by `<tmp>`
before hashing.  To record the hashes afresh, on a tree whose output is
known to be right:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import hashlib
import io
import json
import pathlib
import re
import sys
import tempfile

from degenera.cli import main

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden.json"

FAMILIES = (
    [("circulant", g) for g in range(7, 13)]
    + [("k5", None)]
    + [("double-cycle", g) for g in range(4, 13)]
    + [("theta-loops", None)]
)

# graph files: name -> (vertex count, edges)
FILES = {
    "k4-4": (8, [(i, 4 + j) for i in range(4) for j in range(4)]),
    # no automorphism moves a vertex; the branch orbits have odd sizes
    "rigid": (3, [(0, 1)] + [(0, 2)] * 3 + [(1, 2)] * 5),
    # all degrees 4, but only the loop-free middle vertex is fixed
    "loop-ends": (3, [(0, 1)] * 2 + [(1, 2)] * 2 + [(0, 0), (2, 2)]),
    # degrees 4 and 3: admissibility pins vertices 0..4, and swapping 5 and 6
    # still fixes the darts at vertex 0
    "mixed": (
        9,
        [(0, 1), (0, 2), (0, 3), (0, 4), (1, 5), (1, 6), (2, 5), (2, 6), (5, 6)]
        + [(3, 7), (3, 8), (4, 7), (4, 8), (7, 8)],
    ),
    # degrees 4 and 3, admissible: the darts at the degree-4 side reach every vertex
    "k3-4": (7, [(i, 3 + j) for i in range(3) for j in range(4)]),
    # one branch orbit of 10 darts: |H| = 2^5 * 5! = 3840, while 10! exceeds the cap
    "bouquet-5": (1, [(0, 0)] * 5),
    # S10 on the ten darts at a vertex: 10! exceeds the cap, and certify refuses
    "k11": (11, [(i, j) for i in range(11) for j in range(i + 1, 11)]),
}

GRAPH_COMMANDS = (("graph", "analyze"), ("certify",), ("clutch", "roundtrip"))


def commands():
    """The argv of every pinned command, `<tmp>` standing for the input directory."""
    out = []
    for name, genus in FAMILIES:
        source = ["--family", name] + ([] if genus is None else ["--genus", str(genus)])
        out += [list(words) + source for words in GRAPH_COMMANDS]
    for name in ("k4-4", "rigid", "loop-ends"):
        path = "<tmp>/%s.graph" % name
        out += [list(words) + [path] for words in GRAPH_COMMANDS]
    for name in ("mixed", "k3-4"):
        out += [list(words) + ["<tmp>/%s.graph" % name] for words in GRAPH_COMMANDS[:2]]
    out += [["certify", "<tmp>/%s.graph" % name] for name in ("bouquet-5", "k11")]
    for name in ("rigid", "loop-ends"):
        for base in range(3):
            out.append(["certify", "<tmp>/%s.graph" % name, "--base-vertex", str(base)])
    out += [
        ["frobenius", "census", "x^12-x-1", "--bound", "3000"],
        ["frobenius", "census", "x^4-x-1", "--bound", "2000"],
        ["frobenius", "census", "x-3", "--bound", "60"],
        ["frobenius", "census", "3x^4-x-1", "--bound", "500"],
        ["frobenius", "census", "-2x^3+5x+1", "--bound", "500"],
        ["frobenius", "census", "x^4-2x^2+1", "--bound", "100"],
        ["frobenius", "witness", "x^4-x-1", "--bound", "5000"],
        ["frobenius", "witness", "x^4+1", "--bound", "100"],
        ["frobenius", "witness", "x^3-x-1", "--bound", "100"],
        ["frobenius", "galois", "x^5-x-1", "--bound", "1000"],
        ["frobenius", "galois", "x^8-x-1", "--bound", "2000"],
        ["frobenius", "galois", "x^2+1", "--bound", "100"],
        ["frobenius", "galois", "x+1", "--bound", "100"],
    ]
    return out


_TIMING = re.compile(r'^  "timing_ms": [^\n]*\n', re.M)


def run(argv, tmp):
    """(exit code, stderr, report without its timing line) of one command."""
    args = [a.replace("<tmp>", tmp) for a in argv] + ["--format", "structured"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(args)
    err = err.getvalue().replace(tmp, "<tmp>")
    return code, err, _TIMING.sub("", out.getvalue().replace(tmp, "<tmp>"))


def digest(result):
    return hashlib.sha256(repr(result).encode()).hexdigest()


def write_files(tmp):
    for name, (n, edges) in FILES.items():
        text = "vertices %d\n" % n + "".join("edge %d %d\n" % e for e in edges)
        pathlib.Path(tmp, name + ".graph").write_text(text)


def test_structured_output_matches_golden(tmp_path):
    tmp = str(tmp_path)
    write_files(tmp)
    want = json.loads(GOLDEN.read_text())
    argvs = {" ".join(argv): argv for argv in commands()}
    assert sorted(argvs) == sorted(want), "golden.json lists other commands"
    changed = [
        name for name, argv in argvs.items() if digest(run(argv, tmp)) != want[name]
    ]
    assert not changed, "output changed: " + "; ".join(changed)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        write_files(tmp)
        hashes = {" ".join(argv): digest(run(argv, tmp)) for argv in commands()}
    GOLDEN.write_text(json.dumps(hashes, indent=2) + "\n")
    print("wrote %d hashes to %s" % (len(hashes), GOLDEN), file=sys.stderr)
