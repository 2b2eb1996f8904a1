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
}

GRAPH_COMMANDS = (("graph", "analyze"), ("certify",), ("clutch", "roundtrip"))


def commands():
    """The argv of every pinned command, `<tmp>` standing for the input directory."""
    out = []
    for name, genus in FAMILIES:
        source = ["--family", name] + ([] if genus is None else ["--genus", str(genus)])
        out += [list(words) + source for words in GRAPH_COMMANDS]
    for name in FILES:
        path = "<tmp>/%s.graph" % name
        out += [list(words) + [path] for words in GRAPH_COMMANDS]
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
