"""One pass over a workload, in a fresh process, reported as JSON lines.

Usage: python3 bench/worker.py WORKLOAD SEED WORKDIR MODE

MODE is "setup" (set up, then exit), "run" (a timed pass), "verify" (a
timed pass that also re-verifies every certificate) or "trace" (a timed
pass with spans recorded, written to WORKDIR/spans.json).

The controller (run.py) starts one worker per pass and reads its events:
  {"event": "setup", "setup_s": ...}       import of degenera plus input files
  {"event": "start", "op": id}             before each operation
  {"event": "done", "op": id, ...}         after it: wall time and checks
  {"event": "end", "peak_rss_mb": ...}     after the last operation
A pass that stops before "end" was killed or crashed; the last "start"
names the operation that was running.

Every operation is one in-process call of `degenera.cli.main` with
`--format structured`, timed around that call alone.  Caches kept by the
package's module-level functions are cleared before each call, so every
call starts as cold as a separate `degenera` command would.  Checking the
output, and re-verifying certificates in "verify" mode, happen after the
timed call and with tracing off.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time

import checks
import workloads

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")


def emit(**event):
    sys.stdout.write(json.dumps(event) + "\n")
    sys.stdout.flush()


def package_caches():
    """cache_clear of every functools cache at module level in the package."""
    caches = {
        id(value): value.cache_clear
        for name, module in list(sys.modules.items())
        if name == "degenera" or name.startswith("degenera.")
        for value in vars(module).values()
        if callable(getattr(value, "cache_clear", None))
    }
    return list(caches.values())


def run_ops(ops, mode, expected):
    """Time each operation; check its output with tracing off."""
    import degenera.cli

    clear_caches = package_caches()
    tracer = None
    if mode == "trace":
        import tracing

        tracer = tracing.Tracer()
        for name in tracer.install():
            print("trace: %s not found, its metrics read 0" % name, file=sys.stderr)
    for op in ops:
        for clear in clear_caches:
            clear()
        if tracer is not None:
            tracer.reset_operation()
        emit(event="start", op=op.id)
        out, err = io.StringIO(), io.StringIO()
        failures = []
        began = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = degenera.cli.main(list(op.argv) + ["--format", "structured"])
        except Exception as exc:  # a traceback is a failed operation, not a crash
            failures.append("raised %s: %s" % (type(exc).__name__, exc))
        wall_s = time.perf_counter() - began
        certs = []
        if tracer is not None:
            tracer.enabled = False
        if not failures:
            failures, certs = checks.check(op, code, out.getvalue(), expected)
        if mode == "verify" and not failures:
            failures += checks.verify_certificates(op, certs)
        if failures and err.getvalue():
            failures.append("stderr: %s" % err.getvalue().strip()[-200:])
        if tracer is not None:
            tracer.enabled = True
        emit(
            event="done",
            op=op.id,
            kind=op.kind,
            wall_s=wall_s,
            failures=failures,
            certificates=[cert["element"] for _, cert in certs],
        )
    return tracer


def main(argv):
    workload, seed, workdir, mode = argv
    if mode not in ("setup", "run", "verify", "trace"):
        raise SystemExit("unknown mode %r" % mode)
    expected = checks.load_expected()[workload]
    started = time.perf_counter()
    sys.path.insert(0, SRC)
    import degenera.cli

    ops = workloads.build(workload, int(seed), workdir)
    setup_s = time.perf_counter() - started
    package_dir = os.path.dirname(os.path.abspath(degenera.cli.__file__))
    if os.path.dirname(package_dir) != SRC:
        raise SystemExit("degenera was not imported from %s" % SRC)
    emit(event="setup", setup_s=setup_s)

    tracer = run_ops(ops, mode, expected) if mode != "setup" else None
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        with open(os.path.join(workdir, "spans.json"), "w") as handle:
            json.dump(tracer.dump(), handle)
    emit(event="end", peak_rss_mb=peak_rss_mb)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
