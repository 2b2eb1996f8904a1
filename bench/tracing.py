"""Span recording around degenera's public entry points, from outside the package.

Only a traced worker installs these wrappers.  Each wrapped name is patched
where the caller looks it up (a module global or a class attribute), so the
package itself is untouched.  Spans stay in memory as
[name, start, end, parent index] and are written out when the pass ends;
`summarize` turns them into self times (span time minus child spans) and
the counters listed in BENCHMARK.json.  A name the program no longer has
is skipped, and its metrics read 0.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter, defaultdict

# (module, class or None, attribute, span name).  automorphism_group and
# is_admissible are looked up under their own names in several modules.
SPANS = (
    ("degenera.cli", None, "main", "cli"),
    ("degenera.cli", None, "automorphism_group", "graphs.automorphism_group"),
    ("degenera.certify", None, "automorphism_group", "graphs.automorphism_group"),
    ("degenera.graphs", None, "automorphism_group", "graphs.automorphism_group"),
    ("degenera.cli", None, "is_admissible", "graphs.is_admissible"),
    ("degenera.graphs", None, "is_admissible", "graphs.is_admissible"),
    ("degenera.graphs", None, "find_isomorphism", "graphs.find_isomorphism"),
    ("degenera.perms", "PermGroup", "order", "perms.order"),
    ("degenera.perms", "PermGroup", "pointwise_stabilizer",
     "perms.pointwise_stabilizer"),
    ("degenera.perms", "PermGroup", "setwise_stabilizer", "perms.setwise_stabilizer"),
    ("degenera.perms", "CosetAction", "__init__", "perms.coset_action"),
    ("degenera.certify", None, "even_orbit_search", "perms.even_orbit_search"),
    ("degenera.cli", None, "certify_nonsplit", "certify.certify_nonsplit"),
    ("degenera.certify", None, "stabilizer_tower", "certify.stabilizer_tower"),
    ("degenera.certify", None, "gamma_dagger", "certify.gamma_dagger"),
    ("degenera.cli", None, "roundtrip_report", "certify.roundtrip_report"),
    ("degenera.frobenius", None, "primes_upto", "frobenius.primes_upto"),
    ("degenera.frobenius", None, "discriminant", "frobenius.discriminant"),
    ("degenera.cli", None, "census", "frobenius.census"),
    ("degenera.frobenius", None, "degree_pattern", "frobenius.degree_pattern"),
)

# Span name -> self-time metric.  The census span is split by degree below.
SELF_TIME_METRICS = {name: name + "_s" for *_, name in SPANS}
SELF_TIME_METRICS["cli"] = "cli.self_s"
del SELF_TIME_METRICS["frobenius.census"]
CENSUS_DEGREES = (4, 8, 12)

COUNT_METRICS = (
    "graphs.generators",
    "perms.elements_enumerated",
    "perms.cosets_built",
    "perms.coset_index_calls",
    "perms.search_candidates",
    "frobenius.primes_processed",
)


class Tracer:
    """In-memory span list with parent links, plus work counters."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = Counter()
        self.certificates_found = 0
        self.enabled = True
        self._search_depth = 0
        self._seen_groups = {}

    def reset_operation(self):
        """Forget per-operation state; graph groups are counted once per call."""
        self._seen_groups = {}

    def _span(self, name, fn, after=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            label = name(args) if callable(name) else name
            index = len(tracer.spans)
            parent = tracer.stack[-1] if tracer.stack else -1
            record = [label, time.perf_counter(), None, parent]
            tracer.spans.append(record)
            tracer.stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                tracer.stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    def _counter(self, fn, after):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            if tracer.enabled:
                after(args, result)
            return result

        return counted

    # post-call hooks that feed the counters

    def _count_generators(self, args, aut):
        # The cache hands back the same object on repeat lookups in a call.
        if id(aut) not in self._seen_groups:
            self._seen_groups[id(aut)] = aut
            self.counts["graphs.generators"] += len(aut.group.generators)

    def _count_elements(self, args, elements):
        if isinstance(elements, (list, tuple)):
            self.counts["perms.elements_enumerated"] += len(elements)

    def _count_cosets(self, args, _):
        self.counts["perms.cosets_built"] += args[0].coset_count

    def _count_index_call(self, args, _):
        self.counts["perms.coset_index_calls"] += 1

    def _count_candidate(self, args, _):
        if self._search_depth:
            self.counts["perms.search_candidates"] += 1

    def _count_census(self, args, result):
        self.counts["frobenius.primes_processed"] += result.prime_count

    def _count_pattern(self, args, _):
        self.counts["frobenius.primes_processed"] += 1

    def _search(self, fn):
        inner = self._span("perms.even_orbit_search", fn)
        tracer = self

        @functools.wraps(fn)
        def search(*args, **kwargs):
            tracer._search_depth += 1
            try:
                cert = inner(*args, **kwargs)
            finally:
                tracer._search_depth -= 1
            if tracer.enabled and cert is not None:
                tracer.certificates_found += 1
            return cert

        return search

    def install(self):
        """Patch every listed name that exists; returns the names skipped."""
        after = {
            "graphs.automorphism_group": self._count_generators,
            "perms.coset_action": self._count_cosets,
            "frobenius.census": self._count_census,
            "frobenius.degree_pattern": self._count_pattern,
        }
        skipped = []
        for module_name, class_name, attr, name in SPANS:
            owner = importlib.import_module(module_name)
            if class_name is not None:
                owner = getattr(owner, class_name, None)
            fn = getattr(owner, attr, None) if owner is not None else None
            if fn is None:
                skipped.append("%s.%s" % (class_name or module_name, attr))
                continue
            if name == "perms.even_orbit_search":
                wrapped = self._search(fn)
            elif name == "frobenius.census":
                wrapped = self._span(_census_label, fn, after[name])
            else:
                wrapped = self._span(name, fn, after.get(name))
            setattr(owner, attr, wrapped)
        perms = importlib.import_module("degenera.perms")
        for class_name, attr, hook in (
            ("PermGroup", "elements", self._count_elements),
            ("CosetAction", "coset_index", self._count_index_call),
            ("CosetAction", "cyclic_orbit_sizes", self._count_candidate),
        ):
            owner = getattr(perms, class_name, None)
            fn = getattr(owner, attr, None) if owner is not None else None
            if fn is None:
                skipped.append("%s.%s" % (class_name, attr))
                continue
            setattr(owner, attr, self._counter(fn, hook))
        return skipped

    def dump(self):
        return {
            "spans": self.spans,
            "counts": dict(self.counts),
            "certificates_found": self.certificates_found,
        }


def _census_label(args):
    return "frobenius.census_deg%d" % args[0].degree


def self_times(spans):
    """Summed self time per span name: duration minus direct children."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals = defaultdict(float)
    for (name, start, end, _), children in zip(spans, child_time):
        totals[name] += (end - start) - children
    return totals


def summarize(dump):
    """Per-layer metrics of one traced pass (times in s, counts exact)."""
    totals = self_times(dump["spans"])
    metrics = {metric: totals[name] for name, metric in SELF_TIME_METRICS.items()}
    for degree in CENSUS_DEGREES:
        name = "frobenius.census_deg%d" % degree
        metrics[name + "_s"] = totals[name]
    counts = dump["counts"]
    for metric in COUNT_METRICS:
        metrics[metric] = counts.get(metric, 0)
    candidates = metrics["perms.search_candidates"]
    metrics["perms.search_yield"] = (
        dump["certificates_found"] / candidates if candidates else 0.0
    )
    return metrics
