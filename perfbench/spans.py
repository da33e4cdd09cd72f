"""Outside-in tracing: spans around mslab's public functions.

The program is not changed. :func:`install` replaces each traced
function at every module attribute that holds it (``validate_matrix``,
for one, is bound by name in ``spaces``, ``hyperspace``, ``io``,
``experiments`` and the package itself), so every call path is seen.

A span is ``[name, start, end, parent]``; spans stay in memory until
the run ends. Counts are taken from each call's arguments and result
after its span closes; that small cost lands in the caller's self time.
"""

from __future__ import annotations

import functools
import sys
import time


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}

    def add(self, key: str, amount: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def wrap(self, name: str, fn, counter=None):
        spans = self.spans
        stack = self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if counter is not None:
                counter(self, args, kwargs, result)
            return result

        return traced


def _write_bytes(tr, args, kwargs, result):
    text = args[1] if len(args) > 1 else kwargs["text"]
    tr.add("io.write.bytes", len(text.encode("utf-8")))


def _distortion_pairs(tr, args, kwargs, result):
    k = len(args[0].pairs)
    tr.add("correspondence.distortion.pairs", k * (k - 1) // 2)


def _validate_triples(tr, args, kwargs, result):
    n = result.n
    tr.add("spaces.validate_matrix.triples", n * (n - 1) // 2 * max(n - 2, 0))


def _build_entries(tr, args, kwargs, result):
    c = len(result.members)
    tr.add("hyperspace.build.entries", c * (c - 1) // 2)


def _gh_counts(tr, args, kwargs, result):
    x, y = args[0], args[1]
    tr.add("gh.nodes", result.nodes_explored)
    tr.add("gh.budget_exceeded", int(result.status == "budget_exceeded"))
    tr.add("gh.exact", int(result.status == "exact"))
    tr.add("gh.rank_cells", x.n * x.n * y.n * y.n)
    xv = {v for row in x.d for v in row}
    yv = {v for row in y.d for v in row}
    tr.add("gh.candidates", len({abs(a - b) for a in xv for b in yv}))


def _sweep_pairs(tr, args, kwargs, result):
    tr.add("experiments.pairs", len(result.rows))


# (defining module, function, span name, counter)
TARGETS = (
    ("mslab.io", "load_space", "io.load_space", None),
    ("mslab.io", "dumps", "io.dumps", None),
    ("mslab.io", "atomic_write_text", "io.write", _write_bytes),
    ("mslab.correspondence", "distortion", "correspondence.distortion",
     _distortion_pairs),
    ("mslab.spaces", "validate_matrix", "spaces.validate_matrix",
     _validate_triples),
    ("mslab.spaces", "random_space", "spaces.random_space", None),
    ("mslab.hyperspace", "build_hyperspace", "hyperspace.build",
     _build_entries),
    ("mslab.gh", "gh_exact", "gh.gh_exact", _gh_counts),
    ("mslab.experiments", "nonexpansion_sweep", "experiments", _sweep_pairs),
)


def install(tracer: Tracer) -> dict[str, list[str]]:
    """Wrap every target wherever it is bound; returns the patched places.

    Call after ``mslab.cli`` is imported, so every module is loaded.
    """
    modules = [m for name, m in sys.modules.items()
               if name == "mslab" or name.startswith("mslab.")]
    places: dict[str, list[str]] = {}
    for module_name, attr, span, counter in TARGETS:
        fn = getattr(sys.modules[module_name], attr)
        wrapped = tracer.wrap(span, fn, counter)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, key, wrapped)
                    places.setdefault(attr, []).append(
                        f"{module.__name__}.{key}")
    return places


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer totals; the root spans are the CLI calls themselves."""
    total: dict[str, float] = {}
    own: dict[str, float] = {}
    calls: dict[str, int] = {}
    spans = tracer.spans
    for name, start, end, _ in spans:
        total[name] = total.get(name, 0.0) + (end - start)
        own[name] = own.get(name, 0.0) + (end - start)
        calls[name] = calls.get(name, 0) + 1
    for name, start, end, parent in spans:
        if parent >= 0:
            own[spans[parent][0]] -= end - start
    c = tracer.counts

    def t(key):
        return total.get(key, 0.0)

    def per_s(count, seconds):
        return count / seconds if seconds > 0 else 0.0

    gh_calls = calls.get("gh.gh_exact", 0)
    return {
        "cli.self_s": (own.get("cli", 0.0), "s"),
        "io.load_space.s": (t("io.load_space"), "s"),
        "io.load_space.calls": (calls.get("io.load_space", 0), "count"),
        "io.dumps.s": (t("io.dumps"), "s"),
        "io.write.s": (t("io.write"), "s"),
        "io.write.bytes": (c.get("io.write.bytes", 0), "bytes"),
        "correspondence.distortion.s": (t("correspondence.distortion"), "s"),
        "correspondence.distortion.pairs": (
            c.get("correspondence.distortion.pairs", 0), "count"),
        "spaces.validate_matrix.s": (t("spaces.validate_matrix"), "s"),
        "spaces.validate_matrix.calls": (
            calls.get("spaces.validate_matrix", 0), "count"),
        "spaces.validate_matrix.triples": (
            c.get("spaces.validate_matrix.triples", 0), "count"),
        "spaces.validate_matrix.triples_per_s": (per_s(
            c.get("spaces.validate_matrix.triples", 0),
            t("spaces.validate_matrix")), "1/s"),
        "spaces.random_space.s": (t("spaces.random_space"), "s"),
        "hyperspace.build.self_s": (own.get("hyperspace.build", 0.0), "s"),
        "hyperspace.build.calls": (calls.get("hyperspace.build", 0), "count"),
        "hyperspace.build.entries": (
            c.get("hyperspace.build.entries", 0), "count"),
        "hyperspace.build.entries_per_s": (per_s(
            c.get("hyperspace.build.entries", 0),
            own.get("hyperspace.build", 0.0)), "1/s"),
        "gh.gh_exact.s": (t("gh.gh_exact"), "s"),
        "gh.gh_exact.calls": (gh_calls, "count"),
        "gh.nodes": (c.get("gh.nodes", 0), "count"),
        "gh.nodes_per_s": (
            per_s(c.get("gh.nodes", 0), t("gh.gh_exact")), "1/s"),
        "gh.budget_exceeded": (c.get("gh.budget_exceeded", 0), "count"),
        "gh.exact_share": (
            c.get("gh.exact", 0) / gh_calls if gh_calls else 0.0, "ratio"),
        "gh.rank_cells": (c.get("gh.rank_cells", 0), "count"),
        "gh.candidates": (c.get("gh.candidates", 0), "count"),
        "experiments.self_s": (own.get("experiments", 0.0), "s"),
        "experiments.pairs": (c.get("experiments.pairs", 0), "count"),
    }
