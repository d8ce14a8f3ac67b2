"""Traced in-process run: spans around the calls into each orthoweyl module.

``cli.main(argv)`` runs in this process with stdout captured.  Wrappers go on
the module attributes that callers actually look up (``from .x import f``
binds a name per module), so ``hasse.build_hasse`` is wrapped as
``orthoweyl.cli.build_hasse``, ``orthoweyl.eisenstein.build_hasse`` and
``orthoweyl.verification.build_hasse``.  Each span records its name, start,
end and parent; a span's self time is its duration minus its children's.
The wrappers are removed after every traced repetition.

Functions called more than about 10^5 times per run (``reflect_vector``,
``mat_mul``, ``mat_vec``, the ``LinearForm`` methods) are not wrapped: the
wrapper's cost would distort the run.  ``linform`` is measured through
``apply_word``, ``word_length`` and ``restrict``, which do its arithmetic.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import importlib
import io
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

#: Span name -> orthoweyl modules whose attribute of that name callers use.
#: A span's name is the module that defines the function, except
#: ``verification.inversion_vectors``, which counts only the calls made by
#: the verification harness (``word_length`` reaches the same function too).
WRAP_SITES: dict[str, tuple[str, ...]] = {
    "hasse.build_hasse": ("cli", "eisenstein", "verification"),
    "hasse.with_bruhat_covers": ("cli", "hasse", "verification"),
    "hasse.to_dot": ("cli",),
    "hasse.to_json_dict": ("cli",),
    "eisenstein.full_report": ("cli",),
    "eisenstein.parabolic_report": ("eisenstein",),
    "eisenstein.kostant_record": ("eisenstein", "verification"),
    "eisenstein.check_minimal_rep": ("eisenstein",),
    "weylgroup.apply_word": ("eisenstein",),
    "weylgroup.word_length": ("eisenstein",),
    "orthogroup.restrict": ("eisenstein", "verification"),
    "weylgroup.enumerate_group": ("verification", "weylgroup"),
    "weylgroup.minimal_reps_bruteforce": ("verification",),
    "weylgroup.word_action_matrix": ("eisenstein", "hasse", "verification", "weylgroup"),
    "verification.inversion_vectors": ("verification",),
    "verification.run_verification": ("cli",),
}

#: Per-layer metrics measured in child processes, not from spans.
PROBED = ("interp.start_s", "import.orthoweyl_s", "import.numpy_s", "trace.overhead_ratio")

#: Per-layer metrics of a traced run, with their units, in report order.
LAYER_METRICS: dict[str, str] = {
    "interp.start_s": "s",
    "import.orthoweyl_s": "s",
    "import.numpy_s": "s",
    "cli.main.s": "s",
    "cli.self_s": "s",
    "cli.out_bytes": "bytes",
    "hasse.build_hasse.s": "s",
    "hasse.build_hasse.calls": "count",
    "hasse.build_hasse.nodes": "count",
    "hasse.build_hasse.edges": "count",
    "hasse.with_bruhat_covers.s": "s",
    "hasse.with_bruhat_covers.candidates": "count",
    "hasse.with_bruhat_covers.covers": "count",
    "hasse.with_bruhat_covers.hit_ratio": "ratio",
    "hasse.to_dot.s": "s",
    "hasse.to_json_dict.s": "s",
    "eisenstein.full_report.s": "s",
    "eisenstein.parabolic_report.s": "s",
    "eisenstein.kostant_record.s": "s",
    "eisenstein.kostant_record.self_s": "s",
    "eisenstein.kostant_record.calls": "count",
    "eisenstein.check_minimal_rep.s": "s",
    "eisenstein.check_minimal_rep.calls": "count",
    "weylgroup.apply_word.s": "s",
    "weylgroup.apply_word.calls": "count",
    "weylgroup.word_length.s": "s",
    "weylgroup.word_length.calls": "count",
    "orthogroup.restrict.s": "s",
    "orthogroup.restrict.calls": "count",
    "weylgroup.enumerate_group.s": "s",
    "weylgroup.enumerate_group.calls": "count",
    "weylgroup.enumerate_group.elements": "count",
    "weylgroup.minimal_reps_bruteforce.s": "s",
    "weylgroup.minimal_reps_bruteforce.calls": "count",
    "weylgroup.word_action_matrix.s": "s",
    "weylgroup.word_action_matrix.calls": "count",
    "verification.inversion_vectors.s": "s",
    "verification.inversion_vectors.calls": "count",
    "verification.run_verification.s": "s",
    "verification.run_verification.self_s": "s",
    "verification.run_verification.rows": "count",
    "focus.share": "ratio",
    "trace.overhead_ratio": "ratio",
}


@dataclass(frozen=True)
class Span:
    name: str
    parent: int | None  # index of the enclosing span, None for the root
    start: float
    end: float


class Tracer:
    """Spans and counters of one traced repetition, kept in memory."""

    def __init__(self):
        self.spans: list[Span | None] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []

    def add(self, counter: str, amount: int) -> None:
        self.counts[counter] = self.counts.get(counter, 0) + amount

    def wrap(self, name: str, fn: Callable, on_result: Callable | None = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self.spans.append(None)
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = Span(name, parent, start, end)
            if on_result is not None:
                on_result(self, result)
            return result

        return traced

    def totals(self) -> tuple[dict[str, float], dict[str, float], dict[str, int]]:
        """Per span name: summed duration, summed self time, and call count."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.end - span.start
        total: dict[str, float] = {}
        own: dict[str, float] = {}
        calls: dict[str, int] = {}
        for span, children in zip(self.spans, child_time):
            duration = span.end - span.start
            total[span.name] = total.get(span.name, 0.0) + duration
            own[span.name] = own.get(span.name, 0.0) + duration - children
            calls[span.name] = calls.get(span.name, 0) + 1
        return total, own, calls


def _count_walk(tracer: Tracer, diagram) -> None:
    tracer.add("hasse.build_hasse.nodes", len(diagram.nodes))
    tracer.add("hasse.build_hasse.edges", len(diagram.algo_edges))


def _count_covers(tracer: Tracer, diagram) -> None:
    from orthoweyl.rootsystem import positive_root_vectors

    # with_bruhat_covers tries one reflection per positive root at every node.
    roots = len(positive_root_vectors(diagram.parabolic.datum))
    tracer.add("hasse.with_bruhat_covers.candidates", len(diagram.nodes) * roots)
    tracer.add("hasse.with_bruhat_covers.covers", len(diagram.cover_edges))


COUNTERS: dict[str, Callable[[Tracer, object], None]] = {
    "hasse.build_hasse": _count_walk,
    "hasse.with_bruhat_covers": _count_covers,
    "weylgroup.enumerate_group": lambda t, group: t.add("weylgroup.enumerate_group.elements", len(group)),
    "verification.run_verification": lambda t, rows: t.add("verification.run_verification.rows", len(rows)),
}


class InProcess:
    """Runs ``cli.main`` in this process, cold, with or without spans."""

    def __init__(self, root: Path):
        if str(root / "src") not in sys.path:
            sys.path.insert(0, str(root / "src"))
        modules = {
            name: importlib.import_module(f"orthoweyl.{name}")
            for name in ("cli", "eisenstein", "hasse", "rootsystem", "verification", "weylgroup")
        }
        self.main = modules["cli"].main
        # Every lru_cache in the package, found before any wrapper hides it,
        # so each repetition starts as cold as a fresh process.
        caches = {}
        for module in modules.values():
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    caches[id(value)] = value.cache_clear
        self._cache_clears = list(caches.values())
        # (span name, module, attribute) for every wrap site that exists.
        self.sites = []
        self.missing = []
        for name, owners in WRAP_SITES.items():
            attr = name.rpartition(".")[2]
            for owner in owners:
                if hasattr(modules[owner], attr):
                    self.sites.append((name, modules[owner], attr))
                else:
                    self.missing.append(f"orthoweyl.{owner}.{attr}")

    def run(self, argv: tuple[str, ...], tracer: Tracer | None = None) -> tuple[int, bytes, float]:
        """Exit code, stdout bytes and wall seconds of one cold ``cli.main(argv)``."""
        for clear in self._cache_clears:
            clear()
        gc.collect()
        main = self.main
        saved = []
        if tracer is not None:
            main = tracer.wrap("cli.main", main)
            for name, module, attr in self.sites:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, tracer.wrap(name, original, COUNTERS.get(name)))
        buf = io.StringIO()
        try:
            start = time.perf_counter()
            with contextlib.redirect_stdout(buf):
                code = main(list(argv))
            wall = time.perf_counter() - start
        finally:
            for module, attr, original in saved:
                setattr(module, attr, original)
        return code, buf.getvalue().encode("utf-8"), wall


def layer_metrics(tracer: Tracer, out: bytes, focus: tuple[str, ...]) -> dict[str, float]:
    """The span-derived per-layer metrics of one traced repetition."""
    total, own, calls = tracer.totals()
    values: dict[str, float] = {
        "cli.main.s": total["cli.main"],
        "cli.self_s": own["cli.main"],
        "cli.out_bytes": len(out),
        "focus.share": sum(total.get(name, 0.0) for name in focus) / total["cli.main"],
    }
    for layer in WRAP_SITES:
        values[f"{layer}.s"] = total.get(layer, 0.0)
        values[f"{layer}.self_s"] = own.get(layer, 0.0)
        values[f"{layer}.calls"] = calls.get(layer, 0)
    values.update(tracer.counts)
    candidates = tracer.counts.get("hasse.with_bruhat_covers.candidates", 0)
    covers = tracer.counts.get("hasse.with_bruhat_covers.covers", 0)
    values["hasse.with_bruhat_covers.hit_ratio"] = covers / candidates if candidates else 0.0
    return {name: values.get(name, 0) for name in LAYER_METRICS if name not in PROBED}
