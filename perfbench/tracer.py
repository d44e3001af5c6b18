"""Span tracing from outside the library, by patching public functions.

A traced pass replaces each public function named in :data:`SPANS` with a
wrapper that records a span (name, start, end, parent).  Modules that
imported the function by name hold their own reference to it (``catalog``
imports ``valid`` and ``fill``, ``translate`` imports ``valid`` and
``valid_modal``, ``algebra`` imports ``strongly_coherent``), so the
wrapper is installed on every loaded ``condlogic`` module whose attribute
is the original function object, not only on the defining module.

Spans stay in memory in flat arrays and are reduced to per-name totals
when the pass ends.  Self time is a span's duration minus the durations of
its direct children; calls are sequential, so children never overlap.

Per-step kernels (``order.heyting_imp``, ``GeneralFrame.dto``) are called
millions of times and are deliberately not wrapped: :func:`time_kernels`
times them directly on a workload's own frames instead.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import Counter
from typing import Callable, Dict, List, Optional

from condlogic import order
from condlogic.frames import GeneralFrame

perf_ns = time.perf_counter_ns

# (module, attribute, span name); every span name is "<layer>.<function>".
SPANS = (
    ("syntax", "parse", "syntax.parse"),
    ("semantics", "valid", "semantics.valid"),
    ("semantics", "valid_modal", "semantics.valid_modal"),
    ("semantics", "check", "semantics.check"),
    ("catalog", "correspondent_holds", "catalog.correspondent_holds"),
    ("catalog", "persistence_experiment", "catalog.persistence_experiment"),
    ("generate", "random_general_frame", "generate.random_general_frame"),
    ("fillins", "fill", "fillins.fill"),
    ("fillins", "check_squeeze_precondition", "fillins.check_squeeze_precondition"),
    ("frames", "validate_conditional", "frames.validate_conditional"),
    ("frames", "strongly_coherent", "frames.strongly_coherent"),
    ("frames", "frame_from_json", "frames.frame_from_json"),
    ("algebra", "complex_algebra", "algebra.complex_algebra"),
    ("algebra", "validate_cha", "algebra.validate_cha"),
    ("algebra", "prime_filters", "algebra.prime_filters"),
    ("algebra", "check_duality_roundtrip", "algebra.check_duality_roundtrip"),
    ("algebra", "frame_roundtrip", "algebra.frame_roundtrip"),
    ("algebra", "alg_satisfies", "algebra.alg_satisfies"),
    ("translate", "check_t2", "translate.check_t2"),
    ("cli", "main", "cli.main"),
)
ENUMERATE = "generate.enumerate_full_frames"
ITEM = "bench.item"


class Tracer:
    """Records spans and counts while installed; restores the library on exit."""

    def __init__(self):
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_of = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self._stack: List[int] = []
        self.counts: Counter = Counter()
        self.lattices = set()
        self._undo: List[tuple] = []

    # --- spans ---------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        got = self._name_ids.get(name)
        if got is None:
            got = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return got

    def open(self, name: str) -> int:
        idx = len(self.start)
        self.name_of.append(self._name_id(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(perf_ns())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_ns()
        self._stack.pop()

    def wrap(self, name: str, fn: Callable, on_result: Optional[Callable]) -> Callable:
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if on_result is not None:
                on_result(self, idx, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def duration(self, idx: int) -> int:
        return self.end[idx] - self.start[idx]

    # --- installation ----------------------------------------------------------

    def __enter__(self) -> "Tracer":
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "condlogic" or name.startswith("condlogic.")]
        for module_name, attr, span in SPANS:
            original = getattr(sys.modules[f"condlogic.{module_name}"], attr)
            self._install(modules, original,
                          self.wrap(span, original, ON_RESULT.get(span)))
        original = sys.modules["condlogic.generate"].enumerate_full_frames
        self._install(modules, original, self._traced_enumeration(original))
        return self

    def _install(self, modules, original, replacement) -> None:
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._undo.append((module, attr, original))

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._undo):
            setattr(module, attr, original)
        self._undo.clear()

    def _traced_enumeration(self, original):
        def enumerate_full_frames(*args, **kwargs):
            frames = original(*args, **kwargs)
            while True:
                idx = self.open(ENUMERATE)
                try:
                    frame = next(frames)
                except StopIteration:
                    return
                finally:
                    self.close(idx)
                self.counts[ENUMERATE + ".frames"] += 1
                yield frame

        return enumerate_full_frames

    # --- reduction -------------------------------------------------------------

    def totals(self) -> Dict[str, Dict[str, int]]:
        """Per span name: calls, total ns, self ns, ns covered by direct children."""
        child_ns = array("q", bytes(8 * len(self.start)))
        for idx in range(len(self.start)):
            parent = self.parent[idx]
            if parent >= 0:
                child_ns[parent] += self.end[idx] - self.start[idx]
        out: Dict[str, Dict[str, int]] = {}
        for idx in range(len(self.start)):
            row = out.setdefault(self.names[self.name_of[idx]],
                                 {"calls": 0, "total_ns": 0, "self_ns": 0, "child_ns": 0})
            dur = self.end[idx] - self.start[idx]
            row["calls"] += 1
            row["total_ns"] += dur
            row["self_ns"] += dur - child_ns[idx]
            row["child_ns"] += child_ns[idx]
        return out

    def root_ns(self) -> int:
        return sum(self.end[i] - self.start[i]
                   for i in range(len(self.start)) if self.parent[i] < 0)


# --- counts read off results, outside the timed span -------------------------


def _on_valid(tr: Tracer, idx, args, kwargs, verdict) -> None:
    tr.counts["semantics.valid.steps"] += verdict.checked
    tr.counts["semantics.valid.refuted"] += not verdict.valid


def _on_valid_modal(tr: Tracer, idx, args, kwargs, verdict) -> None:
    tr.counts["semantics.valid_modal.steps"] += verdict.checked


def _on_correspondent(tr: Tracer, idx, args, kwargs, report) -> None:
    tr.counts["catalog.correspondent_holds.holds"] += report.holds


def _on_persistence(tr: Tracer, idx, args, kwargs, report) -> None:
    tr.counts["catalog.persistence_experiment.samples"] += report["samples"]


def _on_fill(tr: Tracer, idx, args, kwargs, filled) -> None:
    g = args[0]
    kind = args[1] if len(args) > 1 else kwargs["kind"]
    tr.counts[f"fillins.fill.{kind.value}.calls"] += 1
    tr.counts[f"fillins.fill.{kind.value}.ns"] += tr.duration(idx)
    tr.counts["fillins.fill.vacuous"] += len(g.admissible) == len(order.all_upsets(g.order))


def _on_complex_algebra(tr: Tracer, idx, args, kwargs, alg) -> None:
    tr.lattices.add((alg.size, alg.leq, alg.top, alg.bot))


def _on_alg_satisfies(tr: Tracer, idx, args, kwargs, verdict) -> None:
    tr.counts["algebra.alg_satisfies.assignments"] += verdict.checked


ON_RESULT = {
    "semantics.valid": _on_valid,
    "semantics.valid_modal": _on_valid_modal,
    "catalog.correspondent_holds": _on_correspondent,
    "catalog.persistence_experiment": _on_persistence,
    "fillins.fill": _on_fill,
    "algebra.complex_algebra": _on_complex_algebra,
    "algebra.alg_satisfies": _on_alg_satisfies,
}


# --- per-step kernels, timed directly ----------------------------------------


def time_kernels(frames) -> Dict[str, float]:
    """ns per call of ``heyting_imp`` and of ``dto`` on fresh (cold-cache)
    copies of the given frames, over every pair of admissible upsets."""
    imp_ns = imp_calls = dto_ns = dto_calls = 0
    heyting_imp = order.heyting_imp
    for frame in frames:
        p = frame.order
        pool = frame.admissible
        t0 = perf_ns()
        for a in pool:
            for b in pool:
                heyting_imp(p, a, b)
        imp_ns += perf_ns() - t0
        imp_calls += len(pool) ** 2
        fresh = GeneralFrame(p, pool, frame.relations)
        dto = fresh.dto
        t0 = perf_ns()
        for a in pool:
            for b in pool:
                dto(a, b)
        dto_ns += perf_ns() - t0
        dto_calls += len(pool) ** 2
    return {
        "order.heyting_imp.ns_per_call": imp_ns / imp_calls if imp_calls else 0.0,
        "frames.dto.ns_per_call": dto_ns / dto_calls if dto_calls else 0.0,
    }
