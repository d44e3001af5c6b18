#!/usr/bin/env python3
"""Run one benchmark workload against the checkout's library and print its metrics.

    python3 perfbench/run.py --workload sweep2 --seed 0 --seconds 10 --trace 0

Workloads: ``sweep2``, ``eval-deep``, ``duality``, ``fillin`` (see
``perfbench/README.md``).  Each is a closed loop: one process, one thread,
one item after another.  The process is a fresh interpreter, so the
library's module caches start cold, as they do for a ``clc`` user.

``--trace 0`` measures the end-to-end metrics.  It first times set-up
(interpreter start, imports, inputs from the seed, frame files) in
:data:`SETUP_REPEATS` child interpreters and reports the median, then
builds the inputs itself and runs as many whole passes over them as fit
in ``--seconds``, to the nearest pass, and reports the median over passes.
Every pass must produce the same output digest, equal to the recorded
reference where one exists.

Items and passes are timed in the thread's CPU time, scaled to a reference
host speed that the run calibrates as it goes (see :func:`run_pass`).

``--trace 1`` runs five passes, untraced and traced in turn, and reports
per-layer self times (wall-clock, the mean of the two traced passes) and
counts (which must be equal in both); ``trace.overhead_ratio`` is the CPU
time of the traced passes over that of the untraced passes after the
first, which only fills the library's caches.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from array import array
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import checkout

checkout.import_library()

import tracer  # noqa: E402  (needs the library on sys.path)
import workloads  # noqa: E402

SETUP_REPEATS = 3
REFERENCE = checkout.BENCH_DIR / "reference.json"

E2E_UNITS = {
    "items_per_s": "items/s",
    "item_p50_ms": "ms",
    "item_p99_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

FILL_KINDS = ("empty", "reflexive", "principal", "total", "union", "transitive", "squeeze")

LAYER_UNITS = {
    "syntax.parse.calls": "count",
    "syntax.parse.self_s": "s",
    "semantics.valid.calls": "count",
    "semantics.valid.steps": "count",
    "semantics.valid.self_s": "s",
    "semantics.valid.ns_per_step": "ns",
    "semantics.valid.refuted_share": "ratio",
    "semantics.valid_modal.self_s": "s",
    "semantics.valid_modal.ns_per_step": "ns",
    "semantics.check.self_s": "s",
    "catalog.correspondent_holds.calls": "count",
    "catalog.correspondent_holds.self_s": "s",
    "catalog.correspondent_holds.holds_share": "ratio",
    "catalog.persistence_experiment.self_s": "s",
    "generate.enumerate_full_frames.self_s": "s",
    "generate.enumerate_full_frames.frames_per_s": "frames/s",
    "generate.random_general_frame.calls": "count",
    "generate.random_general_frame.self_s": "s",
    "generate.candidates_per_sample": "ratio",
    "fillins.fill.calls": "count",
    "fillins.fill.self_s": "s",
    **{f"fillins.fill.{kind}.us_per_call": "us" for kind in FILL_KINDS},
    "fillins.fill.vacuous_share": "ratio",
    "fillins.check_squeeze_precondition.self_s": "s",
    "frames.validate_conditional.self_s": "s",
    "frames.strongly_coherent.self_s": "s",
    "frames.frame_from_json.self_s": "s",
    "algebra.complex_algebra.calls": "count",
    "algebra.complex_algebra.self_s": "s",
    "algebra.complex_algebra.distinct_lattices": "count",
    "algebra.validate_cha.self_s": "s",
    "algebra.prime_filters.self_s": "s",
    "algebra.check_duality_roundtrip.self_s": "s",
    "algebra.frame_roundtrip.self_s": "s",
    "algebra.alg_satisfies.self_s": "s",
    "algebra.alg_satisfies.ns_per_assignment": "ns",
    "translate.check_t2.self_s": "s",
    "cli.main.self_s": "s",
    "order.heyting_imp.ns_per_call": "ns",
    "frames.dto.ns_per_call": "ns",
    "trace.overhead_ratio": "ratio",
}

TIMED_UNITS = {"s", "ns", "us", "frames/s"}

perf_ns = time.perf_counter_ns
cpu_ns = time.thread_time_ns


def calibrate() -> int:
    """CPU nanoseconds of a fixed piece of pure-Python work that uses no library
    code, so that a change to the library cannot change it."""
    started = cpu_ns()
    table: Dict[int, tuple] = {}
    total = 0
    for i in range(4000):
        table[i & 255] = (i, str(i))
        total += len(table[i & 127][1])
    return cpu_ns() - started


# About the median of calibrate() on the baseline machine; a host that runs
# it in this time has speed 1.
CAL_REFERENCE_NS = 1_500_000
CAL_EVERY_NS = 50_000_000
CAL_WINDOW = 5


@dataclass
class PassResult:
    """One pass: wall seconds, host-speed-normalized CPU seconds and latency
    quantiles, the host's mean speed, and the output digest."""

    seconds: float
    cpu_seconds: float
    items: int
    p50_ns: float
    p99_ns: float
    speed: float
    digest: str
    raised: int = 0
    errors: List[str] = field(default_factory=list)

    @property
    def items_per_s(self) -> float:
        return self.items / self.cpu_seconds


def run_pass(items, trace: Optional[tracer.Tracer] = None,
             flip: Optional[Callable[[int, tuple], tuple]] = None) -> PassResult:
    """Run every item once, timing each and folding its output into a digest.

    Items and the pass are timed in the thread's CPU time, which leaves out
    the time the hypervisor of a shared host gives this CPU to others; items
    do no blocking I/O.  The CPU itself still runs 15-30 % faster or slower
    for tens of seconds at a time on a shared host, so every 50 ms of CPU
    time the pass runs :func:`calibrate`, and the CPU time of the items since
    the last calibration is scaled by the host's speed, the median of the
    last :data:`CAL_WINDOW` calibrations over :data:`CAL_REFERENCE_NS`.
    Calibration time is not counted.  Latency quantiles are taken per pass,
    so memory does not grow with the number of passes.

    ``flip`` rewrites an item's output before it is folded in; the self-tests
    use it to build a reference that disagrees with the library in one item.
    """
    digest = hashlib.sha256()
    latencies = array("q")
    segments = []  # (index of the first item after the segment, speed)
    recent = [calibrate()]
    cpu_scaled = 0.0
    raised = 0
    errors: List[str] = []
    started = perf_ns()
    segment_started = cpu_ns()
    for index, (fn, args) in enumerate(items):
        span = trace.open(tracer.ITEM) if trace is not None else -1
        c0 = cpu_ns()
        try:
            out = fn(*args)
        except Exception as exc:  # an item that raises is a failed item, not a crash
            out = ("raised", type(exc).__name__, str(exc))
            raised += 1
            if len(errors) < 5:
                errors.append(f"item {index}: {type(exc).__name__}: {exc}")
        c1 = cpu_ns()
        latencies.append(c1 - c0)
        if trace is not None:
            trace.close(span)
        if flip is not None:
            out = flip(index, out)
        digest.update(repr(out).encode())
        digest.update(b"\n")
        if c1 - segment_started >= CAL_EVERY_NS:
            cpu_scaled += _close_segment(segments, recent, index + 1, cpu_ns() - segment_started)
            segment_started = cpu_ns()
    cpu_scaled += _close_segment(segments, recent, len(latencies), cpu_ns() - segment_started)
    seconds = (perf_ns() - started) / 1e9
    first = 0
    for end, speed in segments:
        for i in range(first, end):
            latencies[i] = int(latencies[i] * speed)
        first = end
    ordered = sorted(latencies)
    return PassResult(seconds, cpu_scaled / 1e9, len(ordered), statistics.median(ordered),
                      percentile(ordered, 99), statistics.fmean(v for _, v in segments),
                      digest.hexdigest(), raised, errors)


def _close_segment(segments, recent, end: int, cpu: int) -> float:
    """Calibrate, record the speed for the items before ``end``, and return
    the segment's CPU time scaled to the reference speed."""
    recent.append(calibrate())
    del recent[:-CAL_WINDOW]
    speed = CAL_REFERENCE_NS / statistics.median(recent)
    segments.append((end, speed))
    return cpu * speed


def load_reference(workload: str, seed: int, size: str) -> Optional[str]:
    refs = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    key = "*" if workload in workloads.SEED_INDEPENDENT else str(seed)
    return refs.get(size, {}).get(workload, {}).get(key)


def count_failures(passes: List[PassResult], reference: Optional[str]) -> int:
    """Items that raised, plus every item of a pass whose digest is wrong.

    A digest differs from the reference (or from the first pass) when some
    item's output differs; the digest cannot say which, so the whole pass
    counts as failed.
    """
    expected = reference if reference is not None else passes[0].digest
    return sum(p.raised if p.digest == expected else p.items for p in passes)


@contextlib.contextmanager
def work_dir():
    """A private scratch directory inside the checkout, removed afterwards."""
    path = checkout.WORK_DIR / str(os.getpid())
    path.mkdir(parents=True, exist_ok=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            checkout.WORK_DIR.rmdir()


def child_setup_seconds(args) -> float:
    """Interpreter start to inputs ready, measured on a fresh child interpreter."""
    cmd = [sys.executable, str(checkout.BENCH_DIR / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size, "--setup-only"]
    started = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            cwd=checkout.ROOT)
    try:
        out, err = proc.communicate(timeout=120)
    finally:
        if proc.poll() is None:  # interrupted: stop the child and clean up after it
            proc.kill()
            proc.wait()
            shutil.rmtree(checkout.WORK_DIR / str(proc.pid), ignore_errors=True)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed: {err.strip()}")
    return float(out.split()[-1]) - started


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tr: tracer.Tracer, kernels: Dict[str, float], overhead: float) -> dict:
    totals = tr.totals()
    counts = tr.counts

    def calls(name: str) -> int:
        return totals.get(name, {}).get("calls", 0)

    def self_ns(name: str) -> int:
        return totals.get(name, {}).get("self_ns", 0)

    m: Dict[str, float] = {}
    for name in ("syntax.parse", "semantics.valid", "catalog.correspondent_holds",
                 "generate.random_general_frame", "fillins.fill", "algebra.complex_algebra"):
        m[f"{name}.calls"] = calls(name)
    for name, _, span in tracer.SPANS:
        m[f"{span}.self_s"] = self_ns(span) / 1e9
    m["semantics.valid.steps"] = counts["semantics.valid.steps"]
    m["semantics.valid.ns_per_step"] = _ratio(self_ns("semantics.valid"),
                                              counts["semantics.valid.steps"])
    m["semantics.valid.refuted_share"] = _ratio(counts["semantics.valid.refuted"],
                                                calls("semantics.valid"))
    m["semantics.valid_modal.ns_per_step"] = _ratio(self_ns("semantics.valid_modal"),
                                                    counts["semantics.valid_modal.steps"])
    m["catalog.correspondent_holds.holds_share"] = _ratio(
        counts["catalog.correspondent_holds.holds"], calls("catalog.correspondent_holds"))
    m["generate.enumerate_full_frames.self_s"] = self_ns(tracer.ENUMERATE) / 1e9
    m["generate.enumerate_full_frames.frames_per_s"] = _ratio(
        counts[tracer.ENUMERATE + ".frames"], self_ns(tracer.ENUMERATE) / 1e9)
    m["generate.candidates_per_sample"] = _ratio(
        calls("generate.random_general_frame"),
        counts["catalog.persistence_experiment.samples"])
    for kind in FILL_KINDS:
        m[f"fillins.fill.{kind}.us_per_call"] = _ratio(
            counts[f"fillins.fill.{kind}.ns"], counts[f"fillins.fill.{kind}.calls"]) / 1e3
    m["fillins.fill.vacuous_share"] = _ratio(counts["fillins.fill.vacuous"],
                                             calls("fillins.fill"))
    m["algebra.complex_algebra.distinct_lattices"] = len(tr.lattices)
    m["algebra.alg_satisfies.ns_per_assignment"] = _ratio(
        self_ns("algebra.alg_satisfies"), counts["algebra.alg_satisfies.assignments"])
    m.update(kernels)
    m["trace.overhead_ratio"] = overhead
    return {name: m[name] for name in LAYER_UNITS}


def _result_line(correct: bool, attempted: int, failed: int, values: dict, units: dict) -> str:
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    return json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                       "metrics": metrics})


def _report_check(args, passes: List[PassResult], reference: Optional[str]) -> int:
    failed = count_failures(passes, reference)
    for p in passes:
        for line in p.errors:
            print(f"  failed {line}")
    digests = sorted({p.digest for p in passes})
    print(f"passes {len(passes)}, items per pass {passes[0].items}, digest {digests[0]}"
          + ("" if len(digests) == 1 else f" and {len(digests) - 1} other(s)"))
    if reference is None:
        print(f"no reference digest recorded for {args.workload} seed {args.seed}: "
              "outputs checked by the per-item logical assertions only")
    elif reference not in digests or len(digests) > 1:
        print(f"digest differs from the recorded reference {reference}")
    else:
        print("digest matches the recorded reference")
    return failed


def measure(args, setup, items) -> int:
    setups = [child_setup_seconds(args) for _ in range(SETUP_REPEATS)]
    with work_dir() as wd:
        inputs = setup(args.seed, args.size, wd)
        # Whole passes only, as many as fit in --seconds to the nearest pass.
        passes = [run_pass(items(inputs))]
        while sum(p.seconds for p in passes) + passes[-1].seconds / 2 < args.seconds:
            passes.append(run_pass(items(inputs)))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    reference = load_reference(args.workload, args.seed, args.size)
    failed = _report_check(args, passes, reference)
    attempted = sum(p.items for p in passes)
    # Medians over passes damp changes in host speed within a run.
    values = {
        "items_per_s": statistics.median(p.items_per_s for p in passes),
        "item_p50_ms": statistics.median(p.p50_ns for p in passes) / 1e6,
        "item_p99_ms": statistics.median(p.p99_ns for p in passes) / 1e6,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb,
    }
    per_pass = passes[0].items
    beyond = per_pass - int(max(1, -(-per_pass * 99 // 100)))
    print(f"error_rate {failed / attempted} ratio ({failed} of {attempted} items)")
    print(f"item_p99_ms per pass from {per_pass} samples, {beyond} beyond it"
          + ("" if beyond >= 10 else " (fewer than 10: not a stable percentile)"))
    print("per pass: items_per_s " + " ".join(f"{p.items_per_s:.1f}" for p in passes)
          + "; host speed " + " ".join(f"{p.speed:.3f}" for p in passes)
          + "; wall items/s " + " ".join(f"{p.items / p.seconds:.1f}" for p in passes))
    print(f"setup_s samples {setups}")
    for name, unit in E2E_UNITS.items():
        print(f"{name} {values[name]} {unit}")
    print(_result_line(failed == 0, attempted, failed, values, E2E_UNITS))
    return 0


def is_timed(name: str) -> bool:
    """Per-layer metrics that are times or ratios of times; all others are
    counts, or ratios of counts, and repeat exactly on the same code and seed."""
    return LAYER_UNITS[name] in TIMED_UNITS or name == "trace.overhead_ratio"


def trace(args, setup, items, kernel_frames) -> int:
    with work_dir() as wd:
        inputs = setup(args.seed, args.size, wd)
        passes = [run_pass(items(inputs))]  # fills the library's caches
        tracers = []
        for _ in range(2):
            tracers.append(tracer.Tracer())
            with tracers[-1]:
                passes.append(run_pass(items(inputs), tracers[-1]))
            passes.append(run_pass(items(inputs)))
        kernels = tracer.time_kernels(kernel_frames(inputs))
    reference = load_reference(args.workload, args.seed, args.size)
    failed = _report_check(args, passes, reference)
    overhead = ((passes[1].cpu_seconds + passes[3].cpu_seconds)
                / (passes[2].cpu_seconds + passes[4].cpu_seconds))
    first, second = (layer_metrics(tr, kernels, overhead) for tr in tracers)
    moved = [name for name in LAYER_UNITS if not is_timed(name) and first[name] != second[name]]
    if moved:
        print(f"counts moved between the two traced passes: {moved}")
        failed += passes[3].items
    attempted = sum(p.items for p in passes)
    print(f"error_rate {failed / attempted} ratio ({failed} of {attempted} items)")
    print(f"{'span (first traced pass)':44s} {'calls':>9s} {'total_s':>10s} {'self_s':>10s}")
    for name, row in sorted(tracers[0].totals().items()):
        print(f"{name:44s} {row['calls']:9d} {row['total_ns'] / 1e9:10.4f} "
              f"{row['self_ns'] / 1e9:10.4f}")
    # Times are the mean of the two traced passes; counts are equal in both.
    values = {name: (first[name] + second[name]) / 2 if is_timed(name) else first[name]
              for name in LAYER_UNITS}
    for name, unit in LAYER_UNITS.items():
        print(f"{name} {values[name]} {unit}")
    print(_result_line(failed == 0, attempted, failed, values, LAYER_UNITS))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="input size; tiny is for the benchmark's self-tests")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind so the work directory and set-up children are cleaned up.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    setup, items, kernel_frames = workloads.WORKLOADS[args.workload]
    if args.setup_only:
        with work_dir() as wd:
            setup(args.seed, args.size, wd)
            print(f"{time.monotonic():.9f}")
        return 0
    if args.trace:
        return trace(args, setup, items, kernel_frames)
    return measure(args, setup, items)


if __name__ == "__main__":
    sys.exit(main())
