#!/usr/bin/env python3
"""Self-tests of the benchmark at tiny input sizes.

    python3 perfbench/selftest.py

Checks that:

1. every metric named in ``BENCHMARK.json`` is printed with its unit by each
   workload, end-to-end metrics with ``--trace 0`` and per-layer metrics
   with ``--trace 1``, and nothing else;
2. the counts of two traced runs of the same code and seed are equal;
3. a reference digest with one verdict flipped drives the error rate above 0;
4. per-layer self times plus the time of their children add up to the span
   totals, and all self times add up to the time of the root spans.

Exits 0 when everything holds, 1 otherwise.
"""

from __future__ import annotations

import json
import subprocess
import sys

import checkout

checkout.import_library()

import run  # noqa: E402  (needs the library on sys.path)
import tracer  # noqa: E402
import workloads  # noqa: E402

SEED = 3

failures = []


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
    if not ok:
        failures.append(what)


def run_tiny(workload: str, trace: int) -> dict:
    cmd = [sys.executable, str(checkout.BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", "0", "--trace", str(trace), "--size", "tiny"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170, cwd=checkout.ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_printed_metrics(spec: dict) -> None:
    sections = {0: spec["end_to_end"], 1: spec["per_layer"]}
    for name in sorted(workloads.WORKLOADS):
        traced = []
        for trace, section in sections.items():
            result = run_tiny(name, trace)
            wanted = {m["name"]: m["unit"] for m in section}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(set(result) == {"correct", "attempted", "failed", "metrics"}
                   and result["correct"] and result["failed"] == 0
                   and result["attempted"] >= 1,
                   f"{name} --trace {trace}: result keys, correct, no failed item")
            expect(got == wanted, f"{name} --trace {trace}: every metric with its unit")
            expect(all(type(v["value"]) in (int, float) for v in result["metrics"].values()),
                   f"{name} --trace {trace}: every value is a number")
            if trace:
                traced.append(result)
        traced.append(run_tiny(name, 1))
        counts = [{k: v["value"] for k, v in r["metrics"].items() if not run.is_timed(k)}
                  for r in traced]
        expect(counts[0] == counts[1] and len(counts[0]) > 0,
               f"{name}: counts of two traced runs are equal")


def flip_verdict(index: int, out: tuple) -> tuple:
    return (not out[0],) + tuple(out[1:]) if index == 0 else out


def check_flipped_reference() -> None:
    for name, (setup, items, _) in sorted(workloads.WORKLOADS.items()):
        with run.work_dir() as wd:
            inputs = setup(SEED, "tiny", wd)
            flipped = run.run_pass(items(inputs), flip=flip_verdict)
            honest = run.run_pass(items(inputs))
        failed = run.count_failures([honest], flipped.digest)
        expect(run.count_failures([honest], honest.digest) == 0 and failed / honest.items > 0,
               f"{name}: a reference with one verdict flipped gives error_rate "
               f"{failed / honest.items}")


def check_self_time_additivity() -> None:
    for name, (setup, items, _) in sorted(workloads.WORKLOADS.items()):
        tr = tracer.Tracer()
        with run.work_dir() as wd:
            inputs = setup(SEED, "tiny", wd)
            with tr:
                run.run_pass(items(inputs), tr)
        totals = tr.totals()
        per_name = all(row["self_ns"] + row["child_ns"] == row["total_ns"]
                       and row["self_ns"] >= 0 for row in totals.values())
        all_self = sum(row["self_ns"] for row in totals.values())
        expect(per_name and all_self == tr.root_ns() and len(totals) > 1,
               f"{name}: self + children = total for {len(totals)} span names, "
               f"sum of self = root time")


def main() -> int:
    spec = json.loads((checkout.ROOT / "BENCHMARK.json").read_text())
    check_printed_metrics(spec)
    check_flipped_reference()
    check_self_time_additivity()
    print(f"{len(failures)} failed" if failures else "all self-tests passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
