#!/usr/bin/env python3
"""Record the reference output digests that the benchmark compares against.

    python3 perfbench/record.py --seeds 0-31 [--workload eval-deep ...]

Runs one full-size pass per (workload, seed) and stores its digest in
``perfbench/reference.json``; ``sweep2`` does not depend on the seed and is
recorded once.  A pass in which any item fails is not recorded.  Outputs
are meant to stay identical across performance changes, so re-record only
for a change that alters outputs on purpose, and say so in its notes.
"""

from __future__ import annotations

import argparse
import json
import sys

import checkout

checkout.import_library()

import run  # noqa: E402  (needs the library on sys.path)
import workloads  # noqa: E402


def parse_seeds(text: str):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, help="e.g. 0-31 or 0,5,7")
    parser.add_argument("--workload", action="append", choices=sorted(workloads.WORKLOADS))
    args = parser.parse_args(argv)
    for name in args.workload or sorted(workloads.WORKLOADS):
        setup, items, _ = workloads.WORKLOADS[name]
        seeds = [0] if name in workloads.SEED_INDEPENDENT else parse_seeds(args.seeds)
        for seed in seeds:
            with run.work_dir() as wd:
                result = run.run_pass(items(setup(seed, "full", wd)))
            if result.raised:
                print(f"{name} seed {seed}: {result.raised} items failed, not recorded",
                      file=sys.stderr)
                for line in result.errors:
                    print(f"  {line}", file=sys.stderr)
                return 1
            key = "*" if name in workloads.SEED_INDEPENDENT else str(seed)
            print(f"{name} seed {key}: {result.digest} ({result.items} items)", flush=True)
            # Written per entry, re-reading first, so that an interrupted
            # recording keeps what is done and recordings of different
            # workloads can run side by side.
            refs = json.loads(run.REFERENCE.read_text()) if run.REFERENCE.exists() else {}
            refs.setdefault("full", {}).setdefault(name, {})[key] = result.digest
            run.REFERENCE.write_text(json.dumps(refs, sort_keys=True, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
