#!/usr/bin/env python3
"""Replay the persistence overview tables as randomized experiments.

Each persistent (axiom, fill-in) cell is expected to pass on every sampled
precondition-satisfying general frame; the refuted cells are expected to
produce a finite counterexample frame instead.
"""

import argparse
import json
import sys

from condlogic import catalog
from condlogic.cli import _count


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--samples", type=_count(1), default=300)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--strong", action="store_true")
    parser.add_argument("--json", action="store_true")
    args = parser.parse_args()

    cells = (
        [("table1", key, kind) for key, kind in catalog.TABLE1_CELLS]
        + [("table2", key, kind) for key, kind in catalog.TABLE2_CELLS]
        + [("table3", key, kind) for key, kind in catalog.TABLE3_CELLS]
        + [("table4", key, kind) for key, kind in catalog.TABLE4_EMPTY_CELLS]
    )
    rows = []
    ok = True
    for table, key, kind in cells:
        report = catalog.persistence_experiment(
            key, kind, samples=args.samples, seed=args.seed, strong=args.strong
        )
        ok &= report["ok"]
        rows.append((table, key, kind.value, report["passes"], report["samples"],
                     report["ok"]))
        if not args.json:
            flag = "ok  " if report["ok"] else "FAIL"
            print(f"{flag} {table:7s} {key:8s} {kind.value:10s} "
                  f"{report['passes']}/{report['samples']}")
    for key, kind in catalog.REFUTED_CELLS:
        report = catalog.persistence_experiment(
            key, kind, samples=args.samples * 10, seed=args.seed, expect="fail"
        )
        ok &= report["ok"]
        rows.append(("refuted", key, kind.value, report["failures"],
                     report["samples"], report["ok"]))
        if not args.json:
            flag = "ok  " if report["ok"] else "FAIL"
            print(f"{flag} refuted {key:8s} {kind.value:10s} "
                  f"counterexample={'yes' if report['counterexample'] else 'no'}")
    if args.json:
        print(json.dumps({"seed": args.seed, "samples": args.samples,
                          "cells": rows, "ok": ok}, sort_keys=True, indent=2))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
