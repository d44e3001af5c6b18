#!/usr/bin/env python3
"""Sweep the validity-iff-correspondent equivalence over the whole catalog.

Frames with at most two worlds are enumerated exhaustively; larger sizes
are sampled.  Entries whose correspondent only holds on strongly coherent
poset frames are checked against that class.
"""

import argparse
import sys
import time

from condlogic import catalog
from condlogic.cli import _count


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--samples", type=_count(0), default=200)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--max-worlds", type=_count(1), default=2)
    parser.add_argument("--jobs", type=_count(1), default=1)
    args = parser.parse_args()

    keys = [k for k, e in sorted(catalog.AXIOMS.items())
            if e.has_correspondent and e.quantifier != "const"]
    ok = True
    for key in keys:
        t0 = time.time()
        report = catalog.verify_correspondence(
            key, max_worlds=args.max_worlds, samples=args.samples,
            seed=args.seed, jobs=args.jobs,
        )
        ok &= report["ok"]
        flag = "ok  " if report["ok"] else "FAIL"
        scope = "strong" if report["strong_scope"] else "all   "
        print(f"{flag} {key:10s} scope={scope} "
              f"exhaustive={report['exhaustive_frames']} "
              f"sampled={report['sampled_frames']} "
              f"({time.time() - t0:.1f}s)")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
