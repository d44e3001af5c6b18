"""Locate the checkout the benchmark lives in and import its library.

The benchmark measures the source tree next to it, never an installed
copy: ``src/`` of the checkout goes first on ``sys.path`` and the imported
package must come from there.  Without it the benchmark stops with a
non-zero exit and prints no result.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent
WORK_DIR = ROOT / ".perfbench_work"


def import_library() -> None:
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        import condlogic
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import condlogic from {SRC}: {exc}")
    where = Path(condlogic.__file__).resolve().parent.parent
    if where != SRC.resolve():
        raise SystemExit(f"perfbench: condlogic was imported from {where}, not from {SRC}")
