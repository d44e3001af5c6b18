"""The experiment scripts read counts as ``clc`` does: a count out of range
is a usage error (exit 2) before any work."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from condlogic import cli

ROOT = Path(__file__).resolve().parent.parent
SRC = str(Path(cli.__file__).resolve().parent.parent)


def run_script(name, *args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          env=env, capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("name,args,message", [
    ("persistence_tables.py", ["--samples", "0"], "--samples: must be at least 1, got 0"),
    ("persistence_tables.py", ["--samples", "-3"], "--samples: must be at least 1, got -3"),
    ("correspondence_sweep.py", ["--samples", "-4"], "--samples: must be at least 0, got -4"),
    ("correspondence_sweep.py", ["--max-worlds", "0"],
     "--max-worlds: must be at least 1, got 0"),
    ("correspondence_sweep.py", ["--jobs", "0"], "--jobs: must be at least 1, got 0"),
])
def test_a_count_out_of_range_is_a_usage_error(name, args, message):
    done = run_script(name, *args)
    assert done.returncode == 2
    assert done.stdout == ""
    assert message in done.stderr


def test_persistence_tables_run_every_sample_asked_for():
    done = run_script("persistence_tables.py", "--samples", "1")
    assert done.returncode == 0, done.stderr
    counts = re.findall(r" (\d+)/(\d+)$", done.stdout, re.M)
    assert len(counts) == 59 and set(counts) == {("1", "1")}


def test_correspondence_sweep_counts_the_samples_run():
    done = run_script("correspondence_sweep.py", "--samples", "2", "--max-worlds", "1")
    assert done.returncode == 0, done.stderr
    sampled = re.findall(r" sampled=(\S+) ", done.stdout)
    assert len(sampled) == 26 and set(sampled) == {"2"}
