"""Golden CLI corpus: exit codes and ``--json`` digests of a fixed set of runs.

Each case runs ``clc --json`` in one scratch directory that holds the input
files below under fixed relative names, so the ``inputs`` digests embedded
in the reports are stable.  ``data/cli_golden.json`` holds, per case, the
exit code and the sha256 of stdout and of every file the case writes.
Re-record it with ``python tests/test_cli_golden.py`` only when an output
change is intended.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

GOLDEN = Path(__file__).parent / "data" / "cli_golden.json"

# chain 0 <= 1, one relation per upset
FULL_FRAME = {
    "worlds": 2,
    "leq": [[0, 0], [0, 1], [1, 1]],
    "admissible": "all",
    "relations": {"": [], "1": [[0, 1]], "0,1": [[0, 0], [0, 1], [1, 1]]},
}
# 0 <= 2 with 1 apart; upsets {2} and {1,2} are not admissible
GENERAL_FRAME = {
    "worlds": 3,
    "leq": [[0, 0], [0, 2], [1, 1], [2, 2]],
    "admissible": [[], [1], [0, 2], [0, 1, 2]],
    "relations": {
        "": [],
        "1": [[1, 1]],
        "0,2": [[0, 0], [0, 2], [2, 2]],
        "0,1,2": [[0, 0], [0, 2], [1, 1], [2, 2]],
    },
}
# two-world antichain, strongly coherent, for the frame round-trip
STRONG_FRAME = {
    "worlds": 2,
    "leq": [[0, 0], [1, 1]],
    "admissible": "all",
    "relations": {"": [], "0": [[1, 1]], "1": [], "0,1": [[0, 1], [1, 0]]},
}
# complex algebra of STRONG_FRAME
ALGEBRA = {
    "size": 4,
    "leq": [[0, 0], [0, 1], [0, 2], [0, 3], [1, 1], [1, 3], [2, 2], [2, 3], [3, 3]],
    "imp": [[3, 3, 3, 3], [2, 3, 2, 3], [1, 1, 3, 3], [0, 1, 2, 3]],
    "cond": [[3, 3, 3, 3], [1, 1, 3, 3], [3, 3, 3, 3], [0, 2, 1, 3]],
    "top": 3,
    "bot": 0,
}
VALUATION = {"p": [1], "q": []}

INPUTS = {
    "f.json": FULL_FRAME,
    "g.json": GENERAL_FRAME,
    "s.json": STRONG_FRAME,
    "a.json": ALGEBRA,
    "v.json": VALUATION,
}

KINDS = ("empty", "reflexive", "principal", "total", "union", "transitive", "squeeze")

# (case name, argv after --json, files the case writes)
CORPUS = [
    ("valid-holds", ["valid", "--frame", "f.json", "--formula", "p ~> true"], []),
    ("valid-refuted", ["valid", "--frame", "f.json", "--formula", "(p ~> q) -> (p -> q)",
                       "--out", "cm.json"], ["cm.json"]),
    ("valid-general", ["valid", "--frame", "g.json",
                       "--formula", "(p ~> q) & (q ~> r) -> (p ~> r)"], []),
    ("mc-world", ["mc", "--frame", "f.json", "--val", "v.json",
                  "--formula", "(p ~> q) -> (p -> q)", "--world", "0"], []),
    ("mc-everywhere", ["mc", "--frame", "f.json", "--val", "v.json",
                       "--formula", "p ~> p"], []),
    ("correspond-id", ["correspond", "--frame", "f.json", "--axiom", "id"], []),
    ("correspond-mp", ["correspond", "--frame", "f.json", "--axiom", "mp"], []),
    ("correspond-tr", ["correspond", "--frame", "f.json", "--axiom", "tr"], []),
    ("verify-id", ["verify-correspondence", "--axiom", "id", "--samples", "20"], []),
    *[
        (f"verify-tr-jobs{jobs}", ["--jobs", str(jobs), "verify-correspondence", "--axiom",
                                   "tr", "--max-worlds", "1", "--samples", "20"], [])
        for jobs in (1, 2)
    ],
    *[
        (f"persist-pass-jobs{jobs}", ["--jobs", str(jobs), "persist", "--axiom", "unit",
                                      "--fillin", "union", "--samples", "20", "--seed", "9"], [])
        for jobs in (1, 2)
    ],
    *[
        (f"persist-fail-jobs{jobs}", ["--jobs", str(jobs), "persist", "--axiom", "mp",
                                      "--fillin", "empty", "--samples", "200", "--seed", "1",
                                      "--expect", "fail"], [])
        for jobs in (1, 2)
    ],
    # the squeeze draws force every row into its upset, over the ICC modes
    ("persist-squeeze", ["persist", "--axiom", "four_c", "--fillin", "squeeze",
                         "--samples", "20", "--seed", "0"], []),
    # the strong repair sandwiches each row between two copies of the order
    ("persist-strong", ["persist", "--strong", "--axiom", "unit", "--fillin", "transitive",
                        "--samples", "20", "--seed", "0"], []),
    ("search-found", ["search", "--logic", "HLCflat", "--refute", "(p -> q) -> (p ~> q)",
                      "--max-worlds", "2", "--out", "cm"],
     ["cm/frame.json", "cm/valuation.json"]),
    ("search-found-sampled", ["search", "--logic", "ICK", "--refute", "q | (q -> (p | ~p))",
                              "--max-worlds", "3", "--samples", "50"], []),
    ("search-inconclusive", ["search", "--logic", "iKRI", "--refute", "p -> p",
                             "--max-worlds", "3", "--samples", "20"], []),
    *[
        (f"fillin-{kind}", ["fillin", "--frame", "g.json", "--kind", kind,
                            "--out", f"filled-{kind}.json"], [f"filled-{kind}.json"])
        for kind in KINDS
    ],
    ("dualize", ["dualize", "--algebra", "a.json", "--out", "dual.json"], ["dual.json"]),
    ("roundtrip-frame", ["roundtrip", "--frame", "s.json"], []),
    ("roundtrip-algebra", ["roundtrip", "--algebra", "a.json"], []),
]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def write_inputs(workdir: Path) -> None:
    for name, obj in INPUTS.items():
        (workdir / name).write_text(json.dumps(obj, sort_keys=True) + "\n")


def run_case(workdir: Path, argv, outputs) -> dict:
    """Run one case inside ``workdir``; exit code plus output digests."""
    from condlogic import cli

    stdout = io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(stdout):
            code = cli.main(["--json", *argv])
    finally:
        os.chdir(cwd)
    return {
        "exit": code,
        "stdout_sha256": _sha256(stdout.getvalue().encode()),
        "outputs": {name: _sha256((workdir / name).read_bytes()) for name in outputs},
    }


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("golden")
    write_inputs(path)
    return path


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_corpus_matches_recorded_cases(golden):
    assert sorted(golden) == sorted(name for name, _, _ in CORPUS)


@pytest.mark.parametrize("name,argv,outputs", CORPUS, ids=[c[0] for c in CORPUS])
def test_golden(workdir, golden, name, argv, outputs):
    assert run_case(workdir, argv, outputs) == golden[name]


def record() -> None:
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        write_inputs(workdir)
        results = {name: run_case(workdir, argv, outputs) for name, argv, outputs in CORPUS}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(results, sort_keys=True, indent=2) + "\n")
    print(f"recorded {len(results)} cases to {GOLDEN}")


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    record()
