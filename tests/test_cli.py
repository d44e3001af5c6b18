import enum
import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from condlogic import cli
from condlogic.algebra import complex_algebra
from condlogic.frames import frame_from_json, frame_to_json
from condlogic.generate import random_full_frame

from conftest import algebra_to_json, full_frame, general_frame, m, preorder


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture
def one_world_files(tmp_path, single):
    frame = full_frame(single)
    frame_path = write(tmp_path / "frame.json", frame_to_json(frame))
    val_path = write(tmp_path / "val.json", {"p": [0], "q": []})
    return frame_path, val_path


class TestParseCommand:
    def test_reprints(self, capsys):
        code, out, _ = run(capsys, "parse", "p ~> (q & r)")
        assert code == 0 and out.strip() == "p ~> q & r"

    def test_json_envelope(self, capsys):
        code, out, _ = run(capsys, "--json", "parse", "p ~> p")
        obj = json.loads(out)
        assert obj["tool"] == "clc" and obj["command"] == "parse"
        assert obj["result"]["letters"] == ["p"]
        assert "version" in obj and "seed" in obj and "inputs" in obj

    def test_parse_error_is_usage_error(self, capsys):
        code, _, err = run(capsys, "parse", "p @ q")
        assert code == 2 and "error" in err

    def test_language_flag(self, capsys):
        code, out, _ = run(capsys, "parse", "--language", "modal", "[]q")
        assert code == 0 and out.strip() == "[]q"


class TestMcCommand:
    def test_refutes_mpp_on_countermodel(self, capsys, one_world_files):
        frame_path, val_path = one_world_files
        code, out, _ = run(capsys, "mc", "--frame", frame_path, "--val", val_path,
                           "--formula", "(p ~> q) -> (p -> q)", "--world", "0")
        assert code == 1

    def test_holds_without_world_means_every_world(self, capsys, one_world_files):
        frame_path, val_path = one_world_files
        code, _, _ = run(capsys, "mc", "--frame", frame_path, "--val", val_path,
                         "--formula", "p ~> true")
        assert code == 0

    def test_bad_valuation_rejected(self, capsys, tmp_path, chain2):
        frame_path = write(tmp_path / "f.json", frame_to_json(full_frame(chain2)))
        val_path = write(tmp_path / "v.json", {"p": [0]})  # not an upset
        code, _, err = run(capsys, "mc", "--frame", frame_path, "--val", val_path,
                           "--formula", "p")
        assert code == 2 and "error" in err


class TestValidCommand:
    def test_countermodel_report_shape(self, capsys, tmp_path, single):
        frame_path = write(tmp_path / "f1.json", frame_to_json(full_frame(single)))
        code, out, _ = run(capsys, "--json", "valid", "--frame", frame_path,
                           "--formula", "(p ~> q) -> (p -> q)")
        assert code == 1
        obj = json.loads(out)
        cm = obj["result"]["countermodel"]
        assert cm == {"valuation": {"p": [0], "q": []}, "world": 0}

    def test_json_report_calls_no_json_dumps(self, capsys, tmp_path, single, monkeypatch):
        # the report holds an empty list, which the writer lays out itself,
        # and the text line, which needs json.dumps, is not built under --json
        frame_path = write(tmp_path / "f1.json", frame_to_json(full_frame(single)))
        argv = ("valid", "--frame", frame_path, "--formula", "(p ~> q) -> (p -> q)")
        code, text, _ = run(capsys, *argv)
        assert code == 1 and text == 'refuted at world 0 under {"p": [0], "q": []}\n'
        _, want, _ = run(capsys, "--json", *argv)

        def no_dumps(*args, **kwargs):
            raise AssertionError("json.dumps was called")

        monkeypatch.setattr(json, "dumps", no_dumps)
        code, out, _ = run(capsys, "--json", *argv)
        assert code == 1 and out == want
        assert '"q": []' in out

    def test_valid_formula(self, capsys, tmp_path, single):
        frame_path = write(tmp_path / "f.json", frame_to_json(full_frame(single)))
        code, out, _ = run(capsys, "valid", "--frame", frame_path,
                           "--formula", "p ~> true")
        assert code == 0 and out.strip() == "valid"

    def test_countermodel_feeds_back_into_mc(self, capsys, tmp_path, single):
        frame_path = write(tmp_path / "f.json", frame_to_json(full_frame(single)))
        out_path = tmp_path / "cm.json"
        code, out, _ = run(capsys, "--json", "valid", "--frame", frame_path,
                           "--formula", "(p ~> q) -> (p -> q)",
                           "--out", str(out_path))
        world = json.loads(out)["result"]["countermodel"]["world"]
        code2, _, _ = run(capsys, "mc", "--frame", frame_path,
                          "--val", str(out_path),
                          "--formula", "(p ~> q) -> (p -> q)",
                          "--world", str(world))
        assert code2 == 1  # independent confirmation of the refutation

    def test_budget_flag(self, capsys, tmp_path, chain2):
        frame_path = write(tmp_path / "f.json", frame_to_json(full_frame(chain2)))
        code, _, err = run(capsys, "valid", "--frame", frame_path,
                           "--formula", "p ~> q", "--budget", "3")
        assert code == 2 and "budget" in err


class TestCorrespondCommand:
    def test_holds(self, capsys, tmp_path, anti2):
        frame_path = write(tmp_path / "f.json", frame_to_json(full_frame(anti2)))
        code, _, _ = run(capsys, "correspond", "--frame", frame_path, "--axiom", "id")
        assert code == 0

    def test_violation_reports_witness(self, capsys, tmp_path, single):
        f = full_frame(single, {0: (m(0),)})
        frame_path = write(tmp_path / "f.json", frame_to_json(f))
        code, out, _ = run(capsys, "--json", "correspond", "--frame", frame_path,
                           "--axiom", "id")
        assert code == 1
        witness = json.loads(out)["result"]["witness"]
        assert witness == {"a": [], "b": None, "world": 0}

    def test_expl_names_the_empty_upset(self, capsys, tmp_path):
        frame_path = write(tmp_path / "f.json", {
            "worlds": 1, "leq": [[0, 0]], "admissible": "all",
            "relations": {"": [[0, 0]], "0": []}})
        code, out, _ = run(capsys, "--json", "correspond", "--frame", frame_path,
                           "--axiom", "expl")
        assert code == 1
        witness = json.loads(out)["result"]["witness"]
        assert witness == {"a": [], "b": None, "world": 0}


class TestVerifyCorrespondenceCommand:
    def test_exhaustive_two_worlds(self, capsys):
        code, out, _ = run(capsys, "--json", "verify-correspondence",
                           "--axiom", "expl", "--max-worlds", "2")
        assert code == 0
        assert json.loads(out)["result"]["exhaustive_frames"] == 68302

    def test_id_equivalence_holds_on_every_frame(self, capsys):
        code, _, _ = run(capsys, "verify-correspondence", "--axiom", "id",
                         "--max-worlds", "2")
        assert code == 0

    def test_infeasible_is_usage_error(self, capsys):
        code, _, err = run(capsys, "verify-correspondence", "--axiom", "id",
                           "--max-worlds", "4")
        assert code == 2 and "sampling" in err


class TestFillinCommand:
    def test_writes_full_frame(self, capsys, tmp_path, anti2):
        g = general_frame(anti2, (0, m(0, 1)),
                          {0: (0, 0), m(0, 1): (m(0), m(1))})
        frame_path = write(tmp_path / "g.json", frame_to_json(g))
        out_path = tmp_path / "filled.json"
        code, _, _ = run(capsys, "fillin", "--frame", frame_path,
                         "--kind", "empty", "--out", str(out_path))
        assert code == 0
        filled = frame_from_json(json.loads(out_path.read_text()))
        assert filled.is_full

    def test_squeeze_precondition_violation_is_usage_error(self, capsys, tmp_path, anti2):
        # both empty-set rows nonempty: closure still holds, id-corr fails
        g = general_frame(anti2, (0, m(0, 1)),
                          {0: (m(0), m(1)), m(0, 1): (0, 0)})
        frame_path = write(tmp_path / "g.json", frame_to_json(g))
        code, _, err = run(capsys, "fillin", "--frame", frame_path,
                           "--kind", "squeeze", "--out", str(tmp_path / "x.json"))
        assert code == 2 and "squeeze" in err


class TestPersistCommand:
    def test_persistent_pair(self, capsys):
        code, out, _ = run(capsys, "--json", "persist", "--axiom", "id",
                           "--fillin", "empty", "--samples", "25", "--seed", "1")
        assert code == 0
        assert json.loads(out)["result"]["failures"] == 0

    def test_refuted_pair_with_expect_fail(self, capsys):
        code, out, _ = run(capsys, "--json", "persist", "--axiom", "mp",
                           "--fillin", "empty", "--samples", "200", "--seed", "1",
                           "--expect", "fail")
        assert code == 0
        assert json.loads(out)["result"]["counterexample"] is not None

    def test_byte_identical_reports(self, capsys):
        args = ("--json", "persist", "--axiom", "unit", "--fillin", "union",
                "--samples", "20", "--seed", "9")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2

    def test_jobs_flag_keeps_output(self, capsys):
        base = ("persist", "--axiom", "cs", "--fillin", "principal",
                "--samples", "16", "--seed", "3")
        _, out1, _ = run(capsys, "--json", *base)
        _, out2, _ = run(capsys, "--json", "--jobs", "2", *base)
        assert out1 == out2


class TestDualizeAndRoundtrip:
    def test_dualize_then_roundtrip(self, capsys, tmp_path, rng):
        f = random_full_frame(rng, 2, strong=True)
        alg = complex_algebra(f)
        alg_path = write(tmp_path / "alg.json", algebra_to_json(alg))
        out_path = tmp_path / "dual.json"
        code, _, _ = run(capsys, "dualize", "--algebra", alg_path,
                         "--out", str(out_path))
        assert code == 0
        code2, _, _ = run(capsys, "roundtrip", "--frame", str(out_path))
        assert code2 == 0
        code3, _, _ = run(capsys, "roundtrip", "--algebra", alg_path)
        assert code3 == 0

    def test_frame_roundtrip_reads_a_listed_full_family_as_all(self, capsys, tmp_path):
        spelled = {}
        for name, admissible in (("all", "all"), ("listed", [[], [1], [0, 1]])):
            path = write(tmp_path / f"{name}.json", _chain2_with(admissible=admissible))
            code, out, err = run(capsys, "roundtrip", "--frame", path)
            code_json, out_json, _ = run(capsys, "--json", "roundtrip", "--frame", path)
            spelled[name] = (code, out, err, code_json, json.loads(out_json)["result"])
        assert spelled["listed"] == spelled["all"]
        assert spelled["all"][:3] == (0, "success\n", "")

    def test_frame_roundtrip_refuses_a_general_frame(self, capsys, tmp_path):
        obj = _chain2_with(admissible=[[], [0, 1]], relations={"": [], "0,1": []})
        code, out, err = run(capsys, "roundtrip", "--frame", write(tmp_path / "g.json", obj))
        assert (code, out, err) == (2, "", "error: frame round-trips need a full conditional frame\n")

    def test_frame_roundtrip_above_the_cap_is_a_usage_error(self, capsys, tmp_path):
        path = write(tmp_path / "anti5.json", frame_to_json(full_frame(preorder(5))))
        code, out, err = run(capsys, "--json", "roundtrip", "--frame", path)
        assert (code, out, err) == (
            2, "", "error: prime filter scan is capped at carrier size 20, got 32\n")

    @pytest.mark.parametrize("obj, message", [
        ({"worlds": 2, "leq": [[0, 1], [1, 0]], "admissible": "all",
          "relations": {"": [], "0,1": []}},
         "frame order must be a poset (otherwise eta is not injective)"),
        ({"worlds": 2, "leq": [[0, 1]], "admissible": "all",
          "relations": {"": [], "1": [], "0,1": [[0, 0]]}},
         "frame must satisfy the strong coherence condition for the round-trip"),
    ])
    def test_frame_roundtrip_refuses_a_cluster_and_a_weakly_coherent_chain(
            self, capsys, tmp_path, obj, message):
        code, out, err = run(capsys, "roundtrip", "--frame", write(tmp_path / "f.json", obj))
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_roundtrip_needs_exactly_one_input(self, capsys):
        code, _, err = run(capsys, "roundtrip")
        assert code == 2


class TestTranslateCommand:
    def test_gmt_example(self, capsys):
        code, out, _ = run(capsys, "translate", "--mode", "gmt", "[]q")
        assert code == 0 and out.strip() == "[I][M][I]q"

    def test_p_mode_with_letter(self, capsys):
        code, out, _ = run(capsys, "translate", "--mode", "p", "--letter", "s",
                           "q -> []q")
        assert code == 0 and out.strip() == "q -> s ~> q"

    @pytest.mark.parametrize("formula", ["p", "q -> []q"])
    def test_a_bad_letter_is_refused_with_or_without_a_box(self, capsys, formula):
        code, out, err = run(capsys, "translate", "--mode", "p", "--letter", "1", formula)
        assert (code, out, err) == (2, "", "error: bad proposition letter '1'\n")


class TestSearchCommand:
    def test_found_countermodel_roundtrips_through_mc(self, capsys, tmp_path):
        outdir = tmp_path / "cm"
        code, _, _ = run(capsys, "search", "--logic", "ICK",
                         "--refute", "(p ~> q) -> (p -> q)",
                         "--max-worlds", "2", "--out", str(outdir))
        assert code == 1
        code2, _, _ = run(capsys, "mc", "--frame", str(outdir / "frame.json"),
                          "--val", str(outdir / "valuation.json"),
                          "--formula", "(p ~> q) -> (p -> q)", "--world", "0")
        assert code2 == 1

    def test_exhausted_is_exit_zero(self, capsys):
        code, out, _ = run(capsys, "--json", "search", "--logic", "ICK",
                           "--refute", "p -> p", "--max-worlds", "2")
        assert code == 0
        assert json.loads(out)["result"]["found"] is False


class TestMalformedInput:
    """Malformed files are usage errors (exit 2), never a traceback or a guess."""

    @pytest.mark.parametrize("key,value", [
        ("leq", [[0]]),  # a pair of one index
        ("relations", {"": [], "1": [], "0,1": [[0, 0.5]]}),  # a fractional world
        ("relations", {"": [], "1": [], "0,1": [], "1,0": [[0, 1]]}),  # two keys, one upset
    ])
    def test_frame(self, capsys, tmp_path, chain2, key, value):
        obj = frame_to_json(full_frame(chain2))
        obj[key] = value
        frame_path = write(tmp_path / "f.json", obj)
        code, _, err = run(capsys, "valid", "--frame", frame_path, "--formula", "p")
        assert code == 2 and "error" in err

    @pytest.mark.parametrize("worlds", ["0", [0.0]])
    def test_valuation(self, capsys, one_world_files, tmp_path, worlds):
        frame_path, _ = one_world_files
        val_path = write(tmp_path / "bad_val.json", {"p": worlds})
        code, _, err = run(capsys, "mc", "--frame", frame_path, "--val", val_path,
                           "--formula", "p")
        assert code == 2 and "error" in err

    def test_algebra_leq_pair_of_one_index(self, capsys, tmp_path, single):
        obj = algebra_to_json(complex_algebra(full_frame(single)))
        obj["leq"] = [[0]]
        alg_path = write(tmp_path / "a.json", obj)
        code, _, err = run(capsys, "roundtrip", "--algebra", alg_path)
        assert code == 2 and "error" in err

    def test_frame_path_is_a_directory(self, capsys, tmp_path):
        code, _, err = run(capsys, "valid", "--frame", str(tmp_path), "--formula", "p")
        assert code == 2 and "error" in err

    def test_frame_file_is_not_utf8(self, capsys, tmp_path):
        frame_path = tmp_path / "f.json"
        frame_path.write_bytes(b'{"worlds": 1, "leq": "\xff"}')
        code, _, err = run(capsys, "valid", "--frame", str(frame_path), "--formula", "p")
        assert code == 2 and "error" in err

    def test_out_path_is_a_directory(self, capsys, one_world_files, tmp_path):
        frame_path, _ = one_world_files
        code, _, err = run(capsys, "valid", "--frame", frame_path,
                           "--formula", "(p ~> q) -> (p -> q)", "--out", str(tmp_path))
        assert code == 2 and "error" in err


CHAIN2_FRAME = {"worlds": 2, "leq": [[0, 0], [0, 1], [1, 1]], "admissible": "all",
                "relations": {"": [], "1": [], "0,1": []}}


def _chain2_with(entries=None, **fields):
    """The 2-chain frame with relation ``entries`` added or replaced, then
    top-level ``fields`` replaced."""
    obj = json.loads(json.dumps(CHAIN2_FRAME))
    obj["relations"].update(entries or {})
    obj.update(fields)
    return obj


class TestFrameErrorMessages:
    """The loader's exact message for each kind of malformed frame, and which
    error wins when a file has several: the first in file order, a key before
    its own pairs."""

    @pytest.mark.parametrize("obj,line", [
        (_chain2_with({"0,1": [[0, True]]}),
         "relation index True is not an int in 0..1"),
        (_chain2_with(leq=[[0, 1.0]]),
         "leq index 1.0 is not an int in 0..1"),
        (_chain2_with({"1": [[0, 2]]}),
         "relation index 2 is not an int in 0..1"),
        (_chain2_with(leq=[[0, 1, 1]]),
         "bad leq pair [0, 1, 1]"),
        (_chain2_with({"1": {"0": 1}}),
         "relation must be a list, not {'0': 1}"),
        (_chain2_with({"1,0": []}),
         "upset key '1,0' is not ascending and comma-joined"),
        (_chain2_with({" 1": []}),
         "upset key ' 1' is not ascending and comma-joined"),
        (_chain2_with({"2": []}),
         "upset key '2' index 2 is not an int in 0..1"),
        (_chain2_with({"": [[1, 0]]}),
         "frame fails validation: [coherence] relation at {} violates leq-compatibility"),
        (_chain2_with(relations={"": [], "0,1": []}),
         "a conditional frame needs a relation for every upset; missing ['1']"),
        ({"worlds": 3, "leq": [[0, 1], [1, 2]], "admissible": "all", "relations": {}},
         "leq is not transitive at (0, 1)"),
        (_chain2_with(relations={"": [[0, 5]], "x": []}),
         "relation index 5 is not an int in 0..1"),
        (_chain2_with(relations={"x": [[0, 5]]}),
         "bad upset key 'x'"),
        (_chain2_with({"0": []}),
         "a conditional frame needs a relation for every upset, and only for upsets; "
         "key '0' is not an upset"),
        (_chain2_with({"1": [[1, 0]]}, admissible=[[], [1], [0, 1]]),
         "frame fails validation: [coherence] relation at {1} violates leq-compatibility; "
         "[closure-cond] {1} |> {} = {0} is not admissible; "
         "[closure-cond] {1} |> {1} = {0} is not admissible"),
    ])
    def test_exit_2_with_exact_message(self, capsys, tmp_path, obj, line):
        frame_path = write(tmp_path / "f.json", obj)
        code, out, err = run(capsys, "--json", "valid", "--frame", frame_path,
                             "--formula", "p")
        assert (code, out, err) == (2, "", f"error: {line}\n")

    def test_a_frame_missing_every_upset_gets_a_short_message(self, capsys, tmp_path):
        # 65 536 upsets, none with a relation: the message lists four
        obj = {"worlds": 16, "leq": [], "admissible": "all", "relations": {}}
        frame_path = write(tmp_path / "f.json", obj)
        code, out, err = run(capsys, "valid", "--frame", frame_path, "--formula", "p")
        assert (code, out, err) == (
            2, "", "error: a conditional frame needs a relation for every upset; "
                   "missing ['', '0', '1', '0,1'] and 65532 more\n")


class TestDeepNesting:
    """Input nested past the recursion limit is a usage error, not a traceback."""

    NESTED = "error: input nested too deeply\n"

    def test_frame_file(self, capsys, tmp_path):
        frame_path = tmp_path / "f.json"
        frame_path.write_text("[" * 200000 + "]" * 200000)
        code, out, err = run(capsys, "valid", "--frame", str(frame_path), "--formula", "p")
        assert (code, out, err) == (2, "", self.NESTED)

    @pytest.mark.parametrize("formula", ["(" * 5000 + "p" + ")" * 5000, "~" * 3000 + "p"],
                             ids=["parentheses", "negations"])
    def test_formula(self, capsys, one_world_files, formula):
        frame_path, _ = one_world_files
        code, out, err = run(capsys, "valid", "--frame", frame_path, "--formula", formula)
        assert (code, out, err) == (2, "", self.NESTED)

    def test_parentheses_below_the_cap(self, capsys, one_world_files):
        # each parenthesis level costs the parser two stack frames, so 300
        # levels parse under the default limit and change nothing
        frame_path, _ = one_world_files
        nested = "(" * 300 + "p" + ")" * 300
        reports = []
        for formula in ("p", nested):
            code, out, err = run(capsys, "--json", "valid", "--frame", frame_path,
                                 "--formula", formula)
            report = json.loads(out)
            assert report["inputs"].pop("formula") == formula
            reports.append((code, report, err))
        assert reports[0] == reports[1]
        assert reports[0][0] == 1

    def test_valuation_file(self, capsys, one_world_files, tmp_path):
        frame_path, _ = one_world_files
        val_path = tmp_path / "v.json"
        val_path.write_text('{"p": ' + "[" * 200000 + "]" * 200000 + "}")
        code, out, err = run(capsys, "mc", "--frame", frame_path, "--val", str(val_path),
                             "--formula", "p")
        assert (code, out, err) == (2, "", self.NESTED)


class TestLoadInput:
    """Each input is read once: the JSON and the digest come from the same bytes."""

    @pytest.mark.parametrize("data", [
        b'{"p": [0],\r\n "q": []}\r\n',
        b'{"p": [0],\r\n "q": }\r\n',  # CRLF before the error: same line and column
        b'{"p":\r [0,]}',
        b'\xef\xbb\xbf{"p": []}',  # a BOM is refused, as text-mode json.load refuses it
        b'{"p": "\xff"}',
    ])
    def test_same_result_as_json_load_in_text_mode(self, tmp_path, data):
        path = tmp_path / "in.json"
        path.write_bytes(data)

        def outcome(load):
            try:
                return load()
            except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
                return type(exc), str(exc)

        def text_mode():
            with open(path, "r", encoding="utf-8") as handle:
                return json.load(handle)

        assert outcome(lambda: cli._load_input(str(path))[0]) == outcome(text_mode)

    def test_digest_is_of_the_loaded_bytes(self, tmp_path):
        path = tmp_path / "in.json"
        path.write_bytes(b'{"p": [0]}\r\n')
        obj, digest = cli._load_input(str(path))
        assert obj == {"p": [0]}
        assert digest == {"path": str(path),
                          "sha256": hashlib.sha256(b'{"p": [0]}\r\n').hexdigest()}


    def test_fillin_over_its_own_input_reports_the_loaded_bytes(self, capsys, tmp_path, anti2):
        g = general_frame(anti2, (0, m(0, 1)), {0: (0, 0), m(0, 1): (m(0), m(1))})
        frame_path = write(tmp_path / "g.json", frame_to_json(g))
        loaded = hashlib.sha256((tmp_path / "g.json").read_bytes()).hexdigest()
        code, out, _ = run(capsys, "--json", "fillin", "--frame", frame_path,
                           "--kind", "empty", "--out", frame_path)
        assert code == 0
        assert json.loads(out)["inputs"]["frame"]["sha256"] == loaded

class TestCountArguments:
    """Counts out of range are rejected when the flags are parsed (exit 2)."""

    @pytest.mark.parametrize("argv", [
        ["--jobs", "0", "persist", "--axiom", "id", "--fillin", "empty", "--samples", "1"],
        ["--jobs", "-3", "persist", "--axiom", "id", "--fillin", "empty", "--samples", "1"],
        ["persist", "--axiom", "id", "--fillin", "empty", "--samples", "0"],
        ["persist", "--axiom", "mp", "--fillin", "empty", "--samples", "-4",
         "--expect", "fail"],
        ["verify-correspondence", "--axiom", "id", "--max-worlds", "0"],
        ["verify-correspondence", "--axiom", "id", "--samples", "-1"],
        ["search", "--logic", "ICK", "--refute", "p", "--max-worlds", "0"],
        ["search", "--logic", "ICK", "--refute", "p", "--samples", "-1"],
        ["persist", "--axiom", "id", "--fillin", "empty", "--samples", "two"],
    ])
    def test_rejected(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and "error" in err and out == ""

    @pytest.mark.parametrize("argv", [
        ["verify-correspondence", "--axiom", "id", "--max-worlds", "1", "--samples", "0"],
        ["search", "--logic", "ICK", "--refute", "p -> p", "--max-worlds", "1",
         "--samples", "0"],
    ])
    def test_zero_samples_stay_legal(self, capsys, argv):
        code, _, _ = run(capsys, *argv)
        assert code == 0


class TestDeterminism:
    def test_search_reports_are_byte_identical(self, capsys):
        args = ("--json", "search", "--logic", "HLCflat",
                "--refute", "(p -> q) -> (p ~> q)", "--max-worlds", "2",
                "--seed", "0")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2

    def test_reports_embed_version_seed_and_digests(self, capsys, tmp_path, single):
        frame_path = write(tmp_path / "f.json", frame_to_json(full_frame(single)))
        _, out, _ = run(capsys, "--json", "mc", "--frame", frame_path,
                        "--val", write(tmp_path / "v.json", {"p": [0]}),
                        "--formula", "p ~> true")
        obj = json.loads(out)
        assert obj["version"]
        assert "sha256" in obj["inputs"]["frame"]

    def test_missing_file_is_usage_error(self, capsys):
        code, _, err = run(capsys, "mc", "--frame", "/nonexistent.json",
                           "--val", "/nonexistent2.json", "--formula", "p")
        assert code == 2


class TestRepeatedCalls:
    """``main`` reuses one parser per process: calls must not affect each other."""

    CASES = {
        "valid-holds": ["valid", "--frame", "f.json", "--formula", "p ~> true"],
        "valid": ["--json", "valid", "--frame", "f.json", "--formula", "(p ~> q) -> (p -> q)"],
        "translate": ["translate", "--mode", "gmt", "[]q"],
        "parse": ["--json", "parse", "p ~> (q & r)"],
        "mc": ["mc", "--frame", "f.json", "--val", "v.json", "--formula", "p ~> p",
               "--world", "0"],
        "correspond": ["--json", "correspond", "--frame", "f.json", "--axiom", "mp"],
        "missing-flag": ["valid", "--frame", "f.json"],
        "unknown-command": ["frobnicate", "--frame", "f.json"],
        "help": ["-h"],
        "valid-help": ["valid", "-h"],
        "jobs-zero": ["--jobs", "0", "parse", "p"],
        "parse-error": ["parse", "p @ q"],
        "missing-file": ["valid", "--frame", "missing.json", "--formula", "p"],
        "malformed-frame": ["valid", "--frame", "bad.json", "--formula", "p"],
    }
    FIRST = list(CASES)
    SECOND = FIRST[1::2][::-1] + FIRST[0::2]
    # also checked against a fresh interpreter: plain and --json successes,
    # a usage error and a load error
    FRESH = ("valid-holds", "valid", "missing-flag", "malformed-frame")

    @pytest.fixture
    def workdir(self, tmp_path, monkeypatch, chain2):
        write(tmp_path / "f.json", frame_to_json(full_frame(chain2)))
        write(tmp_path / "v.json", {"p": [1], "q": []})
        bad = frame_to_json(full_frame(chain2))
        bad["leq"] = [[0]]
        write(tmp_path / "bad.json", bad)
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal width
        return tmp_path

    def call(self, capsysbinary, name):
        code = cli.main(list(self.CASES[name]))
        captured = capsysbinary.readouterr()
        return code, captured.out, captured.err.decode()

    def test_same_results_in_any_order(self, capsysbinary, workdir):
        first = {}
        for name in self.FIRST:
            first[name] = self.call(capsysbinary, name)
        assert {code for code, _, _ in first.values()} == {0, 1, 2}
        assert sorted(self.SECOND) == sorted(self.FIRST)
        for name in self.SECOND + self.FIRST:
            assert self.call(capsysbinary, name) == first[name], name

    def test_same_results_as_a_fresh_process(self, capsysbinary, workdir):
        src = str(Path(cli.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        for name in self.FIRST:  # warm the in-process parser on every case first
            self.call(capsysbinary, name)
        for name in self.FRESH:
            fresh = subprocess.run([sys.executable, "-m", "condlogic.cli", *self.CASES[name]],
                                   cwd=workdir, env=env, capture_output=True, timeout=60)
            expected = (fresh.returncode, fresh.stdout, fresh.stderr.decode())
            assert self.call(capsysbinary, name) == expected, name

    def test_build_parser_returns_a_parser_main_does_not_share(self, capsys):
        parser = cli.build_parser()
        assert parser is not cli.build_parser()
        parser.set_defaults(json=True)
        code, out, _ = run(capsys, "parse", "p ~> p")
        assert code == 0 and out == "p ~> p\n"


class _Level(enum.IntEnum):
    LOW = 1
    HIGH = 2


# escapes, control characters, non-ASCII, an astral character and a lone
# surrogate
_STRINGS = ["", "p", "0,1", 'a "quoted" \\ path/x', "tab\tnew\nline\r", "\x00\x1f\x7f",
            "caf\u00e9", "\u2603", "\U0001f600", "\ud800"]
_LEAVES = [
    lambda rng: rng.choice(_STRINGS) + rng.choice(_STRINGS),
    lambda rng: rng.randint(-300, 300),
    lambda rng: rng.randint(-2 ** 90, 2 ** 90),
    lambda rng: rng.choice([True, False, None]),
    lambda rng: rng.choice([0.0, -0.0, 0.1, -2.5e300, 1e-7, float("nan"), float("inf"),
                            float("-inf")]),
    lambda rng: rng.choice(list(_Level)),
]
# key sets json can sort: strings, numbers (ints, floats, bools and IntEnum
# members compare with one another), or None alone
_KEYS = [
    lambda rng, size: [rng.choice(_STRINGS) + str(i) for i in range(size)],
    lambda rng, size: rng.sample([0, 1, -7, 2 ** 70, 2.5, float("inf"), True, _Level.HIGH], size),
    lambda rng, size: [None][:size],
]


def _random_json_value(rng, depth):
    roll = rng.random()
    if depth == 0 or roll < 0.4:
        return rng.choice(_LEAVES)(rng)
    size = rng.randint(0, 4)
    if roll < 0.6:
        return [_random_json_value(rng, depth - 1) for _ in range(size)]
    if roll < 0.7:
        return tuple(_random_json_value(rng, depth - 1) for _ in range(size))
    keys = _KEYS[0](rng, size) if roll < 0.9 else rng.choice(_KEYS)(rng, size)
    return {key: _random_json_value(rng, depth - 1) for key in keys}


class TestJsonWriter:
    """Reports and files are written byte for byte as
    ``json.dumps(obj, sort_keys=True, indent=2)`` writes them."""

    def test_random_values(self):
        rng = random.Random(27)
        for _ in range(4000):
            obj = _random_json_value(rng, rng.randint(0, 5))
            assert cli._json_text(obj) == json.dumps(obj, sort_keys=True, indent=2), obj

    def test_saved_file(self, tmp_path):
        rng = random.Random(28)
        path = tmp_path / "out.json"
        for _ in range(50):
            obj = {"frame": _random_json_value(rng, 4), "valuation": {"p": [0, 2], "q": []}}
            cli._save_json(str(path), obj)
            assert path.read_bytes() == (json.dumps(obj, sort_keys=True, indent=2)
                                         + "\n").encode()

    @pytest.mark.parametrize("obj", [{"a": object()}, [1, {2, 3}], {"a": 1, 2: "b"}],
                             ids=["object", "set", "mixed-keys"])
    def test_unserializable_values_raise_as_json_does(self, obj):
        with pytest.raises(TypeError) as want:
            json.dumps(obj, sort_keys=True, indent=2)
        with pytest.raises(TypeError) as got:
            cli._json_text(obj)
        assert str(got.value) == str(want.value)
