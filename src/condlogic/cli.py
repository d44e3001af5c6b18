"""Command line front end.

Every command is pure given its flags, input files and seed: reports carry
no timestamps, JSON output is key-sorted, and sampling commands derive all
randomness from the seed (default 0, always printed), so identical
invocations produce byte-identical ``--json`` output.

Exit codes: 0 success or property holds; 1 refuted or counterexample
found; 2 usage or validation error, including input nested deeper than
the interpreter's recursion limit allows.

``main`` builds its argument parser once per process, on its first call,
and reuses it, so it can be called repeatedly in one process (tests,
benchmarks, library callers) with the same exit codes and bytes as a fresh
``clc`` process.  ``build_parser`` still returns a new parser on each call.
Each input file is read once; its ``sha256`` in the report is that of the
bytes loaded.

Reports and output files are written by one function, ``_json_text``, with
the same bytes as ``json.dumps(obj, sort_keys=True, indent=2)`` but
without ``json``'s pure-Python encoder, which an indent selects.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
from pathlib import Path

from . import __version__, algebra, catalog, fillins, frames, semantics, translate
from .errors import ClcError
from .order import mask_to_worlds
from .syntax import Language, parse, print_formula, proposition_letters

EXIT_OK = 0
EXIT_REFUTED = 1
EXIT_USAGE = 2


def _load_input(path: str):
    """The decoded JSON of the file at ``path`` and the digest of the same bytes.

    The file is read once, so the digest names exactly the bytes loaded.
    The bytes are decoded as a UTF-8 text-mode read would decode them
    (universal newlines), so error messages match ``json.load`` on ``open``.
    """
    with open(path, "rb") as handle:
        data = handle.read()
    text = data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
    return json.loads(text), {"path": path, "sha256": hashlib.sha256(data).hexdigest()}


def _load_frame(path: str):
    """The frame in the file at ``path`` and the digest of its bytes."""
    frame_json, digest = _load_input(path)
    # through the module attribute, so a wrapper installed on
    # frames.frame_from_json (profilers, tracers) sees every load
    return frames.frame_from_json(frame_json), digest


_encode_str = json.encoder.encode_basestring_ascii


def _json_text(obj) -> str:
    """``json.dumps(obj, sort_keys=True, indent=2)``, byte for byte.

    With an indent, ``json`` runs its pure-Python encoder.  This lays out
    dicts, lists and tuples itself, writes strings with the C string
    encoder, exact ints with ``int.__repr__`` and ``True``, ``False`` and
    ``None`` as constants, and hands anything else (floats, subclasses of
    ``int``, dicts with a key that is not a ``str``) to ``json.dumps``.
    """
    parts = []
    _write_json(obj, "\n", parts.append)
    return "".join(parts)


def _write_json(obj, newline: str, emit) -> None:
    kind = type(obj)
    if kind is str:
        emit(_encode_str(obj))
    elif kind is int:
        emit(int.__repr__(obj))
    elif obj is None:
        emit("null")
    elif obj is True:
        emit("true")
    elif obj is False:
        emit("false")
    elif (kind is list or kind is tuple) and not obj:
        emit("[]")
    elif kind is list or kind is tuple:
        inner = newline + "  "
        sep = "[" + inner
        for item in obj:
            emit(sep)
            _write_json(item, inner, emit)
            sep = "," + inner
        emit(newline + "]")
    elif kind is dict and not obj:
        emit("{}")
    elif kind is dict and all(type(key) is str for key in obj):
        inner = newline + "  "
        sep = "{" + inner
        for key in sorted(obj):
            emit(sep)
            emit(_encode_str(key))
            emit(": ")
            _write_json(obj[key], inner, emit)
            sep = "," + inner
        emit(newline + "}")
    else:
        # json.dumps escapes every newline inside a string, so each one in
        # its text starts a line to indent
        emit(json.dumps(obj, sort_keys=True, indent=2).replace("\n", newline))


def _save_json(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(_json_text(obj) + "\n")


def _envelope(command: str, seed, inputs: dict, result: dict) -> dict:
    return {
        "tool": "clc",
        "version": __version__,
        "command": command,
        "seed": seed,
        "inputs": inputs,
        "result": result,
    }


def _emit(args, envelope: dict, lines) -> None:
    if args.json:
        print(_json_text(envelope))
    else:
        for line in lines:
            print(line)


_LANGUAGES = {lang.value: lang for lang in Language}


def _count(minimum: int):
    """An argparse type: an int no smaller than ``minimum``."""
    def count(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        return value

    return count


def _cmd_parse(args) -> int:
    f = parse(args.formula, _LANGUAGES[args.language])
    printed = print_formula(f)
    result = {
        "formula": args.formula,
        "printed": printed,
        "language": args.language,
        "letters": sorted(proposition_letters(f)),
    }
    _emit(args, _envelope("parse", None, {"formula": args.formula}, result), [printed])
    return EXIT_OK


def _cmd_mc(args) -> int:
    frame, frame_digest = _load_frame(args.frame)
    val_json, val_digest = _load_input(args.val)
    valuation = semantics.valuation_from_json(val_json, frame)
    f = parse(args.formula, Language.COND)
    ts = semantics.truth_set(frame, valuation, f)
    holds_everywhere = ts == frame.order.full_mask
    if args.world is not None:
        holds = semantics.check(frame, valuation, f, args.world)
        code = EXIT_OK if holds else EXIT_REFUTED
    else:
        holds = holds_everywhere
        code = EXIT_OK if holds_everywhere else EXIT_REFUTED
    result = {
        "truth_set": mask_to_worlds(ts),
        "world": args.world,
        "holds": holds,
    }
    inputs = {
        "frame": frame_digest,
        "val": val_digest,
        "formula": args.formula,
    }
    where = f"at world {args.world}" if args.world is not None else "at every world"
    _emit(args, _envelope("mc", None, inputs, result),
          [f"truth set: {mask_to_worlds(ts)}",
           f"{'holds' if holds else 'fails'} {where}"])
    return code


def _cmd_valid(args) -> int:
    frame, frame_digest = _load_frame(args.frame)
    f = parse(args.formula, Language.COND)
    verdict = semantics.valid(frame, f, budget=args.budget)
    inputs = {"frame": frame_digest, "formula": args.formula}
    if verdict.valid:
        result = {"valid": True, "checked": verdict.checked}
        _emit(args, _envelope("valid", None, inputs, result), ["valid"])
        return EXIT_OK
    countermodel = {
        "valuation": semantics.valuation_to_json(verdict.valuation),
        "world": verdict.world,
    }
    if args.out:
        _save_json(args.out, countermodel["valuation"])
    result = {"valid": False, "countermodel": countermodel, "checked": verdict.checked}
    # the text line is formatted only when it is printed
    lines = () if args.json else [f"refuted at world {verdict.world} under "
                                  f"{json.dumps(countermodel['valuation'], sort_keys=True)}"]
    _emit(args, _envelope("valid", None, inputs, result), lines)
    return EXIT_REFUTED


def _cmd_correspond(args) -> int:
    frame, frame_digest = _load_frame(args.frame)
    report = catalog.correspondent_holds(frame, args.axiom)
    inputs = {"frame": frame_digest, "axiom": args.axiom}
    result = {"axiom": args.axiom, "holds": report.holds, "witness": report.witness_json()}
    lines = ["holds"] if report.holds else [f"violated at {report.witness_json()}"]
    _emit(args, _envelope("correspond", None, inputs, result), lines)
    return EXIT_OK if report.holds else EXIT_REFUTED


def _cmd_verify_correspondence(args) -> int:
    report = catalog.verify_correspondence(
        args.axiom, max_worlds=args.max_worlds, samples=args.samples,
        seed=args.seed, jobs=args.jobs,
    )
    result = dict(report)
    lines = [
        f"axiom {args.axiom}: {report['exhaustive_frames']} exhaustive + "
        f"{report['sampled_frames']} sampled frames, seed {args.seed}",
        "equivalence holds" if report["ok"]
        else f"{len(report['discrepancies'])} discrepancies",
    ]
    _emit(args, _envelope("verify-correspondence", args.seed,
                          {"axiom": args.axiom}, result), lines)
    return EXIT_OK if report["ok"] else EXIT_REFUTED


def _cmd_fillin(args) -> int:
    frame, frame_digest = _load_frame(args.frame)
    kind = fillins.FillInKind.from_name(args.kind)
    filled = fillins.fill(frame, kind)
    _save_json(args.out, frames.frame_to_json(filled))
    inputs = {"frame": frame_digest, "kind": args.kind}
    result = {"kind": args.kind, "out": args.out,
              "upsets": len(filled.admissible),
              "admissible_before": len(frame.admissible)}
    _emit(args, _envelope("fillin", None, inputs, result),
          [f"wrote {args.kind} fill-in to {args.out}"])
    return EXIT_OK


def _cmd_persist(args) -> int:
    kind = fillins.FillInKind.from_name(args.fillin)
    report = catalog.persistence_experiment(
        args.axiom, kind, samples=args.samples, seed=args.seed,
        strong=args.strong, expect=args.expect, jobs=args.jobs,
    )
    inputs = {"axiom": args.axiom, "fillin": args.fillin}
    lines = [
        f"axiom {args.axiom} under {args.fillin} fill-in: "
        f"{report['passes']}/{report['samples']} passed, seed {args.seed}",
    ]
    if report["counterexample"] is not None:
        lines.append("counterexample found (see --json for the frame)")
    lines.append("expectation met" if report["ok"] else "expectation NOT met")
    _emit(args, _envelope("persist", args.seed, inputs, report), lines)
    return EXIT_OK if report["ok"] else EXIT_REFUTED


def _cmd_dualize(args) -> int:
    alg_json, alg_digest = _load_input(args.algebra)
    alg = algebra.algebra_from_json(alg_json)
    frame = algebra.dual_frame(alg)
    _save_json(args.out, frames.frame_to_json(frame))
    inputs = {"algebra": alg_digest}
    result = {"worlds": frame.n, "out": args.out}
    _emit(args, _envelope("dualize", None, inputs, result),
          [f"wrote dual frame with {frame.n} worlds to {args.out}"])
    return EXIT_OK


def _cmd_roundtrip(args) -> int:
    if (args.frame is None) == (args.algebra is None):
        raise ClcError("roundtrip takes exactly one of --frame or --algebra")
    if args.frame is not None:
        frame, frame_digest = _load_frame(args.frame)
        if not frame.is_full:
            raise ClcError("frame round-trips need a full conditional frame")
        report = algebra.frame_roundtrip(frame)
        inputs = {"frame": frame_digest}
    else:
        alg_json, alg_digest = _load_input(args.algebra)
        alg = algebra.algebra_from_json(alg_json)
        report = algebra.check_duality_roundtrip(alg)
        inputs = {"algebra": alg_digest}
    result = {"ok": report.ok, "failures": report.failures}
    _emit(args, _envelope("roundtrip", None, inputs, result), [str(report)])
    return EXIT_OK if report.ok else EXIT_REFUTED


def _cmd_translate(args) -> int:
    f = parse(args.formula, Language.MODAL)
    if args.mode == "p":
        out = translate.p_translate(f, args.letter)
    else:
        out = translate.gmt_translate(f, normalize=args.normalize)
    printed = print_formula(out)
    result = {"mode": args.mode, "input": args.formula, "output": printed}
    if args.mode == "p":
        result["letter"] = args.letter
    _emit(args, _envelope("translate", None, {"formula": args.formula}, result),
          [printed])
    return EXIT_OK


def _cmd_search(args) -> int:
    target = parse(args.refute, Language.COND)
    result_obj = catalog.search_countermodel(
        args.logic, target, max_worlds=args.max_worlds,
        samples=args.samples, seed=args.seed,
    )
    inputs = {"logic": args.logic, "refute": args.refute}
    if result_obj.found:
        frame_json = frames.frame_to_json(result_obj.frame)
        valuation_json = semantics.valuation_to_json(result_obj.valuation)
        if args.out:
            outdir = Path(args.out)
            outdir.mkdir(parents=True, exist_ok=True)
            _save_json(str(outdir / "frame.json"), frame_json)
            _save_json(str(outdir / "valuation.json"), valuation_json)
        result = {
            "found": True,
            "frame": frame_json,
            "valuation": valuation_json,
            "world": result_obj.world,
            "frames_checked": result_obj.frames_checked,
        }
        lines = [
            f"countermodel found at world {result_obj.world} "
            f"after {result_obj.frames_checked} frames, seed {args.seed}",
        ]
        if args.out:
            lines.append(f"wrote frame.json and valuation.json to {args.out}")
        _emit(args, _envelope("search", args.seed, inputs, result), lines)
        return EXIT_REFUTED
    result = {
        "found": False,
        "frames_checked": result_obj.frames_checked,
        "frames_matching": result_obj.frames_matching,
    }
    _emit(args, _envelope("search", args.seed, inputs, result),
          [f"exhausted after {result_obj.frames_checked} frames "
           f"(inconclusive), seed {args.seed}"])
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clc",
        description="workbench for intuitionistic conditional logic",
    )
    parser.add_argument("--json", action="store_true", help="machine-readable report")
    parser.add_argument("--jobs", type=_count(1), default=1,
                        help="worker processes for sampling, at most one per CPU core")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="parse and reprint a formula")
    p.add_argument("formula")
    p.add_argument("--language", choices=sorted(_LANGUAGES), default="cond")
    p.set_defaults(fn=_cmd_parse)

    p = sub.add_parser("mc", help="model check a formula on a frame")
    p.add_argument("--frame", required=True)
    p.add_argument("--val", required=True)
    p.add_argument("--formula", required=True)
    p.add_argument("--world", type=int)
    p.set_defaults(fn=_cmd_mc)

    p = sub.add_parser("valid", help="exhaustive validity over valuations")
    p.add_argument("--frame", required=True)
    p.add_argument("--formula", required=True)
    p.add_argument("--budget", type=int, default=semantics.DEFAULT_BUDGET)
    p.add_argument("--out", help="write the countermodel valuation here")
    p.set_defaults(fn=_cmd_valid)

    p = sub.add_parser("correspond", help="check an axiom's frame correspondent")
    p.add_argument("--frame", required=True)
    p.add_argument("--axiom", required=True, choices=sorted(catalog.AXIOMS))
    p.set_defaults(fn=_cmd_correspond)

    p = sub.add_parser("verify-correspondence",
                       help="validity iff correspondent, exhaustive plus sampled")
    p.add_argument("--axiom", required=True, choices=sorted(catalog.AXIOMS))
    p.add_argument("--max-worlds", type=_count(1), default=2)
    p.add_argument("--samples", type=_count(0), default=0)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_verify_correspondence)

    p = sub.add_parser("fillin", help="extend a general frame to a full frame")
    p.add_argument("--frame", required=True)
    p.add_argument("--kind", required=True,
                   choices=[k.value for k in fillins.FillInKind])
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_fillin)

    p = sub.add_parser("persist", help="correspondent-level persistence experiment")
    p.add_argument("--axiom", required=True, choices=sorted(catalog.AXIOMS))
    p.add_argument("--fillin", required=True,
                   choices=[k.value for k in fillins.FillInKind])
    p.add_argument("--samples", type=_count(1), default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--strong", action="store_true",
                   help="generate strongly coherent frames only")
    p.add_argument("--expect", choices=["pass", "fail"], default="pass")
    p.set_defaults(fn=_cmd_persist)

    p = sub.add_parser("dualize", help="dual frame of a finite algebra")
    p.add_argument("--algebra", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_dualize)

    p = sub.add_parser("roundtrip", help="duality round-trip on a frame or algebra")
    p.add_argument("--frame")
    p.add_argument("--algebra")
    p.set_defaults(fn=_cmd_roundtrip)

    p = sub.add_parser("translate", help="box-language translations")
    p.add_argument("--mode", required=True, choices=["p", "gmt"])
    p.add_argument("--letter", default="p")
    p.add_argument("--normalize", action="store_true")
    p.add_argument("formula")
    p.set_defaults(fn=_cmd_translate)

    p = sub.add_parser("search", help="countermodel search under a named logic")
    p.add_argument("--logic", required=True, choices=sorted(catalog.PRESETS))
    p.add_argument("--refute", required=True)
    p.add_argument("--max-worlds", type=_count(1), default=2)
    p.add_argument("--samples", type=_count(0), default=500)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="directory for countermodel files")
    p.set_defaults(fn=_cmd_search)

    return parser


@functools.lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` reuses: built on the first call, not at import."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.fn(args)
    except ClcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, UnicodeDecodeError) as exc:
        # unreadable or unwritable paths: a directory, bad bytes, no permission
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except json.JSONDecodeError as exc:
        print(f"error: bad JSON input: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RecursionError:
        # the JSON decoder, the parser and the evaluator recurse once or more
        # per nesting level, so the interpreter's recursion limit is the cap
        print("error: input nested too deeply", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
