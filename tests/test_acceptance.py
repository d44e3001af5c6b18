"""Acceptance suite: one test per criterion, one printed pass/fail line each.

All criteria are exact (logical), so the tolerance everywhere is zero
failures.  Run with ``pytest tests/test_acceptance.py -s`` to watch the
per-criterion lines and timings.
"""

import json
import random
import time

import pytest

from condlogic import catalog, cli
from condlogic.algebra import (
    alg_satisfies,
    check_duality_roundtrip,
    complex_algebra,
    frame_roundtrip,
)
from condlogic.fillins import ALL_KINDS, FillInKind, check_squeeze_precondition, fill
from condlogic.frames import strongly_coherent, validate_conditional
from condlogic.generate import (
    enumerate_full_frames,
    random_formula,
    random_full_frame,
    random_general_frame,
)
from condlogic.semantics import check, valid
from condlogic.syntax import (
    And,
    Bot,
    Box,
    Imp,
    Language,
    Or,
    Var,
    parse,
    print_formula,
    substitute,
)
from condlogic.translate import check_restriction_lemma, check_t2, gmt_translate


def _report(criterion: str, ok: bool, detail: str, started: float) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"{criterion}: {status} ({detail}, {time.time() - started:.1f}s)")
    assert ok, f"{criterion} failed: {detail}"


def _random_instances(rng, schema, count):
    """Substitution instances of a schema over the letters p, q, r."""
    out = []
    for _ in range(count):
        mapping = {
            name: random_formula(rng, Language.COND, ["p", "q", "r"], 2)
            for name in ("p", "q", "r")
        }
        out.append(substitute(schema, mapping))
    return out


def test_a1_soundness_replay():
    started = time.time()
    kc = catalog.AXIOMS["k_c"].formula
    nc = catalog.AXIOMS["n_c"].formula
    failures = 0
    exhaustive = 0
    for frame in enumerate_full_frames(2):
        exhaustive += 1
        if not valid(frame, kc).valid or not valid(frame, nc).valid:
            failures += 1
    sampled = 0
    for i in range(1000):
        rng = random.Random(f"a1:{i}")
        frame = random_full_frame(rng, 3 + (i % 2))
        for schema in (kc, nc):
            if not valid(frame, schema).valid:
                failures += 1
        for instance in _random_instances(rng, kc if i % 2 else nc, 2):
            if not valid(frame, instance).valid:
                failures += 1
        sampled += 1
    _report(
        "A1 soundness replay",
        failures == 0,
        f"{exhaustive} exhaustive + {sampled} sampled frames, {failures} failures",
        started,
    )


A2_AXIOMS = (
    "id", "mp", "mpp", "str", "unit", "exf", "tc", "cs", "lin", "tr", "mon", "ex",
    "red", "vec_top", "expl",
    "four_c", "re",
    "c4_c", "box_tc", "cem1", "cem2", "cem3", "ecm1", "ecm2",
)


def _a2_sample_frame(rng, entry):
    n = rng.choice((3, 3, 4))
    if rng.random() < 0.5 and entry.key in catalog.AXIOM_MODES:
        modes = catalog.AXIOM_MODES[entry.key]
    else:
        modes = ("random", "strong_random", "empty")
    return random_full_frame(rng, n, strong=entry.strong_scope, mode_names=modes)


def test_a2_correspondence_equivalence():
    started = time.time()
    entries = [catalog.AXIOMS[k] for k in A2_AXIOMS]
    discrepancies = []
    exhaustive = 0
    for frame in enumerate_full_frames(2):
        exhaustive += 1
        strong = None
        for entry in entries:
            if entry.strong_scope:
                if strong is None:
                    strong = frame.order.is_poset and strongly_coherent(frame)
                if not strong:
                    continue
            corr = catalog.correspondent_holds(frame, entry.key).holds
            if corr != valid(frame, entry.formula).valid:
                discrepancies.append((entry.key, "exhaustive"))
    sampled = 0
    for entry in entries:
        for i in range(500):
            rng = random.Random(f"a2:{entry.key}:{i}")
            frame = _a2_sample_frame(rng, entry)
            sampled += 1
            corr = catalog.correspondent_holds(frame, entry.key).holds
            if corr != valid(frame, entry.formula).valid:
                discrepancies.append((entry.key, f"sample {i}"))
    _report(
        "A2 correspondence equivalence",
        not discrepancies,
        f"{len(entries)} axioms x ({exhaustive} exhaustive + 500 sampled), "
        f"discrepancies {discrepancies[:4]}",
        started,
    )


def test_a3_joint_cautious_correspondence():
    started = time.time()
    schemas = [catalog.AXIOMS[k].formula for k in ("id", "ct", "cm")]
    conds = catalog.logic_frame_conditions("iCC")
    discrepancies = 0
    exhaustive = 0
    for frame in enumerate_full_frames(2):
        exhaustive += 1
        lhs = all(valid(frame, s).valid for s in schemas)
        rhs = catalog._conditions_hold(frame, conds)
        discrepancies += lhs != rhs
    sampled = 0
    for i in range(500):
        rng = random.Random(f"a3:{i}")
        if i % 2:
            frame = random_full_frame(rng, 3, mode_names=catalog.ICC_MODES)
        else:
            frame = random_full_frame(rng, 3)
        sampled += 1
        lhs = all(valid(frame, s).valid for s in schemas)
        rhs = catalog._conditions_hold(frame, conds)
        discrepancies += lhs != rhs
    _report(
        "A3 joint cautious correspondence",
        discrepancies == 0,
        f"{exhaustive} exhaustive + {sampled} sampled, {discrepancies} discrepancies",
        started,
    )


def _a4_frame_pool(total=10_000):
    """Random valid general frames; a slice uses cautious modes so the
    squeeze recipe gets exercised on precondition-passing frames."""
    pool = []
    for i in range(total):
        rng = random.Random(f"a4:{i}")
        if i % 3 == 0:
            g = random_general_frame(
                rng, rng.choice([2, 3, 3, 4]),
                mode_names=catalog.ICC_MODES, force_subset=True,
            )
        else:
            g = random_general_frame(rng, rng.choice([2, 3, 3, 4]))
        pool.append(g)
    return pool


def test_a4a_fillins_produce_valid_frames():
    started = time.time()
    pool = _a4_frame_pool()
    bad = 0
    squeezes = 0
    for g in pool:
        squeezable = check_squeeze_precondition(g).holds
        for kind in ALL_KINDS:
            if kind is FillInKind.SQUEEZE:
                if not squeezable:
                    continue
                squeezes += 1
            if not validate_conditional(fill(g, kind)).ok:
                bad += 1
    _report(
        "A4a fill-in well-formedness",
        bad == 0 and squeezes >= 1000,
        f"{len(pool)} frames, {squeezes} squeeze applications, {bad} invalid results",
        started,
    )


def test_a4b_refutation_inheritance():
    started = time.time()
    refuted = 0
    broken = 0
    for i in range(2500):
        rng = random.Random(f"a4b:{i}")
        g = random_general_frame(rng, rng.choice([2, 3]))
        f = random_formula(rng, Language.COND, ["p", "q"], 3)
        verdict = valid(g, f)
        if verdict.valid:
            continue
        refuted += 1
        squeezable = check_squeeze_precondition(g).holds
        for kind in ALL_KINDS:
            if kind is FillInKind.SQUEEZE and not squeezable:
                continue
            if check(fill(g, kind), verdict.valuation, f, verdict.world):
                broken += 1
    _report(
        "A4b refutation inheritance",
        refuted >= 500 and broken == 0,
        f"{refuted} refuted samples, {broken} lost refutations",
        started,
    )


def test_a4c_persistence_cells():
    started = time.time()
    cells = (
        list(catalog.TABLE1_CELLS) + list(catalog.TABLE2_CELLS) + list(catalog.TABLE3_CELLS)
    )
    failing = []
    for key, kind in cells:
        report = catalog.persistence_experiment(key, kind, samples=400, seed=11)
        if not report["ok"]:
            failing.append((key, kind.value, report["failures"]))
    _report(
        "A4c table persistence",
        not failing,
        f"{len(cells)} cells x 400 samples, failing cells {failing}",
        started,
    )


def test_a4d_refuted_cells_have_finite_counterexamples():
    started = time.time()
    missing = []
    for key, kind in catalog.REFUTED_CELLS:
        report = catalog.persistence_experiment(
            key, kind, samples=2000, seed=11, expect="fail"
        )
        if not report["ok"]:
            missing.append((key, kind.value))
    _report(
        "A4d finite counterexamples for refuted cells",
        not missing,
        f"cells {[f'{k}/{kd.value}' for k, kd in catalog.REFUTED_CELLS]}, "
        f"missing {missing}",
        started,
    )


def test_a5_duality_roundtrips():
    started = time.time()
    failures = 0
    algebra_checks = 0
    frame_checks = 0
    for frame in enumerate_full_frames(2):
        algebra_checks += 1
        if not check_duality_roundtrip(complex_algebra(frame)).ok:
            failures += 1
        if frame.order.is_poset and strongly_coherent(frame):
            frame_checks += 1
            if not frame_roundtrip(frame).ok:
                failures += 1
    for i in range(200):
        rng = random.Random(f"a5:{i}")
        strong = i % 2 == 0
        frame = random_full_frame(rng, 3, strong=strong)
        algebra_checks += 1
        if not check_duality_roundtrip(complex_algebra(frame)).ok:
            failures += 1
        if strong:
            frame_checks += 1
            if not frame_roundtrip(frame).ok:
                failures += 1
    _report(
        "A5 duality round-trips",
        failures == 0,
        f"{algebra_checks} algebra round-trips, {frame_checks} frame round-trips, "
        f"{failures} failures",
        started,
    )


def test_a6_algebra_frame_agreement():
    started = time.time()
    disagreements = 0
    for i in range(1000):
        rng = random.Random(f"a6:{i}")
        g = random_general_frame(rng, rng.choice([2, 3, 3, 4]))
        f = random_formula(rng, Language.COND, ["p", "q", "r"], 4)
        lhs = valid(g, f).valid
        rhs = alg_satisfies(complex_algebra(g), f).satisfied
        disagreements += lhs != rhs
    _report(
        "A6 algebra-frame agreement",
        disagreements == 0,
        f"1000 pairs, {disagreements} disagreements",
        started,
    )


def _modal_formula_with_box_depth(rng, letters, depth, box_budget):
    if depth <= 0 or rng.random() < 0.25:
        if rng.random() < 0.1:
            return Bot(Language.MODAL)
        return Var(letters[rng.randrange(len(letters))], Language.MODAL)
    ops = ["and", "or", "imp"]
    if box_budget > 0:
        ops += ["box", "box"]
    op = ops[rng.randrange(len(ops))]
    if op == "box":
        return Box(_modal_formula_with_box_depth(rng, letters, depth - 1, box_budget - 1))
    left = _modal_formula_with_box_depth(rng, letters, depth - 1, box_budget)
    right = _modal_formula_with_box_depth(rng, letters, depth - 1, box_budget)
    return {"and": And, "or": Or, "imp": Imp}[op](left, right)


def test_a7_translation_lemmas():
    started = time.time()
    disagreements = 0
    for i in range(10_000):
        rng = random.Random(f"a7t1:{i}")
        frame = random_full_frame(rng, rng.choice([2, 3]))
        phi = _modal_formula_with_box_depth(rng, ("q", "r"), 3, 3)
        ups = frame.order.upsets
        v = {s: ups[rng.randrange(len(ups))] for s in ("p", "q", "r")}
        world = rng.randrange(frame.n)
        try:
            check_restriction_lemma(frame, v, phi, "p", world)
        except AssertionError:
            disagreements += 1
    t2_disagreements = 0
    for i in range(200):
        rng = random.Random(f"a7t2:{i}")
        frame = random_full_frame(rng, rng.choice([2, 3]))
        phi = _modal_formula_with_box_depth(rng, ("q", "r"), 4, 2)
        if not check_t2(frame, phi, "p").agree:
            t2_disagreements += 1
    worked = print_formula(gmt_translate(parse("q -> []q", Language.MODAL)))
    exact = worked == "[I]([I]q -> [I][M][I]q)"
    _report(
        "A7 translation lemmas",
        disagreements == 0 and t2_disagreements == 0 and exact,
        f"10000 restriction instances ({disagreements} off), "
        f"200 validity biconditionals ({t2_disagreements} off), "
        f"worked example {worked!r}",
        started,
    )


def _run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_a8_countermodel_demos(tmp_path, capsys):
    started = time.time()
    demos = [
        ("ICK", "(p ~> q) -> (p -> q)"),
        ("ICK", "p ~> p"),
        ("HLCflat", "(p -> q) -> (p ~> q)"),
    ]
    problems = []
    for idx, (logic, target) in enumerate(demos):
        outdir = tmp_path / f"demo{idx}"
        code, out = _run_cli(
            capsys, "--json", "search", "--logic", logic, "--refute", target,
            "--max-worlds", "2", "--out", str(outdir),
        )
        if code != 1:
            problems.append((logic, target, "not found"))
            continue
        report = json.loads(out)
        if report["result"]["frame"]["worlds"] > 2:
            problems.append((logic, target, "needed more than 2 worlds"))
        world = report["result"]["world"]
        confirm_code, _ = _run_cli(
            capsys, "mc", "--frame", str(outdir / "frame.json"),
            "--val", str(outdir / "valuation.json"),
            "--formula", target, "--world", str(world),
        )
        if confirm_code != 1:
            problems.append((logic, target, "mc did not confirm"))
    _report(
        "A8 countermodel demos",
        not problems,
        f"{len(demos)} searches with independent mc confirmation, problems {problems}",
        started,
    )
