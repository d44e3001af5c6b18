"""The four workloads: inputs built from the seed, and the items of one pass.

A workload is ``setup(seed, size, workdir) -> inputs`` plus
``items(inputs)``, which yields ``(function, args)`` pairs.  Calling an
item function runs the library on one input, raises :class:`ItemFailure`
if the logical fact the item stands for does not hold, and returns the
item's output as a tuple whose first element is its verdict.  Outputs
are folded into the pass digest that the runner compares with the
recorded reference.

Every call into the library goes through a module attribute
(``semantics.valid``, not a name imported here), so a traced pass sees it.

Input shapes that decide an item's cost, such as the upset count of a
frame, are fixed per workload and only the frames drawn for each shape
depend on the seed.  That keeps the mix of full scans and early exits,
and so the end-to-end figures, comparable from seed to seed.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
from pathlib import Path
from typing import Dict, Iterator, Tuple

from condlogic import algebra, catalog, cli, fillins, frames, generate, semantics, translate
from condlogic.syntax import And, Cond, Imp, Language, Or, Var, print_formula, substitute


class ItemFailure(Exception):
    """An item's output contradicts the fact it checks."""


Item = Tuple[object, tuple]


def _shaped_full_frame(rng: random.Random, n: int, upsets: int, strong: bool = False):
    """A random full frame on ``n`` worlds whose order has exactly ``upsets`` upsets."""
    for _ in range(100_000):
        frame = generate.random_full_frame(rng, n, strong=strong)
        if len(frame.admissible) == upsets:
            return frame
    raise RuntimeError(f"no {n}-world frame with {upsets} upsets")


# --- sweep2 ------------------------------------------------------------------
#
# Exhaustive: the same 68 302 frames and the same items on every seed.

SWEEP_AXIOMS = ("id", "mp", "tr", "red", "four_c")


def setup_sweep2(seed: int, size: str, workdir) -> dict:
    return {
        "max_worlds": 2 if size == "full" else 1,
        "axioms": [(key, catalog.AXIOMS[key].formula) for key in SWEEP_AXIOMS],
    }


def _sweep_item(frame, key, formula):
    report = catalog.correspondent_holds(frame, key)
    verdict = semantics.valid(frame, formula)
    if report.holds != verdict.valid:
        raise ItemFailure(f"{key}: correspondent {report.holds}, validity {verdict.valid}")
    return (verdict.valid, key, report.witness, verdict.valuation, verdict.world,
            verdict.checked)


def items_sweep2(inputs: dict) -> Iterator[Item]:
    axioms = inputs["axioms"]
    for frame in generate.enumerate_full_frames(inputs["max_worlds"]):
        for key, formula in axioms:
            yield _sweep_item, (frame, key, formula)


def kernel_frames_sweep2(inputs: dict) -> list:
    return list(itertools.islice(generate.enumerate_full_frames(inputs["max_worlds"]),
                                 0, None, 64))


# --- eval-deep ---------------------------------------------------------------

# (worlds, upsets) of the frames written for the clc items; k_c on the
# largest scans 32^3 valuations x 5 worlds.
EVAL_SHAPES = {
    "full": ((4, 8), (4, 10), (4, 12), (4, 16), (5, 12), (5, 16), (5, 18), (5, 20),
             (5, 24), (5, 32)),
    "tiny": ((4, 8),),
}
# Instances of each schema and random formulas per frame, t2 items, A6 items.
# The clc items are the majority, so the median item is a clc valid call.
EVAL_COUNTS = {
    "full": (2, 64, 160, 160),
    "tiny": (1, 3, 3, 3),
}
T2_SHAPES = (4, 5, 6, 8)  # upsets of the 3-world frames for check_t2


def _cyclic_mapping(rng: random.Random) -> dict:
    """p, q, r to a random connective over (p, q), (q, r), (r, p).

    Every instance keeps all three letters and the same size, so its full
    scan costs about the same on every seed.
    """
    ops = (And, Or, Imp, Cond)
    return {
        a: ops[rng.randrange(len(ops))](Var(a), Var(b))
        for a, b in (("p", "q"), ("q", "r"), ("r", "p"))
    }


def setup_eval_deep(seed: int, size: str, workdir) -> dict:
    instances, randoms, t2_count, a6_count = EVAL_COUNTS[size]
    kc = catalog.AXIOMS["k_c"]
    nc = catalog.AXIOMS["n_c"]
    clc_items = []
    for idx, (n, upsets) in enumerate(EVAL_SHAPES[size]):
        rng = random.Random(f"eval-deep:{seed}:clc:{idx}")
        frame = _shaped_full_frame(rng, n, upsets)
        path = workdir / f"frame{idx}.json"
        path.write_text(json.dumps(frames.frame_to_json(frame), sort_keys=True))
        texts = [(kc.source, True), (nc.source, True)]
        for schema in (kc.formula, nc.formula):
            for _ in range(instances):
                texts.append((print_formula(substitute(schema, _cyclic_mapping(rng))), True))
        for _ in range(randoms):
            f = generate.random_formula(rng, Language.COND, ["p", "q"], 4)
            texts.append((print_formula(f), False))
        clc_items.extend((str(path), text, must_hold) for text, must_hold in texts)
    t2_items = []
    for i in range(t2_count):
        rng = random.Random(f"eval-deep:{seed}:t2:{i}")
        frame = _shaped_full_frame(rng, 3, T2_SHAPES[i % len(T2_SHAPES)])
        phi = generate.random_formula(rng, Language.MODAL, ["q", "r"], 3)
        t2_items.append((frame, phi))
    a6_items = []
    for i in range(a6_count):
        rng = random.Random(f"eval-deep:{seed}:a6:{i}")
        g = generate.random_general_frame(rng, (3, 3, 4)[i % 3])
        f = generate.random_formula(rng, Language.COND, ["p", "q", "r"], 4)
        a6_items.append((g, f))
    return {"clc": clc_items, "t2": t2_items, "a6": a6_items}


def _clc_valid_item(path: str, text: str, must_hold: bool):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["--json", "valid", "--frame", path, "--formula", text])
    if code not in (0, 1):
        raise ItemFailure(f"clc valid exited {code}: {err.getvalue().strip()}")
    # The envelope's inputs carry the frame file's path; only the result is output.
    result = json.loads(out.getvalue())["result"]
    if result["valid"] != (code == 0):
        raise ItemFailure(f"clc valid exit code {code} contradicts {result['valid']}")
    if must_hold and not result["valid"]:
        raise ItemFailure(f"{text!r} is a K_c/N_c instance but was refuted")
    return (result["valid"], json.dumps(result, sort_keys=True))


def _t2_item(frame, phi):
    report = translate.check_t2(frame, phi, "p")
    if not report.agree:
        raise ItemFailure("translated validity disagrees with validity on the restrictions")
    return (report.translated_valid, report.restrictions_valid)


def _a6_item(g, f):
    verdict = semantics.valid(g, f)
    alg = algebra.complex_algebra(g)
    sat = algebra.alg_satisfies(alg, f)
    if verdict.valid != sat.satisfied:
        raise ItemFailure(f"frame validity {verdict.valid}, algebra {sat.satisfied}")
    return (verdict.valid, verdict.valuation, verdict.world, verdict.checked,
            sat.assignment, sat.checked)


def items_eval_deep(inputs: dict) -> Iterator[Item]:
    for args in inputs["clc"]:
        yield _clc_valid_item, args
    for args in inputs["t2"]:
        yield _t2_item, args
    for args in inputs["a6"]:
        yield _a6_item, args


def kernel_frames_eval_deep(inputs: dict) -> list:
    loaded = [frames.frame_from_json(json.loads(Path(path).read_text()))
              for path in sorted({path for path, _, _ in inputs["clc"]})]
    return loaded + [f for f, _ in inputs["t2"]] + [g for g, _ in inputs["a6"]]


# --- duality -----------------------------------------------------------------

# (worlds, upsets, frames) of the random frames.  The 3-world antichain
# (8 upsets) is the largest group, and its items all cost about the same,
# so the 99th-percentile item of a pass falls inside it on every seed.
# 4-world orders with 8 or 9 upsets, whose cost straddles that group, and
# 16-upset carriers, whose 2^16-subset prime filter scan alone would
# outweigh the rest, are left out.
DUALITY_SHAPES = ((3, 4, 16), (3, 5, 16), (3, 6, 16), (4, 6, 16), (4, 7, 16), (3, 8, 96),
                  (4, 10, 16), (4, 12, 16))
DUALITY_SIZES = {"full": (8, 1), "tiny": (512, 16)}  # 2-world stride, frames divisor


def setup_duality(seed: int, size: str, workdir) -> dict:
    stride, divisor = DUALITY_SIZES[size]
    chosen = list(itertools.islice(generate.enumerate_full_frames(2), 0, None, stride))
    for shape_idx, (n, upsets, count) in enumerate(DUALITY_SHAPES):
        for j in range(count // divisor):
            rng = random.Random(f"duality:{seed}:{shape_idx}:{j}")
            chosen.append(_shaped_full_frame(rng, n, upsets, strong=j % 2 == 0))
    return {"frames": chosen}


def _duality_item(frame):
    alg = algebra.complex_algebra(frame)
    report = algebra.check_duality_roundtrip(alg)
    if not report.ok:
        raise ItemFailure(f"algebra round trip failed: {report}")
    frame_ok = None
    if frame.order.is_poset and frames.strongly_coherent(frame):
        back = algebra.frame_roundtrip(frame)
        if not back.ok:
            raise ItemFailure(f"frame round trip failed: {back}")
        frame_ok = back.ok
    # The algebra's tables are outputs too: a round trip can pass on a
    # wrong but self-consistent algebra.
    return (report.ok, frame_ok, alg.size, alg.leq, alg.imp, alg.cond, alg.top, alg.bot)


def items_duality(inputs: dict) -> Iterator[Item]:
    for frame in inputs["frames"]:
        yield _duality_item, (frame,)


def kernel_frames_duality(inputs: dict) -> list:
    return inputs["frames"]


# --- fillin ------------------------------------------------------------------

PERSIST_CELLS = (
    [(key, kind, "pass") for key, kind in catalog.TABLE1_CELLS + catalog.TABLE2_CELLS
     + catalog.TABLE3_CELLS + catalog.TABLE4_EMPTY_CELLS]
    + [(key, kind, "fail") for key, kind in catalog.REFUTED_CELLS]
)
FILLIN_SIZES = {"full": (200, 4000), "tiny": (1, 20)}  # samples per cell, A4b frames


def setup_fillin(seed: int, size: str, workdir) -> dict:
    per_cell, a4b_count = FILLIN_SIZES[size]
    persist = [(key, kind, expect, seed * 1_000_000 + j)
               for j in range(per_cell) for key, kind, expect in PERSIST_CELLS]
    a4b = []
    for i in range(a4b_count):
        rng = random.Random(f"fillin:{seed}:{i}")
        g = generate.random_general_frame(rng, rng.choice([2, 3]))
        f = generate.random_formula(rng, Language.COND, ["p", "q"], 3)
        a4b.append((g, f))
    return {"persist": persist, "a4b": a4b}


def _persist_item(key, kind, expect, sample_seed):
    report = catalog.persistence_experiment(key, kind, samples=1, seed=sample_seed,
                                            expect=expect)
    if expect == "pass" and not report["ok"]:
        raise ItemFailure(f"{key}/{kind.value} did not persist on seed {sample_seed}")
    return (report["ok"], json.dumps(report, sort_keys=True))


def _a4b_item(g, f):
    verdict = semantics.valid(g, f)
    squeezable = fillins.check_squeeze_precondition(g).holds
    kinds = [kind for kind in fillins.ALL_KINDS
             if squeezable or kind is not fillins.FillInKind.SQUEEZE]
    for kind in kinds:
        filled = fillins.fill(g, kind)
        report = frames.validate_conditional(filled)
        if not report.ok:
            raise ItemFailure(f"{kind.value} fill-in is not a valid frame: {report}")
        if not verdict.valid and semantics.check(filled, verdict.valuation, f, verdict.world):
            raise ItemFailure(f"{kind.value} fill-in lost the refutation")
    return (verdict.valid, verdict.valuation, verdict.world, verdict.checked, len(kinds))


def items_fillin(inputs: dict) -> Iterator[Item]:
    for args in inputs["persist"]:
        yield _persist_item, args
    for args in inputs["a4b"]:
        yield _a4b_item, args


def kernel_frames_fillin(inputs: dict) -> list:
    return [g for g, _ in inputs["a4b"][:500]]


WORKLOADS: Dict[str, tuple] = {
    "sweep2": (setup_sweep2, items_sweep2, kernel_frames_sweep2),
    "eval-deep": (setup_eval_deep, items_eval_deep, kernel_frames_eval_deep),
    "duality": (setup_duality, items_duality, kernel_frames_duality),
    "fillin": (setup_fillin, items_fillin, kernel_frames_fillin),
}
SEED_INDEPENDENT = frozenset({"sweep2"})
