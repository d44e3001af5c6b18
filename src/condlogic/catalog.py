"""Axiom registry: schemas, frame correspondents, persistence tags, named logics.

Correspondents are first-order conditions quantified over the admissible
upsets a (and b where used) and all worlds x of a frame; on a full frame
the admissible family is all upsets.  Entries whose correspondence only
holds on strongly coherent poset frames (the finite stand-ins for the
topological duals) carry ``strong_scope`` and are verified against that
frame class; the remaining entries are verified against every valid frame.

Persistence is tested at the correspondent level: generate a random valid
general frame whose correspondent holds on the admissible upsets, fill in,
then re-check the correspondent over all upsets of the result.

The correspondents and the quantifier loop that evaluates them, alone or
as a conjunction for a named logic, live in :mod:`condlogic.correspondents`.
Both sampling experiments map one function over the sample indices in
index order (:func:`_map_samples`), in this process or in a pool of at most
one worker per core.  Each sample index is seeded separately, so neither
the frames drawn nor the reports depend on the job count.  A persistence
run expecting failure ends at its first counterexample in index order, so
it always runs in this process and draws no sample after that one.
"""

from __future__ import annotations

import itertools
import os
import random
from dataclasses import dataclass
from functools import cached_property, partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from . import correspondents as cr, generate
from .correspondents import ICC_CORR, _corr_loop
from .errors import GenerationBudgetError, MissingCorrespondentError
from .fillins import ALL_KINDS, FillInKind, check_squeeze_precondition, fill
from .frames import GeneralFrame, frame_to_json, strongly_coherent
from .order import mask_to_worlds
from .semantics import valid
from .syntax import Formula, Language, parse


_E = FillInKind.EMPTY
_R = FillInKind.REFLEXIVE
_P = FillInKind.PRINCIPAL
_T = FillInKind.TOTAL
_U = FillInKind.UNION
_TR = FillInKind.TRANSITIVE
_S = FillInKind.SQUEEZE


@dataclass(frozen=True)
class AxiomEntry:
    key: str
    source: str
    # None, 'const', 'ax', 'abx', or '0x' / 'Wx' (a fixed to the empty or
    # the full upset); see condlogic.correspondents
    quantifier: Optional[str]
    corr: Optional[Callable]
    persistence: frozenset
    strong_scope: bool = False
    note: str = ""

    @cached_property
    def formula(self) -> Formula:
        """The parsed source, parsed on first use and kept on the entry."""
        return parse(self.source, Language.COND)

    @property
    def has_correspondent(self) -> bool:
        return self.quantifier is not None


def _entry(key, source, quantifier, corr, persistence, strong_scope=False, note=""):
    return AxiomEntry(key, source, quantifier, corr, frozenset(persistence), strong_scope, note)


_ALL = frozenset(ALL_KINDS)

AXIOMS: Dict[str, AxiomEntry] = {
    e.key: e
    for e in (
        _entry("id", "p ~> p", "ax", cr._k_id, {_E, _R, _TR}),
        _entry("mp", "p & (p ~> q) -> q", "ax", cr._k_mp, {_P, _R, _T, _S}),
        _entry("mpp", "(p ~> q) -> (p -> q)", "ax", cr._k_mp, {_P, _R, _T}),
        _entry("str", "(p -> q) -> (p ~> q)", "ax", cr._k_str, {_E, _TR}),
        _entry("unit", "p -> (q ~> p)", "ax", cr._k_unit, {_E, _P, _U}),
        _entry("exf", "~p -> (p ~> q)", "ax", cr._k_exf, {_E, _U}),
        _entry("tc", "(p ~> q) -> q", "ax", cr._k_tc, {_P, _T, _U}),
        _entry("cs", "p & q -> (p ~> q)", "ax", cr._k_cs, {_E, _P}),
        _entry("lin", "(p ~> q) | (q ~> p)", "abx", cr._k_lin, {_E}),
        _entry("tr", "(p ~> q) & (q ~> r) -> (p ~> r)", "abx", cr._k_tr, {_T, _TR}),
        _entry("mon", "(p ~> r) -> ((p & q) ~> r)", "abx", cr._k_mon, {_U}),
        _entry("ex", "((p & q) ~> r) -> (p ~> (q ~> r))", "abx", cr._k_ex, {_E}),
        _entry("red", "(true ~> p) -> p", "Wx", cr._k_tc, _ALL),
        _entry("vec_top", "p -> (true ~> p)", "Wx", cr._k_unit, _ALL),
        _entry("expl", "false ~> p", "0x", cr._k_expl, _ALL),
        _entry("ct", "(p ~> q) & ((p & q) ~> r) -> (p ~> r)", None, None, set(),
               note="jointly with id and cm: id plus the cautious condition"),
        _entry("cm", "(p ~> q) & (p ~> r) -> ((p & q) ~> r)", None, None, set(),
               note="jointly with id and ct: id plus the cautious condition"),
        _entry("ca", "(p ~> q) -> (p ~> (p & q))", None, None, set(),
               note="no stated correspondent; semantically interchangeable with id"),
        _entry("re", "(p ~> q) & (q ~> p) & (p ~> r) -> (q ~> r)", "abx", cr._k_re, {_S}),
        _entry("four_c", "(p ~> q) -> (p ~> (p ~> q))", "ax", cr._k_four, {_E, _S}),
        _entry("c4_c", "(p ~> (p ~> q)) -> (p ~> q)", "ax", cr._k_c4, {_E}),
        _entry("box_tc", "p ~> ((p ~> q) -> q)", "ax", cr._k_box_tc, {_E}),
        _entry("cem1", "(p ~> q) | (p ~> ~q)", "ax", cr._k_cem1, {_E}, strong_scope=True),
        _entry("cem2", "p ~> (q | ~q)", "ax", cr._k_cem2, {_E}, strong_scope=True),
        _entry("cem3", "q | (p ~> ~(p ~> q))", "ax", cr._k_cem3, {_E}, strong_scope=True),
        _entry("ecm1", "(p ~> q) | ~(p ~> q)", "ax", cr._k_ecm1, {_E}, strong_scope=True),
        _entry("ecm2", "(p ~> q) | (p ~> ~(p ~> q))", "ax", cr._k_ecm2, {_E}, strong_scope=True),
        _entry("clin1", "p ~> ((q -> r) | (r -> q))", None, None, {_E},
               note="schema only: no stated frame correspondent"),
        _entry("clin2", "(p ~> (q -> r)) | (p ~> (r -> q))", None, None, {_E},
               note="schema only: no stated frame correspondent"),
        _entry("clin3", "(p ~> ((p ~> q) -> r)) | (p ~> ((p ~> r) -> q))", None, None, {_E},
               note="schema only: no stated frame correspondent"),
        _entry("in1", "~(p ~> q) -> (p ~> ~q)", None, None, {_E},
               note="schema only: no stated frame correspondent"),
        _entry("in2", "~(p ~> ~q) -> (p ~> q)", None, None, {_E},
               note="schema only: no stated frame correspondent"),
        _entry("or", "(p ~> r) & (q ~> r) -> ((p | q) ~> r)", None, None, set(),
               note="schema only: no stated frame correspondent"),
        _entry("k_c", "(p ~> q & r) <-> (p ~> q) & (p ~> r)", "const", cr._k_true, _ALL,
               note="holds on every valid frame"),
        _entry("n_c", "(p ~> true) <-> true", "const", cr._k_true, _ALL,
               note="holds on every valid frame"),
        _entry("simp", "(p ~> q & r) -> (p ~> q)", None, None, set(),
               note="half of k_c; schema only"),
        _entry("adj", "(p ~> q) & (p ~> r) -> (p ~> (q & r))", None, None, set(),
               note="half of k_c; schema only"),
        _entry("unit_says", "q -> (p ~> q)", "ax", cr._k_unit, {_E, _P, _U},
               note="letter-renamed form of unit"),
        _entry("ck", "(p ~> (q -> r)) -> ((p ~> q) -> (p ~> r))", None, None, set(),
               note="schema only: no stated frame correspondent"),
        _entry("bt", "p ~> ((p ~> q) -> q)", "ax", cr._k_box_tc, {_E},
               note="same schema and correspondent as box_tc"),
    )
}

PRESETS: Dict[str, Tuple[str, ...]] = {
    "ICK": (),
    "iKRI": ("mp", "tr"),
    "iCC": ("id", "ct", "cm"),
    "iCB": ("id", "ct", "cm", "re", "four_c"),
    "HLCflat": ("id", "tr"),
    "HLCsharp": ("id", "tr", "or"),
    "HLCflat_str": ("id", "tr", "str"),
    "sICL": ("unit", "c4_c"),
    "sCondACL": ("unit", "bt"),
}

# Persistence cells as printed in the overview tables; the refuted cells are
# the pairs for which a finite counterexample must be searched instead.
TABLE1_CELLS: Tuple[Tuple[str, FillInKind], ...] = tuple(
    (key, kind) for key in ("id", "mp", "mpp", "str", "unit", "exf", "tc",
                            "cs", "lin", "tr", "mon", "ex")
    for kind in sorted(AXIOMS[key].persistence - {_S}, key=lambda k: k.value)
)
TABLE2_CELLS: Tuple[Tuple[str, FillInKind], ...] = tuple(
    (key, kind) for key in ("red", "vec_top", "expl") for kind in ALL_KINDS
)
TABLE3_CELLS: Tuple[Tuple[str, FillInKind], ...] = (
    ("mp", _S), ("four_c", _S), ("re", _S),
)
TABLE4_EMPTY_CELLS: Tuple[Tuple[str, FillInKind], ...] = tuple(
    (key, _E) for key in ("unit", "four_c", "c4_c", "box_tc",
                          "cem1", "cem2", "cem3", "ecm1", "ecm2")
)
REFUTED_CELLS: Tuple[Tuple[str, FillInKind], ...] = (
    ("mp", _E), ("str", _R), ("mon", _S),
)

# Row modes used to bias random generation toward frames satisfying each
# correspondent; acceptance is re-checked, so these are hints, not proofs.
AXIOM_MODES: Dict[str, Tuple[str, ...]] = {
    "id": ("subset", "strength", "refl", "empty", "random"),
    "mp": ("diag", "strength", "refl", "diag_all"),
    "mpp": ("diag", "strength", "refl", "diag_all"),
    "str": ("strength_sub", "strength", "empty"),
    "unit": ("up_within", "strength", "empty"),
    "unit_says": ("up_within", "strength", "empty"),
    "exf": ("exf", "strength", "empty", "subset"),
    "tc": ("diag_all", "random"),
    "cs": ("up_within", "strength", "empty", "subset"),
    "lin": ("empty", "refl", "const_meet", "subset"),
    "tr": ("strength", "refl", "shared", "empty"),
    "mon": ("const_meet", "shared", "empty", "subset"),
    "ex": ("strength", "empty", "strength_sub"),
    "red": ("diag_all", "refl", "diag"),
    "vec_top": ("up_within", "strength", "empty"),
    "expl": ("subset", "empty", "strength"),
    "re": ("strength", "refl", "const_meet", "empty"),
    "four_c": ("refl", "strength", "empty", "subset"),
    "c4_c": ("diag_all", "refl", "empty"),
    "box_tc": ("refl", "strength", "empty", "diag_all"),
    "bt": ("refl", "strength", "empty", "diag_all"),
    "cem1": ("singleton", "empty"),
    "cem2": ("maximal_singleton", "empty"),
    "cem3": ("empty", "total_rows", "singleton"),
    "ecm1": ("singleton", "shared", "empty", "total_rows"),
    "ecm2": ("singleton", "shared", "empty", "total_rows"),
    "k_c": ("random",),
    "n_c": ("random",),
}
ICC_MODES: Tuple[str, ...] = ("strength", "refl", "const_meet", "empty", "subset")


def _witness_json(witness: Tuple) -> dict:
    a, b, x = witness
    return {
        "a": mask_to_worlds(a),
        "b": None if b is None else mask_to_worlds(b),
        "world": x,
    }


@dataclass(slots=True)
class CorrReport:
    key: str
    holds: bool
    witness: Optional[Tuple] = None  # (a_mask, b_mask or None, world)

    def witness_json(self):
        return None if self.witness is None else _witness_json(self.witness)


def correspondent_holds(frame: GeneralFrame, key: str) -> CorrReport:
    """Evaluate the registered correspondent over the frame's admissible family."""
    entry = AXIOMS[key]
    quantifier = entry.quantifier
    if quantifier is None:
        raise MissingCorrespondentError(f"axiom {key!r} has no frame correspondent")
    witness = _corr_loop(frame, quantifier, entry.corr)
    return CorrReport(key, witness is None, witness)


def _conditions_hold(frame: GeneralFrame, conds: Sequence[Tuple[str, str, Callable]]) -> bool:
    return all(_corr_loop(frame, quant, fn) is None for _name, quant, fn in conds)


def logic_frame_conditions(preset: str) -> List[Tuple[str, str, Callable]]:
    """Conjunction of correspondents for a named logic.

    The cautious pair ct and cm has no individual correspondents; together
    with id it contributes the joint cautious condition instead.
    """
    keys = list(PRESETS[preset])
    conds: List[Tuple[str, str, Callable]] = []
    if "ct" in keys or "cm" in keys:
        if not {"id", "ct", "cm"} <= set(keys):
            raise MissingCorrespondentError(
                "ct and cm only have a joint correspondent in presence of id"
            )
        keys = [k for k in keys if k not in ("ct", "cm")]
        conds.append(ICC_CORR)
    for k in keys:
        entry = AXIOMS[k]
        if not entry.has_correspondent:
            raise MissingCorrespondentError(
                f"axiom {k!r} in preset {preset!r} has no frame correspondent"
            )
        conds.append((k, entry.quantifier, entry.corr))
    return conds


# --- correspondence verification ---------------------------------------------


def _map_samples(fn: Callable, total: int, jobs: int):
    """``fn(i)`` for every sample index ``i`` in ``range(total)``, in index order.

    With one job (or one core, or one sample) the results come lazily from
    this process, so a caller that stops early runs no further sample.
    Otherwise a spawn pool of ``min(jobs, total, cpu count)`` workers maps
    the indices in as many contiguous chunks.
    """
    jobs = min(jobs, total)
    if jobs > 1:
        jobs = min(jobs, os.cpu_count() or 1)
    if jobs <= 1:
        return map(fn, range(total))
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=jobs,
                             mp_context=multiprocessing.get_context("spawn")) as pool:
        return list(pool.map(fn, range(total), chunksize=-(-total // jobs)))


def _verify_sample(key: str, seed: int, i: int) -> Optional[dict]:
    entry = AXIOMS[key]
    frame = _sample_frame_for_correspondence(random.Random(f"{seed}:{key}:{i}"), entry)
    return _compare(frame, entry)


def verify_correspondence(key: str, max_worlds: int = 2, samples: int = 0,
                          seed: int = 0, jobs: int = 1) -> dict:
    """Assert validity-of-schema iff correspondent, exhaustively then sampled.

    Entries with ``strong_scope`` are checked against strongly coherent
    poset frames; all others against every valid full frame.  Sampling
    seeds each index separately, so the report is identical for any job
    count.
    """
    entry = AXIOMS[key]
    if not entry.has_correspondent:
        raise MissingCorrespondentError(f"axiom {key!r} has no frame correspondent")
    exhaustive = []
    skipped = 0
    for frame in generate.enumerate_full_frames(max_worlds):
        if entry.strong_scope and not (frame.order.is_poset and strongly_coherent(frame)):
            skipped += 1
            continue
        exhaustive.append(_compare(frame, entry))
    sampled = list(_map_samples(partial(_verify_sample, key, seed), samples, jobs))
    discrepancies = [d for d in exhaustive + sampled if d is not None]
    return {
        "axiom": key,
        "exhaustive_frames": len(exhaustive),
        "exhaustive_skipped": skipped,
        "sampled_frames": len(sampled),
        "strong_scope": entry.strong_scope,
        "discrepancies": discrepancies,
        "ok": not discrepancies,
    }


def _sample_frame_for_correspondence(rng: random.Random, entry: AxiomEntry):
    n = rng.choice((3, 3, 3, 4, 4, 5, 6))
    # cap the upset count so three-letter validity stays cheap
    while True:
        if rng.random() < 0.5 and entry.key in AXIOM_MODES:
            modes = AXIOM_MODES[entry.key]
        else:
            modes = ("random", "strong_random", "empty")
        frame = generate.random_full_frame(
            rng, n, strong=entry.strong_scope, mode_names=modes
        )
        if len(frame.admissible) <= 12:
            return frame
        n = 3


def _compare(frame: GeneralFrame, entry: AxiomEntry) -> Optional[dict]:
    """The discrepancy between schema validity and correspondent, or None."""
    corr = _corr_loop(frame, entry.quantifier, entry.corr) is None
    verdict = valid(frame, entry.formula)
    if corr == verdict.valid:
        return None
    return {"frame": frame_to_json(frame), "valid": verdict.valid, "correspondent": corr}


# --- persistence experiments ---------------------------------------------------


_PRECONDITION_ATTEMPTS = 300


def _generate_precondition_frame(rng: random.Random, key: str, kind: FillInKind,
                                 strong: bool) -> Optional[GeneralFrame]:
    """One random valid general frame whose correspondent holds on the
    admissible family (plus the cautious conditions for squeeze)."""
    entry = AXIOMS[key]
    squeeze = kind is FillInKind.SQUEEZE
    modes = AXIOM_MODES.get(key, ("random", "empty"))
    if squeeze:
        modes = tuple(dict.fromkeys(modes + ICC_MODES))
    for _ in range(_PRECONDITION_ATTEMPTS):
        n = rng.choice((2, 2, 3, 3, 3, 4))
        frame = generate.random_general_frame(
            rng, n, mode_names=modes, force_subset=squeeze, strong=strong
        )
        if _corr_loop(frame, entry.quantifier, entry.corr) is not None:
            continue
        if squeeze and not check_squeeze_precondition(frame).holds:
            continue
        return frame
    return None


def _persist_sample(key: str, kind: FillInKind, seed: int, strong: bool,
                    i: int) -> Optional[Tuple[GeneralFrame, GeneralFrame, Tuple]]:
    """None if sample ``i`` persists, else (general frame, filled frame, witness)."""
    rng = random.Random(f"{seed}:{key}:{kind.value}:{i}")
    frame = _generate_precondition_frame(rng, key, kind, strong)
    if frame is None:
        raise GenerationBudgetError(
            f"could not generate a frame satisfying the {key!r} precondition"
        )
    filled = fill(frame, kind)
    entry = AXIOMS[key]
    witness = _corr_loop(filled, entry.quantifier, entry.corr)
    return None if witness is None else (frame, filled, witness)


def persistence_experiment(key: str, kind: FillInKind, samples: int = 200,
                           seed: int = 0, strong: bool = False,
                           expect: str = "pass", jobs: int = 1) -> dict:
    """Fill precondition-satisfying random general frames and re-check the
    correspondent on the full result.

    For pairs the tables mark persistent the expectation is a 100% pass
    rate; for the refuted pairs the runner reports the first finite
    counterexample frame it finds, and stops there.  That run is always in
    this process, since it ends at the first counterexample in index order.
    """
    entry = AXIOMS[key]
    if not entry.has_correspondent:
        raise MissingCorrespondentError(f"axiom {key!r} has no frame correspondent")
    passes = 0
    failures = 0
    first = None  # the first counterexample in index order
    sample = partial(_persist_sample, key, kind, seed, strong)
    for hit in _map_samples(sample, samples, jobs if expect == "pass" else 1):
        if hit is None:
            passes += 1
            continue
        failures += 1
        if first is None:
            frame, filled, witness = hit
            first = {
                "general_frame": frame_to_json(frame),
                "filled_frame": frame_to_json(filled),
                "witness": _witness_json(witness),
            }
        if expect == "fail":
            break
    total = passes + failures
    report = {
        "axiom": key,
        "fillin": kind.value,
        "samples": total,
        "passes": passes,
        "failures": failures,
        "pass_rate": passes / total if total else None,
        "expect": expect,
        "strong": strong,
        "counterexample": first,
    }
    report["ok"] = (failures == 0) if expect == "pass" else (failures > 0)
    return report


# --- countermodel search ---------------------------------------------------------


@dataclass
class SearchResult:
    found: bool
    frame: Optional[GeneralFrame] = None
    valuation: Optional[dict] = None
    world: Optional[int] = None
    frames_checked: int = 0
    frames_matching: int = 0


def search_countermodel(preset: str, target: Formula, max_worlds: int = 2,
                        samples: int = 500, seed: int = 0) -> SearchResult:
    """Find a frame meeting the preset's conditions that refutes the target.

    Exhausts all frames with at most two worlds in canonical order, then
    falls back to seeded random frames up to ``max_worlds``.  Exhaustion is
    inconclusive, never a derivability claim.
    """
    conds = logic_frame_conditions(preset)
    checked = 0
    matching = 0
    for frame in _search_frames(max_worlds, samples, seed):
        checked += 1
        if not _conditions_hold(frame, conds):
            continue
        matching += 1
        verdict = valid(frame, target)
        if not verdict.valid:
            return SearchResult(True, frame, verdict.valuation, verdict.world,
                                checked, matching)
    return SearchResult(False, frames_checked=checked, frames_matching=matching)


def _search_frames(max_worlds: int, samples: int, seed: int):
    """All frames with at most two worlds, then seeded random ones up to ``max_worlds``."""
    exhaustive = generate.enumerate_full_frames(min(2, max_worlds))
    if max_worlds <= 2:
        return exhaustive
    sampled = (
        generate.random_full_frame(random.Random(f"{seed}:search:{i}"), 3 + i % (max_worlds - 2))
        for i in range(samples)
    )
    return itertools.chain(exhaustive, sampled)
