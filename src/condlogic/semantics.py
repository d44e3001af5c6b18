"""Model checking and validity over finite frames.

Truth sets are computed world-recursively from the semantic clauses; the
conditional clause reads the relation indexed by the antecedent's truth
set.  Validity enumerates valuations only over the letters occurring in
the formula (equivalent to quantifying over all of them, by uniform
substitution), in lexicographic order of (letter, upset encoding), so the
reported countermodel is deterministic.

Formulas are compiled once into a flat post-order program with shared
subterms deduplicated.  One interpreter runs the program per valuation on
*bound steps*, each op paired with the function interpreting it, and one
scan drives it over all valuations.  So one interpreter serves general
frames (bitwise ``&`` and ``|``, the frame's memoised ``imp`` and ``dto``),
modal frames (``box`` in the conditional's slot) and algebras (table
lookups, see :func:`condlogic.algebra.alg_satisfies`).
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Dict, Optional, Sequence, Tuple

from .errors import BudgetExceededError, FrameFormatError, LanguageError, NotAdmissibleError
from .frames import GeneralFrame, ModalFrame
from .order import (
    FinitePreorder,
    all_upsets,
    is_upset,
    mask_to_key,
    mask_to_worlds,
    read_indices,
    set_bits,
    worlds_to_mask,
)
from .syntax import Formula, Language, proposition_letters

DEFAULT_BUDGET = 10_000_000

Valuation = Dict[str, int]


@dataclass
class Verdict:
    valid: bool
    valuation: Optional[Valuation] = None
    world: Optional[int] = None
    checked: int = 0

    def __bool__(self) -> bool:
        return self.valid


@lru_cache(maxsize=8192)
def compile_formula(f: Formula) -> Tuple[Tuple[str, ...], Tuple, int]:
    """Flatten to (letters, program, result slot); shared subterms appear once.

    The program is a tuple of (op, left_slot, right_slot) triples writing
    into consecutive slots; variable slots come first, in sorted letter
    order, then a slot for bot.  Unary nodes repeat their operand, so every
    node reads two slots.
    """
    letters = tuple(sorted(proposition_letters(f)))
    slot_of_letter = {name: i for i, name in enumerate(letters)}
    bot_slot = len(letters)
    program = []
    memo: Dict[int, int] = {}

    def emit(node: Formula) -> int:
        got = memo.get(id(node))
        if got is not None:
            return got
        if node.op == "var":
            slot = slot_of_letter[node.name]
        elif node.op == "bot":
            slot = bot_slot
        else:
            operands = [emit(arg) for arg in node.args]
            slot = bot_slot + 1 + len(program)
            program.append((node.op, operands[0], operands[-1]))
        memo[id(node)] = slot
        return slot

    result_slot = emit(f)
    return letters, tuple(program), result_slot


_LANGUAGE_ERRORS = {
    Language.COND: "conditional frames interpret the conditional language only",
    Language.MODAL: "modal frames interpret the box language only",
}


def _compile_for(f: Formula, language: Language):
    if f.language is not language:
        raise LanguageError(_LANGUAGE_ERRORS[language])
    return compile_formula(f)


def _check_valuation(order: FinitePreorder, v: Valuation, letters, admissible=None):
    for name in letters:
        if name not in v:
            raise NotAdmissibleError(f"valuation does not define letter {name!r}")
    for name, mask in v.items():
        if not is_upset(order, mask):
            raise NotAdmissibleError(f"valuation of {name!r} is not an upset")
        if admissible is not None and mask not in admissible:
            raise NotAdmissibleError(
                f"valuation of {name!r} = {{{mask_to_key(mask)}}} is not admissible"
            )


def _steps(program, imp: Callable, modal: Callable, meet: Callable = operator.and_,
           join: Callable = operator.or_) -> list:
    """Bind each (op, left, right) of a program to the function interpreting op.

    ``modal`` interprets the one non-Boolean connective the language has:
    the conditional on general frames and algebras, the box on modal frames.
    """
    fns = {"and": meet, "or": join, "imp": imp}
    return [(fns.get(op, modal), left, right) for op, left, right in program]


def _run(steps, result_slot: int, values, bot) -> int:
    """Evaluate bound steps over one valuation; ``bot`` fills the slot after the letters."""
    buf = list(values)
    buf.append(bot)
    for fn, left, right in steps:
        buf.append(fn(buf[left], buf[right]))
    return buf[result_slot]


def _scan(order: FinitePreorder, pool: Sequence[int], compiled, imp: Callable,
          modal: Callable, budget: int) -> Verdict:
    """Evaluate over every valuation drawn from ``pool``, in lexicographic
    order; the first countermodel found, or a valid verdict."""
    letters, program, result_slot = compiled
    n = order.n
    required = len(pool) ** len(letters) * n
    if required > budget:
        raise BudgetExceededError(required, budget)
    full = order.full_mask
    steps = _steps(program, imp, modal)
    checked = 0
    for values in itertools.product(pool, repeat=len(letters)):
        ts = _run(steps, result_slot, values, 0)
        checked += n
        if ts != full:
            world = set_bits(full & ~ts)[0]
            return Verdict(False, dict(zip(letters, values)), world, checked)
    return Verdict(True, None, None, checked)


def truth_set(frame: GeneralFrame, valuation: Valuation, f: Formula) -> int:
    """The set of worlds satisfying ``f``; always an upset.

    For non-full frames the valuation must be admissible, which by the
    closure properties of the admissible family keeps every intermediate
    truth set admissible as well.
    """
    letters, program, result_slot = _compile_for(f, Language.COND)
    admissible = None if frame.is_full else set(frame.admissible)
    _check_valuation(frame.order, valuation, letters, admissible)
    values = [valuation[name] for name in letters]
    return _run(_steps(program, frame.imp, frame.dto), result_slot, values, 0)


def check(frame: GeneralFrame, valuation: Valuation, f: Formula, world: int) -> bool:
    if not 0 <= world < frame.n:
        raise NotAdmissibleError(f"world {world} out of range")
    return bool((truth_set(frame, valuation, f) >> world) & 1)


def valid(frame: GeneralFrame, f: Formula, budget: int = DEFAULT_BUDGET) -> Verdict:
    """Exhaustive validity over admissible valuations (all upsets when full).

    Returns the first countermodel in enumeration order, or a valid verdict.
    """
    return _scan(frame.order, frame.admissible, _compile_for(f, Language.COND),
                 frame.imp, frame.dto, budget)


# --- the unimodal language over modal frames ------------------------------


def truth_set_modal(frame: ModalFrame, valuation: Valuation, f: Formula) -> int:
    letters, program, result_slot = _compile_for(f, Language.MODAL)
    _check_valuation(frame.order, valuation, letters)
    values = [valuation[name] for name in letters]
    return _run(_steps(program, frame.imp, frame.box), result_slot, values, 0)


def check_modal(frame: ModalFrame, valuation: Valuation, f: Formula, world: int) -> bool:
    if not 0 <= world < frame.order.n:
        raise NotAdmissibleError(f"world {world} out of range")
    return bool((truth_set_modal(frame, valuation, f) >> world) & 1)


def valid_modal(frame: ModalFrame, f: Formula, budget: int = DEFAULT_BUDGET) -> Verdict:
    return _scan(frame.order, all_upsets(frame.order), _compile_for(f, Language.MODAL),
                 frame.imp, frame.box, budget)


# --- valuation file format -------------------------------------------------
#
# { "<letter>": [w, ...], ... }


def valuation_to_json(v: Valuation) -> dict:
    return {name: mask_to_worlds(mask) for name, mask in sorted(v.items())}


def valuation_from_json(obj: dict, frame: GeneralFrame) -> Valuation:
    """Load a valuation, validating upsets (and admissibility on general frames)."""
    if not isinstance(obj, dict):
        raise FrameFormatError("a valuation maps letters to world lists")
    v = {name: worlds_to_mask(read_indices(worlds, frame.n, f"valuation of {name!r}"))
         for name, worlds in obj.items()}
    admissible = None if frame.is_full else set(frame.admissible)
    _check_valuation(frame.order, v, (), admissible)
    return v
