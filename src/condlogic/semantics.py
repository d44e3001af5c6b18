"""Model checking and validity over finite frames.

Truth sets are computed world-recursively from the semantic clauses; the
conditional clause reads the relation indexed by the antecedent's truth
set.  Validity enumerates valuations only over the letters occurring in
the formula (equivalent to quantifying over all of them, by uniform
substitution), in lexicographic order of (letter, upset encoding), so the
reported countermodel is deterministic.

Formulas are compiled once into a flat post-order program with shared
subterms deduplicated, and one bit-sliced kernel runs it over many
valuations at once (the bitslicing of Biham, "A fast new DES
implementation in software", FSE 1997).

*Numbering.*  With the ``L`` letters sorted and the ``k`` upsets of the
pool (the admissible ones, or all upsets on a modal frame) ascending,
valuation ``i`` is the ``i``-th tuple of ``itertools.product(pool,
repeat=L)``: the last letter changes fastest.  A scan reports the lowest
``i`` that refutes the formula, its lowest refuted world, and
``checked = (i + 1) * n``, or ``k^L * n`` when the formula is valid.

*Planes.*  Over a chunk of consecutive valuations every program slot holds
``n`` big-int planes, one per world: bit ``i`` of plane ``w`` is the truth
of world ``w`` under the chunk's ``i``-th valuation.  ``and`` and ``or``
are one big-int operation per world; ``imp`` at ``x`` is the AND over
``y >= x`` of ``~a_y | b_y``; the conditional at ``x`` is the OR over the
pool's upsets ``u`` of ``sel_u(a)`` (the valuations under which the
antecedent's truth set is ``u``) AND the ``b_y`` for ``y`` in
``R_u[x]``; the modal box at ``x`` is the AND of the ``b_y`` for ``y`` in
``R[x]``.  The first countermodel is the lowest zero bit of the result.
A chunk of one valuation keeps its one-bit planes as the bits of one int,
the truth set, so that ``imp`` is the box of the order over ``~a | b``
and the conditional the box of the one relation the antecedent selects;
:func:`truth_set` is such a chunk.

*Chunks.*  A scan first evaluates its :data:`SINGLES` lowest valuations
one at a time, since a wide chunk costs about as much as a dozen single
ones on small frames and most refutations come early.  It then runs
chunks of ``k^m`` valuations from valuation 0, in which the last ``m``
letters vary and the earlier ones are fixed, so a fixed letter's planes
are all ones or zero and a varying letter's depend only on ``(pool, n,
m)`` (:func:`_plan`, a small bounded cache).  Each chunk is at least
:data:`GROWTH` times wider than the one before (the singles counting as a
chunk of :data:`SINGLES`), until the widest power of ``k`` within
:data:`MAX_CHUNK` valuations, whose chunks then tile the rest of the scan.
So a plane never holds more than :data:`MAX_CHUNK` bits: a chunk's memory
is bounded by its width times ``n`` times the program's slot count,
whatever the budget allows.

Algebras, whose elements are not world sets, run the same compiled
programs through table lookups (see :func:`condlogic.algebra.alg_satisfies`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Optional, Tuple

from .errors import BudgetExceededError, FrameFormatError, LanguageError, NotAdmissibleError
from .frames import GeneralFrame, ModalFrame
from .order import (
    FinitePreorder,
    all_upsets,
    box,
    heyting_imp,
    is_upset,
    mask_to_key,
    mask_to_worlds,
    read_indices,
    set_bits,
    worlds_to_mask,
)
from .syntax import Formula, Language, proposition_letters

DEFAULT_BUDGET = 10_000_000
SINGLES = 16  # valuations a scan evaluates one at a time before its first chunk
GROWTH = 64  # how many times wider each chunk of a scan is than the last, at least
MAX_CHUNK = 1 << 15  # valuations in a chunk, at most: the bits of one plane

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


# --- the bit-sliced kernel --------------------------------------------------


def _fixed_planes(u: int, n: int, ones: int) -> Tuple[int, ...]:
    """The planes of a letter fixed to ``u`` throughout a chunk."""
    return tuple(ones if u >> w & 1 else 0 for w in range(n))


@lru_cache(maxsize=32)
def _plan(pool: Tuple[int, ...], n: int, count: int) -> Tuple[Tuple[int, Tuple, int], ...]:
    """The wide chunks of a scan that start at valuation 0, narrowest first,
    as ``(width, letter planes, fixed letters)``; the last is the widest.

    In a chunk of ``k^m`` valuations the first ``count - m`` letters are
    fixed to ``pool[0]`` and the ``t``-th letter from the last changes every
    ``k^t`` valuations: bit ``i`` of its plane ``w`` is set iff world ``w``
    lies in ``pool[(i // k^t) % k]``.
    """
    k = len(pool)
    top = 0
    while top < count and k ** (top + 1) <= MAX_CHUNK:
        top += 1
    levels = []
    width = SINGLES
    for m in range(1, top + 1):
        if k ** m >= GROWTH * width or m == top:
            width = k ** m
            levels.append(m)
    out = []
    for m in levels or [0]:
        width = k ** m
        ones = (1 << width) - 1
        planes = [_fixed_planes(pool[0], n, ones)] * (count - m)
        for t in range(m - 1, -1, -1):
            run = k ** t
            # one k^(t+1)-bit block, repeated over the chunk by a multiplication
            tile = ones // ((1 << run * k) - 1)
            planes.append(tuple(
                sum(((1 << run) - 1) << d * run for d, u in enumerate(pool) if u >> w & 1) * tile
                for w in range(n)))
        out.append((width, tuple(planes), count - m))
    return tuple(out)


def _valuation(index: int, pool: Tuple[int, ...], count: int) -> List[int]:
    """The upsets valuation ``index`` gives the letters, first letter first."""
    k = len(pool)
    out = [0] * count
    for i in range(count - 1, -1, -1):
        index, d = divmod(index, k)
        out[i] = pool[d]
    return out


def _run_one(program, result_slot: int, values, order: FinitePreorder, rel) -> int:
    """Evaluate a program at one valuation, a chunk of width one.

    Its ``n`` one-bit planes are kept as the bits of one int, the truth
    set, so ``imp`` at ``x`` (the AND over ``y >= x`` of ``~a_y | b_y``) is
    the Heyting implication, the box of the order over ``~a | b``; the
    conditional is the box of the one relation its antecedent selects, and
    the modal box that of ``rel``.
    """
    buf = list(values)
    buf.append(0)
    for op, left, right in program:
        a = buf[left]
        b = buf[right]
        if op == "and":
            buf.append(a & b)
        elif op == "or":
            buf.append(a | b)
        elif op == "imp":
            buf.append(heyting_imp(order, a, b))
        elif op == "box":
            buf.append(box(rel, b))
        else:
            rows = rel.get(a)
            if rows is None:
                raise NotAdmissibleError(f"no relation for upset {{{mask_to_key(a)}}}")
            buf.append(box(rows, b))
    return buf[result_slot]


def _run(program, result_slot: int, buf: list, ones: int, order: FinitePreorder, rel):
    """Evaluate a program over a chunk; ``buf`` holds the letters' planes.

    ``rel`` interprets the one non-Boolean connective the language has: the
    relations of a general frame, keyed by admissible upset, for the
    conditional, or the rows of a modal frame's relation for the box.
    Returns the result planes and the valuations at which some antecedent's
    truth set has no relation.  The ``sel_u`` of each antecedent slot and
    the ANDs over successor rows of each consequent slot are computed once
    per chunk.
    """
    n = order.n
    buf.append((0,) * n)
    stray = 0
    sels = {}
    boxes = {}
    for op, left, right in program:
        a = buf[left]
        b = buf[right]
        if op == "and":
            out = [x & y for x, y in zip(a, b)]
        elif op == "or":
            out = [x | y for x, y in zip(a, b)]
        elif op == "imp":
            c = [ones ^ x | y for x, y in zip(a, b)]
            out = []
            for row in order.up:
                t = ones
                for y in set_bits(row):
                    t &= c[y]
                out.append(t)
        else:
            if op == "box":
                cases = ((ones, rel),)
            else:
                cases = sels.get(left)
                if cases is None:
                    cases = sels[left] = []
                    hit = 0
                    for u, rows in rel.items():
                        s = ones
                        for w, x in enumerate(a):
                            s &= x if u >> w & 1 else ones ^ x
                        if s:
                            hit |= s
                            cases.append((s, rows))
                    stray |= ones ^ hit
            ands = boxes.get(right)
            if ands is None:
                ands = boxes[right] = {0: ones}
            out = [0] * n
            for s, rows in cases:
                for x, row in enumerate(rows):
                    t = ands.get(row)
                    if t is None:
                        t = ones
                        for y in set_bits(row):
                            t &= b[y]
                        ands[row] = t
                    out[x] |= s & t
        buf.append(out)
    return buf[result_slot], stray


def _scan(order: FinitePreorder, pool: Tuple[int, ...], compiled, rel, budget: int) -> Verdict:
    """Evaluate over every valuation drawn from ``pool``, chunk by chunk; the
    first countermodel in enumeration order, or a valid verdict."""
    letters, program, result_slot = compiled
    n, k, count = order.n, len(pool), len(letters)
    total = k ** count
    if total * n > budget:
        raise BudgetExceededError(total * n, budget)
    full = order.full_mask
    singles = itertools.islice(itertools.product(pool, repeat=count), SINGLES)
    for index, values in enumerate(singles):
        bad = full ^ _run_one(program, result_slot, values, order, rel)
        if bad:
            world = (bad & -bad).bit_length() - 1
            return Verdict(False, dict(zip(letters, values)), world, (index + 1) * n)
    if total <= SINGLES:
        return Verdict(True, None, None, total * n)
    plan = _plan(pool, n, count)
    top, top_planes, fixed = plan[-1]
    # the rest of the scan in chunks of the widest width, the first letters
    # fixed; chunks of width one (k > MAX_CHUNK) start after the singles
    tiles = ((j * top, top, [*(_fixed_planes(u, n, (1 << top) - 1)
                               for u in _valuation(j, pool, fixed)), *top_planes[fixed:]])
             for j in range(SINGLES if top == 1 else 1, k ** fixed))
    chunks = itertools.chain(((0, width, planes) for width, planes, _ in plan), tiles)
    for start, width, planes in chunks:
        ones = (1 << width) - 1
        result, stray = _run(program, result_slot, list(planes), ones, order, rel)
        bad = stray
        for plane in result:
            bad |= ones ^ plane
        if bad:
            low = (bad & -bad).bit_length() - 1
            values = _valuation(start + low, pool, count)
            if stray >> low & 1:
                # that valuation alone raises for its first inadmissible antecedent
                _run_one(program, result_slot, values, order, rel)
            world = 0
            while result[world] >> low & 1:
                world += 1
            return Verdict(False, dict(zip(letters, values)), world, (start + low + 1) * n)
    return Verdict(True, None, None, total * n)


def _truth_set(order: FinitePreorder, compiled, valuation: Valuation, rel) -> int:
    """Evaluate at one valuation: a chunk of width one, whose result is the truth set."""
    letters, program, result_slot = compiled
    return _run_one(program, result_slot, [valuation[name] for name in letters], order, rel)


# --- the conditional language over general frames --------------------------


def truth_set(frame: GeneralFrame, valuation: Valuation, f: Formula) -> int:
    """The set of worlds satisfying ``f``; always an upset.

    For non-full frames the valuation must be admissible, which by the
    closure properties of the admissible family keeps every intermediate
    truth set admissible as well.
    """
    compiled = _compile_for(f, Language.COND)
    admissible = None if frame.is_full else set(frame.admissible)
    _check_valuation(frame.order, valuation, compiled[0], admissible)
    return _truth_set(frame.order, compiled, valuation, frame.relations)


def check(frame: GeneralFrame, valuation: Valuation, f: Formula, world: int) -> bool:
    if not 0 <= world < frame.n:
        raise NotAdmissibleError(f"world {world} out of range")
    return bool((truth_set(frame, valuation, f) >> world) & 1)


def valid(frame: GeneralFrame, f: Formula, budget: int = DEFAULT_BUDGET) -> Verdict:
    """Exhaustive validity over admissible valuations (all upsets when full).

    Returns the first countermodel in enumeration order, or a valid verdict.
    """
    return _scan(frame.order, frame.admissible, _compile_for(f, Language.COND),
                 frame.relations, budget)


# --- the unimodal language over modal frames ------------------------------


def truth_set_modal(frame: ModalFrame, valuation: Valuation, f: Formula) -> int:
    compiled = _compile_for(f, Language.MODAL)
    _check_valuation(frame.order, valuation, compiled[0])
    return _truth_set(frame.order, compiled, valuation, frame.rel)


def check_modal(frame: ModalFrame, valuation: Valuation, f: Formula, world: int) -> bool:
    if not 0 <= world < frame.order.n:
        raise NotAdmissibleError(f"world {world} out of range")
    return bool((truth_set_modal(frame, valuation, f) >> world) & 1)


def valid_modal(frame: ModalFrame, f: Formula, budget: int = DEFAULT_BUDGET) -> Verdict:
    return _scan(frame.order, all_upsets(frame.order), _compile_for(f, Language.MODAL),
                 frame.rel, budget)


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
