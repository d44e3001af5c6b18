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

*The order of a scan.*  :func:`_scan` checks its step budget before
anything runs.  Its first branch is the common case of a frame sweep: a
hot program (see below) whose whole scan has at most :data:`WHOLE_SCAN`
valuations makes one call of its generated function over every
valuation, with no chunk.  A 2-world scan is short enough that the fixed
cost of a call weighs on it, so the bookkeeping of every other scan comes
after that branch and costs it nothing.

*Chunks.*  Every other scan first evaluates its :data:`SINGLES` lowest
valuations one at a time, since a wide chunk costs about as much as a
dozen single ones on small frames and most refutations come early.  A
scan of at most :data:`SINGLES` valuations, and the scan at which a
program turns hot when it has at most :data:`WHOLE_SCAN`, evaluate all
of them so.  Any other scan then runs chunks (:func:`_run_chunks`) of
``k^m`` valuations from valuation 0, in which the last ``m`` letters vary
and the earlier ones are fixed, so a fixed letter's planes are all ones
or zero and a varying letter's depend only on ``(pool, n, m)``
(:func:`_plan`, a small bounded cache).  Each chunk is at least
:data:`GROWTH` times wider than the one before (the singles counting as a
chunk of :data:`SINGLES`), until the widest power of ``k`` within
:data:`MAX_CHUNK` valuations, whose chunks then tile the rest of the
scan.  So a plane never holds more than :data:`MAX_CHUNK` bits: a chunk's
memory is bounded by its width times ``n`` times the program's slot
count, whatever the budget allows.

*The one-valuation phase.*  :func:`_run_one` interprets a program at one
valuation: it dispatches on each op's name and calls :func:`box` per
connective.  After a program's first :data:`HOT_SCANS` scans, a scan at
``n`` worlds runs its singles instead, or its whole scan when that has at
most :data:`WHOLE_SCAN` valuations, through a Python function generated
for ``(program, n)`` (a partial evaluation of the interpreter: Futamura,
"Partial evaluation of computation process", 1971).  Its slots are locals
and each ``and``/``or`` is one expression, so no op name is looked at and
no call is made per connective.  Each box is one lookup in a table indexed
by its set: ``imp`` reads the order's down-closure table (``a -> b`` is
the complement of the down-closure of ``a`` minus ``b``), and the
conditional and the modal box the :func:`~condlogic.order.box_table` of
their relation, which extends that relation's row of the complex algebra's
``cond`` table to every set of worlds.  :mod:`condlogic.order` decides a
table's form: a tuple on at most :data:`~condlogic.order.TABLE_WORLDS`
worlds, a map filled on lookup above.  The code runs one loop per
letter, the first outermost, and sets each slot in the loop of the deepest
letter it reads, so an op runs once per prefix of the letters it reads: on
a 2-world frame with 4 upsets, ``tr``'s ``p ~> q`` runs 16 times a scan,
not 64, and ``red``'s ``true`` once.  Each antecedent's relation, and its
box table, is looked up once per such prefix too.  A 2-world scan of a
sweep's axioms takes an eighth to a third of the interpreted time.
Generating costs as much as 7 to 17 interpreted 2-world scans, though.
Generating on first use would make a program scanned once (a ``clc valid``
process, a random formula of a sampling experiment) many times slower, and
it raised the peak memory of the fill-in benchmark by over 10 %.  So only
programs that recur, as the axioms of a frame sweep do, are generated.
The scan count and the functions live in the program's
:func:`compile_formula` cache entry, so that cache bounds them; the
generated source is not kept.  The source, and the file name each function
is compiled under (so that a profile tells them apart), hold slot numbers,
op names and fixed templates only, never text from the input.  A generated
function reads nothing but its arguments: it closes over no variable, its
globals hold only the builtins, and :func:`~condlogic.order.box_table`
comes in as a default argument.  It stops at its first refuted valuation,
or returns at its first valuation with an antecedent that has no relation;
:func:`_scan` then re-runs that valuation alone, as it does the first such
valuation of a chunk, and raises the reference's error.  :func:`_run_one`
stays the reference; it alone serves :func:`truth_set` and those re-runs.

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
    box,
    box_table,
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
# Scans of one program that interpret its one-valuation phase before that
# phase is generated.  Generating the program of a catalog axiom (1-8 ops)
# at 2 or 3 worlds costs 150-430 us, about 250 in the median, and saves
# 14-19 us of a 22-29 us scan of a 2-world frame (every catalog axiom on
# 342 two-world frames; 2-core VM, Python 3.11.7), so it pays for itself
# after about 15 scans.  32 is kept: the axioms of a sweep recur thousands
# of times either way, and a lower count would spend generation time and
# memory on formulas that recur only a few dozen times.
HOT_SCANS = 32
# Valuations of a scan, at most, that a hot program runs through its
# generated function alone, with no chunk; at least SINGLES.  The chunk
# phase after the singles costs a ``_plan`` lookup, fresh planes and one
# ``_run`` of the program over the whole chunk.  On hot 2-5-world scans
# (2-core VM, Python 3.11.7) a valid scan of 64 valuations took 0.7-1.3
# times as long in generated code, but one refuted after the singles stops
# there instead of paying for a chunk: the 2-world tr scans of a frame
# sweep took 10-15 % less.  Valid scans of 100-216 valuations took
# 1.04-2.2 times as long, so the cap stays at 64.
WHOLE_SCAN = 64

Valuation = Dict[str, int]


@dataclass(slots=True)
class Verdict:
    valid: bool
    valuation: Optional[Valuation] = None
    world: Optional[int] = None
    checked: int = 0

    def __bool__(self) -> bool:
        return self.valid


class _ScanState:
    """How often :func:`_scan` has interpreted a program's one-valuation
    phase, and that phase as generated per world count (see :func:`_generate`)."""

    __slots__ = ("scans", "runs")

    def __init__(self):
        self.scans = 0
        self.runs = {}


@lru_cache(maxsize=8192)
def compile_formula(f: Formula) -> Tuple[Tuple[str, ...], Tuple, int, _ScanState]:
    """Flatten to (letters, program, result slot, scan state); equal subterms
    appear once.

    The program is a tuple of (op, left_slot, right_slot) triples writing
    into consecutive slots; variable slots come first, in sorted letter
    order, then a slot for bot.  Unary nodes repeat their operand, so every
    node reads two slots.  Subterms are shared by equality, not identity:
    two separately built copies of ``p ~> q`` are one op.  The scan state
    belongs to :func:`_scan` alone.
    """
    letters = tuple(sorted(proposition_letters(f)))
    slot_of_letter = {name: i for i, name in enumerate(letters)}
    bot_slot = len(letters)
    program = []
    memo: Dict[Formula, int] = {}

    def emit(node: Formula) -> int:
        got = memo.get(node)
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
        memo[node] = slot
        return slot

    result_slot = emit(f)
    return letters, tuple(program), result_slot, _ScanState()


_LANGUAGE_ERRORS = {
    Language.COND: "conditional frames interpret the conditional language only",
    Language.MODAL: "modal frames interpret the box language only",
}
# what each call is checked against; an enum member read through its class
# costs about 0.1 us (Python 3.11), a module global a tenth of that
_COND = Language.COND
_MODAL = Language.MODAL


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


@lru_cache(maxsize=64)
def _plan(pool: Tuple[int, ...], n: int, count: int) -> Tuple[Tuple[int, Tuple, int], ...]:
    """The wide chunks of a scan that start at valuation 0, narrowest first,
    as ``(width, letter planes, fixed letters)``; the last is the widest.

    In a chunk of ``k^m`` valuations the first ``count - m`` letters are
    fixed to ``pool[0]`` and the ``t``-th letter from the last changes every
    ``k^t`` valuations: bit ``i`` of its plane ``w`` is set iff world ``w``
    lies in ``pool[(i // k^t) % k]``.

    One pass of the ``eval-deep`` benchmark workload needs 44 distinct plans
    (seeds 3 and 45), 160 KB together and 66 KB for the largest; 32 entries
    missed 42-43 of its 332-338 lookups a pass, and 64 hold them all.
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


def _run_singles(program, result_slot: int, count: int, pool, limit: int,
                 order: FinitePreorder, rel, full: int, letters):
    """``(index, valuation, refuted worlds)`` of the first of the first
    ``limit`` valuations of ``itertools.product(pool, repeat=count)`` that
    refutes the program, the valuation a dict from ``letters``, or None;
    raises at the first valuation that has an antecedent without a
    relation.  The reference for :func:`_generate`, whose functions take the
    same arguments after the program's."""
    valuations = itertools.islice(itertools.product(pool, repeat=count), limit)
    for index, values in enumerate(valuations):
        bad = full ^ _run_one(program, result_slot, values, order, rel)
        if bad:
            return index, dict(zip(letters, values)), bad
    return None


# op -> the expression that sets slot ``out``, each box one lookup in a
# table indexed by its set: ``D`` is the order's down-closure table, ``M``
# the modal relation's box table and ``B{a}`` that of the relation of
# antecedent slot ``a``
_TABLED = {
    "and": "s{a} & s{b}",
    "or": "s{a} | s{b}",
    "imp": "full ^ D[s{a} & ~s{b}]",
    "box": "M[s{b}]",
    "cond": "B{a}[s{b}]",
}
# the lines that look up the relation of antecedent slot ``a``, and its box
# table, right after slot ``a`` is set
_LOOKUP = ("R{a} = get(s{a})", "if R{a} is None:", "    return i, None, None",
           "B{a} = table(R{a})")


def _generate(program, result_slot: int, count: int, n: int):
    """The one-valuation phase of ``program`` at ``n`` worlds, as a function.

    ``run(pool, limit, order, rel, full, letters)`` returns what
    ``_run_singles(program, result_slot, count, pool, limit, order, rel,
    full, letters)`` returns, but for a valuation at which the reference
    raises: it returns ``(index, None, None)`` there, and :func:`_scan`
    re-runs that valuation for the error.  It closes over nothing and reads
    no global: its one other argument, :func:`box_table`, is bound as a
    default.  It nests one ``for`` loop per letter, the first outermost, so
    it meets the valuations in that order, and counts them to stop after
    ``limit``.  Each op is set in the loop of the deepest letter it reads,
    so it runs once per prefix of the letters up to that one, and an op that
    reads no letter runs once per call (loop-invariant code motion: Aho,
    Lam, Sethi and Ullman, *Compilers*, 2nd ed., section 9.5).  Each
    antecedent's relation is looked up right after its slot is set.  A
    lookup that finds no relation stands for the first valuation of its
    prefix, the next one to be counted and so below ``limit``, and the first
    one at which the reference raises, so ``run`` returns its index.

    Every box is one lookup in a table indexed by its set (:data:`_TABLED`),
    fetched with the relation it boxes; :mod:`condlogic.order` decides the
    table's form.  The source is built from those templates and slot
    numbers alone; an op without a template raises here, before anything
    runs.
    """
    # per slot, the loop it is set in: 0 before any loop, j + 1 in letter j's
    level = [*range(1, count + 1), 0]
    antecedents = {a for op, a, _ in program if op == "cond"}
    bodies = [[f"s{count} = 0"]] + [[] for _ in range(count)]  # the lines of each loop

    def looked_up(slot):
        if slot in antecedents:
            bodies[level[slot]].extend(line.format(a=slot) for line in _LOOKUP)

    for slot in range(count + 1):
        looked_up(slot)
    for out, (op, a, b) in enumerate(program, count + 1):
        template = _TABLED.get(op)
        if template is None:
            raise ValueError(f"no template for op {op!r}")
        d = max(level[a], level[b])
        level.append(d)
        bodies[d].append(f"s{out} = " + template.format(a=a, b=b))
        looked_up(out)
    ops = {op for op, _, _ in program}
    lines = ["def run(pool, limit, order, rel, full, letters, table=table):"]
    if "imp" in ops:
        lines.append("    D = order.down_closures")
    if "box" in ops:
        lines.append("    M = table(rel)")
    if "cond" in ops:
        lines.append("    get = rel.get")
    lines.append("    i = 0")
    for d, body in enumerate(bodies):
        if d:
            lines.append(" " * (4 * d) + f"for s{d - 1} in pool:")
        lines.extend(" " * (4 + 4 * d) + line for line in body)
    valuation = "{" + "".join(f"letters[{j}]: s{j}, " for j in range(count)) + "}"
    lines.extend(" " * (4 + 4 * count) + line for line in (
        f"if s{result_slot} != full:",
        f"    return i, {valuation}, full ^ s{result_slot}",
        "i += 1",
        "if i == limit:",
        "    return None"))
    namespace = {"table": box_table}
    exec(compile("\n".join(lines), _file_name(program, result_slot, count, n), "exec"),
         {}, namespace)
    return namespace["run"]


def _file_name(program, result_slot: int, count: int, n: int) -> str:
    """The file name a generated function is compiled under, one per program
    and world count, so that a profile keeps each function apart.  Only slot
    numbers, op names and ``n`` go into it."""
    ops = " ".join(f"s{out}={op}(s{a},s{b})"
                   for out, (op, a, b) in enumerate(program, count + 1))
    return f"<scan n={n} letters={count} {ops} -> s{result_slot}>"


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


def _run_chunks(program, result_slot: int, letters, pool, order: FinitePreorder, rel):
    """The chunks of a scan after its singles: ``(index, valuation, refuted
    worlds)`` of the first valuation that refutes the program, or ``(index,
    None, None)`` if a valuation with an antecedent that has no relation
    comes first, or None.  The first chunk starts at valuation 0, so it
    evaluates the singles again.  Kept out of :func:`_scan`, whose locals
    its generator expressions read would otherwise be cells, made on every
    call of a scan, hot or not."""
    n, k, count = order.n, len(pool), len(letters)
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
            index = start + low
            if stray >> low & 1:
                return index, None, None
            return (index, dict(zip(letters, _valuation(index, pool, count))),
                    sum(1 << w for w, plane in enumerate(result) if not plane >> low & 1))
    return None


def _scan(order: FinitePreorder, pool: Tuple[int, ...], compiled, rel, budget: int) -> Verdict:
    """Evaluate over every valuation drawn from ``pool``; the first
    countermodel in enumeration order, or a valid verdict."""
    letters, program, result_slot, state = compiled
    n = order.n
    total = len(pool) ** len(letters)
    if total * n > budget:
        raise BudgetExceededError(total * n, budget)
    # each phase finds ``(index, valuation, refuted worlds)``, or ``(index,
    # None, None)`` at a valuation with an antecedent that has no relation
    run = state.runs.get(n)
    if run is not None and total <= WHOLE_SCAN:
        # the common case first: a hot program whose whole scan needs no chunk
        found = run(pool, total, order, rel, order.full_mask, letters)
    else:
        count = len(letters)
        full = order.full_mask
        if run is None and state.scans >= HOT_SCANS:
            run = state.runs[n] = _generate(program, result_slot, count, n)
        # the singles, or every valuation of a scan that needs no chunk
        whole = total <= (SINGLES if run is None else WHOLE_SCAN)
        limit = total if whole else SINGLES
        if run is None:
            state.scans += 1
            found = _run_singles(program, result_slot, count, pool, limit, order, rel, full,
                                 letters)
        else:
            found = run(pool, limit, order, rel, full, letters)
        if found is None and not whole:
            found = _run_chunks(program, result_slot, letters, pool, order, rel)
    if found is None:
        return Verdict(True, None, None, total * n)
    index, valuation, bad = found
    if bad is None:
        # that valuation alone raises for its first antecedent without a relation
        _run_one(program, result_slot, _valuation(index, pool, len(letters)), order, rel)
    return Verdict(False, valuation, (bad & -bad).bit_length() - 1, (index + 1) * n)


def _truth_set(order: FinitePreorder, compiled, valuation: Valuation, rel) -> int:
    """Evaluate at one valuation: a chunk of width one, whose result is the truth set."""
    letters, program, result_slot, _ = compiled
    return _run_one(program, result_slot, [valuation[name] for name in letters], order, rel)


# --- the conditional language over general frames --------------------------


def truth_set(frame: GeneralFrame, valuation: Valuation, f: Formula) -> int:
    """The set of worlds satisfying ``f``; always an upset.

    For non-full frames the valuation must be admissible, which by the
    closure properties of the admissible family keeps every intermediate
    truth set admissible as well.
    """
    compiled = _compile_for(f, _COND)
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
    if f.language is not _COND:
        raise LanguageError(_LANGUAGE_ERRORS[_COND])
    return _scan(frame.order, frame.admissible, compile_formula(f), frame.relations, budget)


# --- the unimodal language over modal frames ------------------------------


def truth_set_modal(frame: ModalFrame, valuation: Valuation, f: Formula) -> int:
    compiled = _compile_for(f, _MODAL)
    _check_valuation(frame.order, valuation, compiled[0])
    return _truth_set(frame.order, compiled, valuation, frame.rel)


def check_modal(frame: ModalFrame, valuation: Valuation, f: Formula, world: int) -> bool:
    if not 0 <= world < frame.order.n:
        raise NotAdmissibleError(f"world {world} out of range")
    return bool((truth_set_modal(frame, valuation, f) >> world) & 1)


def valid_modal(frame: ModalFrame, f: Formula, budget: int = DEFAULT_BUDGET) -> Verdict:
    return _scan(frame.order, frame.order.upsets, _compile_for(f, _MODAL),
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
