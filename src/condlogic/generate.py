"""Random and exhaustive generation of posets, frames and formulas.

Random frames draw their relations through row modes, one table
(:data:`MODES`) of one-line entries over a few shape helpers.

Coherence repair: left-composing an arbitrary relation with the order
(``rows'[x] = union of rows[y] over y >= x``, :func:`frames.compose_up_rel`)
always yields a relation satisfying the frame condition, because composing
the order with itself changes nothing.  Sandwiching between two copies of
the order additionally yields the strong coherence condition.  Constrained
row modes keep their defining property under this repair, which is checked
again after generation anyway.

Every random draw, and the order of the draws, is part of the output
contract: a seed must give the same frames from one version to the next,
because the golden CLI corpus (``persist``, ``search``, sampled
``verify-correspondence``) and the benchmark's output digests pin what
seeded runs produce.

The work around the draws is cut without touching them.  Random and
enumerated orders come from the order intern
(:func:`condlogic.order.interned_order`), so the checking constructor runs
once per distinct rows tuple and equal orders share their upsets.  The
admissible closure reads its Heyting implications off the order's
down-closure table.  A kept general frame is built without the
constructor's checks, which cannot fail on the closure's output.

Exhaustive enumeration order is (world count, preorder as a big-endian
matrix integer, relation assignment as a big-endian integer over the upset
list); countermodel searches report the first hit in this order.
"""

from __future__ import annotations

import itertools
import random
from typing import Callable, Dict, Iterator, List, Sequence

from .errors import InfeasibleEnumerationError
from .frames import (
    ConditionalFrame,
    GeneralFrame,
    Rows,
    _unchecked_frame,
    compose_rel_up,
    compose_up_rel,
    rel_coherent,
)
from .order import FinitePreorder, box, interned_order, intransitive_pair
from .syntax import And, Bot, Box, Cond, Formula, Imp, Language, Or, Var

RowSampler = Callable[[int], Rows]


# --- repair ---------------------------------------------------------------


def repair_strong(p: FinitePreorder, rows: Sequence[int]) -> Rows:
    return compose_rel_up(p, compose_up_rel(p, rows))


# --- random posets and relations -------------------------------------------


def random_poset(rng: random.Random, n: int) -> FinitePreorder:
    """Random poset: edges only from lower to higher index, then closed.

    The order is interned (:func:`~condlogic.order.interned_order`): equal
    rows give the same instance."""
    edge_prob = rng.choice([0.2, 0.35, 0.5, 0.7])
    up = [1 << i for i in range(n)]
    for i in range(n - 1, -1, -1):
        for j in range(i + 1, n):
            if rng.random() < edge_prob:
                up[i] |= up[j]
    return interned_order(tuple(up))


def _random_mask(rng: random.Random, n: int, density: float) -> int:
    mask = 0
    for j in range(n):
        if rng.random() < density:
            mask |= 1 << j
    return mask


def random_rows(rng: random.Random, p: FinitePreorder, density: float) -> List[int]:
    return [_random_mask(rng, p.n, density) for _ in range(p.n)]


# --- row modes --------------------------------------------------------------
#
# Each mode is a factory: given (rng, order) it fixes any per-frame
# randomness and returns a sampler mapping the indexing upset to rows.
# Modes are best-effort: the experiment runners re-check the wanted
# correspondent after generation and reject, so a mode only has to make
# acceptance likely, not certain.


def _drawn(densities: Sequence[float], shape: Callable) -> Callable:
    """Density drawn once per frame; per upset ``a``, random rows with row
    ``x`` replaced by ``shape(p, a, x, row)``, then repaired."""
    def factory(rng, p):
        density = rng.choice(densities)
        return lambda a: compose_up_rel(
            p, [shape(p, a, x, r) for x, r in enumerate(random_rows(rng, p, density))])
    return factory


def _same_row(row: Callable) -> Callable:
    """Every world gets the row ``row(p, a)``; no randomness."""
    return lambda rng, p: lambda a: (row(p, a),) * p.n


def _one_world(candidates: Callable) -> Callable:
    """Per upset: no successors (probability 0.3, or no candidate at all),
    else one world drawn from ``candidates(p)`` as every world's row."""
    def factory(rng, p):
        worlds = candidates(p)
        def sample(a):
            if not worlds or rng.random() < 0.3:
                return (0,) * p.n
            return (1 << rng.choice(worlds),) * p.n
        return sample
    return factory


_random = _drawn((0.15, 0.3, 0.5), lambda p, a, x, r: r)


def _strong_random(rng, p):
    sample = _random(rng, p)
    return lambda a: compose_rel_up(p, sample(a))


def _const_meet(rng, p):
    m0 = _random_mask(rng, p.n, 0.5)
    return lambda a: (a & m0,) * p.n


def _shared(rng, p):
    rows = compose_up_rel(p, random_rows(rng, p, rng.choice((0.2, 0.4))))
    return lambda a: rows


MODES: Dict[str, Callable[[random.Random, FinitePreorder], RowSampler]] = {
    "empty": _same_row(lambda p, a: 0),
    "random": _random,
    "strong_random": _strong_random,
    "subset": _drawn((0.3, 0.6), lambda p, a, x, r: r & a),
    "refl": _same_row(lambda p, a: a),
    "strength": lambda rng, p: lambda a: tuple(u & a for u in p.up),
    "strength_sub": _drawn((0.4, 0.7), lambda p, a, x, r: r & p.up[x] & a),
    "up_within": _drawn((0.4, 0.7), lambda p, a, x, r: r & p.up[x]),
    "diag": _drawn((0.0, 0.2, 0.4), lambda p, a, x, r: r | (a & 1 << x)),
    "diag_all": _drawn((0.0, 0.2, 0.4), lambda p, a, x, r: r | 1 << x),
    "const_meet": _const_meet,
    "shared": _shared,
    "singleton": _one_world(lambda p: range(p.n)),
    "maximal_singleton": _one_world(
        lambda p: [x for x in range(p.n) if p.up[x] == 1 << x]),
    "total_rows": _same_row(lambda p, a: p.full_mask),
    "exf": _drawn((0.3, 0.6), lambda p, a, x, r: r if p.up[x] & a else 0),
}


def make_sampler(rng: random.Random, p: FinitePreorder, mode_names: Sequence[str],
                 force_subset: bool = False, strong: bool = False) -> RowSampler:
    """Pick one mode for this frame and wrap repairs around it; with no
    repair asked for, the mode's own sampler."""
    name = mode_names[rng.randrange(len(mode_names))]
    base = MODES[name](rng, p)
    if not (force_subset or strong):
        return base

    def sample(a: int) -> Rows:
        rows = base(a)
        if force_subset:
            rows = tuple(r & a for r in rows)
        if strong:
            rows = repair_strong(p, rows)
        return rows

    return sample


# --- frame construction ------------------------------------------------------


def random_full_frame(rng: random.Random, n: int, strong: bool = False,
                      mode_names: Sequence[str] = ("random",)) -> ConditionalFrame:
    p = random_poset(rng, n)
    sampler = make_sampler(rng, p, mode_names, strong=strong)
    relations = {a: sampler(a) for a in p.upsets}
    return ConditionalFrame(p, relations)


def close_admissible(rng: random.Random, p: FinitePreorder, seeds: Sequence[int],
                     sampler: RowSampler):
    """Close a seed family under meet, join, imp and the cond operation,
    drawing a relation for every set the moment it enters the family.

    Semi-naive: a round combines only the ordered pairs with at least one
    *fresh* member, one that entered in the round before (every seed is
    fresh in the first round).  A pair of older members was combined in an
    earlier round and can only give sets already known, so each ordered
    pair of the final family is combined exactly once.  The pairs left run
    in the order of combining every pair in every round: ``a`` over the
    sorted family, ``b`` over the family if ``a`` is fresh and over the
    fresh members otherwise, both in sorted order.  New sets therefore
    enter, and draw their relations, in the same order, and a seed gives
    the same frame.

    Early stop: the closure returns the moment the family holds every
    upset of ``p``.  Every member is an upset: the seeds are, the meet,
    join and Heyting implication of two upsets are upsets, and
    ``box(R_a, b)`` of a coherent relation over an upset ``b`` is an upset.
    So once the family holds every upset, no later pair can add a set and
    no further relation is drawn: the family, the relations and the
    generator state are those the full loop would leave.

    The Heyting implication of ``a`` and ``b`` is ``full ^
    down_closures[a & ~b]``, read off the order's table.
    """
    ups = p.upsets
    full = p.full_mask
    dcl = p.down_closures
    known = set(seeds) | {0, full}
    relations = {a: sampler(a) for a in sorted(known)}
    fresh = set(known)
    while fresh and len(known) < len(ups):
        current = sorted(known)
        fresh_sorted = [b for b in current if b in fresh]
        entered = set()
        for a in current:
            rows = relations[a]
            for b in current if a in fresh else fresh_sorted:
                for c in (a & b, a | b, full ^ dcl[a & ~b], box(rows, b)):
                    if c not in known:
                        known.add(c)
                        entered.add(c)
                        relations[c] = sampler(c)
                        if len(known) == len(ups):
                            return ups, relations
        fresh = entered
    return tuple(sorted(known)), relations


_MAX_REGEN = 8


def random_general_frame(rng: random.Random, n: int,
                         mode_names: Sequence[str] = ("random",),
                         force_subset: bool = False,
                         strong: bool = False) -> GeneralFrame:
    """Random valid general frame; prefers frames with non-admissible upsets,
    redrawing up to :data:`_MAX_REGEN` times before settling for a full one.

    Only the draw returned is built into a :class:`GeneralFrame`: the first
    with a non-admissible upset, or else the last.  Building draws nothing
    from ``rng``, so skipping it for the discarded draws leaves the
    generator state unchanged.  It skips the constructor's checks
    (:func:`frames._unchecked_frame`), which cannot fail on a closure's output.
    """
    for _ in range(_MAX_REGEN):
        p = random_poset(rng, n)
        sampler = make_sampler(rng, p, mode_names, force_subset=force_subset, strong=strong)
        n_seeds = rng.randrange(0, 3)
        ups = p.upsets
        seeds = [ups[rng.randrange(len(ups))] for _ in range(n_seeds)]
        admissible, relations = close_admissible(rng, p, seeds, sampler)
        if len(admissible) < len(ups):
            break
    return _unchecked_frame(GeneralFrame, p, admissible, relations)


# --- exhaustive enumeration ---------------------------------------------------


def enumerate_preorders(n: int) -> List[FinitePreorder]:
    """All preorders on n labelled worlds, ascending by matrix integer (the
    first off-diagonal pair in row-major order is the top bit of ``bits``)."""
    if n > 3:
        raise InfeasibleEnumerationError("preorder enumeration is only used for n <= 3")
    out = []
    offdiag = [(i, j) for i in range(n) for j in range(n) if i != j]
    top = len(offdiag) - 1
    for bits in range(1 << len(offdiag)):
        up = [1 << i for i in range(n)]
        for k, (i, j) in enumerate(offdiag):
            if (bits >> (top - k)) & 1:
                up[i] |= 1 << j
        if intransitive_pair(up) is None:
            out.append(interned_order(tuple(up)))
    return out


def coherent_relations(p: FinitePreorder) -> List[Rows]:
    """All relations satisfying the frame condition, in big-endian row order."""
    full = p.full_mask
    out = []
    for combo in itertools.product(range(full + 1), repeat=p.n):
        if rel_coherent(p, combo):
            out.append(combo)
    return out


def enumerate_full_frames(max_worlds: int = 2) -> Iterator[ConditionalFrame]:
    """Every valid full conditional frame with at most ``max_worlds`` worlds.

    Built without the constructor's checks (:func:`frames._unchecked_frame`): the
    fields are already what those checks test.
    """
    if max_worlds > 2:
        raise InfeasibleEnumerationError(
            "exhaustive frame enumeration is feasible for at most 2 worlds; "
            "use sampling for larger sizes"
        )
    for n in range(1, max_worlds + 1):
        for p in enumerate_preorders(n):
            ups = p.upsets
            rels = coherent_relations(p)
            for combo in itertools.product(rels, repeat=len(ups)):
                yield _unchecked_frame(ConditionalFrame, p, ups, dict(zip(ups, combo)))


# --- random formulas ----------------------------------------------------------

# the connectives a random node draws from in each language; the languages
# are module globals because an enum member read through its class costs ten
# times as much, once per node (see semantics._COND)
_COND = Language.COND
_MODAL = Language.MODAL
_COMMON_OPS = ("and", "or", "imp", "imp")
_COND_OPS = _COMMON_OPS + ("cond", "cond")
_MODAL_OPS = _COMMON_OPS + ("box", "box")


def random_formula(rng: random.Random, language: Language, letters: Sequence[str],
                   depth: int) -> Formula:
    if depth <= 0 or rng.random() < 0.2:
        if rng.random() < 0.12:
            return Bot(language)
        return Var(letters[rng.randrange(len(letters))], language)
    if language is _COND:
        ops = _COND_OPS
    elif language is _MODAL:
        ops = _MODAL_OPS
    else:
        ops = _COMMON_OPS
    op = ops[rng.randrange(len(ops))]
    if op == "box":
        return Box(random_formula(rng, language, letters, depth - 1))
    left = random_formula(rng, language, letters, depth - 1)
    right = random_formula(rng, language, letters, depth - 1)
    if op == "and":
        return And(left, right)
    if op == "or":
        return Or(left, right)
    if op == "imp":
        return Imp(left, right)
    return Cond(left, right)
