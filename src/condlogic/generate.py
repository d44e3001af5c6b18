"""Random and exhaustive generation of posets, frames and formulas.

Coherence repair: left-composing an arbitrary relation with the order
(``rows'[x] = union of rows[y] over y >= x``, :func:`frames.compose_up_rel`)
always yields a relation satisfying the frame condition, because composing
the order with itself changes nothing.  Sandwiching between two copies of
the order additionally yields the strong coherence condition.  Constrained
row modes keep their defining property under this repair, which is checked
again after generation anyway.

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
    compose_rel_up,
    compose_up_rel,
    rel_coherent,
)
from .order import FinitePreorder, all_upsets, box, heyting_imp, intransitive_pair
from .syntax import And, Bot, Box, Cond, Formula, Imp, Language, Or, Var

RowSampler = Callable[[int], Rows]


# --- repair ---------------------------------------------------------------


def repair_strong(p: FinitePreorder, rows: Sequence[int]) -> Rows:
    return compose_rel_up(p, compose_up_rel(p, rows))


# --- random posets and relations -------------------------------------------


def random_poset(rng: random.Random, n: int) -> FinitePreorder:
    """Random poset: edges only from lower to higher index, then closed."""
    edge_prob = rng.choice([0.2, 0.35, 0.5, 0.7])
    up = [1 << i for i in range(n)]
    for i in range(n - 1, -1, -1):
        for j in range(i + 1, n):
            if rng.random() < edge_prob:
                up[i] |= up[j]
    return FinitePreorder(n, tuple(up))


def random_rows(rng: random.Random, p: FinitePreorder, density: float) -> List[int]:
    full = p.full_mask
    rows = []
    for _ in range(p.n):
        mask = 0
        for j in range(p.n):
            if rng.random() < density:
                mask |= 1 << j
        rows.append(mask & full)
    return rows


# --- constrained row modes --------------------------------------------------
#
# Each mode is a factory: given (rng, order) it fixes any per-frame
# randomness and returns a sampler mapping the indexing upset to rows.
# Modes are best-effort: the experiment runners re-check the wanted
# correspondent after generation and reject, so a mode only has to make
# acceptance likely, not certain.


def _mode_empty(rng, p):
    zero = (0,) * p.n
    return lambda a: zero


def _mode_random(rng, p):
    density = rng.choice([0.15, 0.3, 0.5])
    return lambda a: compose_up_rel(p, random_rows(rng, p, density))


def _mode_strong_random(rng, p):
    density = rng.choice([0.15, 0.3, 0.5])
    return lambda a: repair_strong(p, random_rows(rng, p, density))


def _mode_subset(rng, p):
    density = rng.choice([0.3, 0.6])
    return lambda a: compose_up_rel(p, [r & a for r in random_rows(rng, p, density)])


def _mode_refl(rng, p):
    return lambda a: (a,) * p.n


def _mode_strength(rng, p):
    return lambda a: tuple(p.up[x] & a for x in range(p.n))


def _mode_strength_sub(rng, p):
    density = rng.choice([0.4, 0.7])
    def sample(a):
        rows = [r & p.up[x] & a for x, r in enumerate(random_rows(rng, p, density))]
        return compose_up_rel(p, rows)
    return sample


def _mode_up_within(rng, p):
    density = rng.choice([0.4, 0.7])
    def sample(a):
        rows = [r & p.up[x] for x, r in enumerate(random_rows(rng, p, density))]
        return compose_up_rel(p, rows)
    return sample


def _mode_diag(rng, p):
    density = rng.choice([0.0, 0.2, 0.4])
    def sample(a):
        rows = random_rows(rng, p, density)
        for x in range(p.n):
            if (a >> x) & 1:
                rows[x] |= 1 << x
        return compose_up_rel(p, rows)
    return sample


def _mode_diag_all(rng, p):
    density = rng.choice([0.0, 0.2, 0.4])
    def sample(a):
        rows = random_rows(rng, p, density)
        for x in range(p.n):
            rows[x] |= 1 << x
        return compose_up_rel(p, rows)
    return sample


def _mode_const_meet(rng, p):
    m0 = 0
    for j in range(p.n):
        if rng.random() < 0.5:
            m0 |= 1 << j
    return lambda a: ((a & m0),) * p.n


def _mode_shared(rng, p):
    density = rng.choice([0.2, 0.4])
    shared = compose_up_rel(p, random_rows(rng, p, density))
    return lambda a: shared


def _mode_singleton(rng, p):
    def sample(a):
        if rng.random() < 0.3:
            return (0,) * p.n
        h = rng.randrange(p.n)
        return ((1 << h),) * p.n
    return sample


def _mode_maximal_singleton(rng, p):
    maximal = [x for x in range(p.n) if p.up[x] == 1 << x]
    def sample(a):
        if not maximal or rng.random() < 0.3:
            return (0,) * p.n
        h = rng.choice(maximal)
        return ((1 << h),) * p.n
    return sample


def _mode_total_rows(rng, p):
    full = p.full_mask
    return lambda a: (full,) * p.n


def _mode_exf(rng, p):
    density = rng.choice([0.3, 0.6])
    def sample(a):
        rows = [
            r if p.up[x] & a else 0
            for x, r in enumerate(random_rows(rng, p, density))
        ]
        return compose_up_rel(p, rows)
    return sample


MODES: Dict[str, Callable] = {
    "empty": _mode_empty,
    "random": _mode_random,
    "strong_random": _mode_strong_random,
    "subset": _mode_subset,
    "refl": _mode_refl,
    "strength": _mode_strength,
    "strength_sub": _mode_strength_sub,
    "up_within": _mode_up_within,
    "diag": _mode_diag,
    "diag_all": _mode_diag_all,
    "const_meet": _mode_const_meet,
    "shared": _mode_shared,
    "singleton": _mode_singleton,
    "maximal_singleton": _mode_maximal_singleton,
    "total_rows": _mode_total_rows,
    "exf": _mode_exf,
}


def make_sampler(rng: random.Random, p: FinitePreorder, mode_names: Sequence[str],
                 force_subset: bool = False, strong: bool = False) -> RowSampler:
    """Pick one mode for this frame and wrap repairs around it."""
    name = mode_names[rng.randrange(len(mode_names))]
    base = MODES[name](rng, p)

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
    relations = {a: sampler(a) for a in all_upsets(p)}
    return ConditionalFrame(p, relations)


def close_admissible(rng: random.Random, p: FinitePreorder, seeds: Sequence[int],
                     sampler: RowSampler):
    """Close a seed family under meet, join, imp and the cond operation,
    drawing a relation for every set the moment it enters the family."""
    admissible = sorted(set(seeds) | {0, p.full_mask})
    relations = {a: sampler(a) for a in admissible}
    changed = True
    while changed:
        changed = False
        current = list(admissible)
        known = set(admissible)
        for a in current:
            for b in current:
                for c in (a & b, a | b, heyting_imp(p, a, b), box(relations[a], b)):
                    if c not in known:
                        known.add(c)
                        relations[c] = sampler(c)
                        changed = True
        admissible = sorted(known)
    return tuple(admissible), relations


_MAX_REGEN = 8


def random_general_frame(rng: random.Random, n: int,
                         mode_names: Sequence[str] = ("random",),
                         force_subset: bool = False,
                         strong: bool = False) -> GeneralFrame:
    """Random valid general frame; prefers frames with non-admissible upsets,
    redrawing up to :data:`_MAX_REGEN` times before settling for a full one."""
    frame = None
    for _ in range(_MAX_REGEN):
        p = random_poset(rng, n)
        sampler = make_sampler(rng, p, mode_names, force_subset=force_subset, strong=strong)
        n_seeds = rng.randrange(0, 3)
        ups = all_upsets(p)
        seeds = [ups[rng.randrange(len(ups))] for _ in range(n_seeds)]
        admissible, relations = close_admissible(rng, p, seeds, sampler)
        frame = GeneralFrame(p, admissible, relations)
        if len(admissible) < len(ups):
            return frame
    return frame


# --- exhaustive enumeration ---------------------------------------------------


def enumerate_preorders(n: int) -> List[FinitePreorder]:
    """All preorders on n labelled worlds, ordered by matrix integer."""
    if n > 3:
        raise InfeasibleEnumerationError("preorder enumeration is only used for n <= 3")
    out = []
    offdiag = [(i, j) for i in range(n) for j in range(n) if i != j]
    for bits in range(1 << len(offdiag)):
        up = [1 << i for i in range(n)]
        for k, (i, j) in enumerate(offdiag):
            if (bits >> k) & 1:
                up[i] |= 1 << j
        if intransitive_pair(up) is None:
            out.append(FinitePreorder(n, tuple(up)))
    out.sort(key=_matrix_int)
    return out


def _matrix_int(p: FinitePreorder) -> int:
    value = 0
    for i in range(p.n):
        for j in range(p.n):
            value = (value << 1) | (1 if p.leq(i, j) else 0)
    return value


def coherent_relations(p: FinitePreorder) -> List[Rows]:
    """All relations satisfying the frame condition, in big-endian row order."""
    full = p.full_mask
    out = []
    for combo in itertools.product(range(full + 1), repeat=p.n):
        if rel_coherent(p, combo):
            out.append(tuple(combo))
    return out


def enumerate_full_frames(max_worlds: int = 2) -> Iterator[ConditionalFrame]:
    """Every valid full conditional frame with at most ``max_worlds`` worlds."""
    if max_worlds > 2:
        raise InfeasibleEnumerationError(
            "exhaustive frame enumeration is feasible for at most 2 worlds; "
            "use sampling for larger sizes"
        )
    for n in range(1, max_worlds + 1):
        for p in enumerate_preorders(n):
            ups = all_upsets(p)
            rels = coherent_relations(p)
            for combo in itertools.product(rels, repeat=len(ups)):
                yield ConditionalFrame(p, dict(zip(ups, combo)))


# --- random formulas ----------------------------------------------------------


def random_formula(rng: random.Random, language: Language, letters: Sequence[str],
                   depth: int) -> Formula:
    if depth <= 0 or rng.random() < 0.2:
        if rng.random() < 0.12:
            return Bot(language)
        return Var(letters[rng.randrange(len(letters))], language)
    ops = ["and", "or", "imp", "imp"]
    if language is Language.COND:
        ops += ["cond", "cond"]
    elif language is Language.MODAL:
        ops += ["box", "box"]
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
