"""Conditional frames, general frames, modal frames; validation and restriction.

A general frame carries one relation per *admissible* upset; a conditional
frame is the full special case where every upset is admissible.  Relations
are stored as successor-row bitmasks, keyed by the upset's canonical
bit-vector encoding.

Validation is report-based rather than exception-based so callers (and the
random-frame fuzzer) can catalog exactly which clause failed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, List, Mapping, Tuple

from .errors import FrameFormatError, NotAdmissibleError
from .order import (
    FinitePreorder,
    all_upsets,
    box,
    heyting_imp,
    image,
    is_upset,
    key_to_mask,
    mask_to_key,
    mask_to_worlds,
    read_indices,
    read_pair_rows,
    strict_successors,
    up_closure,
    worlds_to_mask,
)

Rows = Tuple[int, ...]


@dataclass(frozen=True)
class Violation:
    clause: str
    detail: str


@dataclass
class FrameReport:
    violations: List[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, clause: str, detail: str) -> None:
        self.violations.append(Violation(clause, detail))

    def __str__(self) -> str:
        if self.ok:
            return "valid"
        return "; ".join(f"[{v.clause}] {v.detail}" for v in self.violations)


def compose_up_rel(p: FinitePreorder, rows: Rows) -> Rows:
    """Diagrammatic composite of leq with the relation: first go up, then step."""
    return tuple(image(rows, up) for up in p.up)


def compose_rel_up(p: FinitePreorder, rows: Rows) -> Rows:
    """First step the relation, then go up."""
    return tuple(up_closure(p, r) for r in rows)


def rel_coherent(p: FinitePreorder, rows: Rows) -> bool:
    """The frame condition: leq-then-step is contained in step-then-leq.

    Equivalently, x <= y implies rows[y] is contained in the up-closure of
    rows[x].  Only ``y != x`` needs checking, since ``rows[x]`` always lies
    within its own up-closure, so worlds with no strict successor are skipped.
    """
    for x, above in strict_successors(p.up):
        allowed = up_closure(p, rows[x])
        for y in above:
            if rows[y] & ~allowed:
                return False
    return True


def rel_strongly_coherent(p: FinitePreorder, rows: Rows) -> bool:
    """leq-then-step-then-leq equals the relation itself."""
    for x in range(p.n):
        if up_closure(p, image(rows, p.up[x])) != rows[x]:
            return False
    return True


@dataclass
class GeneralFrame:
    """Preorder plus relations indexed by an admissible family of upsets.

    Treated as immutable after construction; instances are read-shared
    across parallel experiment workers.
    """

    order: FinitePreorder
    admissible: Tuple[int, ...]
    relations: Dict[int, Rows]

    def __post_init__(self):
        self.admissible = tuple(sorted(set(self.admissible)))
        self._check_keys()
        n = self.order.n
        outside = ~self.order.full_mask
        for a, rows in self.relations.items():
            if len(rows) != n:
                raise FrameFormatError(f"relation for {mask_to_key(a)!r} has wrong row count")
            for r in rows:
                if r & outside:
                    raise FrameFormatError(
                        f"relation for {mask_to_key(a)!r} mentions unknown worlds")

    def _check_keys(self) -> None:
        if set(self.relations) != set(self.admissible):
            raise FrameFormatError("relations must be keyed exactly by the admissible upsets")

    @property
    def n(self) -> int:
        return self.order.n

    @property
    def is_full(self) -> bool:
        return self.admissible == all_upsets(self.order)

    def rel(self, a: int) -> Rows:
        try:
            return self.relations[a]
        except KeyError:
            raise NotAdmissibleError(f"no relation for upset {{{mask_to_key(a)}}}") from None

    def dto(self, a: int, b: int) -> int:
        """The operation ``a |> b``: worlds whose R_a successors all lie in b."""
        return box(self.rel(a), b)


class ConditionalFrame(GeneralFrame):
    """A general frame whose admissible family is all upsets."""

    def __init__(self, order: FinitePreorder, relations: Mapping[int, Rows]):
        super().__init__(order, all_upsets(order), dict(relations))

    def _check_keys(self) -> None:
        if set(self.relations) != set(self.admissible):
            missing = [mask_to_key(u) for u in self.admissible if u not in self.relations]
            raise FrameFormatError(
                f"a conditional frame needs a relation for every upset; missing {missing}"
            )


def _unchecked(cls, **fields):
    """An instance of ``cls`` holding ``fields``, built without its constructor.

    Only these callers use it, and only with values on which the skipped
    checks cannot fail:

    - :func:`condlogic.algebra.complex_algebra`: a complex algebra's
      ``imp``, ``cond``, ``top`` and ``bot`` are ``idx[...]`` lookups into
      its carrier, so every entry lies in ``0..size-1``; its tables are
      ``size x size`` and its ``leq`` rows are built over the carrier, one
      per element;
    - :func:`condlogic.algebra._dual_with_maps`: a dual frame's relation
      keys are theta, already checked to be a bijection onto
      ``all_upsets(order)``, which is also its admissible family; it has one
      row per prime filter, that is per world, and every row is built as
      ``full & ...``;
    - :func:`condlogic.generate.enumerate_full_frames`: its admissible
      family is ``all_upsets(order)``, sorted and unique, its relations are
      keyed by exactly those upsets, and every relation is one of
      ``coherent_relations(order)``, ``n`` rows within the world set.  The
      enumeration builds 68 302 frames at two worlds, and the checks cost
      more than the rest of the enumeration.

    A family not closed under the operations raises FrameFormatError
    before this is reached, as it does before the checking constructor.

    The fields are set one by one, not as a new ``__dict__``, so that the
    instance shares its attribute keys with its class as constructed ones
    do: a frame kept this way takes 330 bytes, not 470.
    """
    obj = object.__new__(cls)
    for name, value in fields.items():
        setattr(obj, name, value)
    return obj


def validate_general(g: GeneralFrame) -> FrameReport:
    """Check the general-frame invariants; empty report iff well formed."""
    report = FrameReport()
    p = g.order
    adm = set(g.admissible)
    if 0 not in adm:
        report.add("closure-empty", "admissible family must contain the empty set")
    if p.full_mask not in adm:
        report.add("closure-full", "admissible family must contain the full world set")
    for a in g.admissible:
        if not is_upset(p, a):
            report.add("not-upset", f"admissible set {{{mask_to_key(a)}}} is not an upset")
    for a in g.admissible:
        if not rel_coherent(p, g.rel(a)):
            report.add(
                "coherence",
                f"relation at {{{mask_to_key(a)}}} violates leq-compatibility",
            )
    # closure of the admissible family under the four operations
    for a in g.admissible:
        for b in g.admissible:
            pairs = (
                ("closure-meet", a & b),
                ("closure-join", a | b),
                ("closure-imp", heyting_imp(p, a, b)),
            )
            for clause, c in pairs:
                if c not in adm:
                    report.add(
                        clause,
                        f"{{{mask_to_key(a)}}}, {{{mask_to_key(b)}}} produce "
                        f"non-admissible {{{mask_to_key(c)}}}",
                    )
            if a in g.relations:
                c = g.dto(a, b)
                if c not in adm:
                    report.add(
                        "closure-cond",
                        f"{{{mask_to_key(a)}}} |> {{{mask_to_key(b)}}} = "
                        f"{{{mask_to_key(c)}}} is not admissible",
                    )
    return report


def validate_conditional(f: GeneralFrame) -> FrameReport:
    """Fullness plus the coherence condition for every upset."""
    report = FrameReport()
    ups = all_upsets(f.order)
    if tuple(f.admissible) != ups:
        report.add("not-full", "frame does not carry a relation for every upset")
        return report
    for a in ups:
        if not rel_coherent(f.order, f.rel(a)):
            report.add(
                "coherence",
                f"relation at {{{mask_to_key(a)}}} violates leq-compatibility",
            )
    return report


def check_strong_coherence(g: GeneralFrame) -> Dict[int, bool]:
    """Per admissible upset: does leq-then-step-then-leq collapse to the relation?"""
    return {a: rel_strongly_coherent(g.order, g.rel(a)) for a in g.admissible}


def strongly_coherent(g: GeneralFrame) -> bool:
    return all(check_strong_coherence(g).values())


@dataclass
class ModalFrame:
    """Preorder with a single boxed relation."""

    order: FinitePreorder
    rel: Rows

    def __post_init__(self):
        full = self.order.full_mask
        if len(self.rel) != self.order.n or any(r & ~full for r in self.rel):
            raise FrameFormatError("modal relation rows do not fit the world set")


def restrict(f: GeneralFrame, a: int) -> ModalFrame:
    """Keep only the relation indexed by ``a``; errors if ``a`` is not admissible."""
    return ModalFrame(f.order, f.rel(a))


# --- file format ---------------------------------------------------------
#
# { "worlds": n, "leq": [[i,j],...], "admissible": [[w,...],...] | "all",
#   "relations": { "<upset-key>": [[i,j],...] } }


def frame_to_json(g: GeneralFrame) -> dict:
    rel_obj = {}
    for a in g.admissible:
        rows = g.rel(a)
        rel_obj[mask_to_key(a)] = [
            [i, j] for i in range(g.n) for j in mask_to_worlds(rows[i])
        ]
    admissible = (
        "all" if g.is_full else [mask_to_worlds(a) for a in g.admissible]
    )
    return {
        "worlds": g.n,
        "leq": [[i, j] for (i, j) in g.order.pairs()],
        "admissible": admissible,
        "relations": rel_obj,
    }


@lru_cache(maxsize=256)
def _upset_keys(p: FinitePreorder) -> Dict[str, int]:
    """Canonical file key to mask, for every upset of ``p``; not to be mutated."""
    return {mask_to_key(a): a for a in all_upsets(p)}


def frame_from_json(obj: dict) -> GeneralFrame:
    """Load and re-validate a frame; raises FrameFormatError on any violation."""
    try:
        n = obj["worlds"]
        leq = obj["leq"]
        admissible = obj["admissible"]
        rel_obj = obj["relations"]
    except (KeyError, TypeError) as exc:
        raise FrameFormatError(f"malformed frame object: {exc}") from exc
    if not isinstance(rel_obj, dict):
        raise FrameFormatError("relations must map upset keys to pair lists")
    order = FinitePreorder.from_pairs(n, leq)
    keys = _upset_keys(order)
    relations = {}
    for k, v in rel_obj.items():
        # keys that name no upset go through the strict parser, which
        # rejects malformed ones and returns the mask of well-formed ones
        a = keys.get(k)
        if a is None:
            a = key_to_mask(k, n)
        relations[a] = tuple(read_pair_rows(v, n, "relation"))
    if admissible == "all":
        frame: GeneralFrame = ConditionalFrame(order, relations)
        report = validate_conditional(frame)
    else:
        if not isinstance(admissible, list):
            raise FrameFormatError('admissible must be "all" or a list of world lists')
        masks = [worlds_to_mask(read_indices(worlds, n, "admissible world"))
                 for worlds in admissible]
        frame = GeneralFrame(order, tuple(masks), relations)
        report = validate_general(frame)
    if not report.ok:
        raise FrameFormatError(f"frame fails validation: {report}")
    return frame
