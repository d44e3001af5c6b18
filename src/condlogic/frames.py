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
    rows[x].
    """
    for x in range(p.n):
        if image(rows, p.up[x]) & ~up_closure(p, rows[x]):
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
        if set(self.relations) != set(self.admissible):
            raise FrameFormatError("relations must be keyed exactly by the admissible upsets")
        full = self.order.full_mask
        for a, rows in self.relations.items():
            if len(rows) != self.order.n:
                raise FrameFormatError(f"relation for {mask_to_key(a)!r} has wrong row count")
            if any(r & ~full for r in rows):
                raise FrameFormatError(f"relation for {mask_to_key(a)!r} mentions unknown worlds")

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
        ups = all_upsets(order)
        if set(relations) != set(ups):
            missing = [mask_to_key(u) for u in ups if u not in relations]
            raise FrameFormatError(
                f"a conditional frame needs a relation for every upset; missing {missing}"
            )
        super().__init__(order, ups, dict(relations))


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


def _rows_from_pairs(n: int, pairs) -> Rows:
    rows = [0] * n
    for i, j in read_indices(pairs, n, "relation", pairs=True):
        rows[i] |= 1 << j
    return tuple(rows)


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
    relations = {key_to_mask(k, n): _rows_from_pairs(n, v) for k, v in rel_obj.items()}
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
