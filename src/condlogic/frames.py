"""Conditional frames, general frames, modal frames; validation and restriction.

A general frame carries one relation per *admissible* upset; a conditional
frame is the full special case where every upset is admissible.  Relations
are stored as successor-row bitmasks, keyed by the upset's canonical
bit-vector encoding.

Validation is report-based rather than exception-based so callers (and the
random-frame fuzzer) can catalog exactly which clause failed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Sequence, Tuple

from .errors import FrameFormatError, NotAdmissibleError
from .order import (
    FinitePreorder,
    _Lazy,
    box,
    heyting_imp,
    image,
    is_upset,
    key_to_mask,
    mask_to_key,
    mask_to_worlds,
    read_indices,
    read_pair_rows,
    set_bits,
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
        return _summarize([f"[{v.clause}] {v.detail}" for v in self.violations])


def _summarize(messages: Sequence[str]) -> str:
    """The first four messages, ``; ``-joined, then how many more there are,
    so that a report's line stays short however many violations it holds;
    the report keeps them all."""
    more = f"; and {len(messages) - 4} more" if len(messages) > 4 else ""
    return "; ".join(messages[:4]) + more


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
    within its own up-closure, so each world walks its strict successors,
    ``up[x]`` without ``x``, and one with none is skipped.

    Not memoised: :func:`condlogic.generate.coherent_relations` tests every
    row combination once.  Validation reads the order's table of verdicts,
    :func:`_coherence_verdicts`.
    """
    up = p.up
    for x, row in enumerate(up):
        above = row & ~(1 << x)
        if above:
            allowed = image(up, rows[x])
            for y in set_bits(above):
                if rows[y] & ~allowed:
                    return False
    return True


def _coherence_verdicts(p: FinitePreorder) -> _Lazy:
    """The order's table of coherence verdicts: each relation's rows to
    :func:`rel_coherent`; kept with the order (see
    :meth:`~condlogic.order.FinitePreorder.derived`)."""
    return _Lazy(rel_coherent, p)


def _strongly_coherent_rows(p: FinitePreorder, rows: Rows) -> bool:
    """Whether leq-then-step-then-leq equals the relation ``rows`` itself.
    Memoised in the order's :func:`_strong_verdicts`."""
    up = p.up
    for x, above in enumerate(up):
        if image(up, image(rows, above)) != rows[x]:
            return False
    return True


@dataclass
class GeneralFrame:
    """Preorder plus relations indexed by an admissible family of upsets.

    The constructor stores its own dict of the relations, each a tuple of
    rows, so that the memos keyed by rows can hash them as they are.
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
        relations = {}
        for a, rows in self.relations.items():
            if len(rows) != n:
                raise FrameFormatError(f"relation for {mask_to_key(a)!r} has wrong row count")
            for r in rows:
                if r & outside:
                    raise FrameFormatError(
                        f"relation for {mask_to_key(a)!r} mentions unknown worlds")
            relations[a] = tuple(rows)
        self.relations = relations

    def _check_keys(self) -> None:
        if set(self.relations) != set(self.admissible):
            raise FrameFormatError("relations must be keyed exactly by the admissible upsets")

    @property
    def n(self) -> int:
        return self.order.n

    @property
    def is_full(self) -> bool:
        return self.admissible == self.order.upsets

    def rel(self, a: int) -> Rows:
        try:
            return self.relations[a]
        except KeyError:
            raise NotAdmissibleError(f"no relation for upset {{{mask_to_key(a)}}}") from None

    def dto(self, a: int, b: int) -> int:
        """The operation ``a |> b``: worlds whose R_a successors all lie in b.

        Kept for the benchmark tracer, which times it; the library calls
        :func:`~condlogic.order.box` on the rows it has looked up."""
        return box(self.rel(a), b)


class ConditionalFrame(GeneralFrame):
    """A general frame whose admissible family is all upsets."""

    def __init__(self, order: FinitePreorder, relations: Mapping[int, Rows]):
        _check_full_keys(order, relations)
        super().__init__(order, order.upsets, relations)

    def _check_keys(self) -> None:
        """Done by :func:`_check_full_keys`, before the upsets are listed."""


def _check_full_keys(order: FinitePreorder, relations: Mapping[int, Rows]) -> None:
    """Name the first key of ``relations`` that is not an upset of
    ``order``; else list the first four upsets without a relation and count
    the rest, so that the message stays short on a frame of 2^n upsets.

    The upsets are listed only when there are as many as keys.  Otherwise
    each key is tested on its own, the upsets are counted without being
    listed, and the missing ones are found one at a time, so a short file on
    20 worlds is refused without its 2^20 upsets."""
    count = order.upset_count
    if len(relations) == count:
        ups = set(order.upsets)
        if ups.issuperset(relations):  # as many keys as upsets, so all of them
            return
        is_upset_key = ups.__contains__
    else:
        outside = ~order.full_mask

        def is_upset_key(a: int) -> bool:
            return not a & outside and is_upset(order, a)

    for a in relations:
        if not is_upset_key(a):
            raise FrameFormatError(
                "a conditional frame needs a relation for every upset, and only for "
                f"upsets; key {mask_to_key(a)!r} is not an upset"
            )
    missing = count - len(relations)
    first = itertools.islice((u for u in order.iter_upsets() if u not in relations), 4)
    more = f" and {missing - 4} more" if missing > 4 else ""
    raise FrameFormatError(
        "a conditional frame needs a relation for every upset; "
        f"missing {[mask_to_key(u) for u in first]}{more}"
    )


def _unchecked_frame(cls, order: FinitePreorder, admissible: Tuple[int, ...],
                     relations: Dict[int, Rows]) -> GeneralFrame:
    """A frame of class ``cls`` (:class:`GeneralFrame` or
    :class:`ConditionalFrame`) holding the three fields, built without its
    constructor's checks.

    ``relations`` is stored as given, so its rows must already be tuples,
    as the constructor would store them: the memos keyed by rows hash them
    as they are.  Only these three callers use it, and only with tuples of
    rows on which the skipped checks cannot fail:

    - :func:`condlogic.generate.enumerate_full_frames`: its admissible
      family is ``order.upsets``, sorted and unique, its relations are
      keyed by exactly those upsets, and every relation is one of
      ``coherent_relations(order)``, ``n`` rows within the world set.  The
      enumeration builds 68 302 frames at two worlds, and the checks cost
      more than the rest of the enumeration;
    - :func:`condlogic.fillins.fill`, when its keys are exactly
      ``order.upsets``, sorted and unique as the admissible family: it
      copies the input frame's relations, whose rows its own constructor
      checked, and every recipe row lies within the world set (the empty
      set, an upset, the order's rows, or unions, up-closures and copies of
      checked rows);
    - :func:`condlogic.generate.random_general_frame`: its admissible family
      is what :func:`~condlogic.generate.close_admissible` returns, sorted
      and unique, with relations keyed by exactly that family, and every
      row mode gives ``n`` rows within the world set (random masks of ``n``
      bits, the empty set, an upset, the order's rows, or their meets,
      images and up-closures), as do the subset and strong repairs.

    The fields are stored one by one, in the constructor's order, not as a
    new ``__dict__``, so that the instance shares its attribute keys with
    its class as constructed ones do.
    """
    g = object.__new__(cls)
    g.order = order
    g.admissible = admissible
    g.relations = relations
    return g


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
    _add_incoherent(report, g)
    # closure of the admissible family under the four operations
    for a in g.admissible:
        rows = g.rel(a)
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
            c = box(rows, b)
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
    if not f.is_full:
        report.add("not-full", "frame does not carry a relation for every upset")
        return report
    _add_incoherent(report, f)
    return report


def _add_incoherent(report: FrameReport, g: GeneralFrame) -> None:
    """Report each admissible relation that breaks the coherence condition."""
    verdicts = g.order.derived(_coherence_verdicts)
    for a in g.admissible:
        if not verdicts[g.rel(a)]:
            report.add(
                "coherence",
                f"relation at {{{mask_to_key(a)}}} violates leq-compatibility",
            )


def _strong_verdicts(p: FinitePreorder) -> _Lazy:
    """The order's table of strong-coherence verdicts: each relation's rows
    to :func:`_strongly_coherent_rows`; kept with the order (see
    :meth:`~condlogic.order.FinitePreorder.derived`)."""
    return _Lazy(_strongly_coherent_rows, p)


def strongly_coherent(g: GeneralFrame) -> bool:
    """Whether every admissible relation is strongly coherent; stops at the
    first that is not.

    One lookup fetches the order's table of verdicts
    (:func:`_strong_verdicts`), keyed by the relation's rows alone; then
    each relation is one lookup in ``g.relations`` and one in the table, both
    in C.  A missing key goes through :meth:`GeneralFrame.rel` for its
    NotAdmissibleError.  The same few relations recur across the frames of
    a sweep (all 68 302 frames of at most two worlds hold 50 distinct ones),
    and a round trip tests its frame again right after its caller did."""
    verdicts, relations = g.order.derived(_strong_verdicts), g.relations
    try:
        for a in g.admissible:
            if not verdicts[relations[a]]:
                return False
    except KeyError:
        g.rel(a)  # raises NotAdmissibleError naming the missing upset
        raise
    return True


@dataclass
class ModalFrame:
    """Preorder with a single boxed relation."""

    order: FinitePreorder
    rel: Rows

    def __post_init__(self):
        full = self.order.full_mask
        if len(self.rel) != self.order.n or any(r & ~full for r in self.rel):
            raise FrameFormatError("modal relation rows do not fit the world set")
        self.rel = tuple(self.rel)


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
    order = FinitePreorder.from_pairs(n, leq)  # interned, with its keys
    # the keys are listed only when the file names at least as many sets, so
    # that a short file on many worlds is read without listing 2^n upsets
    keys = order.upset_keys if order.upset_count <= len(rel_obj) else {}
    relations = {}
    for k, v in rel_obj.items():
        # keys that name no upset go through the strict parser, which
        # rejects malformed ones and returns the mask of well-formed ones
        a = keys.get(k)
        if a is None:
            a = key_to_mask(k, n)
        relations[a] = read_pair_rows(v, n, "relation")
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
