"""The seven fill-in constructors: from a general frame to a full conditional frame.

A fill-in keeps every admissible relation untouched and assigns relations
to the remaining upsets by a uniform recipe, one entry of one table
(:data:`_RECIPES`, kind to ``fn(frame, upset)``).  The admissible family plays
the role the clopen upsets play in the topological picture; finitely it is
the only faithful residue of the topology, which is why fill-ins take
general frames rather than plain conditional frames (on the latter every
fill-in would be vacuous).

The squeeze recipe's precondition is the conjunction of two catalog
correspondents, evaluated by :mod:`condlogic.correspondents`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from .correspondents import _corr_loop, _k_icc, _k_id
from .errors import SqueezeAmbiguityError, SqueezePreconditionError
from .frames import ConditionalFrame, GeneralFrame, Rows, _unchecked_frame, compose_up_rel
from .order import mask_to_key, up_closure


class FillInKind(enum.Enum):
    EMPTY = "empty"
    REFLEXIVE = "reflexive"
    PRINCIPAL = "principal"
    TOTAL = "total"
    UNION = "union"
    TRANSITIVE = "transitive"
    SQUEEZE = "squeeze"

    @staticmethod
    def from_name(name: str) -> "FillInKind":
        for kind in FillInKind:
            if kind.value == name:
                return kind
        raise ValueError(f"unknown fill-in kind {name!r}")


ALL_KINDS: Tuple[FillInKind, ...] = tuple(FillInKind)


@dataclass
class SqueezeReport:
    # the first violation, as carried by SqueezePreconditionError:
    # ("id-corr", a, x) or ("icc-corr", a, b, x) with upsets as keys
    witness: Optional[Tuple] = None

    @property
    def holds(self) -> bool:
        return self.witness is None


def check_squeeze_precondition(g: GeneralFrame) -> SqueezeReport:
    """The cautious-conditional conditions over the admissible family.

    id-corr: R_a[x] within a.  icc-corr: R_a[x] within b within a forces
    the up-closures of R_a[x] and R_b[x] to coincide.  They are the id and
    joint cautious correspondents of the catalog, checked in that order by
    the one quantifier loop.
    """
    for name, quant, fn in (("id-corr", "ax", _k_id), ("icc-corr", "abx", _k_icc)):
        hit = _corr_loop(g, quant, fn)
        if hit is not None:
            a, b, x = hit
            masks = (a,) if b is None else (a, b)
            return SqueezeReport((name, *map(mask_to_key, masks), x))
    return SqueezeReport()


def _or_rows(n: int, relations) -> Rows:
    """Worldwise union of the given relations (no relation: the empty one)."""
    out = [0] * n
    for rows in relations:
        for x, r in enumerate(rows):
            out[x] |= r
    return tuple(out)


def _union_rows(g: GeneralFrame, a: int) -> Rows:
    """Union of the relations of the admissible upsets within ``a``."""
    return _or_rows(g.order.n, (g.rel(c) for c in g.admissible if not c & ~a))


def _transitive_rows(g: GeneralFrame, a: int) -> Rows:
    """Go up, then step by any admissible relation's row that lies within ``a``."""
    inside = ([r if not r & ~a else 0 for r in g.rel(c)] for c in g.admissible)
    return compose_up_rel(g.order, _or_rows(g.order.n, inside))


def _squeeze_rows(g: GeneralFrame, a: int) -> Rows:
    """Copy the squeezing admissible relation where one exists, else the upset itself.

    All squeezers agree up to up-closure under the precondition; the one
    with the smallest upset encoding is copied, so the construction is
    deterministic.  Disagreement beyond up-closure signals a precondition
    bug and is raised, not papered over.
    """
    p = g.order
    rows = []
    for x in range(p.n):
        squeezers = [c for c in g.admissible if not g.rel(c)[x] & ~a and not a & ~c]
        if squeezers:
            images = {up_closure(p, g.rel(c)[x]) for c in squeezers}
            if len(images) > 1:
                raise SqueezeAmbiguityError(
                    f"squeezers of {{{mask_to_key(a)}}} at world {x} disagree"
                )
            rows.append(g.rel(squeezers[0])[x])
        else:
            rows.append(a)
    return tuple(rows)


# The relation each recipe assigns to a non-admissible upset ``a``.
_RECIPES: Dict[FillInKind, Callable[[GeneralFrame, int], Rows]] = {
    FillInKind.EMPTY: lambda g, a: (0,) * g.order.n,
    FillInKind.REFLEXIVE: lambda g, a: (a,) * g.order.n,
    FillInKind.PRINCIPAL: lambda g, a: g.order.up,
    FillInKind.TOTAL: lambda g, a: g.rel(g.order.full_mask),
    FillInKind.UNION: _union_rows,
    FillInKind.TRANSITIVE: _transitive_rows,
    FillInKind.SQUEEZE: _squeeze_rows,
}


def fill(g: GeneralFrame, kind: FillInKind) -> ConditionalFrame:
    """Extend ``g`` to a full conditional frame by the given recipe.

    The result agrees with ``g`` on every admissible upset.  The squeeze
    recipe additionally requires the cautious-conditional precondition and
    raises with a witness when it fails.  The result is built without the
    constructor's checks (:func:`condlogic.frames._unchecked_frame`), which it
    cannot fail once its keys are exactly the upsets.
    """
    if kind is FillInKind.SQUEEZE:
        pre = check_squeeze_precondition(g)
        if not pre.holds:
            raise SqueezePreconditionError(pre.witness)
    recipe = _RECIPES[kind]
    relations: Dict[int, Rows] = dict(g.relations)
    upsets = g.order.upsets
    for a in upsets:
        if a not in g.relations:
            relations[a] = recipe(g, a)
    if len(relations) != len(upsets):  # g admits a set that is not an upset
        return ConditionalFrame(g.order, relations)  # which refuses it
    return _unchecked_frame(ConditionalFrame, g.order, upsets, relations)
