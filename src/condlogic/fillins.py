"""The seven fill-in constructors: from a general frame to a full conditional frame.

A fill-in keeps every admissible relation untouched and assigns relations
to the remaining upsets by a uniform recipe.  The admissible family plays
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
from typing import Dict, Optional, Tuple

from .correspondents import _c_icc, _c_id, _corr_loop, _upc_memo
from .errors import SqueezeAmbiguityError, SqueezePreconditionError
from .frames import ConditionalFrame, GeneralFrame, Rows
from .order import all_upsets, mask_to_key, up_closure


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
    one quantifier loop sharing one up-closure memo.
    """
    upc = _upc_memo(g.order)
    for name, quant, fn in (("id-corr", "ax", _c_id), ("icc-corr", "abx", _c_icc)):
        hit = _corr_loop(g, quant, fn, upc)
        if hit is not None:
            a, b, x = hit
            masks = (a,) if b is None else (a, b)
            return SqueezeReport((name, *map(mask_to_key, masks), x))
    return SqueezeReport()


def _fill_rows(g: GeneralFrame, kind: FillInKind, a: int) -> Rows:
    """Relation assigned to the non-admissible upset ``a``."""
    p = g.order
    n = p.n
    if kind is FillInKind.EMPTY:
        return (0,) * n
    if kind is FillInKind.REFLEXIVE:
        return (a,) * n
    if kind is FillInKind.PRINCIPAL:
        return tuple(p.up[x] for x in range(n))
    if kind is FillInKind.TOTAL:
        return g.rel(p.full_mask)
    if kind is FillInKind.UNION:
        rows = []
        for x in range(n):
            acc = 0
            for c in g.admissible:
                if not c & ~a:
                    acc |= g.rel(c)[x]
            rows.append(acc)
        return tuple(rows)
    if kind is FillInKind.TRANSITIVE:
        rows = []
        for x in range(n):
            acc = 0
            for c in g.admissible:
                rel_c = g.rel(c)
                for y in range(n):
                    if p.leq(x, y) and not rel_c[y] & ~a:
                        acc |= rel_c[y]
            rows.append(acc)
        return tuple(rows)
    raise AssertionError(kind)


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


def fill(g: GeneralFrame, kind: FillInKind) -> ConditionalFrame:
    """Extend ``g`` to a full conditional frame by the given recipe.

    The result agrees with ``g`` on every admissible upset.  The squeeze
    recipe additionally requires the cautious-conditional precondition and
    raises with a witness when it fails.
    """
    if kind is FillInKind.SQUEEZE:
        pre = check_squeeze_precondition(g)
        if not pre.holds:
            raise SqueezePreconditionError(pre.witness)
    admissible = set(g.admissible)
    relations: Dict[int, Rows] = dict(g.relations)
    for a in all_upsets(g.order):
        if a in admissible:
            continue
        if kind is FillInKind.SQUEEZE:
            relations[a] = _squeeze_rows(g, a)
        else:
            relations[a] = _fill_rows(g, kind, a)
    return ConditionalFrame(g.order, relations)

