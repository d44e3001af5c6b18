"""Frame correspondents and the one quantifier loop that evaluates them.

A correspondent is a first-order condition on admissible upsets a (and b
where used) and a world x.  Each is evaluated here as a kernel
``fn(rels, rel, up, down, ucl, a, b)`` that checks every world at once for
one (a, b) and returns the lowest world at which the condition fails, or
None.  ``rels`` is the frame's relation table, read directly at a and b,
which the loop only draws from the admissible family; any other upset, such
as ``a & b``, is looked up through ``rel`` (the frame's :meth:`rel`), which
raises NotAdmissibleError when the family lacks it.  ``up`` and ``down``
are the rows of the order and of its converse, so that world ``x`` lies in
the up-closure of a set ``s`` iff ``s & down[x]``, and ``ucl[s]`` is that
up-closure, looked up in the order's table
:attr:`~condlogic.order.FinitePreorder.up_closures`.

The quantifier says which (a, b) the loop visits: every a ('ax'), every
pair a, b ('abx'), the empty upset alone ('0x') or the full one ('Wx'),
each ascending with b inside a, so the first (a, b, x) witness is the
lowest in that order; 'const' conditions hold on every frame.  The axiom
registry (:mod:`condlogic.catalog`) and the squeeze precondition
(:mod:`condlogic.fillins`) both evaluate their conditions here.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

from .frames import GeneralFrame
from .order import image, set_bits


def _k_id(rels, rel, up, down, ucl, a, b):
    for x, r in enumerate(rels[a]):
        if r & ~a:
            return x
    return None


def _k_mp(rels, rel, up, down, ucl, a, b):
    for x, r in enumerate(rels[a]):
        if a >> x & 1 and not r & down[x]:
            return x
    return None


def _k_str(rels, rel, up, down, ucl, a, b):
    for x, r in enumerate(rels[a]):
        if r & ~(up[x] & a):
            return x
    return None


def _k_unit(rels, rel, up, down, ucl, a, b):
    """unit, and vec_top at a = W."""
    for x, r in enumerate(rels[a]):
        if r & ~up[x]:
            return x
    return None


def _k_exf(rels, rel, up, down, ucl, a, b):
    for x, r in enumerate(rels[a]):
        if r and not up[x] & a:
            return x
    return None


def _k_tc(rels, rel, up, down, ucl, a, b):
    """tc, and red at a = W, in up-closure form: without it the condition
    is too strong on frames whose relation rows are not upsets."""
    for x, r in enumerate(rels[a]):
        if not r & down[x]:
            return x
    return None


def _k_cs(rels, rel, up, down, ucl, a, b):
    for x, r in enumerate(rels[a]):
        if a >> x & 1 and r & ~up[x]:
            return x
    return None


def _k_lin(rels, rel, up, down, ucl, a, b):
    rb = rels[b]
    for x, r in enumerate(rels[a]):
        if r & ~b and rb[x] & ~a:
            return x
    return None


def _k_tr(rels, rel, up, down, ucl, a, b):
    rb = rels[b]
    for x, r in enumerate(rels[a]):
        if not r & ~b and r & ~ucl[rb[x]]:
            return x
    return None


def _k_mon(rels, rel, up, down, ucl, a, b):
    if a & ~b:
        return None
    rb = rels[b]
    for x, r in enumerate(rels[a]):
        if r & ~ucl[rb[x]]:
            return x
    return None


def _k_ex(rels, rel, up, down, ucl, a, b):
    meet = rel(a & b)
    rb = rels[b]
    for x, r in enumerate(rels[a]):
        if image(rb, r) & ~ucl[meet[x]]:
            return x
    return None


def _k_expl(rels, rel, up, down, ucl, a, b):
    for x, r in enumerate(rels[a]):
        if r:
            return x
    return None


def _k_re(rels, rel, up, down, ucl, a, b):
    rb = rels[b]
    for x, r in enumerate(rels[a]):
        s = rb[x]
        if not r & ~b and not s & ~a and ucl[r] != ucl[s]:
            return x
    return None


def _k_icc(rels, rel, up, down, ucl, a, b):
    if b & ~a:
        return None
    rb = rels[b]
    for x, r in enumerate(rels[a]):
        if not r & ~b and ucl[r] != ucl[rb[x]]:
            return x
    return None


def _k_four(rels, rel, up, down, ucl, a, b):
    rows = rels[a]
    for x, r in enumerate(rows):
        if image(rows, r) & ~ucl[r]:
            return x
    return None


def _k_c4(rels, rel, up, down, ucl, a, b):
    rows = rels[a]
    for x, r in enumerate(rows):
        if r & ~ucl[image(rows, r)]:
            return x
    return None


def _k_box_tc(rels, rel, up, down, ucl, a, b):
    rows = rels[a]
    # the worlds y in the up-closure of their own row
    looped = 0
    for y, r in enumerate(rows):
        if r & down[y]:
            looped |= 1 << y
    for x, r in enumerate(rows):
        if ucl[r] & ~looped:
            return x
    return None


def _k_cem1(rels, rel, up, down, ucl, a, b):
    for x, r in enumerate(rels[a]):
        if r.bit_count() > 1:
            return x
    return None


def _k_cem2(rels, rel, up, down, ucl, a, b):
    maximal = 0
    for y, u in enumerate(up):
        if u == 1 << y:
            maximal |= u
    for x, r in enumerate(rels[a]):
        if r & ~maximal:
            return x
    return None


def _k_cem3(rels, rel, up, down, ucl, a, b):
    rows = rels[a]
    for x, r in enumerate(rows):
        dx = down[x]
        for y in set_bits(ucl[r]):
            if not rows[y] & dx:
                return x
    return None


def _k_ecm1(rels, rel, up, down, ucl, a, b):
    rows = rels[a]
    for x, r in enumerate(rows):
        if image(rows, down[x]) & ~ucl[r]:
            return x
    return None


def _k_ecm2(rels, rel, up, down, ucl, a, b):
    rows = rels[a]
    for x, r in enumerate(rows):
        for z in set_bits(ucl[r]):
            if r & ~ucl[rows[z]]:
                return x
    return None


def _k_true(rels, rel, up, down, ucl, a, b):
    return None


# The joint cautious condition used by presets containing id, ct and cm.
ICC_CORR = ("icc", "abx", _k_icc)


def _corr_loop(frame: GeneralFrame, quant: str, fn: Callable) -> Optional[Tuple]:
    """First violating (a, b, x) triple in ascending order, or None."""
    if quant == "const":
        return None
    p = frame.order
    rels = frame.relations
    rel = frame.rel
    up = p.up
    down = p.down
    ucl = p.up_closures
    pool = frame.admissible
    if quant == "abx":
        for a in pool:
            for b in pool:
                x = fn(rels, rel, up, down, ucl, a, b)
                if x is not None:
                    return (a, b, x)
        return None
    if quant != "ax":
        a = 0 if quant == "0x" else p.full_mask
        rel(a)  # NotAdmissibleError unless the fixed upset is admissible
        pool = (a,)
    for a in pool:
        x = fn(rels, rel, up, down, ucl, a, None)
        if x is not None:
            return (a, None, x)
    return None
