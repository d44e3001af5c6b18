"""Frame correspondents and the one quantifier loop that evaluates them.

Each correspondent ``fn(order, rel, upc, a, b, x)`` says whether its
condition holds at admissible upsets a (and b where used) and world x;
``rel`` maps an admissible upset to its rows and ``upc`` memoises
up-closures.  The axiom registry (:mod:`condlogic.catalog`) and the squeeze
precondition (:mod:`condlogic.fillins`) both evaluate their conditions here.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

from .frames import GeneralFrame
from .order import down_closure, image, set_bits, up_closure


def _c_id(p, rel, upc, a, b, x):
    return not rel(a)[x] & ~a


def _c_mp(p, rel, upc, a, b, x):
    return not (a >> x) & 1 or bool((upc(rel(a)[x]) >> x) & 1)


def _c_str(p, rel, upc, a, b, x):
    return not rel(a)[x] & ~(p.up[x] & a)


def _c_unit(p, rel, upc, a, b, x):
    return not rel(a)[x] & ~p.up[x]


def _c_exf(p, rel, upc, a, b, x):
    return bool(p.up[x] & a) or rel(a)[x] == 0


def _c_tc(p, rel, upc, a, b, x):
    return bool((upc(rel(a)[x]) >> x) & 1)


def _c_cs(p, rel, upc, a, b, x):
    return not (a >> x) & 1 or not rel(a)[x] & ~p.up[x]


def _c_lin(p, rel, upc, a, b, x):
    return not rel(a)[x] & ~b or not rel(b)[x] & ~a


def _c_tr(p, rel, upc, a, b, x):
    ra = rel(a)[x]
    if ra & ~b:
        return True
    return not ra & ~upc(rel(b)[x])


def _c_mon(p, rel, upc, a, b, x):
    if a & ~b:
        return True
    return not rel(a)[x] & ~upc(rel(b)[x])


def _c_ex(p, rel, upc, a, b, x):
    target = upc(rel(a & b)[x])
    rb = rel(b)
    for y in set_bits(rel(a)[x]):
        if rb[y] & ~target:
            return False
    return True


def _c_red(p, rel, upc, a, b, x):
    # up-closure form: without it the condition is too strong on frames
    # whose relation rows are not upsets (cf. the tc row)
    return bool((upc(rel(a)[x]) >> x) & 1)


def _c_vec_top(p, rel, upc, a, b, x):
    return not rel(a)[x] & ~p.up[x]


def _c_expl(p, rel, upc, a, b, x):
    return rel(a)[x] == 0


def _c_re(p, rel, upc, a, b, x):
    ra, rb = rel(a)[x], rel(b)[x]
    if ra & ~b or rb & ~a:
        return True
    return upc(ra) == upc(rb)


def _c_icc(p, rel, upc, a, b, x):
    if b & ~a:
        return True
    ra = rel(a)[x]
    if ra & ~b:
        return True
    return upc(ra) == upc(rel(b)[x])


def _c_four(p, rel, upc, a, b, x):
    rows = rel(a)
    bound = upc(rows[x])
    for y in set_bits(rows[x]):
        if rows[y] & ~bound:
            return False
    return True


def _c_c4(p, rel, upc, a, b, x):
    rows = rel(a)
    composite = 0
    for y in set_bits(rows[x]):
        composite |= rows[y]
    return not rows[x] & ~upc(composite)


def _c_box_tc(p, rel, upc, a, b, x):
    rows = rel(a)
    for y in set_bits(upc(rows[x])):
        if not (upc(rows[y]) >> y) & 1:
            return False
    return True


def _c_cem1(p, rel, upc, a, b, x):
    return rel(a)[x].bit_count() <= 1


def _c_cem2(p, rel, upc, a, b, x):
    for y in set_bits(rel(a)[x]):
        if p.up[y] != 1 << y:
            return False
    return True


def _c_cem3(p, rel, upc, a, b, x):
    rows = rel(a)
    for y in set_bits(upc(rows[x])):
        if not (upc(rows[y]) >> x) & 1:
            return False
    return True


def _c_ecm1(p, rel, upc, a, b, x):
    rows = rel(a)
    return not image(rows, down_closure(p, 1 << x)) & ~upc(rows[x])


def _c_ecm2(p, rel, upc, a, b, x):
    rows = rel(a)
    succ = rows[x]
    closure = upc(succ)
    for z in set_bits(closure):
        reach = upc(rows[z])
        if succ & ~reach:
            return False
    return True


def _c_true(p, rel, upc, a, b, x):
    return True


# The joint cautious condition used by presets containing id, ct and cm.
ICC_CORR = ("icc", "abx", _c_icc)


def _upc_memo(p) -> Callable[[int], int]:
    """Up-closure in ``p``, memoised for the lifetime of the returned function."""
    memo: Dict[int, int] = {}

    def upc(mask: int) -> int:
        got = memo.get(mask)
        if got is None:
            got = memo[mask] = up_closure(p, mask)
        return got

    return upc


def _corr_loop(frame: GeneralFrame, quant: str, fn: Callable,
               upc: Callable[[int], int]) -> Optional[Tuple]:
    """First violating (a, b, x) triple in ascending order, or None."""
    p = frame.order
    rel = frame.rel
    pool = frame.admissible
    if quant == "const":
        return None
    if quant == "x":
        # the one upset the condition reads: R_W for red and vec_top, R_empty for expl
        a = 0 if fn is _c_expl else p.full_mask
        for x in range(p.n):
            if not fn(p, rel, upc, a, None, x):
                return (a, None, x)
        return None
    if quant == "ax":
        for a in pool:
            for x in range(p.n):
                if not fn(p, rel, upc, a, None, x):
                    return (a, None, x)
        return None
    for a in pool:
        for b in pool:
            for x in range(p.n):
                if not fn(p, rel, upc, a, b, x):
                    return (a, b, x)
    return None
