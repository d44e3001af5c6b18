"""Pointwise correspondents: the oracle for the kernels of ``condlogic.correspondents``.

Each ``_c_*`` says whether its condition holds at admissible upsets a (and
b where used) and one world x, read straight off the definition; ``rel``
is the frame's :meth:`rel` and ``upc`` a memoised up-closure.  The loop
visits (a, b, x) one triple at a time, in the order the kernels' loop
promises, so the first witness of the two must be the same.
"""

from typing import Callable, Dict, Optional, Tuple

from condlogic.order import _down_rows, image, set_bits, up_closure


def down_closure(p, s):
    """Least downset containing the worlds of mask ``s``."""
    return image(_down_rows(p.up), s)


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


# registry key (and "icc", the joint cautious condition) to its oracle
ORACLES: Dict[str, Callable] = {
    "id": _c_id, "mp": _c_mp, "mpp": _c_mp, "str": _c_str, "unit": _c_unit,
    "unit_says": _c_unit, "vec_top": _c_unit, "exf": _c_exf, "tc": _c_tc, "red": _c_tc,
    "cs": _c_cs, "lin": _c_lin, "tr": _c_tr, "mon": _c_mon, "ex": _c_ex, "expl": _c_expl,
    "re": _c_re, "icc": _c_icc, "four_c": _c_four, "c4_c": _c_c4, "box_tc": _c_box_tc,
    "bt": _c_box_tc, "cem1": _c_cem1, "cem2": _c_cem2, "cem3": _c_cem3, "ecm1": _c_ecm1,
    "ecm2": _c_ecm2,
}


def _upc_memo(p) -> Callable[[int], int]:
    memo: Dict[int, int] = {}

    def upc(mask: int) -> int:
        got = memo.get(mask)
        if got is None:
            got = memo[mask] = up_closure(p, mask)
        return got

    return upc


def oracle_loop(frame, quant: str, fn: Callable) -> Optional[Tuple]:
    """First violating (a, b, x) triple, one triple at a time, or None."""
    p = frame.order
    rel = frame.rel
    upc = _upc_memo(p)
    if quant == "const":
        return None
    if quant in ("0x", "Wx"):
        pool = (0,) if quant == "0x" else (p.full_mask,)
    else:
        pool = frame.admissible
    for a in pool:
        for b in (pool if quant == "abx" else (None,)):
            for x in range(p.n):
                if not fn(p, rel, upc, a, b, x):
                    return (a, b, x)
    return None
