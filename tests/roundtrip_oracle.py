"""The round trips as they were before their halves were memoised.

This is the oracle for :func:`condlogic.algebra.frame_roundtrip`: it builds
the complex algebra of the frame and every relation of the dual frame of
that algebra, recomputes eta, the prime-filter index and the order check
for every frame, and tests strong coherence and coherence on every
relation.  On any frame both must give equal failures, or the same
exception type and message.

It is also the oracle for the relation half of :func:`validate_cha` and
:func:`check_duality_roundtrip`: :func:`rowwise_validate_cha` and
:func:`rowwise_check_duality_roundtrip` check the cond laws and theta of
each ``a cond b`` row by row, for every row of every algebra, with no memo
of the rows.  On any algebra both must give equal reports, or the same
exception type and message.

Strong coherence is tested by its pointwise definition,
:func:`strongly_coherent_by_definition`, not by the library's predicate.
"""

from condlogic.algebra import (
    AlgebraReport, DualityReport, _dual_facts, _dual_rows, _order_facts, complex_algebra,
    prime_filters,
)
from condlogic.errors import DualityError
from condlogic.frames import validate_conditional
from condlogic.order import box, mask_to_key, set_bits


def rowwise_validate_cha(alg):
    """Every algebra invariant, the cond laws checked once per row."""
    facts = _order_facts(alg.size, alg.leq, alg.top, alg.bot)
    report = AlgebraReport(list(facts.violations))
    if not report.ok:
        return report
    size = alg.size
    meet = facts.meet
    for i, (imp_row, res_row) in enumerate(zip(alg.imp, facts.residual)):
        for j in range(size):
            if imp_row[j] != res_row[j]:
                report.add(f"imp table disagrees with residuation at ({i}, {j})")
    # cond laws: meets preserved in the second argument, top preserved
    for a, row in enumerate(alg.cond):
        if row[alg.top] != alg.top:
            report.add(f"cond({a}, top) is not top")
        for b in range(size):
            meet_b, row_b = meet[b], meet[row[b]]
            for c in range(size):
                if row[meet_b[c]] != row_b[row[c]]:
                    report.add(f"cond does not preserve meet at ({a}, {b}, {c})")
                    return report
    return report


def rowwise_check_duality_roundtrip(alg):
    """The algebra round trip, the dual rows of every row computed anew."""
    pre = rowwise_validate_cha(alg)
    if not pre.ok:
        raise DualityError(f"refusing invalid algebra: {pre}")
    facts = _dual_facts(alg.size, alg.leq, alg.top, alg.bot)
    pfs, theta, full = facts.prime_filters, facts.theta, facts.pf_order.full_mask
    report = DualityReport(list(facts.roundtrip))
    for i, row in enumerate(alg.cond):
        rows = _dual_rows(row, pfs, theta, full)
        for j, tj in enumerate(theta):
            if theta[row[j]] != box(rows, tj):
                report.add(f"theta breaks cond at ({i}, {j})")
                return report
    return report


def strongly_coherent_by_definition(up, rows):
    """Every row is an upset of the order with rows ``up``, and x <= y
    implies R[y] within R[x]."""
    return (all(not up[y] & ~row for row in rows for y in set_bits(row))
            and all(not rows[y] & ~rows[x] for x in range(len(up)) for y in set_bits(up[x])))


def rel_strongly_coherent(p, rows):
    """leq-then-step-then-leq equals the relation itself."""
    return strongly_coherent_by_definition(p.up, rows)


def check_strong_coherence(g):
    """Per admissible upset: does leq-then-step-then-leq collapse to the relation?"""
    return {a: rel_strongly_coherent(g.order, g.rel(a)) for a in g.admissible}


def reference_dual_with_maps(alg):
    """The dual frame's relations keyed by theta, its prime filters and theta."""
    pfs = prime_filters(alg)
    if not pfs:
        raise DualityError("algebra has no prime filters; carrier must be degenerate")
    facts = _order_facts(alg.size, alg.leq, alg.top, alg.bot)
    if not facts.onto:
        raise DualityError(
            "theta is not a bijection onto the upsets of the prime-filter poset"
        )
    theta = facts.theta
    full = facts.pf_order.full_mask
    relations = {}
    for i, cond_row in enumerate(alg.cond):
        rows = []
        for pf in pfs:
            succ = full
            for c, t in zip(cond_row, theta):
                if (pf >> c) & 1:
                    succ &= t
            rows.append(succ)
        relations[theta[i]] = tuple(rows)
    return relations, pfs, theta


def reference_frame_roundtrip(f):
    if not f.order.is_poset:
        raise DualityError("frame order must be a poset (otherwise eta is not injective)")
    if not all(check_strong_coherence(f).values()):
        raise DualityError(
            "frame must satisfy the strong coherence condition for the round-trip"
        )
    check = validate_conditional(f)
    if not check.ok:
        raise DualityError(f"refusing invalid frame: {check}")
    report = DualityReport()
    alg = complex_algebra(f)
    relations, pfs, theta = reference_dual_with_maps(alg)
    labels = alg.labels
    eta = []
    for x in range(f.n):
        eta.append(sum(1 << i for i, m in enumerate(labels) if (m >> x) & 1))
    pf_index = {pf: k for k, pf in enumerate(pfs)}
    if len(pfs) != f.n:
        report.add(f"expected {f.n} prime filters, found {len(pfs)}")
        return report
    for x, e in enumerate(eta):
        if e not in pf_index:
            report.add(f"eta({x}) is not a prime filter")
            return report
    if len(set(eta)) != f.n:
        report.add("eta is not injective")
        return report
    for x in range(f.n):
        for y in range(f.n):
            if f.order.leq(x, y) != (not eta[x] & ~eta[y]):
                report.add(f"eta breaks the order at ({x}, {y})")
                return report
    world_of = [0] * f.n  # the world whose eta is each prime filter
    for x, e in enumerate(eta):
        world_of[pf_index[e]] = x
    for i, a in enumerate(labels):
        rows = f.rel(a)
        dual_rows = relations[theta[i]]
        for x, e in enumerate(eta):
            diff = rows[x] ^ sum(1 << world_of[k] for k in set_bits(dual_rows[pf_index[e]]))
            if diff:
                y = (diff & -diff).bit_length() - 1
                report.add(
                    f"relation at {{{mask_to_key(a)}}} disagrees with the dual "
                    f"at worlds ({x}, {y})"
                )
                return report
    return report
