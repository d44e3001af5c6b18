"""Finite conditional Heyting algebras and duality round-trips at finite scale.

An algebra carries explicit implication and conditional tables; validation
recomputes the implication from the lattice order (largest c with
c meet a below b) and requires agreement, because files can lie about the
algebraic laws.

Everything the order alone decides (the order and bound checks, the meet
and join tables, distributivity, the residual table, the prime filters and,
on carriers within :data:`PF_CAP`, their poset, theta and the order-only
half of the duality round trip) is derived on bitmasks once per
``(size, leq, top, bot)`` and memoised in :func:`_order_facts`; the
implication and conditional tables are checked per algebra.  A prime filter
of a finite lattice is the principal filter of a join-prime element other
than bot, so it is found in O(k) per element rather than by a subset scan;
:func:`prime_filters` still refuses carriers above :data:`PF_CAP`, and
larger carriers still load and validate.

Finitely, every upset of the prime-filter poset is the image of exactly
one element, so the dual of an algebra is a full conditional frame and no
topology object is needed.

A value built here from inputs that were validated when they were made (a
complex algebra from a frame, a dual frame from an algebra) skips its
constructor's checks, through :func:`condlogic.frames._unchecked`: the
construction already guarantees what those checks test, and on the small
carriers of a duality sweep the checks cost about as much as the
construction.  Everything that
reads outside input (the loaders, direct construction) runs every check.

Satisfaction runs the program :func:`condlogic.semantics.compile_formula`
makes, one assignment at a time, with one table lookup per connective;
the program's ops are bound to their tables once per call.  Frame
validity runs the same programs bit-sliced over world sets, which algebra
elements are not.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, List, NamedTuple, Optional, Tuple

from .errors import BudgetExceededError, CapExceededError, DualityError, FrameFormatError, LanguageError
from .frames import (
    ConditionalFrame, GeneralFrame, _unchecked, strongly_coherent, validate_conditional,
)
from .order import (
    FinitePreorder, all_upsets, box, heyting_imp, mask_to_key, read_indices, read_pair_rows,
    set_bits,
)
from .semantics import DEFAULT_BUDGET, compile_formula
from .syntax import Formula, Language

PF_CAP = 20

Table = Tuple[Tuple[int, ...], ...]


@dataclass
class FiniteCHA:
    """Bounded distributive lattice with residuated imp and a binary cond table.

    ``leq[i]`` is the bitmask ``{j | element i <= element j}``.  ``labels``
    records the admissible upsets when the algebra was built as a complex
    algebra, and is None for file-loaded algebras.
    """

    size: int
    leq: Tuple[int, ...]
    imp: Table
    cond: Table
    top: int
    bot: int
    labels: Optional[Tuple[int, ...]] = None

    def __post_init__(self):
        if self.size < 1:
            raise FrameFormatError("an algebra needs a nonempty carrier")
        full = (1 << self.size) - 1
        if len(self.leq) != self.size or any(r & ~full for r in self.leq):
            raise FrameFormatError("leq rows do not fit the carrier")
        for name, table in (("imp", self.imp), ("cond", self.cond)):
            if len(table) != self.size or any(len(row) != self.size for row in table):
                raise FrameFormatError(f"{name} table is not size x size")
            if any(not 0 <= v < self.size for row in table for v in row):
                raise FrameFormatError(f"{name} table entry out of range")
        if not (0 <= self.top < self.size and 0 <= self.bot < self.size):
            raise FrameFormatError("top or bot out of range")

    def le(self, i: int, j: int) -> bool:
        return bool((self.leq[i] >> j) & 1)

    def lattice(self) -> Tuple[Table, Table]:
        """Derived (meet, join) tables; raises if some pair has no glb or lub."""
        facts = _order_facts(self.size, self.leq, self.top, self.bot)
        if facts.lattice_error is not None:
            raise FrameFormatError(facts.lattice_error)
        return facts.meet, facts.join


class _OrderFacts(NamedTuple):
    """What the order alone decides about one ``(size, leq, top, bot)``.

    One instance is handed to every algebra on that order, so every field
    is immutable.  The fields from ``pf_order`` on are the dual's part: they
    are filled only for a bounded lattice order with prime filters and at
    most :data:`PF_CAP` elements, because the poset refuses more than
    ``MAX_WORLDS`` worlds and a larger carrier must still load and validate;
    :func:`prime_filters` refuses it before anything reads them.
    """

    meet: Optional[Table]
    join: Optional[Table]
    lattice_error: Optional[str]
    violations: Tuple[str, ...]  # what validate_cha reports before the imp check
    residual: Optional[Table]  # largest c with meet(c, i) <= j; None where not unique
    prime_filters: Optional[Tuple[int, ...]]  # None unless a bounded lattice order
    pf_order: Optional[FinitePreorder] = None  # inclusion order on the prime filters
    theta: Optional[Tuple[int, ...]] = None  # each element to the filters holding it
    onto: bool = False  # theta is a bijection onto the upsets of pf_order
    roundtrip: Optional[Tuple[str, ...]] = None  # _theta_failures; None unless distributive


def _greatest(cands: int, rows: Tuple[int, ...]) -> Optional[int]:
    """The one element g of ``cands`` with ``cands`` within ``rows[g]``, or None."""
    found = [g for g in set_bits(cands) if not cands & ~rows[g]]
    return found[0] if len(found) == 1 else None


def _bounds(size: int, rows: Tuple[int, ...]) -> Tuple[Optional[Table], Optional[Tuple[int, int]]]:
    """The meet table from down-set rows, or the join table from up-set rows;
    on failure None and the first pair without a bound."""
    out = []
    for i in range(size):
        row = []
        for j in range(size):
            g = _greatest(rows[i] & rows[j], rows)
            if g is None:
                return None, (i, j)
            row.append(g)
        out.append(tuple(row))
    return tuple(out), None


@lru_cache(maxsize=1024)
def _order_facts(size: int, leq: Tuple[int, ...], top: int, bot: int) -> _OrderFacts:
    down = tuple(sum(1 << j for j in range(size) if (leq[j] >> i) & 1) for i in range(size))
    bad = []
    for i in range(size):
        if not (leq[i] >> i) & 1:
            bad.append(f"order not reflexive at {i}")
        for j in set_bits(leq[i]):
            if (leq[j] >> i) & 1 and i != j:
                bad.append(f"order not antisymmetric at ({i}, {j})")
            if leq[j] & ~leq[i]:
                bad.append(f"order not transitive at ({i}, {j})")
    for i in range(size):
        if not (leq[bot] >> i) & 1:
            bad.append(f"bot is not below element {i}")
        if not (leq[i] >> top) & 1:
            bad.append(f"element {i} is not below top")
    meet, pair = _bounds(size, down)
    join = lattice_error = None
    if pair is None:
        join, pair = _bounds(size, leq)
    if pair is not None:
        kind = "meet" if meet is None else "join"
        meet = None
        lattice_error = f"elements {pair[0]}, {pair[1]} have no {kind}; not a lattice"
    if bad or lattice_error is not None:
        return _OrderFacts(meet, join, lattice_error, tuple(bad) or (lattice_error,), None, None)
    violations = ()
    for i, j, k in itertools.product(range(size), repeat=3):
        if meet[i][join[j][k]] != join[meet[i][j]][meet[i][k]]:
            violations = (f"distributivity fails at ({i}, {j}, {k})",)
            break
    residual = None
    if not violations:
        residual = tuple(
            tuple(_greatest(sum(1 << c for c in range(size) if (down[j] >> meet[c][i]) & 1), down)
                  for j in range(size))
            for i in range(size)
        )
    # up(m) is a prime filter iff its complement is an ideal, and the ideals
    # of a finite lattice are its nonempty principal down-sets (so m = bot,
    # whose complement is empty, is left out)
    ideals = set(down)
    full = (1 << size) - 1
    primes = tuple(sorted(leq[m] for m in range(size) if full & ~leq[m] in ideals))
    n = len(primes)
    if not n or size > PF_CAP:
        return _OrderFacts(meet, join, None, violations, residual, primes)
    pf_order = FinitePreorder(
        n, tuple(sum(1 << l for l in range(n) if not primes[k] & ~primes[l]) for k in range(n))
    )
    theta = tuple(sum(1 << k for k, pf in enumerate(primes) if (pf >> i) & 1) for i in range(size))
    onto = sorted(theta) == list(all_upsets(pf_order))
    roundtrip = (None if residual is None
                 else _theta_failures(pf_order, theta, top, bot, meet, join, residual))
    return _OrderFacts(meet, join, None, violations, residual, primes, pf_order, theta, onto,
                       roundtrip)


def _theta_failures(pf_order: FinitePreorder, theta: Tuple[int, ...], top: int, bot: int,
                    meet: Table, join: Table, residual: Table) -> Tuple[str, ...]:
    """The order-only half of :func:`check_duality_roundtrip`: whether theta
    preserves top, then bot, then the first pair, in row-major order, where it
    breaks meet, join or imp (checked in that order).  On a distributive
    lattice these are theorems, so the result is empty unless theta, the
    tables or the Heyting implication of the poset are computed wrongly."""
    out = []
    if theta[top] != pf_order.full_mask:
        out.append("theta does not preserve top")
    if theta[bot] != 0:
        out.append("theta does not preserve bot")
    for i, j in itertools.product(range(len(theta)), repeat=2):
        ti, tj = theta[i], theta[j]
        broken = ("meet" if theta[meet[i][j]] != ti & tj
                  else "join" if theta[join[i][j]] != ti | tj
                  else "imp" if theta[residual[i][j]] != heyting_imp(pf_order, ti, tj)
                  else None)
        if broken:
            out.append(f"theta breaks {broken} at ({i}, {j})")
            break
    return tuple(out)


@dataclass
class AlgebraReport:
    violations: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, msg: str) -> None:
        self.violations.append(msg)

    def __str__(self) -> str:
        return "valid" if self.ok else "; ".join(self.violations)


def validate_cha(alg: FiniteCHA) -> AlgebraReport:
    """Exhaustively check every algebra invariant over the finite carrier."""
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


def complex_algebra(g: GeneralFrame) -> FiniteCHA:
    """The algebra of admissible upsets with the operations read off the frame."""
    masks = g.admissible
    leq, imp, top, bot = _upset_algebra(g.order, masks)
    idx = {m: i for i, m in enumerate(masks)}
    try:
        cond = tuple(tuple([idx[box(rows, b)] for b in masks]) for rows in map(g.rel, masks))
    except KeyError:
        raise _not_closed(masks, "cond", g.dto) from None
    return _unchecked(FiniteCHA, size=len(masks), leq=leq, imp=imp, cond=cond, top=top,
                      bot=bot, labels=masks)


@lru_cache(maxsize=1024)
def _upset_algebra(p: FinitePreorder, masks: Tuple[int, ...]) -> Tuple[Tuple[int, ...], Table, int, int]:
    """``leq``, ``imp``, ``top`` and ``bot`` of the upsets ``masks`` of ``p``;
    FrameFormatError unless ``masks`` is closed under imp and holds both bounds."""
    idx = {m: i for i, m in enumerate(masks)}
    size = len(masks)
    leq = tuple(
        sum(1 << j for j, mj in enumerate(masks) if not masks[i] & ~mj)
        for i in range(size)
    )
    try:
        imp = tuple(
            tuple(idx[heyting_imp(p, masks[i], masks[j])] for j in range(size))
            for i in range(size)
        )
    except KeyError:
        raise _not_closed(masks, "imp", lambda a, b: heyting_imp(p, a, b)) from None
    for m, what in ((p.full_mask, "the full world set"), (0, "the empty set")):
        if m not in idx:
            raise FrameFormatError(f"admissible family must contain {what}")
    return leq, imp, idx[p.full_mask], idx[0]


def _not_closed(masks: Tuple[int, ...], name: str, op) -> FrameFormatError:
    """The error for the first pair of ``masks``, in table order, that ``op``
    takes outside ``masks``."""
    inside = set(masks)
    for a in masks:
        for b in masks:
            c = op(a, b)
            if c not in inside:
                return FrameFormatError(
                    f"admissible family is not closed under {name}: {{{mask_to_key(a)}}}, "
                    f"{{{mask_to_key(b)}}} give {{{mask_to_key(c)}}}"
                )


@dataclass
class AlgVerdict:
    satisfied: bool
    assignment: Optional[Dict[str, int]] = None
    checked: int = 0

    def __bool__(self) -> bool:
        return self.satisfied


def alg_satisfies(alg: FiniteCHA, f: Formula, budget: int = DEFAULT_BUDGET) -> AlgVerdict:
    """Exhaustive assignment check; reports a counter-assignment on failure."""
    if f.language is not Language.COND:
        raise LanguageError("algebras interpret the conditional language only")
    letters, program, result_slot, _ = compile_formula(f)
    required = alg.size ** len(letters)
    if required > budget:
        raise BudgetExceededError(required, budget)
    meet, join = alg.lattice()
    tables = {"and": meet, "or": join, "imp": alg.imp, "cond": alg.cond}
    steps = [(tables[op], left, right) for op, left, right in program]
    checked = 0
    for values in itertools.product(range(alg.size), repeat=len(letters)):
        checked += 1
        buf = list(values)
        buf.append(alg.bot)
        for table, left, right in steps:
            buf.append(table[buf[left]][buf[right]])
        if buf[result_slot] != alg.top:
            return AlgVerdict(False, dict(zip(letters, values)), checked)
    return AlgVerdict(True, None, checked)


def prime_filters(alg: FiniteCHA, cap: int = PF_CAP) -> Tuple[int, ...]:
    """All prime filters as carrier bitmasks, in ascending mask order.

    Raises FrameFormatError unless the order is a bounded lattice order.
    """
    if alg.size > cap:
        raise CapExceededError(
            f"prime filter scan is capped at carrier size {cap}, got {alg.size}"
        )
    facts = _order_facts(alg.size, alg.leq, alg.top, alg.bot)
    if facts.prime_filters is None:
        raise FrameFormatError("; ".join(facts.violations))
    return facts.prime_filters


def _dual_with_maps(alg: FiniteCHA):
    pfs = prime_filters(alg)
    if not pfs:
        raise DualityError("algebra has no prime filters; carrier must be degenerate")
    facts = _order_facts(alg.size, alg.leq, alg.top, alg.bot)
    if not facts.onto:
        raise DualityError(
            "theta is not a bijection onto the upsets of the prime-filter poset"
        )
    order, theta = facts.pf_order, facts.theta
    # x steps to the prime filters holding every b with (a cond b) in x
    full = order.full_mask
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
    frame = _unchecked(ConditionalFrame, order=order, admissible=all_upsets(order),
                       relations=relations)
    return frame, pfs, theta


def dual_frame(alg: FiniteCHA) -> ConditionalFrame:
    """Prime-filter frame with relations induced by the cond table.

    x steps to y under the relation at theta(a) iff every b with
    ``a cond b`` in x belongs to y.  The result is a full conditional frame.
    """
    frame, _, _ = _dual_with_maps(alg)
    return frame


@dataclass
class DualityReport:
    failures: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def add(self, msg: str) -> None:
        self.failures.append(msg)

    def __str__(self) -> str:
        return "success" if self.ok else "; ".join(self.failures)


def check_duality_roundtrip(alg: FiniteCHA) -> DualityReport:
    """Verify theta carries the algebra isomorphically onto the complex algebra
    of its dual frame, conditional operation included.

    The order-only half (top, bot, meet, join and imp, which equals the
    residual table once the algebra validates) is checked once per lattice
    in :func:`_order_facts`.  Per algebra, theta of each ``a cond b`` is
    compared with the box of the dual's relation at theta(a) over theta(b),
    which is the complex algebra's cond without building it; the first pair,
    in row-major order, that breaks it is reported after the order-only
    failures.
    """
    pre = validate_cha(alg)
    if not pre.ok:
        raise DualityError(f"refusing invalid algebra: {pre}")
    frame, _pfs, theta = _dual_with_maps(alg)
    report = DualityReport(list(_order_facts(alg.size, alg.leq, alg.top, alg.bot).roundtrip))
    for i, row in enumerate(alg.cond):
        rows = frame.rel(theta[i])
        for j, tj in enumerate(theta):
            if theta[row[j]] != box(rows, tj):
                report.add(f"theta breaks cond at ({i}, {j})")
                return report
    return report


def frame_roundtrip(f: GeneralFrame) -> DualityReport:
    """Check that the frame is isomorphic to the dual of its complex algebra.

    Requires a full frame (every upset admissible, however the family was
    spelled), a poset order and the strong coherence condition; those are
    exactly the frames that arise as finite stand-ins for the topological
    duals, and the relation equivalence below fails without them.
    """
    if not f.order.is_poset:
        raise DualityError("frame order must be a poset (otherwise eta is not injective)")
    if not strongly_coherent(f):
        raise DualityError(
            "frame must satisfy the strong coherence condition for the round-trip"
        )
    check = validate_conditional(f)
    if not check.ok:
        raise DualityError(f"refusing invalid frame: {check}")
    report = DualityReport()
    alg = complex_algebra(f)
    frame2, pfs, theta = _dual_with_maps(alg)
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
        dual_rows = frame2.rel(theta[i])
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


# --- file format -----------------------------------------------------------
#
# { "size": k, "leq": [[i,j],...], "imp": k x k, "cond": k x k,
#   "top": i, "bot": j }


def algebra_to_json(alg: FiniteCHA) -> dict:
    return {
        "size": alg.size,
        "leq": [[i, j] for i in range(alg.size) for j in range(alg.size) if alg.le(i, j)],
        "imp": [list(row) for row in alg.imp],
        "cond": [list(row) for row in alg.cond],
        "top": alg.top,
        "bot": alg.bot,
    }


def algebra_from_json(obj: dict) -> FiniteCHA:
    try:
        size = obj["size"]
        leq_pairs = obj["leq"]
        imp_rows = list(obj["imp"])
        cond_rows = list(obj["cond"])
        top_bot = [obj["top"], obj["bot"]]
    except (KeyError, TypeError) as exc:
        raise FrameFormatError(f"malformed algebra object: {exc}") from exc
    # the imp table bounds the carrier before anything is allocated for it
    if type(size) is not int or not 1 <= size <= len(imp_rows):
        raise FrameFormatError(f"algebra size {size!r} does not fit its imp table")
    imp = tuple(tuple(read_indices(row, size, "imp entry")) for row in imp_rows)
    cond = tuple(tuple(read_indices(row, size, "cond entry")) for row in cond_rows)
    top, bot = read_indices(top_bot, size, "top/bot")
    leq = [row | 1 << i for i, row in enumerate(read_pair_rows(leq_pairs, size, "leq"))]
    alg = FiniteCHA(size, tuple(leq), imp, cond, top, bot)
    report = validate_cha(alg)
    if not report.ok:
        raise FrameFormatError(f"algebra fails validation: {report}")
    return alg
