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
implication table is checked per algebra.  A prime filter
of a finite lattice is the principal filter of a join-prime element other
than bot, so it is found in O(k) per element rather than by a subset scan;
:func:`prime_filters` still refuses carriers above :data:`PF_CAP`, and
larger carriers still load and validate.

Finitely, every upset of the prime-filter poset is the image of exactly
one element, so the dual of an algebra is a full conditional frame and no
topology object is needed.  One function, :func:`_dual_rows`, computes the
dual relation; the dual frame, the algebra round trip and the frame round
trip all read it from there, and the two round trips build no frame for it.

The frame round trip has an order-only half of its own, kept with the
frame order (:meth:`condlogic.order.FinitePreorder.derived`) by
:func:`_frame_order`: the upsets, the prime filters and theta of their
lattice, eta, and the checks that eta maps the worlds onto the prime
filters, preserving and reflecting the order.  A duality sweep meets
thousands of frames on a handful of orders, and for a finite poset the
prime filters of the upset lattice are exactly the eta(x) (Birkhoff), so
per frame only the relations are left: each dual row is computed from the
frame's ``cond`` table with the upsets themselves as theta, and read off by
world.  Neither the complex algebra nor a dual frame is built.

The relation half of both round trips is memoised per row.  Each row's
result is kept in a table inside the entry of what it depends on, keyed by
the row tuple alone, so a call fetches each entry once and then makes one
C-level dict lookup per row.  There are three such tables:

- the checks of one cond row of an algebra, its cond laws and its algebra
  round trip at once (:func:`_cond_checks`), in the lattice's
  :func:`_order_facts` entry, filled by :func:`validate_cha`, whose
  per-row results :func:`check_duality_roundtrip` reads back from its
  report;
- one row of a complex algebra's cond table (:func:`_cond_row`), in the
  entry of its family in the order's table of families (:func:`_families`),
  which :func:`complex_algebra` and :func:`frame_roundtrip` share;
- the frame round trip of one relation (:func:`_relation_diff`), in the
  order's :func:`_frame_order` entry.

Each check depends on its row and its entry alone, and rows repeat
heavily: A5's 271 487 cond rows hold 517 distinct (lattice, row) pairs.
Every table is a :class:`condlogic.order._Lazy` under the one bound
:data:`condlogic.order.LAZY_ENTRIES`, and no key is a frame, an algebra or
an object's identity.  A table answers with what failed within the row,
never with the row's place, because equal rows of one algebra share an
entry; the caller names the row by position and writes every message, so a
report keeps its text, its order and its early return however the rows
repeat.  An error is not kept: a family not closed under the box raises out
of its table each time, and :func:`_cond_table` names the first pair of
the whole table.

A complex algebra, built from a frame that was validated when it was made,
skips its constructor's checks, through :func:`_unchecked_algebra`: the
construction already guarantees what those checks test, and on the small
carriers of a duality sweep the checks cost about as much as the
construction.  Everything else (the dual frame, the loaders, direct
construction) runs every check.

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
    ConditionalFrame, GeneralFrame, _summarize, strongly_coherent, validate_conditional,
)
from .order import (
    FinitePreorder, _Lazy, box, heyting_imp, interned_order, mask_to_key, read_indices,
    read_pair_rows, set_bits,
)
from .semantics import DEFAULT_BUDGET, compile_formula
from .syntax import Formula, Language

PF_CAP = 20
# read per call as a module global, not through its class (see semantics._COND)
_COND = Language.COND

Table = Tuple[Tuple[int, ...], ...]


@dataclass
class FiniteCHA:
    """Bounded distributive lattice with residuated imp and a binary cond table.

    ``leq[i]`` is the bitmask ``{j | element i <= element j}``.  ``labels``
    records the admissible upsets when the algebra was built as a complex
    algebra, and is None for file-loaded algebras.  The constructor stores
    ``leq`` and each table and table row as tuples, so that the memos keyed
    by them can hash them as they are.
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
        self.leq = tuple(self.leq)
        self.imp = tuple(map(tuple, self.imp))
        self.cond = tuple(map(tuple, self.cond))

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
    is immutable but ``cond_checks``, which only gains entries, each a
    result that depends on its row and this order alone.  The fields from
    ``pf_order`` to ``roundtrip`` are the dual's part: they are filled only
    for a bounded lattice order with prime filters and at most
    :data:`PF_CAP` elements, because the poset refuses more than
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
    # each cond row to its _cond_checks; None unless a lattice order
    cond_checks: Optional[_Lazy] = None


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
        return _OrderFacts(meet, join, None, violations, residual, primes,
                           cond_checks=_Lazy(_cond_checks, (top, meet, None)))
    pf_order = interned_order(
        tuple(sum(1 << l for l in range(n) if not primes[k] & ~primes[l]) for k in range(n)))
    theta = tuple(sum(1 << k for k, pf in enumerate(primes) if (pf >> i) & 1) for i in range(size))
    onto = sorted(theta) == list(pf_order.upsets)
    roundtrip = (None if residual is None
                 else _theta_failures(pf_order, theta, top, bot, meet, join, residual))
    dual = (primes, theta, pf_order.full_mask) if onto else None
    return _OrderFacts(meet, join, None, violations, residual, primes, pf_order, theta, onto,
                       roundtrip, _Lazy(_cond_checks, (top, meet, dual)))


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
    # the first (a, b), row by row, at which theta breaks cond, as
    # validate_cha found it, for check_duality_roundtrip to read instead of
    # looking each row up again; None when the lattice has no dual
    cond_break: Optional[Tuple[int, int]] = field(default=None, repr=False, compare=False)

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, msg: str) -> None:
        self.violations.append(msg)

    def __str__(self) -> str:
        return "valid" if self.ok else _summarize(self.violations)


def validate_cha(alg: FiniteCHA) -> AlgebraReport:
    """Exhaustively check every algebra invariant over the finite carrier."""
    return _validate(alg, _order_facts(alg.size, alg.leq, alg.top, alg.bot))


def _validate(alg: FiniteCHA, facts: _OrderFacts) -> AlgebraReport:
    """:func:`validate_cha` of ``alg``, whose :func:`_order_facts` are
    ``facts``."""
    report = AlgebraReport(list(facts.violations))
    if facts.violations:
        return report
    # one C-level compare of the tables; the cells only to name disagreements
    if alg.imp != facts.residual:
        for i, (imp_row, res_row) in enumerate(zip(alg.imp, facts.residual)):
            for j in range(alg.size):
                if imp_row[j] != res_row[j]:
                    report.add(f"imp table disagrees with residuation at ({i}, {j})")
    # cond laws: meets preserved in the second argument, top preserved; the
    # row's entry holds its round trip too, and a row that passes all three
    # is the one _ROW_OK
    cond_checks = facts.cond_checks
    for a, row in enumerate(alg.cond):
        checks = cond_checks[row]
        if checks is _ROW_OK:
            continue
        keeps_top, broken, j = checks
        if not keeps_top:
            report.add(f"cond({a}, top) is not top")
        if broken is not None:
            report.add(f"cond does not preserve meet at ({a}, {broken[0]}, {broken[1]})")
            return report
        if j is not None and report.cond_break is None:
            report.cond_break = (a, j)
    return report


_ROW_OK = (True, None, None)


def _cond_checks(lattice: tuple, row: Tuple[int, ...]
                 ) -> Tuple[bool, Optional[Tuple[int, int]], Optional[int]]:
    """The checks of one cond row ``row`` (``a cond b`` for every b) on a
    distributive lattice order: whether it keeps top; the first (b, c), in
    row-major order, at which it breaks meet, or None; and the first b at
    which theta of ``a cond b`` differs from the box of the dual relation at
    theta(a) over theta(b), or None.  That last check is made only on a row
    that keeps meets, on a lattice with a dual (theta set and onto), and is
    None otherwise.

    ``lattice`` is ``(top, meet, dual)``, where ``dual`` is ``(prime
    filters, theta, every dual world)``, or None when the lattice has no
    dual.  :func:`validate_cha` reads the first two checks and
    :func:`check_duality_roundtrip` the third, from the same result.

    Memoised in the ``cond_checks`` table of the lattice's
    :func:`_order_facts` entry, keyed by the row alone, so equal rows of one
    algebra and of different algebras on the lattice share one entry; the
    callers name the row."""
    top, meet, dual = lattice
    size = len(row)
    keeps_top = row[top] == top
    for b in range(size):
        meet_b, row_b = meet[b], meet[row[b]]
        for c in range(size):
            if row[meet_b[c]] != row_b[row[c]]:
                return keeps_top, (b, c), None
    if dual is not None:
        primes, theta, full = dual
        rows = _dual_rows(row, primes, theta, full)
        for j, tj in enumerate(theta):
            if theta[row[j]] != box(rows, tj):
                return keeps_top, None, j
    return _ROW_OK if keeps_top else (False, None, None)


def complex_algebra(g: GeneralFrame) -> FiniteCHA:
    """The algebra of admissible upsets with the operations read off the frame."""
    masks = g.admissible
    family = g.order.derived(_families)[masks]
    return _unchecked_algebra(len(masks), family.leq, family.imp,
                              _cond_table(g, family.cond_rows), family.top, family.bot, masks)


def _unchecked_algebra(size: int, leq: Tuple[int, ...], imp: Table, cond: Table, top: int,
                       bot: int, labels: Tuple[int, ...]) -> FiniteCHA:
    """A :class:`FiniteCHA` holding these fields, built without its
    constructor's checks.

    Its one caller is :func:`complex_algebra`, whose ``imp``, ``cond``,
    ``top`` and ``bot`` are ``idx[...]`` lookups into its carrier, so every
    entry lies in ``0..size-1``; its tables are ``size x size`` and its
    ``leq`` rows are built over the carrier, one per element.  ``leq`` and
    the tables and their rows are tuples, as the constructor would store
    them, and are stored as given.  A family not closed under the
    operations raises FrameFormatError before this is reached, as it does
    before the checking constructor.

    The fields are stored one by one, in the constructor's order, not as a
    new ``__dict__``, so that the instance shares its attribute keys with
    its class as constructed ones do."""
    alg = object.__new__(FiniteCHA)
    alg.size = size
    alg.leq = leq
    alg.imp = imp
    alg.cond = cond
    alg.top = top
    alg.bot = bot
    alg.labels = labels
    return alg


def _cond_table(g: GeneralFrame, cond_rows: _Lazy) -> Table:
    """The complex algebra's ``cond``: the carrier index of ``box(R_a, b)``
    for every a, b of ``g.admissible``, each row read from ``cond_rows``,
    the table of the family's :func:`_family` entry; FrameFormatError unless
    the family is closed under the box.

    A row that leaves the family raises out of the table, which keeps no
    error, and the message names the first such pair of the whole table.  A
    relation missing from ``g.relations`` raises its NotAdmissibleError
    through :meth:`GeneralFrame.rel` when that search reaches it."""
    masks, relations = g.admissible, g.relations
    try:
        return tuple([cond_rows[relations[a]] for a in masks])
    except KeyError:
        rel = g.rel
        raise _not_closed(masks, "cond", lambda a, b: box(rel(a), b)) from None


class _Family(NamedTuple):
    """The complex algebra of one admissible family of one order, but its
    ``cond``: the :func:`_upset_algebra` fields, and ``cond_rows``, each
    relation's rows to its :func:`_cond_row`, which only gains entries."""

    leq: Tuple[int, ...]
    imp: Table
    top: int
    bot: int
    cond_rows: _Lazy


def _families(p: FinitePreorder) -> _Lazy:
    """The order's table of families: each admissible family, a tuple of
    upsets, to its :func:`_family`; kept with the order (see
    :meth:`~condlogic.order.FinitePreorder.derived`).  Shared by
    :func:`complex_algebra` and :func:`frame_roundtrip`, which reads the
    family of all upsets."""
    return _Lazy(_family, p)


def _family(p: FinitePreorder, masks: Tuple[int, ...]) -> _Family:
    """:class:`_Family` of the upsets ``masks`` of ``p``; FrameFormatError
    unless ``masks`` is closed under imp and holds both bounds."""
    leq, imp, top, bot = _upset_algebra(p, masks)
    return _Family(leq, imp, top, bot, _Lazy(_cond_row, masks))


def _cond_row(masks: Tuple[int, ...], rows: Tuple[int, ...]) -> Tuple[int, ...]:
    """The index in ``masks`` of ``box(rows, b)`` for every b of ``masks``;
    KeyError unless every box lies in ``masks``.

    Memoised in the ``cond_rows`` table of the family's :func:`_family`
    entry, keyed by the relation's rows alone."""
    idx = {m: i for i, m in enumerate(masks)}
    return tuple([idx[box(rows, b)] for b in masks])


def _upset_algebra(p: FinitePreorder, masks: Tuple[int, ...]) -> Tuple[Tuple[int, ...], Table, int, int]:
    """``leq``, ``imp``, ``top`` and ``bot`` of the upsets ``masks`` of ``p``;
    FrameFormatError unless ``masks`` is closed under imp and holds both bounds.
    Memoised through :func:`_families`."""
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
    if f.language is not _COND:
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


def prime_filters(alg: FiniteCHA) -> Tuple[int, ...]:
    """All prime filters as carrier bitmasks, in ascending mask order.

    Raises FrameFormatError unless the order is a bounded lattice order.
    """
    return _lattice_facts(alg.size, alg.leq, alg.top, alg.bot).prime_filters


def _lattice_facts(size: int, leq: Tuple[int, ...], top: int, bot: int) -> _OrderFacts:
    """:func:`_order_facts` of a bounded lattice order of at most
    :data:`PF_CAP` elements; the cap is checked first, so a larger carrier is
    not scanned."""
    _check_cap(size)
    facts = _order_facts(size, leq, top, bot)
    if facts.prime_filters is None:
        raise FrameFormatError(_summarize(facts.violations))
    return facts


def _check_cap(size: int) -> None:
    if size > PF_CAP:
        raise CapExceededError(
            f"prime filter scan is capped at carrier size {PF_CAP}, got {size}"
        )


def _dual_facts(size: int, leq: Tuple[int, ...], top: int, bot: int) -> _OrderFacts:
    """:func:`_lattice_facts` of a lattice with a dual frame; DualityError
    when it has no prime filter, or theta is not a bijection onto the upsets
    of the prime-filter poset."""
    return _with_dual(_lattice_facts(size, leq, top, bot))


def _with_dual(facts: _OrderFacts) -> _OrderFacts:
    """``facts``, of a bounded lattice order within :data:`PF_CAP`, if the
    lattice has a dual frame; else the DualityError of :func:`_dual_facts`."""
    if not facts.prime_filters:
        raise DualityError("algebra has no prime filters; carrier must be degenerate")
    if not facts.onto:
        raise DualityError(
            "theta is not a bijection onto the upsets of the prime-filter poset"
        )
    return facts


def _dual_rows(cond_row: Tuple[int, ...], filters, theta, full: int) -> Tuple[int, ...]:
    """The dual relation at theta(a), given ``cond_row`` = ``a cond b`` for
    every b: one row per prime filter of ``filters`` (carrier bitmasks), the
    meet over every b with ``a cond b`` in that filter of ``theta[b]``, a
    set of dual worlds."""
    rows = []
    for pf in filters:
        succ = full
        for c, t in zip(cond_row, theta):
            if (pf >> c) & 1:
                succ &= t
        rows.append(succ)
    return tuple(rows)


def dual_frame(alg: FiniteCHA) -> ConditionalFrame:
    """Prime-filter frame with relations induced by the cond table.

    x steps to y under the relation at theta(a) iff every b with
    ``a cond b`` in x belongs to y.  The result is a full conditional frame.
    """
    facts = _dual_facts(alg.size, alg.leq, alg.top, alg.bot)
    order, pfs, theta = facts.pf_order, facts.prime_filters, facts.theta
    relations = {theta[i]: _dual_rows(cond_row, pfs, theta, order.full_mask)
                 for i, cond_row in enumerate(alg.cond)}
    return ConditionalFrame(order, relations)


@dataclass
class DualityReport:
    failures: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def add(self, msg: str) -> None:
        self.failures.append(msg)

    def __str__(self) -> str:
        return "success" if self.ok else _summarize(self.failures)


def check_duality_roundtrip(alg: FiniteCHA) -> DualityReport:
    """Verify theta carries the algebra isomorphically onto the complex algebra
    of its dual frame, conditional operation included.

    The order-only half (top, bot, meet, join and imp, which equals the
    residual table once the algebra validates) is checked once per lattice
    in :func:`_order_facts`.  Per row a, theta of each ``a cond b`` is
    compared with the box of the dual's relation at theta(a), as
    :func:`_dual_rows` computes it, over theta(b): the complex algebra's
    cond, with neither it nor the dual frame built.  That comparison is
    memoised per distinct row in :func:`_cond_checks`, beside the row's cond
    laws, and read from the report of the validation that refuses an
    invalid algebra; the lattice's entry is fetched once for both.  The
    first pair, in row-major order, that breaks it is reported after the
    order-only failures.
    """
    facts = _order_facts(alg.size, alg.leq, alg.top, alg.bot)
    pre = _validate(alg, facts)
    if not pre.ok:
        raise DualityError(f"refusing invalid algebra: {pre}")
    # a valid algebra is a bounded lattice, so this is _dual_facts
    _check_cap(alg.size)
    report = DualityReport(list(_with_dual(facts).roundtrip))
    if pre.cond_break is not None:
        a, b = pre.cond_break
        report.add(f"theta breaks cond at ({a}, {b})")
    return report


class _FrameOrder(NamedTuple):
    """The order-only half of :func:`frame_roundtrip` for one poset order.

    ``failures`` is what the round trip reports before any relation is
    compared.  ``diffs`` takes each relation's rows to its
    :func:`_relation_diff`, and only gains entries.
    """

    upsets: Tuple[int, ...]
    failures: Tuple[str, ...]
    diffs: _Lazy


def _eta(upsets: Tuple[int, ...], n: int) -> Tuple[int, ...]:
    """eta(x) for each world x: the upsets holding x, as a carrier bitmask."""
    return tuple(sum(1 << i for i, m in enumerate(upsets) if (m >> x) & 1) for x in range(n))


def _eta_failure(p: FinitePreorder, pfs: Tuple[int, ...], eta: Tuple[int, ...]) -> Optional[str]:
    """The first way eta fails to be an order isomorphism onto the prime
    filters ``pfs``, or None."""
    if len(pfs) != p.n:
        return f"expected {p.n} prime filters, found {len(pfs)}"
    for x, e in enumerate(eta):
        if e not in pfs:
            return f"eta({x}) is not a prime filter"
    if len(set(eta)) != p.n:
        return "eta is not injective"
    for x, y in itertools.product(range(p.n), repeat=2):
        if p.leq(x, y) != (not eta[x] & ~eta[y]):
            return f"eta breaks the order at ({x}, {y})"
    return None


def _frame_order(p: FinitePreorder) -> _FrameOrder:
    """:class:`_FrameOrder` of the poset order ``p``; kept with the order
    (see :meth:`~condlogic.order.FinitePreorder.derived`).  Raises
    CapExceededError on more than :data:`PF_CAP` upsets, before their
    lattice is built; an error is not kept."""
    ups = p.upsets
    _check_cap(len(ups))
    family = p.derived(_families)[ups]
    facts = _dual_facts(len(ups), family.leq, family.top, family.bot)
    eta = _eta(ups, p.n)
    failure = _eta_failure(p, facts.prime_filters, eta)
    diffs = _Lazy(_relation_diff, (ups, eta, family.cond_rows))
    return _FrameOrder(ups, (failure,) if failure else (), diffs)


def frame_roundtrip(f: GeneralFrame) -> DualityReport:
    """Check that the frame is isomorphic to the dual of its complex algebra.

    Requires a poset order, the strong coherence condition and a full frame
    (every upset admissible, however the family was spelled), checked in
    that order; those are exactly the frames that arise as finite stand-ins
    for the topological duals, and the relation equivalence below fails
    without them.

    Everything the order alone decides is kept with the order by
    :func:`_frame_order`: the upsets, the dual's prime filters, eta, and the
    checks that eta is a bijection onto the prime filters that preserves
    and reflects the order.  A duality sweep meets thousands of frames on a
    handful of orders.  For a finite poset the prime filters of its upset
    lattice are exactly the eta(x) (Birkhoff), so per frame only the
    relations are left to compare: the dual relation at each upset a is
    computed by :func:`_dual_rows`, per world, from the row ``a cond b`` of
    the complex algebra's cond table, and compared with R_a.  Neither the
    complex algebra nor the dual frame is built.  That comparison depends
    on the order and R_a alone, not on a, so it is memoised per distinct
    R_a in the order's entry (:func:`_relation_diff`), which answers with
    the worlds only; the message names a, the first upset, in label order,
    whose relation fails.

    The rows come out by world because the prime filters are listed as eta
    and theta is the list of upsets itself.  Upset i lies in eta(x) exactly
    when x lies in upset i, so the worlds whose prime filter holds upset i
    are ``{x : i in eta(x)} = ups[i]``.  Theta proper maps upset i to the
    prime filters holding it; once eta is a bijection onto the prime
    filters, renaming each prime filter eta(x) as world x carries it onto
    ``ups[i]``, so no translation is needed.

    Strong coherence (R = leq;R;leq) implies coherence.  Write R[S] for
    the union of the rows of R over the worlds of S.  If x <= y, then up(y)
    lies within up(x), so R[y] = up(R[up(y)]) lies within up(R[up(x)]) =
    R[x], which is an upset: R[y] lies within up(R[x]), which is coherence.
    So once strong coherence holds, :func:`validate_conditional` can only
    report that the frame is not full, and it is called only then, for the
    same message.  Coherence also makes box(R_a, b) an upset for every upset
    b, so on a full frame :func:`_cond_row` cannot raise, and the one error
    left after the frame's own checks is the cap error of
    :func:`_frame_order`.
    """
    if not f.order.is_poset:
        raise DualityError("frame order must be a poset (otherwise eta is not injective)")
    if not strongly_coherent(f):
        raise DualityError(
            "frame must satisfy the strong coherence condition for the round-trip"
        )
    if not f.is_full:
        raise DualityError(f"refusing invalid frame: {validate_conditional(f)}")
    order = f.order.derived(_frame_order)
    report = DualityReport(list(order.failures))
    if order.failures:
        return report
    # strongly_coherent read a relation for every admissible set, and the
    # frame is full, so every upset has one
    diffs, relations = order.diffs, f.relations
    for a in order.upsets:
        worlds = diffs[relations[a]]
        if worlds is not None:
            report.add(
                f"relation at {{{mask_to_key(a)}}} disagrees with the dual "
                f"at worlds ({worlds[0]}, {worlds[1]})"
            )
            return report
    return report


def _relation_diff(order: tuple, rows: Tuple[int, ...]) -> Optional[Tuple[int, int]]:
    """The first worlds (x, y), x first, at which the relation ``rows``
    differs from the dual relation that its box induces; or None.  ``order``
    is ``(upsets, eta, cond_rows)`` of a poset order that passed
    :func:`_frame_order` with no failure, ``cond_rows`` the table of its
    family of all upsets.  ``eta[x]`` is the prime filter of world x, so the
    dual rows computed from it are indexed, and read, by world.

    Memoised in the ``diffs`` table of the order's :func:`_frame_order`
    entry, keyed by the relation's rows alone, with no upset, so equal
    relations share one entry; :func:`frame_roundtrip` names the upset."""
    ups, eta, cond_rows = order
    dual = _dual_rows(cond_rows[rows], eta, ups, (1 << len(rows)) - 1)
    for x, (row, succ) in enumerate(zip(rows, dual)):
        if row != succ:
            diff = row ^ succ
            return x, (diff & -diff).bit_length() - 1
    return None


# --- file format -----------------------------------------------------------
#
# { "size": k, "leq": [[i,j],...], "imp": k x k, "cond": k x k,
#   "top": i, "bot": j }


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
    imp = [read_indices(row, size, "imp entry") for row in imp_rows]
    cond = [read_indices(row, size, "cond entry") for row in cond_rows]
    top, bot = read_indices(top_bot, size, "top/bot")
    leq = [row | 1 << i for i, row in enumerate(read_pair_rows(leq_pairs, size, "leq"))]
    alg = FiniteCHA(size, leq, imp, cond, top, bot)
    report = validate_cha(alg)
    if not report.ok:
        raise FrameFormatError(f"algebra fails validation: {report}")
    return alg
