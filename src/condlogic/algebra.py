"""Finite conditional Heyting algebras and duality round-trips at finite scale.

An algebra carries explicit implication and conditional tables; validation
recomputes the implication from the lattice order (largest c with
c meet a below b) and requires agreement, because files can lie about the
algebraic laws.  Prime filters are found by a filtered subset scan, capped
at carrier size :data:`PF_CAP`.

Finitely, every upset of the prime-filter poset is the image of exactly
one element, so the dual of an algebra is a full conditional frame and no
topology object is needed.

Satisfaction has no evaluator of its own: :func:`alg_satisfies` runs the
program :func:`condlogic.semantics.compile_formula` makes through the same
interpreter as frame validity, with table lookups for the connectives.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .errors import BudgetExceededError, CapExceededError, DualityError, FrameFormatError, LanguageError
from .frames import ConditionalFrame, GeneralFrame, strongly_coherent, validate_conditional
from .order import FinitePreorder, all_upsets, heyting_imp, mask_to_key, read_indices
from .semantics import DEFAULT_BUDGET, _run, _steps, compile_formula
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
        self._lattice: Optional[Tuple[Table, Table]] = None

    def le(self, i: int, j: int) -> bool:
        return bool((self.leq[i] >> j) & 1)

    def lattice(self) -> Tuple[Table, Table]:
        """Derived (meet, join) tables; raises if some pair has no glb or lub."""
        if self._lattice is None:
            meet = _bound_table(self, lower=True)
            join = _bound_table(self, lower=False)
            self._lattice = (meet, join)
        return self._lattice


def _bound_table(alg: FiniteCHA, lower: bool) -> Table:
    size = alg.size
    out = []
    for i in range(size):
        row = []
        for j in range(size):
            if lower:
                candidates = [k for k in range(size) if alg.le(k, i) and alg.le(k, j)]
                best = [g for g in candidates if all(alg.le(k, g) for k in candidates)]
            else:
                candidates = [k for k in range(size) if alg.le(i, k) and alg.le(j, k)]
                best = [g for g in candidates if all(alg.le(g, k) for k in candidates)]
            if len(best) != 1:
                kind = "meet" if lower else "join"
                raise FrameFormatError(f"elements {i}, {j} have no {kind}; not a lattice")
            row.append(best[0])
        out.append(tuple(row))
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
    report = AlgebraReport()
    size = alg.size
    for i in range(size):
        if not alg.le(i, i):
            report.add(f"order not reflexive at {i}")
        for j in range(size):
            if alg.le(i, j) and alg.le(j, i) and i != j:
                report.add(f"order not antisymmetric at ({i}, {j})")
            if alg.le(i, j):
                if alg.leq[j] & ~alg.leq[i]:
                    report.add(f"order not transitive at ({i}, {j})")
    for i in range(size):
        if not alg.le(alg.bot, i):
            report.add(f"bot is not below element {i}")
        if not alg.le(i, alg.top):
            report.add(f"element {i} is not below top")
    if not report.ok:
        return report
    try:
        meet, join = alg.lattice()
    except FrameFormatError as exc:
        report.add(str(exc))
        return report
    for i in range(size):
        for j in range(size):
            for k in range(size):
                if meet[i][join[j][k]] != join[meet[i][j]][meet[i][k]]:
                    report.add(f"distributivity fails at ({i}, {j}, {k})")
                    return report
    # residuation: imp[i][j] must be the largest c with c meet i below j
    for i in range(size):
        for j in range(size):
            candidates = [c for c in range(size) if alg.le(meet[c][i], j)]
            best = [c for c in candidates if all(alg.le(d, c) for d in candidates)]
            if len(best) != 1 or alg.imp[i][j] != best[0]:
                report.add(f"imp table disagrees with residuation at ({i}, {j})")
    # cond laws: meets preserved in the second argument, top preserved
    for a in range(size):
        if alg.cond[a][alg.top] != alg.top:
            report.add(f"cond({a}, top) is not top")
        for b in range(size):
            for c in range(size):
                if alg.cond[a][meet[b][c]] != meet[alg.cond[a][b]][alg.cond[a][c]]:
                    report.add(f"cond does not preserve meet at ({a}, {b}, {c})")
                    return report
    return report


def complex_algebra(g: GeneralFrame) -> FiniteCHA:
    """The algebra of admissible upsets with the operations read off the frame."""
    masks = g.admissible
    idx = {m: i for i, m in enumerate(masks)}
    p = g.order
    size = len(masks)
    leq = tuple(
        sum(1 << j for j, mj in enumerate(masks) if not masks[i] & ~mj)
        for i in range(size)
    )
    imp = tuple(
        tuple(idx[heyting_imp(p, masks[i], masks[j])] for j in range(size))
        for i in range(size)
    )
    cond = tuple(
        tuple(idx[g.dto(masks[i], masks[j])] for j in range(size))
        for i in range(size)
    )
    return FiniteCHA(
        size=size,
        leq=leq,
        imp=imp,
        cond=cond,
        top=idx[p.full_mask],
        bot=idx[0],
        labels=masks,
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
    letters, program, result_slot = compile_formula(f)
    required = alg.size ** len(letters)
    if required > budget:
        raise BudgetExceededError(required, budget)
    meet, join = alg.lattice()
    steps = _steps(program, lambda a, b: alg.imp[a][b], lambda a, b: alg.cond[a][b],
                   meet=lambda a, b: meet[a][b], join=lambda a, b: join[a][b])
    checked = 0
    for values in itertools.product(range(alg.size), repeat=len(letters)):
        checked += 1
        if _run(steps, result_slot, values, alg.bot) != alg.top:
            return AlgVerdict(False, dict(zip(letters, values)), checked)
    return AlgVerdict(True, None, checked)


def prime_filters(alg: FiniteCHA, cap: int = PF_CAP) -> Tuple[int, ...]:
    """All prime filters as carrier bitmasks, in ascending mask order."""
    if alg.size > cap:
        raise CapExceededError(
            f"prime filter scan is capped at carrier size {cap}, got {alg.size}"
        )
    meet, join = alg.lattice()
    out = []
    for s in range(1, 1 << alg.size):
        if (s >> alg.bot) & 1 or not (s >> alg.top) & 1:
            continue
        members = [i for i in range(alg.size) if (s >> i) & 1]
        if any(alg.leq[i] & ~s for i in members):
            continue  # not an upset of the lattice order
        if any(not (s >> meet[i][j]) & 1 for i in members for j in members):
            continue
        prime = True
        for a in range(alg.size):
            for b in range(alg.size):
                if (s >> join[a][b]) & 1 and not (s >> a) & 1 and not (s >> b) & 1:
                    prime = False
                    break
            if not prime:
                break
        if prime:
            out.append(s)
    return tuple(out)


def _theta(alg: FiniteCHA, pfs: Tuple[int, ...]) -> Tuple[int, ...]:
    return tuple(
        sum(1 << k for k, pf in enumerate(pfs) if (pf >> i) & 1)
        for i in range(alg.size)
    )


def _dual_with_maps(alg: FiniteCHA):
    pfs = prime_filters(alg)
    n = len(pfs)
    if n == 0:
        raise DualityError("algebra has no prime filters; carrier must be degenerate")
    order = FinitePreorder(
        n, tuple(sum(1 << l for l in range(n) if not pfs[k] & ~pfs[l]) for k in range(n))
    )
    theta = _theta(alg, pfs)
    ups = all_upsets(order)
    if sorted(theta) != sorted(ups) or len(set(theta)) != len(theta):
        raise DualityError(
            "theta is not a bijection onto the upsets of the prime-filter poset"
        )
    relations = {}
    for i in range(alg.size):
        rows = []
        for k in range(n):
            forced = [b for b in range(alg.size) if (pfs[k] >> alg.cond[i][b]) & 1]
            succ = 0
            for l in range(n):
                if all((pfs[l] >> b) & 1 for b in forced):
                    succ |= 1 << l
            rows.append(succ)
        relations[theta[i]] = tuple(rows)
    return ConditionalFrame(order, relations), pfs, theta


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
    of its dual frame, conditional operation included."""
    pre = validate_cha(alg)
    if not pre.ok:
        raise DualityError(f"refusing invalid algebra: {pre}")
    report = DualityReport()
    frame, _pfs, theta = _dual_with_maps(alg)
    back = complex_algebra(frame)
    labels = back.labels
    index = {m: i for i, m in enumerate(labels)}
    if len(set(theta)) != alg.size or back.size != alg.size:
        report.add("theta is not a bijection")
        return report
    if theta[alg.top] != frame.order.full_mask:
        report.add("theta does not preserve top")
    if theta[alg.bot] != 0:
        report.add("theta does not preserve bot")
    meet, join = alg.lattice()
    for i in range(alg.size):
        for j in range(alg.size):
            if theta[meet[i][j]] != theta[i] & theta[j]:
                report.add(f"theta breaks meet at ({i}, {j})")
                return report
            if theta[join[i][j]] != theta[i] | theta[j]:
                report.add(f"theta breaks join at ({i}, {j})")
                return report
            if theta[alg.imp[i][j]] != heyting_imp(frame.order, theta[i], theta[j]):
                report.add(f"theta breaks imp at ({i}, {j})")
                return report
            ti, tj = index[theta[i]], index[theta[j]]
            if index[theta[alg.cond[i][j]]] != back.cond[ti][tj]:
                report.add(f"theta breaks cond at ({i}, {j})")
                return report
    return report


def frame_roundtrip(f: ConditionalFrame) -> DualityReport:
    """Check that the frame is isomorphic to the dual of its complex algebra.

    Requires a poset order and the strong coherence condition; those are
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
    for i, a in enumerate(labels):
        rows = f.rel(a)
        dual_rows = frame2.rel(theta[i])
        for x in range(f.n):
            for y in range(f.n):
                lhs = bool((rows[x] >> y) & 1)
                rhs = bool((dual_rows[pf_index[eta[x]]] >> pf_index[eta[y]]) & 1)
                if lhs != rhs:
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
    leq = [1 << i for i in range(size)]
    for i, j in read_indices(leq_pairs, size, "leq", pairs=True):
        leq[i] |= 1 << j
    alg = FiniteCHA(size, tuple(leq), imp, cond, top, bot)
    report = validate_cha(alg)
    if not report.ok:
        raise FrameFormatError(f"algebra fails validation: {report}")
    return alg
