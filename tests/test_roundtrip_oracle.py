"""The round trips against the round trips they replaced.

The oracle (:mod:`roundtrip_oracle`) builds the complex algebra and the
dual relations for every frame; the round trip under test memoises the
order-only half per order and compares the relations straight off the
frame.  On every frame below both must give equal failures, or the same
exception type and message.

On the algebra side the oracle checks the cond laws and theta of each
``a cond b`` row by row; the code under test memoises both per distinct
row and names the row by its position.  Every report must be equal with
the row memos emptied before each algebra and with them full.  Besides
complex algebras, the algebras checked include every cond row on every
distributive lattice of at most 5 elements, built by hand under three
labellings.
"""

import dataclasses
import itertools
import random
from collections import Counter

import pytest

from condlogic import algebra
from condlogic.algebra import (
    FiniteCHA, alg_satisfies, algebra_from_json, check_duality_roundtrip, complex_algebra,
    dual_frame, frame_roundtrip, validate_cha,
)
from condlogic.catalog import AXIOMS
from condlogic.errors import CapExceededError, ClcError, DualityError, FrameFormatError
from condlogic.generate import (
    enumerate_full_frames,
    enumerate_preorders,
    random_full_frame,
    random_general_frame,
)
from condlogic.semantics import valid

from conftest import algebra_to_json, constant_full_frame, full_frame, preorder
from roundtrip_oracle import (
    reference_frame_roundtrip, rowwise_check_duality_roundtrip, rowwise_validate_cha,
)
from test_algebra import ROW_MEMOS
from test_cli_golden import ALGEBRA as GOLDEN_ALGEBRA


def outcome(fn, frame):
    try:
        return fn(frame).failures
    except ClcError as exc:
        return type(exc), str(exc)


def assert_same(frames):
    seen = set()
    for frame in frames:
        got = outcome(frame_roundtrip, frame)
        assert got == outcome(reference_frame_roundtrip, frame), frame
        seen.add(got if isinstance(got, tuple) else tuple(got))
    return seen


def test_every_frame_of_at_most_two_worlds():
    # preorders, weakly coherent and strongly coherent frames alike
    seen = assert_same(enumerate_full_frames(2))
    assert () in seen and len(seen) == 3


def test_seeded_three_and_four_world_frames():
    frames = []
    for i in range(300):
        rng = random.Random(f"roundtrip-oracle:{i}")
        frames.append(random_full_frame(rng, rng.choice((3, 4)), strong=i % 2 == 0))
    for p in enumerate_preorders(3):
        frames.append(constant_full_frame(p, tuple(p.up)))
    seen = assert_same(frames)
    assert () in seen and len(seen) == 3


def test_seeded_non_full_general_frames():
    frames = []
    for i in range(200):
        rng = random.Random(f"roundtrip-oracle-general:{i}")
        frames.append(random_general_frame(rng, rng.choice((2, 3)), strong=i % 2 == 0))
    assert any(not frame.is_full for frame in frames)
    assert len(assert_same(frames)) >= 3


def test_the_five_world_antichain_is_over_the_cap():
    assert assert_same([full_frame(preorder(5))]) == {
        (CapExceededError, "prime filter scan is capped at carrier size 20, got 32")}


def clear_row_memos():
    for memo in ROW_MEMOS:
        memo.cache_clear()


def loaded(alg):
    """What ``algebra_from_json`` makes of the file of ``alg``."""
    try:
        algebra_from_json(algebra_to_json(alg))
    except ClcError as exc:
        return type(exc), str(exc)
    return "value"


def algebra_outcomes(alg):
    """What ``validate_cha``, the loader and ``check_duality_roundtrip`` make
    of ``alg``."""
    return validate_cha(alg).violations, loaded(alg), outcome(check_duality_roundtrip, alg)


def rowwise_outcomes(alg):
    """The same three, from the oracle."""
    report = rowwise_validate_cha(alg)
    from_file = ("value" if report.ok
                 else (FrameFormatError, f"algebra fails validation: {report}"))
    return report.violations, from_file, outcome(rowwise_check_duality_roundtrip, alg)


def outcomes_cold_and_warm(algs):
    """The outcomes of each algebra with the row memos emptied before it,
    then again with them full; both lists must be equal."""
    cold = []
    for alg in algs:
        clear_row_memos()
        cold.append(algebra_outcomes(alg))
    warm = [algebra_outcomes(alg) for alg in algs]
    assert warm == cold
    return cold


def _with_faulty_rows(alg, rng):
    """``alg`` with one cond entry moved, and with that row as every row."""
    a, b = rng.randrange(alg.size), rng.randrange(alg.size)
    row = list(alg.cond[a])
    row[b] = rng.randrange(alg.size)
    cond = list(alg.cond)
    cond[a] = tuple(row)
    return [dataclasses.replace(alg, cond=tuple(cond)),
            dataclasses.replace(alg, cond=(tuple(row),) * alg.size)]


def test_algebras_of_every_eighth_two_world_frame_and_seeded_frames():
    frames = list(itertools.islice(enumerate_full_frames(2), 0, None, 8))
    for i in range(200):
        rng = random.Random(f"roundtrip-oracle-algebra:{i}")
        frames.append(random_full_frame(rng, rng.choice((3, 4)), strong=i % 2 == 0))
    rng = random.Random("roundtrip-oracle-faulty-rows")
    algs = []
    for k, frame in enumerate(frames):
        alg = complex_algebra(frame)
        algs.append(alg)
        if k % 4 == 0:
            algs += _with_faulty_rows(alg, rng)
    got = outcomes_cold_and_warm(algs)
    assert got == [rowwise_outcomes(alg) for alg in algs]
    kinds = Counter("top" if v.endswith("is not top") else v.split(" at ")[0]
                    for report, _, _ in got for v in report)
    assert set(kinds) == {"top", "cond does not preserve meet"}, kinds
    # every complex algebra passes; some faulty tables still obey the laws
    assert sum(not report for report, _, _ in got) > len(frames)


class TestPositionOverContent:
    """Equal rows share one memo entry, but each report names its rows by
    position, in the order the rows come, as the oracle does."""

    CASES = [
        # rows 1 and 2 are equal and both break meet; the first is reported
        ([[3, 3, 3, 3], [0, 3, 3, 3], [0, 3, 3, 3], [3, 3, 3, 3]],
         ["cond does not preserve meet at (1, 1, 2)"]),
        # equal rows that lose top come before a row that breaks meet
        ([[0, 0, 0, 0], [0, 0, 0, 0], [0, 3, 3, 3], [0, 3, 3, 3]],
         ["cond(0, top) is not top", "cond(1, top) is not top",
          "cond does not preserve meet at (2, 1, 2)"]),
        # a row that loses top and breaks meet, after one that only loses top
        ([[0, 0, 0, 0], [0, 0, 3, 0], [0, 0, 3, 0], [3, 3, 3, 3]],
         ["cond(0, top) is not top", "cond(1, top) is not top",
          "cond does not preserve meet at (1, 2, 3)"]),
        # equal rows that lose top and keep meet: every one is reported
        ([[3, 3, 3, 3], [0, 0, 0, 0], [3, 3, 3, 3], [0, 0, 0, 0]],
         ["cond(1, top) is not top", "cond(3, top) is not top"]),
    ]

    @staticmethod
    def _algebra(cond):
        golden = algebra_from_json(GOLDEN_ALGEBRA)
        return dataclasses.replace(golden, cond=tuple(map(tuple, cond)))

    def test_reports_cold_and_warm(self):
        algs = [self._algebra(cond) for cond, _ in self.CASES]
        got = outcomes_cold_and_warm(algs)
        assert got == [rowwise_outcomes(alg) for alg in algs]
        for (_, report), (violations, from_file, roundtrip) in zip(self.CASES, got):
            assert violations == report
            text = "; ".join(report)
            assert from_file == (FrameFormatError, f"algebra fails validation: {text}")
            assert roundtrip == (DualityError, f"refusing invalid algebra: {text}")



# Every distributive lattice of at most 5 elements, by its covering pairs
# under the canonical labelling: bot is 0, top is last, and i below j
# implies i < j.
DISTRIBUTIVE_LATTICES = {
    "1": (1, ()),
    "2": (2, ((0, 1),)),
    "3": (3, ((0, 1), (1, 2))),
    "4": (4, ((0, 1), (1, 2), (2, 3))),
    "2x2": (4, ((0, 1), (0, 2), (1, 3), (2, 3))),
    "5": (5, ((0, 1), (1, 2), (2, 3), (3, 4))),
    "2x2+top": (5, ((0, 1), (0, 2), (1, 3), (2, 3), (3, 4))),
    "bot+2x2": (5, ((0, 1), (1, 2), (1, 3), (2, 4), (3, 4))),
}


def _labellings(k):
    """The canonical labelling, then two with bot not 0 and top not last:
    the reversal and a rotation by one."""
    out = [tuple(range(k))]
    if k > 1:
        out += [tuple(k - 1 - i for i in range(k)), tuple((i + 1) % k for i in range(k))]
    return out


class HandBuilt:
    """A bounded lattice under a labelling, with its meet, join and residual
    found by brute force from the order, not by the library."""

    def __init__(self, k, covers, perm):
        below = [{i} for i in range(k)]  # below[j]: the elements under j
        for _ in range(k):
            for i, j in covers:
                below[j] |= below[i]
        self.k = k
        self.le = {(perm[i], perm[j]) for j in range(k) for i in below[j]}
        self.bot, self.top = perm[0], perm[k - 1]
        els = range(k)
        self.meet = [[self._greatest([c for c in els if (c, a) in self.le and (c, b) in self.le])
                      for b in els] for a in els]
        self.join = [[self._greatest([c for c in els if (a, c) in self.le and (b, c) in self.le],
                                     least=True) for b in els] for a in els]
        self.imp = [[self._greatest([c for c in els if (self.meet[c][a], b) in self.le])
                     for b in els] for a in els]

    def _greatest(self, cands, least=False):
        (g,) = [g for g in cands if all(((g, c) if least else (c, g)) in self.le for c in cands)]
        return g

    def distributive(self):
        return all(self.meet[a][self.join[b][c]] == self.join[self.meet[a][b]][self.meet[a][c]]
                   for a in range(self.k) for b in range(self.k) for c in range(self.k))

    def rows(self):
        """Every map that keeps top and meets, as a row ``a cond b`` over b."""
        els = range(self.k)
        return [f for f in itertools.product(els, repeat=self.k)
                if f[self.top] == self.top
                and all(f[self.meet[a][b]] == self.meet[f[a]][f[b]] for a in els for b in els)]

    def algebra(self, cond):
        leq = tuple(sum(1 << j for j in range(self.k) if (i, j) in self.le) for i in range(self.k))
        return FiniteCHA(self.k, leq, tuple(map(tuple, self.imp)), tuple(map(tuple, cond)),
                         self.top, self.bot)


def _hand_built():
    for name, (k, covers) in DISTRIBUTIVE_LATTICES.items():
        for perm in _labellings(k):
            yield name, perm, HandBuilt(k, covers, perm)


class TestHandBuiltLattices:
    """The duality from the algebra side, on algebras that ``complex_algebra``
    never builds: every top- and meet-preserving map, as every row of an
    algebra whose other rows are constant top, on every distributive lattice
    of at most 5 elements under three labellings.  ``check_duality_roundtrip``
    compares cond row by row once the lattice is fixed, so this covers every
    cond table on these lattices."""

    def test_the_lattices_are_the_distributive_ones(self):
        for name, perm, lat in _hand_built():
            assert lat.distributive(), (name, perm)
            if perm != tuple(range(lat.k)):
                assert lat.bot != 0 and lat.top != lat.k - 1, (name, perm)
        # 1, 1, 1, 2 and 3 distributive lattices of 1 to 5 elements
        assert Counter(k for k, _ in DISTRIBUTIVE_LATTICES.values()) == {1: 1, 2: 1, 3: 1, 4: 2,
                                                                         5: 3}

    def test_every_row_cold_and_warm_against_the_rowwise_oracle(self):
        counts = {}
        rng = random.Random("hand-built-rows")
        for name, perm, lat in _hand_built():
            maps = lat.rows()
            counts.setdefault(name, set()).add(len(maps))
            const = (lat.top,) * lat.k
            algs = [lat.algebra([f if i == a else const for i in range(lat.k)])
                    for a in range(lat.k) for f in maps]
            # a few arbitrary rows, so that the laws fail too
            bad = [lat.algebra([tuple(rng.randrange(lat.k) for _ in range(lat.k)) if i == a
                                else const for i in range(lat.k)])
                   for a in rng.choices(range(lat.k), k=8)]
            got = outcomes_cold_and_warm(algs + bad)
            assert got == [rowwise_outcomes(alg) for alg in algs + bad], (name, perm)
            for violations, from_file, roundtrip in got[:len(algs)]:
                assert violations == [] and from_file == "value", (name, perm)
                assert roundtrip == ([] if lat.k > 1 else (
                    DualityError, "algebra has no prime filters; carrier must be degenerate"))
        # as many as strongly coherent relations on the dual posets (TestBoxBijection)
        assert counts == {"1": {1}, "2": {2}, "3": {6}, "4": {20}, "2x2": {16}, "5": {70},
                          "2x2+top": {50}, "bot+2x2": {50}}

    def test_catalog_axioms_agree_with_the_dual_frame(self):
        for lat, rows in _seeded_tables(random.Random("hand-built-axioms"), 40):
            alg = lat.algebra(rows)
            dual = dual_frame(alg)
            for key, entry in AXIOMS.items():
                holds = alg_satisfies(alg, entry.formula).satisfied
                assert holds == valid(dual, entry.formula).valid, (key, alg)


def test_rows_first_met_by_validation_give_the_same_round_trip():
    """The loader's ``validate_cha`` fills the row memo; a round trip that
    reads those entries reports what one that fills them itself reports,
    also when theta breaks cond (a box made wrong over one theta(b))."""
    algs = [lat.algebra(rows)
            for lat, rows in _seeded_tables(random.Random("first-met"), 40)]
    for wrong_at in (None, 1):
        reports = []
        for first in ("validation", "round trip"):
            got = []
            for alg in algs:
                clear_row_memos()
                with pytest.MonkeyPatch.context() as patch:
                    if wrong_at is not None:
                        _wrong_box_over(patch, alg, wrong_at)
                    if first == "validation":
                        alg = algebra_from_json(algebra_to_json(alg))
                    got.append(outcome(check_duality_roundtrip, alg))
            reports.append(got)
        assert reports[0] == reports[1]
        # every row breaks at theta(1), and the first row is named
        assert reports[0] == [[] if wrong_at is None else ["theta breaks cond at (0, 1)"]] * 40
    clear_row_memos()


def _seeded_tables(rng, count):
    """``count`` hand-built lattices of 2 to 5 elements, under any labelling,
    each row a random top- and meet-preserving map."""
    lattices = [lat for _, _, lat in _hand_built() if lat.k > 1]
    for _ in range(count):
        lat = rng.choice(lattices)
        maps = lat.rows()
        yield lat, [rng.choice(maps) for _ in range(lat.k)]


def _wrong_box_over(patch, alg, b):
    """Make the algebra module's box wrong over theta(b) of ``alg``'s lattice."""
    theta = algebra._order_facts(alg.size, alg.leq, alg.top, alg.bot).theta
    real = algebra.box
    patch.setattr(algebra, "box",
                  lambda rows, s: ~real(rows, s) if s == theta[b] else real(rows, s))
