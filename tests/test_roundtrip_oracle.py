"""The round trips against the round trips they replaced.

The oracle (:mod:`roundtrip_oracle`) builds the complex algebra and the
dual relations for every frame; the round trip under test memoises the
order-only half per order and compares the relations straight off the
frame.  On every frame below both must give equal failures, or the same
exception type and message.

On the algebra side the oracle checks the cond laws and theta of each
``a cond b`` row by row; the code under test memoises both per distinct
row and names the row by its position.  Every report must be equal with
the row memos emptied before each algebra and with them full.
"""

import dataclasses
import itertools
import random
from collections import Counter

from condlogic.algebra import (
    algebra_from_json, check_duality_roundtrip, complex_algebra, frame_roundtrip, validate_cha,
)
from condlogic.errors import CapExceededError, ClcError, DualityError, FrameFormatError
from condlogic.generate import (
    enumerate_full_frames,
    enumerate_preorders,
    random_full_frame,
    random_general_frame,
)

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

