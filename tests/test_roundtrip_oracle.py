"""The frame round trip against the round trip it replaced.

The oracle (:mod:`roundtrip_oracle`) builds the complex algebra and the
dual relations for every frame; the round trip under test memoises the
order-only half per order and compares the relations straight off the
frame.  On every frame below both must give equal failures, or the same
exception type and message.
"""

import random

from condlogic.algebra import frame_roundtrip
from condlogic.errors import CapExceededError, ClcError
from condlogic.generate import (
    enumerate_full_frames,
    enumerate_preorders,
    random_full_frame,
    random_general_frame,
)

from conftest import constant_full_frame, full_frame, preorder
from roundtrip_oracle import reference_frame_roundtrip


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
