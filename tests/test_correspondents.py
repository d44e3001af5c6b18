"""The correspondent kernels against their pointwise oracle: identical first witnesses."""

import random

import pytest

from condlogic.catalog import AXIOMS, ICC_CORR
from condlogic.correspondents import _corr_loop
from condlogic.errors import NotAdmissibleError
from condlogic.fillins import check_squeeze_precondition
from condlogic.generate import enumerate_full_frames, random_general_frame
from condlogic.order import TABLE_WORLDS, _Lazy, mask_to_key

from corr_oracle import ORACLES, oracle_loop
from test_generate import _unclosed_frame


def _conditions():
    """(key, quantifier, kernel, oracle) for every registered correspondent and
    the joint cautious condition; keys that share all three appear once."""
    out = {}
    for key, e in sorted(AXIOMS.items()):
        if e.has_correspondent and e.quantifier != "const":
            out.setdefault((e.quantifier, e.corr, ORACLES.get(key)), key)
    out.setdefault((ICC_CORR[1], ICC_CORR[2], ORACLES["icc"]), ICC_CORR[0])
    return [(key, *condition) for condition, key in out.items()]


CONDITIONS = _conditions()


def _outcome(loop, frame, quant, fn):
    """The first witness, or the type and message of the error raised."""
    try:
        return loop(frame, quant, fn)
    except NotAdmissibleError as exc:
        return type(exc), str(exc)


def test_every_condition_has_an_oracle():
    assert all(oracle is not None for _, _, _, oracle in CONDITIONS)
    # 26 registered correspondents plus icc; mpp, unit_says and bt share
    # their quantifier, kernel and oracle with mp, unit and box_tc
    assert len(CONDITIONS) == 24


def test_every_frame_of_at_most_two_worlds():
    seen = {key: [0, 0] for key, _, _, _ in CONDITIONS}
    for frame in enumerate_full_frames(2):
        for key, quant, fn, oracle in CONDITIONS:
            got = _corr_loop(frame, quant, fn)
            assert got == oracle_loop(frame, quant, oracle), (key, frame)
            seen[key][got is None] += 1
    # every condition both holds and fails somewhere
    assert all(fails and holds for fails, holds in seen.values()), seen


@pytest.mark.parametrize("n", [3, 4])
def test_seeded_general_frames(n):
    rng = random.Random(f"kernels:{n}")
    non_full = 0
    for _ in range(150):
        frame = random_general_frame(rng, n, mode_names=("random", "strength", "refl",
                                                         "subset", "empty", "diag_all"))
        non_full += not frame.is_full
        for key, quant, fn, oracle in CONDITIONS:
            assert _corr_loop(frame, quant, fn) == oracle_loop(frame, quant, oracle), (key, frame)
    assert non_full > 100


@pytest.mark.parametrize("extra", [0, 1])
def test_seeded_frames_at_and_above_the_table_cap(extra):
    # kernels read a tuple of closures at TABLE_WORLDS worlds, and a map
    # filled on lookup one world above
    n = TABLE_WORLDS + extra
    rng = random.Random(f"kernels:cap:{n}")
    seen = {key: [0, 0] for key, _, _, _ in CONDITIONS}
    for _ in range(40):
        frame = random_general_frame(rng, n, mode_names=("random", "strength", "refl",
                                                         "subset", "empty", "diag_all"))
        assert type(frame.order.up_closures) is (tuple if extra == 0 else _Lazy)
        for key, quant, fn, oracle in CONDITIONS:
            got = _corr_loop(frame, quant, fn)
            assert got == oracle_loop(frame, quant, oracle), (key, frame)
            seen[key][got is None] += 1
    # every condition both holds and fails somewhere
    assert all(fails and holds for fails, holds in seen.values()), seen


def test_unclosed_families_raise_alike():
    # the fixed upset of '0x' and 'Wx' and ex's a & b may lie outside the family
    raised = 0
    for i in range(300):
        frame = _unclosed_frame(random.Random(f"kernels:unclosed:{i}"))
        for key, quant, fn, oracle in CONDITIONS:
            got = _outcome(_corr_loop, frame, quant, fn)
            assert got == _outcome(oracle_loop, frame, quant, oracle), (key, frame)
            raised += isinstance(got, tuple) and got[0] is NotAdmissibleError
    assert raised > 100


def _oracle_squeeze_witness(g):
    """``check_squeeze_precondition``'s witness, through the oracle."""
    for name, key, quant in (("id-corr", "id", "ax"), ("icc-corr", "icc", "abx")):
        hit = oracle_loop(g, quant, ORACLES[key])
        if hit is not None:
            a, b, x = hit
            masks = (a,) if b is None else (a, b)
            return (name, *map(mask_to_key, masks), x)
    return None


def test_squeeze_precondition_reports():
    rng = random.Random("kernels:squeeze")
    seen = {None: 0, "id-corr": 0, "icc-corr": 0}
    for _ in range(400):
        g = random_general_frame(rng, rng.choice((2, 3, 3, 4)),
                                 mode_names=("random", "subset", "strength", "const_meet"),
                                 force_subset=rng.random() < 0.5)
        report = check_squeeze_precondition(g)
        assert report.witness == _oracle_squeeze_witness(g), g
        seen[report.witness and report.witness[0]] += 1
    assert min(seen.values()) >= 10, seen
