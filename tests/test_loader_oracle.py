"""The frame loader against the loader it replaced.

The oracle here is the loader as it was before index pairs were read
straight into rows: pairs read one index at a time into a list, every
upset key parsed by ``key_to_mask``, the all-upsets check made before the
conditional frame is built, and the coherence condition tested on every
world's whole up-set.  On any input both must give an equal frame, or the
same exception type and message.
"""

import itertools
import random
from collections import Counter
from unittest import mock

from hypothesis import given, settings

from condlogic import frames
from condlogic.errors import FrameFormatError
from condlogic.frames import ConditionalFrame, GeneralFrame, frame_from_json, frame_to_json
from condlogic.generate import enumerate_preorders, make_sampler, random_general_frame, random_poset
from condlogic.order import (
    FinitePreorder,
    _check_world_count,
    _read_index,
    image,
    key_to_mask,
    mask_to_key,
    read_indices,
    up_closure,
    worlds_to_mask,
)

from test_loader_fuzz import VALUES, frame_objects


def old_read_pairs(value, n, what):
    if not isinstance(value, (list, tuple)):
        raise FrameFormatError(f"{what} must be a list, not {value!r}")
    out = []
    for pair in value:
        if not (isinstance(pair, (list, tuple)) and len(pair) == 2):
            raise FrameFormatError(f"bad {what} pair {pair!r}")
        out.append((_read_index(pair[0], n, what), _read_index(pair[1], n, what)))
    return out


def old_rows_from_pairs(n, pairs):
    rows = [0] * n
    for i, j in old_read_pairs(pairs, n, "relation"):
        rows[i] |= 1 << j
    return tuple(rows)


def old_rel_coherent(p, rows):
    for x in range(p.n):
        if image(rows, p.up[x]) & ~up_closure(p, rows[x]):
            return False
    return True


def old_frame_from_json(obj):
    try:
        n = obj["worlds"]
        leq = obj["leq"]
        admissible = obj["admissible"]
        rel_obj = obj["relations"]
    except (KeyError, TypeError) as exc:
        raise FrameFormatError(f"malformed frame object: {exc}") from exc
    if not isinstance(rel_obj, dict):
        raise FrameFormatError("relations must map upset keys to pair lists")
    _check_world_count(n)
    up = [1 << i for i in range(n)]
    for i, j in old_read_pairs(leq, n, "leq"):
        up[i] |= 1 << j
    order = FinitePreorder(n, tuple(up))
    relations = {key_to_mask(k, n): old_rows_from_pairs(n, v) for k, v in rel_obj.items()}
    with mock.patch.object(frames, "_coherent_rows",
                           lambda up, rows: old_rel_coherent(FinitePreorder(len(up), up), rows)):
        if admissible == "all":
            ups = order.upsets
            extra = [a for a in relations if a not in ups]
            if extra:
                raise FrameFormatError(
                    "a conditional frame needs a relation for every upset, and only for "
                    f"upsets; key {mask_to_key(extra[0])!r} is not an upset"
                )
            missing = [mask_to_key(u) for u in ups if u not in relations]
            if missing:
                more = f" and {len(missing) - 4} more" if len(missing) > 4 else ""
                raise FrameFormatError(
                    "a conditional frame needs a relation for every upset; "
                    f"missing {missing[:4]}{more}"
                )
            frame = ConditionalFrame(order, relations)
            report = frames.validate_conditional(frame)
        else:
            if not isinstance(admissible, list):
                raise FrameFormatError('admissible must be "all" or a list of world lists')
            masks = [worlds_to_mask(read_indices(worlds, n, "admissible world"))
                     for worlds in admissible]
            frame = GeneralFrame(order, tuple(masks), relations)
            report = frames.validate_general(frame)
    if not report.ok:
        raise FrameFormatError(f"frame fails validation: {report}")
    return frame


def outcome(load, obj):
    try:
        f = load(obj)
    except Exception as exc:  # the two loaders must fail alike, whatever the type
        return ("error", type(exc), str(exc))
    return ("frame", type(f), f.order, f.admissible, f.relations)


@settings(max_examples=300, deadline=None)
@given(frame_objects() | VALUES)
def test_fuzzed_objects_load_as_before(obj):
    assert outcome(frame_from_json, obj) == outcome(old_frame_from_json, obj)


def _random_order(rng, n):
    """Preorders with cycles up to 3 worlds, posets beyond."""
    if n <= 3 and rng.random() < 0.5:
        return rng.choice(enumerate_preorders(n))
    return random_poset(rng, n)


def _mutate(rng, obj):
    """One random edit of a valid frame file, or none."""
    n = obj["worlds"]
    rel = obj["relations"]
    keys = sorted(rel)
    kind = rng.randrange(8)
    if kind == 0:  # an extra relation pair: often incoherent
        rel[rng.choice(keys)].append([rng.randrange(n), rng.randrange(n)])
    elif kind == 1:  # a missing relation
        del rel[rng.choice(keys)]
    elif kind == 2:  # an extra order pair: may break transitivity or the upsets
        obj["leq"].append([rng.randrange(n), rng.randrange(n)])
    elif kind == 3:  # a key naming its worlds in another form
        key = rng.choice(keys)
        worlds = key.split(",") if key else []
        new = rng.choice([",".join(reversed(worlds)), " " + key, key + ",", str(n)])
        rel[new] = rel.pop(key)
    elif kind == 4:  # an index out of range, or of the wrong type; maybe both
        pairs = rng.choice([obj["leq"]] + [rel[k] for k in keys if rel[k]])
        pair = rng.choice(pairs)
        for side in rng.choice([[0], [1], [0, 1]]):
            pair[side] = rng.choice([n, -1, True, 1.0, "0"])
    elif kind == 5 and isinstance(obj["admissible"], list):  # a family not closed
        obj["admissible"].pop(rng.randrange(len(obj["admissible"])))
    return obj


def _random_frame_objects(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.choice([1, 2, 3, 3, 4, 5])
        if rng.random() < 0.5:
            p = _random_order(rng, n)
            sample = make_sampler(rng, p, ("random", "refl", "diag"))
            g = ConditionalFrame(p, {a: sample(a) for a in p.upsets})
        else:
            g = random_general_frame(rng, n, mode_names=("random", "subset"))
        yield _mutate(rng, frame_to_json(g))


def test_random_frames_load_as_before():
    kinds = Counter()
    for obj in _random_frame_objects(20251018, 800):
        new = outcome(frame_from_json, obj)
        assert new == outcome(old_frame_from_json, obj), obj
        kinds[new[0] if new[0] == "frame" else new[2].split(" ")[0]] += 1
    # both loads and several kinds of failure are exercised
    assert kinds["frame"] >= 200 and len(kinds) >= 5, kinds


def test_rel_coherent_matches_the_whole_up_set_formula():
    checked = Counter()
    for n in (1, 2, 3):
        for p in enumerate_preorders(n):
            for rows in itertools.product(range(1 << n), repeat=n):
                got = frames.rel_coherent(p, rows)
                assert got == old_rel_coherent(p, rows), (p, rows)
                checked[got] += 1
    assert checked[True] > 0 and checked[False] > 0
