"""Fuzz the file loaders with JSON-shaped values.

Every value either loads or raises a ClcError, which ``clc`` reports as a
usage error (exit 2); any other exception would surface as a traceback
and exit 1, the code that means "refuted".
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from condlogic.algebra import algebra_from_json, complex_algebra
from condlogic.errors import ClcError
from condlogic.frames import frame_from_json, frame_to_json
from condlogic.semantics import valuation_from_json

from conftest import algebra_to_json, full_frame, preorder

SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(-2, 4)
    | st.floats(-2, 4, allow_nan=False)
    | st.text("0,1 x", max_size=4)
)
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text("0,1pq", max_size=3), inner, max_size=3),
    max_leaves=12,
)
PAIRS = st.lists(st.lists(SCALARS, max_size=3) | VALUES, max_size=4)


def _loads_or_clc_error(load, obj):
    try:
        load(obj)
    except ClcError:
        pass


@st.composite
def frame_objects(draw):
    base = frame_to_json(full_frame(preorder(2, [(0, 1)])))
    obj = dict(base)
    for key in draw(st.sets(st.sampled_from(sorted(base)), min_size=1)):
        obj[key] = draw(VALUES | PAIRS | st.just("all"))
    if draw(st.booleans()):
        obj["relations"] = draw(st.dictionaries(st.text("0,1 x", max_size=4), PAIRS,
                                                max_size=4))
    return obj


@st.composite
def algebra_objects(draw):
    base = algebra_to_json(complex_algebra(full_frame(preorder(1))))
    obj = dict(base)
    for key in draw(st.sets(st.sampled_from(sorted(base)), min_size=1)):
        obj[key] = draw(VALUES | PAIRS)
    return obj


@settings(max_examples=300, deadline=None)
@given(frame_objects() | VALUES)
def test_frame_loader(obj):
    _loads_or_clc_error(frame_from_json, obj)


@settings(max_examples=300, deadline=None)
@given(algebra_objects() | VALUES)
def test_algebra_loader(obj):
    _loads_or_clc_error(algebra_from_json, obj)


@pytest.fixture(scope="module")
def chain_frame():
    return full_frame(preorder(2, [(0, 1)]))


@settings(max_examples=300, deadline=None)
@given(obj=st.dictionaries(st.sampled_from("pq"), VALUES | PAIRS, max_size=2) | VALUES)
def test_valuation_loader(chain_frame, obj):
    _loads_or_clc_error(lambda o: valuation_from_json(o, chain_frame), obj)
