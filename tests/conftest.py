"""Shared frame builders and tiny reference structures used across the suite."""

import random

import pytest

from condlogic.frames import ConditionalFrame, GeneralFrame
from condlogic.order import FinitePreorder, all_upsets, worlds_to_mask


def m(*worlds) -> int:
    return worlds_to_mask(worlds)


def preorder(n, pairs=()):
    return FinitePreorder.from_pairs(n, pairs)


@pytest.fixture
def single():
    return preorder(1)


@pytest.fixture
def chain2():
    return preorder(2, [(0, 1)])


@pytest.fixture
def anti2():
    return preorder(2)


@pytest.fixture
def vee3():
    # 0 below both 1 and 2, which are incomparable
    return preorder(3, [(0, 1), (0, 2)])


def full_frame(order, rows_for=None, **named_rows):
    """Conditional frame with one relation per upset.

    ``rows_for`` maps an upset mask to rows; anything unmapped gets empty
    rows.  ``named_rows`` is unused sugar kept for call-site clarity.
    """
    rows_for = rows_for or {}
    zero = (0,) * order.n
    relations = {a: tuple(rows_for.get(a, zero)) for a in all_upsets(order)}
    return ConditionalFrame(order, relations)


def constant_full_frame(order, rows):
    relations = {a: tuple(rows) for a in all_upsets(order)}
    return ConditionalFrame(order, relations)


def general_frame(order, admissible, rows_for):
    relations = {a: tuple(rows_for[a]) for a in admissible}
    return GeneralFrame(order, tuple(admissible), relations)


def algebra_to_json(alg):
    """The file object ``algebra_from_json`` reads back as ``alg``."""
    return {
        "size": alg.size,
        "leq": [[i, j] for i in range(alg.size) for j in range(alg.size) if alg.le(i, j)],
        "imp": [list(row) for row in alg.imp],
        "cond": [list(row) for row in alg.cond],
        "top": alg.top,
        "bot": alg.bot,
    }


@pytest.fixture
def rng():
    return random.Random(20240811)
