"""Every memo in the library is bounded: each ``lru_cache``, and each table
that an order or a memo entry keeps, all of them under one bound,
``order.LAZY_ENTRIES``."""

import importlib
import inspect
import itertools
import pickle
import pkgutil
import random
from collections import Counter, defaultdict

import pytest

import condlogic
from condlogic import algebra, frames, order
from condlogic.algebra import check_duality_roundtrip, complex_algebra, frame_roundtrip
from condlogic.errors import CapExceededError, FrameFormatError
from condlogic.frames import (
    GeneralFrame, _strongly_coherent_rows, rel_coherent, strongly_coherent, validate_conditional,
)
from condlogic.generate import enumerate_preorders, random_full_frame
from condlogic.order import FinitePreorder, _Lazy

from conftest import full_frame, m
from roundtrip_oracle import strongly_coherent_by_definition
from test_algebra import clear_memos, row_tables

# every lru_cache of the library; none is keyed by an order's rows
LRU_CACHES = {
    "condlogic.order.interned_order", "condlogic.order.set_bits", "condlogic.order.box_table",
    "condlogic.algebra._order_facts", "condlogic.semantics.compile_formula",
    "condlogic.semantics._plan", "condlogic.cli._parser",
}
# the per-key tables that an order keeps, by the function that builds them
ORDER_TABLES = (frames._coherence_verdicts, frames._strong_verdicts, algebra._families)


def _memos():
    for info in pkgutil.iter_modules(condlogic.__path__, "condlogic."):
        module = importlib.import_module(info.name)
        for name, value in vars(module).items():
            # a memo imported from another module is counted where it is defined
            if hasattr(value, "cache_parameters") and value.__module__ == info.name:
                yield f"{info.name}.{name}", value


def test_every_lru_cache_has_a_finite_bound():
    memos = dict(_memos())
    assert set(memos) == LRU_CACHES
    unbounded = {name for name, fn in memos.items() if fn.cache_parameters()["maxsize"] is None}
    assert unbounded == set()


def test_every_per_entry_table_has_a_finite_module_level_bound():
    # one bound for every table, and no table has one of its own
    assert type(order.LAZY_ENTRIES) is int and 0 < order.LAZY_ENTRIES < 1 << 16
    assert list(inspect.signature(_Lazy).parameters) == ["fill", "arg"]
    for module in (order, frames, algebra):
        assert [name for name in vars(module) if name.endswith("_ROWS")] == [], module


def test_a_sweep_over_more_rows_than_the_bound_leaves_no_table_larger(monkeypatch):
    # 3-world full frames, half of them strongly coherent: one order carries
    # far more distinct relations than the bound, and every round trip still
    # holds past it
    bound = 8
    monkeypatch.setattr(order, "LAZY_ENTRIES", bound)
    clear_memos()
    try:
        frame_list = [random_full_frame(random.Random(f"memo-bound:{i}"), 3, strong=i % 2 == 0)
                      for i in range(120)]
        relations = defaultdict(set)
        for frame in frame_list:
            relations[frame.order.up].update(frame.relations.values())
            assert validate_conditional(frame).ok
            assert check_duality_roundtrip(complex_algebra(frame)).ok
            if frame.order.is_poset and strongly_coherent(frame):
                assert frame_roundtrip(frame).ok
        assert max(map(len, relations.values())) > 4 * bound
        for name, tables in row_tables(frame_list).items():
            sizes = [len(table) for table in tables]
            assert max(sizes) == bound, (name, sizes)
        orders = {id(frame.order): frame.order for frame in frame_list}.values()
        for fn in ORDER_TABLES:
            sizes = [len(p.derived(fn)) for p in orders]
            # every frame is full, so each order has one family
            assert max(sizes) == (1 if fn is algebra._families else bound), (fn, sizes)
    finally:
        clear_memos()


def _raised(fn, arg):
    with pytest.raises((CapExceededError, FrameFormatError)) as exc:
        fn(arg)
    return type(exc.value), str(exc.value)


def test_an_orders_tables_keep_no_error():
    # the frame round trip on the 5-world antichain, with 32 upsets, is past
    # the cap; its order is built outside the intern, so it starts with no
    # tables
    anti5 = FinitePreorder(5, tuple(1 << i for i in range(5)))
    capped = (CapExceededError, "prime filter scan is capped at carrier size 20, got 32")
    assert [_raised(frame_roundtrip, full_frame(anti5)) for _ in range(2)] == [capped] * 2
    assert algebra._frame_order not in vars(anti5)["_derived"]
    # on the 2-world antichain, a family with {0} but not {1} is not closed
    # under imp; on the 2-chain, a relation whose box over the empty set is
    # {0} is not closed under cond
    anti2 = FinitePreorder(2, (0b01, 0b10))
    chain2 = FinitePreorder(2, (0b11, 0b10))
    no_imp = GeneralFrame(anti2, (0, m(0), m(0, 1)), {a: (0, 0) for a in (0, m(0), m(0, 1))})
    no_box = GeneralFrame(chain2, chain2.upsets, {a: (0, m(0)) for a in chain2.upsets})
    for frame, message in (
            (no_imp, "admissible family is not closed under imp: {0}, {} give {1}"),
            (no_box, "admissible family is not closed under cond: {}, {} give {0}")):
        got = [_raised(complex_algebra, frame) for _ in range(2)]
        assert got == [(FrameFormatError, message)] * 2, got
    assert len(anti2.derived(algebra._families)) == 0
    families = chain2.derived(algebra._families)
    assert list(families) == [chain2.upsets]
    assert len(families[chain2.upsets].cond_rows) == 0


def test_order_tables_agree_with_the_plain_predicates_up_to_three_worlds(monkeypatch):
    # every relation of every preorder of at most three worlds; each order
    # is built outside the intern, so it starts with no tables; the orders
    # of one world count take turns for each rows tuple, twice, so that a
    # repeat is answered from the order's own table while other orders hold
    # the same rows in theirs
    computed = Counter()
    for name in ("rel_coherent", "_strongly_coherent_rows"):

        def counted(p, rows, _real=getattr(frames, name), _name=name):
            computed[_name] += 1
            return _real(p, rows)

        monkeypatch.setattr(frames, name, counted)
    checked = Counter()
    for n in (1, 2, 3):
        orders = [FinitePreorder(n, p.up) for p in enumerate_preorders(n)]
        for rows in itertools.product(range(1 << n), repeat=n):
            for p in orders + orders:
                coherent = p.derived(frames._coherence_verdicts)[rows]
                strong = p.derived(frames._strong_verdicts)[rows]
                assert coherent == rel_coherent(p, rows), (p, rows)
                assert strong == _strongly_coherent_rows(p, rows), (p, rows)
                assert strong == strongly_coherent_by_definition(p.up, rows), (p, rows)
                checked[coherent, strong] += 1
    assert set(checked) == {(True, True), (True, False), (False, False)}
    lookups = sum(checked.values())
    assert computed == {"rel_coherent": lookups // 2, "_strongly_coherent_rows": lookups // 2}


def test_an_order_pickles_with_its_tables():
    # frames sent back by parallel workers carry their order's tables, and
    # each table's order is the unpickled order itself
    frame = random_full_frame(random.Random("pickled"), 3, strong=True)
    assert frame_roundtrip(frame).ok and validate_conditional(frame).ok
    tables = vars(frame.order)["_derived"]
    got = pickle.loads(pickle.dumps(frame))
    assert got.order == frame.order and got.order is not frame.order
    copied = vars(got.order)["_derived"]
    assert list(copied) == list(tables)
    for fn in ORDER_TABLES:
        assert dict(copied[fn]) == dict(tables[fn]), fn
        assert copied[fn].arg is got.order, fn
    assert frame_roundtrip(got).ok and validate_conditional(got).ok
