"""Every memo in the library is bounded: each ``lru_cache``, and each table
that a memo entry keeps of per-row results."""

import importlib
import pkgutil
import random
from collections import defaultdict

import condlogic
from condlogic.algebra import check_duality_roundtrip, complex_algebra, frame_roundtrip
from condlogic.frames import strongly_coherent
from condlogic.generate import random_full_frame

from test_algebra import ROW_TABLES, clear_memos, row_tables


def _memos():
    for info in pkgutil.iter_modules(condlogic.__path__, "condlogic."):
        module = importlib.import_module(info.name)
        for name, value in vars(module).items():
            # a memo imported from another module is counted where it is defined
            if hasattr(value, "cache_parameters") and value.__module__ == info.name:
                yield f"{info.name}.{name}", value


def test_every_lru_cache_has_a_finite_bound():
    memos = dict(_memos())
    assert "condlogic.order.interned_order" in memos
    assert "condlogic.order.box_table" in memos
    assert "condlogic.algebra._family" in memos
    assert "condlogic.frames._strong_verdicts" in memos
    unbounded = {name for name, fn in memos.items() if fn.cache_parameters()["maxsize"] is None}
    assert unbounded == set()


def test_every_per_entry_table_has_a_finite_module_level_bound():
    for module, _, bound in ROW_TABLES:
        value = getattr(module, bound)
        assert type(value) is int and 0 < value < 1 << 16, (module.__name__, bound)


def test_a_sweep_over_more_rows_than_the_bound_leaves_no_table_larger(monkeypatch):
    # 3-world full frames, half of them strongly coherent: one order carries
    # far more distinct relations than the bound, and every round trip still
    # holds past it
    bound = 8
    for module, _, name in ROW_TABLES:
        monkeypatch.setattr(module, name, bound)
    clear_memos()
    try:
        frame_list = [random_full_frame(random.Random(f"memo-bound:{i}"), 3, strong=i % 2 == 0)
                      for i in range(120)]
        relations = defaultdict(set)
        for frame in frame_list:
            relations[frame.order.up].update(frame.relations.values())
            assert check_duality_roundtrip(complex_algebra(frame)).ok
            if frame.order.is_poset and strongly_coherent(frame):
                assert frame_roundtrip(frame).ok
        assert max(map(len, relations.values())) > 4 * bound
        for name, tables in row_tables(frame_list).items():
            sizes = [len(table) for table in tables]
            assert max(sizes) == bound, (name, sizes)
    finally:
        clear_memos()
