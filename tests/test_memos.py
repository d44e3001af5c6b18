"""Every memo in the library is bounded."""

import importlib
import pkgutil

import condlogic


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
    unbounded = {name for name, fn in memos.items() if fn.cache_parameters()["maxsize"] is None}
    assert unbounded == set()
