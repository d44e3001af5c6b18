"""The library names the benchmark in ``perfbench/`` patches or calls.

The benchmark traces public functions by name and times two kernels
directly; a refactor that renames or removes one of them would break the
benchmark without failing any other test.
"""

import importlib
import importlib.util
from pathlib import Path

from condlogic import generate, order, semantics
from condlogic.frames import ConditionalFrame, GeneralFrame
from condlogic.syntax import Language, parse

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_span_resolves():
    tracer = load_tracer()
    for module_name, attr, span in tracer.SPANS:
        module = importlib.import_module(f"condlogic.{module_name}")
        assert callable(getattr(module, attr)), span


def test_directly_timed_kernels_resolve():
    frame = next(generate.enumerate_full_frames(1))
    assert isinstance(frame, ConditionalFrame)
    p = frame.order
    fresh = GeneralFrame(p, frame.admissible, frame.relations)
    assert fresh.dto(p.full_mask, p.full_mask) == p.full_mask
    assert order.heyting_imp(p, 0, 0) == p.full_mask
    kernels = load_tracer().time_kernels([frame])
    assert set(kernels) == {"order.heyting_imp.ns_per_call", "frames.dto.ns_per_call"}


def test_tracer_installs_and_restores():
    tracer = load_tracer()
    original = semantics.valid
    frame = next(generate.enumerate_full_frames(1))
    with tracer.Tracer() as tr:
        assert semantics.valid is not original
        semantics.valid(frame, parse("p ~> p", Language.COND))
    assert semantics.valid is original
    assert tr.totals()["semantics.valid"]["calls"] == 1
