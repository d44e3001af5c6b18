import itertools
import json
import random
import sys
import tracemalloc
from collections import Counter

import pytest

from condlogic import frames
from condlogic.algebra import FiniteCHA, complex_algebra, frame_roundtrip
from condlogic.catalog import AXIOMS
from condlogic.errors import FrameFormatError, NotAdmissibleError
from condlogic.frames import (
    ConditionalFrame,
    FrameReport,
    GeneralFrame,
    ModalFrame,
    compose_rel_up,
    compose_up_rel,
    frame_from_json,
    frame_to_json,
    rel_coherent,
    restrict,
    strongly_coherent,
    validate_conditional,
    validate_general,
)
from condlogic.fillins import ALL_KINDS, FillInKind, check_squeeze_precondition, fill
from condlogic.generate import (
    MODES,
    enumerate_full_frames,
    enumerate_preorders,
    random_full_frame,
    random_general_frame,
    random_poset,
)
from condlogic.order import heyting_imp, interned_order, mask_to_key
from condlogic.semantics import valid, valid_modal
from condlogic.syntax import Language, parse

from conftest import full_frame, general_frame, m, preorder
from roundtrip_oracle import check_strong_coherence, rel_strongly_coherent
from test_cli import CHAIN2_FRAME


def validate_modal(m: ModalFrame) -> FrameReport:
    """Oracle for the coherence of a restricted relation: the modal frame report."""
    report = FrameReport()
    if not rel_coherent(m.order, m.rel):
        report.add("coherence", "modal relation violates leq-compatibility")
    return report


def old_add_incoherent(report, g):
    """The coherence clause as it was before the memo: a check per relation."""
    for a in g.admissible:
        if not rel_coherent(g.order, g.rel(a)):
            report.add(
                "coherence",
                f"relation at {{{mask_to_key(a)}}} violates leq-compatibility",
            )


def identity_rows(n):
    return tuple(1 << i for i in range(n))


class TestValidateGeneral:
    def test_antichain_with_identity_full_relation(self, anti2):
        g = general_frame(anti2, (0, m(0, 1)), {0: (0, 0), m(0, 1): identity_rows(2)})
        report = validate_general(g)
        assert report.ok, str(report)
        # hand enumeration of every closure case over A = {empty, X}
        ups = {0, m(0, 1)}
        for a in ups:
            for b in ups:
                assert a & b in ups and a | b in ups
                assert heyting_imp(anti2, a, b) in ups
                assert g.dto(a, b) in ups

    def test_full_frame_with_empty_relations(self, vee3):
        f = full_frame(vee3)
        assert validate_general(f).ok
        assert validate_conditional(f).ok

    def test_missing_empty_set_reported(self, anti2):
        g = general_frame(anti2, (m(0, 1),), {m(0, 1): (0, 0)})
        report = validate_general(g)
        assert not report.ok
        assert any(v.clause == "closure-empty" for v in report.violations)

    def test_closure_violation_reported(self, anti2):
        # {0} admissible but its meet partner {1} missing entirely: imp closure breaks
        g = general_frame(
            anti2, (0, m(0), m(0, 1)), {0: (0, 0), m(0): (0, 0), m(0, 1): (0, 0)}
        )
        report = validate_general(g)
        assert any(v.clause == "closure-imp" for v in report.violations)

    def test_incoherent_relation_reported(self, chain2):
        g = general_frame(chain2, (0, m(0, 1)), {0: (0, 0), m(0, 1): (0, m(0))})
        report = validate_general(g)
        assert any(v.clause == "coherence" for v in report.violations)

    def test_non_upset_admissible_reported(self, chain2):
        g = general_frame(chain2, (0, m(0), m(0, 1)),
                          {0: (0, 0), m(0): (0, 0), m(0, 1): (0, 0)})
        report = validate_general(g)
        assert any(v.clause == "not-upset" for v in report.violations)


class TestValidateConditional:
    def test_one_world_example(self, single):
        f = full_frame(single, {0: (m(0),), m(0): (0,)})
        assert validate_conditional(f).ok

    def test_downward_step_violates_coherence(self, chain2):
        rows = (0, m(0))  # world 1 steps down to 0, world 0 goes nowhere
        assert not rel_coherent(chain2, rows)
        f = full_frame(chain2, {m(0, 1): rows})
        report = validate_conditional(f)
        assert any(v.clause == "coherence" for v in report.violations)

    def test_empty_world_set_rejected(self):
        with pytest.raises(FrameFormatError):
            preorder(0)

    def test_missing_relation_rejected(self, chain2):
        with pytest.raises(FrameFormatError):
            ConditionalFrame(chain2, {0: (0, 0)})


class TestCoherence:
    def test_composition_oracle(self, chain2):
        # the condition is literally a containment of the two composites
        for rows in [(0, 0), (m(1), m(1)), (m(0, 1), m(1))]:
            lhs = compose_up_rel(chain2, rows)
            rhs_closure = compose_rel_up(chain2, rows)
            expected = all(not lhs[x] & ~rhs_closure[x] for x in range(2))
            assert rel_coherent(chain2, rows) == expected

    def test_strong_coherence_on_discrete_order_is_vacuous(self, anti2):
        f = full_frame(anti2, {a: (m(1), 0) for a in anti2.upsets})
        assert all(check_strong_coherence(f).values())

    def test_strong_coherence_up_step(self, chain2):
        # leq-then-R-then-leq reproduces {(0,1)} exactly
        f = full_frame(chain2, {m(0, 1): (m(1), 0)})
        flags = check_strong_coherence(f)
        assert flags[m(0, 1)] is True

    def test_strong_coherence_fails_for_top_loop(self, chain2):
        # {(1,1)} composes to {(0,1),(1,1)}, strictly larger
        rows = (0, m(1))
        lhs = compose_rel_up(chain2, compose_up_rel(chain2, rows))
        assert lhs == (m(1), m(1))  # composite gains the pair (0,1)
        assert not rel_strongly_coherent(chain2, rows)

    def test_strong_coherence_fails_inside_valid_frame(self, chain2):
        # {(0,0)} is coherent but not strongly coherent: the sandwich
        # composite picks up (0,1)
        rows = (m(0), 0)
        assert rel_coherent(chain2, rows)
        f = full_frame(chain2, {m(0, 1): rows})
        assert check_strong_coherence(f)[m(0, 1)] is False
        assert not strongly_coherent(f)

    def test_strongly_coherent_agrees_with_every_relation_checked(self):
        # strongly_coherent memoises each relation's test and stops at the
        # first failing relation; check_strong_coherence tests them all
        seen = set()
        for i in range(400):
            rng = random.Random(f"strong:{i}")
            n = rng.choice((2, 3, 4))
            g = (random_general_frame(rng, n, strong=i % 3 == 0) if i % 2
                 else random_full_frame(rng, n, strong=i % 3 == 0))
            got = strongly_coherent(g)
            assert got == all(check_strong_coherence(g).values())
            seen.add(got)
        assert seen == {True, False}

    def test_rows_given_as_lists_are_tested_like_tuples(self, chain2):
        # the memo is keyed by rows tuples; list rows must not reach it as lists
        for rows, holds in (([m(1), m(1)], True), ([m(0), 0], False)):
            g = GeneralFrame(chain2, (0, m(1), m(0, 1)),
                             {0: [0, 0], m(1): [m(1), m(1)], m(0, 1): rows})
            assert all(check_strong_coherence(g).values()) is holds
            assert strongly_coherent(g) is holds

    def test_reports_as_with_a_check_per_relation(self, monkeypatch):
        # seeded frames with random rows, most of them incoherent somewhere;
        # some are full, some not closed, some carry rows as lists
        seen = Counter()
        for i in range(400):
            rng = random.Random(f"incoherent:{i}")
            n = rng.randint(1, 4)
            p = (rng.choice(enumerate_preorders(n)) if n <= 3 and rng.random() < 0.4
                 else random_poset(rng, n))
            ups = p.upsets
            family = ups if i % 3 == 0 else [a for a in ups if rng.random() < 0.6]
            relations = {}
            for a in family:
                rows = [rng.randrange(p.full_mask + 1) for _ in range(p.n)]
                relations[a] = rows if i % 5 == 0 else tuple(rows)
            g = (ConditionalFrame(p, relations) if i % 3 == 0
                 else GeneralFrame(p, family, relations))

            def reports():
                return [(str(r), r.violations)
                        for r in (validate_conditional(g), validate_general(g))]

            got = reports()
            with monkeypatch.context() as patch:
                patch.setattr(frames, "_add_incoherent", old_add_incoherent)
                assert got == reports(), i
            seen["coherence" if "[coherence]" in got[1][0] else "coherent"] += 1
            seen["full" if g.is_full else "partial"] += 1
        assert min(seen.values()) >= 50, seen


class TestRestrict:
    def test_picks_full_and_empty(self, chain2):
        f = full_frame(chain2, {m(0, 1): (m(1), m(1)), 0: (0, m(1))})
        assert restrict(f, m(0, 1)).rel == (m(1), m(1))
        assert restrict(f, 0).rel == (0, m(1))

    def test_not_admissible_errors(self, anti2):
        g = general_frame(anti2, (0, m(0, 1)), {0: (0, 0), m(0, 1): (0, 0)})
        with pytest.raises(NotAdmissibleError):
            restrict(g, m(0))

    def test_restriction_of_valid_frame_is_coherent(self, rng):
        for _ in range(200):
            f = random_full_frame(rng, rng.choice([2, 3, 4]))
            for a in f.order.upsets:
                assert validate_modal(restrict(f, a)).ok


class TestJson:
    def test_round_trip_general(self, rng):
        for _ in range(50):
            g = random_general_frame(rng, rng.choice([2, 3]))
            g2 = frame_from_json(json.loads(json.dumps(frame_to_json(g))))
            assert g2.order == g.order
            assert g2.admissible == g.admissible
            assert g2.relations == g.relations

    def test_round_trip_full_uses_all_marker(self, chain2):
        f = full_frame(chain2, {m(0, 1): (m(1), m(1))})
        obj = frame_to_json(f)
        assert obj["admissible"] == "all"
        f2 = frame_from_json(obj)
        assert isinstance(f2, ConditionalFrame)
        assert f2.relations == f.relations

    def test_loader_revalidates(self, chain2):
        f = full_frame(chain2)
        obj = frame_to_json(f)
        obj["relations"]["0,1"] = [[1, 0]]  # downward step breaks coherence
        with pytest.raises(FrameFormatError):
            frame_from_json(obj)

    def test_all_marker_requires_every_upset(self, chain2):
        obj = {
            "worlds": 2,
            "leq": [[0, 1]],
            "admissible": "all",
            "relations": {"": [], "0,1": []},
        }
        with pytest.raises(FrameFormatError):
            frame_from_json(obj)

    def test_malformed_rejected(self):
        with pytest.raises(FrameFormatError):
            frame_from_json({"worlds": 2})


class TestConstructorMessages:
    """Each check of ``GeneralFrame.__post_init__`` and ``ConditionalFrame``,
    through direct construction and through the loader.  A file names worlds
    by index, so rows of the wrong length or with unknown worlds reach the
    loader as out-of-range indices; for those the reader's message is pinned."""

    @pytest.mark.parametrize("cls,admissible,relations,direct,in_file,loaded", [
        (GeneralFrame, (0, 2, 3), {0: (0, 0), 2: (0,), 3: (0, 0)},
         "relation for '1' has wrong row count",
         dict(relations={"": [], "1": [[2, 0]], "0,1": []}),
         "relation index 2 is not an int in 0..1"),
        (GeneralFrame, (0, 2, 3), {0: (0, 0), 2: (0, 0b100), 3: (0, 0)},
         "relation for '1' mentions unknown worlds",
         dict(relations={"": [], "1": [[0, 2]], "0,1": []}),
         "relation index 2 is not an int in 0..1"),
        (GeneralFrame, (0, 3), {0: (0, 0), 2: (0, 0), 3: (0, 0)},
         "relations must be keyed exactly by the admissible upsets",
         dict(admissible=[[], [0, 1]]),
         "relations must be keyed exactly by the admissible upsets"),
        (GeneralFrame, (0, 2, 3), {0: (0, 0), 3: (0, 0)},
         "relations must be keyed exactly by the admissible upsets",
         dict(admissible=[[], [1], [0, 1]], relations={"": [], "0,1": []}),
         "relations must be keyed exactly by the admissible upsets"),
        (ConditionalFrame, None, {0: (0, 0), 3: (0, 0)},
         "a conditional frame needs a relation for every upset; missing ['1']",
         dict(relations={"": [], "0,1": []}),
         "a conditional frame needs a relation for every upset; missing ['1']"),
        # {0} is not an upset of the chain; it is named even with nothing missing
        (ConditionalFrame, None, {0: (0, 0), 2: (0, 0), 1: (0, 0), 3: (0, 0)},
         "a conditional frame needs a relation for every upset, and only for upsets; "
         "key '0' is not an upset",
         dict(relations={"": [], "1": [], "0": [], "0,1": []}),
         "a conditional frame needs a relation for every upset, and only for upsets; "
         "key '0' is not an upset"),
    ])
    def test_direct_and_loaded(self, chain2, cls, admissible, relations, direct, in_file,
                               loaded):
        args = (chain2, relations) if admissible is None else (chain2, admissible, relations)
        with pytest.raises(FrameFormatError) as exc:
            cls(*args)
        assert str(exc.value) == direct
        with pytest.raises(FrameFormatError) as exc:
            frame_from_json({**CHAIN2_FRAME, **in_file})
        assert str(exc.value) == loaded

    def test_a_long_missing_list_names_four_upsets_and_counts_the_rest(self):
        with pytest.raises(FrameFormatError) as exc:
            ConditionalFrame(preorder(3), {})
        assert str(exc.value) == ("a conditional frame needs a relation for every upset; "
                                  "missing ['', '0', '1', '0,1'] and 4 more")
        with pytest.raises(FrameFormatError) as exc:
            ConditionalFrame(preorder(2), {})
        assert str(exc.value) == ("a conditional frame needs a relation for every upset; "
                                  "missing ['', '0', '1', '0,1']")


def _old_full_keys_error(order, relations):
    """The key check of ``ConditionalFrame`` as it was, on the listed upsets:
    its message, or None."""
    ups = set(order.upsets)
    if set(relations) == ups:
        return None
    for a in relations:
        if a not in ups:
            return ("a conditional frame needs a relation for every upset, and only for "
                    f"upsets; key {mask_to_key(a)!r} is not an upset")
    missing = [u for u in order.upsets if u not in relations]
    more = f" and {len(missing) - 4} more" if len(missing) > 4 else ""
    return ("a conditional frame needs a relation for every upset; "
            f"missing {[mask_to_key(u) for u in missing[:4]]}{more}")


class TestFullKeys:
    """``ConditionalFrame`` checks its keys before it lists the upsets, and
    lists them only when there are as many as keys."""

    def test_messages_as_on_the_listed_upsets(self):
        seen = Counter()
        for i in range(600):
            rng = random.Random(f"full-keys:{i}")
            p = random_poset(rng, rng.randint(1, 5))
            ups = list(p.upsets)
            keys = rng.sample(ups, rng.randint(0, len(ups)))
            for _ in range(rng.choice((0, 0, 1, 2))):  # stray keys: non-upsets, outside worlds
                keys.insert(rng.randint(0, len(keys)), rng.randrange(1 << (p.n + 1)))
            relations = {a: (0,) * p.n for a in keys}
            expected = _old_full_keys_error(p, relations)
            if expected is None:
                assert ConditionalFrame(p, relations).relations == relations
            else:
                with pytest.raises(FrameFormatError) as exc:
                    ConditionalFrame(p, relations)
                assert str(exc.value) == expected
            seen[expected.split(";")[0] if expected else None] += 1
        assert len(seen) == 3 and min(seen.values()) > 50, seen

    @pytest.mark.parametrize("admissible, relations, error", [
        ("all", {}, "a conditional frame needs a relation for every upset; "
                    "missing ['', '0', '1', '0,1'] and 1048572 more"),
        # a general frame of two admissible sets loads
        ([[], list(range(20))], {"": [], ",".join(map(str, range(20))): []}, None),
    ])
    def test_a_short_file_on_twenty_worlds_is_read_without_its_upsets(
            self, admissible, relations, error):
        obj = {"worlds": 20, "leq": [], "admissible": admissible, "relations": relations}
        interned_order.cache_clear()  # so that no earlier test listed the upsets
        tracemalloc.start()
        try:
            try:
                frame_from_json(obj)
                got = None
            except FrameFormatError as exc:
                got = str(exc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == error
        assert "upsets" not in vars(interned_order(tuple(1 << i for i in range(20))))
        assert peak < 1 << 20  # listing the upsets took 180-240 MB

    def test_strongly_coherent_names_a_missing_key_as_rel_does(self, chain2):
        # a frame built without its checks may lack a relation; the first
        # non-strongly-coherent relation before the gap still decides
        for relations, raises in (({0: (0, 0), m(0, 1): (m(1), m(1))}, True),
                                  ({0: (m(0), 0), m(0, 1): (m(1), m(1))}, False)):
            g = frames._unchecked_frame(GeneralFrame, chain2, (0, m(1), m(0, 1)), relations)
            if not raises:
                assert strongly_coherent(g) is False
                continue
            with pytest.raises(NotAdmissibleError) as exc:
                strongly_coherent(g)
            assert str(exc.value) == "no relation for upset {1}"


class TestBuilderFootprint:
    """A kept frame or complex algebra built by its builder takes no more
    memory than one built by the checking constructor: the builders store
    the fields one by one, so the instances share their attribute keys."""

    @staticmethod
    def _size(obj):
        return sys.getsizeof(obj) + sys.getsizeof(vars(obj))

    def test_frames(self):
        rng = random.Random("built-frames")
        built = [next(enumerate_full_frames(1)), random_general_frame(rng, 3)]
        built.append(fill(built[1], FillInKind.EMPTY))
        for g in built:
            assert self._size(g) <= self._size(
                GeneralFrame(g.order, g.admissible, dict(g.relations))), g

    def test_complex_algebras(self):
        for i in range(20):
            alg = complex_algebra(random_full_frame(random.Random(f"built-algebra:{i}"), 3))
            checked = FiniteCHA(alg.size, alg.leq, alg.imp, alg.cond, alg.top, alg.bot,
                                alg.labels)
            assert self._size(alg) <= self._size(checked)


class TestModalFrame:
    def test_rows_validated(self, chain2):
        with pytest.raises(FrameFormatError):
            ModalFrame(chain2, (m(0, 1),))  # wrong row count

    def test_coherence_report(self, chain2):
        assert validate_modal(ModalFrame(chain2, (m(1), m(1)))).ok
        assert not validate_modal(ModalFrame(chain2, (0, m(0)))).ok


def _tuple_rows(g):
    return all(type(rows) is tuple for rows in g.relations.values())


def _outcome(fn, *args):
    try:
        return ("value", fn(*args))
    except Exception as exc:  # both frames must fail alike, whatever the type
        return ("error", type(exc), str(exc))


def _tuple_algebra(alg):
    return type(alg.leq) is tuple and all(
        type(table) is tuple and all(type(row) is tuple for row in table)
        for table in (alg.imp, alg.cond))


class TestRowsAreTuples:
    """Every frame holds its relations as tuples of rows, however they were
    given or built, so the memos keyed by rows hash them as they are."""

    KEYS = ("k_c", "id", "mp", "tr", "ex", "four_c")

    def _verdicts(self, g):
        out = [str(validate_general(g)), _outcome(strongly_coherent, g),
               _outcome(complex_algebra, g)]
        if g.is_full:
            out += [str(validate_conditional(g)), _outcome(frame_roundtrip, g)]
        return out + [valid(g, AXIOMS[key].formula) for key in self.KEYS]

    def _agree(self, g, relations):
        """``g`` rebuilt from ``relations`` given as lists of rows."""
        listed = {a: list(rows) for a, rows in relations.items()}
        if type(g) is ConditionalFrame:
            h = ConditionalFrame(g.order, listed)
            g = ConditionalFrame(g.order, relations)
        else:
            h = GeneralFrame(g.order, g.admissible, listed)
            g = GeneralFrame(g.order, g.admissible, relations)
        assert h.relations is not listed and _tuple_rows(h)
        assert h == g
        got = self._verdicts(h)
        assert got == self._verdicts(g)
        return got

    def test_list_rows_are_stored_as_tuples_with_the_same_verdicts(self):
        seen = Counter()
        for i in range(120):
            rng = random.Random(f"list-rows:{i}")
            n = rng.choice((1, 2, 3))
            g = random_general_frame(rng, n) if i % 2 else random_full_frame(rng, n)
            seen[self._agree(g, g.relations)[0]] += 1
            # arbitrary rows on every upset, most of them incoherent
            p = g.order
            rows = {a: tuple(rng.randrange(p.full_mask + 1) for _ in range(p.n))
                    for a in p.upsets}
            seen["incoherent" if "coherence" in self._agree(
                ConditionalFrame(p, rows), rows)[0] else "coherent"] += 1
        assert seen["valid"] == 120 and seen["incoherent"] > 30

    def test_modal_frames_store_tuples_with_the_same_verdicts(self):
        texts = ("[] p -> p", "[] p -> [] [] p", "p -> [] p", "[] (p -> q) -> ([] p -> [] q)")
        formulas = [parse(text, Language.MODAL) for text in texts]
        for i in range(60):
            rng = random.Random(f"list-modal:{i}")
            p = random_poset(rng, rng.choice((1, 2, 3)))
            rows = [rng.randrange(p.full_mask + 1) for _ in range(p.n)]
            listed, twin = ModalFrame(p, rows), ModalFrame(p, tuple(rows))
            assert type(listed.rel) is tuple and listed == twin
            assert str(validate_modal(listed)) == str(validate_modal(twin))
            for f in formulas:
                assert valid_modal(listed, f) == valid_modal(twin, f)

    def test_every_builder_stores_tuples(self):
        frames_built = list(enumerate_full_frames(2))
        for i in range(200):
            rng = random.Random(f"tuple-builders:{i}")
            modes = sorted(MODES)[i % len(MODES):][:2]
            g = random_general_frame(rng, 2 + i % 3, modes, force_subset=i % 3 == 1,
                                     strong=i % 3 == 2)
            frames_built.append(g)
            frames_built += [fill(g, kind) for kind in ALL_KINDS
                             if kind is not FillInKind.SQUEEZE
                             or check_squeeze_precondition(g).holds]
        assert len(frames_built) > 68302 + 1200
        for g in frames_built:
            assert _tuple_rows(g), g
            assert _tuple_algebra(complex_algebra(g)), g
