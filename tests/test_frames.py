import json

import pytest

from condlogic.errors import FrameFormatError, NotAdmissibleError
from condlogic.frames import (
    ConditionalFrame,
    FrameReport,
    ModalFrame,
    check_strong_coherence,
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
from condlogic.generate import random_general_frame, random_full_frame
from condlogic.order import all_upsets, heyting_imp

from conftest import full_frame, general_frame, m, preorder


def validate_modal(m: ModalFrame) -> FrameReport:
    """Oracle for the coherence of a restricted relation: the modal frame report."""
    report = FrameReport()
    if not rel_coherent(m.order, m.rel):
        report.add("coherence", "modal relation violates leq-compatibility")
    return report


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
        f = full_frame(anti2, {a: (m(1), 0) for a in all_upsets(anti2)})
        assert all(check_strong_coherence(f).values())

    def test_strong_coherence_up_step(self, chain2):
        # leq-then-R-then-leq reproduces {(0,1)} exactly
        f = full_frame(chain2, {m(0, 1): (m(1), 0)})
        flags = check_strong_coherence(f)
        assert flags[m(0, 1)] is True

    def test_strong_coherence_fails_for_top_loop(self, chain2):
        # {(1,1)} composes to {(0,1),(1,1)}, strictly larger
        from condlogic.frames import rel_strongly_coherent

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
            for a in all_upsets(f.order):
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


class TestModalFrame:
    def test_rows_validated(self, chain2):
        with pytest.raises(FrameFormatError):
            ModalFrame(chain2, (m(0, 1),))  # wrong row count

    def test_coherence_report(self, chain2):
        assert validate_modal(ModalFrame(chain2, (m(1), m(1)))).ok
        assert not validate_modal(ModalFrame(chain2, (0, m(0)))).ok
