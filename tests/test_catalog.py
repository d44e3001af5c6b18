import pytest

from condlogic import catalog
from condlogic.catalog import (
    AXIOMS,
    ICC_CORR,
    PRESETS,
    correspondent_holds,
    logic_frame_conditions,
    persistence_experiment,
    search_countermodel,
    verify_correspondence,
)
from condlogic.errors import InfeasibleEnumerationError, MissingCorrespondentError
from condlogic.fillins import FillInKind
from condlogic.frames import frame_from_json
from condlogic.semantics import check, valid
from condlogic.syntax import parse

from conftest import constant_full_frame, full_frame, general_frame, m


def identity_rows(n):
    return tuple(1 << i for i in range(n))


class TestRegistry:
    def test_every_schema_parses_and_reprints(self):
        for entry in AXIOMS.values():
            assert entry.formula is not None

    def test_correspondent_free_entries(self):
        for key in ("or", "clin1", "clin2", "clin3", "in1", "in2",
                    "ck", "simp", "adj", "ca", "ct", "cm"):
            assert not AXIOMS[key].has_correspondent

    def test_presets(self):
        assert PRESETS["ICK"] == ()
        assert PRESETS["iKRI"] == ("mp", "tr")
        assert PRESETS["iCC"] == ("id", "ct", "cm")
        assert PRESETS["iCB"] == ("id", "ct", "cm", "re", "four_c")
        assert PRESETS["HLCflat"] == ("id", "tr")
        assert PRESETS["HLCsharp"] == ("id", "tr", "or")
        assert PRESETS["HLCflat_str"] == ("id", "tr", "str")
        assert PRESETS["sICL"] == ("unit", "c4_c")
        assert PRESETS["sCondACL"] == ("unit", "bt")

    def test_bt_mirrors_box_tc(self):
        assert AXIOMS["bt"].source == AXIOMS["box_tc"].source

    def test_persistence_tables_cover_expected_cells(self):
        assert ("id", FillInKind.EMPTY) in catalog.TABLE1_CELLS
        assert ("mon", FillInKind.UNION) in catalog.TABLE1_CELLS
        assert ("mp", FillInKind.EMPTY) not in catalog.TABLE1_CELLS
        assert len(catalog.TABLE1_CELLS) == 26
        assert len(catalog.TABLE2_CELLS) == 21
        assert len(catalog.TABLE3_CELLS) == 3


class TestCorrespondentHolds:
    def test_all_empty_frame_satisfies_id(self, anti2):
        assert correspondent_holds(full_frame(anti2), "id").holds

    def test_id_violated_at_empty_antecedent(self, single):
        f = full_frame(single, {0: (m(0),)})
        report = correspondent_holds(f, "id")
        assert not report.holds
        assert report.witness == (0, None, 0)  # first triple in order

    def test_identity_relations_satisfy_mp(self, anti2):
        f = constant_full_frame(anti2, identity_rows(2))
        assert correspondent_holds(f, "mp").holds

    def test_missing_correspondent(self, single):
        with pytest.raises(MissingCorrespondentError):
            correspondent_holds(full_frame(single), "or")

    def test_general_frame_quantifies_over_admissible(self, anti2):
        # identity at X violates id on the non-admissible singleton only
        g = general_frame(anti2, (0, m(0, 1)),
                          {0: (0, 0), m(0, 1): identity_rows(2)})
        assert correspondent_holds(g, "id").holds


class TestLogicFrameConditions:
    def test_hlcflat(self):
        names = [name for name, _, _ in logic_frame_conditions("HLCflat")]
        assert names == ["id", "tr"]

    def test_icc_uses_joint_condition(self):
        conds = logic_frame_conditions("iCC")
        assert conds[0] == ICC_CORR
        assert [name for name, _, _ in conds] == ["icc", "id"]

    def test_icb_extends_icc(self):
        names = [name for name, _, _ in logic_frame_conditions("iCB")]
        assert names == ["icc", "id", "re", "four_c"]

    def test_hlcsharp_errors(self):
        with pytest.raises(MissingCorrespondentError):
            logic_frame_conditions("HLCsharp")


class TestVerifyCorrespondence:
    def test_id_exhaustive_one_world(self):
        report = verify_correspondence("id", max_worlds=1)
        assert report["ok"] and report["exhaustive_frames"] == 4

    def test_sampling_is_deterministic(self):
        a = verify_correspondence("str", max_worlds=1, samples=40, seed=5)
        b = verify_correspondence("str", max_worlds=1, samples=40, seed=5)
        assert a == b

    def test_jobs_do_not_change_the_report(self):
        a = verify_correspondence("unit", max_worlds=1, samples=24, seed=3, jobs=1)
        b = verify_correspondence("unit", max_worlds=1, samples=24, seed=3, jobs=2)
        assert a == b

    def test_infeasible_enumeration(self):
        with pytest.raises(InfeasibleEnumerationError):
            verify_correspondence("id", max_worlds=3)

    def test_missing_correspondent(self):
        with pytest.raises(MissingCorrespondentError):
            verify_correspondence("clin1")


def test_parallel_chunks_tile_the_range():
    # the parallel runner asks for chunks only with jobs > 1 and total > 1
    for total in range(2, 61):
        for jobs in range(2, 9):
            chunks = catalog._chunk_ranges(total, jobs)
            assert 1 <= len(chunks) <= jobs
            assert all(lo < hi for lo, hi in chunks)
            assert [i for lo, hi in chunks for i in range(lo, hi)] == list(range(total))


class TestPersistence:
    def test_id_empty_passes(self):
        report = persistence_experiment("id", FillInKind.EMPTY, samples=40, seed=2)
        assert report["ok"] and report["failures"] == 0

    def test_mp_reflexive_and_total_pass(self):
        for kind in (FillInKind.REFLEXIVE, FillInKind.TOTAL):
            report = persistence_experiment("mp", kind, samples=40, seed=2)
            assert report["ok"], report

    def test_str_reflexive_fails_with_witness(self):
        report = persistence_experiment("str", FillInKind.REFLEXIVE, samples=300,
                                        seed=2, expect="fail")
        assert report["ok"] and report["counterexample"] is not None
        # the emitted frames re-validate and the witness is reproducible
        g = frame_from_json(report["counterexample"]["general_frame"])
        filled = frame_from_json(report["counterexample"]["filled_frame"])
        assert correspondent_holds(g, "str").holds
        assert not correspondent_holds(filled, "str").holds

    def test_expectation_mismatch_flagged(self):
        report = persistence_experiment("id", FillInKind.EMPTY, samples=30,
                                        seed=2, expect="fail")
        assert not report["ok"]

    def test_jobs_do_not_change_the_report(self):
        a = persistence_experiment("unit", FillInKind.UNION, samples=24, seed=4, jobs=1)
        b = persistence_experiment("unit", FillInKind.UNION, samples=24, seed=4, jobs=2)
        assert a == b

    @pytest.mark.parametrize("key,kind,samples,seed,first", [
        ("mp", FillInKind.EMPTY, 8, 1, 0),  # both chunks hold a counterexample
        ("mon", FillInKind.SQUEEZE, 6, 0, 4),  # only the second chunk does
    ])
    def test_jobs_do_not_change_an_expected_failure(self, key, kind, samples, seed, first):
        a = persistence_experiment(key, kind, samples=samples, seed=seed, expect="fail",
                                   jobs=1)
        b = persistence_experiment(key, kind, samples=samples, seed=seed, expect="fail",
                                   jobs=2)
        assert a == b
        # the run ends at the first counterexample, whatever chunk finds it
        assert (a["samples"], a["failures"]) == (first + 1, 1)

    def test_missing_correspondent(self):
        with pytest.raises(MissingCorrespondentError):
            persistence_experiment("or", FillInKind.EMPTY, samples=5)

    def test_strong_flag(self):
        report = persistence_experiment("id", FillInKind.TRANSITIVE, samples=25,
                                        seed=2, strong=True)
        assert report["ok"] and report["strong"]

    def test_translated_axiom_family_is_empty_fill_persistent(self):
        # the rows obtained by translating box-language schemas all keep
        # their correspondent through the empty fill-in
        for key, kind in catalog.TABLE4_EMPTY_CELLS:
            report = persistence_experiment(key, kind, samples=60, seed=6)
            assert report["ok"], (key, report)


class TestSearch:
    def test_mpp_countermodel_is_the_one_world_empty_frame(self):
        result = search_countermodel("ICK", parse("(p ~> q) -> (p -> q)"))
        assert result.found
        assert result.frame.n == 1
        assert all(rows == (0,) for rows in result.frame.relations.values())
        assert result.valuation == {"p": m(0), "q": 0}
        assert result.world == 0
        # independent confirmation on the emitted countermodel
        assert not check(result.frame, result.valuation,
                         parse("(p ~> q) -> (p -> q)"), result.world)

    def test_id_countermodel_has_looping_empty_relation(self):
        result = search_countermodel("ICK", parse("p ~> p"))
        assert result.found and result.frame.n == 1
        assert result.frame.relations[0] == (m(0),)
        assert result.frame.relations[m(0)] == (0,)

    def test_bot_refuted_on_first_cautious_frame(self):
        result = search_countermodel("iCC", parse("false"))
        assert result.found and result.world == 0

    def test_hlcflat_conditions_refute_str(self):
        result = search_countermodel("HLCflat", parse("(p -> q) -> (p ~> q)"))
        assert result.found and result.frame.n <= 2
        conds = logic_frame_conditions("HLCflat")
        assert catalog._conditions_hold(result.frame, conds)

    def test_exhaustion_is_inconclusive(self):
        result = search_countermodel("ICK", parse("p -> p"))
        assert not result.found
        assert result.frames_checked == 68302
