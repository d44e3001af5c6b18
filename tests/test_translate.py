import pytest

from condlogic.errors import LanguageError
from condlogic.frames import restrict
from condlogic.generate import random_formula, random_full_frame, random_general_frame
from condlogic.semantics import check_modal
from condlogic.syntax import Language, parse, print_formula
from condlogic.translate import (
    MIX_AXIOM,
    check_restriction_lemma,
    check_t2,
    gmt_translate,
    p_translate,
)

from conftest import constant_full_frame, full_frame, m


def modal(src):
    return parse(src, Language.MODAL)


class TestPTranslate:
    def test_box_becomes_conditional(self):
        assert p_translate(modal("[]q"), "p") == parse("p ~> q")

    def test_worked_example(self):
        assert p_translate(modal("q -> []q"), "p") == parse("q -> (p ~> q)")

    def test_box_free_is_identity(self):
        assert p_translate(modal("q"), "p") == parse("q")
        assert p_translate(modal("q & ~r"), "p") == parse("q & ~r")

    @pytest.mark.parametrize("src", ["q", "q -> []q"])
    @pytest.mark.parametrize("letter", ["1", "", "true", "p q"])
    def test_a_bad_letter_is_refused_with_or_without_a_box(self, src, letter):
        with pytest.raises(LanguageError, match="bad proposition letter"):
            p_translate(modal(src), letter)

    def test_requires_modal_input(self):
        with pytest.raises(LanguageError):
            p_translate(parse("p ~> q"), "p")

    def test_injective_on_asts(self, rng):
        seen = {}
        for _ in range(500):
            f = random_formula(rng, Language.MODAL, ["q", "r"], 4)
            image = p_translate(f, "p")
            assert seen.setdefault(image, f) == f


class TestGmtTranslate:
    def test_letter(self):
        assert print_formula(gmt_translate(modal("q"))) == "[I]q"

    def test_box(self):
        assert print_formula(gmt_translate(modal("[]q"))) == "[I][M][I]q"

    def test_worked_example_string(self):
        assert print_formula(gmt_translate(modal("q -> []q"))) == "[I]([I]q -> [I][M][I]q)"

    def test_bot_is_boxed_too(self):
        assert print_formula(gmt_translate(modal("false"))) == "[I]false"

    def test_no_simplification_by_default(self):
        out = gmt_translate(modal("[][]q"))
        assert print_formula(out) == "[I][M][I][M][I]q"

    def test_normalize_collapses_doubled_interior_box(self):
        from condlogic.syntax import BoxI, Var

        doubled = BoxI(BoxI(Var("q", Language.BIMODAL)))
        assert gmt_translate(modal("q"), normalize=True) == gmt_translate(modal("q"))
        from condlogic.translate import _collapse_boxi

        assert _collapse_boxi(doubled) == BoxI(Var("q", Language.BIMODAL))

    def test_injective_on_asts(self, rng):
        seen = {}
        for _ in range(500):
            f = random_formula(rng, Language.MODAL, ["q", "r"], 4)
            image = gmt_translate(f)
            assert seen.setdefault(image, f) == f

    def test_mix_axiom_is_not_wellformed_bimodal(self):
        with pytest.raises(LanguageError):
            parse(MIX_AXIOM, Language.BIMODAL)


class TestRestrictionLemma:
    def test_box_case_unfolds_to_relation_inclusion(self, chain2):
        f = full_frame(chain2, {m(1): (m(1), m(1))})
        v = {"p": m(1), "q": m(1)}
        got = check_restriction_lemma(f, v, modal("[]q"), "p", 0)
        rows = f.rel(m(1))
        assert got == (not rows[0] & ~m(1))

    def test_randomized_agreement(self, rng):
        for _ in range(3000):
            f = random_full_frame(rng, rng.choice([2, 3]))
            phi = random_formula(rng, Language.MODAL, ["q", "r"], 3)
            ups = f.order.upsets
            v = {s: ups[rng.randrange(len(ups))] for s in ("p", "q", "r")}
            w = rng.randrange(f.n)
            # raises on disagreement; the return value matches both sides
            got = check_restriction_lemma(f, v, phi, "p", w)
            assert got == check_modal(
                restrict(f, v["p"]),
                {k: val for k, val in v.items() if k != "p"}, phi, w,
            )

    def test_agreement_on_general_frames(self, rng):
        done = 0
        while done < 300:
            g = random_general_frame(rng, rng.choice([2, 3]))
            phi = random_formula(rng, Language.MODAL, ["q"], 3)
            adm = g.admissible
            v = {s: adm[rng.randrange(len(adm))] for s in ("p", "q")}
            w = rng.randrange(g.n)
            check_restriction_lemma(g, v, phi, "p", w)
            done += 1

    def test_missing_letter(self, single):
        with pytest.raises(LanguageError):
            check_restriction_lemma(full_frame(single), {"q": 0}, modal("[]q"), "p", 0)


class TestT2:
    def test_vacuous_boxes(self, chain2):
        f = full_frame(chain2)  # every relation empty
        report = check_t2(f, modal("[]false"), "p")
        assert report.translated_valid and report.restrictions_valid

    def test_total_relation_breaks_box_bot(self, chain2):
        f = constant_full_frame(chain2, (m(0, 1), m(0, 1)))
        report = check_t2(f, modal("[]false"), "p")
        assert not report.translated_valid and not report.restrictions_valid
        assert report.agree

    def test_letter_occurring_is_an_error(self, single):
        with pytest.raises(LanguageError):
            check_t2(full_frame(single), modal("[]p"), "p")

    def test_biconditional_on_random_frames(self, rng):
        for _ in range(80):
            f = random_full_frame(rng, rng.choice([2, 3]))
            phi = random_formula(rng, Language.MODAL, ["q", "r"], 2)
            assert check_t2(f, phi, "p").agree


class TestTable4ViaTranslation:
    def test_schemas_arise_from_the_letter_translation(self):
        from condlogic.catalog import AXIOMS

        pairs = {
            "unit_says": "q -> []q",
            "four_c": "[]q -> [][]q",
            "c4_c": "[][]q -> []q",
            "box_tc": "[]([]q -> q)",
            "cem1": "[]q | []~q",
            "cem2": "[](q | ~q)",
            "ecm1": "[]q | ~[]q",
        }
        for key, src in pairs.items():
            assert p_translate(modal(src), "p") == AXIOMS[key].formula
