import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from condlogic.errors import LanguageError, ParseError
from condlogic.syntax import (
    And,
    Bot,
    Box,
    BoxI,
    BoxM,
    Cond,
    Formula,
    Iff,
    Imp,
    Language,
    Neg,
    Or,
    Top,
    Var,
    parse,
    print_formula,
    proposition_letters,
    substitute,
)

p, q, r = Var("p"), Var("q"), Var("r")


class TestParse:
    def test_conditional_with_conjunction(self):
        assert parse("p ~> (q & r)") == Cond(p, And(q, r))

    def test_negation_expands_to_imp_bot(self):
        assert parse("~p -> (p ~> q)") == Imp(Imp(p, Bot()), Cond(p, q))

    def test_plain_box_rejected_in_bimodal(self):
        with pytest.raises(LanguageError):
            parse("[]q", Language.BIMODAL)

    def test_conditional_rejected_in_modal(self):
        with pytest.raises(LanguageError):
            parse("p ~> q", Language.MODAL)

    def test_box_rejected_in_conditional(self):
        with pytest.raises(LanguageError):
            parse("[]q", Language.COND)

    def test_modal_and_bimodal_boxes(self):
        qm = Var("q", Language.MODAL)
        assert parse("[]q", Language.MODAL) == Box(qm)
        qb = Var("q", Language.BIMODAL)
        assert parse("[I][M]q", Language.BIMODAL) == BoxI(BoxM(qb))

    def test_and_binds_tighter_than_or(self):
        a, b, c = Var("a"), Var("b"), Var("c")
        assert parse("a & b | c") == Or(And(a, b), c)

    def test_imp_right_associative(self):
        a, b, c = Var("a"), Var("b"), Var("c")
        assert parse("a -> b -> c") == Imp(a, Imp(b, c))

    def test_cond_right_associative(self):
        a, b, c = Var("a"), Var("b"), Var("c")
        assert parse("a ~> b ~> c") == Cond(a, Cond(b, c))

    def test_cond_binds_tighter_than_imp(self):
        assert parse("p ~> q -> r") == Imp(Cond(p, q), r)

    def test_true_false_are_keywords(self):
        assert parse("true") == Top()
        assert parse("false") == Bot()
        with pytest.raises(ParseError):
            parse("true & ")

    def test_iff_expands(self):
        assert parse("p <-> q") == And(Imp(p, q), Imp(q, p))

    def test_iff_chain_left_associative(self):
        assert parse("p <-> q <-> r") == Iff(Iff(p, q), r)

    def test_empty_input(self):
        with pytest.raises(ParseError):
            parse("")
        with pytest.raises(ParseError):
            parse("   ")

    def test_error_carries_position(self):
        with pytest.raises(ParseError) as err:
            parse("p @ q")
        assert err.value.pos == 2

    @pytest.mark.parametrize("text,pos", [
        ("@p", 0),             # start
        ("p ~> \u00e9 & q", 5),  # middle, a letter outside the identifier set
        ("p & q\n;", 6),       # after a newline
        ("p & q$", 5),         # end
    ])
    def test_unexpected_character(self, text, pos):
        with pytest.raises(ParseError) as err:
            parse(text)
        assert str(err.value) == f"unexpected character {text[pos]!r} (at position {pos})"
        assert err.value.pos == pos

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse("p q")

    def test_unbalanced_parens(self):
        with pytest.raises(ParseError):
            parse("(p ~> q")

    def test_whitespace_insignificant(self):
        assert parse("p~>(q&r)") == parse("p ~>  ( q & r )")


class TestPrint:
    def test_axiom_id_shape(self):
        assert print_formula(Cond(p, p)) == "p ~> p"

    def test_transitivity_antecedent(self):
        # the schema as displayed in the persistence overview table
        f = Imp(And(Cond(p, q), Cond(q, r)), Cond(p, r))
        assert print_formula(f) == "(p ~> q) & (q ~> r) -> p ~> r"

    def test_bot(self):
        assert print_formula(Bot()) == "false"

    def test_top_and_negation_sugar(self):
        assert print_formula(Top()) == "true"
        assert print_formula(Neg(p)) == "~p"
        assert print_formula(Neg(And(p, q))) == "~(p & q)"

    def test_left_nested_imp_parenthesised(self):
        f = Imp(Imp(p, q), r)
        assert print_formula(f) == "(p -> q) -> r"

    def test_right_nested_or_parenthesised(self):
        f = Or(p, Or(q, r))
        assert print_formula(f) == "p | (q | r)"

    def test_boxes(self):
        qm = Var("q", Language.MODAL)
        assert print_formula(Box(Imp(qm, qm))) == "[](q -> q)"
        qb = Var("q", Language.BIMODAL)
        assert print_formula(BoxI(BoxM(qb))) == "[I][M]q"


def _formulas(language, letters=("p", "q", "r"), depth=4):
    base = st.one_of(
        st.sampled_from(letters).map(lambda s: Var(s, language)),
        st.just(Bot(language)),
    )

    def extend(children):
        binary = st.tuples(children, children)
        options = [
            binary.map(lambda t: And(*t)),
            binary.map(lambda t: Or(*t)),
            binary.map(lambda t: Imp(*t)),
        ]
        if language is Language.COND:
            options.append(binary.map(lambda t: Cond(*t)))
        elif language is Language.MODAL:
            options.append(children.map(Box))
        else:
            options.append(children.map(BoxI))
            options.append(children.map(BoxM))
        return st.one_of(options)

    return st.recursive(base, extend, max_leaves=2 ** depth)


class TestRoundTrip:
    @settings(max_examples=300, deadline=None)
    @given(_formulas(Language.COND))
    def test_conditional_language(self, f):
        assert parse(print_formula(f), Language.COND) == f

    @settings(max_examples=200, deadline=None)
    @given(_formulas(Language.MODAL))
    def test_modal_language(self, f):
        assert parse(print_formula(f), Language.MODAL) == f

    @settings(max_examples=200, deadline=None)
    @given(_formulas(Language.BIMODAL))
    def test_bimodal_language(self, f):
        assert parse(print_formula(f), Language.BIMODAL) == f


class TestSubstitute:
    def test_uniform(self):
        qr = And(q, r)
        assert substitute(Cond(p, p), {"p": qr}) == Cond(qr, qr)

    def test_empty_map_is_identity(self):
        assert substitute(p, {}) == p

    def test_replace_with_bot(self):
        assert substitute(Cond(p, q), {"p": Bot()}) == Cond(Bot(), q)

    def test_language_mismatch(self):
        with pytest.raises(LanguageError):
            substitute(Cond(p, q), {"p": Var("p", Language.MODAL)})

    def test_simultaneous_not_sequential(self):
        # p and q swap; a sequential substitution would collapse them
        f = And(p, q)
        assert substitute(f, {"p": q, "q": p}) == And(q, p)

    @settings(max_examples=150, deadline=None)
    @given(_formulas(Language.COND, letters=("p", "q")))
    def test_composition_on_disjoint_letters(self, f):
        # sigma renames into fresh letters, tau maps those on; chaining
        # equals the composed map when domains and ranges are disjoint
        sigma = {"p": Var("u"), "q": Var("v")}
        tau = {"u": And(r, r), "v": Or(r, Bot())}
        composed = {"p": tau["u"], "q": tau["v"]}
        assert substitute(substitute(f, sigma), tau) == substitute(f, composed)


class TestLetters:
    def test_examples(self):
        assert proposition_letters(parse("p ~> (q & r)")) == {"p", "q", "r"}
        assert proposition_letters(Bot()) == frozenset()
        assert proposition_letters(parse("(p -> false) -> p")) == {"p"}

    def test_keywords_do_not_count(self):
        assert proposition_letters(parse("p ~> true")) == {"p"}


class TestFormulaInvariants:
    def test_node_language_enforced(self):
        with pytest.raises(LanguageError):
            Formula("cond", (Var("p", Language.MODAL), Var("q", Language.MODAL)),
                    None, Language.MODAL)

    def test_mixed_languages_rejected(self):
        with pytest.raises(LanguageError):
            And(p, Var("q", Language.MODAL))

    def test_bad_letter_names(self):
        with pytest.raises(LanguageError):
            Var("true")
        with pytest.raises(LanguageError):
            Var("0p")

    def test_hash_consistent_with_equality(self):
        f1 = parse("(p ~> q) & (q ~> r) -> p ~> r")
        f2 = parse("(p ~> q) & (q ~> r) -> p ~> r")
        assert f1 == f2 and hash(f1) == hash(f2)
