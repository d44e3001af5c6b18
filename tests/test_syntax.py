import os
import pickle
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from condlogic import syntax
from condlogic.errors import ClcError, LanguageError, ParseError
from condlogic.syntax import (
    ALLOWED_OPS,
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

    @pytest.mark.parametrize("text,language,error,message,pos", [
        ("", Language.COND, ParseError, "empty input (at position 0)", 0),
        ("  \t\n", Language.COND, ParseError, "empty input (at position 0)", 0),
        ("p q", Language.COND, ParseError, "unexpected trailing input 'q' (at position 2)", 2),
        ("(p ~> q", Language.COND, ParseError,
         "expected rpar, found 'end of input' (at position 7)", 7),
        ("((p) & q", Language.COND, ParseError,
         "expected rpar, found 'end of input' (at position 8)", 8),
        ("p & ~", Language.COND, ParseError,
         "expected an atom, found 'end of input' (at position 5)", 5),
        ("p & ) q", Language.COND, ParseError, "expected an atom, found ')' (at position 4)", 4),
        ("p ~> q", Language.MODAL, LanguageError,
         "connective for 'cond' is not in the modal language (at position 2)", None),
        ("q & ([]p ~> )", Language.MODAL, LanguageError,
         "connective for 'cond' is not in the modal language (at position 9)", None),
        ("p ~> []q", Language.COND, LanguageError,
         "connective for 'box' is not in the cond language (at position 5)", None),
        ("[I]q", Language.MODAL, LanguageError,
         "connective for 'boxi' is not in the modal language (at position 0)", None),
        ("p | [M]q", Language.MODAL, LanguageError,
         "connective for 'boxm' is not in the modal language (at position 4)", None),
        ("[I][]q", Language.BIMODAL, LanguageError,
         "connective for 'box' is not in the bimodal language (at position 3)", None),
    ], ids=["empty", "whitespace", "trailing", "missing-rpar", "missing-outer-rpar",
            "atom-at-end", "atom-in-middle", "cond-in-modal", "cond-before-atom-error",
            "box-in-cond", "boxi-in-modal", "boxm-in-modal", "box-in-bimodal"])
    def test_error_message(self, text, language, error, message, pos):
        with pytest.raises(ClcError) as err:
            parse(text, language)
        assert type(err.value) is error
        assert str(err.value) == message
        assert getattr(err.value, "pos", None) == pos

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

    def test_pickled_formula_is_rehashed_in_another_process(self):
        # string hashes are salted per process, so a hash stored in the
        # pickle would disagree with an equal formula parsed over there
        f = parse("p ~> (q -> r)")
        parent_hash = hash(f)
        seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
        src = str(Path(syntax.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        child = (
            "import pickle, sys\n"
            "from condlogic.syntax import parse\n"
            "g = pickle.loads(sys.stdin.buffer.read())\n"
            "h = parse('p ~> (q -> r)')\n"
            "assert g == h and hash(g) == hash(h) and len({g, h}) == 1\n"
            "print(hash(h))\n"
        )
        done = subprocess.run([sys.executable, "-c", child], input=pickle.dumps(f), env=env,
                              capture_output=True, timeout=60)
        assert done.returncode == 0, done.stderr.decode()
        assert int(done.stdout) != parent_hash  # the child's hashes are salted otherwise

    def test_pickle_round_trip_keeps_equality_and_hash(self):
        for f in (parse("[]p -> [](p | false)", Language.MODAL),
                  parse("[I]~q <-> [M]true", Language.BIMODAL), Iff(p, Cond(q, r))):
            g = pickle.loads(pickle.dumps(f))
            assert g == f and hash(g) == hash(f) and g.language is f.language


# The recursive-descent parser and the printer the table-driven ones
# replaced, kept as the oracle: one method per grammar level, and the
# printer's precedences as separate constants.

_REF_PREFIX_OP = {"neg": None, "box": "box", "boxi": "boxi", "boxm": "boxm"}


class _ReferenceParser:
    def __init__(self, text, language):
        self.text = text
        self.language = language
        self.tokens = syntax._tokenize(text)
        self.idx = 0

    def peek(self):
        return self.tokens[self.idx]

    def advance(self):
        tok = self.tokens[self.idx]
        self.idx += 1
        return tok

    def expect(self, kind):
        tok = self.peek()
        if tok[0] != kind:
            raise ParseError(f"expected {kind}, found {tok[1] or 'end of input'!r}", tok[2])
        return self.advance()

    def check_connective(self, op, pos):
        if op not in ALLOWED_OPS[self.language]:
            raise LanguageError(
                f"connective for {op!r} is not in the {self.language.value} "
                f"language (at position {pos})"
            )

    def parse_formula(self):
        return self.parse_imp()

    def parse_imp(self):
        left = self.parse_iff()
        if self.peek()[0] == "imp":
            self.advance()
            right = self.parse_imp()
            return Imp(left, right)
        return left

    def parse_iff(self):
        left = self.parse_cond()
        while self.peek()[0] == "iff":
            self.advance()
            right = self.parse_cond()
            left = Iff(left, right)
        return left

    def parse_cond(self):
        left = self.parse_disj()
        if self.peek()[0] == "cond":
            pos = self.peek()[2]
            self.check_connective("cond", pos)
            self.advance()
            right = self.parse_cond()
            return Cond(left, right)
        return left

    def parse_disj(self):
        left = self.parse_conj()
        while self.peek()[0] == "or":
            self.advance()
            left = Or(left, self.parse_conj())
        return left

    def parse_conj(self):
        left = self.parse_unary()
        while self.peek()[0] == "and":
            self.advance()
            left = And(left, self.parse_unary())
        return left

    def parse_unary(self):
        kind, _text, pos = self.peek()
        if kind in _REF_PREFIX_OP:
            if kind != "neg":
                self.check_connective(_REF_PREFIX_OP[kind], pos)
            self.advance()
            arg = self.parse_unary()
            if kind == "neg":
                return Neg(arg)
            if kind == "box":
                return Box(arg)
            if kind == "boxi":
                return BoxI(arg)
            return BoxM(arg)
        return self.parse_atom()

    def parse_atom(self):
        kind, text, pos = self.peek()
        if kind == "lpar":
            self.advance()
            inner = self.parse_formula()
            self.expect("rpar")
            return inner
        if kind == "ident":
            self.advance()
            if text == "false":
                return Bot(self.language)
            if text == "true":
                return Top(self.language)
            return Var(text, self.language)
        raise ParseError(f"expected an atom, found {text or 'end of input'!r}", pos)


def reference_parse(text, language=Language.COND):
    if not text or not text.strip():
        raise ParseError("empty input", 0)
    parser = _ReferenceParser(text, language)
    result = parser.parse_formula()
    kind, tok, pos = parser.peek()
    if kind != "eof":
        raise ParseError(f"unexpected trailing input {tok!r}", pos)
    return result


_REF_PREC_IMP = 10
_REF_PREC_COND = 30
_REF_PREC_OR = 40
_REF_PREC_AND = 50
_REF_PREC_UNARY = 60
_REF_PREC_ATOM = 70

_REF_PREFIX_TEXT = {"box": "[]", "boxi": "[I]", "boxm": "[M]"}


def _reference_render(f):
    if f.op == "var":
        return f.name, _REF_PREC_ATOM
    if f.op == "bot":
        return "false", _REF_PREC_ATOM
    if f.op == "imp":
        left, right = f.args
        if left.op == "bot" and right.op == "bot":
            return "true", _REF_PREC_ATOM
        if right.op == "bot":
            s, p = _reference_render(left)
            if p < _REF_PREC_UNARY:
                s = f"({s})"
            return f"~{s}", _REF_PREC_UNARY
        return _reference_binary(left, right, "->", _REF_PREC_IMP, right_assoc=True)
    if f.op == "cond":
        return _reference_binary(f.args[0], f.args[1], "~>", _REF_PREC_COND, right_assoc=True)
    if f.op == "or":
        return _reference_binary(f.args[0], f.args[1], "|", _REF_PREC_OR, right_assoc=False)
    if f.op == "and":
        return _reference_binary(f.args[0], f.args[1], "&", _REF_PREC_AND, right_assoc=False)
    s, p = _reference_render(f.args[0])
    if p < _REF_PREC_UNARY:
        s = f"({s})"
    return f"{_REF_PREFIX_TEXT[f.op]}{s}", _REF_PREC_UNARY


def _reference_binary(left, right, sym, prec, right_assoc):
    ls, lp = _reference_render(left)
    rs, rp = _reference_render(right)
    if right_assoc:
        if lp <= prec:
            ls = f"({ls})"
        if rp < prec:
            rs = f"({rs})"
    else:
        if lp < prec:
            ls = f"({ls})"
        if rp <= prec:
            rs = f"({rs})"
    return f"{ls} {sym} {rs}", prec


# Every token of the three languages, and pieces that tokenize differently
# when glued to a neighbour or match no token at all (drawn rarely, as any
# bad character fails the whole input).
_TOKENS = ["p", "q", "true", "false", "~", "[]", "[I]", "[M]", "&", "|", "->", "<->", "~>",
           "(", ")", "(", ")"]
_PIECES = ["-", ">", "<", "[", "]", "I", "@"]


def _random_token(rng):
    return rng.choice(_PIECES if rng.random() < 0.03 else _TOKENS)


_LANGUAGES = list(Language)


def _outcome(parse_fn, text, language):
    try:
        return parse_fn(text, language)
    except ClcError as exc:
        return type(exc), str(exc), getattr(exc, "pos", None)


def _nodes(f):
    stack = [f]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(node.args)


def _agree(text, language):
    # the reference builds every node through the checked public builders,
    # so an equal formula with an equal hash, each of whose nodes passes
    # every check, shows the parser's unchecked nodes are the checked ones
    got = _outcome(parse, text, language)
    want = _outcome(reference_parse, text, language)
    assert got == want, (text, language)
    if isinstance(got, Formula):
        assert hash(got) == hash(want), (text, language)
        for node in _nodes(got):
            Formula.__post_init__(node)
    return got


_UNARY_BUILDERS = {Language.COND: [Neg], Language.MODAL: [Neg, Box],
                   Language.BIMODAL: [Neg, BoxI, BoxM]}
_BINARY_BUILDERS = {Language.COND: [And, Or, Imp, Imp, Cond], Language.MODAL: [And, Or, Imp, Imp],
                    Language.BIMODAL: [And, Or, Imp, Imp]}


def _random_formula(rng, language, depth):
    # Bot is common, so the printer's "~" and "true" sugar is too
    if depth == 0 or rng.random() < 0.2:
        return Bot(language) if rng.random() < 0.3 else Var(rng.choice("pqr"), language)
    unary = _UNARY_BUILDERS[language]
    build = rng.choice(unary + _BINARY_BUILDERS[language])
    if build in unary:
        return build(_random_formula(rng, language, depth - 1))
    return build(_random_formula(rng, language, depth - 1),
                 _random_formula(rng, language, depth - 1))


def _random_text(rng):
    tokens = [_random_token(rng) for _ in range(rng.randint(0, 14))]
    glue = rng.choice(["", " ", None])
    if glue is None:
        return "".join(tok + rng.choice(["", " "]) for tok in tokens)
    return glue.join(tokens)


_INFIX_TOKENS = ["&", "|", "->", "<->", "~>"]
_PREFIX_TOKENS = ["~", "[]", "[I]", "[M]"]


def _well_formed_tokens(rng, depth):
    # operand (infix operand)*, any infix in any order: always well formed
    # when every connective is in the language, with no regard to binding
    def operand(depth):
        roll = rng.random()
        if depth == 0 or roll < 0.4:
            return [rng.choice(["p", "q", "r", "true", "false"])]
        if roll < 0.65:
            return [rng.choice(_PREFIX_TOKENS)] + operand(depth - 1)
        return ["("] + expr(depth - 1) + [")"]

    def expr(depth):
        out = operand(depth)
        for _ in range(rng.randint(0, 3)):
            out += [rng.choice(_INFIX_TOKENS)] + operand(depth)
        return out

    return expr(depth)


def _mutated_text(rng):
    # a well-formed text with up to two tokens deleted, inserted or
    # replaced, so many inputs parse and the rest fail late
    tokens = _well_formed_tokens(rng, 3)
    for _ in range(rng.randint(0, 2)):
        at = rng.randrange(len(tokens) + 1)
        action = rng.randrange(3)
        if action == 0 and at < len(tokens):
            del tokens[at]
        elif action == 1:
            tokens.insert(at, _random_token(rng))
        elif at < len(tokens):
            tokens[at] = _random_token(rng)
    return " ".join(tokens)


class TestAgainstReferenceParser:
    """The table-driven parser and printer against the ones they replaced:
    the same formula with the same hash, or the same error at the same
    place."""

    def test_random_token_strings(self):
        rng = random.Random(8)
        for _ in range(12000):
            _agree(_random_text(rng), rng.choice(_LANGUAGES))

    def test_mutated_well_formed_texts(self):
        rng = random.Random(9)
        for _ in range(8000):
            _agree(_mutated_text(rng), rng.choice(_LANGUAGES))

    def test_printed_formulas(self):
        rng = random.Random(10)
        for _ in range(6000):
            language = rng.choice(_LANGUAGES)
            f = _random_formula(rng, language, rng.randint(1, 6))
            printed = print_formula(f)
            assert printed == _reference_render(f)[0]
            parsed = _agree(printed, language)
            assert parsed == f and hash(parsed) == hash(f)


def _rebuilt(f, store):
    # a copy of ``f`` whose nodes get their five attributes from ``store``
    args = tuple(_rebuilt(a, store) for a in f.args)
    node = object.__new__(Formula)
    store(node, [("op", f.op), ("args", args), ("name", f.name), ("language", f.language),
                 ("_hash", hash((f.op, args, f.name)))])
    return node


def _hashed_after_birth(node, attrs):
    # the four fields stored as the dataclass constructor stores them, and
    # the hash later, after a read of ``__dict__``: nodes once hashed while
    # ``__hash__`` filled the hash in on first use
    for attr, value in attrs[:4]:
        object.__setattr__(node, attr, value)
    assert node.__dict__.get("_hash") is None
    object.__setattr__(node, *attrs[4])


def _through_dict(node, attrs):
    node.__dict__.update(attrs)


def _traced_bytes(build, copies=200):
    tracemalloc.start()
    try:
        kept = [build() for _ in range(copies)]
        size, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(kept) == copies
    return size


class TestNodeMemory:
    def test_parsed_nodes_take_the_fewest_bytes(self):
        # one-letter names are interned by the interpreter, and the text has
        # no ``true`` or ``<->``, whose parses share nodes, so every side
        # allocates the same nodes, tuples and hash ints, and the sides
        # differ in the attribute store alone
        text = "((p ~> q) & (q ~> r) -> (p ~> r)) | ~(p & ~(q | false)) -> (r ~> ~p)"
        f = parse(text)

        def parsed():
            g = parse(text)
            hash(g)
            return g

        parsed = _traced_bytes(parsed)
        for store in (_hashed_after_birth, _through_dict):
            assert _rebuilt(f, store) == f
        assert parsed <= _traced_bytes(lambda: _rebuilt(f, _hashed_after_birth))
        if sys.version_info >= (3, 11):
            # since 3.11 attribute values are kept inline until ``__dict__``
            # is read, so a write through it costs a dict per node
            assert parsed < _traced_bytes(lambda: _rebuilt(f, _through_dict))
