"""Formula ASTs, grammar, parsing, printing and substitution.

Three object languages share one AST type: the conditional language with a
binary arrow written ``~>``, the unimodal language with a box ``[]`` and
the classical bimodal language with two boxes ``[I]`` and ``[M]``.

Negation, truth and the biconditional are abbreviations, never AST nodes:
``~a`` parses to ``a -> false``, ``true`` to ``false -> false`` and
``a <-> b`` to ``(a -> b) & (b -> a)``.  The printer re-sugars ``~`` and
``true`` (and only those), so print-then-parse is the identity on ASTs.

Grammar (whitespace insignificant between tokens)::

    formula := imp
    imp     := iff ("->" imp)?
    iff     := cond ("<->" cond)*
    cond    := disj ("~>" cond)?
    disj    := conj ("|" conj)*
    conj    := unary ("&" unary)*
    unary   := ("~" | "[]" | "[I]" | "[M]") unary | atom
    atom    := "true" | "false" | ident | "(" formula ")"

Binding, tightest first: prefixes, ``&``, ``|``, ``~>``, ``<->``, ``->``;
``->`` and ``~>`` associate to the right, ``&`` and ``|`` to the left.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from typing import Mapping, Optional

from .errors import LanguageError, ParseError


class Language(enum.Enum):
    COND = "cond"
    MODAL = "modal"
    BIMODAL = "bimodal"


_COMMON_OPS = frozenset({"var", "bot", "and", "or", "imp"})

ALLOWED_OPS = {
    Language.COND: _COMMON_OPS | {"cond"},
    Language.MODAL: _COMMON_OPS | {"box"},
    Language.BIMODAL: _COMMON_OPS | {"boxi", "boxm"},
}

_ARITY = {
    "var": 0,
    "bot": 0,
    "and": 2,
    "or": 2,
    "imp": 2,
    "cond": 2,
    "box": 1,
    "boxi": 1,
    "boxm": 1,
}

KEYWORDS = frozenset({"true", "false"})

IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


@dataclass(frozen=True)
class Formula:
    """Immutable formula node; safe to share between parallel workers."""

    op: str
    args: tuple = ()
    name: Optional[str] = None
    language: Language = Language.COND

    def __post_init__(self):
        if self.op not in _ARITY:
            raise LanguageError(f"unknown connective {self.op!r}")
        if self.op not in ALLOWED_OPS[self.language]:
            raise LanguageError(
                f"connective {self.op!r} is not in the {self.language.value} language"
            )
        if len(self.args) != _ARITY[self.op]:
            raise LanguageError(f"{self.op!r} expects {_ARITY[self.op]} arguments")
        for sub in self.args:
            if sub.language is not self.language:
                raise LanguageError("mixed languages in one formula")
        if self.op == "var":
            if not self.name or not IDENT_RE.match(self.name) or self.name in KEYWORDS:
                raise LanguageError(f"bad proposition letter {self.name!r}")

    def __str__(self) -> str:
        return print_formula(self)

    def __repr__(self) -> str:
        return f"Formula({print_formula(self)!r}, {self.language.value})"

    def __hash__(self) -> int:
        # structural hash, cached per node: formulas sit in hot dict lookups
        got = self.__dict__.get("_hash")
        if got is None:
            got = hash((self.op, self.args, self.name, self.language))
            object.__setattr__(self, "_hash", got)
        return got


# Node builders.  All derived forms go through these so the language
# invariant is checked in one place.

def Var(name: str, language: Language = Language.COND) -> Formula:
    return Formula("var", (), name, language)


def Bot(language: Language = Language.COND) -> Formula:
    return Formula("bot", (), None, language)


def And(left: Formula, right: Formula) -> Formula:
    return Formula("and", (left, right), None, left.language)


def Or(left: Formula, right: Formula) -> Formula:
    return Formula("or", (left, right), None, left.language)


def Imp(left: Formula, right: Formula) -> Formula:
    return Formula("imp", (left, right), None, left.language)


def Cond(left: Formula, right: Formula) -> Formula:
    return Formula("cond", (left, right), None, left.language)


def Box(arg: Formula) -> Formula:
    return Formula("box", (arg,), None, arg.language)


def BoxI(arg: Formula) -> Formula:
    return Formula("boxi", (arg,), None, arg.language)


def BoxM(arg: Formula) -> Formula:
    return Formula("boxm", (arg,), None, arg.language)


def Neg(arg: Formula) -> Formula:
    return Imp(arg, Bot(arg.language))


def Top(language: Language = Language.COND) -> Formula:
    return Imp(Bot(language), Bot(language))


def Iff(left: Formula, right: Formula) -> Formula:
    return And(Imp(left, right), Imp(right, left))


_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)"
    r"|(?P<iff><->)"
    r"|(?P<imp>->)"
    r"|(?P<cond>~>)"
    r"|(?P<neg>~)"
    r"|(?P<and>&)"
    r"|(?P<or>\|)"
    r"|(?P<boxi>\[I\])"
    r"|(?P<boxm>\[M\])"
    r"|(?P<box>\[\])"
    r"|(?P<lpar>\()"
    r"|(?P<rpar>\))"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<bad>.)",  # anything else, so the matches tile the text
    re.DOTALL,
)

_PREFIX_OP = {"neg": None, "box": "box", "boxi": "boxi", "boxm": "boxm"}


def _tokenize(text: str):
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "ws":
            continue
        if kind == "bad":
            raise ParseError(f"unexpected character {m.group()!r}", m.start())
        tokens.append((kind, m.group(), m.start()))
    tokens.append(("eof", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, language: Language):
        self.text = text
        self.language = language
        self.tokens = _tokenize(text)
        self.idx = 0

    def peek(self):
        return self.tokens[self.idx]

    def advance(self):
        tok = self.tokens[self.idx]
        self.idx += 1
        return tok

    def expect(self, kind: str):
        tok = self.peek()
        if tok[0] != kind:
            raise ParseError(f"expected {kind}, found {tok[1] or 'end of input'!r}", tok[2])
        return self.advance()

    def check_connective(self, op: str, pos: int):
        if op not in ALLOWED_OPS[self.language]:
            raise LanguageError(
                f"connective for {op!r} is not in the {self.language.value} "
                f"language (at position {pos})"
            )

    def parse_formula(self) -> Formula:
        return self.parse_imp()

    def parse_imp(self) -> Formula:
        left = self.parse_iff()
        if self.peek()[0] == "imp":
            self.advance()
            right = self.parse_imp()
            return Imp(left, right)
        return left

    def parse_iff(self) -> Formula:
        left = self.parse_cond()
        while self.peek()[0] == "iff":
            self.advance()
            right = self.parse_cond()
            left = Iff(left, right)
        return left

    def parse_cond(self) -> Formula:
        left = self.parse_disj()
        if self.peek()[0] == "cond":
            pos = self.peek()[2]
            self.check_connective("cond", pos)
            self.advance()
            right = self.parse_cond()
            return Cond(left, right)
        return left

    def parse_disj(self) -> Formula:
        left = self.parse_conj()
        while self.peek()[0] == "or":
            self.advance()
            left = Or(left, self.parse_conj())
        return left

    def parse_conj(self) -> Formula:
        left = self.parse_unary()
        while self.peek()[0] == "and":
            self.advance()
            left = And(left, self.parse_unary())
        return left

    def parse_unary(self) -> Formula:
        kind, _text, pos = self.peek()
        if kind in _PREFIX_OP:
            if kind != "neg":
                self.check_connective(_PREFIX_OP[kind], pos)
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

    def parse_atom(self) -> Formula:
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


def parse(text: str, language: Language = Language.COND) -> Formula:
    """Parse ``text`` into a formula of ``language``.

    Raises :class:`ParseError` on malformed input and :class:`LanguageError`
    when a connective does not belong to ``language``.
    """
    if not text or not text.strip():
        raise ParseError("empty input", 0)
    parser = _Parser(text, language)
    result = parser.parse_formula()
    kind, tok, pos = parser.peek()
    if kind != "eof":
        raise ParseError(f"unexpected trailing input {tok!r}", pos)
    return result


# Printer precedence levels; anything >= _ATOM never needs parentheses.
_PREC_IMP = 10
_PREC_COND = 30
_PREC_OR = 40
_PREC_AND = 50
_PREC_UNARY = 60
_PREC_ATOM = 70

_PREFIX_TEXT = {"box": "[]", "boxi": "[I]", "boxm": "[M]"}


def _render(f: Formula):
    """Return (text, precedence) with minimal parentheses."""
    if f.op == "var":
        return f.name, _PREC_ATOM
    if f.op == "bot":
        return "false", _PREC_ATOM
    if f.op == "imp":
        left, right = f.args
        if left.op == "bot" and right.op == "bot":
            return "true", _PREC_ATOM
        if right.op == "bot":
            s, p = _render(left)
            if p < _PREC_UNARY:
                s = f"({s})"
            return f"~{s}", _PREC_UNARY
        return _binary(left, right, "->", _PREC_IMP, right_assoc=True)
    if f.op == "cond":
        return _binary(f.args[0], f.args[1], "~>", _PREC_COND, right_assoc=True)
    if f.op == "or":
        return _binary(f.args[0], f.args[1], "|", _PREC_OR, right_assoc=False)
    if f.op == "and":
        return _binary(f.args[0], f.args[1], "&", _PREC_AND, right_assoc=False)
    # prefix boxes
    s, p = _render(f.args[0])
    if p < _PREC_UNARY:
        s = f"({s})"
    return f"{_PREFIX_TEXT[f.op]}{s}", _PREC_UNARY


def _binary(left, right, sym, prec, right_assoc):
    ls, lp = _render(left)
    rs, rp = _render(right)
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


def print_formula(f: Formula) -> str:
    """Minimal-parenthesis rendering; ``parse(print_formula(f)) == f``."""
    return _render(f)[0]


def substitute(f: Formula, mapping: Mapping[str, Formula]) -> Formula:
    """Simultaneous uniform substitution of proposition letters.

    Every replacement formula must share ``f``'s language.
    """
    for name, g in mapping.items():
        if g.language is not f.language:
            raise LanguageError(
                f"replacement for {name!r} is in the {g.language.value} language, "
                f"formula is in {f.language.value}"
            )
    def go(node: Formula) -> Formula:
        if node.op == "var":
            return mapping.get(node.name, node)
        if not node.args:
            return node
        return Formula(node.op, tuple(go(a) for a in node.args), None, node.language)

    return go(f)


def proposition_letters(f: Formula) -> frozenset:
    """The exact set of proposition letters occurring in ``f``."""
    out = set()
    stack = [f]
    while stack:
        node = stack.pop()
        if node.op == "var":
            out.add(node.name)
        stack.extend(node.args)
    return frozenset(out)
