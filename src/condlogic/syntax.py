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

The grammar is the language's specification.  The code holds it as one
table of infix rows (symbol, precedence, associativity) and one of
prefixes; the precedence-climbing parser and the minimal-parenthesis
printer both read those tables, so they cannot disagree.

Every node stores its structural hash when it is built, so hashing a
formula, as every memo lookup does, reads one attribute.  The public
builders and ``Formula(...)`` check each node.  The parser builds its nodes
unchecked, through one builder, since its grammar already ensures what
those checks test.  A pickled formula is rebuilt through the checked
constructor, because string hashes differ from process to process.
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

_new = object.__new__
_store = object.__setattr__


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
        # structural hash, stored at birth: formulas sit in hot dict lookups.
        # The language is left out: equal nodes share it, and an enum member
        # hashes through a Python-level call.  ``_node`` hashes alike.
        _store(self, "_hash", hash((self.op, self.args, self.name)))

    def __str__(self) -> str:
        return print_formula(self)

    def __repr__(self) -> str:
        return f"Formula({print_formula(self)!r}, {self.language.value})"

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # rebuild through the constructor: string hashes are salted per
        # process, so a stored hash must not travel in a pickle
        return Formula, (self.op, self.args, self.name, self.language)


# Node builders.  Every node built outside the parser goes through these,
# so the checks of ``Formula.__post_init__`` run in one place.  The parser
# builds its nodes unchecked, with ``_node``.  Either way a node stores its
# hash when it is built.

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


def _node(op: str, args: tuple, name: Optional[str], language: Language) -> Formula:
    """A node built without the checks of ``Formula.__post_init__``.

    Only :func:`parse` calls it, through its tables: the grammar, ``take``
    and the tokenizer already ensure the arity, one language throughout and
    a legal letter that is not a keyword.  All five attributes are stored
    with ``object.__setattr__``; a write through ``node.__dict__`` would
    turn the compact attribute store into a full dict per node.
    """
    node = _new(Formula)
    _store(node, "op", op)
    _store(node, "args", args)
    _store(node, "name", name)
    _store(node, "language", language)
    _store(node, "_hash", hash((op, args, name)))
    return node


def _binary(op: str):
    return lambda left, right: _node(op, (left, right), None, left.language)


def _unary(op: str):
    return lambda arg: _node(op, (arg,), None, arg.language)


def _neg(arg: Formula) -> Formula:
    return _node("imp", (arg, _node("bot", (), None, arg.language)), None, arg.language)


def _iff(left: Formula, right: Formula) -> Formula:
    language = left.language
    return _node("and", (_node("imp", (left, right), None, language),
                         _node("imp", (right, left), None, language)), None, language)


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

# Concrete syntax of the connectives, read by both the parser and the printer.
# Infix: token kind -> (symbol, precedence, right-associative, builder); a
# higher precedence binds tighter.  ``iff`` is sugar, so only the parser
# reads its row; the other kinds are also the node ops they build.  The
# builders are the parser's unchecked ones.
_INFIX = {
    "imp": ("->", 10, True, _binary("imp")),
    "iff": ("<->", 20, False, _iff),
    "cond": ("~>", 30, True, _binary("cond")),
    "or": ("|", 40, False, _binary("or")),
    "and": ("&", 50, False, _binary("and")),
}

# Prefix: token kind -> (symbol, builder); all bind tighter than any infix.
_PREFIX = {"neg": ("~", _neg), "box": ("[]", _unary("box")),
           "boxi": ("[I]", _unary("boxi")), "boxm": ("[M]", _unary("boxm"))}

_PREC_UNARY = 60
_PREC_ATOM = 70  # never needs parentheses

# The operator tokens each language accepts: its connectives plus the sugar.
_ACCEPTS = {lang: ops | {"iff", "neg"} for lang, ops in ALLOWED_OPS.items()}


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


def parse(text: str, language: Language = Language.COND) -> Formula:
    """Parse ``text`` into a formula of ``language``.

    Raises :class:`ParseError` on malformed input and :class:`LanguageError`
    when a connective does not belong to ``language``.
    """
    if not text or not text.strip():
        raise ParseError("empty input", 0)
    tokens = _tokenize(text)
    accepts = _ACCEPTS[language]
    at = 0

    def take(kind, pos):
        # consume an operator token, refusing connectives outside the language
        nonlocal at
        if kind not in accepts:
            raise LanguageError(
                f"connective for {kind!r} is not in the {language.value} "
                f"language (at position {pos})"
            )
        at += 1

    def binary(min_prec: int) -> Formula:
        # precedence climbing: fold infix operators binding at least min_prec
        left = unary()
        while True:
            kind, _tok, pos = tokens[at]
            row = _INFIX.get(kind)
            if row is None or row[1] < min_prec:
                return left
            _sym, prec, right_assoc, build = row
            take(kind, pos)
            left = build(left, binary(prec if right_assoc else prec + 1))

    def unary() -> Formula:
        nonlocal at
        kind, tok, pos = tokens[at]
        if kind in _PREFIX:
            take(kind, pos)
            return _PREFIX[kind][1](unary())
        if kind == "ident":
            at += 1
            if tok == "false":
                return _node("bot", (), None, language)
            if tok == "true":
                bot = _node("bot", (), None, language)
                return _node("imp", (bot, bot), None, language)
            return _node("var", (), tok, language)
        if kind == "lpar":
            at += 1
            inner = binary(0)
            kind, tok, pos = tokens[at]
            if kind != "rpar":
                raise ParseError(f"expected rpar, found {tok or 'end of input'!r}", pos)
            at += 1
            return inner
        raise ParseError(f"expected an atom, found {tok or 'end of input'!r}", pos)

    result = binary(0)
    kind, tok, pos = tokens[at]
    if kind != "eof":
        raise ParseError(f"unexpected trailing input {tok!r}", pos)
    return result


def _render(f: Formula):
    """Return (text, precedence) with minimal parentheses."""
    op, args = f.op, f.args
    if op == "var":
        return f.name, _PREC_ATOM
    if op == "bot":
        return "false", _PREC_ATOM
    if op in _PREFIX:
        sym, arg = _PREFIX[op][0], args[0]
    elif op == "imp" and args[1].op == "bot":
        if args[0].op == "bot":
            return "true", _PREC_ATOM
        sym, arg = _PREFIX["neg"][0], args[0]
    else:
        # parenthesise an operand the parser would not read back in place:
        # binary() reads a right operand down to prec (right-associative)
        # or prec + 1, and a left operand of equal prec only when the
        # operator associates to the left
        sym, prec, right_assoc, _build = _INFIX[op]
        ls, lp = _render(args[0])
        rs, rp = _render(args[1])
        if lp < (prec + 1 if right_assoc else prec):
            ls = f"({ls})"
        if rp < (prec if right_assoc else prec + 1):
            rs = f"({rs})"
        return f"{ls} {sym} {rs}", prec
    s, p = _render(arg)
    if p < _PREC_UNARY:
        s = f"({s})"
    return f"{sym}{s}", _PREC_UNARY


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
