"""Box-to-conditional and box-to-bimodal syntactic translations.

The letter translation replaces every box with a conditional whose fixed
antecedent is one chosen proposition letter; a boxed formula then speaks
about the single relation the letter's value selects, which is what the
restriction-lemma checkers verify semantically.

The classical two-box translation is emitted literally, clause by clause,
with no simplification; an optional normalization pass collapses doubled
interior boxes, nothing else.  Bimodal output is printed, never evaluated:
there is no classical bimodal semantics in this package.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from .errors import LanguageError
from .frames import ConditionalFrame, GeneralFrame, restrict
from .order import mask_to_key
from .semantics import check, check_modal, valid, valid_modal
from .syntax import Bot, BoxI, BoxM, Cond, Formula, Language, Var, proposition_letters

# Mixing axiom of the companion logic, recorded as documentation only: the
# inner bare box makes it ill-formed in the two-box language, so it is kept
# as a string rather than an AST.
MIX_AXIOM = "[I][M][]q <-> [M]q"

# read per node as module globals, not through the enum class (see semantics._COND)
_COND = Language.COND
_MODAL = Language.MODAL
_BIMODAL = Language.BIMODAL


def p_translate(f: Formula, letter: str) -> Formula:
    """Replace every box by a conditional with antecedent ``letter``.

    Homomorphic on everything else; the result lives in the conditional
    language.  ``letter`` is checked first, whether or not ``f`` has a box.
    """
    antecedent = Var(letter, _COND)
    if f.language is not _MODAL:
        raise LanguageError("the letter translation takes box-language formulas")

    def go(node: Formula) -> Formula:
        op = node.op
        if op == "var":
            return Var(node.name, _COND)
        if op == "bot":
            return Bot(_COND)
        if op == "box":
            return Cond(antecedent, go(node.args[0]))
        # and, or, imp: the same connective over the translated arguments
        return Formula(op, (go(node.args[0]), go(node.args[1])), None, _COND)

    return go(f)


def gmt_translate(f: Formula, normalize: bool = False) -> Formula:
    """Literal clause-by-clause two-box translation of a box-language formula.

    With ``normalize`` the only rewriting applied afterwards is collapsing
    an interior box doubled with itself.
    """
    if f.language is not _MODAL:
        raise LanguageError("the two-box translation takes box-language formulas")

    def go(node: Formula) -> Formula:
        op = node.op
        if op == "var":
            return BoxI(Var(node.name, _BIMODAL))
        if op == "bot":
            return BoxI(Bot(_BIMODAL))
        if op == "box":
            return BoxI(BoxM(go(node.args[0])))
        # and, or, imp: the same connective over the translated arguments, boxed
        return BoxI(Formula(op, (go(node.args[0]), go(node.args[1])), None, _BIMODAL))

    out = go(f)
    if normalize:
        out = _collapse_boxi(out)
    return out


def _collapse_boxi(f: Formula) -> Formula:
    args = tuple(_collapse_boxi(a) for a in f.args)
    node = Formula(f.op, args, f.name, f.language) if args else f
    if node.op == "boxi" and node.args[0].op == "boxi":
        return node.args[0]
    return node


def check_restriction_lemma(frame: GeneralFrame, valuation: Dict[str, int],
                            phi: Formula, letter: str, world: int) -> bool:
    """Evaluate the translated formula on the frame and the plain formula on
    the restriction selected by the letter's value; they must agree.

    Disagreement is raised, not returned: the agreement is a theorem, so a
    mismatch signals a semantics bug.
    """
    if letter not in valuation:
        raise LanguageError(f"valuation does not define the antecedent letter {letter!r}")
    translated = p_translate(phi, letter)
    lhs = check(frame, valuation, translated, world)
    modal_frame = restrict(frame, valuation[letter])
    modal_valuation = {k: v for k, v in valuation.items() if k in proposition_letters(phi)}
    rhs = check_modal(modal_frame, modal_valuation, phi, world)
    if lhs != rhs:
        raise AssertionError(
            f"restriction lemma broke at world {world} with antecedent value "
            f"{{{mask_to_key(valuation[letter])}}}: {lhs} vs {rhs}"
        )
    return lhs


@dataclass
class T2Report:
    translated_valid: bool
    restrictions_valid: bool

    @property
    def agree(self) -> bool:
        return self.translated_valid == self.restrictions_valid


def check_t2(frame: ConditionalFrame, phi: Formula, letter: str) -> T2Report:
    """Translated formula valid on the full frame iff the plain formula is
    valid on every restriction.  The letter must not occur in the formula."""
    if letter in proposition_letters(phi):
        raise LanguageError(f"letter {letter!r} occurs in the formula")
    if not frame.is_full:
        raise LanguageError("the validity biconditional needs a full frame")
    translated = p_translate(phi, letter)
    lhs = valid(frame, translated).valid
    rhs = all(
        valid_modal(restrict(frame, a), phi).valid
        for a in frame.order.upsets
    )
    return T2Report(lhs, rhs)
