import itertools
import operator
import random
import re
from functools import reduce

import pytest

from condlogic import semantics
from condlogic.catalog import AXIOMS
from condlogic.errors import BudgetExceededError, LanguageError, NotAdmissibleError
from condlogic.frames import GeneralFrame, ModalFrame, restrict
from condlogic.generate import (
    enumerate_full_frames,
    random_formula,
    random_full_frame,
    random_general_frame,
)
from condlogic.order import TABLE_WORLDS, FinitePreorder, box, heyting_imp, is_upset, set_bits
from condlogic.semantics import (
    DEFAULT_BUDGET,
    Verdict,
    check,
    check_modal,
    compile_formula,
    truth_set,
    truth_set_modal,
    valid,
    valid_modal,
    valuation_from_json,
    valuation_to_json,
)
from condlogic.syntax import And, Bot, Cond, Imp, Language, Var, parse, substitute

from conftest import full_frame, general_frame, m


def naive_truth(frame, v, f):
    """Independent clause-by-clause oracle, one world at a time."""
    p = frame.order

    def sat(x, node):
        op = node.op
        if op == "var":
            return bool((v[node.name] >> x) & 1)
        if op == "bot":
            return False
        if op == "and":
            return sat(x, node.args[0]) and sat(x, node.args[1])
        if op == "or":
            return sat(x, node.args[0]) or sat(x, node.args[1])
        if op == "imp":
            return all(
                not sat(y, node.args[0]) or sat(y, node.args[1])
                for y in range(p.n)
                if p.leq(x, y)
            )
        # cond: every successor under the relation at the antecedent's
        # truth set satisfies the consequent
        antecedent = naive_truth(frame, v, node.args[0])
        rows = frame.rel(antecedent)
        return all(
            sat(y, node.args[1]) for y in range(p.n) if (rows[x] >> y) & 1
        )

    out = 0
    for x in range(p.n):
        if sat(x, f):
            out |= 1 << x
    return out


class TestTruthSet:
    def test_cond_top_is_everything(self, rng):
        f = parse("p ~> true")
        for _ in range(30):
            frame = random_full_frame(rng, rng.choice([1, 2, 3]))
            ups = frame.order.upsets
            v = {"p": ups[rng.randrange(len(ups))]}
            assert truth_set(frame, v, f) == frame.order.full_mask

    def test_one_world_empty_relations(self, single):
        frame = full_frame(single)
        v = {"p": m(0), "q": 0}
        assert truth_set(frame, v, parse("p ~> q")) == m(0)
        assert truth_set(frame, v, parse("p -> q")) == 0

    def test_double_negation_on_chain(self, chain2):
        frame = full_frame(chain2)
        v = {"p": m(1)}
        assert naive_truth(frame, v, parse("~p")) == 0
        assert naive_truth(frame, v, parse("~~p")) == m(0, 1)
        assert truth_set(frame, v, parse("~p")) == 0
        assert truth_set(frame, v, parse("~~p")) == m(0, 1)

    def test_agrees_with_naive_oracle(self, rng):
        for _ in range(400):
            frame = random_full_frame(rng, rng.choice([2, 3]))
            f = random_formula(rng, Language.COND, ["p", "q"], 3)
            ups = frame.order.upsets
            v = {s: ups[rng.randrange(len(ups))] for s in ("p", "q")}
            assert truth_set(frame, v, f) == naive_truth(frame, v, f)

    def test_truth_sets_are_upsets(self, rng):
        # monotonicity of the semantics, randomized
        for _ in range(10_000):
            frame = random_full_frame(rng, rng.choice([2, 3]))
            f = random_formula(rng, Language.COND, ["p", "q"], 3)
            ups = frame.order.upsets
            v = {s: ups[rng.randrange(len(ups))] for s in ("p", "q")}
            assert is_upset(frame.order, truth_set(frame, v, f))

    def test_missing_letter(self, single):
        frame = full_frame(single)
        with pytest.raises(NotAdmissibleError):
            truth_set(frame, {}, parse("p"))

    def test_language_mismatch(self, single):
        frame = full_frame(single)
        with pytest.raises(LanguageError):
            truth_set(frame, {"p": 0}, parse("[]p", Language.MODAL))

    def test_non_admissible_valuation_rejected(self, anti2):
        g = general_frame(anti2, (0, m(0, 1)), {0: (0, 0), m(0, 1): (0, 0)})
        with pytest.raises(NotAdmissibleError):
            truth_set(g, {"p": m(0)}, parse("p"))


class TestCheck:
    def test_bot_never_holds(self, rng):
        frame = random_full_frame(rng, 2)
        assert not check(frame, {}, parse("false"), 0)

    def test_kc_instance_everywhere(self, rng):
        kc = parse("(p ~> q & r) <-> (p ~> q) & (p ~> r)")
        for _ in range(50):
            frame = random_full_frame(rng, rng.choice([2, 3]))
            ups = frame.order.upsets
            v = {s: ups[rng.randrange(len(ups))] for s in ("p", "q", "r")}
            for x in range(frame.n):
                assert check(frame, v, kc, x)

    def test_one_world_countermodel_refutes_mpp(self, single):
        frame = full_frame(single)
        v = {"p": m(0), "q": 0}
        assert not check(frame, v, parse("(p ~> q) -> (p -> q)"), 0)


class TestValid:
    def test_kc_nc_sound(self, rng):
        kc = parse("(p ~> q & r) <-> (p ~> q) & (p ~> r)")
        nc = parse("(p ~> true) <-> true")
        for _ in range(60):
            frame = random_full_frame(rng, rng.choice([1, 2, 3]))
            assert valid(frame, kc).valid
            assert valid(frame, nc).valid

    def test_id_refuted_by_empty_antecedent(self, single):
        frame = full_frame(single, {0: (m(0),)})
        verdict = valid(frame, parse("p ~> p"))
        assert not verdict.valid
        assert verdict.valuation == {"p": 0}
        assert verdict.world == 0
        # confirm via an exhaustive direct scan
        assert not check(frame, {"p": 0}, parse("p ~> p"), 0)

    def test_countermodel_is_first_in_order(self, single):
        # valuations enumerate letter-major with upsets ascending, so the
        # mpp refutation below must report p={0}, q=empty
        frame = full_frame(single)
        verdict = valid(frame, parse("(p ~> q) -> (p -> q)"))
        assert (verdict.valuation, verdict.world) == ({"p": m(0), "q": 0}, 0)

    def test_general_validity_quantifies_admissibly(self, anti2):
        # the relation at X is identity, so id holds on admissible A={0,X}
        g = general_frame(anti2, (0, m(0, 1)),
                          {0: (0, 0), m(0, 1): (m(0), m(1))})
        assert valid(g, parse("p ~> p")).valid
        # the full closure of the same order can refute it: on the full
        # frame with the same rows everywhere, V(p)={0} breaks id
        f = full_frame(anti2, {a: (m(0), m(1)) for a in anti2.upsets})
        assert not valid(f, parse("p ~> p")).valid

    def test_full_frame_as_general_agrees(self, rng):
        f = parse("(p ~> q) -> (p -> q)")
        for _ in range(40):
            cf = random_full_frame(rng, rng.choice([2, 3]))
            gf = GeneralFrame(cf.order, tuple(cf.order.upsets), dict(cf.relations))
            assert valid(cf, f).valid == valid(gf, f).valid

    def test_budget(self, rng):
        frame = random_full_frame(rng, 3)
        with pytest.raises(BudgetExceededError):
            valid(frame, parse("p ~> q"), budget=5)


class TestCongruence:
    def test_equal_truth_sets_substitute_under_cond(self, rng):
        for _ in range(300):
            frame = random_full_frame(rng, rng.choice([2, 3]))
            ups = frame.order.upsets
            v = {s: ups[rng.randrange(len(ups))] for s in ("p", "q", "r")}
            phi = random_formula(rng, Language.COND, ["p", "q"], 2)
            psi = random_formula(rng, Language.COND, ["p", "q"], 2)
            chi = Var("r")
            if truth_set(frame, v, phi) != truth_set(frame, v, psi):
                continue
            assert truth_set(frame, v, Cond(phi, chi)) == truth_set(frame, v, Cond(psi, chi))
            assert truth_set(frame, v, Cond(chi, phi)) == truth_set(frame, v, Cond(chi, psi))

    def test_cond_monotone_in_second_argument(self, rng):
        # semantic form of monotonicity of the conditional's consequent
        for _ in range(300):
            frame = random_full_frame(rng, rng.choice([2, 3]))
            ups = frame.order.upsets
            a = ups[rng.randrange(len(ups))]
            b = a | ups[rng.randrange(len(ups))]
            c = ups[rng.randrange(len(ups))]
            assert not frame.dto(c, a) & ~frame.dto(c, b)


class TestModal:
    def test_box_distributes_over_meet(self, rng):
        f = parse("[](p & q) <-> []p & []q", Language.MODAL)
        for _ in range(60):
            cf = random_full_frame(rng, rng.choice([2, 3]))
            mf = restrict(cf, cf.order.full_mask)
            assert valid_modal(mf, f).valid

    def test_empty_relation_validates_box_bot(self, chain2):
        mf = ModalFrame(chain2, (0, 0))
        assert valid_modal(mf, parse("[]false", Language.MODAL)).valid

    def test_box_clause_pointwise(self, chain2):
        mf = ModalFrame(chain2, (m(1), m(1)))
        v = {"p": m(1)}
        assert truth_set_modal(mf, v, parse("[]p", Language.MODAL)) == m(0, 1)
        assert check_modal(mf, v, parse("[]p", Language.MODAL), 0)

    def test_exhaustive_scan_decides(self, chain2):
        # the scan is the oracle for this frame-formula pair
        mf = ModalFrame(chain2, (m(0), 0))
        verdict = valid_modal(mf, parse("p -> []p", Language.MODAL))
        naive = all(
            not ((v >> x) & 1) or all(
                (v >> y) & 1 for y in range(2) if (mf.rel[x] >> y) & 1
            )
            for v in chain2.upsets
            for x in range(2)
        )
        assert verdict.valid == naive


class TestValuationJson:
    def test_round_trip(self, chain2):
        f = full_frame(chain2)
        v = {"p": m(1), "q": 0}
        assert valuation_from_json(valuation_to_json(v), f) == v

    def test_upset_validation(self, chain2):
        f = full_frame(chain2)
        with pytest.raises(NotAdmissibleError):
            valuation_from_json({"p": [0]}, f)  # {0} is not an upset of the chain

    def test_admissibility_validation(self, anti2):
        g = general_frame(anti2, (0, m(0, 1)), {0: (0, 0), m(0, 1): (0, 0)})
        with pytest.raises(NotAdmissibleError):
            valuation_from_json({"p": [0]}, g)


# --- the per-valuation scan the bit-sliced kernel replaced, kept as reference --


def reference_scan(order, pool, compiled, imp, modal, budget=DEFAULT_BUDGET):
    """Run the program once per valuation, in ``itertools.product`` order."""
    letters, program, result_slot, _ = compiled
    n = order.n
    required = len(pool) ** len(letters) * n
    if required > budget:
        raise BudgetExceededError(required, budget)
    full = order.full_mask
    fns = {"and": operator.and_, "or": operator.or_, "imp": imp}
    steps = [(fns.get(op, modal), left, right) for op, left, right in program]
    checked = 0
    for values in itertools.product(pool, repeat=len(letters)):
        buf = list(values)
        buf.append(0)
        for fn, left, right in steps:
            buf.append(fn(buf[left], buf[right]))
        ts = buf[result_slot]
        checked += n
        if ts != full:
            world = set_bits(full & ~ts)[0]
            return Verdict(False, dict(zip(letters, values)), world, checked)
    return Verdict(True, None, None, checked)


def _memo(fn):
    """Per-frame memo of a binary mask operation, as the old frames kept."""
    table = {}

    def memoised(a, b):
        got = table.get((a, b))
        if got is None:
            got = table[(a, b)] = fn(a, b)
        return got

    return memoised


def reference_valid(frame, f, budget=DEFAULT_BUDGET):
    order = frame.order
    return reference_scan(order, frame.admissible, compile_formula(f),
                          _memo(lambda a, b: heyting_imp(order, a, b)), _memo(frame.dto), budget)


def reference_valid_modal(mf, f, budget=DEFAULT_BUDGET):
    order = mf.order
    return reference_scan(order, order.upsets, compile_formula(f),
                          lambda a, b: heyting_imp(order, a, b), lambda a, b: box(mf.rel, b),
                          budget)


def reference_truth_set(frame, v, f):
    letters, program, result_slot, _ = compile_formula(f)
    fns = {"and": operator.and_, "or": operator.or_,
           "imp": lambda a, b: heyting_imp(frame.order, a, b)}
    buf = [v[name] for name in letters] + [0]
    for op, left, right in program:
        buf.append(fns.get(op, frame.dto)(buf[left], buf[right]))
    return buf[result_slot]


def verdict_fields(verdict):
    return verdict.valid, verdict.valuation, verdict.world, verdict.checked


def outcome(fn, *args):
    """The verdict's fields, or the type and message of the error raised."""
    try:
        return verdict_fields(fn(*args))
    except (BudgetExceededError, NotAdmissibleError) as exc:
        return type(exc), str(exc)


def random_frames(rng, count):
    """Seeded 3-5-world full and general frames with at most 20 admissible upsets."""
    out = []
    while len(out) < count:
        n = rng.choice((3, 4, 5))
        frame = (random_general_frame(rng, n) if rng.random() < 0.5
                 else random_full_frame(rng, n))
        if len(frame.admissible) <= 20:
            out.append(frame)
    return out


LETTERLESS = ("true", "false", "true ~> false", "(true ~> false) -> false",
              "~(false ~> false) | (true ~> true)")


@pytest.fixture
def narrow_chunks(monkeypatch):
    """Tiny chunks, which put chunk boundaries everywhere in short scans."""
    monkeypatch.setattr(semantics, "SINGLES", 2)
    monkeypatch.setattr(semantics, "GROWTH", 2)
    monkeypatch.setattr(semantics, "MAX_CHUNK", 16)
    semantics._plan.cache_clear()
    yield
    semantics._plan.cache_clear()


class TestKernelAgainstReference:
    """Verdict, first valuation, world and ``checked`` equal the per-valuation scan's."""

    def test_every_frame_of_at_most_two_worlds_and_every_axiom(self):
        # each frame's imp and dto tables are filled up front over its upsets,
        # every truth set of a full frame, and read by a two-level lookup
        formulas = [AXIOMS[key].formula for key in sorted(AXIOMS)]
        for frame in enumerate_full_frames(2):
            order = frame.order
            ups = order.upsets
            imps = {a: {b: heyting_imp(order, a, b) for b in ups} for a in ups}
            dtos = {a: {b: frame.dto(a, b) for b in ups} for a in ups}
            for f in formulas:
                want = reference_scan(order, frame.admissible, compile_formula(f),
                                      lambda a, b: imps[a][b], lambda a, b: dtos[a][b])
                assert verdict_fields(valid(frame, f)) == verdict_fields(want), (frame, f)

    def test_random_frames_and_formulas(self):
        rng = random.Random(7)
        letter_sets = (["p"], ["p", "q"], ["p", "q", "r"], ["p", "q", "r", "s"])
        for frame in random_frames(rng, 240):
            formulas = [parse(rng.choice(LETTERLESS))]
            for letters in letter_sets:
                if len(frame.admissible) ** len(letters) <= 20_000:
                    formulas.append(random_formula(rng, Language.COND, letters, 4))
            for f in formulas:
                assert verdict_fields(valid(frame, f)) == verdict_fields(reference_valid(frame, f))

    def test_four_letter_formulas_beyond_the_first_chunks(self):
        # k^4 valuations: the singles, the growing chunks and the tiles all run
        rng = random.Random(8)
        formulas = [parse("(p ~> q) & (r ~> s) -> (p ~> s) | (r ~> q)"),
                    parse("(p & q ~> r & s) -> (p ~> r)")]
        for frame in random_frames(rng, 30):
            for f in formulas + [random_formula(rng, Language.COND, ["p", "q", "r", "s"], 5)]:
                if len(frame.admissible) ** 4 <= 40_000:
                    got = valid(frame, f)
                    assert verdict_fields(got) == verdict_fields(reference_valid(frame, f))

    def test_valid_modal_on_restrictions(self):
        rng = random.Random(9)
        for frame in random_frames(rng, 120):
            mf = restrict(frame, frame.admissible[rng.randrange(len(frame.admissible))])
            for letters in (["q"], ["q", "r"], ["q", "r", "s"]):
                f = random_formula(rng, Language.MODAL, letters, 4)
                if len(mf.order.upsets) ** len(letters) <= 20_000:
                    assert (verdict_fields(valid_modal(mf, f))
                            == verdict_fields(reference_valid_modal(mf, f)))

    def test_truth_set_on_random_admissible_valuations(self):
        rng = random.Random(10)
        for frame in random_frames(rng, 300):
            f = random_formula(rng, Language.COND, ["p", "q", "r"], 4)
            v = {name: rng.choice(frame.admissible) for name in ("p", "q", "r")}
            assert truth_set(frame, v, f) == reference_truth_set(frame, v, f)

    @pytest.mark.parametrize("chunks", ["default", "narrow"])
    def test_frames_not_closed_under_the_connectives(self, chunks, request):
        # an antecedent whose truth set has no relation raises at the same
        # valuation as before, unless an earlier valuation refutes the formula
        if chunks == "narrow":
            request.getfixturevalue("narrow_chunks")
        rng = random.Random(11)
        for _ in range(400):
            n = rng.choice((2, 3))
            order = random_full_frame(rng, n).order
            ups = order.upsets
            admissible = {0, order.full_mask} | set(rng.sample(ups, rng.randrange(len(ups))))
            relations = {a: tuple(rng.randrange(1 << n) for _ in range(n)) for a in admissible}
            frame = GeneralFrame(order, tuple(admissible), relations)
            f = random_formula(rng, Language.COND, ["p", "q", "r"], 4)
            assert outcome(valid, frame, f) == outcome(reference_valid, frame, f)


def _minterm(letters, bits):
    """Refuted at exactly one valuation of a one-world frame: letter j true iff bit j."""
    literals = [Var(name) if bit else Imp(Var(name), Bot()) for name, bit in zip(letters, bits)]
    return Imp(reduce(And, literals), Bot())


class TestChunkBoundaries:
    LETTERS = [f"p{j:02d}" for j in range(16)]

    def boundaries(self, frame, count):
        """The first valuation of every chunk of a scan over ``count`` letters."""
        pool, n = frame.admissible, frame.n
        plan = semantics._plan(pool, n, count)
        widths = [width for width, _, _ in plan]
        total = len(pool) ** count
        starts = {semantics.SINGLES} | set(widths) | set(range(widths[-1], total, widths[-1]))
        return sorted(b for b in starts if 0 < b < total)

    def test_first_countermodel_on_either_side_of_every_boundary(self, single):
        frame = full_frame(single)  # pool (0, 1): valuation i sets letter j to bit j of i
        starts = self.boundaries(frame, len(self.LETTERS))
        assert len(starts) >= 3  # after the singles: two growing chunks and a tile
        # the tiles are the widest chunks a plane may hold: 2^15 valuations
        assert semantics._plan(frame.admissible, 1, 16)[-1][0] == semantics.MAX_CHUNK
        for index in sorted({0} | {b - 1 for b in starts} | set(starts) | {40_000, 65_535}):
            bits = [index >> (15 - j) & 1 for j in range(16)]
            verdict = valid(frame, _minterm(self.LETTERS, bits))
            assert verdict_fields(verdict) == (
                False, dict(zip(self.LETTERS, bits)), 0, index + 1)

    def test_valid_formula_scans_every_chunk(self, single):
        frame = full_frame(single)
        f = Imp(reduce(And, map(Var, self.LETTERS)), Var(self.LETTERS[0]))
        assert verdict_fields(valid(frame, f)) == (True, None, None, 1 << 16)

    def test_narrow_chunks_against_the_reference(self, narrow_chunks):
        rng = random.Random(12)
        for frame in random_frames(rng, 120):
            for letters in (["p", "q"], ["p", "q", "r"]):
                f = random_formula(rng, Language.COND, letters, 4)
                if len(frame.admissible) ** len(letters) <= 20_000:
                    got = valid(frame, f)
                    assert verdict_fields(got) == verdict_fields(reference_valid(frame, f))

    def test_last_valuation_just_after_the_singles(self, chain2, narrow_chunks):
        # three valuations, two of them singles: only p = {0, 1} refutes
        frame = full_frame(chain2, {m(0, 1): (m(1), 0)})
        assert verdict_fields(valid(frame, parse("p ~> false"))) == (
            False, {"p": m(0, 1)}, 0, 3 * 2)

    def test_budget_is_checked_before_any_plane_is_built(self, monkeypatch):
        def unreachable(*args):
            raise AssertionError("a plane was built before the budget check")

        for name in ("_plan", "_run", "_run_one", "_fixed_planes"):
            monkeypatch.setattr(semantics, name, unreachable)
        rng = random.Random(13)
        frame = random_full_frame(rng, 3)
        f = parse("(p ~> q) -> (r ~> q)")
        k = len(frame.admissible)
        for budget in (0, 5, k ** 3 * 3 - 1):
            with pytest.raises(BudgetExceededError) as got:
                valid(frame, f, budget=budget)
            with pytest.raises(BudgetExceededError) as want:
                reference_valid(frame, f, budget=budget)
            assert (got.value.required, got.value.budget) == (k ** 3 * 3, budget)
            assert (got.value.required, got.value.budget) == (want.value.required,
                                                              want.value.budget)
            assert str(got.value) == str(want.value)

    def test_a_hot_scan_checks_the_budget_before_its_generated_function(self, chain2):
        # the hot twin of the test above: 3^3 valuations of a 2-world frame,
        # within WHOLE_SCAN, so a hot scan goes straight to its function
        frame = full_frame(chain2)
        f = parse("(p ~> q) -> (r ~> q)")
        semantics.compile_formula.cache_clear()
        state = compile_formula(f)[3]
        for _ in range(semantics.HOT_SCANS + 1):
            valid(frame, f)
        required = 3 ** 3 * 2
        assert 3 ** 3 <= semantics.WHOLE_SCAN and set(state.runs) == {2}

        def unreachable(*args):
            raise AssertionError("the generated function was called")

        state.runs[2] = unreachable
        for budget in (0, 5, required - 1):
            with pytest.raises(BudgetExceededError) as got:
                valid(frame, f, budget=budget)
            with pytest.raises(BudgetExceededError) as want:
                reference_valid(frame, f, budget=budget)
            assert (got.value.required, got.value.budget) == (required, budget)
            assert (got.value.required, got.value.budget) == (want.value.required,
                                                              want.value.budget)
            assert str(got.value) == str(want.value)
        # within the budget the same scan does call it
        with pytest.raises(AssertionError, match="the generated function was called"):
            valid(frame, f, budget=required)


def _raised_or(fn, *args):
    """What ``fn`` returns, or the type and message of the error it raises."""
    try:
        return fn(*args)
    except NotAdmissibleError as exc:
        return type(exc), str(exc)


def _unclosed_general_frame(rng, n):
    """Random relations on a random family holding the empty and the full set,
    drawn as in ``test_frames_not_closed_under_the_connectives``."""
    order = random_full_frame(rng, n).order
    ups = order.upsets
    admissible = {0, order.full_mask} | set(rng.sample(ups, rng.randrange(len(ups))))
    relations = {a: tuple(rng.randrange(1 << n) for _ in range(n)) for a in admissible}
    return GeneralFrame(order, tuple(admissible), relations)


def _resolved(found, program, result_slot, count, pool, order, rel):
    """A generated function's record as ``_scan`` reads it: at a valuation
    with an antecedent that has no relation, ``(index, None, None)``, whose
    valuation is re-run through ``_run_one`` for its error."""
    if found is not None and found[2] is None:
        semantics._run_one(program, result_slot, semantics._valuation(found[0], pool, count),
                           order, rel)
    return found


class TestGeneratedSingles:
    """The one-valuation phase generated for hot programs against ``_run_one``."""

    @staticmethod
    def _agree(f, order, pool, rel, seen):
        """``run(pool, limit, ...)`` against ``_run_singles``, called with the
        same arguments after the program's, over the first ``limit``
        valuations, for every ``limit`` up to the whole scan or 70, with the
        pool ascending and descending; the generated record is resolved as
        ``_scan`` resolves it."""
        letters, program, result_slot, _ = compile_formula(f)
        count = len(letters)
        run = semantics._generate(program, result_slot, count, order.n)
        for ordered in (pool, pool[::-1]):
            for limit in range(1, min(len(pool) ** count, 70) + 1):
                args = (ordered, limit, order, rel, order.full_mask, letters)
                want = _raised_or(semantics._run_singles, program, result_slot, count, *args)
                got = _raised_or(_resolved, run(*args), program, result_slot, count, ordered,
                                 order, rel)
                assert got == want, (f, order, rel, ordered, limit)
            seen["evaluated" if want is None or isinstance(want[0], int) else "raised"] += 1

    def test_conditional_and_modal_programs_on_seeded_frames(self):
        rng = random.Random(14)
        seen = {"evaluated": 0, "raised": 0}
        for n in (1, 2, 3, 4, 5):
            for _ in range(60):
                frame = (random_general_frame(rng, n) if rng.random() < 0.5
                         else random_full_frame(rng, n))
                f = random_formula(rng, Language.COND, ["p", "q", "r"], 4)
                self._agree(f, frame.order, frame.admissible, frame.relations, seen)
                mf = restrict(frame, rng.choice(frame.admissible))
                g = random_formula(rng, Language.MODAL, ["p", "q", "r"], 4)
                self._agree(g, mf.order, mf.order.upsets, mf.rel, seen)
        assert seen == {"evaluated": 1200, "raised": 0}

    def test_unclosed_frames_raise_alike(self):
        rng = random.Random(15)
        seen = {"evaluated": 0, "raised": 0}
        for n in (1, 2, 3, 4, 5):
            for _ in range(80):
                frame = _unclosed_general_frame(rng, n)
                f = random_formula(rng, Language.COND, ["p", "q", "r"], 4)
                self._agree(f, frame.order, frame.admissible, frame.relations, seen)
        assert seen["raised"] > 50 and seen["evaluated"] > 50

    def test_promotion_keeps_every_verdict(self):
        # four_c refutes some of these frames and holds on others; its first
        # HOT_SCANS scans run the interpreter, the later ones generated code
        semantics.compile_formula.cache_clear()
        f = AXIOMS["four_c"].formula
        state = compile_formula(f)[3]
        frames = list(itertools.islice(enumerate_full_frames(2), 3 * semantics.HOT_SCANS))
        ones = [frame for frame in frames if frame.n == 1]
        frames += ones  # promoted at 2 worlds first, at 1 world on its next scan there
        first = []
        for i, frame in enumerate(frames):
            first.append(verdict_fields(valid(frame, f)))
            if i + 1 == semantics.HOT_SCANS:
                assert state.runs == {}
        assert set(state.runs) == {1, 2}
        assert {fields[0] for fields in first} == {True, False}
        again = [verdict_fields(valid(frame, f)) for frame in frames]
        assert again == first
        assert first == [verdict_fields(reference_valid(frame, f)) for frame in frames]

    @pytest.mark.parametrize("text, language", [
        ("(zebra ~> quokka) -> quokka | zebra", Language.COND),
        ("[] zebra -> quokka & zebra", Language.MODAL),
    ])
    def test_generated_code_holds_no_input_text(self, text, language):
        letters, program, result_slot, _ = compile_formula(parse(text, language))
        code = semantics._generate(program, result_slot, len(letters), 3).__code__
        names = repr((code.co_names, code.co_varnames, code.co_consts))
        assert "zebra" not in names and "quokka" not in names

    @pytest.mark.parametrize("text, language", [
        ("(p ~> q) -> (p ~> (q | r))", Language.COND),
        ("((p & q) ~> r) -> (p ~> (q -> r))", Language.COND),
        ("[] (p -> q) -> ([] p -> [] q)", Language.MODAL),
    ])
    def test_generated_code_reads_only_its_arguments(self, text, language):
        letters, program, result_slot, _ = compile_formula(parse(text, language))
        for n in (1, 2, 3):
            run = semantics._generate(program, result_slot, len(letters), n)
            assert run.__code__.co_freevars == () and run.__closure__ is None
            assert set(run.__globals__) == {"__builtins__"}

    def test_an_op_without_a_template_raises_when_generated(self):
        with pytest.raises(ValueError, match="no template for op 'xor'"):
            semantics._generate((("and", 0, 0), ("xor", 0, 2)), 3, 1, 2)


class TestWholeScans:
    """Once a program is hot, a scan of at most ``WHOLE_SCAN`` valuations runs
    its generated function over every valuation, with no chunk; the verdict,
    or the error, is that of the interpreted reference."""

    # letters to a formula refuted at exactly the valuations where p is an
    # upset whose relation has an empty row inside it (see _frame)
    FORMULAS = {
        1: "(p ~> false) -> ~p",
        2: "(p ~> false) -> ~p | q & ~q",
        3: "(p ~> false) -> ~p | q & r & ~q",
    }

    @staticmethod
    def _frame(rng, k):
        """Incomparable worlds with a family of ``k`` of their sets, at most half
        of them, so the family is not closed.  Every row is nonempty except,
        on three frames in four, one row of one random member, at a world
        inside it."""
        worlds = k.bit_length()
        order = FinitePreorder(worlds, tuple(1 << i for i in range(worlds)))
        family = sorted(rng.sample(range(1 << worlds), k))
        target = rng.choice(family) if rng.random() < 0.75 else None
        relations = {}
        for a in family:
            rows = [rng.randrange(1, 1 << worlds) for _ in range(worlds)]
            if a == target and a:
                rows[(a & -a).bit_length() - 1] = 0
            relations[a] = tuple(rows)
        return GeneralFrame(order, tuple(family), relations)

    @staticmethod
    def _counting_chunks(monkeypatch):
        calls = []
        run = semantics._run

        def counted(*args):
            calls.append(1)
            return run(*args)

        monkeypatch.setattr(semantics, "_run", counted)
        return calls

    @pytest.mark.parametrize("k, letters", [
        (semantics.SINGLES + 1, 1),  # cold: singles and a chunk; hot: whole
        (semantics.WHOLE_SCAN, 1),
        (round(semantics.WHOLE_SCAN ** 0.5), 2),
        (round(semantics.WHOLE_SCAN ** (1 / 3)), 3),
        (semantics.WHOLE_SCAN + 1, 1),  # singles and chunks, hot or cold
    ])
    def test_promotion_across_hot_scans(self, k, letters, monkeypatch):
        rng = random.Random(f"whole:{k}:{letters}")
        total = k ** letters
        assert total in (semantics.SINGLES + 1, semantics.WHOLE_SCAN, semantics.WHOLE_SCAN + 1)
        semantics.compile_formula.cache_clear()
        f = parse(self.FORMULAS[letters])
        state = compile_formula(f)[3]
        chunks = self._counting_chunks(monkeypatch)
        seen = {"valid": 0, "after singles": 0}
        for i in range(2 * semantics.HOT_SCANS):
            frame = self._frame(rng, k)
            del chunks[:]
            got = verdict_fields(valid(frame, f))
            assert got == verdict_fields(reference_valid(frame, f)), (i, frame)
            hot = i >= semantics.HOT_SCANS
            assert bool(state.runs) == hot
            refuted_at = None if got[0] else got[3] // frame.n - 1
            whole = total <= (semantics.WHOLE_SCAN if hot else semantics.SINGLES)
            assert bool(chunks) == (not whole and (got[0] or refuted_at >= semantics.SINGLES))
            seen["valid"] += got[0]
            seen["after singles"] += not got[0] and refuted_at >= semantics.SINGLES
        assert min(seen.values()) >= 4, seen

    @pytest.mark.parametrize("k, letters", [
        (semantics.WHOLE_SCAN, 1),
        (round(semantics.WHOLE_SCAN ** (1 / 3)), 3),
        (semantics.WHOLE_SCAN + 1, 1),
    ])
    def test_unclosed_families_raise_at_the_same_valuation(self, k, letters):
        rng = random.Random(f"whole:unclosed:{k}:{letters}")
        names = ["p", "q", "r"][:letters]
        raised = [0, 0]  # cold, hot
        for _ in range(6):
            semantics.compile_formula.cache_clear()
            f = random_formula(rng, Language.COND, names, 4)
            while set(compile_formula(f)[0]) != set(names):
                f = random_formula(rng, Language.COND, names, 4)
            for i in range(2 * semantics.HOT_SCANS):
                frame = self._frame(rng, k)
                got = outcome(valid, frame, f)
                assert got == outcome(reference_valid, frame, f), (f, frame)
                raised[i >= semantics.HOT_SCANS] += got[0] is NotAdmissibleError
        assert min(raised) >= 10, raised

    def test_each_program_compiles_under_its_own_file_name(self):
        names = set()
        for text in ("(p ~> q) -> q", "(p ~> q) -> p", "(p ~> q) & q", "p ~> p"):
            letters, program, result_slot, _ = compile_formula(parse(text))
            for n in (2, 3):
                run = semantics._generate(program, result_slot, len(letters), n)
                names.add(run.__code__.co_filename)
        assert len(names) == 8
        assert "<scan n=2 letters=2 s3=cond(s0,s1) s4=imp(s3,s1) -> s4>" in names


class TestTablesAtTheCap:
    """Hot scans at ``TABLE_WORLDS`` worlds, whose generated code looks boxes up
    in tuples, and at one world more, where it looks them up in maps filled on
    lookup, against the interpreted reference on full, general and unclosed
    frames."""

    FORMULAS = (
        ("(p ~> q) & (q ~> r) -> (p ~> r)", Language.COND),
        ("(p ~> q) -> (p ~> (p ~> q))", Language.COND),
        ("((p & q) ~> r) -> (p ~> (q ~> r))", Language.COND),
        ("(p -> q) ~> (p ~> true)", Language.COND),  # valid, or raises at p -> q
        ("(true ~> p) -> p | (p -> false)", Language.COND),
        ("p ~> p", Language.COND),
        ("[] (p -> q) -> ([] p -> [] q)", Language.MODAL),
        ("[] p -> p | [] (p -> false)", Language.MODAL),
    )

    @staticmethod
    def _frame(rng, n, kind):
        """A full, general or unclosed frame on ``n`` worlds with at most 12
        admissible upsets, so that the reference stays quick."""
        while True:
            if kind == "full":
                frame = random_full_frame(rng, n)
            elif kind == "general":
                frame = random_general_frame(rng, n)
            else:
                frame = _unclosed_general_frame(rng, n)
            if len(frame.admissible) <= 12:
                return frame

    @pytest.mark.parametrize("extra", [0, 1])
    def test_hot_scans_against_the_reference(self, extra):
        n = TABLE_WORLDS + extra
        hot = set()
        for text, language in self.FORMULAS:
            rng = random.Random(f"tables:{text}:{n}")
            f = parse(text, language)
            semantics.compile_formula.cache_clear()
            _, program, _, state = compile_formula(f)
            for i in range(2 * semantics.HOT_SCANS):
                kind = ("full", "general", "unclosed")[i % 3]
                frame = self._frame(rng, n, kind)
                if language is Language.MODAL:
                    mf = restrict(frame, rng.choice(frame.admissible))
                    got, want = outcome(valid_modal, mf, f), outcome(reference_valid_modal, mf, f)
                else:
                    got, want = outcome(valid, frame, f), outcome(reference_valid, frame, f)
                assert got == want, (text, i, kind, frame)
                if i >= semantics.HOT_SCANS:
                    hot.add((language, kind, got[0]))
            assert set(state.runs) == {n}
            # the code looks boxes up on both sides of the cap
            names = " ".join(state.runs[n].__code__.co_varnames)
            assert {op for op, _, _ in program} & {"imp", "box", "cond"}
            assert re.search(r"\b(D|M|B\d+)\b", names)
        # hot scans held, refuted and raised, and met every kind of frame
        assert {got for _, _, got in hot} == {True, False, NotAdmissibleError}
        assert {kind for _, kind, _ in hot} == {"full", "general", "unclosed"}
        assert {got for language, _, got in hot if language is Language.MODAL} == {True, False}


class _CountingRelations(dict):
    """Relations that count their lookups through ``get``."""

    lookups = 0

    def get(self, key, default=None):
        self.lookups += 1
        return super().get(key, default)


class TestHoisting:
    """A generated function runs each op in the loop of the deepest letter it
    reads, and looks each antecedent's relation up right after its slot."""

    @pytest.mark.parametrize("key, lookups", [("tr", 4 + 16), ("mp", 4), ("red", 1)])
    def test_each_relation_is_looked_up_once_per_prefix(self, key, lookups, anti2):
        # R_a[x] = {x} for every upset a: all three hold, so the scan meets
        # every valuation; tr looks up R_p per p and R_q per (p, q), mp R_p
        # per p, and red R_W once, before its loop
        frame = full_frame(anti2, {a: (m(0), m(1)) for a in anti2.upsets})
        f = AXIOMS[key].formula
        semantics.compile_formula.cache_clear()
        compiled = compile_formula(f)
        for _ in range(semantics.HOT_SCANS):
            valid(frame, f)
        counting = _CountingRelations(frame.relations)
        got = semantics._scan(frame.order, frame.admissible, compiled, counting, DEFAULT_BUDGET)
        assert set(compiled[3].runs) == {2}
        assert verdict_fields(got) == (True, None, None, 4 ** len(compiled[0]) * 2)
        assert counting.lookups == lookups

    @pytest.mark.parametrize("text, outcomes", [
        ("false -> false", {True}),
        ("(false ~> false) -> false", {True, False}),
        ("(false ~> false) ~> false", {True, False, NotAdmissibleError}),
        ("((false ~> false) ~> false) | p", {True, False, NotAdmissibleError}),
        ("p ~> ((false ~> false) ~> q)", {True, False, NotAdmissibleError}),
    ])
    def test_ops_that_read_no_letter_give_the_reference_outcome(self, text, outcomes):
        # on unclosed families the set false ~> false may have no relation;
        # a lookup before any loop stands for valuation 0
        rng = random.Random(f"hoist:{text}")
        f = parse(text)
        semantics.compile_formula.cache_clear()
        state = compile_formula(f)[3]
        seen = set()
        for i in range(3 * semantics.HOT_SCANS):
            frame = _unclosed_general_frame(rng, rng.choice((1, 2, 3)))
            got = outcome(valid, frame, f)
            assert got == outcome(reference_valid, frame, f), (i, frame)
            seen.add((i >= semantics.HOT_SCANS, got[0]))
        assert state.runs
        assert {got for hot, got in seen if hot} == outcomes, seen


@pytest.mark.parametrize("key, ops", [
    ("four_c", 3), ("c4_c", 3), ("ecm1", 3), ("ecm2", 4), ("n_c", 5),
])
def test_equal_subterms_compile_to_one_op(key, ops):
    # each axiom repeats a subterm that its parse builds twice
    assert len(compile_formula(AXIOMS[key].formula)[1]) == ops
