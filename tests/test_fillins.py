import random

import pytest

from condlogic.errors import FrameFormatError, SqueezePreconditionError
from condlogic.fillins import (
    ALL_KINDS,
    FillInKind,
    check_squeeze_precondition,
    fill,
)
from condlogic.frames import ConditionalFrame, strongly_coherent, validate_conditional
from condlogic.generate import random_formula, random_general_frame
from condlogic.order import mask_to_key, up_closure
from condlogic.semantics import check, valid
from condlogic.syntax import Language

from conftest import general_frame, m


def identity_rows(n):
    return tuple(1 << i for i in range(n))


@pytest.fixture
def anti2_gaps(anti2):
    """Two-antichain general frame with A = {empty, X}, R_X = identity."""
    return general_frame(anti2, (0, m(0, 1)),
                         {0: (0, 0), m(0, 1): identity_rows(2)})


def cautious_pool(rng, count, sizes=(2, 3, 3, 4)):
    """General frames passing the squeeze precondition."""
    out = []
    attempts = 0
    while len(out) < count and attempts < count * 200:
        attempts += 1
        g = random_general_frame(
            rng, rng.choice(sizes),
            mode_names=("strength", "refl", "const_meet", "empty", "subset"),
            force_subset=True,
        )
        if check_squeeze_precondition(g).holds:
            out.append(g)
    assert len(out) == count
    return out


def reference_squeeze_witness(g):
    """The collecting loops check_squeeze_precondition ran before it used the
    catalog's correspondents: every id and icc violation, then the first."""
    id_violations, icc_violations = [], []
    p = g.order
    for a in g.admissible:
        rows = g.rel(a)
        for x in range(p.n):
            if rows[x] & ~a:
                id_violations.append((a, x))
    for a in g.admissible:
        rows_a = g.rel(a)
        for b in g.admissible:
            if b & ~a:
                continue
            rows_b = g.rel(b)
            for x in range(p.n):
                if rows_a[x] & ~b:
                    continue
                if up_closure(p, rows_a[x]) != up_closure(p, rows_b[x]):
                    icc_violations.append((a, b, x))
    if id_violations:
        a, x = id_violations[0]
        return ("id-corr", mask_to_key(a), x)
    if icc_violations:
        a, b, x = icc_violations[0]
        return ("icc-corr", mask_to_key(a), mask_to_key(b), x)
    return None


class TestKinds:
    def test_cli_names(self):
        assert [k.value for k in ALL_KINDS] == [
            "empty", "reflexive", "principal", "total", "union", "transitive", "squeeze"
        ]
        assert FillInKind.from_name("squeeze") is FillInKind.SQUEEZE
        with pytest.raises(ValueError):
            FillInKind.from_name("bogus")


class TestFillRecipes:
    def test_union_on_antichain_example(self, anti2_gaps):
        filled = fill(anti2_gaps, FillInKind.UNION)
        # only the empty set sits inside {0}, so the union is empty
        assert filled.rel(m(0)) == (0, 0)
        assert filled.rel(m(1)) == (0, 0)

    def test_squeeze_on_antichain_example(self, anti2_gaps):
        filled = fill(anti2_gaps, FillInKind.SQUEEZE)
        # at world 0 the full relation squeezes {0}: R_X[0] = {0} inside {0} inside X;
        # at world 1 nothing squeezes, so the upset itself is used
        assert filled.rel(m(0)) == (m(0), m(0))
        assert filled.rel(m(1)) == (m(1), m(1))

    def test_empty_gives_empty_rows(self, anti2_gaps):
        filled = fill(anti2_gaps, FillInKind.EMPTY)
        assert filled.rel(m(0)) == (0, 0)
        assert filled.rel(m(1)) == (0, 0)

    def test_reflexive_principal_total(self, anti2_gaps):
        assert fill(anti2_gaps, FillInKind.REFLEXIVE).rel(m(0)) == (m(0), m(0))
        assert fill(anti2_gaps, FillInKind.PRINCIPAL).rel(m(0)) == (m(0), m(1))
        assert fill(anti2_gaps, FillInKind.TOTAL).rel(m(0)) == identity_rows(2)

    def test_transitive_recipe(self, chain2):
        # A = {empty, X}; R_X has both worlds stepping into {1}
        g = general_frame(chain2, (0, m(0, 1)), {0: (0, 0), m(0, 1): (m(1), m(1))})
        filled = fill(g, FillInKind.TRANSITIVE)
        # R_X[y] = {1} lies inside {1} for every y above each world
        assert filled.rel(m(1)) == (m(1), m(1))


class TestAgreement:
    def test_admissible_relations_untouched(self, rng):
        for _ in range(150):
            g = random_general_frame(rng, rng.choice([2, 3, 4]))
            for kind in ALL_KINDS:
                if kind is FillInKind.SQUEEZE and not check_squeeze_precondition(g).holds:
                    continue
                filled = fill(g, kind)
                for a in g.admissible:
                    assert filled.rel(a) == g.rel(a)


class TestUncheckedConstruction:
    """``fill`` builds its result without the constructor's checks."""

    def test_every_kind_equals_the_checking_constructors_frame(self):
        frames = [random_general_frame(random.Random(f"fill-unchecked:{i}"), 2 + i % 3)
                  for i in range(150)]
        frames += cautious_pool(random.Random("fill-unchecked-squeeze"), 50)
        built = 0
        for g in frames:
            for kind in ALL_KINDS:
                if kind is FillInKind.SQUEEZE and not check_squeeze_precondition(g).holds:
                    continue
                filled = fill(g, kind)
                checked = ConditionalFrame(filled.order, filled.relations)
                assert type(filled) is ConditionalFrame
                assert vars(filled) == vars(checked)
                assert list(vars(filled)) == list(vars(checked))
                built += 1
        assert built > 1000

    def test_a_family_with_a_non_upset_is_still_refused(self, chain2):
        # {0} is not an upset when 0 <= 1; the constructor does not test it
        g = general_frame(chain2, (0, m(0), m(0, 1)), {0: (0, 0), m(0): (0, 0), m(0, 1): (0, 0)})
        with pytest.raises(FrameFormatError) as exc:
            fill(g, FillInKind.EMPTY)
        assert str(exc.value) == ("a conditional frame needs a relation for every upset, "
                                  "and only for upsets; key '0' is not an upset")


class TestWellFormedness:
    def test_fills_produce_valid_conditional_frames(self, rng):
        for _ in range(400):
            g = random_general_frame(rng, rng.choice([2, 3, 4]))
            for kind in ALL_KINDS:
                if kind is FillInKind.SQUEEZE:
                    continue
                assert validate_conditional(fill(g, kind)).ok

    def test_squeeze_produces_valid_conditional_frames(self, rng):
        for g in cautious_pool(rng, 150):
            assert validate_conditional(fill(g, FillInKind.SQUEEZE)).ok

    def test_empty_fill_of_strong_frame_is_strongly_coherent(self, rng):
        # the finite form of the remark that empty fill-ins satisfy the
        # stronger coherence condition everywhere
        for _ in range(100):
            g = random_general_frame(rng, rng.choice([2, 3]), strong=True)
            assert strongly_coherent(fill(g, FillInKind.EMPTY))


class TestRefutationInheritance:
    def test_admissible_countermodels_survive_every_fill(self, rng):
        found = 0
        while found < 120:
            g = random_general_frame(rng, rng.choice([2, 3]))
            f = random_formula(rng, Language.COND, ["p", "q"], 3)
            verdict = valid(g, f)
            if verdict.valid:
                continue
            found += 1
            for kind in ALL_KINDS:
                if kind is FillInKind.SQUEEZE and not check_squeeze_precondition(g).holds:
                    continue
                filled = fill(g, kind)
                assert not check(filled, verdict.valuation, f, verdict.world)


class TestSqueezePreconditionAgainstCollectingLoops:
    """Differential: the precondition on the shared correspondent loop
    against the loops it replaced (verdict and first witness)."""

    def _agree(self, frames):
        for g in frames:
            report = check_squeeze_precondition(g)
            expected = reference_squeeze_witness(g)
            assert (report.holds, report.witness) == (expected is None, expected)

    def test_cautious_pool(self, rng):
        self._agree(cautious_pool(rng, 60))

    def test_random_general_frames(self, rng):
        frames = [random_general_frame(rng, rng.choice([2, 3, 4])) for _ in range(150)]
        # the cautious row modes make icc violations without id ones likelier
        frames += [random_general_frame(rng, rng.choice([2, 3, 4]),
                                        mode_names=("strength", "refl", "const_meet",
                                                    "empty", "subset"),
                                        force_subset=True)
                   for _ in range(150)]
        kinds = {None if w is None else w[0]
                 for w in map(reference_squeeze_witness, frames)}
        assert kinds == {None, "id-corr", "icc-corr"}
        self._agree(frames)


class TestSqueeze:
    def test_precondition_holds_for_empty_relations(self, anti2):
        g = general_frame(anti2, (0, m(0, 1)), {0: (0, 0), m(0, 1): (0, 0)})
        assert check_squeeze_precondition(g).holds

    def test_id_violation_listed(self, anti2):
        # both empty-set rows nonempty keeps the closure intact while
        # breaking containment in the indexing upset
        g = general_frame(anti2, (0, m(0, 1)), {0: (m(0), m(1)), m(0, 1): (0, 0)})
        from condlogic.frames import validate_general

        assert validate_general(g).ok
        report = check_squeeze_precondition(g)
        assert not report.holds
        assert report.witness == ("id-corr", "", 0)

    def test_antichain_example_passes(self, anti2_gaps):
        assert check_squeeze_precondition(anti2_gaps).holds

    def test_fill_refuses_on_violation(self, anti2):
        g = general_frame(anti2, (0, m(0, 1)), {0: (m(0), m(1)), m(0, 1): (0, 0)})
        with pytest.raises(SqueezePreconditionError) as err:
            fill(g, FillInKind.SQUEEZE)
        assert err.value.witness is not None

    def test_squeezer_images_agree_up_to_closure(self, rng):
        # construction-time invariant: whenever two admissible squeezers
        # apply, their rows have equal up-closures (asserted inside fill);
        # replay it here explicitly
        for g in cautious_pool(rng, 100):
            ups = g.order.upsets
            adm = set(g.admissible)
            for c in ups:
                if c in adm:
                    continue
                for x in range(g.n):
                    images = {
                        up_closure(g.order, g.rel(a)[x])
                        for a in g.admissible
                        if not g.rel(a)[x] & ~c and not c & ~a
                    }
                    assert len(images) <= 1
