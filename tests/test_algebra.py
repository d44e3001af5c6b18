import dataclasses
import itertools
import json
import random
from collections import Counter

import pytest

from condlogic import algebra
from condlogic.algebra import (
    FiniteCHA,
    alg_satisfies,
    algebra_from_json,
    algebra_to_json,
    check_duality_roundtrip,
    complex_algebra,
    dual_frame,
    frame_roundtrip,
    prime_filters,
    validate_cha,
)
from condlogic.catalog import AXIOMS
from condlogic.errors import CapExceededError, DualityError, FrameFormatError
from condlogic.frames import ConditionalFrame
from condlogic.generate import (
    enumerate_full_frames,
    random_formula,
    random_full_frame,
    random_general_frame,
)
from condlogic.order import all_upsets, mask_to_key
from condlogic.semantics import valid
from condlogic.syntax import Language, parse, print_formula, proposition_letters

from conftest import constant_full_frame, full_frame, general_frame, m, preorder
from test_cli_golden import ALGEBRA as GOLDEN_ALGEBRA
from test_generate import _orders, _unclosed_frame


def boolean2(cond_top_bot=1):
    """Two-element algebra; cond is constant top except cond(top, bot)."""
    leq = (0b11, 0b10)
    imp = ((1, 1), (0, 1))
    cond = ((1, 1), (cond_top_bot, 1))
    return FiniteCHA(2, leq, imp, cond, top=1, bot=0)


def chain3():
    leq = (0b111, 0b110, 0b100)
    imp = tuple(
        tuple(2 if i <= j else j for j in range(3)) for i in range(3)
    )
    cond = ((2, 2, 2),) * 3
    return FiniteCHA(3, leq, imp, cond, top=2, bot=0)


def boolean4():
    # 0 = bot, 1 and 2 the two atoms, 3 = top
    leq = (0b1111, 0b1010, 0b1100, 0b1000)
    def imp_entry(i, j):
        candidates = [c for c in range(4)
                      if all((leq[k] >> j) & 1 for k in [_meet4(c, i)])]
        best = [c for c in candidates if all((leq[d] >> c) & 1 for d in candidates)]
        return best[0]
    imp = tuple(tuple(imp_entry(i, j) for j in range(4)) for i in range(4))
    cond = ((3, 3, 3, 3),) * 4
    return FiniteCHA(4, leq, imp, cond, top=3, bot=0)


def _meet4(i, j):
    table = {(1, 2): 0, (2, 1): 0}
    if i == j:
        return i
    if i == 0 or j == 0:
        return 0
    if i == 3:
        return j
    if j == 3:
        return i
    return table[(i, j)]


class TestValidate:
    def test_constant_top_cond_is_valid(self):
        assert validate_cha(boolean2()).ok

    def test_two_element_with_strict_cond(self):
        alg = boolean2(cond_top_bot=0)
        # the two defining laws checked by hand over all 8 triples
        meet, _ = alg.lattice()
        for a, b, c in itertools.product(range(2), repeat=3):
            assert alg.cond[a][meet[b][c]] == meet[alg.cond[a][b]][alg.cond[a][c]]
        for a in range(2):
            assert alg.cond[a][1] == 1
        assert validate_cha(alg).ok

    def test_cond_top_violation_reported(self):
        alg = FiniteCHA(2, (0b11, 0b10), ((1, 1), (0, 1)), ((1, 0), (1, 0)),
                        top=1, bot=0)
        report = validate_cha(alg)
        assert any("top" in v for v in report.violations)

    def test_imp_table_must_match_residuation(self):
        alg = FiniteCHA(2, (0b11, 0b10), ((1, 1), (1, 1)), ((1, 1), (1, 1)),
                        top=1, bot=0)
        report = validate_cha(alg)
        assert any("residuation" in v for v in report.violations)

    def test_chain3_and_boolean4(self):
        assert validate_cha(chain3()).ok
        assert validate_cha(boolean4()).ok


class TestComplexAlgebra:
    def test_one_world_all_empty(self, single):
        alg = complex_algebra(full_frame(single))
        assert alg.size == 2
        assert all(alg.cond[a][b] == alg.top for a in range(2) for b in range(2))

    def test_chain_has_three_elements(self, chain2):
        assert complex_algebra(full_frame(chain2)).size == 3

    def test_validates(self, rng):
        for _ in range(60):
            g = random_general_frame(rng, rng.choice([2, 3]))
            assert validate_cha(complex_algebra(g)).ok

    def test_agrees_with_frame_validity(self, rng):
        # the finite-scale agreement between frame and algebra semantics
        disagreements = 0
        for _ in range(200):
            g = random_general_frame(rng, rng.choice([2, 3]))
            f = random_formula(rng, Language.COND, ["p", "q", "r"], 4)
            lhs = valid(g, f).valid
            rhs = alg_satisfies(complex_algebra(g), f).satisfied
            disagreements += lhs != rhs
        assert disagreements == 0


class TestAlgSatisfies:
    def test_axioms_of_the_base_logic(self, rng):
        kc = parse("(p ~> q & r) <-> (p ~> q) & (p ~> r)")
        nc = parse("(p ~> true) <-> true")
        for alg in (boolean2(), boolean2(0), chain3(), boolean4()):
            assert alg_satisfies(alg, kc).satisfied
            assert alg_satisfies(alg, nc).satisfied

    def test_constant_top_satisfies_id(self):
        assert alg_satisfies(boolean2(), parse("p ~> p")).satisfied

    def test_strict_cond_refutes_excluded_conditional(self):
        # exhaustive 4-assignment scan decides this pair
        alg = boolean2(cond_top_bot=0)
        verdict = alg_satisfies(alg, parse("(p ~> q) | (p ~> ~q)"))
        expected = all(
            alg.lattice()[1][alg.cond[a][b]][alg.cond[a][alg.imp[b][0]]] == alg.top
            for a in range(2)
            for b in range(2)
        )
        assert verdict.satisfied == expected

    def test_counter_assignment_reported(self):
        alg = boolean2(cond_top_bot=0)
        verdict = alg_satisfies(alg, parse("(true ~> p) -> p"))
        if not verdict.satisfied:
            assert set(verdict.assignment) == {"p"}


def reference_alg_satisfies(alg, f):
    """The recursive evaluator alg_satisfies used before it ran compiled
    programs on the frame interpreter: (satisfied, assignment, checked)."""
    letters = sorted(proposition_letters(f))
    meet, join = alg.lattice()

    def ev(node, env, cache):
        got = cache.get(node)
        if got is not None:
            return got
        op = node.op
        if op == "var":
            out = env[node.name]
        elif op == "bot":
            out = alg.bot
        elif op == "and":
            out = meet[ev(node.args[0], env, cache)][ev(node.args[1], env, cache)]
        elif op == "or":
            out = join[ev(node.args[0], env, cache)][ev(node.args[1], env, cache)]
        elif op == "imp":
            out = alg.imp[ev(node.args[0], env, cache)][ev(node.args[1], env, cache)]
        else:
            out = alg.cond[ev(node.args[0], env, cache)][ev(node.args[1], env, cache)]
        cache[node] = out
        return out

    checked = 0
    for values in itertools.product(range(alg.size), repeat=len(letters)):
        env = dict(zip(letters, values))
        checked += 1
        if ev(f, env, {}) != alg.top:
            return False, env, checked
    return True, None, checked


class TestAlgSatisfiesAgainstRecursiveEvaluator:
    """Differential: the interpreter-backed alg_satisfies against the
    recursive evaluator it replaced (verdict, first counter-assignment and
    assignments checked)."""

    def _agree(self, alg, formulas):
        for f in formulas:
            got = alg_satisfies(alg, f)
            assert (got.satisfied, got.assignment, got.checked) == \
                reference_alg_satisfies(alg, f), print_formula(f)

    def _formulas(self, rng, count):
        schemas = [entry.formula for entry in AXIOMS.values()]
        randoms = [random_formula(rng, Language.COND, ["p", "q", "r"], rng.choice([2, 3, 4]))
                   for _ in range(count)]
        return schemas + randoms

    def test_complex_algebras_of_small_frames(self, rng):
        # every one-world frame, and a seeded tenth of a percent of the two-world ones
        frames = [f for f in enumerate_full_frames(2) if f.n == 1 or rng.random() < 0.001]
        assert len(frames) > 50
        for frame in frames:
            self._agree(complex_algebra(frame), self._formulas(rng, 6))

    def test_complex_algebras_of_general_frames(self, rng):
        for _ in range(40):
            g = random_general_frame(rng, rng.choice([2, 3]))
            self._agree(complex_algebra(g), self._formulas(rng, 3))

    def test_file_algebras(self, rng):
        for alg in (boolean2(), boolean2(0), chain3(), boolean4(),
                    algebra_from_json(GOLDEN_ALGEBRA)):
            self._agree(alg, self._formulas(rng, 20))


class TestPrimeFilters:
    def test_two_element(self):
        assert prime_filters(boolean2()) == (0b10,)

    def test_three_chain(self):
        pfs = prime_filters(chain3())
        assert pfs == tuple(reference_prime_filters(chain3()))
        assert len(pfs) == 2

    def test_boolean4_has_two_ultrafilters(self):
        alg = boolean4()
        pfs = prime_filters(alg)
        assert pfs == tuple(reference_prime_filters(alg))
        assert len(pfs) == 2

    def test_cap(self):
        with pytest.raises(CapExceededError):
            prime_filters(chain3(), cap=2)

    def test_count_matches_worlds_of_full_poset_frames(self, rng):
        for _ in range(60):
            f = random_full_frame(rng, rng.choice([2, 3, 4]))
            assert len(prime_filters(complex_algebra(f))) == f.n

    def test_order_that_is_not_a_bounded_partial_order_is_refused(self):
        # a chain with top and bot swapped has both tables but no bounds
        alg = FiniteCHA(2, (0b11, 0b10), ((1, 1), (0, 1)), ((1, 1), (1, 1)),
                        top=0, bot=1)
        assert alg.lattice()
        with pytest.raises(FrameFormatError, match="bot is not below element 0"):
            prime_filters(alg)


class TestDualFrame:
    def test_constant_top_dual_has_empty_relations(self):
        # cond(a, bot) = top lies in the only prime filter, so a successor
        # would have to contain bot; there is none
        frame = dual_frame(boolean2())
        assert frame.n == 1
        assert frame.relations[0] == (0,)
        assert frame.relations[1] == (0,)

    def test_theta_of_top_is_everything(self):
        for alg in (boolean2(), chain3(), boolean4()):
            frame = dual_frame(alg)
            assert frame.order.full_mask == (1 << frame.n) - 1

    def test_dual_of_one_world_complex_algebra(self, single):
        f = full_frame(single)
        frame = dual_frame(complex_algebra(f))
        assert frame.n == 1
        assert frame.relations == f.relations


class TestDualityRoundtrip:
    def test_two_element_constant_top(self):
        assert check_duality_roundtrip(boolean2()).ok

    def test_complex_algebras_of_small_frames(self, rng):
        for _ in range(150):
            f = random_full_frame(rng, rng.choice([2, 3]))
            assert check_duality_roundtrip(complex_algebra(f)).ok

    def test_invalid_algebra_refused(self):
        alg = FiniteCHA(2, (0b11, 0b10), ((1, 1), (0, 1)), ((1, 0), (1, 0)),
                        top=1, bot=0)
        with pytest.raises(DualityError):
            check_duality_roundtrip(alg)

    def test_a_wrong_imp_in_the_dual_is_reported_at_its_pair(self, monkeypatch):
        # the imp check reads the dual's complex algebra through theta
        real = algebra.complex_algebra
        for alg in (chain3(), boolean4()):
            frame, _, theta = algebra._dual_with_maps(alg)
            labels = all_upsets(frame.order)
            for i, j in itertools.product(range(alg.size), repeat=2):
                ti, tj = labels.index(theta[i]), labels.index(theta[j])

                def wrong(g):
                    back = real(g)
                    imp = [list(row) for row in back.imp]
                    imp[ti][tj] = (imp[ti][tj] + 1) % back.size
                    return dataclasses.replace(back, imp=tuple(map(tuple, imp)))

                monkeypatch.setattr(algebra, "complex_algebra", wrong)
                assert check_duality_roundtrip(alg).failures == [f"theta breaks imp at ({i}, {j})"]


class TestFrameRoundtrip:
    def test_one_world_all_empty(self, single):
        assert frame_roundtrip(full_frame(single)).ok

    def test_chain_with_order_relations(self, chain2):
        f = constant_full_frame(chain2, tuple(chain2.up))
        assert frame_roundtrip(f).ok

    def test_random_strong_poset_frames(self, rng):
        for _ in range(150):
            f = random_full_frame(rng, rng.choice([2, 3]), strong=True)
            assert frame_roundtrip(f).ok

    def test_a_flipped_dual_edge_is_reported_at_its_worlds(self, monkeypatch):
        # world 1 below world 0, so eta lists the prime filters in reverse
        f = constant_full_frame(preorder(2, [(1, 0)]), (0b01, 0b11))
        labels = complex_algebra(f).labels
        eta = [sum(1 << i for i, a in enumerate(labels) if (a >> x) & 1) for x in range(f.n)]
        real = algebra._dual_with_maps
        for i, x, y in itertools.product(range(len(labels)), range(f.n), range(f.n)):

            def flipped(alg):
                frame, pfs, theta = real(alg)
                relations = dict(frame.relations)
                rows = list(relations[theta[i]])
                rows[pfs.index(eta[x])] ^= 1 << pfs.index(eta[y])
                relations[theta[i]] = tuple(rows)
                return ConditionalFrame(frame.order, relations), pfs, theta

            monkeypatch.setattr(algebra, "_dual_with_maps", flipped)
            assert frame_roundtrip(f).failures == [
                f"relation at {{{mask_to_key(labels[i])}}} disagrees with the dual "
                f"at worlds ({x}, {y})"
            ]

    def test_preorder_refused(self):
        cluster = preorder(2, [(0, 1), (1, 0)])
        f = full_frame(cluster)
        with pytest.raises(DualityError):
            frame_roundtrip(f)

    def test_weakly_coherent_frame_refused(self, chain2):
        f = full_frame(chain2, {m(0, 1): (m(0), 0)})
        with pytest.raises(DualityError):
            frame_roundtrip(f)


# --- references: the order-only code before it was memoised on bitmasks ------


def _bound_table(alg, lower):
    size = alg.size
    out = []
    for i in range(size):
        row = []
        for j in range(size):
            if lower:
                candidates = [k for k in range(size) if alg.le(k, i) and alg.le(k, j)]
                best = [g for g in candidates if all(alg.le(k, g) for k in candidates)]
            else:
                candidates = [k for k in range(size) if alg.le(i, k) and alg.le(j, k)]
                best = [g for g in candidates if all(alg.le(g, k) for k in candidates)]
            if len(best) != 1:
                kind = "meet" if lower else "join"
                raise FrameFormatError(f"elements {i}, {j} have no {kind}; not a lattice")
            row.append(best[0])
        out.append(tuple(row))
    return tuple(out)


def reference_lattice(alg):
    """(meet, join) by the O(k^3) scan, or the message it raised."""
    try:
        return _bound_table(alg, lower=True), _bound_table(alg, lower=False)
    except FrameFormatError as exc:
        return str(exc)


def reference_order_violations(alg):
    out = []
    size = alg.size
    for i in range(size):
        if not alg.le(i, i):
            out.append(f"order not reflexive at {i}")
        for j in range(size):
            if alg.le(i, j) and alg.le(j, i) and i != j:
                out.append(f"order not antisymmetric at ({i}, {j})")
            if alg.le(i, j):
                if alg.leq[j] & ~alg.leq[i]:
                    out.append(f"order not transitive at ({i}, {j})")
    for i in range(size):
        if not alg.le(alg.bot, i):
            out.append(f"bot is not below element {i}")
        if not alg.le(i, alg.top):
            out.append(f"element {i} is not below top")
    return out


def reference_residual(alg, meet, i, j):
    candidates = [c for c in range(alg.size) if alg.le(meet[c][i], j)]
    best = [c for c in candidates if all(alg.le(d, c) for d in candidates)]
    return best[0] if len(best) == 1 else None


def reference_validate_cha(alg):
    """validate_cha's violations, computed by per-pair scans with no memo."""
    report = reference_order_violations(alg)
    if report:
        return report
    tables = reference_lattice(alg)
    if isinstance(tables, str):
        return [tables]
    meet, join = tables
    size = alg.size
    for i, j, k in itertools.product(range(size), repeat=3):
        if meet[i][join[j][k]] != join[meet[i][j]][meet[i][k]]:
            return [f"distributivity fails at ({i}, {j}, {k})"]
    for i in range(size):
        for j in range(size):
            best = reference_residual(alg, meet, i, j)
            if best is None or alg.imp[i][j] != best:
                report.append(f"imp table disagrees with residuation at ({i}, {j})")
    for a in range(size):
        if alg.cond[a][alg.top] != alg.top:
            report.append(f"cond({a}, top) is not top")
        for b in range(size):
            for c in range(size):
                if alg.cond[a][meet[b][c]] != meet[alg.cond[a][b]][alg.cond[a][c]]:
                    report.append(f"cond does not preserve meet at ({a}, {b}, {c})")
                    return report
    return report


def reference_prime_filters(alg):
    """Every subset that is a proper prime filter, ascending as a mask."""
    meet, join = reference_lattice(alg)
    found = []
    for members in itertools.chain.from_iterable(
        itertools.combinations(range(alg.size), k) for k in range(1, alg.size + 1)
    ):
        s = set(members)
        if alg.bot in s or alg.top not in s:
            continue
        if any(alg.le(i, j) and i in s and j not in s
               for i in range(alg.size) for j in range(alg.size)):
            continue
        if any(meet[i][j] not in s for i in s for j in s):
            continue
        if any(join[i][j] in s and i not in s and j not in s
               for i in range(alg.size) for j in range(alg.size)):
            continue
        found.append(sum(1 << i for i in s))
    return sorted(found)


def reference_dual_relations(alg, pfs):
    """The dual's relations by the (element, filter, filter) triple loop."""
    n = len(pfs)
    theta = [sum(1 << k for k, pf in enumerate(pfs) if (pf >> i) & 1) for i in range(alg.size)]
    relations = {}
    for i in range(alg.size):
        rows = []
        for k in range(n):
            forced = [b for b in range(alg.size) if (pfs[k] >> alg.cond[i][b]) & 1]
            succ = 0
            for l in range(n):
                if all((pfs[l] >> b) & 1 for b in forced):
                    succ |= 1 << l
            rows.append(succ)
        relations[theta[i]] = tuple(rows)
    return relations


def _small_algebras():
    """Every leq relation on 1-3 elements x every top and bot, each with two
    imp/cond tables: a constant top imp with an arbitrary cond, and the
    residual as both imp and cond where the order is a lattice (a valid
    algebra when it is distributive), else the arbitrary table for both."""
    for size in (1, 2, 3):
        arbitrary = tuple(tuple((a + b) % size for b in range(size)) for a in range(size))
        for leq in itertools.product(range(1 << size), repeat=size):
            for top, bot in itertools.product(range(size), repeat=2):
                yield FiniteCHA(size, leq, tuple((top,) * size for _ in range(size)),
                                arbitrary, top, bot)
                probe = FiniteCHA(size, leq, arbitrary, arbitrary, top, bot)
                tables = reference_lattice(probe)
                if isinstance(tables, str):
                    yield probe
                    continue
                residual = tuple(
                    tuple(reference_residual(probe, tables[0], i, j) or 0 for j in range(size))
                    for i in range(size)
                )
                yield FiniteCHA(size, leq, residual, residual, top, bot)


class TestOrderFactsAgainstScans:
    """Differential: the memoised bitmask lattice tables, validation, prime
    filters and dual relations against the per-pair scans they replaced."""

    def _agree(self, alg):
        tables = reference_lattice(alg)
        try:
            got = alg.lattice()
        except FrameFormatError as exc:
            got = str(exc)
        assert got == tables
        expected = reference_validate_cha(alg)
        report = validate_cha(alg)
        assert report.violations == expected
        assert str(report) == ("; ".join(expected) or "valid")
        if reference_order_violations(alg) or isinstance(tables, str):
            with pytest.raises(FrameFormatError):
                prime_filters(alg)
            return
        pfs = prime_filters(alg)
        assert pfs == tuple(reference_prime_filters(alg))
        try:
            frame = dual_frame(alg)
        except DualityError:
            assert not report.ok or not pfs
            return
        assert frame.relations == reference_dual_relations(alg, pfs)

    def test_every_small_relation(self):
        algebras = list(_small_algebras())
        assert len(algebras) == 9348
        for alg in algebras:
            self._agree(alg)

    def test_complex_algebras_of_two_world_frames(self):
        for frame in itertools.islice(enumerate_full_frames(2), 0, None, 7):
            self._agree(complex_algebra(frame))

    def test_complex_algebras_of_larger_frames(self, rng):
        for _ in range(40):
            n = rng.choice([3, 4])
            self._agree(complex_algebra(random_full_frame(rng, n, strong=rng.random() < 0.5)))
            self._agree(complex_algebra(random_general_frame(rng, n)))

    def test_memoised_results_are_not_shared_mutably(self):
        first, second = boolean2(), boolean2(cond_top_bot=0)
        report = validate_cha(first)
        report.add("x")
        assert validate_cha(second).ok
        meet, join = first.lattice()
        assert isinstance(meet, tuple) and all(isinstance(row, tuple) for row in meet + join)
        assert isinstance(prime_filters(first), tuple)


class TestCaVersusId:
    def test_semantic_interchangeability_on_small_algebras(self, rng):
        # each finite algebra validates cautious agglomeration iff identity
        ca = parse("(p ~> q) -> (p ~> (p & q))")
        ident = parse("p ~> p")
        for _ in range(150):
            g = random_general_frame(rng, rng.choice([2, 3]))
            alg = complex_algebra(g)
            assert alg_satisfies(alg, ca).satisfied == alg_satisfies(alg, ident).satisfied


class TestAlgebraJson:
    def test_round_trip(self):
        for alg in (boolean2(), boolean2(0), chain3(), boolean4()):
            alg2 = algebra_from_json(json.loads(json.dumps(algebra_to_json(alg))))
            assert alg2.leq == alg.leq
            assert alg2.imp == alg.imp
            assert alg2.cond == alg.cond

    def test_loader_revalidates(self):
        obj = algebra_to_json(boolean2())
        obj["cond"] = [[1, 1], [1, 0]]  # breaks cond(top, top) = top
        with pytest.raises(FrameFormatError):
            algebra_from_json(obj)


class TestConstructorMessages:
    """Each check of ``FiniteCHA.__post_init__``, through direct construction
    and through the loader.  The loader's strict readers catch some defects
    first (a file cannot spell a row bitmask or an empty carrier with a
    table); for those the loader's own message for the same defect is pinned."""

    @pytest.mark.parametrize("fields,direct,in_file,loaded", [
        (dict(size=0, leq=(), imp=(), cond=()), "an algebra needs a nonempty carrier",
         dict(size=0), "algebra size 0 does not fit its imp table"),
        (dict(leq=(0b11,)), "leq rows do not fit the carrier",
         dict(leq=[[0, 0], [1, 1], [0, 2]]), "leq index 2 is not an int in 0..1"),
        (dict(leq=(0b111, 0b10)), "leq rows do not fit the carrier",
         dict(leq=[[2, 0]]), "leq index 2 is not an int in 0..1"),
        (dict(imp=((1, 1), (0, 1), (1, 1))), "imp table is not size x size",
         dict(imp=[[1, 1], [0, 1], [1, 1]]), "imp table is not size x size"),
        (dict(imp=((1, 1, 1), (0, 1))), "imp table is not size x size",
         dict(imp=[[1, 1, 1], [0, 1]]), "imp table is not size x size"),
        (dict(cond=((1, 1),)), "cond table is not size x size",
         dict(cond=[[1, 1]]), "cond table is not size x size"),
        (dict(cond=((1, 1), (1,))), "cond table is not size x size",
         dict(cond=[[1, 1], [1]]), "cond table is not size x size"),
        (dict(imp=((1, 2), (0, 1))), "imp table entry out of range",
         dict(imp=[[1, 2], [0, 1]]), "imp entry index 2 is not an int in 0..1"),
        (dict(cond=((1, 1), (-1, 1))), "cond table entry out of range",
         dict(cond=[[1, 1], [-1, 1]]), "cond entry index -1 is not an int in 0..1"),
        (dict(top=2), "top or bot out of range",
         dict(top=2), "top/bot index 2 is not an int in 0..1"),
        (dict(bot=-1), "top or bot out of range",
         dict(bot=-1), "top/bot index -1 is not an int in 0..1"),
    ])
    def test_direct_and_loaded(self, fields, direct, in_file, loaded):
        good = dataclasses.asdict(boolean2())
        with pytest.raises(FrameFormatError) as exc:
            FiniteCHA(**{**good, **fields})
        assert str(exc.value) == direct
        with pytest.raises(FrameFormatError) as exc:
            algebra_from_json({**algebra_to_json(boolean2()), **in_file})
        assert str(exc.value) == loaded


def _checked(cls, **fields):
    """What ``algebra._unchecked`` stands in for: the checking constructor."""
    if cls is ConditionalFrame:
        return ConditionalFrame(fields["order"], fields["relations"])
    return cls(**fields)


def _outcome(fn, arg):
    try:
        return ("value", fn(arg))
    except Exception as exc:  # both paths must fail alike, whatever the type
        return ("error", type(exc), str(exc))


def _both_paths(fn, arg):
    """``fn(arg)`` as built, then with every value through its checking constructor."""
    built = _outcome(fn, arg)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(algebra, "_unchecked", _checked)
        checked = _outcome(fn, arg)
    return built, checked


def _incoherent_full_frame(rng):
    """Every upset admissible, each with arbitrary rows."""
    p = _orders(rng)
    return ConditionalFrame(p, {a: tuple(rng.randrange(p.full_mask + 1) for _ in range(p.n))
                                for a in all_upsets(p)})


class TestBuiltWithoutChecks:
    """``complex_algebra`` and ``_dual_with_maps`` skip the constructor checks;
    on every frame they must return what the checking constructors return,
    and fail where those fail, with the same exception and message."""

    @staticmethod
    def _agree(frame, seen):
        built, checked = _both_paths(complex_algebra, frame)
        assert built == checked, frame
        seen[built[0]] += 1
        if built[0] == "value":
            alg = built[1]
            assert type(alg) is FiniteCHA
            dual, dual_checked = _both_paths(algebra._dual_with_maps, alg)
            assert dual == dual_checked, alg
            if dual[0] == "value":
                assert type(dual[1][0]) is ConditionalFrame
                seen["dual"] += 1

    def test_every_frame_of_at_most_two_worlds(self):
        seen = Counter()
        for frame in enumerate_full_frames(2):
            self._agree(frame, seen)
        assert seen == {"value": 68302, "dual": 68302}

    def test_seeded_frames(self):
        seen = Counter()
        for i in range(200):
            rng = random.Random(f"unchecked:{i}")
            self._agree(random_full_frame(rng, rng.choice((3, 4)), strong=i % 2 == 0), seen)
            self._agree(random_general_frame(rng, rng.choice((2, 3, 3, 4))), seen)
        assert seen == {"value": 400, "dual": 400}

    def test_unclosed_and_incoherent_families(self):
        seen = Counter()
        for i in range(300):
            rng = random.Random(f"unchecked-bad:{i}")
            self._agree(_unclosed_frame(rng), seen)
            self._agree(_incoherent_full_frame(rng), seen)
        # both outcomes are reached; two 5-world full families exceed the
        # prime filter cap, on both paths alike
        assert seen["error"] > 100 and seen["value"] > 100 and seen["dual"] > 100


class TestUnclosedFamilies:
    """A family not closed under the operations is refused with the operation
    and the first pair of upsets it takes outside the family."""

    def test_imp(self):
        g = _unclosed_frame(random.Random("unchecked-bad:0"))
        assert g.admissible == (5, 22, 24, 26, 28, 29)
        with pytest.raises(FrameFormatError) as exc:
            complex_algebra(g)
        assert str(exc.value) == ("admissible family is not closed under imp: "
                                  "{0,2}, {0,2} give {0,1,2,3,4}")

    def test_cond(self, anti2):
        # the relation at the empty set puts world 0 alone outside its box
        g = general_frame(anti2, (0, m(0, 1)), {0: (m(0), 0), m(0, 1): (0, 0)})
        with pytest.raises(FrameFormatError) as exc:
            complex_algebra(g)
        assert str(exc.value) == "admissible family is not closed under cond: {}, {} give {1}"

    @pytest.mark.parametrize("admissible, what", [
        ((), "the full world set"),
        ((m(0, 1),), "the empty set"),
    ])
    def test_missing_bounds(self, anti2, admissible, what):
        g = general_frame(anti2, admissible, {a: (0, 0) for a in admissible})
        with pytest.raises(FrameFormatError) as exc:
            complex_algebra(g)
        assert str(exc.value) == f"admissible family must contain {what}"
