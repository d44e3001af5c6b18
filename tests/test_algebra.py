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
    enumerate_preorders,
    random_formula,
    random_full_frame,
    random_general_frame,
    random_poset,
)
from condlogic.frames import _strongly_coherent_rows, strongly_coherent
from condlogic.order import FinitePreorder, box, mask_to_key, set_bits
from condlogic.semantics import valid
from condlogic.syntax import Language, parse, print_formula, proposition_letters

from conftest import (
    algebra_to_json, constant_full_frame, full_frame, general_frame, m, preorder,
)
from test_cli_golden import ALGEBRA as GOLDEN_ALGEBRA
from test_generate import _orders, _unclosed_frame


def boolean2(cond_top_bot=1):
    """Two-element algebra; cond is constant top except cond(top, bot)."""
    leq = (0b11, 0b10)
    imp = ((1, 1), (0, 1))
    cond = ((1, 1), (cond_top_bot, 1))
    return FiniteCHA(2, leq, imp, cond, top=1, bot=0)


def chain(k):
    """The k-element chain 0 < 1 < ... < k-1, cond constant top."""
    leq = tuple(((1 << k) - 1) & ~((1 << i) - 1) for i in range(k))
    imp = tuple(
        tuple(k - 1 if i <= j else j for j in range(k)) for i in range(k)
    )
    cond = ((k - 1,) * k,) * k
    return FiniteCHA(k, leq, imp, cond, top=k - 1, bot=0)


def chain3():
    return chain(3)


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
        assert validate_cha(chain(algebra.PF_CAP)).ok and validate_cha(chain(21)).ok
        assert len(prime_filters(chain(algebra.PF_CAP))) == algebra.PF_CAP - 1
        with pytest.raises(CapExceededError) as exc:
            prime_filters(chain(21))
        assert str(exc.value) == "prime filter scan is capped at carrier size 20, got 21"

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


def _top_meet_maps(ups):
    """Every map on the upsets ``ups`` (ascending, so the full set is last)
    that keeps the full set and meets, as a tuple of images in ``ups`` order.
    Partial maps are extended one upset at a time, from the full set down,
    to every upset, and one is dropped once two assigned upsets have an
    assigned meet whose image is not the meet of their images; so every map
    is tried, without the 8^8 candidates of the 3-world antichain."""
    found = []

    def extend(f, rest):
        if not rest:
            found.append(tuple(f[a] for a in ups))
            return
        a, rest = rest[0], rest[1:]
        for v in ups:
            f[a] = v
            if all(f[b & c] == f[b] & f[c] for b in f for c in f if b & c in f):
                extend(f, rest)
            del f[a]

    extend({ups[-1]: ups[-1]}, ups[-2::-1])
    return found


def _strongly_coherent_by_definition(up, rows):
    """Every row is an upset of the order with rows ``up``, and x <= y
    implies R[y] within R[x]."""
    return (all(not up[y] & ~row for row in rows for y in set_bits(row))
            and all(not rows[y] & ~rows[x] for x in range(len(up)) for y in set_bits(up[x])))


class TestBoxBijection:
    """The finite duality from the frame side: on every labelled poset of at
    most three worlds, box is a bijection from the strongly coherent
    relations onto the maps on the upsets that keep the full set and meets,
    and the dual rows of each such map are the relation it came from."""

    def test_every_poset_of_at_most_three_worlds(self):
        counts = Counter()
        for p in (p for n in (1, 2, 3) for p in enumerate_preorders(n) if p.is_poset):
            ups, n, full = p.upsets, p.n, p.full_mask
            rels = [rows for rows in itertools.product(range(full + 1), repeat=n)
                    if _strongly_coherent_rows(p.up, rows)]
            # the same relations, read off the definition
            assert rels == [rows for rows in itertools.product(range(full + 1), repeat=n)
                            if _strongly_coherent_by_definition(p.up, rows)], p
            boxes = [tuple(box(rows, b) for b in ups) for rows in rels]
            for f in boxes:
                assert f[-1] == full and set(f) <= set(ups), p
                image = dict(zip(ups, f))
                assert all(image[a & b] == image[a] & image[b] for a in ups for b in ups), p
            assert len(set(boxes)) == len(rels), p
            maps = _top_meet_maps(ups)
            assert sorted(maps) == sorted(boxes), p
            eta = algebra._eta(ups, n)
            for rows, f in zip(rels, boxes):
                dual = algebra._dual_rows(tuple(ups.index(v) for v in f), eta, ups, full)
                assert dual == rows, p
            counts[len(rels)] += 1
        assert counts == {2: 1, 6: 2, 16: 1, 20: 6, 50: 6, 108: 6, 512: 1}

    def test_dual_rows_read_through_theta(self):
        """The same bijection from the algebra side: each box, as a cond row
        of the upset algebra, gives through the algebra's own prime filters
        and theta a strongly coherent dual relation whose box is the map
        again, carried by theta."""
        counts = {}
        for p in (p for n in (1, 2, 3) for p in enumerate_preorders(n) if p.is_poset):
            ups, n, full = p.upsets, p.n, p.full_mask
            leq, _imp, top, bot = algebra._upset_algebra(p, ups)
            facts = algebra._order_facts(len(ups), leq, top, bot)
            pf_up, theta = facts.pf_order.up, facts.theta
            rels = [rows for rows in itertools.product(range(full + 1), repeat=n)
                    if _strongly_coherent_by_definition(p.up, rows)]
            boxes = set()
            for rows in rels:
                f = {b: box(rows, b) for b in ups}
                assert f[full] == full, (p, rows)
                assert all(f[a & b] == f[a] & f[b] for a in ups for b in ups), (p, rows)
                cond_row = tuple(ups.index(f[b]) for b in ups)
                dual = algebra._dual_rows(cond_row, facts.prime_filters, theta,
                                          facts.pf_order.full_mask)
                assert _strongly_coherent_by_definition(pf_up, dual), (p, rows)
                assert [box(dual, t) for t in theta] == [theta[c] for c in cond_row], (p, rows)
                boxes.add(cond_row)
            assert len(boxes) == len(rels), p
            shape = tuple(sorted(bin(u).count("1") for u in p.up))  # up-set sizes
            counts.setdefault(shape, set()).add(len(rels))
        assert counts == {
            (1,): {2},
            (1, 1): {16}, (1, 2): {6},
            (1, 1, 1): {512}, (1, 1, 2): {108}, (1, 1, 3): {50}, (1, 2, 2): {50}, (1, 2, 3): {20},
        }


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

    def test_a_wrong_imp_in_the_dual_is_reported_at_its_pair(self, monkeypatch, fresh_facts):
        # the imp check compares theta of each residual with the Heyting
        # implication of the prime-filter poset, once per lattice
        real = algebra.heyting_imp
        for alg in (chain3(), boolean4()):
            theta = algebra._order_facts(alg.size, alg.leq, alg.top, alg.bot).theta
            for i, j in itertools.product(range(alg.size), repeat=2):

                def wrong(p, a, b):
                    c = real(p, a, b)
                    return c ^ p.full_mask if (a, b) == (theta[i], theta[j]) else c

                monkeypatch.setattr(algebra, "heyting_imp", wrong)
                algebra._order_facts.cache_clear()
                assert check_duality_roundtrip(alg).failures == [f"theta breaks imp at ({i}, {j})"]

    @pytest.mark.parametrize("kind", ["top", "bot", "meet", "join", "imp", "cond"])
    def test_every_failure_message_fires_at_its_pair(self, kind, fresh_facts):
        for alg in (chain3(), boolean4(), algebra_from_json(GOLDEN_ALGEBRA)):
            if kind in ("top", "bot"):
                with pytest.MonkeyPatch.context() as patch:
                    _inject_order_fault(patch, kind, None)
                    assert check_duality_roundtrip(alg).failures == [
                        f"theta does not preserve {kind}"]
                algebra._order_facts.cache_clear()
                continue
            for i, j in itertools.product(range(alg.size), repeat=2):
                with pytest.MonkeyPatch.context() as patch:
                    if kind == "cond":
                        _inject_cond_fault(patch, i, j)
                    else:
                        _inject_order_fault(patch, kind, (i, j))
                    assert check_duality_roundtrip(alg).failures == [
                        f"theta breaks {kind} at ({i}, {j})"]
                algebra._order_facts.cache_clear()

    def test_order_only_failures_come_before_cond(self, monkeypatch, fresh_facts):
        alg = algebra_from_json(GOLDEN_ALGEBRA)
        _inject_order_fault(monkeypatch, "meet", (2, 3))
        _inject_cond_fault(monkeypatch, 0, 0)
        assert check_duality_roundtrip(alg).failures == [
            "theta breaks meet at (2, 3)", "theta breaks cond at (0, 0)"]

    def test_agrees_with_the_check_through_the_complex_algebra_of_the_dual(
            self, monkeypatch, fresh_facts):
        algs = [complex_algebra(f) for f in enumerate_full_frames(2)]
        for i in range(200):
            rng = random.Random(f"roundtrip:{i}")
            algs.append(complex_algebra(random_full_frame(rng, rng.choice((3, 4)),
                                                          strong=i % 2 == 0)))
        algs += [boolean2(), boolean2(0), chain3(), boolean4(), algebra_from_json(GOLDEN_ALGEBRA)]
        calls = Counter()
        for name in ("complex_algebra", "dual_frame", "_theta_failures", "_unchecked_algebra"):
            real = getattr(algebra, name)

            def counted(*args, _real=real, _name=name, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(algebra, name, counted)
        algebra._order_facts.cache_clear()  # loading the golden algebra filled it
        for alg in algs:
            assert check_duality_roundtrip(alg).failures == [], alg
        # no complex algebra and no dual frame is built
        assert calls["complex_algebra"] == calls["dual_frame"] == calls["_unchecked_algebra"] == 0
        for alg in algs:
            assert reference_check_duality_roundtrip(alg).failures == [], alg
        lattices = {(alg.size, alg.leq, alg.top, alg.bot) for alg in algs}
        assert calls["_theta_failures"] == len(lattices)

    def test_large_carriers_load_and_validate_but_are_not_dualised(self):
        k = 25  # 24 prime filters, more than a frame may have worlds
        alg = algebra_from_json({
            "size": k, "leq": [[i, j] for i in range(k) for j in range(i, k)],
            "imp": [[k - 1 if i <= j else j for j in range(k)] for i in range(k)],
            "cond": [[k - 1] * k] * k, "top": k - 1, "bot": 0,
        })
        assert validate_cha(alg).ok
        assert len(algebra._order_facts(k, alg.leq, alg.top, alg.bot).prime_filters) == k - 1
        for fn in (dual_frame, check_duality_roundtrip):
            with pytest.raises(CapExceededError) as exc:
                fn(alg)
            assert str(exc.value) == "prime filter scan is capped at carrier size 20, got 25"


# the memos of the relation half, one entry per distinct row
ROW_MEMOS = (algebra._cond_checks, algebra._cond_row, algebra._relation_diff)


class TestRowMemos:
    def test_a5_slice_fills_each_row_memo_without_eviction(self, fresh_facts):
        # A5's frames, every 8th: each distinct row is computed once and then
        # read back from its memo, which must hold every one of them
        frames = list(itertools.islice(enumerate_full_frames(2), 0, None, 8))
        for i in range(0, 200, 8):
            frames.append(random_full_frame(random.Random(f"a5:{i}"), 3, strong=i % 2 == 0))
        for frame in frames:
            assert check_duality_roundtrip(complex_algebra(frame)).ok
            if frame.order.is_poset and strongly_coherent(frame):
                assert frame_roundtrip(frame).ok
        for memo in ROW_MEMOS:
            info = memo.cache_info()
            assert info.misses == info.currsize < info.maxsize, (memo, info)
            assert info.hits > 100 * info.misses, (memo, info)


def clear_memos():
    for memo in (algebra._order_facts, algebra._frame_order) + ROW_MEMOS:
        memo.cache_clear()


@pytest.fixture
def fresh_facts():
    """A fault injected below ``_order_facts`` is memoised with the lattice,
    and one injected below a row memo with the row, so every memo is emptied
    before and after each test that injects one."""
    clear_memos()
    yield
    clear_memos()


def _inject_order_fault(patch, kind, at):
    """Hand the order-only check a wrong ``top`` or ``bot`` (``at`` None), or
    a ``meet``, ``join`` or residual (``imp``) table wrong at the pair ``at``."""
    real = algebra._theta_failures

    def faulty(pf_order, theta, top, bot, meet, join, residual):
        args = {"top": top, "bot": bot, "meet": meet, "join": join, "imp": residual}
        if at is None:
            args[kind] = (args[kind] + 1) % len(theta)
        else:
            rows = [list(row) for row in args[kind]]
            rows[at[0]][at[1]] = (rows[at[0]][at[1]] + 1) % len(theta)
            args[kind] = tuple(map(tuple, rows))
        return real(pf_order, theta, *args.values())

    patch.setattr(algebra, "_theta_failures", faulty)
    algebra._order_facts.cache_clear()


def _at_call(patch, name, call, inner_name, inner):
    """Make the row memo ``name`` wrong at its call number ``call`` (counting
    from 0): that call runs the memo's function unmemoised, with the module's
    ``inner_name`` replaced by ``inner(real, *key)``.  The round trips call their
    row memo once per row, in order, whether the row is new or not (the
    algebra round trip through the :func:`validate_cha` it runs first), so a
    fault set by call number lands on its row even when rows repeat; and the
    faulty result is not memoised."""
    memo, real = getattr(algebra, name), getattr(algebra, inner_name)
    calls = itertools.count()

    def faulty(*key):
        if next(calls) != call:
            return memo(*key)
        with pytest.MonkeyPatch.context() as swap:
            swap.setattr(algebra, inner_name, inner(real, *key))
            return memo.__wrapped__(*key)

    patch.setattr(algebra, name, faulty)


def _inject_cond_fault(patch, i, j):
    """Make the cond check of row ``i`` take a wrong box over theta(j)."""

    def wrong_at_j(box, size, leq, top, bot, row):
        tj = algebra._order_facts(size, leq, top, bot).theta[j]
        return lambda rows, b: ~box(rows, b) if b == tj else box(rows, b)

    _at_call(patch, "_cond_checks", i, "box", wrong_at_j)


def _moved(mask, perm):
    return sum(1 << perm[x] for x in range(len(perm)) if (mask >> x) & 1)


def relabel(frame, perm):
    """``frame`` with world ``x`` renamed ``perm[x]``."""
    def moved_rows(rows):
        out = [0] * frame.n
        for x, row in enumerate(rows):
            out[perm[x]] = _moved(row, perm)
        return tuple(out)

    return ConditionalFrame(FinitePreorder(frame.n, moved_rows(frame.order.up)),
                            {_moved(a, perm): moved_rows(frame.rel(a)) for a in frame.admissible})


class TestRelabelling:
    """Renaming worlds gives an isomorphic frame, so both round trips still
    hold and the complex algebras are isomorphic through the renamed labels:
    an oracle that does not descend from the duality code."""

    def test_strongly_coherent_poset_frames(self):
        for i in range(300):
            rng = random.Random(f"relabel:{i}")
            frame = random_full_frame(rng, rng.choice((3, 4)), strong=True)
            perm = rng.sample(range(frame.n), frame.n)
            moved = relabel(frame, perm)
            a, b = complex_algebra(frame), complex_algebra(moved)
            assert frame_roundtrip(moved).ok and check_duality_roundtrip(b).ok
            h = [b.labels.index(_moved(label, perm)) for label in a.labels]
            assert sorted(h) == list(range(b.size))
            assert (h[a.top], h[a.bot]) == (b.top, b.bot)
            for x, y in itertools.product(range(a.size), repeat=2):
                assert a.le(x, y) == b.le(h[x], h[y])
                assert h[a.imp[x][y]] == b.imp[h[x]][h[y]]
                assert h[a.cond[x][y]] == b.cond[h[x]][h[y]]


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

    def test_a_flipped_dual_edge_is_reported_at_its_worlds(self, fresh_facts):
        # world 1 below world 0, so eta lists the prime filters in reverse;
        # the dual rows come per world, one relation check per upset in label
        # order, and every upset carries the same relation
        f = constant_full_frame(preorder(2, [(1, 0)]), (0b01, 0b11))
        labels = f.order.upsets
        for i, x, y in itertools.product(range(len(labels)), range(f.n), range(f.n)):

            def flip(dual_rows, up, rows, x=x, y=y):
                def flipped(*args):
                    out = list(dual_rows(*args))
                    out[x] ^= 1 << y
                    return tuple(out)
                return flipped

            with pytest.MonkeyPatch.context() as patch:
                _at_call(patch, "_relation_diff", i, "_dual_rows", flip)
                assert frame_roundtrip(f).failures == [
                    f"relation at {{{mask_to_key(labels[i])}}} disagrees with the dual "
                    f"at worlds ({x}, {y})"
                ]
            assert frame_roundtrip(f).ok

    @pytest.mark.parametrize("wrong, failure", [
        (lambda eta: (eta[1], eta[0]), "eta breaks the order at (0, 1)"),
        (lambda eta: (eta[0], eta[0]), "eta is not injective"),
        (lambda eta: (0, eta[1]), "eta(0) is not a prime filter"),
    ])
    def test_a_wrong_eta_is_memoised_with_the_order_and_reported(
            self, monkeypatch, chain2, wrong, failure):
        real = algebra._eta
        monkeypatch.setattr(algebra, "_eta", lambda ups, n: wrong(real(ups, n)))
        algebra._frame_order.cache_clear()
        try:
            for _ in range(2):  # computed once, then read from the memo
                assert frame_roundtrip(constant_full_frame(chain2, tuple(chain2.up))).failures \
                    == [failure]
            # the frame's own checks still come first
            with pytest.raises(DualityError, match="strong coherence"):
                frame_roundtrip(full_frame(chain2, {m(0, 1): (m(0), 0)}))
        finally:
            algebra._frame_order.cache_clear()

    def test_theta_by_world_is_the_upset_list(self):
        # the round trip reads the upsets as theta; the translation through
        # world_of that it replaced gives the same list on every poset
        posets = [p for n in (1, 2, 3) for p in enumerate_preorders(n) if p.is_poset]
        seeded = [random_poset(random.Random(f"theta-by-world:{i}"), 4 + i % 2)
                  for i in range(100)]
        # theta exists only within the prime filter cap; the round trip
        # raises the cap error on a larger order before it reads theta
        posets += [p for p in seeded if len(p.upsets) <= algebra.PF_CAP]
        assert len(posets) == 23 + 95
        for p in posets:
            assert _theta_by_world(p) == p.upsets, p

    def test_more_upsets_than_the_cap_raise_the_cap_error(self):
        # the 5-world antichain has 32 upsets, more than PF_CAP
        with pytest.raises(CapExceededError) as exc:
            frame_roundtrip(full_frame(preorder(5)))
        assert str(exc.value) == "prime filter scan is capped at carrier size 20, got 32"

    def test_a_frame_that_is_not_full_is_refused_before_the_cap(self):
        # both frames are strongly coherent on the 5-world antichain; the
        # order's memo must not let the cap error overtake the fullness check,
        # nor the refusal change the cap error, in either order
        anti5 = preorder(5)
        partial = general_frame(anti5, (0, anti5.full_mask),
                                {0: (0,) * 5, anti5.full_mask: (0,) * 5})
        refused = ("refusing invalid frame: [not-full] frame does not carry a relation "
                   "for every upset")
        capped = "prime filter scan is capped at carrier size 20, got 32"
        algebra._frame_order.cache_clear()
        for _ in range(2):
            with pytest.raises(DualityError) as exc:
                frame_roundtrip(partial)
            assert str(exc.value) == refused
            with pytest.raises(CapExceededError) as exc:
                frame_roundtrip(full_frame(anti5))
            assert str(exc.value) == capped

    def test_preorder_refused(self):
        cluster = preorder(2, [(0, 1), (1, 0)])
        f = full_frame(cluster)
        with pytest.raises(DualityError):
            frame_roundtrip(f)

    def test_weakly_coherent_frame_refused(self, chain2):
        f = full_frame(chain2, {m(0, 1): (m(0), 0)})
        with pytest.raises(DualityError):
            frame_roundtrip(f)


# --- references: the code before it was memoised on bitmasks or on lattices -


def _theta_by_world(p):
    """Theta of the upset lattice of the poset ``p``, translated to worlds
    through the world whose eta is each prime filter, as the frame round
    trip did before it read the upsets as theta."""
    ups = p.upsets
    leq, _imp, top, bot = algebra._upset_algebra(p, ups)
    facts = algebra._order_facts(len(ups), leq, top, bot)
    eta = algebra._eta(ups, p.n)
    assert algebra._eta_failure(p, facts.prime_filters, eta) is None
    pf_index = {pf: k for k, pf in enumerate(facts.prime_filters)}
    world_of = [0] * p.n  # the world whose eta is each prime filter
    for x, e in enumerate(eta):
        world_of[pf_index[e]] = x
    return tuple(sum(1 << world_of[k] for k in set_bits(t)) for t in facts.theta)


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


def reference_check_duality_roundtrip(alg):
    """The round trip through the complex algebra of the dual frame, read
    back through theta as indices into its carrier."""
    pre = validate_cha(alg)
    if not pre.ok:
        raise DualityError(f"refusing invalid algebra: {pre}")
    report = algebra.DualityReport()
    theta = algebra._order_facts(alg.size, alg.leq, alg.top, alg.bot).theta
    frame = dual_frame(alg)
    back = complex_algebra(frame)
    labels = back.labels
    index = {m: i for i, m in enumerate(labels)}
    if len(set(theta)) != alg.size or back.size != alg.size:
        report.add("theta is not a bijection")
        return report
    if theta[alg.top] != frame.order.full_mask:
        report.add("theta does not preserve top")
    if theta[alg.bot] != 0:
        report.add("theta does not preserve bot")
    meet, join = alg.lattice()
    pos = [index[t] for t in theta]  # theta as indices into back's carrier
    for i in range(alg.size):
        ti = pos[i]
        for j in range(alg.size):
            if theta[meet[i][j]] != theta[i] & theta[j]:
                report.add(f"theta breaks meet at ({i}, {j})")
                return report
            if theta[join[i][j]] != theta[i] | theta[j]:
                report.add(f"theta breaks join at ({i}, {j})")
                return report
            tj = pos[j]
            if pos[alg.imp[i][j]] != back.imp[ti][tj]:
                report.add(f"theta breaks imp at ({i}, {j})")
                return report
            if pos[alg.cond[i][j]] != back.cond[ti][tj]:
                report.add(f"theta breaks cond at ({i}, {j})")
                return report
    return report


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


def _checked(*fields):
    """What ``algebra._unchecked_algebra`` stands in for: the checking constructor."""
    return FiniteCHA(*fields)


def _outcome(fn, arg):
    try:
        return ("value", fn(arg))
    except Exception as exc:  # both paths must fail alike, whatever the type
        return ("error", type(exc), str(exc))


def _both_paths(fn, arg):
    """``fn(arg)`` as built, then with every value through its checking constructor."""
    built = _outcome(fn, arg)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(algebra, "_unchecked_algebra", _checked)
        checked = _outcome(fn, arg)
    return built, checked


def _incoherent_full_frame(rng):
    """Every upset admissible, each with arbitrary rows."""
    p = _orders(rng)
    return ConditionalFrame(p, {a: tuple(rng.randrange(p.full_mask + 1) for _ in range(p.n))
                                for a in p.upsets})


class TestBuiltWithoutChecks:
    """``complex_algebra`` skips the constructor checks; on every frame it
    must return what the checking constructor returns, and fail where that
    fails, with the same exception and message.  The dual frame of each
    complex algebra, built through its checking constructor, must exist."""

    @staticmethod
    def _agree(frame, seen):
        built, checked = _both_paths(complex_algebra, frame)
        assert built == checked, frame
        seen[built[0]] += 1
        if built[0] == "value":
            alg = built[1]
            assert type(alg) is FiniteCHA
            dual = _outcome(dual_frame, alg)
            if dual[0] == "value":
                assert type(dual[1]) is ConditionalFrame
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
