"""Row modes, fill-in recipes, the admissible closure and preorder
enumeration against the code they replaced.

A seed's draws are part of the output contract: the golden CLI corpus and
the benchmark digests pin what seeded runs produce.  The references below
are the per-mode factories, the ``_fill_rows`` if-chain and the sorted
preorder enumeration as they were before the mode and recipe tables, and
the closure that combined every pair of the family in every round, and
the general-frame draw that built a frame for every attempt.  On
every input both must give the same rows and leave the generator in the
same state, or fail with the same exception type and message.  The fast
paths of the draw (interned orders, the implication memo, samplers without
a wrapper and frames built without the constructor's checks) are checked
against the checking paths they replace.
"""

import itertools
import random
from collections import Counter

import pytest

from condlogic import catalog, fillins, generate
from condlogic.errors import SqueezePreconditionError
from condlogic.fillins import ALL_KINDS, FillInKind, check_squeeze_precondition, fill
from condlogic.frames import ConditionalFrame, GeneralFrame, compose_up_rel, validate_general
from condlogic.generate import (
    MODES,
    close_admissible,
    coherent_relations,
    enumerate_full_frames,
    enumerate_preorders,
    make_sampler,
    random_full_frame,
    random_general_frame,
    random_poset,
    random_rows,
    repair_strong,
)
from condlogic.order import FinitePreorder, box, heyting_imp, interned_order, intransitive_pair


# --- reference row modes -------------------------------------------------------


def old_empty(rng, p):
    zero = (0,) * p.n
    return lambda a: zero


def old_random(rng, p):
    density = rng.choice([0.15, 0.3, 0.5])
    return lambda a: compose_up_rel(p, random_rows(rng, p, density))


def old_strong_random(rng, p):
    density = rng.choice([0.15, 0.3, 0.5])
    return lambda a: repair_strong(p, random_rows(rng, p, density))


def old_subset(rng, p):
    density = rng.choice([0.3, 0.6])
    return lambda a: compose_up_rel(p, [r & a for r in random_rows(rng, p, density)])


def old_refl(rng, p):
    return lambda a: (a,) * p.n


def old_strength(rng, p):
    return lambda a: tuple(p.up[x] & a for x in range(p.n))


def old_strength_sub(rng, p):
    density = rng.choice([0.4, 0.7])
    def sample(a):
        rows = [r & p.up[x] & a for x, r in enumerate(random_rows(rng, p, density))]
        return compose_up_rel(p, rows)
    return sample


def old_up_within(rng, p):
    density = rng.choice([0.4, 0.7])
    def sample(a):
        rows = [r & p.up[x] for x, r in enumerate(random_rows(rng, p, density))]
        return compose_up_rel(p, rows)
    return sample


def old_diag(rng, p):
    density = rng.choice([0.0, 0.2, 0.4])
    def sample(a):
        rows = random_rows(rng, p, density)
        for x in range(p.n):
            if (a >> x) & 1:
                rows[x] |= 1 << x
        return compose_up_rel(p, rows)
    return sample


def old_diag_all(rng, p):
    density = rng.choice([0.0, 0.2, 0.4])
    def sample(a):
        rows = random_rows(rng, p, density)
        for x in range(p.n):
            rows[x] |= 1 << x
        return compose_up_rel(p, rows)
    return sample


def old_const_meet(rng, p):
    m0 = 0
    for j in range(p.n):
        if rng.random() < 0.5:
            m0 |= 1 << j
    return lambda a: ((a & m0),) * p.n


def old_shared(rng, p):
    density = rng.choice([0.2, 0.4])
    shared = compose_up_rel(p, random_rows(rng, p, density))
    return lambda a: shared


def old_singleton(rng, p):
    def sample(a):
        if rng.random() < 0.3:
            return (0,) * p.n
        h = rng.randrange(p.n)
        return ((1 << h),) * p.n
    return sample


def old_maximal_singleton(rng, p):
    maximal = [x for x in range(p.n) if p.up[x] == 1 << x]
    def sample(a):
        if not maximal or rng.random() < 0.3:
            return (0,) * p.n
        h = rng.choice(maximal)
        return ((1 << h),) * p.n
    return sample


def old_total_rows(rng, p):
    full = p.full_mask
    return lambda a: (full,) * p.n


def old_exf(rng, p):
    density = rng.choice([0.3, 0.6])
    def sample(a):
        rows = [
            r if p.up[x] & a else 0
            for x, r in enumerate(random_rows(rng, p, density))
        ]
        return compose_up_rel(p, rows)
    return sample


OLD_MODES = {
    "empty": old_empty,
    "random": old_random,
    "strong_random": old_strong_random,
    "subset": old_subset,
    "refl": old_refl,
    "strength": old_strength,
    "strength_sub": old_strength_sub,
    "up_within": old_up_within,
    "diag": old_diag,
    "diag_all": old_diag_all,
    "const_meet": old_const_meet,
    "shared": old_shared,
    "singleton": old_singleton,
    "maximal_singleton": old_maximal_singleton,
    "total_rows": old_total_rows,
    "exf": old_exf,
}


# --- reference fill-in dispatch --------------------------------------------------


def old_fill_rows(g, kind, a):
    p = g.order
    n = p.n
    if kind is FillInKind.EMPTY:
        return (0,) * n
    if kind is FillInKind.REFLEXIVE:
        return (a,) * n
    if kind is FillInKind.PRINCIPAL:
        return tuple(p.up[x] for x in range(n))
    if kind is FillInKind.TOTAL:
        return g.rel(p.full_mask)
    if kind is FillInKind.UNION:
        rows = []
        for x in range(n):
            acc = 0
            for c in g.admissible:
                if not c & ~a:
                    acc |= g.rel(c)[x]
            rows.append(acc)
        return tuple(rows)
    if kind is FillInKind.TRANSITIVE:
        rows = []
        for x in range(n):
            acc = 0
            for c in g.admissible:
                rel_c = g.rel(c)
                for y in range(n):
                    if p.leq(x, y) and not rel_c[y] & ~a:
                        acc |= rel_c[y]
            rows.append(acc)
        return tuple(rows)
    raise AssertionError(kind)


def old_fill(g, kind):
    if kind is FillInKind.SQUEEZE:
        pre = check_squeeze_precondition(g)
        if not pre.holds:
            raise SqueezePreconditionError(pre.witness)
    admissible = set(g.admissible)
    relations = dict(g.relations)
    for a in g.order.upsets:
        if a in admissible:
            continue
        if kind is FillInKind.SQUEEZE:
            relations[a] = fillins._squeeze_rows(g, a)
        else:
            relations[a] = old_fill_rows(g, kind, a)
    return ConditionalFrame(g.order, relations)


# --- reference draws: a constructor per order, a wrapper per sampler --------------


def old_random_poset(rng, n):
    edge_prob = rng.choice([0.2, 0.35, 0.5, 0.7])
    up = [1 << i for i in range(n)]
    for i in range(n - 1, -1, -1):
        for j in range(i + 1, n):
            if rng.random() < edge_prob:
                up[i] |= up[j]
    return FinitePreorder(n, tuple(up))


def old_make_sampler(rng, p, mode_names, force_subset=False, strong=False):
    name = mode_names[rng.randrange(len(mode_names))]
    base = MODES[name](rng, p)

    def sample(a):
        rows = base(a)
        if force_subset:
            rows = tuple(r & a for r in rows)
        if strong:
            rows = repair_strong(p, rows)
        return rows

    return sample


# --- reference preorder enumeration ----------------------------------------------


def old_enumerate_preorders(n):
    out = []
    offdiag = [(i, j) for i in range(n) for j in range(n) if i != j]
    for bits in range(1 << len(offdiag)):
        up = [1 << i for i in range(n)]
        for k, (i, j) in enumerate(offdiag):
            if (bits >> k) & 1:
                up[i] |= 1 << j
        if intransitive_pair(up) is None:
            out.append(FinitePreorder(n, tuple(up)))
    out.sort(key=old_matrix_int)
    return out


def old_matrix_int(p):
    value = 0
    for i in range(p.n):
        for j in range(p.n):
            value = (value << 1) | (1 if p.leq(i, j) else 0)
    return value


# --- reference admissible closure ----------------------------------------------------


def old_close_admissible(rng, p, seeds, sampler, rounds=None):
    """Every round combines every ordered pair of the family; ``rounds``, if
    given, gets one entry per round."""
    admissible = sorted(set(seeds) | {0, p.full_mask})
    relations = {a: sampler(a) for a in admissible}
    changed = True
    while changed:
        if rounds is not None:
            rounds.append(len(admissible))
        changed = False
        current = list(admissible)
        known = set(admissible)
        for a in current:
            for b in current:
                for c in (a & b, a | b, heyting_imp(p, a, b), box(relations[a], b)):
                    if c not in known:
                        known.add(c)
                        relations[c] = sampler(c)
                        changed = True
        admissible = sorted(known)
    return tuple(admissible), relations


def old_random_general_frame(rng, n, mode_names, force_subset, strong, close):
    """Builds a frame for every attempt, kept or not; ``close`` is the closure."""
    frame = None
    for _ in range(generate._MAX_REGEN):
        p = random_poset(rng, n)
        sampler = make_sampler(rng, p, mode_names, force_subset=force_subset, strong=strong)
        n_seeds = rng.randrange(0, 3)
        ups = p.upsets
        seeds = [ups[rng.randrange(len(ups))] for _ in range(n_seeds)]
        admissible, relations = close(rng, p, seeds, sampler)
        frame = GeneralFrame(p, admissible, relations)
        if len(admissible) < len(ups):
            return frame
    return frame


# --- the comparisons ---------------------------------------------------------------


CATALOG_MODE_LISTS = sorted(
    {*catalog.AXIOM_MODES.values(), catalog.ICC_MODES,
     ("random", "empty"), ("random", "strong_random", "empty")}
)


def _orders(rng):
    """Posets of 1-5 worlds, and preorders with cycles up to 3 worlds."""
    n = rng.randint(1, 5)
    if n <= 3 and rng.random() < 0.3:
        return rng.choice(enumerate_preorders(n))
    return random_poset(rng, n)


def test_mode_table_has_the_same_names():
    assert list(MODES) == list(OLD_MODES)


def test_catalog_modes_are_known():
    for modes in catalog.AXIOM_MODES.values():
        assert set(modes) <= set(MODES), modes
    assert set(catalog.ICC_MODES) <= set(MODES)


@pytest.mark.parametrize("name", list(OLD_MODES))
def test_mode_draws_as_before(name):
    for seed in range(400):
        p = _orders(random.Random(f"order:{seed}"))
        ups = p.upsets
        pick = random.Random(f"upsets:{seed}")
        asked = list(ups) + [pick.choice(ups) for _ in range(3)]
        new_rng, old_rng = random.Random(seed), random.Random(seed)
        new, old = MODES[name](new_rng, p), OLD_MODES[name](old_rng, p)
        assert new_rng.getstate() == old_rng.getstate()
        for a in asked:
            assert new(a) == old(a), (name, seed, p, a)
            assert new_rng.getstate() == old_rng.getstate(), (name, seed, p, a)


@pytest.mark.parametrize("modes", CATALOG_MODE_LISTS, ids="+".join)
def test_random_frames_as_before(modes, monkeypatch):
    def draw(table, seed, force_subset, strong):
        monkeypatch.setattr(generate, "MODES", table)
        rng = random.Random(f"{seed}:{force_subset}:{strong}")
        n = rng.choice((2, 3, 3, 4))
        g = random_general_frame(rng, n, modes, force_subset=force_subset, strong=strong)
        f = random_full_frame(rng, rng.choice((1, 2, 3)), strong=strong, mode_names=modes)
        return g, f, rng.getstate()

    for seed in range(12):
        for force_subset in (False, True):
            for strong in (False, True):
                args = (seed, force_subset, strong)
                assert draw(MODES, *args) == draw(OLD_MODES, *args), (modes, args)


def _fill_outcome(fn, g, kind):
    try:
        f = fn(g, kind)
    except Exception as exc:  # both dispatches must fail alike, whatever the type
        return ("error", type(exc), str(exc))
    return ("frame", f.order, f.admissible, f.relations)


def _unclosed_frame(rng):
    """An arbitrary family of upsets with arbitrary rows: neither closed nor
    coherent, and possibly without the empty or the full upset."""
    p = _orders(rng)
    ups = p.upsets
    admissible = [a for a in ups if rng.random() < 0.5]
    relations = {a: tuple(rng.randrange(p.full_mask + 1) for _ in range(p.n))
                 for a in admissible}
    return GeneralFrame(p, admissible, relations)


def _fill_pool():
    """A4-style frames (a third cautious and subset-forced), plus unclosed ones."""
    pool = []
    for i in range(600):
        rng = random.Random(f"fill:{i}")
        if i % 4 == 3:
            pool.append(_unclosed_frame(rng))
        elif i % 4 == 0:
            pool.append(random_general_frame(rng, rng.choice([2, 3, 3, 4]),
                                             mode_names=catalog.ICC_MODES,
                                             force_subset=True))
        else:
            pool.append(random_general_frame(rng, rng.choice([2, 3, 3, 4])))
    return pool


def test_fill_as_before():
    seen = Counter()
    for g in _fill_pool():
        for kind in ALL_KINDS:
            new = _fill_outcome(fill, g, kind)
            assert new == _fill_outcome(old_fill, g, kind), (g, kind)
            seen[kind.value, new[0] if new[0] == "frame" else new[1].__name__] += 1
    # the pool reaches every recipe, and the squeeze and total failures
    assert all(seen[kind.value, "frame"] for kind in ALL_KINDS)
    assert seen["squeeze", "SqueezePreconditionError"] and seen["total", "NotAdmissibleError"]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_preorders_in_the_same_order(n):
    assert enumerate_preorders(n) == old_enumerate_preorders(n)
    assert len(enumerate_preorders(n)) == (1, 4, 29)[n - 1]


def test_full_frames_as_the_checking_constructor_builds_them():
    # enumerate_full_frames builds without the constructor's checks
    checked = (ConditionalFrame(p, dict(zip(p.upsets, rows)))
               for n in (1, 2) for p in enumerate_preorders(n)
               for rows in itertools.product(coherent_relations(p), repeat=len(p.upsets)))
    count = 0
    for got, want in itertools.zip_longest(enumerate_full_frames(2), checked):
        assert type(got) is ConditionalFrame and vars(got) == vars(want), (got, want)
        count += 1
    assert count == 68_302


# the catalog's lists, ``("random",)`` (the default of random_general_frame)
CLOSURE_MODE_LISTS = sorted({*CATALOG_MODE_LISTS, ("random",)})


def _closure_case(seed):
    """A generator, an order, a seed family and a sampler, all from one seed."""
    rng = random.Random(f"closure:{seed}")
    p = _orders(rng)
    ups = p.upsets
    seeds = [rng.choice(ups) for _ in range(rng.randrange(0, 4))]
    modes = rng.choice(CLOSURE_MODE_LISTS)
    sampler = make_sampler(rng, p, modes, force_subset=rng.random() < 0.5,
                           strong=rng.random() < 0.5)
    return rng, p, seeds, sampler


def _starts_below_and_fills(p, seeds, admissible):
    """Whether the closure began below all upsets and ended holding them all,
    so that it stopped early inside its loop."""
    n_ups = len(p.upsets)
    return len(set(seeds) | {0, p.full_mask}) < n_ups == len(admissible)


def test_closure_as_before():
    depths = Counter()
    fills = 0
    for seed in range(600):
        rng, p, seeds, sampler = _closure_case(seed)
        new = close_admissible(rng, p, seeds, sampler)
        old_rng, old_p, old_seeds, old_sampler = _closure_case(seed)
        rounds = []
        old = old_close_admissible(old_rng, old_p, old_seeds, old_sampler, rounds)
        assert new == old, seed
        assert rng.getstate() == old_rng.getstate(), seed
        depths[len(rounds)] += 1
        fills += _starts_below_and_fills(p, seeds, new[0])
    # the multi-round path: a later round still adds sets
    assert sum(count for depth, count in depths.items() if depth >= 3) >= 10, depths
    # the early stop: 98 of the 600 cases grow to every upset (169 more
    # start with every upset, 128 of them on one-world orders)
    assert fills >= 50, fills


def test_closure_combines_each_pair_once(monkeypatch):
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(generate, "box", counted("cond", box))
    at_last_draw = Counter()

    def draw(sampler):
        def wrapper(a):
            calls["draw"] += 1
            at_last_draw.clear()
            at_last_draw.update(calls)
            return sampler(a)
        return wrapper

    fills = 0
    for seed in range(600):
        rng, p, seeds, sampler = _closure_case(seed)
        calls.clear()
        closed = close_admissible(rng, p, seeds, draw(sampler))
        admissible = closed[0]
        k = len(admissible)
        if k < len(p.upsets):
            # meet, join and imp are evaluated in the same tuple as cond
            assert calls == {"cond": k * k, "draw": k}, (seed, k)
        else:
            # one draw per upset, and no pair combined after the last of them
            assert calls["draw"] == k, (seed, k)
            assert at_last_draw == calls, (seed, k)
            fills += _starts_below_and_fills(p, seeds, admissible)
        # the same case again, on the order's cached closure table: the same
        # frame is drawn, leaving the generator where it was
        again_rng, _, again_seeds, again_sampler = _closure_case(seed)
        again = close_admissible(again_rng, p, again_seeds, draw(again_sampler))
        assert again == closed and again_rng.getstate() == rng.getstate(), seed
    assert fills >= 50, fills


@pytest.mark.parametrize("modes", CLOSURE_MODE_LISTS, ids="+".join)
def test_random_general_frames_as_before(modes):
    """Same frames and generator state as the full-product closure in the
    old draw, and every frame passes ``validate_general``, a closure check
    outside the generator (it takes the cond operation through
    ``GeneralFrame.dto``)."""
    depths = Counter()
    closures = []

    def draw(generate_frame, n, seed, force_subset, strong):
        rng = random.Random(f"{seed}:{n}:{force_subset}:{strong}")
        g = generate_frame(rng, n, modes, force_subset=force_subset, strong=strong)
        return g, rng.getstate()

    def close(rng, p, seeds, sampler):
        rounds = []
        closed = old_close_admissible(rng, p, seeds, sampler, rounds)
        depths[len(rounds)] += 1
        closures.append(closed)
        return closed

    def old(rng, n, mode_names, force_subset, strong):
        closures.clear()
        return old_random_general_frame(rng, n, mode_names, force_subset, strong, close)

    redraws = 0
    for n in range(1, 6):
        for seed in range(6):
            for force_subset in (False, True):
                for strong in (False, True):
                    args = (n, seed, force_subset, strong)
                    new = draw(random_general_frame, *args)
                    assert new == draw(old, *args), (modes, args)
                    assert validate_general(new[0]).ok, (modes, args)
                    # every closure but the last filled every upset
                    redraws += len(closures) - 1
    assert max(depths) >= 3, (modes, depths)
    # the discarded draws: the frame returned is the last one drawn
    assert redraws >= 1, (modes, redraws)


def test_random_posets_as_the_checking_constructor_builds_them():
    for seed in range(500):
        n = 1 + seed % 5
        rng, old_rng = random.Random(f"poset:{seed}"), random.Random(f"poset:{seed}")
        p, want = random_poset(rng, n), old_random_poset(old_rng, n)
        assert type(p) is FinitePreorder and (p.n, p.up) == (want.n, want.up), seed
        assert rng.getstate() == old_rng.getstate(), seed


def test_equal_orders_are_one_instance():
    # 50 orders of at most four worlds have edges only upwards; the intern
    # holds them all, so every draw of one rows tuple gives one instance
    interned_order.cache_clear()
    first = {}
    for seed in range(2000):
        p = random_poset(random.Random(f"interned:{seed}"), 1 + seed % 4)
        assert first.setdefault(p.up, p) is p, seed
    assert len(first) == 50
    assert interned_order.cache_info().currsize == 50


@pytest.mark.parametrize("modes", CLOSURE_MODE_LISTS, ids="+".join)
def test_samplers_as_the_wrapper_draws_them(modes):
    # without a repair, make_sampler returns the mode's own sampler
    for seed in range(20):
        p = _orders(random.Random(f"order:{seed}"))
        ups = p.upsets
        for force_subset, strong in itertools.product((False, True), repeat=2):
            rng, old_rng = random.Random(seed), random.Random(seed)
            new = make_sampler(rng, p, modes, force_subset, strong)
            old = old_make_sampler(old_rng, p, modes, force_subset, strong)
            for a in ups + ups:
                assert new(a) == old(a), (modes, seed, p, a)
                assert rng.getstate() == old_rng.getstate(), (modes, seed, p, a)


@pytest.mark.parametrize("modes", CLOSURE_MODE_LISTS, ids="+".join)
def test_random_general_frames_as_the_checking_constructor_builds_them(modes):
    """The kept frame is built without the constructor's checks; it must
    hold what the checking constructor would make of its fields, and pass
    ``validate_general``."""
    for n in range(1, 6):
        for seed in range(6):
            for force_subset, strong in itertools.product((False, True), repeat=2):
                args = (modes, n, seed, force_subset, strong)
                rng = random.Random(f"checked:{seed}:{n}:{force_subset}:{strong}")
                g = random_general_frame(rng, n, modes, force_subset=force_subset,
                                         strong=strong)
                want = GeneralFrame(g.order, g.admissible, dict(g.relations))
                assert type(g) is GeneralFrame and vars(g) == vars(want), args
                assert validate_general(g).ok, args
