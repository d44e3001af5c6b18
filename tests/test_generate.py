"""Row modes, fill-in recipes and preorder enumeration against the code they replaced.

A seed's draws are part of the output contract: the golden CLI corpus and
the benchmark digests pin what seeded runs produce.  The references below
are the per-mode factories, the ``_fill_rows`` if-chain and the sorted
preorder enumeration as they were before the mode and recipe tables.  On
every input both must give the same rows and leave the generator in the
same state, or fail with the same exception type and message.
"""

import random
from collections import Counter

import pytest

from condlogic import catalog, fillins, generate
from condlogic.errors import SqueezePreconditionError
from condlogic.fillins import ALL_KINDS, FillInKind, check_squeeze_precondition, fill
from condlogic.frames import ConditionalFrame, GeneralFrame, compose_up_rel
from condlogic.generate import (
    MODES,
    enumerate_preorders,
    random_full_frame,
    random_general_frame,
    random_poset,
    random_rows,
    repair_strong,
)
from condlogic.order import FinitePreorder, all_upsets, intransitive_pair


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
    for a in all_upsets(g.order):
        if a in admissible:
            continue
        if kind is FillInKind.SQUEEZE:
            relations[a] = fillins._squeeze_rows(g, a)
        else:
            relations[a] = old_fill_rows(g, kind, a)
    return ConditionalFrame(g.order, relations)


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
        ups = all_upsets(p)
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
    ups = all_upsets(p)
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
