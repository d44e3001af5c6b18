import itertools
import random

import pytest

from condlogic import order as order_module
from condlogic.errors import CapExceededError, FrameFormatError
from condlogic.frames import frame_from_json
from condlogic.generate import enumerate_preorders
from condlogic.order import (
    FinitePreorder,
    heyting_imp,
    interned_order,
    is_upset,
    key_to_mask,
    mask_to_key,
    up_closure,
)

from conftest import m, preorder
from corr_oracle import down_closure


def heyting_imp_via_down(p: FinitePreorder, a: int, b: int) -> int:
    """Oracle for ``heyting_imp``: ``X minus down(a minus b)``, a second route."""
    return p.full_mask & ~down_closure(p, a & ~b)


# a small zoo of preorders covering chains, antichains, forks and a cluster
def _zoo():
    return [
        preorder(1),
        preorder(2, [(0, 1)]),
        preorder(2),
        preorder(2, [(0, 1), (1, 0)]),  # two-element cluster
        preorder(3, [(0, 1), (0, 2)]),
        preorder(3, [(0, 2), (1, 2)]),
        preorder(3, [(0, 1), (1, 2), (0, 2)]),
        preorder(4, [(0, 1), (0, 2), (1, 3), (2, 3), (0, 3)]),  # diamond
        preorder(4, [(0, 1), (2, 3)]),
        preorder(5, [(0, 1), (1, 2), (0, 2), (3, 4)]),
        preorder(5, [(0, 2), (1, 2), (2, 3), (2, 4), (0, 3), (0, 4), (1, 3), (1, 4)]),
    ]


class TestPreorderValidation:
    def test_not_transitive_rejected(self):
        with pytest.raises(FrameFormatError):
            preorder(3, [(0, 1), (1, 2)])  # missing (0, 2)

    def test_reflexivity_enforced(self):
        with pytest.raises(FrameFormatError):
            FinitePreorder(2, (1, 1))  # world 1 lacks its own bit

    def test_nonempty(self):
        with pytest.raises(FrameFormatError):
            preorder(0)

    def test_world_cap(self):
        with pytest.raises(CapExceededError):
            preorder(21)

    def test_poset_flag(self):
        assert preorder(2, [(0, 1)]).is_poset
        assert not preorder(2, [(0, 1), (1, 0)]).is_poset

    def test_poset_flag_is_antisymmetry_and_computed_once(self):
        for n in (1, 2, 3):
            for interned in enumerate_preorders(n):
                # a fresh instance: the interned one may have been asked already
                p = FinitePreorder(interned.n, interned.up)
                pairwise = not any(p.leq(i, j) and p.leq(j, i)
                                   for i, j in itertools.permutations(range(n), 2))
                assert "is_poset" not in p.__dict__
                assert p.is_poset == pairwise
                assert p.__dict__["is_poset"] == pairwise
                # the cached flag takes no part in equality or hashing
                fresh = FinitePreorder(p.n, p.up)
                assert fresh == p and hash(fresh) == hash(p)

    def test_list_rows_are_stored_as_a_tuple(self):
        for p in _zoo():
            listed = FinitePreorder(p.n, list(p.up))
            assert listed.up == p.up and type(listed.up) is tuple
            assert listed == p and hash(listed) == hash(p)
            assert listed.upsets == p.upsets


class TestIntern:
    """Orders built from rows go through one bounded intern, which keeps no
    error: a bad order is refused by the checking constructor on every call."""

    def test_a_bad_order_is_refused_on_every_call(self):
        messages = []
        for _ in range(2):
            with pytest.raises(FrameFormatError) as exc:
                FinitePreorder.from_pairs(3, [(0, 1), (1, 2)])
            messages.append(str(exc.value))
        assert messages == ["leq is not transitive at (0, 1)"] * 2

    def test_a_bad_frame_file_is_refused_on_every_load(self):
        obj = {"worlds": 3, "leq": [[0, 1], [1, 2]], "admissible": "all", "relations": {}}
        messages = []
        for _ in range(2):
            with pytest.raises(FrameFormatError) as exc:
                frame_from_json(obj)
            messages.append(str(exc.value))
        assert messages == ["leq is not transitive at (0, 1)"] * 2

    def test_two_loads_of_one_file_share_one_order(self):
        obj = {"worlds": 2, "leq": [[0, 1]], "admissible": "all",
               "relations": {"": [], "1": [], "0,1": [[0, 1]]}}
        first, second = frame_from_json(obj), frame_from_json(obj)
        assert first is not second
        assert first.order is second.order
        assert first.order is interned_order(first.order.up)
        assert first.order.upset_keys is second.order.upset_keys


class TestUpClosure:
    def test_bottom_of_chain_closes_to_everything(self, chain2):
        assert up_closure(chain2, m(0)) == m(0, 1)

    def test_empty(self, chain2):
        assert up_closure(chain2, 0) == 0

    def test_antichain_point_is_closed(self, anti2):
        assert up_closure(anti2, m(0)) == m(0)

    def test_least_upset_containing(self):
        p = preorder(3, [(0, 1), (0, 2)])
        assert up_closure(p, m(0)) == m(0, 1, 2)
        assert up_closure(p, m(1)) == m(1)


class TestDownClosure:
    def test_top_of_chain(self, chain2):
        assert down_closure(chain2, m(1)) == m(0, 1)

    def test_empty(self, chain2):
        assert down_closure(chain2, 0) == 0

    def test_antichain(self, anti2):
        assert down_closure(anti2, m(1)) == m(1)


class TestAllUpsets:
    def test_two_chain(self, chain2):
        assert chain2.upsets == (0, m(1), m(0, 1))

    def test_two_antichain_is_powerset(self, anti2):
        assert len(anti2.upsets) == 4

    def test_one_world(self, single):
        assert single.upsets == (0, m(0))

    def test_against_subset_scan(self):
        # independent brute force: upward-closedness checked pointwise
        for p in _zoo():
            expected = []
            for s in range(1 << p.n):
                if all(
                    not ((s >> i) & 1) or not (p.up[i] & ~s)
                    for i in range(p.n)
                ):
                    expected.append(s)
            assert list(p.upsets) == expected

    def test_members_are_upsets_and_order_ascending(self):
        for p in _zoo():
            ups = p.upsets
            assert list(ups) == sorted(ups)
            assert all(is_upset(p, a) for a in ups)

    def test_every_preorder_of_at_most_four_worlds_against_the_filter(self):
        seen = 0
        for n in range(1, 5):
            for p in _all_preorders(n):
                _assert_facts(p)
                seen += 1
        assert seen == 1 + 4 + 29 + 355  # labelled preorders on 1-4 worlds

    def test_seeded_larger_preorders_against_the_filter(self):
        rng = random.Random(5)
        for _ in range(60):
            n = rng.randint(6, 12)
            # a random relation of varying density, closed reflexively and transitively
            density = rng.choice((0.03, 0.06, 0.1, 0.2))
            up = [1 << i | sum(1 << j for j in range(n) if rng.random() < density)
                  for i in range(n)]
            for k in range(n):
                for i in range(n):
                    if up[i] >> k & 1:
                        up[i] |= up[k]
            _assert_facts(FinitePreorder(n, tuple(up)))

    def test_twenty_chain_without_a_subset_scan(self, monkeypatch):
        def no_subset_test(*args):
            raise AssertionError("the upset enumeration tested a subset")

        monkeypatch.setattr(order_module, "is_upset", no_subset_test)
        monkeypatch.setattr(order_module, "up_closure", no_subset_test)
        chain = preorder(20, [(i, j) for i in range(20) for j in range(i + 1, 20)])
        ups = FinitePreorder(chain.n, chain.up).upsets  # a fresh instance computes them
        # the upsets of a chain are its final segments
        assert ups == tuple(sorted(((1 << 20) - 1) ^ ((1 << i) - 1) for i in range(21)))


    def test_twenty_worlds_are_counted_without_listing_their_upsets(self):
        antichain = preorder(20)
        chain = preorder(20, [(i, j) for i in range(20) for j in range(i + 1, 20)])
        for p, count in ((antichain, 1 << 20), (chain, 21)):
            fresh = FinitePreorder(p.n, p.up)
            assert fresh.upset_count == count
            assert "upsets" not in vars(fresh)
        # the first upsets come one at a time, without the rest
        assert list(itertools.islice(FinitePreorder(20, antichain.up).iter_upsets(), 4)) \
            == [0, m(0), m(1), m(0, 1)]


def _filtered_upsets(p):
    """The old enumeration: every subset, filtered."""
    return tuple(s for s in range(1 << p.n) if up_closure(p, s) == s)


def _assert_facts(p):
    """The order's derived facts, read on the interned instance and on a
    directly built one, against the subset filter, the pairwise converse
    and the key of each filtered upset."""
    ups = _filtered_upsets(p)
    down = tuple(sum(1 << j for j in range(p.n) if p.leq(j, i)) for i in range(p.n))
    keys = [(mask_to_key(a), a) for a in ups]
    interned = interned_order(p.up)
    assert interned is interned_order(tuple(p.up)) and interned == p
    for q in (interned, FinitePreorder(p.n, p.up)):
        assert q.upset_count == len(ups), p  # counted before, or without, the listing
        assert tuple(q.iter_upsets()) == ups, p
        assert q.upsets == ups, p
        assert q.down == down, p
        assert list(q.upset_keys.items()) == keys, p


def _all_preorders(n):
    """Every preorder on ``n`` labelled worlds: reflexive relations that are transitive."""
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    for chosen in itertools.product((0, 1), repeat=len(pairs)):
        up = [1 << i for i in range(n)]
        for (i, j), bit in zip(pairs, chosen):
            up[i] |= bit << j
        if all(up[j] & ~up[i] == 0 for i in range(n) for j in range(n) if up[i] >> j & 1):
            yield FinitePreorder(n, tuple(up))


class TestHeytingImp:
    def test_chain_example(self, chain2):
        # both defining routes agree on the worked value
        a, b = m(1), 0
        assert heyting_imp(chain2, a, b) == 0
        assert heyting_imp_via_down(chain2, a, b) == 0

    def test_subset_gives_top(self):
        for p in _zoo():
            ups = p.upsets
            for a in ups:
                for b in ups:
                    if not a & ~b:
                        assert heyting_imp(p, a, b) == p.full_mask

    def test_full_antecedent_gives_consequent(self):
        for p in _zoo():
            for b in p.upsets:
                assert heyting_imp(p, p.full_mask, b) == b

    def test_two_definitions_agree_everywhere(self):
        # exhaustive over all upset pairs of every zoo preorder (n <= 5)
        for p in _zoo():
            for a in p.upsets:
                for b in p.upsets:
                    assert heyting_imp(p, a, b) == heyting_imp_via_down(p, a, b)

    def test_residuation_law(self):
        # c <= (a -> b) iff c & a <= b, for all upsets on frames with n <= 4
        for p in _zoo():
            if p.n > 4:
                continue
            ups = p.upsets
            for a, b, c in itertools.product(ups, repeat=3):
                lhs = not c & ~heyting_imp(p, a, b)
                rhs = not (c & a) & ~b
                assert lhs == rhs


class TestKeys:
    def test_round_trip(self):
        assert mask_to_key(0) == ""
        assert mask_to_key(m(0, 2, 3)) == "0,2,3"
        assert key_to_mask("0,2,3") == m(0, 2, 3)
        assert key_to_mask("") == 0

    def test_bad_key(self):
        with pytest.raises(FrameFormatError):
            key_to_mask("0,x")
