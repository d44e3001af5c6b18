import itertools
import random

import pytest

from condlogic import order as order_module
from condlogic.errors import CapExceededError, FrameFormatError
from condlogic.generate import enumerate_preorders
from condlogic.order import (
    FinitePreorder,
    all_upsets,
    heyting_imp,
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
            for p in enumerate_preorders(n):
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
            assert all_upsets(listed) == all_upsets(p)


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
        assert all_upsets(chain2) == (0, m(1), m(0, 1))

    def test_two_antichain_is_powerset(self, anti2):
        assert len(all_upsets(anti2)) == 4

    def test_one_world(self, single):
        assert all_upsets(single) == (0, m(0))

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
            assert list(all_upsets(p)) == expected

    def test_members_are_upsets_and_order_ascending(self):
        for p in _zoo():
            ups = all_upsets(p)
            assert list(ups) == sorted(ups)
            assert all(is_upset(p, a) for a in ups)

    def test_every_preorder_of_at_most_four_worlds_against_the_filter(self):
        seen = 0
        for n in range(1, 5):
            for p in _all_preorders(n):
                assert all_upsets.__wrapped__(p) == _filtered_upsets(p)
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
            p = FinitePreorder(n, tuple(up))
            assert all_upsets.__wrapped__(p) == _filtered_upsets(p)

    def test_twenty_chain_without_a_subset_scan(self, monkeypatch):
        def no_subset_test(*args):
            raise AssertionError("all_upsets tested a subset")

        monkeypatch.setattr(order_module, "is_upset", no_subset_test)
        monkeypatch.setattr(order_module, "up_closure", no_subset_test)
        chain = preorder(20, [(i, j) for i in range(20) for j in range(i + 1, 20)])
        ups = all_upsets.__wrapped__(chain)
        # the upsets of a chain are its final segments
        assert ups == tuple(sorted(((1 << 20) - 1) ^ ((1 << i) - 1) for i in range(21)))


def _filtered_upsets(p):
    """The old enumeration: every subset, filtered."""
    return tuple(s for s in range(1 << p.n) if up_closure(p, s) == s)


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
            ups = all_upsets(p)
            for a in ups:
                for b in ups:
                    if not a & ~b:
                        assert heyting_imp(p, a, b) == p.full_mask

    def test_full_antecedent_gives_consequent(self):
        for p in _zoo():
            for b in all_upsets(p):
                assert heyting_imp(p, p.full_mask, b) == b

    def test_two_definitions_agree_everywhere(self):
        # exhaustive over all upset pairs of every zoo preorder (n <= 5)
        for p in _zoo():
            for a in all_upsets(p):
                for b in all_upsets(p):
                    assert heyting_imp(p, a, b) == heyting_imp_via_down(p, a, b)

    def test_residuation_law(self):
        # c <= (a -> b) iff c & a <= b, for all upsets on frames with n <= 4
        for p in _zoo():
            if p.n > 4:
                continue
            ups = all_upsets(p)
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
