"""Finite preorders and upset machinery on int bitmasks.

Worlds are the integers ``0..n-1`` and a set of worlds is an ``int`` whose
bit ``i`` stands for world ``i``.  Upsets double as relation-family keys
and as algebra carrier elements, so the encoding has to be exact, hashable
and cheap to compare; Python ints are all three.

An order carries the facts that the other layers derive from it, each
computed once per instance on first use: the converse rows (``down``), the
upsets (``upsets``, enumerated directly, in time proportional to their
number), how many there are (``upset_count``, counted without listing
them), their file keys (``upset_keys``) and the Heyting implications met
so far (``imps``).  The library builds every order from rows through one
bounded intern, :func:`interned_order`, so equal orders are one instance
and share those facts; this module alone decides how, and for how long,
they are kept.  The world count is capped at :data:`MAX_WORLDS`.

The bit kernels live here and nowhere else: :func:`set_bits` lists the set
bits of a mask, :func:`image` unions relation rows over a set of worlds
(the up-closure is an image under the order), and :func:`box` keeps the
worlds whose row lies within a set (the Heyting implication, the
conditional and the modal box are all boxes).  :func:`read_indices` and
:func:`read_pair_rows` are the strict readers for world indices and index
pairs in JSON files.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Dict, Iterable, Iterator, Optional, Sequence, Tuple

from .errors import CapExceededError, FrameFormatError

MAX_WORLDS = 20


@dataclass(frozen=True)
class FinitePreorder:
    """Reflexive transitive relation on worlds ``0..n-1``.

    ``up[i]`` is the bitmask ``{j | i <= j}``; rows given as a list are
    stored as a tuple, so equal orders compare, hash and key caches alike.
    """

    n: int
    up: Tuple[int, ...]

    def __post_init__(self):
        _check_world_count(self.n)
        object.__setattr__(self, "up", tuple(self.up))
        if len(self.up) != self.n:
            raise FrameFormatError("leq row count does not match world count")
        full = (1 << self.n) - 1
        for i, row in enumerate(self.up):
            if row & ~full:
                raise FrameFormatError(f"leq row {i} mentions unknown worlds")
            if not (row >> i) & 1:
                raise FrameFormatError(f"leq is not reflexive at world {i}")
        bad = intransitive_pair(self.up)
        if bad is not None:
            raise FrameFormatError(f"leq is not transitive at {bad}")

    @staticmethod
    def from_pairs(n: int, pairs: Sequence[Sequence[int]]) -> "FinitePreorder":
        """Build from explicit (i, j) pairs meaning ``i <= j``.

        Reflexive pairs may be omitted; transitivity is validated, not closed.
        The order is interned (:func:`interned_order`).
        """
        _check_world_count(n)
        rows = read_pair_rows(pairs, n, "leq")
        return interned_order(tuple(row | 1 << i for i, row in enumerate(rows)))

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def leq(self, i: int, j: int) -> bool:
        return bool((self.up[i] >> j) & 1)

    def pairs(self) -> list:
        return [(i, j) for i in range(self.n) for j in range(self.n) if self.leq(i, j)]

    @cached_property
    def is_poset(self) -> bool:
        """Antisymmetry, decided once per instance: ``cached_property``
        writes the instance ``__dict__`` directly, so it works on the frozen
        dataclass and leaves ``==``, ``hash`` and pickling alone."""
        return all(
            not (self.leq(i, j) and self.leq(j, i))
            for i in range(self.n)
            for j in range(self.n)
            if i != j
        )

    @cached_property
    def down(self) -> Tuple[int, ...]:
        """The rows of the converse order: ``{j | j <= i}`` for world ``i``."""
        rows = [0] * self.n
        for j, row in enumerate(self.up):
            for i in set_bits(row):
                rows[i] |= 1 << j
        return tuple(rows)

    @cached_property
    def upsets(self) -> Tuple[int, ...]:
        """Every upset exactly once, ascending as integers: :meth:`iter_upsets`."""
        return tuple(self.iter_upsets())

    def iter_upsets(self) -> Iterator[int]:
        """Every upset exactly once, ascending as integers, one at a time.

        Worlds are decided from the highest index down, each left out before
        it is put in, so the masks come out ascending.  Putting a world in
        forces its up-set in and leaving it out forces its down-set out, so
        no branch dead-ends and the work is ``n`` steps per upset, not a
        ``2^n`` scan.
        """
        up, down = self.up, self.down
        stack = [(self.n - 1, 0, 0)]  # (world to decide, forced in, forced out)
        while stack:
            w, inside, outside = stack.pop()
            if w < 0:
                yield inside
                continue
            if not outside >> w & 1:
                stack.append((w - 1, inside | up[w], outside))
            if not inside >> w & 1:  # pushed last, so leaving w out is expanded first
                stack.append((w - 1, inside, outside | down[w]))

    @cached_property
    def upset_count(self) -> int:
        """``len(self.upsets)``, counted without listing them.

        The walk of :meth:`iter_upsets`, memoised per world to decide and the
        worlds at or below it already forced in or out: the worlds above it
        are decided, so those alone fix how many upsets the branch holds.
        The 20-world antichain's 2^20 upsets take 20 steps.
        """
        up, down = self.up, self.down
        memo: Dict[Tuple[int, int, int], int] = {}

        def count(w: int, inside: int, outside: int) -> int:
            if w < 0:
                return 1
            low = (2 << w) - 1
            key = (w, inside & low, outside & low)
            got = memo.get(key)
            if got is None:
                got = 0
                if not outside >> w & 1:
                    got += count(w - 1, inside | up[w], outside)
                if not inside >> w & 1:
                    got += count(w - 1, inside, outside | down[w])
                memo[key] = got
            return got

        return count(self.n - 1, 0, 0)

    @cached_property
    def upset_keys(self) -> Dict[str, int]:
        """Canonical file key to mask, for every upset; not to be mutated."""
        return {mask_to_key(a): a for a in self.upsets}

    @cached_property
    def imps(self) -> Dict[int, Dict[int, int]]:
        """The Heyting implications met so far: ``imps[a][b]`` is
        ``heyting_imp(self, a, b)``.

        Filled lazily by :func:`condlogic.generate.close_admissible` with
        the pairs its closures meet, never as a whole table: an antichain
        of :data:`MAX_WORLDS` worlds has 2^20 upsets.
        """
        return {}


def _check_world_count(n) -> None:
    if type(n) is not int:
        raise FrameFormatError(f"world count {n!r} is not an int")
    if n < 1:
        raise FrameFormatError("a frame needs a nonempty world set")
    if n > MAX_WORLDS:
        raise CapExceededError(f"at most {MAX_WORLDS} worlds are supported")


@lru_cache(maxsize=256)
def interned_order(up: Tuple[int, ...]) -> FinitePreorder:
    """The order with rows ``up``: one instance per distinct rows tuple, so
    equal orders share the facts they cache.

    The checking constructor runs on every miss, and an error is not
    memoised.  Keyed by the rows tuple, whose hash runs in C.  A process
    meets few distinct orders: one run of a benchmark workload at seeds 3
    and 45 builds 5 (``sweep2``), 49 (``fillin``), 52 (``duality``) or at
    most 132 (``eval-deep``, most of them rejected draws while its inputs
    are made), so 256 entries hold them all.
    """
    return FinitePreorder(len(up), up)


def intransitive_pair(up: Sequence[int]) -> Optional[Tuple[int, int]]:
    """First ``(i, j)`` with ``i <= j`` but ``up[j]`` not within ``up[i]``, or None."""
    for i, row in enumerate(up):
        for j in set_bits(row):
            if up[j] & ~row:
                return i, j
    return None


@lru_cache(maxsize=4096)
def set_bits(mask: int) -> Tuple[int, ...]:
    """Indices of the set bits of ``mask``, ascending.

    Memoised (bounded), because the loops over a frame meet the same few
    masks again and again; a cache hit is cheaper than walking the bits.
    """
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def image(rows: Sequence[int], s: int) -> int:
    """Union of ``rows[x]`` over the worlds ``x`` of mask ``s``."""
    out = 0
    for x in set_bits(s):
        out |= rows[x]
    return out


def box(rows: Sequence[int], b: int) -> int:
    """Worlds ``x`` whose row ``rows[x]`` lies within ``b``."""
    outside = ~b
    out = 0
    bit = 1
    for row in rows:
        if not row & outside:
            out |= bit
        bit <<= 1
    return out


def up_closure(p: FinitePreorder, s: int) -> int:
    """Least upset containing the worlds of mask ``s``."""
    return image(p.up, s)


def is_upset(p: FinitePreorder, s: int) -> bool:
    return up_closure(p, s) == s


def all_upsets(p: FinitePreorder) -> Tuple[int, ...]:
    """``p.upsets``; kept for the benchmark tracer, which calls it."""
    return p.upsets


def heyting_imp(p: FinitePreorder, a: int, b: int) -> int:
    """Relative pseudocomplement on upsets: ``{x | up(x) & a <= b}``, the box
    of the order over ``(X minus a) | b``."""
    return box(p.up, ~a | b)


def mask_to_worlds(mask: int) -> list:
    return list(set_bits(mask))


def read_indices(value, n: int, what: str) -> list:
    """Strictly read a list of world indices.

    Every index must be an ``int`` (not a bool, float or string) in
    ``0..n-1``; anything else raises FrameFormatError naming ``what``.
    """
    if not isinstance(value, (list, tuple)):
        raise FrameFormatError(f"{what} must be a list, not {value!r}")
    return [_read_index(v, n, what) for v in value]


def read_pair_rows(value, n: int, what: str) -> list:
    """Strictly read a list of ``[i, j]`` index pairs into successor rows.

    Returns ``n`` bitmasks; pair ``[i, j]`` sets bit ``j`` of row ``i``.
    Each pair must be a two-element list or tuple of indices as in
    :func:`read_indices`; the first bad pair or index, in list order and
    ``i`` before ``j``, raises FrameFormatError naming ``what``.
    """
    if not isinstance(value, (list, tuple)):
        raise FrameFormatError(f"{what} must be a list, not {value!r}")
    rows = [0] * n
    for pair in value:
        if not (isinstance(pair, (list, tuple)) and len(pair) == 2):
            raise FrameFormatError(f"bad {what} pair {pair!r}")
        i, j = pair
        if type(i) is int and type(j) is int and 0 <= i < n and 0 <= j < n:
            rows[i] |= 1 << j
        else:  # one of the two fails; report the first, as _read_index words it
            _read_index(i, n, what)
            _read_index(j, n, what)
    return rows


def _read_index(v, n: int, what: str) -> int:
    if type(v) is not int or not 0 <= v < n:
        raise FrameFormatError(f"{what} index {v!r} is not an int in 0..{n - 1}")
    return v


def worlds_to_mask(worlds: Iterable[int]) -> int:
    mask = 0
    for w in worlds:
        mask |= 1 << w
    return mask


def mask_to_key(mask: int) -> str:
    """Canonical file key of an upset: comma-joined ascending world list."""
    return ",".join(str(w) for w in mask_to_worlds(mask))


def key_to_mask(key: str, n: int = MAX_WORLDS) -> int:
    """Inverse of :func:`mask_to_key`; every world must lie below ``n``.

    Only the canonical key is accepted, so two keys never name one upset.
    """
    if key == "":
        return 0
    try:
        worlds = [int(part) for part in key.split(",")]
    except (AttributeError, ValueError) as exc:
        raise FrameFormatError(f"bad upset key {key!r}") from exc
    mask = worlds_to_mask(read_indices(worlds, n, f"upset key {key!r}"))
    if mask_to_key(mask) != key:
        raise FrameFormatError(f"upset key {key!r} is not ascending and comma-joined")
    return mask
