"""Finite preorders and upset machinery on int bitmasks.

Worlds are the integers ``0..n-1`` and a set of worlds is an ``int`` whose
bit ``i`` stands for world ``i``.  Upsets double as relation-family keys
and as algebra carrier elements, so the encoding has to be exact, hashable
and cheap to compare; Python ints are all three.

An order carries the facts that the other layers derive from it, each
computed once per instance on first use: every world (``full_mask``), the
converse rows (``down``), the upsets (``upsets``, enumerated directly, in
time proportional to their number), how many there are (``upset_count``,
counted without listing them), their file keys (``upset_keys``) and the
up- and down-closure of every world set (``up_closures``,
``down_closures``).  The library builds every order from rows through one
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

*Tables.*  A box or a closure is looked up, not recomputed: an order's
closure tables hold ``image(up, s)`` and ``image(down, s)`` at index
``s``, and :func:`box_table` holds ``box(rows, b)`` at index ``b`` for one
relation's rows, bounded by one memo keyed by the rows.  Every caller
indexes a table alike, and this module alone decides its form from the
world count.  On at most :data:`TABLE_WORLDS` worlds (:func:`tabled`) it
is a tuple of all ``2^n`` entries, built at once; above, where ``2^n``
entries would be too many, it is a map that computes an entry on its first
lookup and keeps at most :data:`LAZY_ENTRIES` of them (:class:`_Lazy`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Dict, Iterable, Iterator, Optional, Sequence, Tuple

from .errors import CapExceededError, FrameFormatError

MAX_WORLDS = 20
# Worlds of an order, at most, whose tables are tuples (see the module
# docstring).  A tuple table over n worlds has 2^n entries.  On a 2-core VM
# (Python 3.11.7, timeit) a box table took 3.5 / 4.9 / 5.5 / 8.3 / 11.6 /
# 19.1 us to build at 3-8 worlds and 2.4 KB at 8, and with its tables built
# a hot 64-valuation scan ran 2 to 6 times faster than with unrolled boxes
# at every size from 4 to 8 worlds, and seven correspondent loops read
# closures 1.3 to 2 times faster from a table than through ``image`` at
# 6-8 worlds: tables did not stop winning.  Above 8 a table outgrows 5 KB
# (its masks are no longer small cached ints) and a full box table memo
# would hold over 5 MB, so 8 is the cap.  Up to it a tuple also beats a map
# filled on lookup: indexing a warm map took 39-40 ns against 17-20 ns for
# a tuple at 2, 5 and 8 worlds (timeit, in a list comprehension).
TABLE_WORLDS = 8
# Entries a table above TABLE_WORLDS keeps, at most; sized in ``_Lazy``.
LAZY_ENTRIES = 1024


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

    @cached_property
    def full_mask(self) -> int:
        """Every world; once per instance, since every validity scan reads it."""
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
    def up_closures(self):
        """The up-closure of every world set, indexed by its mask: ``image(up,
        s)`` at index ``s``; a table (see the module docstring)."""
        return _closures(self.up) if tabled(self.n) else _Lazy(image, self.up, LAZY_ENTRIES)

    @cached_property
    def down_closures(self):
        """The down-closure of every world set, indexed by its mask, as
        :attr:`up_closures` for the converse rows; ``full ^
        down_closures[a & ~b]`` is the Heyting implication of upsets."""
        return _closures(self.down) if tabled(self.n) else _Lazy(image, self.down, LAZY_ENTRIES)


def tabled(n: int) -> bool:
    """Whether the tables of sets of ``n`` worlds are tuples: at most
    :data:`TABLE_WORLDS`."""
    return n <= TABLE_WORLDS


class _Lazy(dict):
    """``fill(arg, k)`` at key ``k``: a map that computes an entry on its
    first lookup and keeps it while it holds fewer than ``bound`` entries;
    after that a miss is computed and not kept.  A hit is a lookup in C, and
    an error raised by ``fill`` is not kept.

    It is the form of a table above :data:`TABLE_WORLDS` worlds, where
    ``fill`` is :func:`box` or :func:`image`, ``arg`` the rows and ``bound``
    :data:`LAZY_ENTRIES`.  That cap is sized from the largest maps met when
    every catalog axiom was scanned hot and every correspondent loop run: 3
    entries on chains of 9-20 worlds, and 462 on 150 seeded general frames
    of 12-16 worlds with at most 64 admissible upsets (a down-closure map;
    box maps held at most 122 entries, up-closure maps 178).  On 72 seeded
    general and full frames of 12-16 worlds with 65-256 admissible upsets
    box maps held at most 200, but closure maps up to 1 071 (up) and 2 656
    (down), which then compute the rest on each lookup.  A full map of 1024
    entries of 20-world masks takes about 73 KB, so the 1024 maps of the
    :func:`box_table` memo stay under 75 MB.

    The duality layers keep their per-row results in such maps too, one per
    memo entry of what the rows depend on (see :mod:`condlogic.algebra` and
    :func:`condlogic.frames.strongly_coherent`), each with a bound of its own.
    """

    def __init__(self, fill, arg, bound: int):
        self.fill = fill
        self.arg = arg
        self.bound = bound

    def __missing__(self, key):
        got = self.fill(self.arg, key)
        if len(self) < self.bound:
            self[key] = got
        return got


def _closures(rows: Tuple[int, ...]) -> Tuple[int, ...]:
    """``image(rows, s)`` for every mask ``s``, indexed by ``s``, built by
    doubling over the worlds."""
    table = [0]
    for row in rows:
        table += [s | row for s in table]
    return tuple(table)


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


@lru_cache(maxsize=1024)
def box_table(rows: Tuple[int, ...]):
    """``box(rows, b)`` for every mask ``b`` of the ``len(rows)`` worlds,
    indexed by ``b``; a table (see the module docstring).

    Built by doubling over the worlds, lowest first: a world ``y`` outside
    ``b`` drops from the box every world whose row holds ``y``.  Keyed by
    the rows tuple, whose hash runs in C.  Generated validity scans fetch
    one per relation they box with, once their program is hot.  Counted per
    pass of the benchmark workloads, once every program that recurs is hot
    (seeds 3 and 45): ``eval-deep`` needs 423 distinct rows tuples from its
    33rd pass on (relations of 3-5 worlds: its ``clc`` frames, random
    general frames and modal restrictions), ``fillin`` 25-28 and ``sweep2``
    18 (every rows tuple of at most 2 worlds), ``duality`` none.  With 256
    entries ``eval-deep`` missed about 400 of its 8 500-9 300 lookups every
    pass; 1024 hold every workload's tables with room to spare, at most
    2.4 MB of 8-world tables.
    """
    n = len(rows)
    if not tabled(n):
        return _Lazy(box, rows, LAZY_ENTRIES)
    keep = [(1 << n) - 1] * n  # per world y, the worlds whose row misses y
    for x, row in enumerate(rows):
        for y in set_bits(row):
            keep[y] ^= 1 << x
    table = [(1 << n) - 1]
    for worlds in keep:
        table = [s & worlds for s in table] + table
    return tuple(table)


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
