"""Core model of the ring caching network.

K users sit on a cycle, labelled 1..K. User u reads the L consecutive
shared ("access") caches u, u+1, ..., u+L-1 (wrapping around at K) and
additionally owns a private cache. The server holds N files.

All index sets over [1, K] are represented as integer bitmasks, bit i-1
standing for index i. Masks give O(1) equality/membership and ascending
iteration; K is capped at 64. Memory sizes, rates and bounds are exact
`Fraction`s throughout; floats appear only when rendering output.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Iterable, Union

MAX_USERS = 64

RationalLike = Union[int, str, Fraction]


class InvalidParameters(ValueError):
    """System parameters outside the model's domain."""


class RegimeError(ValueError):
    """Parameters are valid but outside the regime an operation covers."""


class InvalidMiniSubfile(ValueError):
    """User index, subfile window and private index set must be disjoint."""


class GuardExceeded(ValueError):
    """Exhaustive enumeration refused above the desk-scale size guard."""


def cyc(a: int, k: int) -> int:
    """Reduce ``a`` to the 1-indexed residue range [1, k]."""
    if k < 1:
        raise InvalidParameters(f"cycle length must be positive, got {k}")
    return (a - 1) % k + 1


def binom(n: int, k: int) -> int:
    """Binomial coefficient, zero whenever n < 0, k < 0 or n < k."""
    if n < 0 or k < 0 or n < k:
        return 0
    return math.comb(n, k)


def uncharacterized(k: int, span: int, gp: int) -> bool:
    """True in the band that neither the rate formulas nor delivery cover:
    a shared layer (span >= 1) with gamma_p >= span, below the large-memory
    regime span + gamma_p >= K - 1."""
    return 1 <= span <= gp and span + gp < k - 1


# ---------------------------------------------------------------------------
# index-set bitmasks
# ---------------------------------------------------------------------------

def bit(i: int) -> int:
    """Mask holding the single index ``i``."""
    return 1 << (i - 1)


def mask_of(indices: Iterable[int]) -> int:
    m = 0
    for i in indices:
        m |= 1 << (i - 1)
    return m


def bits(mask: int) -> tuple[int, ...]:
    """Indices in ``mask``, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length())
        mask ^= low
    return tuple(out)


def popcount(mask: int) -> int:
    return mask.bit_count()


@lru_cache(maxsize=1 << 12)
def mask_str(mask: int) -> str:
    """Comma-joined ascending indices; empty mask renders as ''.

    Memoized, but bounded: a log or a layout dump repeats the same few
    thousand S and T masks, while a long-lived process may see many more.
    """
    return ",".join(str(i) for i in bits(mask))


# ---------------------------------------------------------------------------
# subfile windows: runs of cyclically consecutive indices
# ---------------------------------------------------------------------------

def window_mask(end: int, width: int, k: int) -> int:
    """Mask of the ``width`` cyclically consecutive indices ending at ``end``.

    ``end`` is the canonical label of the window: the window with end j
    holds <[j-width+1, j]> reduced into [1, k]. width 0 gives the empty
    window used when there is no shared-cache layer.
    """
    if not 0 <= width <= k:
        raise InvalidParameters(f"window width {width} outside [0, {k}]")
    m = 0
    for off in range(width):
        m |= bit(cyc(end - off, k))
    return m


@lru_cache(maxsize=None)
def window_masks(k: int, width: int) -> tuple[int, ...]:
    """All distinct window masks for (k, width), ordered by canonical end.

    For 1 <= width <= k-1 there are exactly k of them (index [j-1] ends at
    j); width 0 yields the single empty window and width k the full ring.
    """
    if width == 0:
        return (0,)
    if width == k:
        return ((1 << k) - 1,)
    return tuple(window_mask(j, width, k) for j in range(1, k + 1))


@lru_cache(maxsize=None)
def subset_masks(k: int, width: int) -> tuple[int, ...]:
    """Masks of all C(k, width) subsets of [1, k], in lexicographic order."""
    return tuple(mask_of(combo) for combo in itertools.combinations(range(1, k + 1), width))


@lru_cache(maxsize=None)
def window_set(k: int, width: int) -> frozenset[int]:
    """The window masks of :func:`window_masks` as a set, for membership tests."""
    return frozenset(window_masks(k, width))


def is_window(mask: int, k: int, width: int) -> bool:
    """True iff ``mask`` is a run of ``width`` cyclically consecutive indices."""
    if popcount(mask) != width:
        return False
    return mask in window_set(k, width)


# ---------------------------------------------------------------------------
# position sets inside a sorted union (delivery relabels through masks; the
# benchmark still traces position_sets as a stage boundary)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PositionSets:
    """Positions of u, S and T inside the ascending union {u} | S | T.

    ``union`` is the ascending tuple of member indices. ``p_u``, ``p_s`` and
    ``p_t`` are masks over positions 1..len(union) and partition that range,
    with p_u a singleton.
    """

    union: tuple[int, ...]
    p_u: int
    p_s: int
    p_t: int

    @property
    def size(self) -> int:
        return len(self.union)


def position_sets(u: int, s_mask: int, t_mask: int) -> PositionSets:
    u_mask = bit(u)
    if (u_mask & s_mask) or (u_mask & t_mask) or (s_mask & t_mask):
        raise InvalidMiniSubfile(
            f"user {u}, window {bits(s_mask)} and private set {bits(t_mask)} overlap"
        )
    union = bits(u_mask | s_mask | t_mask)
    p_u = p_s = p_t = 0
    for pos, elem in enumerate(union, start=1):
        if elem == u:
            p_u |= 1 << (pos - 1)
        elif s_mask & bit(elem):
            p_s |= 1 << (pos - 1)
        else:
            p_t |= 1 << (pos - 1)
    return PositionSets(union, p_u, p_s, p_t)


# ---------------------------------------------------------------------------
# system parameters
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SystemParams:
    """The (K, L, M_a, M_p, N) network: K users and shared caches on a ring,
    access degree L, shared-cache size ma, private-cache size mp, N files.

    Replication factors gamma_a = K*ma/N and gamma_p = K*mp/N may be
    fractional here; operations that need integral replication say so and
    reject otherwise.
    """

    k: int
    l: int
    ma: Fraction
    mp: Fraction
    n: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "ma", Fraction(self.ma))
        object.__setattr__(self, "mp", Fraction(self.mp))
        if self.k < 1:
            raise InvalidParameters(f"need at least one user, got K={self.k}")
        if self.k > MAX_USERS:
            raise InvalidParameters(f"K={self.k} exceeds the {MAX_USERS}-user bitmask cap")
        if not 1 <= self.l <= self.k:
            raise InvalidParameters(f"access degree L={self.l} outside [1, K={self.k}]")
        if self.n < self.k:
            raise InvalidParameters(f"library must cover distinct demands: N={self.n} < K={self.k}")
        if not 0 <= self.ma <= self.n:
            raise InvalidParameters(f"shared-cache size ma={self.ma} outside [0, N={self.n}]")
        if not 0 <= self.mp <= self.n:
            raise InvalidParameters(f"private-cache size mp={self.mp} outside [0, N={self.n}]")

    # computed once per instance; cached_property writes the instance
    # __dict__ directly, so it works on a frozen dataclass and leaves eq,
    # hash and repr (which read the fields alone) unchanged
    @cached_property
    def gamma_a(self) -> Fraction:
        return Fraction(self.k, self.n) * self.ma

    @cached_property
    def gamma_p(self) -> Fraction:
        return Fraction(self.k, self.n) * self.mp

    @property
    def integral(self) -> bool:
        return self.gamma_a.denominator == 1 and self.gamma_p.denominator == 1

    @property
    def ga(self) -> int:
        """Integral gamma_a, rejecting fractional replication."""
        g = self.gamma_a
        if g.denominator != 1:
            raise RegimeError(f"gamma_a = {g} is not integral; use memory sharing")
        return g.numerator

    @property
    def gp(self) -> int:
        """Integral gamma_p, rejecting fractional replication."""
        g = self.gamma_p
        if g.denominator != 1:
            raise RegimeError(f"gamma_p = {g} is not integral; use memory sharing")
        return g.numerator

    @property
    def span(self) -> int:
        """gamma_a * L: how many consecutive subfile indices a user reaches."""
        return self.ga * self.l

    def with_memory(self, ma: RationalLike, mp: RationalLike) -> "SystemParams":
        return SystemParams(self.k, self.l, Fraction(ma), Fraction(mp), self.n)


def params_from_gammas(k: int, l: int, ga: RationalLike, gp: RationalLike, n: int) -> SystemParams:
    """Build params from replication factors instead of cache sizes."""
    ga = Fraction(ga)
    gp = Fraction(gp)
    return SystemParams(k, l, Fraction(n) * ga / k, Fraction(n) * gp / k, n)
