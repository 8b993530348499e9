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
from fractions import Fraction
from functools import cache, cached_property, lru_cache
from typing import Iterable, NamedTuple, Union

MAX_USERS = 64

RationalLike = Union[int, str, Fraction]


class InvalidParameters(ValueError):
    """System parameters outside the model's domain."""


class RegimeError(ValueError):
    """Parameters are valid but outside the regime an operation covers."""


class InvalidMiniSubfile(ValueError):
    """User index, subfile window and private index set must be disjoint."""


class GuardExceeded(ValueError):
    """Work refused up front because it is over a size budget."""


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


@cache
def mask_str(mask: int) -> str:
    """Comma-joined ascending indices; empty mask renders as ''.

    Memoized without a bound: a log or a layout dump renders each of its S
    and T masks many times, and the cache holds only the distinct masks of
    the layouts rendered, fewer entries than those layouts hold themselves.
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
    """The k window masks for (k, width), ordered by canonical end: index
    [j-1] ends at j at every width from 1 to k, so at width k each is the
    whole ring. Width 0 yields the single empty window.
    """
    if width == 0:
        return (0,)
    return tuple(window_mask(j, width, k) for j in range(1, k + 1))


@lru_cache(maxsize=None)
def subset_masks(k: int, width: int) -> tuple[int, ...]:
    """Masks of all C(k, width) subsets of [1, k], in lexicographic order."""
    return tuple(mask_of(combo) for combo in itertools.combinations(range(1, k + 1), width))


# ---------------------------------------------------------------------------
# position sets inside a sorted union, through which a shift relabels an anchor
# ---------------------------------------------------------------------------

class PositionSets(NamedTuple):
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
    p_s = 0
    for pos, elem in enumerate(union):
        if s_mask >> (elem - 1) & 1:
            p_s |= 1 << pos
    p_u = 1 << union.index(u)
    return PositionSets(union, p_u, p_s, ((1 << len(union)) - 1) ^ p_u ^ p_s)


# ---------------------------------------------------------------------------
# system parameters
# ---------------------------------------------------------------------------

def network_refusal(k: int, l: int, n: int, ma: Fraction) -> str:
    """Why K, L, N or ma fall outside the model's domain, as SystemParams checks, or ''."""
    if k < 1:
        return f"need at least one user, got K={k}"
    if k > MAX_USERS:
        return f"K={k} exceeds the {MAX_USERS}-user bitmask cap"
    if not 1 <= l <= k:
        return f"access degree L={l} outside [1, K={k}]"
    if n < k:
        return f"library must cover distinct demands: N={n} < K={k}"
    return "" if 0 <= ma <= n else f"shared-cache size ma={ma} outside [0, N={n}]"


def private_size_refusal(num: int, den: int, n: int) -> str:
    """Why the private-cache size mp = num/den (den > 0) falls outside [0, N], or ''."""
    if 0 <= num <= n * den:
        return ""
    return f"private-cache size mp={Fraction(num, den)} outside [0, N={n}]"


class _Network(NamedTuple):
    """The five fields of :class:`SystemParams`, unchecked."""

    k: int
    l: int
    ma: Fraction
    mp: Fraction
    n: int


class SystemParams(_Network):
    """The (K, L, M_a, M_p, N) network: K users and shared caches on a ring,
    access degree L, shared-cache size ma, private-cache size mp, N files.

    Replication factors gamma_a = K*ma/N and gamma_p = K*mp/N may be
    fractional here; operations that need integral replication say so and
    reject otherwise.
    """

    def __new__(cls, k: int, l: int, ma: RationalLike, mp: RationalLike, n: int) -> SystemParams:
        # a Fraction is kept as given, not re-wrapped
        ma = ma if type(ma) is Fraction else Fraction(ma)
        mp = mp if type(mp) is Fraction else Fraction(mp)
        refused = network_refusal(k, l, n, ma)
        if refused or (refused := private_size_refusal(*mp.as_integer_ratio(), n)):
            raise InvalidParameters(refused)
        return super().__new__(cls, k, l, ma, mp, n)

    @classmethod
    def _make(cls, iterable: Iterable) -> SystemParams:
        """Checked as the constructor checks, so ``_replace`` is too."""
        return cls(*iterable)

    # computed once per instance; cached_property writes the instance
    # __dict__, which this subclass of the field tuple keeps, and leaves eq,
    # hash and repr (which read the fields alone) unchanged
    @cached_property
    def gamma_a(self) -> Fraction:
        return Fraction(self.k * self.ma.numerator, self.n * self.ma.denominator)

    @cached_property
    def gamma_p(self) -> Fraction:
        return Fraction(self.k * self.mp.numerator, self.n * self.mp.denominator)

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


def params_from_gammas(k: int, l: int, ga: RationalLike, gp: RationalLike, n: int) -> SystemParams:
    """Build params from replication factors instead of cache sizes."""
    if k < 1:  # refused as SystemParams would, before the division by K
        raise InvalidParameters(network_refusal(k, l, n, Fraction(0)))
    return SystemParams(k, l, Fraction(ga) * n / k, Fraction(gp) * n / k, n)
