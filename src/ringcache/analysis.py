"""Closed-form evaluation: transmission counting, achievable rate, cut-set
lower bound and memory sharing. :func:`sweep` is the one kernel that rates
memory points: a plain tuple of integers per (Ma, Mp) point with its rate,
bound and memory-sharing corners. :func:`memory_share` and the CLI's
``rate`` are one-point sweeps, and the CLI only renders the tuples. A point
is optimal exactly where its rate equals the cut-set bound.

Counting convention: a transmission-subset is a (1 + span + gamma_p)-sized
subset of [K] containing at least one window. A GENERAL subset yields
(1 + gamma_p) transmissions, an SC1 or SC2 subset exactly one, so

    X = (1 + gamma_p) * C - gamma_p * (C_SC1 + C_SC2).

The achievable rate is implemented twice, as the one-line closed form and
as X/F from the per-case counts, and the two are cross-asserted on every
call; within one sweep, where each distinct corner is rated once, that is
once per corner. Both sum the same tail of binomials, all on the one
diagonal C(j, c), and both close it by the hockey-stick identity

    C(lo, c) + C(lo + 1, c) + ... + C(hi, c) = C(hi + 1, c + 1) - C(lo, c + 1),

so each is a fixed number of binomials per corner at any span. Each closes
it over its own index (the counts over i, the closed form over m = span - i)
with its own bounds and guards, so a slip in either still shows in the
cross-check. The census in :mod:`ringcache.verify` is the arbiter
behind both. Counts and closed forms describe the ring placement
at every L; the achievable rate at L = 1 is the subset placement's instead.
They hold for 0 <= gamma_p < span < K - gamma_p, the counting regime;
:func:`table1_counts` and :func:`rate_closed_form` refuse other points.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import cache
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .model import RegimeError, SystemParams, binom, network_refusal, private_size_refusal


class TransmissionCounts(NamedTuple):
    """Totals of transmission-subsets per case plus the transmission count and
    subpacketization they imply."""

    subsets: int
    sc1: int
    sc2: int
    transmissions: int
    f: int

    @property
    def general(self) -> int:
        return self.subsets - self.sc1 - self.sc2


def _counting_regime(k: int, l: int, ga: int, gp: int) -> tuple[int, int, int]:
    """Refuse a point outside the counting regime; return (K, span, gp)."""
    span = ga * l
    if not 0 <= gp < span < k - gp:
        raise RegimeError(
            f"K={k} L={l} gamma_a={ga} gamma_p={gp} (span {span}) is outside the"
            " counting regime 0 <= gamma_p < span < K - gamma_p"
        )
    return k, span, gp


def table1_counts(params: SystemParams) -> TransmissionCounts:
    """Per-case transmission-subset counts from the closed-form columns."""
    return _counts(*_counting_regime(params.k, params.l, params.ga, params.gp))


def _counts(k: int, w: int, gp: int) -> TransmissionCounts:
    """The per-case counts at span w. Their tail, the sum over i = 1 .. w - 1
    of C(K - 2w - 1 + i, 1 + gp - w + i), is closed by the hockey-stick
    identity over its own index i: every term is C(K - 2w - 1 + i, c) with
    c = K - w - 2 - gp, nonzero from i0 = max(1, w - 1 - gp), so it is
    C(K - w - 1, gp) - C(K - 2w - 1 + i0, c + 1); it is empty at w = 1, and
    every term is zero at c < 0. :func:`_closed_form` closes the same sum
    over its own index, so the cross-check in :func:`_rate` still compares
    two transcriptions."""
    c = k - w - 2 - gp
    i0 = max(1, w - 1 - gp)
    tail = 0 if c < 0 or w == 1 else binom(k - w - 1, gp) - binom(k - 2 * w - 1 + i0, c + 1)
    base = binom(k - w, 1 + gp) + (k - 1) * binom(k - w - 1, 1 + gp) - tail
    if gp < w - 1:
        subsets = base
        sc1 = k * binom(k - w - 2, 1 + gp)
        sc2 = 0
    else:
        rerun = max(0, (k - 2 * w) * (k - 2 * w + 1) // 2)
        wrap = max(0, (w - 1) * (k - 2 * w - 1))
        subsets = base - rerun - wrap
        sc1 = k * binom(k - w - 2, 1 + gp) - k * max(0, k - 2 * w - 1)
        # disjoint window pairs; negative when K = 2*span, where none exist
        sc2 = max(0, (1 + w) * (k - 2 * w - 1) + (k - 2 * w - 2) * (k - 2 * w - 1) // 2)
        if w == 1:
            # adjacent singletons are still disjoint windows, so every
            # transmission-subset is a disjoint pair: the generic expression
            # misses the K adjacent pairs
            sc2 = subsets
    x = (1 + gp) * subsets - gp * (sc1 + sc2)
    return TransmissionCounts(subsets, sc1, sc2, x, k * binom(k - w, gp))


def rate_closed_form(params: SystemParams) -> Fraction:
    """The achievable worst-case rate as a single expression.

    Independent transcription of the same counting, kept separate from
    :func:`table1_counts` so the two can cross-check each other.
    """
    return Fraction(*_closed_form(*_counting_regime(params.k, params.l, params.ga, params.gp)))


def _closed_form(k: int, w: int, gp: int) -> tuple[int, int]:
    """Numerator and denominator (not reduced) of :func:`rate_closed_form`.

    Its tail, the sum over m = w - i = 1 .. w - 1 of C(K - w - 1 - m,
    1 + gp - m), is closed over m, not through :func:`_counts`: every term is
    C(K - w - 1 - m, c) with c = K - w - 2 - gp, nonzero up to
    M = min(w - 1, gp + 1), so by the hockey-stick identity it is
    C(K - w - 1, gp) - C(K - w - 1 - M, c + 1) (zero at w = 1, where M = 0),
    and zero at c < 0, where every term is."""
    c = k - w - 2 - gp
    tail = 0 if c < 0 else binom(k - w - 1, gp) - binom(k - w - 1 - min(w - 1, gp + 1), c + 1)
    num = (1 + gp) * (binom(k - w, 1 + gp) + (k - 1) * binom(k - w - 1, 1 + gp) - tail)
    num -= gp * k * binom(k - w - 2, 1 + gp)
    if gp == w - 1:
        eta = (1 + gp) * (
            max(0, (k - 2 * w) * (k - 2 * w + 1) // 2)
            + max(0, (w - 1) * (k - 2 * w - 1))
        )
        eta -= gp * k * max(0, k - 2 * w - 1)
        # the disjoint-pair reduction, clamped like the SC2 count
        eta += gp * max(
            0, (1 + w) * (k - 2 * w - 1) + (k - 2 * w - 2) * (k - 2 * w - 1) // 2
        )
        num -= eta
    return num, k * binom(k - w, gp)


def _dedicated_rate(k: int, t: int) -> Fraction:
    """Maddah-Ali--Niesen rate C(K, t+1)/C(K, t) of a dedicated network at
    replication t."""
    return Fraction(binom(k, t + 1), binom(k, t))


def achievable_rate(params: SystemParams) -> Fraction:
    """Worst-case rate of the scheme for integral replication factors.

    Covers the dedicated regime (gamma_a = 0), the counting regime
    (gamma_p < span), and the large-memory regimes span + gamma_p >= K - 1;
    the band between them is rejected as uncharacterized, by this rule alone.

    At L = 1 each user reads one shared cache, so the network is a dedicated
    one with Ma + Mp of memory per user. There the rate is that of the
    subset placement (:func:`ringcache.placement.build_subset_layout`),
    C(K, t+1)/C(K, t) with t = gamma_a + gamma_p, inside the same regimes;
    the ring placement's counts (:func:`table1_counts`, checked by the
    census and ``verify``) would give more transmissions for
    2 <= gamma_a <= K - 2. At L >= 2 the rate is the ring placement's.
    """
    return _rate(params.k, params.l, params.ga, params.gp)


def _rate(k: int, l: int, ga: int, gp: int) -> Fraction:
    """:func:`achievable_rate` of the network (K, L) at the integral
    replication point (gamma_a, gamma_p); N does not enter."""
    if ga == 0:
        return _dedicated_rate(k, gp)
    span = ga * l
    if span + gp >= k:
        return Fraction(0)
    if span <= gp and span + gp < k - 1:  # the band: no rate is claimed
        raise RegimeError(
            f"rate uncharacterized for gamma_p = {gp} >= span = {span} below the"
            " large-memory regime"
        )
    if gp < span:
        if l == 1:
            return _dedicated_rate(k, ga + gp)
        # gamma_p < span < K - gamma_p: _counting_regime would reject nothing here
        counts = _counts(k, span, gp)
        rate = Fraction(counts.transmissions, counts.f)
        num, den = _closed_form(k, span, gp)
        if counts.transmissions * den != num * counts.f:
            raise AssertionError(
                f"count law {rate} and closed form {Fraction(num, den)} diverge at"
                f" K={k} span={span} gamma_p={gp}"
            )
        return rate
    # span + gamma_p = K - 1: every union set is the whole ring, K-term XORs,
    # one file in K parts
    return Fraction(1, k)


def cutset_bound(params: SystemParams) -> Fraction:
    """Cut-set lower bound on the optimal worst-case rate, any placement.

    Serving s users through their p = min(s+L-1, K) shared caches and
    floor(N/s) broadcast rounds forces
    rate >= s - (p*ma + s*mp) / floor(N/s); maximize over s, floor at 0.
    Only the lines :func:`_cutset_lines` keeps are evaluated: the others
    lie at or below a kept line at every mp >= 0, so the maximum is exact.
    """
    at = _cutset(params.k, params.l, params.n, params.ma)
    return Fraction(*at(*params.mp.as_integer_ratio()))


def _cutset_lines(k: int, l: int, n: int, ma: Fraction) -> list[tuple[int, int, int]]:
    """The cut-set lines that can be the largest term at some mp >= 0: over
    ma = a/d and q = floor(N/s), the term for s is (C - S*mp) / Q with
    C = s*q*d - p*a, S = s*d, Q = q*d, and p = s + L - 1 below s = K - L + 1,
    K from there on. The slope s/q grows strictly with s (N >= K keeps
    q >= 1), so a line whose intercept C/Q does not beat an earlier line's,
    or 0, lies at or below that line, or the floor, at every mp >= 0. The
    walk keeps a line only when its intercept beats the last kept one's,
    compared by cross-multiplying over q (d is common)."""
    a, d = ma.numerator, ma.denominator
    caches = itertools.chain(range(l, k), itertools.repeat(k, l))
    lines, top_c, top_q = [], 0, 1
    for s, p in zip(range(1, k + 1), caches):
        q = n // s
        c = s * q * d - p * a
        if c * top_q > top_c * q:
            lines.append((c, s * d, q * d))
            top_c, top_q = c, q
    return lines


def _cutset(k: int, l: int, n: int, ma: Fraction) -> Callable[[int, int], tuple[int, int]]:
    """The cut-set bound at mp = u/v (v > 0), unreduced, over the lines of
    :func:`_cutset_lines`, built once: at u/v the terms (C*v - S*u) / (Q*v)
    share v, so the largest is kept by cross-multiplying over Q (Q > 0)."""
    lines = _cutset_lines(k, l, n, ma)

    def at(u: int, v: int) -> tuple[int, int]:
        best_num, best_den = 0, 1
        for c, s, q in lines:
            num = c * v - s * u
            if num * best_den > best_num * q:
                best_num, best_den = num, q
        return best_num, best_den * v

    return at


# ---------------------------------------------------------------------------
# memory sharing
# ---------------------------------------------------------------------------

class SharePoint(NamedTuple):
    """One integral corner of the interpolation with its convex weight."""

    gamma_a: int
    gamma_p: int
    weight: Fraction
    rate: Fraction


class MemoryShare(NamedTuple):
    points: tuple[SharePoint, ...]
    rate: Fraction


def sweep(
    k: int, l: int, n: int, mas: Iterable[Fraction], mps: Sequence[tuple[int, int]]
) -> Iterator[tuple]:
    """Rate and cut-set bound of the network (K, L, N) at every memory point,
    ``mas`` outer and mp = u/v (v > 0) of ``mps`` inner: one tuple
    (gamma_a, gamma_p, rate, bound, corners, note) per point, in integers.
    Each gamma is a reduced (numerator, denominator) pair, rate and bound
    unreduced ones (denominator > 0), and the memory-sharing corners, floor
    first and gamma_a outer, are (gamma_a, gamma_p, weight * q_a * q_p, rate)
    over the gammas' denominators q: at gamma = lo + rest/q, corner lo weighs
    (q - rest)/q and corner lo + 1 weighs rest/q, and the rate is their
    weighted sum. A refused point has its reason in ``note`` ("" otherwise),
    its gammas if the network and mp are valid, and None and () elsewhere; a
    refused corner's message names the corner where corners mix. Each corner
    is rated once per call, refused or not, with its rate's numerator and
    denominator or its refusal, and each Ma column's cut-set lines built once."""

    @cache
    def corner_rate(ga: int, gp: int) -> tuple[Fraction | None, int, int, str]:
        try:
            rate = _rate(k, l, ga, gp)
        except RegimeError as exc:
            return None, 0, 1, str(exc)
        return rate, rate.numerator, rate.denominator, ""

    notes = [private_size_refusal(u, v, n) for u, v in mps]
    for ma in mas:
        refused = network_refusal(k, l, n, ma)
        if not refused:
            gamma_a = (k * ma / n).as_integer_ratio()
            a, qa = gamma_a
            lo, rest = divmod(a, qa)
            axis_a = ((lo, qa - rest), (lo + 1, rest)) if rest else ((lo, 1),)
            bound = _cutset(k, l, n, ma)
        for (u, v), note in zip(mps, notes):
            if refused or note:
                yield None, None, None, None, (), refused or note
                continue
            g = math.gcd(k * u, n * v)
            p, qp = k * u // g, n * v // g
            lo, rest = divmod(p, qp)
            axis_p = ((lo, qp - rest), (lo + 1, rest)) if rest else ((lo, 1),)
            corners, num, den, note = [], 0, 1, ""
            # 0 <= gamma <= K, so every corner is a valid network of its own
            for ga_c, wa in axis_a:
                for gp_c, wp in axis_p:
                    rate, r_num, r_den, note = corner_rate(ga_c, gp_c)
                    if note:
                        break
                    weight = wa * wp
                    corners.append((ga_c, gp_c, weight, rate))
                    num = num * r_den + weight * r_num * den
                    den *= r_den
                if note:
                    break
            if note:
                if len(axis_a) * len(axis_p) > 1:
                    note = (f"memory-sharing corner (gamma_a={ga_c}, gamma_p={gp_c}) is"
                            f" unsupported: {note}")
                yield gamma_a, (p, qp), None, None, (), note
                continue
            yield gamma_a, (p, qp), (num, den * qa * qp), bound(u, v), corners, ""


def memory_share(params: SystemParams) -> MemoryShare:
    """Realize fractional replication by splitting files between the integral
    corner schemes; the rate is the matching convex combination of corner
    rates. An integral point is a single unit-weight corner, with
    :func:`achievable_rate`'s rate and refusal. A one-point :func:`sweep`."""
    [(gamma_a, gamma_p, rate, _, corners, note)] = sweep(
        params.k, params.l, params.n, (params.ma,), (params.mp.as_integer_ratio(),)
    )
    if note:
        raise RegimeError(note)
    q = gamma_a[1] * gamma_p[1]
    shares = tuple(SharePoint(a, p, Fraction(w, q), r) for a, p, w, r in corners)
    return MemoryShare(shares, Fraction(*rate))


def rate_with_sharing(params: SystemParams) -> Fraction:
    """Achievable rate at any memory point: :func:`memory_share`'s rate."""
    return memory_share(params).rate
