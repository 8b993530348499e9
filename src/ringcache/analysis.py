"""Closed-form evaluation: transmission counting, achievable rate, cut-set
lower bound, large-memory optimality test and memory sharing.

Counting convention: a transmission-subset is a (1 + span + gamma_p)-sized
subset of [K] containing at least one window. A GENERAL subset yields
(1 + gamma_p) transmissions, an SC1 or SC2 subset exactly one, so

    X = (1 + gamma_p) * C - gamma_p * (C_SC1 + C_SC2).

The achievable rate is implemented twice, as the one-line closed form and
as X/F from the per-case counts, and the two are cross-asserted on every
call; the brute-force census in :mod:`ringcache.verify` is the arbiter
behind both. Counts and closed forms describe the ring placement at every
L; the achievable rate at L = 1 is the subset placement's instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .model import RegimeError, SystemParams, binom, uncharacterized


@dataclass(frozen=True)
class TransmissionCounts:
    """Transmission-subset totals per case plus the transmission count and
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
    """Validate the regime the counting formulas cover; return (K, span, gp)."""
    span = ga * l
    if ga < 1:
        raise RegimeError("no shared-cache layer (gamma_a = 0): dedicated-cache regime")
    if span >= k:
        raise RegimeError(f"full shared coverage (span {span} >= K {k}): rate is 0")
    if gp >= span:
        raise RegimeError(
            f"gamma_p = {gp} >= span = {span}: rate uncharacterized in this regime"
        )
    if 1 + span + gp > k:
        raise RegimeError(
            f"union sets need 1 + span + gamma_p = {1 + span + gp} <= K = {k}:"
            " full combined coverage"
        )
    return k, span, gp


def table1_counts(params: SystemParams) -> TransmissionCounts:
    """Per-case transmission-subset counts from the closed-form columns."""
    return _counts(*_counting_regime(params.k, params.l, params.ga, params.gp))


def _counts(k: int, w: int, gp: int) -> TransmissionCounts:
    tail = sum(binom(k - 2 * w - 1 + i, 1 + gp - w + i) for i in range(1, w))
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
    """Numerator and denominator (not reduced) of :func:`rate_closed_form`."""
    tail = sum(binom(k - w - 1 - (w - i), 1 + gp - (w - i)) for i in range(1, w))
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
    anything else is rejected as uncharacterized.

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
    if uncharacterized(k, span, gp):
        raise RegimeError(
            f"rate uncharacterized for gamma_p = {gp} >= span = {span} below the"
            " large-memory regime"
        )
    if gp < span:
        if l == 1:
            return _dedicated_rate(k, ga + gp)
        # 1 <= gamma_a, span < K and gamma_p < span: _counting_regime would
        # reject nothing here
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

    Evaluated in integers: with D the common denominator of ma and mp, and
    A = ma*D and B = mp*D, the term for s is the pair
    (s*q*D - (p*A + s*B), q*D) at q = floor(N/s). The largest pair is kept
    by cross-multiplication (the denominators are positive, as q >= 1), and
    only the maximum becomes a Fraction.
    """
    k, l, n = params.k, params.l, params.n
    ma, mp = params.ma, params.mp
    d = math.lcm(ma.denominator, mp.denominator)
    a = ma.numerator * (d // ma.denominator)
    b = mp.numerator * (d // mp.denominator)
    best_num, best_den = 0, 1
    for s in range(1, k + 1):
        p = min(s + l - 1, k)
        q = n // s
        num = s * q * d - (p * a + s * b)
        den = q * d
        if num * best_den > best_num * den:
            best_num, best_den = num, den
    return Fraction(best_num, best_den)


def is_optimal(params: SystemParams) -> bool:
    """True in the large-memory regime ma*L + mp >= N*(1 - 1/K), where the
    scheme meets the cut-set bound."""
    ma, mp = params.ma, params.mp
    # both sides times K * den(ma) * den(mp)
    lhs = params.k * (
        ma.numerator * mp.denominator * params.l + mp.numerator * ma.denominator
    )
    return lhs >= params.n * (params.k - 1) * ma.denominator * mp.denominator


# ---------------------------------------------------------------------------
# memory sharing
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SharePoint:
    """One integral corner of the interpolation with its convex weight."""

    gamma_a: int
    gamma_p: int
    weight: Fraction
    rate: Fraction


@dataclass(frozen=True)
class MemoryShare:
    points: tuple[SharePoint, ...]
    rate: Fraction


def memory_share(params: SystemParams) -> MemoryShare:
    """Realize fractional replication by splitting files between the integral
    corner schemes; the rate is the matching convex combination of corner
    rates. Integral inputs degenerate to a single unit-weight corner."""
    ga, gp = params.gamma_a, params.gamma_p
    fa, ca = math.floor(ga), math.ceil(ga)
    fp, cp = math.floor(gp), math.ceil(gp)
    alpha_a = Fraction(ca) - ga if ca != fa else Fraction(1)
    alpha_p = Fraction(cp) - gp if cp != fp else Fraction(1)

    axes_a = [(fa, alpha_a)] if fa == ca else [(fa, alpha_a), (ca, 1 - alpha_a)]
    axes_p = [(fp, alpha_p)] if fp == cp else [(fp, alpha_p), (cp, 1 - alpha_p)]
    points = []
    for ga_c, wa in axes_a:
        for gp_c, wp in axes_p:
            weight = wa * wp
            # 0 <= gamma <= K, so every corner is a valid network of its own
            try:
                rate = _rate(params.k, params.l, ga_c, gp_c)
            except RegimeError as exc:
                raise RegimeError(
                    f"memory-sharing corner (gamma_a={ga_c}, gamma_p={gp_c}) is"
                    f" unsupported: {exc}"
                ) from exc
            points.append(SharePoint(ga_c, gp_c, weight, rate))
    total = sum((pt.weight * pt.rate for pt in points), start=Fraction(0))
    return MemoryShare(tuple(points), total)


def rate_with_sharing(params: SystemParams) -> Fraction:
    """Achievable rate, interpolating automatically for fractional gammas."""
    if params.integral:
        return achievable_rate(params)
    return memory_share(params).rate
