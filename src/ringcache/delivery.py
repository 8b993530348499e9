"""XOR broadcast delivery.

Every user's demand set lists the (S, T) pairs it cannot read. The server
sends XOR packets, each built through an anchor key (u, S, T) and holding
one term per user, until every demand key is in one.

Ring placement. With I = {u} | S | T in ascending order, I[0] < ... <
I[m-1], the shift by i is the relabelling I[p] -> I[(p + i) mod m]; it maps
the anchor to an image (u_i, S_i, T_i) that again partitions I. A window of
the ring lies inside I exactly when it is the image S_i of the window S
under some shift, so the windows among the S-images decide the packet:

* exactly one window inside I (S itself)            -> SC1
* exactly the two disjoint windows S and {u} | T    -> SC2
  (only possible when gamma_p = span - 1)
* otherwise                                         -> GENERAL

A GENERAL packet holds the anchor and, by ascending shift, every image
whose S_i is a window; SC1 swaps the user into the private index set; SC2
does the SC1 swap on the anchor and again on the image that carries S onto
{u} | T.

Subset placement (L = 1, or no shared layer). Q = {u} | S | T has
t + 1 = 1 + gamma_a + gamma_p users and the XOR is Maddah-Ali--Niesen's:
one term per user v of Q, for the mini-subfile whose S holds the elements
of Q - {v} at the positions S takes in Q - {u}, and whose T the rest.
Without a shared layer this is the SC1 swap group, so it carries that tag.

Orbits. Turning the ring by one user (i to i + 1, K to 1) maps windows,
caches and demand sets onto themselves, and both constructions only see
positions inside the sorted union set, which the turn rotates. So the
packet through a turned anchor is the turned packet, whatever the demand,
which only labels the terms with files. One representative through
(1, S, T) per demand pair (S, T) of user 1 thus gives every packet by
rotation. Packets go out in a greedy scan: users ascending, each user's
demand pairs in order, a packet at the first of its keys that no earlier
packet holds. With one term per user, that is the packet's lowest user:
the rotation by j of a representative whose highest user is h goes out at
user 1 + j exactly when h <= K - j, and otherwise wraps past K and went
out earlier. No term user wraps, so the rotation keeps the term order.

:func:`deliver` streams the packets as (case, keys) pairs that carry no
files: the demand only labels the terms. :func:`format_log` renders each
packet as it passes and :func:`verify_decodability` checks the stream
(:class:`DecodeCheck`), so ``simulate`` keeps no packet. The check files
each key as a bit of its user under its (S, T) pair: nothing is per user.
"""

from __future__ import annotations

import random
from collections import Counter, defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Iterable, Iterator, Sequence

from .model import (
    InvalidParameters,
    RegimeError,
    SystemParams,
    bit,
    bits,
    mask_str,
    position_sets,
    uncharacterized,
    window_set,
)
from .placement import SUBSET, CacheLayout, demand_pairs

GENERAL = "GENERAL"
SC1 = "SC1"
SC2 = "SC2"

# (user, S mask, T mask): a packet's anchor or a term without its file
Anchor = tuple[int, int, int]
# a packet without files: its case and its terms' keys, the anchor first
Packet = tuple[str, list[Anchor]]
# representatives by the demand pair of user 1 they go through, with highest user
Orbit = dict[tuple[int, int], tuple[str, list[Anchor], int]]


def worst_case_demand(k: int) -> tuple[int, ...]:
    """Identity demands d_u = u: the canonical all-distinct vector."""
    return tuple(range(1, k + 1))


def random_demand(params: SystemParams, seed: int) -> tuple[int, ...]:
    rng = random.Random(seed)
    return tuple(rng.randint(1, params.n) for _ in range(params.k))


def check_demand(params: SystemParams, demand: Sequence[int]) -> tuple[int, ...]:
    if len(demand) != params.k:
        raise InvalidParameters(f"demand vector has {len(demand)} entries, need K={params.k}")
    for u, d in enumerate(demand, start=1):
        if not 1 <= d <= params.n:
            raise InvalidParameters(f"user {u} demands file {d} outside [1, N={params.n}]")
    return tuple(demand)


def _relabel(u: int, s: int, t: int) -> list[Anchor]:
    """Images of the anchor (u, S, T) under every shift of its union set:
    entry i relabels each member union[p] as union[(p + i) mod m], union
    being the ascending members of {u} | S | T. Entry 0 is the anchor."""
    pos = position_sets(u, s, t)
    union = bit(u) | s | t
    lifted = [1 << (x - 1) for x in pos.union] * 2  # index p + i needs no mod
    p_u = pos.p_u.bit_length() - 1
    p_s = [p - 1 for p in bits(pos.p_s)]
    images = []
    for i in range(pos.size):
        s_img = 0
        for p in p_s:
            s_img |= lifted[p + i]
        u_img = lifted[p_u + i]
        images.append((u_img.bit_length(), s_img, union ^ s_img ^ u_img))
    return images


def _classify(
    windows: frozenset[int], u: int, s: int, t: int, images: list[Anchor]
) -> tuple[str, int | None]:
    """Case tag for the anchor (u, S, T), plus the SC2 shift."""
    inside = {s_img for _, s_img, _ in images if s_img in windows}
    if len(inside) == 1:
        if s not in inside:
            raise AssertionError("the lone window inside the union set is not S")
        return SC1, None
    if len(inside) == 2:
        a, b = inside
        other = a if b == s else b
        # the pair must be S and {u} | T to qualify; with gamma_p < span that
        # is forced, outside the regime the anchor falls back to GENERAL
        if a & b == 0 and other == bit(u) | t:
            hits = [i for i in range(1, len(images)) if images[i][1] == other]
            if len(hits) != 1:
                raise AssertionError(f"rotation of S onto {{u}} | T is not unique: {hits}")
            return SC2, hits[0]
    return GENERAL, None


def _general(windows: frozenset[int], images: list[Anchor]) -> list[Anchor]:
    """The anchor plus, by ascending shift, every image whose S is a window."""
    return images[:1] + [image for image in images[1:] if image[1] in windows]


def _swap_group(u: int, s: int, t: int) -> list[Anchor]:
    """Anchor plus, for each v in T, the key with v swapped against u."""
    group = [(u, s, t)]
    pool = bit(u) | t
    for v in bits(t):
        group.append((v, s, pool ^ bit(v)))
    return group


def _ring_xor(windows: frozenset[int], u: int, s: int, t: int) -> Packet:
    """Classify the anchor and build its packet from one relabelling."""
    images = _relabel(u, s, t)
    case, j = _classify(windows, u, s, t, images)
    if case == SC1:
        return SC1, _swap_group(u, s, t)
    if case == SC2:
        return SC2, _swap_group(u, s, t) + _swap_group(*images[j])
    return GENERAL, _general(windows, images)


def _subset_xor(u: int, s: int, t: int) -> Packet:
    """Subset-placement XOR through the anchor (u, S, T): for each other v
    in Q = {u} | S | T, S_v holds the elements of Q - {v} at the positions S
    takes in Q - {u}, and T_v the rest of Q - {v}."""
    own = bit(u)
    union = own | s | t
    lifted = [1 << (x - 1) for x in bits(union)]
    positions = [p for p, b in enumerate(x for x in lifted if x != own) if s & b]
    keys = [(u, s, t)]
    for vb in lifted:
        if vb == own:
            continue
        rest = [x for x in lifted if x != vb]
        s_v = 0
        for p in positions:
            s_v |= rest[p]
        keys.append((vb.bit_length(), s_v, union ^ vb ^ s_v))
    return SC1, keys


class UncharacterizedRegime(RegimeError):
    """Delivery was asked for outside the regime it is characterized for;
    ``reason`` says why, without the hint on how to override it."""

    def __init__(self, reason: str) -> None:
        super().__init__(f"{reason}; pass unchecked=True to run it anyway")
        self.reason = reason


def _check_regime(params: SystemParams, unchecked: bool) -> None:
    span, gp = params.span, params.gp
    if uncharacterized(params.k, span, gp) and not unchecked:
        raise UncharacterizedRegime(
            f"delivery is uncharacterized for gamma_p={gp} >= span={span} below the"
            " large-memory regime"
        )


def _representatives(layout: CacheLayout) -> Orbit:
    """For each demand pair (S, T) of user 1, the packet through (1, S, T)
    and its highest user. Raises AssertionError if the rotations that
    :func:`deliver` sends leave some user's demand pair uncovered."""
    params = layout.params
    k, full = params.k, (1 << params.k) - 1
    if layout.placement == SUBSET:
        build = _subset_xor
    else:
        build = partial(_ring_xor, window_set(k, params.span))
    reps = {}
    for s, t in demand_pairs(layout, 1):
        case, keys = build(1, s, t)
        reps[s, t] = case, keys, max(v for v, _, _ in keys)
    # a representative with highest user h sends its term (v, S, T) to users
    # v .. v + K - h, as that term turned back by v - 1 and on again
    sent = dict.fromkeys(reps, 0)  # users each pair is sent to, as a mask
    for _, keys, h in reps.values():
        for v, s, t in keys:
            j, back = v - 1, k - v + 1
            pair = (((s >> j) | (s << back)) & full, ((t >> j) | (t << back)) & full)
            if pair in sent:
                sent[pair] |= ((1 << (k - h + 1)) - 1) << j
    leftovers = sum(k - users.bit_count() for users in sent.values())
    if leftovers:
        raise AssertionError(f"{leftovers} demand pairs were never covered")
    return reps


def deliver(layout: CacheLayout, *, unchecked: bool = False) -> Iterator[Packet]:
    """Every packet of the layout's delivery in the greedy scan's order,
    rotated from the representatives as the iterator is consumed; the
    regime and the coverage are checked before this returns. Every demand
    pair lands in exactly one packet."""
    _check_regime(layout.params, unchecked)
    return _scan(layout, _representatives(layout))


def _scan(layout: CacheLayout, reps: Orbit) -> Iterator[Packet]:
    k = layout.params.k
    full = (1 << k) - 1
    for u in range(1, k + 1):
        j, back = u - 1, k - u + 1
        for s, t in demand_pairs(layout, u):
            # the pair turned back by j, then its packet turned on by j
            case, keys, h = reps[((s >> j) | (s << back)) & full, ((t >> j) | (t << back)) & full]
            if h <= back:
                yield case, [
                    (v + j, ((a << j) | (a >> back)) & full, ((b << j) | (b >> back)) & full)
                    for v, a, b in keys
                ]


# ---------------------------------------------------------------------------
# decodability
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Failure:
    user: int
    s: int
    t: int
    reason: str


@dataclass(frozen=True)
class DecodabilityReport:
    ok: bool
    checked: int
    failures: tuple[Failure, ...]

    def failing_users(self) -> tuple[int, ...]:
        return tuple(sorted({f.user for f in self.failures}))


class DecodeCheck:
    """Decodability, one packet at a time. :meth:`add` takes a packet's
    (user, S, T) keys. A user reads a term through a shared cache (user in
    S) or its private cache (user in T). The user of a demand key is in
    neither, so it peels its term when no second term is unreadable to it:
    the running mask ``once`` holds the users some term leaves unreadable, and
    ``twice`` those two terms do. A key is filed as its user's bit in
    ``peeled[S, T]`` or ``blocked[S, T]``. :meth:`report` checks every
    demand pair."""

    def __init__(self) -> None:
        self.peeled: defaultdict[tuple[int, int], int] = defaultdict(int)
        self.blocked: defaultdict[tuple[int, int], int] = defaultdict(int)

    def add(self, keys: Sequence[Anchor]) -> None:
        once = twice = 0
        for _, s, t in keys:
            unread = ~(s | t)
            twice |= once & unread
            once |= unread
        peeled, blocked = self.peeled, self.blocked
        for v, s, t in keys:
            own = 1 << (v - 1)
            if twice & own:
                blocked[s, t] |= own
            else:
                peeled[s, t] |= own

    def report(self, layout: CacheLayout) -> DecodabilityReport:
        """One pass over the layout's (S, T) pairs, each demanded by the users
        outside S | T; misses by user, then in that user's demand-set order."""
        full = (1 << layout.params.k) - 1
        misses = []
        checked = 0
        pairs = ((s, t) for s, ts in layout.tails for t in ts)
        for i, pair in enumerate(pairs):
            want = full & ~(pair[0] | pair[1])
            checked += want.bit_count()
            for v in bits(want & ~self.peeled.get(pair, 0)):
                reason = "never transmitted"
                if self.blocked.get(pair, 0) >> (v - 1) & 1:
                    reason = "all carriers blocked by unreadable terms"
                misses.append((v, i, Failure(v, *pair, reason)))
        misses.sort(key=lambda miss: miss[:2])
        failures = tuple(failure for _, _, failure in misses)
        return DecodabilityReport(not failures, checked, failures)


def verify_decodability(layout: CacheLayout, packets: Iterable[Packet]) -> DecodabilityReport:
    """Check that every user can peel every demanded mini-subfile out of some
    packet of ``packets``. Returns the violation list instead of raising."""
    check = DecodeCheck()
    for _, keys in packets:
        check.add(keys)
    return check.report(layout)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def format_packet(case: str, keys: Iterable[Anchor]) -> str:
    """One log line: ``CASE d<u>:S:T ^ d<u'>:S':T' ...``."""
    return case + " " + " ^ ".join([f"d{v}:{mask_str(s)}:{mask_str(t)}" for v, s, t in keys])


def format_log(packets: Iterable[Packet], f: int, lines: list[str]) -> Iterator[Packet]:
    """Pass ``packets`` through, appending each one's log line to ``lines``
    as it goes by and, once the stream ends, the count and rate lines over
    subpacketization ``f``."""
    counts: Counter[str] = Counter()
    for packet in packets:
        lines.append(format_packet(*packet))
        counts[packet[0]] += 1
        yield packet
    total = sum(counts.values())
    rate = Fraction(total, f)
    lines.append(
        f"# total={total} general={counts[GENERAL]} sc1={counts[SC1]} sc2={counts[SC2]}\n"
        f"# F={f} rate={rate.numerator}/{rate.denominator}"
    )


def format_report(report: DecodabilityReport) -> str:
    """The decodability footer: one PASS line, or a FAIL line naming the
    users followed by one line per miss with S and T as in the log."""
    if report.ok:
        return f"# decodability PASS ({report.checked} mini-subfiles)"
    lines = [f"# decodability FAIL for users {report.failing_users()}"]
    lines.extend(
        f"#   user {f.user} misses S={mask_str(f.s)} T={mask_str(f.t)}: {f.reason}"
        for f in report.failures
    )
    return "\n".join(lines)
