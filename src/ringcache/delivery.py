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

:func:`plan_packets` streams the packets; :func:`deliver` wraps them into
:class:`Transmission` objects, while ``simulate`` renders and checks each
one (:class:`DecodeCheck`) without keeping it.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Iterable, Iterator, NamedTuple, Sequence

from .model import (
    InvalidMiniSubfile,
    InvalidParameters,
    RegimeError,
    SystemParams,
    bit,
    bits,
    mask_str,
    uncharacterized,
    window_set,
)
from .placement import SUBSET, CacheLayout

GENERAL = "GENERAL"
SC1 = "SC1"
SC2 = "SC2"

# (user, S mask, T mask): a transmission's anchor or a term without its file
Anchor = tuple[int, int, int]
# a packet without files: its case and its terms' keys, the anchor first
Packet = tuple[str, list[Anchor]]
# representatives by the demand pair of user 1 they go through, with highest user
Orbit = dict[tuple[int, int], tuple[str, list[Anchor], int]]


class Term(NamedTuple):
    """One XOR operand: the mini-subfile (file, s, t) wanted by ``user``."""

    user: int
    file: int
    s: int
    t: int


@dataclass(frozen=True)
class Transmission:
    case: str
    terms: tuple[Term, ...]
    anchor: Anchor

    @property
    def union(self) -> int:
        u, s, t = self.anchor
        return bit(u) | s | t


@dataclass(frozen=True)
class DeliveryResult:
    params: SystemParams
    f: int
    transmissions: tuple[Transmission, ...]

    @property
    def total(self) -> int:
        return len(self.transmissions)

    def count(self, case: str) -> int:
        return sum(1 for tx in self.transmissions if tx.case == case)

    @property
    def rate(self) -> Fraction:
        return Fraction(self.total, self.f)


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
    own = 1 << (u - 1)
    if own & s or own & t or s & t:
        raise InvalidMiniSubfile(f"user {u}, window {bits(s)} and private set {bits(t)} overlap")
    union = own | s | t
    members = bits(union)
    m = len(members)
    lifted = [1 << (x - 1) for x in members] * 2  # index p + i needs no mod
    p_u = members.index(u)
    p_s = [p for p in range(m) if s & lifted[p]]
    images = []
    for i in range(m):
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
    :func:`plan_packets` sends leave some user's demand pair uncovered."""
    params = layout.params
    k, full = params.k, (1 << params.k) - 1
    if layout.placement == SUBSET:
        build = _subset_xor
    else:
        build = partial(_ring_xor, window_set(k, params.span))
    reps = {}
    for s, t in layout.demand_pairs(1):
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


def plan_packets(layout: CacheLayout, *, unchecked: bool = False) -> Iterator[Packet]:
    """Every packet of the layout's delivery in the greedy scan's order,
    rotated from the representatives as the iterator is consumed; the
    regime and the coverage are checked before this returns."""
    _check_regime(layout.params, unchecked)
    return _scan(layout, _representatives(layout))


def _scan(layout: CacheLayout, reps: Orbit) -> Iterator[Packet]:
    k = layout.params.k
    full = (1 << k) - 1
    for u in range(1, k + 1):
        j, back = u - 1, k - u + 1
        for s, t in layout.demand_pairs(u):
            # the pair turned back by j, then its packet turned on by j
            case, keys, h = reps[((s >> j) | (s << back)) & full, ((t >> j) | (t << back)) & full]
            if h <= back:
                yield case, [
                    (v + j, ((a << j) | (a >> back)) & full, ((b << j) | (b >> back)) & full)
                    for v, a, b in keys
                ]


def deliver(
    layout: CacheLayout, demand: Sequence[int], *, unchecked: bool = False
) -> DeliveryResult:
    """Run the full delivery for the layout's placement: the packets of
    :func:`plan_packets`, each term labelled with its user's file. Every
    demand pair lands in exactly one transmission."""
    params = layout.params
    demand = check_demand(params, demand)
    transmissions = tuple(
        Transmission(case, tuple([Term(v, demand[v - 1], s, t) for v, s, t in keys]), keys[0])
        for case, keys in plan_packets(layout, unchecked=unchecked)
    )
    return DeliveryResult(params, layout.f, transmissions)


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
    (user, S, T) keys; a user peels its term when it reads every other
    term, through a shared cache (user in S) or its private cache (user in
    T). :meth:`report` then checks every demand pair of the layout."""

    def __init__(self) -> None:
        self.peeled: set[Anchor] = set()
        self.blocked: set[Anchor] = set()

    def add(self, keys: Sequence[Anchor]) -> None:
        # before & after[i + 1]: the users reading every term but the i-th
        after = [-1] * (len(keys) + 1)
        for i in range(len(keys) - 1, 0, -1):
            after[i] = after[i + 1] & (keys[i][1] | keys[i][2])
        before = -1
        for i, key in enumerate(keys):
            v, s, t = key
            if (before & after[i + 1]) >> (v - 1) & 1:
                self.peeled.add(key)
            else:
                self.blocked.add(key)
            before &= s | t

    def report(self, layout: CacheLayout) -> DecodabilityReport:
        failures = []
        checked = 0
        for u in range(1, layout.params.k + 1):
            pairs = layout.demand_pairs(u)
            checked += len(pairs)
            for s, t in pairs:
                key = (u, s, t)
                if key in self.peeled:
                    continue
                reason = "never transmitted"
                if key in self.blocked:
                    reason = "all carriers blocked by unreadable terms"
                failures.append(Failure(u, s, t, reason))
        return DecodabilityReport(not failures, checked, tuple(failures))


def verify_decodability(
    layout: CacheLayout, demand: Sequence[int], transmissions: Iterable[Transmission]
) -> DecodabilityReport:
    """Check that every user can peel every demanded mini-subfile out of some
    transmission. Returns the violation list instead of raising."""
    check_demand(layout.params, demand)
    check = DecodeCheck()
    for tx in transmissions:
        check.add([(v, s, t) for v, _, s, t in tx.terms])
    return check.report(layout)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def format_packet(case: str, keys: Iterable[Anchor]) -> str:
    """One log line: ``CASE d<u>:S:T ^ d<u'>:S':T' ...``."""
    return case + " " + " ^ ".join([f"d{v}:{mask_str(s)}:{mask_str(t)}" for v, s, t in keys])


def format_transmission(tx: Transmission) -> str:
    return format_packet(tx.case, [(v, s, t) for v, _, s, t in tx.terms])


def format_footer(counts: Counter[str], f: int) -> str:
    """The count and rate lines that close a log of ``counts`` packets per case."""
    total = sum(counts.values())
    rate = Fraction(total, f)
    return (
        f"# total={total} general={counts[GENERAL]} sc1={counts[SC1]} sc2={counts[SC2]}\n"
        f"# F={f} rate={rate.numerator}/{rate.denominator}"
    )


def format_log(result: DeliveryResult) -> str:
    lines = [format_transmission(tx) for tx in result.transmissions]
    lines.append(format_footer(Counter(tx.case for tx in result.transmissions), result.f))
    return "\n".join(lines)


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
