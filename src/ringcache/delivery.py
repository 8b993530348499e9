"""XOR broadcast delivery.

Every user's demand set lists the (S, T) pairs it cannot read. The server
sends XOR packets, each built through an anchor key (u, S, T) and holding
one term per user, until every demand key is in one.

Ring placement. With I = {u} | S | T in ascending order, I[0] < ... <
I[m-1], the shift by i is the relabelling I[p] -> I[(p + i) mod m]; it maps
the anchor to an image (u_i, S_i, T_i) that again partitions I. A window of
the ring lies inside I exactly when it is the image S_i of the window S
under some shift: the shift by the positions of I from S's end to its end
x. The windows are found by their ends, x with x, x - 1, ..., x - span + 1
all in I: one mask, I ANDed with its turns by 1 .. span - 1. They decide
the packet, with no relabelling:

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
Rotation j thus sends the representatives with h <= K - j, a prefix of
them sorted by h, in the order of their turned anchors among the demand
pairs of user 1 + j.

Places. A term names its (S, T) pair by its place: the pair's index among
the layout's F pairs in the order of ``tails``, which is every demand
set's order (:func:`pair_masks`). So rotation j's packets go out sorted by
their anchors' places. Turning by one user permutes the pairs, and one
table of F ints, ``turn[i]`` being the place of pair i turned on by one
user, carries each representative's terms from one rotation to the next:
one lookup per term, with no bit rotation. The representatives and the
table are numbered through a dict of the F pairs, freed once they exist.

:func:`deliver` streams the packets as (case, [(user, place), ...]) pairs
that carry no files: the demand only labels the terms. :func:`format_log`
writes each packet's log line to its sink as the packet passes, from
per-place lists of each S and T label, and :func:`verify_decodability`
checks the stream (:class:`DecodeCheck`), so ``simulate`` keeps neither
packets nor lines. The check files each term as a bit of its user in one
of two lists of F ints indexed by place, and reads each term's S | T from
a third: nothing is per user. :func:`deliver` delivers any layout, the
band the rate refuses included.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Callable, Iterable, Iterator, Sequence

from .model import (
    InvalidParameters,
    SystemParams,
    bit,
    bits,
    mask_str,
    window_masks,
)
from .placement import SUBSET, CacheLayout, demand_pairs

GENERAL = "GENERAL"
SC1 = "SC1"
SC2 = "SC2"

# (user, S mask, T mask): a term without its file, as the packet builders make it
Anchor = tuple[int, int, int]
# (user, place): a term without its file, its (S, T) pair named by its place
Term = tuple[int, int]
# a packet without files: its case and its terms, the anchor first
Packet = tuple[str, list[Term]]
# the packets through user 1's demand pairs, each with its highest user, by that user
Orbit = list[tuple[int, str, list[Term]]]


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


def pair_masks(layout: CacheLayout) -> tuple[list[int], list[int]]:
    """The S and the T mask of each (S, T) pair of the layout, by the pair's
    place: its index among the pairs of :attr:`CacheLayout.tails`, read S by
    S, which is every demand set's order."""
    return [s for s, ts in layout.tails for _ in ts], [t for _, ts in layout.tails for t in ts]


def _swap_group(u: int, s: int, t: int) -> list[Anchor]:
    """Anchor plus, for each v in T, the key with v swapped against u."""
    group = [(u, s, t)]
    pool = bit(u) | t
    for v in bits(t):
        group.append((v, s, pool ^ bit(v)))
    return group


def _ring_xor(windows: tuple[int, ...], u: int, s: int, t: int) -> tuple[str, list[Anchor]]:
    """Classify the anchor (u, S, T) by the windows inside its union set I,
    found by their ends, and build its packet; ``windows[x - 1]`` is the
    ring's window that ends at x."""
    k = len(windows)
    full = (1 << k) - 1
    union = bit(u) | s | t
    ends = union  # x ends a window inside I when x, x - 1, ..., x - span + 1 are
    for d in range(1, s.bit_count()):
        ends &= ((union << d) | (union >> (k - d))) & full
    if ends.bit_count() == 1:
        return SC1, _swap_group(u, s, t)
    end = s & ~((s >> 1) | (s << (k - 1)))  # the member of S whose successor is not
    members, p_end = bits(union), (union & (end - 1)).bit_count()
    p_u, others = members.index(u) - p_end, ends ^ end
    images = []
    for x in bits(others & -end) + bits(others & (end - 1)):  # by ascending shift
        w = windows[x - 1]
        v = members[(p_u + (union & (bit(x) - 1)).bit_count()) % len(members)]
        images.append((v, w, union ^ w ^ bit(v)))
    if len(images) == 1 and images[0][1] == bit(u) | t:
        # S and {u} | T alone: the half turn carries one onto the other, and u into S
        if not bit(images[0][0]) & s:
            raise AssertionError("the shift carrying S onto {u} | T does not carry u into S")
        return SC2, _swap_group(u, s, t) + _swap_group(*images[0])
    return GENERAL, [(u, s, t)] + images


def _subset_xor(u: int, s: int, t: int) -> tuple[str, list[Anchor]]:
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


def _representatives(layout: CacheLayout) -> tuple[Orbit, list[int]]:
    """For each demand pair (S, T) of user 1, the packet through (1, S, T)
    with its highest user, sorted by that user, its terms as (user, place);
    and the turn table, ``turn[i]`` being the place of pair i turned on by
    one user. Raises AssertionError if a term's pair is not one of the
    layout's, or if the rotations that :func:`deliver` sends leave some
    user's demand pair uncovered."""
    params = layout.params
    k, full = params.k, (1 << params.k) - 1
    if layout.placement == SUBSET:
        build = _subset_xor
    else:
        build = partial(_ring_xor, window_masks(k, params.span))
    place = {s << 64 | t: i for i, (s, t) in enumerate(zip(*pair_masks(layout)))}
    turn = []
    for s, ts in layout.tails:
        head = (((s << 1) | (s >> (k - 1))) & full) << 64
        turn += [place[head | (((t << 1) | (t >> (k - 1))) & full)] for t in ts]
    sent = [0] * layout.f  # the users each pair is sent to, as a mask, by place
    reps = []
    for s, t in demand_pairs(layout, 1):
        case, keys = build(1, s, t)
        h = max(keys)[0]
        terms = []
        # the term (v, S, T) goes to users v .. v + K - h, as that term turned
        # back by v - 1 and on again
        for v, a, b in keys:
            p = place.get(a << 64 | b)
            if p is None:
                raise AssertionError(
                    f"representative term d{v}:{mask_str(a)}:{mask_str(b)}"
                    " is not a pair of the layout"
                )
            terms.append((v, p))
            j, back = v - 1, k - v + 1
            first = (((a >> j) | (a << back)) & full) << 64 | (((b >> j) | (b << back)) & full)
            sent[place[first]] |= ((1 << (k - h + 1)) - 1) << j
        reps.append((h, case, terms))
    # each demand pair of user 1 is the anchor of its representative
    leftovers = sum(k - sent[terms[0][1]].bit_count() for _, _, terms in reps)
    if leftovers:
        raise AssertionError(f"{leftovers} demand pairs were never covered")
    reps.sort(key=lambda rep: rep[0])
    return reps, turn


def deliver(layout: CacheLayout) -> Iterator[Packet]:
    """Every packet of the layout's delivery in the greedy scan's order,
    rotated from the representatives as the iterator is consumed; the
    coverage is checked before this returns. Every demand pair lands in
    exactly one packet."""
    return _scan(layout.params.k, *_representatives(layout))


def _scan(k: int, reps: Orbit, turn: list[int]) -> Iterator[Packet]:
    highs = [h for h, _, _ in reps]
    cases = [case for _, case, _ in reps]
    terms = [keys for _, _, keys in reps]  # each representative turned on by j
    del reps
    for j in range(k):
        live = bisect_right(highs, k - j)
        if j:
            for r in range(live):
                terms[r] = [(v + 1, turn[p]) for v, p in terms[r]]
        # the packets that go out at user 1 + j, by their anchors' places
        anchors = [keys[0][1] for keys in terms[:live]]
        for r in sorted(range(live), key=anchors.__getitem__):
            yield cases[r], terms[r]


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
    """Decodability, one packet at a time, over pairs numbered by place:
    ``unions[p]`` is S | T of the pair at place p. :meth:`add` takes a
    packet's (user, place) terms. A user reads a term through a shared cache
    (user in S) or its private cache (user in T). The user of a demand term
    is in neither, so it peels its term when no second term is unreadable to
    it: the running mask ``once`` holds the users some term leaves
    unreadable, and ``twice`` those two terms do. A term is filed as its
    user's bit in ``peeled[p]`` or ``blocked[p]``, two lists of one int per
    place (K <= 64). :meth:`report` checks every demand pair of a layout
    whose pairs hold places 0 .. F - 1, as :func:`pair_masks` numbers them."""

    def __init__(self, unions: list[int]) -> None:
        self.unions = unions
        self.peeled = [0] * len(unions)
        self.blocked = [0] * len(unions)

    def add(self, terms: Sequence[Term]) -> None:
        unions = self.unions
        once = twice = 0
        for _, p in terms:
            unread = ~unions[p]
            twice |= once & unread
            once |= unread
        peeled, blocked = self.peeled, self.blocked
        for v, p in terms:
            own = 1 << (v - 1)
            if twice & own:
                blocked[p] |= own
            else:
                peeled[p] |= own

    def report(self, layout: CacheLayout) -> DecodabilityReport:
        """One pass over the layout's (S, T) pairs, each demanded by the users
        outside S | T; misses by user, then in that user's demand-set order."""
        full = (1 << layout.params.k) - 1
        peeled, blocked = self.peeled, self.blocked
        misses = []
        checked = 0
        for i, (s, t) in enumerate(zip(*pair_masks(layout))):
            want = full & ~(s | t)
            checked += want.bit_count()
            for v in bits(want & ~peeled[i]):
                reason = "never transmitted"
                if blocked[i] >> (v - 1) & 1:
                    reason = "all carriers blocked by unreadable terms"
                misses.append((v, i, Failure(v, s, t, reason)))
        misses.sort(key=lambda miss: miss[:2])
        failures = tuple(failure for _, _, failure in misses)
        return DecodabilityReport(not failures, checked, failures)


def verify_decodability(layout: CacheLayout, packets: Iterable[Packet]) -> DecodabilityReport:
    """Check that every user can peel every demanded mini-subfile out of some
    packet of ``packets``. Returns the violation list instead of raising."""
    check = DecodeCheck([s | t for s, t in zip(*pair_masks(layout))])
    for _, terms in packets:
        check.add(terms)
    return check.report(layout)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def format_log(
    packets: Iterable[Packet], layout: CacheLayout, write: Callable[[str], object]
) -> Iterator[Packet]:
    """Pass the layout's ``packets`` through, writing each one's log line,
    ``CASE d<u>:S:T ^ d<u'>:S':T' ...``, with ``write`` as it goes by and,
    once the stream ends, the count and rate lines; every line ends in a
    newline. Each user's ``d<u>:`` and each place's S and T labels are
    rendered once per run."""
    user_label = [f"d{v}:" for v in range(layout.params.k + 1)]
    s_label, t_label = ([mask_str(m) for m in masks] for masks in pair_masks(layout))
    counts: Counter[str] = Counter()
    for packet in packets:
        case, terms = packet
        line = " ^ ".join([f"{user_label[v]}{s_label[p]}:{t_label[p]}" for v, p in terms])
        write(f"{case} {line}\n")
        counts[case] += 1
        yield packet
    total = sum(counts.values())
    rate = Fraction(total, layout.f)
    write(
        f"# total={total} general={counts[GENERAL]} sc1={counts[SC1]} sc2={counts[SC2]}\n"
        f"# F={layout.f} rate={rate.numerator}/{rate.denominator}\n"
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
