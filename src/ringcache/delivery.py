"""XOR broadcast delivery.

Every user's demand set lists the (S, T) pairs it cannot read. The server
sends XOR packets, each built through an anchor key (u, S, T) and holding
one term per user, until every demand key is in one. A packet builder
returns (case, members, terms): the case tag, the packet's users as a
mask, and its terms as (user, key) pairs, the anchor first, each pair
named by one int key, S << K | T, so a pair is one dict lookup away from
its place and the highest user is ``members.bit_length()``.

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
Without a shared layer (gamma_a = 0) S is empty and this is the SC1 swap
group: :func:`deliver` builds those packets with :func:`_swap_group`
itself, the same terms in the same order.

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

Places. A term names its (S, T) pair by its place p: the pair's index
among the layout's F pairs, ``layout.s_of[p]`` and ``layout.t_of[p]``, in
every demand set's order. So rotation j's packets go out sorted by their
anchors' places. Turning by one user permutes the pairs, and one table of
F ints, ``turn[i]`` being the place of pair i turned on by one user,
carries the terms from one rotation to the next with no bit rotation. The
representatives, sorted by h, are rotation 0 (:class:`Rotation`), the one
record of the orbit: flat lists, their terms' users in one and places in
another, each representative a run of both from its offset in ``starts``.
The live ones are a prefix, so one ``map`` over the turn table turns every
live term of a rotation at once: rotation j is rotation 0 with ``j``,
``order`` and ``places`` replaced, sharing its other lists. Rotations are
built by keyword or ``_replace`` and read by field name. Rotation 0 and the
table are numbered through a dict of the F pairs' keys, freed once they
exist. A key turns with both its fields at once: back by j through one
shift-and-mask pair, read from two tables of K masks cached per K
(:func:`_turn_masks`), and on by one user as the turn back by K - 1, once
per pair to build the table. To check that the rotations cover every
demand pair, :func:`deliver` turns each representative term of user v
back by v - 1, to the pair user 1 demands in its place.

:func:`deliver` returns rotation 0 and the table (:class:`Delivery`).
Iterated, it streams the packets as (case, [(user, place), ...]) pairs
carrying no files: the demand only labels the terms. ``simulate`` reads
:meth:`Delivery.rotations`, a rotation at a time: :func:`format_log`
writes each rotation's lines to its sink a block of :data:`LOG_BLOCK`
lines per write, each block one join of shared strings (user labels that
carry the `` ^ `` separator, and per place pointers to its ``S:`` head and
its T text), and :func:`verify_decodability` files each rotation whole
(:class:`DecodeCheck`), so ``simulate`` keeps no rotation it has passed.
The check files each term as a bit of its user in one of two lists of F
ints indexed by place, and reads the users each term is unreadable to
from a third: nothing is per user. A rotation whose every term is
unreadable to its own user alone among its packet's users peels whole,
tested over all its terms at once against the masks :func:`deliver` lays
out beside ``users``. The report works out every place's wanted users and
their count at C level and walks only the places with a miss.
:func:`deliver` delivers any layout, the band the rate refuses included.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from collections import Counter
from fractions import Fraction
from functools import lru_cache, partial
from itertools import accumulate, chain, compress, count, islice, repeat
from operator import and_, inv, lshift, or_, rshift, xor
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .model import (
    InvalidParameters,
    SystemParams,
    bits,
    mask_str,
    window_masks,
)
from .placement import SUBSET, CacheLayout, demand_pairs

GENERAL = "GENERAL"
SC1 = "SC1"
SC2 = "SC2"

# log lines per write: a rotation's lines are written in blocks, so that no
# more than one block's terms and lines are held however large the rotation
LOG_BLOCK = 64

# user v's bit at index v, for a user v <= K turned on by j < K <= 64
_USER_BITS = [0] + [1 << i for i in range(127)]

# (user, S << K | T): a term without its file, as the packet builders make it
KeyTerm = tuple[int, int]
# a packet builder's result: its case, its users as a mask, and its terms, the anchor first
Built = tuple[str, int, list[KeyTerm]]
# (user, place): a term without its file, its (S, T) pair named by its place
Term = tuple[int, int]
# a packet without files: its case and its terms, the anchor first
Packet = tuple[str, list[Term]]


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


def _lows(mask: int) -> list[int]:
    """The bits of ``mask``, ascending, each as a mask of its own."""
    lows = []
    while mask:
        low = mask & -mask
        mask ^= low
        lows.append(low)
    return lows


@lru_cache(maxsize=None)
def _turn_masks(k: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The two masks that turn a key S << K | T back by j < K, both fields
    at once: ``keep[j]``, each field's lowest K - j bits, which the shift
    down by j keeps, and ``wrap[j]``, each field's highest j bits, which the
    shift up by K - j fills: ``key >> j & keep[j] | key << (k - j) & wrap[j]``.
    The turn on by one user is the turn back by K - 1."""
    full = (1 << k) - 1
    keep, wrap = [], []
    for j in range(k):
        low = full >> j
        keep.append(low << k | low)
        wrap.append((full ^ low) << k | (full ^ low))
    return tuple(keep), tuple(wrap)


def _swap_group(k: int, u: int, s: int, t: int) -> Built:
    """SC1, its members {u} | T: the anchor plus, for each v in T, the term
    with v swapped against u."""
    head = s << k
    pool = 1 << (u - 1) | t  # the members
    terms = [(u, head | t)]
    while t:
        low = t & -t  # v's bit
        t ^= low
        terms.append((low.bit_length(), head | (pool ^ low)))
    return SC1, pool, terms


def _ring_xor(windows: tuple[int, ...], u: int, s: int, t: int) -> Built:
    """Classify the anchor (u, S, T) by the windows inside its union set I,
    found by their ends, and build its packet as (case, members, terms);
    ``windows[x - 1]`` is the ring's window that ends at x, and K is their
    number. SC1 is the swap group, SC2 two of them (members I), and
    GENERAL the anchor and its images."""
    k = len(windows)
    full = (1 << k) - 1
    own = 1 << (u - 1)
    union = own | s | t
    ends = union  # x ends a window inside I when x, x - 1, ..., x - span + 1 are
    for d in range(1, s.bit_count()):
        ends &= ((union << d) | (union >> (k - d))) & full
    if ends.bit_count() == 1:
        return _swap_group(k, u, s, t)
    end = s & ~((s >> 1) | (s << (k - 1)))  # the member of S whose successor is not
    lifted = _lows(union)
    p_u = (union & (own - 1)).bit_count() - (union & (end - 1)).bit_count()
    others = ends ^ end
    members = own
    terms = [(u, s << k | t)]
    for part in (others & -end, others & (end - 1)):  # by ascending shift
        while part:
            low = part & -part  # the end of a window inside I
            part ^= low
            w = windows[low.bit_length() - 1]
            v = lifted[(p_u + (union & (low - 1)).bit_count()) % len(lifted)]
            members |= v
            terms.append((v.bit_length(), w << k | (union ^ w ^ v)))
    if len(terms) == 2 and w == own | t:
        # S and {u} | T alone: the half turn carries one onto the other, and u into S
        if not s & v:
            raise AssertionError("the shift carrying S onto {u} | T does not carry u into S")
        image = _swap_group(k, v.bit_length(), w, union ^ w ^ v)
        return SC2, union, _swap_group(k, u, s, t)[2] + image[2]
    return GENERAL, members, terms


def _subset_xor(k: int, u: int, s: int, t: int) -> Built:
    """Subset-placement XOR through the anchor (u, S, T): for each other v
    in Q = {u} | S | T, S_v holds the elements of Q - {v} at the positions S
    takes in Q - {u}, and T_v the rest of Q - {v}. Returns (SC1, Q, terms)."""
    own = 1 << (u - 1)
    union = own | s | t
    lifted = _lows(union)
    i_u = lifted.index(own)
    positions = [i - (i > i_u) for i, b in enumerate(lifted) if s & b]  # in Q - {u}
    terms = [(u, s << k | t)]
    for i_v, vb in enumerate(lifted):
        if vb == own:
            continue
        s_v = 0
        for i in positions:  # position i of Q - {v} holds Q's i-th element, or the next past v
            s_v |= lifted[i + (i >= i_v)]
        terms.append((vb.bit_length(), s_v << k | (union ^ vb ^ s_v)))
    return SC1, union, terms


class Rotation(NamedTuple):
    """The packets that go out at user 1 + j, in flat lists: packet r, for
    r < len(order), has the case ``cases[r]`` and the terms (users[i] + j,
    places[i]) for starts[r] <= i < starts[r + 1], the anchor first, and
    ``members[r]`` is the mask of users[starts[r]:starts[r + 1]]. Beside
    ``users``, term i's user as a mask is ``owns[i]`` and its packet's
    ``members`` is ``packs[i]``, both unturned, as ``users`` is. ``places``
    holds exactly the packets' terms, and they go out in ``order``."""

    j: int
    order: list[int]
    cases: Sequence[str]
    starts: Sequence[int]
    users: Sequence[int]
    members: Sequence[int]
    places: Sequence[int]
    owns: Sequence[int]
    packs: Sequence[int]

    def packets(self) -> Iterator[Packet]:
        """The rotation's packets, as (case, [(user, place), ...]), in ``order``."""
        j, cases, starts, users, places = self.j, self.cases, self.starts, self.users, self.places
        for r in self.order:
            lo, hi = starts[r], starts[r + 1]
            yield cases[r], [(v + j, p) for v, p in zip(users[lo:hi], places[lo:hi])]

    def anchors(self) -> Iterator[tuple[str, int, int]]:
        """Each packet's case and its anchor's user and place, in ``order``."""
        j, cases, starts, users, places = self.j, self.cases, self.starts, self.users, self.places
        for r in self.order:
            yield cases[r], users[starts[r]] + j, places[starts[r]]


def _order(starts: Sequence[int], places: Sequence[int], live: int) -> list[int]:
    """The first ``live`` packets in the order they go out: by their anchors' places."""
    anchors = list(map(places.__getitem__, islice(starts, live)))
    return sorted(range(live), key=anchors.__getitem__)


class Delivery:
    """A layout's delivery as its orbit: rotation 0 (``first``), the packet
    through (1, S, T) for each demand pair (S, T) of user 1, sorted by its
    highest user (``highs``); and the turn table (``turn``). Iterated, it
    streams the packets; :meth:`rotations` streams them a rotation at a time."""

    def __init__(self, k: int, highs: list[int], turn: list[int], first: Rotation) -> None:
        self.k, self.highs, self.turn, self.first = k, highs, turn, first

    def rotations(self) -> Iterator[Rotation]:
        """Rotation j sends the representatives with h <= K - j, a prefix,
        every live term turned on by one user at once from rotation j - 1."""
        k, highs, turn, rotation = self.k, self.highs, self.turn, self.first
        starts = rotation.starts
        for j in range(k):
            live = bisect_right(highs, k - j)
            if not live:  # and no later rotation sends any
                return
            if j:
                places = list(map(turn.__getitem__, islice(rotation.places, starts[live])))
                rotation = rotation._replace(j=j, order=_order(starts, places, live), places=places)
            yield rotation

    def __iter__(self) -> Iterator[Packet]:
        for rotation in self.rotations():
            yield from rotation.packets()


def deliver(layout: CacheLayout) -> Delivery:
    """The layout's delivery: every packet in the greedy scan's order, each
    demand pair in exactly one, rotated from the representatives as the
    stream is consumed. Raises AssertionError, before anything streams, if
    a representative's term is not a pair of the layout, if the rotations
    sent leave some user's demand pair uncovered, or if they send some
    demand pair twice: more terms than there are demand pairs."""
    params = layout.params
    k, full = params.k, (1 << params.k) - 1
    if not params.ga:
        build = partial(_swap_group, k)
    elif layout.placement == SUBSET:
        build = partial(_subset_xor, k)
    else:
        build = partial(_ring_xor, window_masks(k, params.span))
    keep, wrap = _turn_masks(k)
    # each pair numbered through its key, S << K | T
    keys = list(map(or_, map(lshift, layout.s_of, repeat(k)), layout.t_of))
    place = dict(zip(keys, count()))
    shift, down, up = k - 1, keep[-1], wrap[-1]  # the turn on by one, as the turn back by K - 1
    turn = [place[(key >> shift & down) | (key << 1 & up)] for key in keys]
    del keys
    sent = [0] * layout.f  # the users each pair is sent to, as a mask, by place
    # each representative's case, members, size, users and places, by its highest user
    by_high: list[tuple[list, ...]] = [([], [], [], [], []) for _ in range(k + 1)]
    demand = demand_pairs(layout, 1)
    for s, t in demand:
        case, mask, terms = build(1, s, t)
        h = mask.bit_length()
        cases, members, sizes, users, places = by_high[h]
        reach = (1 << (k - h + 1)) - 1
        for v, key in terms:
            p = place.get(key)
            if p is None:
                raise AssertionError(
                    f"representative term d{v}:{mask_str(key >> k)}:{mask_str(key & full)}"
                    " is not a pair of the layout"
                )
            users.append(v)
            places.append(p)
            j = v - 1
            # the term goes to users v .. v + K - h, as the pair turned back
            # by j goes to users 1 + j .. 1 + j + K - h
            if j:
                p = place[(key >> j & keep[j]) | (key << (k - j) & wrap[j])]
            sent[p] |= reach << j
        cases.append(case)
        members.append(mask)
        sizes.append(len(terms))
    del place
    highs = [h for h, group in enumerate(by_high) for _ in group[0]]
    cases, members, sizes, users, places = (
        list(chain.from_iterable(group[i] for group in by_high)) for i in range(5)
    )
    starts = list(accumulate(sizes, initial=0))
    owns = list(map(_USER_BITS.__getitem__, users))
    packs = list(chain.from_iterable(map(repeat, members, sizes)))
    # each demand pair of user 1 is the anchor of its representative
    leftovers = sum(k - sent[places[a]].bit_count() for a in starts[:-1])
    if leftovers:
        raise AssertionError(f"{leftovers} demand pairs were never covered")
    # every demand pair is covered, so each goes out exactly once when the
    # terms sent number the pairs: a representative with highest user h goes
    # out in K - h + 1 rotations, and each of the K users has as many demand
    # pairs as user 1
    total = sum((k + 1 - h) * sum(group[2]) for h, group in enumerate(by_high))
    if total != k * len(demand):
        raise AssertionError(f"{total} demand terms sent for {k * len(demand)} demand pairs")
    first = Rotation(j=0, order=_order(starts, places, len(highs)), cases=cases, starts=starts,
                     users=users, members=members, places=places, owns=owns, packs=packs)
    return Delivery(k, highs, turn, first)


# ---------------------------------------------------------------------------
# decodability
# ---------------------------------------------------------------------------

class Failure(NamedTuple):
    user: int
    s: int
    t: int
    reason: str


class DecodabilityReport(NamedTuple):
    ok: bool
    checked: int
    failures: tuple[Failure, ...]

    def failing_users(self) -> tuple[int, ...]:
        return tuple(sorted({f.user for f in self.failures}))


class DecodeCheck:
    """Decodability over pairs numbered by place: ``unions[p]`` is S | T of
    the pair at place p. A user reads a term through a shared cache (user in
    S) or its private cache (user in T). The user of a demand term is in
    neither, so it peels its term when no second term of the packet is
    unreadable to it: with ``once`` the users some term leaves unreadable
    and ``twice`` those two terms do, a term peels when its user is not in
    ``twice``. A term is filed as its user's bit in ``peeled[p]`` or
    ``blocked[p]``, two lists of one int per place (K <= 64).
    :meth:`add_rotation` files a whole rotation, :meth:`add` one packet's
    (user, place) terms. :meth:`report` checks every demand pair of a layout
    whose pairs hold places 0 .. F - 1, as its ``s_of`` and ``t_of`` do."""

    def __init__(self, unions: list[int]) -> None:
        self.unread = [~union for union in unions]  # the users a pair's term is unreadable to
        self.peeled = [0] * len(unions)
        self.blocked = [0] * len(unions)

    def add(self, terms: Sequence[Term]) -> None:
        """File one packet's (user, place) terms."""
        unread, peeled, blocked = self.unread, self.peeled, self.blocked
        once = twice = 0
        for _, p in terms:
            x = unread[p]
            twice |= once & x
            once |= x
        for v, p in terms:
            own = 1 << (v - 1)
            if twice & own:
                blocked[p] |= own
            else:
                peeled[p] |= own

    def add_rotation(self, rotation: Rotation) -> None:
        """File a whole rotation, every live term at once. When each packet
        holds one term per user, and each term is unreadable to its own
        user and to no other user of its packet, no user has a second
        unreadable term, so every term peels. Otherwise the rotation goes
        through :meth:`add` packet by packet."""
        j, places, owns, members = rotation.j, rotation.places, rotation.owns, rotation.members
        live = len(places)
        if len(owns) > live:  # a later rotation sends a prefix of the terms
            owns = owns[:live]
        unread = map(rshift, map(self.unread.__getitem__, places), repeat(j))
        # the owns of a packet sum to its members exactly when no user repeats
        if sum(owns) == sum(islice(members, len(rotation.order))) and (
            list(map(and_, unread, rotation.packs)) == owns
        ):
            own, peeled = _USER_BITS[j:], self.peeled  # own[v] is the bit of user v + j
            for v, p in zip(rotation.users, places):
                peeled[p] |= own[v]
        else:
            for _, terms in rotation.packets():
                self.add(terms)

    def report(self, layout: CacheLayout) -> DecodabilityReport:
        """One pass over the layout's (S, T) pairs, each demanded by the users
        outside S | T; misses by user, then in that user's demand-set order.
        Only the places with a miss are walked one by one."""
        s_of, t_of = layout.s_of, layout.t_of
        # S | T holds users 1 .. K alone, so the full mask XOR it is the rest
        want = list(map(xor, repeat((1 << layout.params.k) - 1), map(or_, s_of, t_of)))
        checked = sum(map(int.bit_count, want))
        blocked = self.blocked
        missed = list(map(and_, want, map(inv, self.peeled)))
        misses = []
        for i, miss in compress(enumerate(missed), missed):
            s, t = s_of[i], t_of[i]
            for v in bits(miss):
                reason = "never transmitted"
                if blocked[i] >> (v - 1) & 1:
                    reason = "all carriers blocked by unreadable terms"
                misses.append((v, i, Failure(v, s, t, reason)))
        misses.sort(key=lambda miss: miss[:2])
        failures = tuple(failure for _, _, failure in misses)
        return DecodabilityReport(not failures, checked, failures)


def verify_decodability(
    layout: CacheLayout, packets: Iterable[Packet] = (), *, rotations: Iterable[Rotation] = ()
) -> DecodabilityReport:
    """Check that every user can peel every demanded mini-subfile out of some
    packet of ``packets``, or of the whole ``rotations``. Returns the
    violation list instead of raising."""
    check = DecodeCheck([s | t for s, t in zip(layout.s_of, layout.t_of)])
    for _, terms in packets:
        check.add(terms)
    for rotation in rotations:
        check.add_rotation(rotation)
    return check.report(layout)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def format_log(
    rotations: Iterable[Rotation], layout: CacheLayout, write: Callable[[str], object]
) -> Iterator[Rotation]:
    """Pass the layout's ``rotations`` through, writing each one's log lines,
    ``CASE d<u>:S:T ^ d<u'>:S':T' ...``, with ``write`` as it goes by, one
    write per :data:`LOG_BLOCK` lines, and, once the stream ends, the count
    and rate lines; every line ends in a newline.

    A block is one join over a flat list of shared strings, four for a
    packet's first term (its case, `` d<u>:``, ``S:`` and ``T``) and three
    for each later one (`` ^ d<u>:``, ``S:`` and ``T``), then a newline. Each
    user's two labels, each distinct S's ``S:`` and each T's text are
    rendered once per run; each place holds only pointers to the last two."""
    k = layout.params.k
    first = [f" d{v}:" for v in range(k + 1)]
    later = [f" ^ d{v}:" for v in range(k + 1)]
    heads = {s: mask_str(s) + ":" for s in set(layout.s_of)}
    head = list(map(heads.__getitem__, layout.s_of))
    tail = list(map(mask_str, layout.t_of))
    counts: Counter[str] = Counter()
    for rotation in rotations:
        order, cases, starts = rotation.order, rotation.cases, rotation.starts
        users, places = rotation.users, rotation.places
        lead, rest = first[rotation.j:], later[rotation.j:]  # lead[v], rest[v] label user v + j
        for b in range(0, len(order), LOG_BLOCK):
            parts: list[str] = []
            for r in order[b:b + LOG_BLOCK]:
                lo, hi = starts[r], starts[r + 1]
                p = places[lo]
                parts += (cases[r], lead[users[lo]], head[p], tail[p])
                for x in range(lo + 1, hi):
                    p = places[x]
                    parts += (rest[users[x]], head[p], tail[p])
                parts.append("\n")
            write("".join(parts))
        counts.update(map(cases.__getitem__, order))
        yield rotation
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
