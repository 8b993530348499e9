"""Helpers only the tests need: window labels, the window masks as a set (the
library only lists them), the window and popcount predicates, what a
layout lets a user read, each user's private cache and demand set
enumerated user by user as the placement did before it split one T list
per shared set, the layout dump as the dict the direct JSON renderer
replaced, position-set rotations, the delivery builders one anchor at a
time, the swap group with each key as (user, S, T), as it was before the
builders numbered each pair by one key S << K | T, and the adapter that
splits such keys and joins them back, the relabelling ring builder and the
per-user scan that the window-end builder and the scan by rotation
replaced, packets materialized as transmissions whose terms carry files
(the library streams file-free packets), the places of (S, T) pairs as
delivery numbers them, with the pairs a layout lacks past F, to turn
(user, S, T) keys into (user, place) terms and back, a packet's log line
from its keys through ``mask_str``, as it was written before the log read
per-place labels, the greedy delivery loop the orbit plan replaced,
rotations built from packets and a delivery that streams its packets as
rotations of one packet each, the decode check with the per-term prefix
and suffix rule the two running masks replaced, the decode check with one
set of (user, S, T) keys per verdict that the place ledgers replaced,
delivery results with a transmission taken out, the cut-set bound, memory
sharing and the six-place rendering as the Fraction code the integer forms
replaced, the cut-set bound's integer loop with a ``min`` per term that
the split loop replaced, a layout's shared sets and the S and T of each of
its places rebuilt from the shared-set masks and T lists, and the sweep
built row by row through a SystemParams and Fractions, then rendered
whole, as the column kernel and its streamed rows replaced, the exhaustive
census over every candidate subset that the census through one window's
slice replaced, the count law's two transcriptions with each tail summed
binomial by binomial, as the two-binomial forms replaced, and the paper's
large-memory condition, under which its optimality theorem says the scheme
meets the cut-set bound, and argv parsed by the whole ``ringcache`` parser,
as every command was parsed before a command's arguments went straight to
its own parser."""

import itertools
import json
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from ringcache.analysis import MemoryShare, SharePoint, TransmissionCounts, achievable_rate
from ringcache.cli import CSV_HEADER, build_parser
from ringcache.delivery import (
    GENERAL,
    SC1,
    SC2,
    DecodabilityReport,
    DecodeCheck,
    Failure,
    Rotation,
    _subset_xor,
    check_demand,
    deliver,
)
from ringcache.model import (
    InvalidParameters,
    RegimeError,
    SystemParams,
    binom,
    bit,
    bits,
    cyc,
    mask_of,
    mask_str,
    params_from_gammas,
    position_sets,
    subset_masks,
    window_mask,
    window_masks,
)
from ringcache.placement import SUBSET, demand_pairs, private_pairs
from ringcache.verify import SubsetCensus, SubsetRecord, classify_subset


def popcount(mask: int) -> int:
    return mask.bit_count()


@lru_cache(maxsize=None)
def window_set(k: int, width: int) -> frozenset[int]:
    """The window masks of :func:`window_masks` as a set, for membership tests."""
    return frozenset(window_masks(k, width))


def is_window(mask: int, k: int, width: int) -> bool:
    """True iff ``mask`` is a run of ``width`` cyclically consecutive indices."""
    if popcount(mask) != width:
        return False
    return mask in window_set(k, width)


def window_end(mask: int, k: int, width: int) -> int:
    """Canonical end label of a window mask (0 for the empty window)."""
    if width == 0 and mask == 0:
        return 0
    for j in range(1, k + 1):
        if window_mask(j, width, k) == mask:
            return j
    raise ValueError(f"{bits(mask)} is not a width-{width} window over [1, {k}]")


def accessible_subfile_windows(layout, u: int) -> tuple[int, ...]:
    """S masks of the subfiles user u reaches through its L shared caches."""
    p = layout.params
    seen = {s for off in range(p.l) for s in layout.access[cyc(u + off, p.k) - 1]}
    return tuple(sorted(seen))


def reads(layout, u: int, s: int, t: int) -> bool:
    """True iff the layout's caches give user u the mini-subfile (S, T) of
    every file: one of its shared caches holds S, or its private cache
    holds (S, T)."""
    return s in accessible_subfile_windows(layout, u) or (s, t) in private_pairs(layout, u)


def t_sets_reference(params, s_mask: int, containing: int = 0):
    """gamma_p-subsets of the users outside ``s_mask``, lexicographically
    ascending; ``containing`` restricts to sets including that user."""
    pool = [b for b in map(bit, range(1, params.k + 1)) if not s_mask & b]
    gp = params.gp
    if containing:
        own = bit(containing)
        if gp == 0 or s_mask & own:
            return
        rest = [b for b in pool if b != own]
        for combo in itertools.combinations(rest, gp - 1):
            yield own | sum(combo)
        return
    for combo in itertools.combinations(pool, gp):
        yield sum(combo)


def _shared_sets(params, placement: str) -> tuple[int, ...]:
    """Every S a subfile of the placement can carry, in canonical order: ring
    windows by end (K equal whole-ring masks at span = K), or all
    gamma_a-subsets lexicographically, the single empty set at gamma_a = 0."""
    if placement == SUBSET or params.ga == 0:
        return subset_masks(params.k, params.ga)
    return window_masks(params.k, params.span)


def shared_sets(layout) -> tuple[int, ...]:
    """Every S a subfile of the layout can carry, in canonical order."""
    return _shared_sets(layout.params, layout.placement)


def places_reference(params, placement: str) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The S and the T of each place of the placement's layout: its shared
    sets in canonical order, each with its T lexicographically, as the layout
    once held them nested, one T list per S."""
    pairs = [
        (s, t) for s in _shared_sets(params, placement) for t in t_sets_reference(params, s)
    ]
    return tuple(s for s, _ in pairs), tuple(t for _, t in pairs)


def private_cache_reference(params, shared_sets, u: int) -> tuple[tuple[int, int], ...]:
    """User u's private cache: each (S, T) with u outside S and inside T."""
    return tuple(
        (s, t)
        for s in shared_sets
        if not s & bit(u)
        for t in t_sets_reference(params, s, containing=u)
    )


def demand_pairs_reference(params, shared_sets, u: int) -> tuple[tuple[int, int], ...]:
    """User u's demand set: each (S, T) with u outside S | T."""
    own = bit(u)
    return tuple(
        (s, t) for s in shared_sets if not s & own for t in t_sets_reference(params, s | own)
    )


def layout_reference_dict(layout) -> dict:
    """The layout dump as a dict, one Python string per entry: what
    ``json.dumps(..., indent=2)`` rendered before ``layout_to_json``
    rendered the text itself."""
    p = layout.params
    files = range(1, p.n + 1)
    sets = shared_sets(layout)

    def per_file(labels: list[str]) -> list[str]:
        return [f"{n}:{label}" for n in files for label in labels]

    return {
        "K": p.k,
        "L": p.l,
        "N": p.n,
        "Ma": str(p.ma),
        "Mp": str(p.mp),
        "F": layout.f,
        "access": {
            str(k + 1): per_file([mask_str(s) for s in cache])
            for k, cache in enumerate(layout.access)
        },
        "private": {
            str(u): per_file(
                [f"{mask_str(s)}:{mask_str(t)}" for s, t in private_cache_reference(p, sets, u)]
            )
            for u in range(1, p.k + 1)
        },
    }


def only_bit(mask: int) -> int:
    """The single index in a singleton mask."""
    if mask == 0 or mask & (mask - 1):
        raise ValueError(f"mask {mask:#x} is not a singleton")
    return mask.bit_length()


def shift_positions(pos_mask: int, j: int, m: int) -> int:
    """Cyclically shift a position mask by j within positions [1, m]."""
    j %= m
    full = (1 << m) - 1
    if j == 0:
        return pos_mask & full
    return ((pos_mask << j) | (pos_mask >> (m - j))) & full


def elements_at(pos, pos_mask: int) -> int:
    """Element mask a position mask picks out of ``pos.union``."""
    m = 0
    for p in bits(pos_mask):
        m |= bit(pos.union[p - 1])
    return m


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
    anchor: tuple[int, int, int]

    @property
    def union(self) -> int:
        u, s, t = self.anchor
        return bit(u) | s | t

    @property
    def packet(self):
        """The file-free packet, its keys as (user, S, T): (case, keys)."""
        return self.case, [(v, s, t) for v, _, s, t in self.terms]


class Places:
    """Places of (S, T) pairs as delivery numbers them: the layout's pairs by
    their place, then every other pair met, past F, in the order met; turns
    (user, S, T) keys into (user, place) terms and back."""

    def __init__(self, layout=None):
        self.pairs = [] if layout is None else list(zip(layout.s_of, layout.t_of))
        self.index = {pair: i for i, pair in enumerate(self.pairs)}

    def terms(self, keys):
        out = []
        for v, s, t in keys:
            if (s, t) not in self.index:
                self.index[s, t] = len(self.pairs)
                self.pairs.append((s, t))
            out.append((v, self.index[s, t]))
        return out

    def keys(self, terms):
        return [(v, *self.pairs[p]) for v, p in terms]

    def unions(self):
        """S | T of each pair met so far, by place: a :class:`DecodeCheck`'s table."""
        return [s | t for s, t in self.pairs]


def decode_keys(layout, streams) -> DecodabilityReport:
    """:func:`verify_decodability` of packets given as lists of (user, S, T)
    keys, which may name pairs that are not the layout's."""
    places = Places(layout)
    streams = [places.terms(keys) for keys in streams]
    check = DecodeCheck(places.unions())
    for terms in streams:
        check.add(terms)
    return check.report(layout)


def format_packet(case, keys) -> str:
    """One log line, ``CASE d<u>:S:T ^ d<u'>:S':T' ...``, of a packet of
    (user, S, T) keys, as ``format_log`` writes it."""
    return case + " " + " ^ ".join(f"d{v}:{mask_str(s)}:{mask_str(t)}" for v, s, t in keys)


@dataclass(frozen=True)
class DeliveryResult:
    params: SystemParams
    f: int
    transmissions: tuple[Transmission, ...]
    layout: object

    @property
    def total(self) -> int:
        return len(self.transmissions)

    def count(self, case: str) -> int:
        return sum(1 for tx in self.transmissions if tx.case == case)

    @property
    def rate(self) -> Fraction:
        return Fraction(self.total, self.f)

    def packets(self):
        """The file-free packets as the library streams them, terms by place."""
        places = Places(self.layout)
        return [(tx.case, places.terms(tx.packet[1])) for tx in self.transmissions]


def format_transmission(tx: Transmission) -> str:
    return format_packet(*tx.packet)


def _transmission(case, keys, demand) -> Transmission:
    """A packet's keys labelled with each user's file; the anchor is first."""
    return Transmission(case, tuple(Term(v, demand[v - 1], s, t) for v, s, t in keys), keys[0])


def _swap_group(u: int, s: int, t: int):
    """SC1 as ``delivery._swap_group`` built it before it numbered each pair
    by one key: the anchor plus, for each v in T, the key with v swapped
    against u, every key (user, S, T)."""
    group = [(u, s, t)]
    pool = bit(u) | t
    while t:
        low = t & -t  # v's bit
        t ^= low
        group.append((low.bit_length(), s, pool ^ low))
    return group


def split_keys(k: int, built):
    """A library packet builder's (case, members, terms) as (case, [(user,
    S, T), ...]), each term's key S << K | T split into its two masks; the
    members must be the mask of the terms' users."""
    case, members, terms = built
    keys = [(v, key >> k, key & ((1 << k) - 1)) for v, key in terms]
    if members != mask_of(v for v, _, _ in keys):
        raise AssertionError(f"members {members:#x} are not the users of {keys}")
    return case, keys


def join_keys(k: int, case, keys):
    """(case, [(user, S, T), ...]) as a library packet builder returns it:
    (case, members, terms), each term's pair as the key S << K | T."""
    return case, mask_of(v for v, _, _ in keys), [(v, s << k | t) for v, s, t in keys]


def _relabel(u: int, s: int, t: int):
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


def _classify(windows, u: int, s: int, t: int, images):
    """Case tag for the anchor (u, S, T), plus the SC2 shift: the windows
    among the S-images of its relabellings decide it."""
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


def _general(windows, images):
    """The anchor plus, by ascending shift, every image whose S is a window."""
    return images[:1] + [image for image in images[1:] if image[1] in windows]


def ring_xor_reference(windows, u: int, s: int, t: int):
    """The ring packet through (u, S, T) from one relabelling of its union
    set, ``windows`` being the set of window masks: what
    ``delivery._ring_xor`` built before it found the windows by their ends."""
    images = _relabel(u, s, t)
    case, j = _classify(windows, u, s, t, images)
    if case == SC1:
        return SC1, _swap_group(u, s, t)
    if case == SC2:
        return SC2, _swap_group(u, s, t) + _swap_group(*images[j])
    return GENERAL, _general(windows, images)


def scan_reference(layout, delivery):
    """The packets of ``delivery``'s representatives (as :func:`deliver`
    lays them out) in the greedy scan's order, found as the scan did before
    it went by rotation: users ascending, each user's demand pairs in order,
    every pair turned back to user 1's frame and its packet sent when its
    highest user does not wrap."""
    places = Places(layout)
    first = delivery.first
    by_pair = {}
    for r, (case, h) in enumerate(zip(first.cases, delivery.highs)):
        lo, hi = first.starts[r], first.starts[r + 1]
        terms = list(zip(first.users[lo:hi], first.places[lo:hi]))
        by_pair[places.pairs[terms[0][1]]] = (case, places.keys(terms), h)
    k = layout.params.k
    full = (1 << k) - 1
    for u in range(1, k + 1):
        j, back = u - 1, k - u + 1
        for s, t in demand_pairs(layout, u):
            case, keys, h = by_pair[((s >> j) | (s << back)) & full, ((t >> j) | (t << back)) & full]
            if h <= back:
                yield case, places.terms([
                    (v + j, ((a << j) | (a >> back)) & full, ((b << j) | (b >> back)) & full)
                    for v, a, b in keys
                ])


def as_rotation(j, packets):
    """A :class:`Rotation` at ``j`` holding ``packets``, each (case, [(user,
    place), ...]) with every user past j, sent in the order given, with each
    term's ``owns`` and ``packs`` filled as :func:`deliver` fills them."""
    starts = list(itertools.accumulate((len(terms) for _, terms in packets), initial=0))
    users = [v - j for _, terms in packets for v, _ in terms]
    members = [mask_of(v - j for v, _ in terms) for _, terms in packets]
    places = [p for _, terms in packets for _, p in terms]
    cases = [case for case, _ in packets]
    owns = [bit(v) for v in users]
    packs = [mask for mask, (_, terms) in zip(members, packets) for _ in terms]
    return Rotation(j=j, order=list(range(len(packets))), cases=cases, starts=starts,
                    users=users, members=members, places=places, owns=owns, packs=packs)


class PacketStream:
    """A delivery given as its packets, whose :meth:`rotations` streams
    each as a rotation of its own, as
    :meth:`ringcache.delivery.Delivery.rotations` streams whole ones."""

    def __init__(self, packets):
        self.packets = list(packets)

    def rotations(self):
        return (as_rotation(0, [packet]) for packet in self.packets)


def _windows(params):
    return window_set(params.k, params.span)


def classify(params, u: int, s: int, t: int):
    """Case tag for the anchor (u, S, T), plus the SC2 shift."""
    return _classify(_windows(params), u, s, t, _relabel(u, s, t))


def build_general(params, demand, u: int, s: int, t: int) -> Transmission:
    """Anchor plus every image whose S is a window."""
    return _transmission(GENERAL, _general(_windows(params), _relabel(u, s, t)), demand)


def build_sc1(params, demand, u: int, s: int, t: int) -> Transmission:
    return _transmission(SC1, _swap_group(u, s, t), demand)


def build_sc2(params, demand, u: int, s: int, t: int, j: int) -> Transmission:
    """SC1-style group on S, then the image under shift j and its group on
    {u} | T."""
    images = _relabel(u, s, t)
    keys = _swap_group(u, s, t) + _swap_group(*images[j % len(images)])
    return _transmission(SC2, keys, demand)


def build_transmission(params, demand, u: int, s: int, t: int) -> Transmission:
    return _transmission(*ring_xor_reference(_windows(params), u, s, t), demand)


def build_subset_xor(params, demand, u: int, s: int, t: int) -> Transmission:
    return _transmission(*split_keys(params.k, _subset_xor(params.k, u, s, t)), demand)


def materialize(layout, demand) -> DeliveryResult:
    """The streamed delivery of :func:`deliver`, each packet's terms labelled
    with their users' files in ``demand``."""
    demand = check_demand(layout.params, demand)
    places = Places(layout)
    return DeliveryResult(
        layout.params,
        layout.f,
        tuple(_transmission(case, places.keys(terms), demand) for case, terms in deliver(layout)),
        layout,
    )


def deliver_greedy_reference(layout, demand) -> DeliveryResult:
    """Delivery as one greedy loop: users ascending, each user's demand
    pairs in order, a transmission built through every pair no earlier
    transmission holds."""
    params = layout.params
    demand = check_demand(params, demand)
    build = build_subset_xor if layout.placement == SUBSET else build_transmission
    remaining = [dict.fromkeys(demand_pairs(layout, u)) for u in range(1, params.k + 1)]
    out = []
    for u in range(1, params.k + 1):
        mine = remaining[u - 1]
        for pair in list(mine):
            if pair not in mine:
                continue
            tx = build(params, demand, u, pair[0], pair[1])
            for term in tx.terms:
                remaining[term.user - 1].pop((term.s, term.t), None)
            out.append(tx)
    leftovers = sum(len(d) for d in remaining)
    if leftovers:
        raise AssertionError(f"{leftovers} demand pairs were never covered")
    return DeliveryResult(params, layout.f, tuple(out), layout)


class DecodeCheckReference(DecodeCheck):
    """:class:`DecodeCheck` with the rule spelled out term by term: a term
    peels when its user reads every other term of the packet."""

    def add(self, terms) -> None:
        unread = self.unread
        # before & after[i + 1]: the users reading every term but the i-th
        after = [-1] * (len(terms) + 1)
        for i in range(len(terms) - 1, 0, -1):
            after[i] = after[i + 1] & ~unread[terms[i][1]]
        before = -1
        for i, (v, p) in enumerate(terms):
            if (before & after[i + 1]) >> (v - 1) & 1:
                self.peeled[p] |= bit(v)
            else:
                self.blocked[p] |= bit(v)
            before &= ~unread[p]


class DecodeCheckSets:
    """The decode check as it was before it filed keys by (S, T): one set of
    whole (user, S, T) keys per verdict, and a report that walks every
    user's demand set."""

    def __init__(self) -> None:
        self.peeled: set = set()
        self.blocked: set = set()

    def add(self, keys) -> None:
        once = twice = 0
        for _, s, t in keys:
            unread = ~(s | t)
            twice |= once & unread
            once |= unread
        for key in keys:
            if twice >> (key[0] - 1) & 1:
                self.blocked.add(key)
            else:
                self.peeled.add(key)

    def report(self, layout) -> DecodabilityReport:
        failures = []
        checked = 0
        for u in range(1, layout.params.k + 1):
            pairs = demand_pairs_reference(layout.params, shared_sets(layout), u)
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


def drop_transmission(result: DeliveryResult, index: int) -> DeliveryResult:
    """Result with one transmission removed (for coverage experiments)."""
    kept = result.transmissions[:index] + result.transmissions[index + 1 :]
    return replace(result, transmissions=kept)


def census_reference(params) -> SubsetCensus:
    """The exhaustive census: every (1 + span + gamma_p)-subset of [K] tested
    against every window, with a record per transmission-subset."""
    k = params.k
    size = 1 + params.span + params.gp
    if size > k:
        raise ValueError(f"union sets of size {size} do not fit in [1, {k}]")
    wins = sorted(window_set(k, params.span))
    records = []
    for combo in itertools.combinations(range(1, k + 1), size):
        union = 0
        for i in combo:
            union |= bit(i)
        inside = tuple(w for w in wins if w & union == w)
        if not inside:
            continue
        records.append(SubsetRecord(union, inside, classify_subset(inside)))
    sc1 = sum(1 for r in records if r.case == SC1)
    sc2 = sum(1 for r in records if r.case == SC2)
    total = len(records)
    x = (1 + params.gp) * (total - sc1 - sc2) + sc1 + sc2
    return SubsetCensus(tuple(records), total, sc1, sc2, x)


def counts_reference(k: int, w: int, gp: int) -> TransmissionCounts:
    """The per-case counts at span w with the tail as the sum of w - 1
    binomials that the library's two-binomial form replaced."""
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


def closed_form_reference(k: int, w: int, gp: int) -> tuple[int, int]:
    """The closed form's unreduced numerator and denominator at span w with
    the tail as the sum over m = w - i that the library's two-binomial form
    replaced."""
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


def cutset_terms(params) -> list[Fraction]:
    """The cut-set term s - (p*ma + s*mp) / floor(N/s) for s = 1..K, with
    p = min(s+L-1, K), in Fraction arithmetic."""
    terms = []
    for s in range(1, params.k + 1):
        p = min(s + params.l - 1, params.k)
        terms.append(s - (p * params.ma + s * params.mp) / (params.n // s))
    return terms


def large_memory(params) -> bool:
    """The paper's large-memory condition ma*L + mp >= N*(1 - 1/K), in
    Fractions: where its theorem says the scheme meets the cut-set bound."""
    return params.ma * params.l + params.mp >= params.n * (1 - Fraction(1, params.k))


def cutset_bound_fraction_reference(params) -> Fraction:
    """The cut-set bound as the Fraction loop the library's integer
    evaluation replaced: the largest term, floored at 0."""
    best = Fraction(0)
    for val in cutset_terms(params):
        if val > best:
            best = val
    return best


def cutset_bound_reference(params) -> Fraction:
    """The cut-set bound as the integer loop with one ``min`` per s that the
    library's split loop replaced: each term a pair (s*q*D - (p*A + s*B), q*D)
    over D = den(ma) * den(mp), the largest kept by cross-multiplication."""
    k, l, n = params.k, params.l, params.n
    ma, mp = params.ma, params.mp
    d = ma.denominator * mp.denominator
    a, b = ma.numerator * mp.denominator, mp.numerator * ma.denominator
    best_num, best_den = 0, 1
    for s in range(1, k + 1):
        p = min(s + l - 1, k)
        q = n // s
        num = s * q * d - (p * a + s * b)
        den = q * d
        if num * best_den > best_num * den:
            best_num, best_den = num, den
    return Fraction(best_num, best_den)


def memory_share_reference(params) -> MemoryShare:
    """Memory sharing as the Fraction loop the library's integer kernel
    replaced: each axis's floor corner weighs ceil(gamma) - gamma and its
    ceil corner 1 minus that, the first rejected corner (floor then ceil,
    gamma_a outer) is named when the point mixes corners, and the rate is
    the weighted sum."""
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
            corner = params_from_gammas(params.k, params.l, ga_c, gp_c, params.n)
            try:
                rate = achievable_rate(corner)
            except RegimeError as exc:
                if len(axes_a) * len(axes_p) == 1:
                    raise
                raise RegimeError(
                    f"memory-sharing corner (gamma_a={ga_c}, gamma_p={gp_c}) is"
                    f" unsupported: {exc}"
                ) from exc
            points.append(SharePoint(ga_c, gp_c, wa * wp, rate))
    total = sum((pt.weight * pt.rate for pt in points), start=Fraction(0))
    return MemoryShare(tuple(points), total)


def dec6_reference(x: Fraction) -> str:
    """Six-place rendering through round(Fraction), which rounds half to
    even: the form the CLI's integer dec6 replaced."""
    scaled = round(x * 10**6)
    sign = "-" if scaled < 0 else ""
    scaled = abs(scaled)
    return f"{sign}{scaled // 10**6}.{scaled % 10**6:06d}"


def sweep_row_reference(k, l, n, ma: Fraction, mp: Fraction):
    """The 15 field values of the sweep's row at (ma, mp), in CSV_HEADER
    order, as the per-row path the column kernel replaced: a SystemParams
    per row, the rate of the integral corner or of the Fraction memory
    sharing, the Fraction cut-set bound, the optimal flag as rate == bound
    and six places through round(). Fields a row cannot fill are empty and
    ``note`` holds the reason."""
    base = (str(k), str(l), str(n), str(ma), str(mp))
    try:
        params = SystemParams(k=k, l=l, ma=ma, mp=mp, n=n)
    except InvalidParameters as exc:
        return base + ("",) * 9 + (str(exc),)
    gammas = (str(params.gamma_a), str(params.gamma_p))
    try:
        if params.integral:
            rate = achievable_rate(params)
        else:
            rate = memory_share_reference(params).rate
    except RegimeError as exc:
        return base + gammas + ("",) * 7 + (str(exc),)
    b = cutset_bound_fraction_reference(params)
    cells = (str(rate.numerator), str(rate.denominator), dec6_reference(rate))
    cells += (str(b.numerator), str(b.denominator), dec6_reference(b))
    flag = "true" if rate == b else "false"
    return base + gammas + cells + (flag, "")


def sweep_reference(k, l, n, ma_list, start, step, points, fmt="csv"):
    """The whole sweep's text as the per-row path rendered it: every row
    built first, then one CSV text or ``json.dumps(rows, indent=2)`` of a
    dict per row."""
    mps = [start + i * step for i in range(points)]
    rows = [sweep_row_reference(k, l, n, ma, mp) for ma in ma_list for mp in mps]
    if fmt == "json":
        keys = CSV_HEADER.split(",")
        return json.dumps([dict(zip(keys, row)) for row in rows], indent=2) + "\n"
    lines = [",".join(row[:-1] + ((f'"{row[-1]}"' if row[-1] else ""),)) for row in rows]
    return "\n".join([CSV_HEADER] + lines) + "\n"


def whole_parse(argv: list[str]):
    """``argv`` parsed by the whole ``ringcache`` parser, which hands a
    command's arguments to the command's own parser after classifying every
    one of them itself; raises SystemExit where argparse exits."""
    return build_parser().parse_args(argv)
