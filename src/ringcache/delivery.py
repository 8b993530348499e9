"""XOR broadcast delivery.

For a demand vector the server walks the users' demand sets and emits one
XOR transmission per uncovered (window, T) pair, its anchor (u, S, T).
With I = {u} | S | T in ascending order, I[0] < ... < I[m-1], the shift by
i is the relabelling I[p] -> I[(p + i) mod m]; it maps the anchor to an
image (u_i, S_i, T_i) that again partitions I. A window of the ring lies
inside I exactly when it is the image S_i of the window S under some
shift, so the windows among the S-images decide the construction:

* exactly one window inside I (S itself)            -> SC1
* exactly the two disjoint windows S and {u} | T    -> SC2
  (only possible when gamma_p = span - 1)
* otherwise                                         -> GENERAL

A GENERAL transmission holds the anchor and, by ascending shift, every
image whose S_i is a window; SC1 swaps the user into the private index
set; SC2 does the SC1 swap on the anchor and again on the image that
carries S onto {u} | T.

That is the ring placement. On the subset placement (L = 1, or no shared
layer) every union set Q = {u} | S | T has t + 1 = 1 + gamma_a + gamma_p
users and the XOR is Maddah-Ali--Niesen's: one term per user v of Q, for
the mini-subfile whose S holds the elements of Q - {v} at the positions S
takes in Q - {u}, and whose T holds the rest. Each (t+1)-set Q and each
gamma_a-subset of the positions 1..t give one XOR. Without a shared layer
this is exactly the SC1 swap group, so these XORs carry the SC1 tag.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import partial
from typing import Iterable, NamedTuple, Sequence

from .model import (
    InvalidMiniSubfile,
    InvalidParameters,
    RegimeError,
    SystemParams,
    bit,
    bits,
    mask_str,
    window_set,
)
from .placement import SUBSET, CacheLayout

GENERAL = "GENERAL"
SC1 = "SC1"
SC2 = "SC2"

# (user, S mask, T mask): a transmission's anchor or a term without its file
Anchor = tuple[int, int, int]


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


def _window_set(params: SystemParams) -> frozenset[int]:
    return window_set(params.k, params.span)


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


def classify(params: SystemParams, u: int, s: int, t: int) -> tuple[str, int | None]:
    """Case tag for the anchor (u, S, T), plus the SC2 shift."""
    return _classify(_window_set(params), u, s, t, _relabel(u, s, t))


def _classify(
    windows: frozenset[int], u: int, s: int, t: int, images: list[Anchor]
) -> tuple[str, int | None]:
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
            return SC2, _sc2_shift(images, other)
    return GENERAL, None


def _sc2_shift(images: list[Anchor], other: int) -> int:
    hits = [i for i in range(1, len(images)) if images[i][1] == other]
    if len(hits) != 1:
        raise AssertionError(f"rotation of S onto {{u}} | T is not unique: {hits}")
    return hits[0]


def build_general(
    params: SystemParams, demand: Sequence[int], u: int, s: int, t: int
) -> Transmission:
    """Anchor plus every image whose S is a window."""
    return _general(_window_set(params), demand, u, s, t, _relabel(u, s, t))


def _general(
    windows: frozenset[int],
    demand: Sequence[int],
    u: int,
    s: int,
    t: int,
    images: list[Anchor],
) -> Transmission:
    terms = [Term(u, demand[u - 1], s, t)]
    for v, s_img, t_img in images[1:]:
        if s_img in windows:
            terms.append(Term(v, demand[v - 1], s_img, t_img))
    return Transmission(GENERAL, tuple(terms), (u, s, t))


def _swap_group(demand: Sequence[int], u: int, s: int, t: int) -> list[Term]:
    """Anchor plus, for each v in T, the term with v swapped against u."""
    group = [Term(u, demand[u - 1], s, t)]
    pool = bit(u) | t
    for v in bits(t):
        group.append(Term(v, demand[v - 1], s, pool ^ bit(v)))
    return group


def build_sc1(params: SystemParams, demand: Sequence[int], u: int, s: int, t: int) -> Transmission:
    return Transmission(SC1, tuple(_swap_group(demand, u, s, t)), (u, s, t))


def build_sc2(
    params: SystemParams, demand: Sequence[int], u: int, s: int, t: int, j: int
) -> Transmission:
    """SC1-style group on S, then the image under shift j and its group on
    {u} | T."""
    images = _relabel(u, s, t)
    return _sc2(demand, u, s, t, images[j % len(images)])


def _sc2(demand: Sequence[int], u: int, s: int, t: int, image: Anchor) -> Transmission:
    terms = _swap_group(demand, u, s, t)
    terms.extend(_swap_group(demand, *image))
    return Transmission(SC2, tuple(terms), (u, s, t))


def build_transmission(
    params: SystemParams, demand: Sequence[int], u: int, s: int, t: int
) -> Transmission:
    return _ring_xor(_window_set(params), demand, u, s, t)


def _ring_xor(
    windows: frozenset[int], demand: Sequence[int], u: int, s: int, t: int
) -> Transmission:
    """Classify the anchor and build its transmission from one relabelling."""
    images = _relabel(u, s, t)
    case, j = _classify(windows, u, s, t, images)
    if case == SC1:
        return Transmission(SC1, tuple(_swap_group(demand, u, s, t)), (u, s, t))
    if case == SC2:
        assert j is not None
        return _sc2(demand, u, s, t, images[j])
    return _general(windows, demand, u, s, t, images)


def build_subset_xor(
    params: SystemParams, demand: Sequence[int], u: int, s: int, t: int
) -> Transmission:
    """Subset-placement XOR through the anchor (u, S, T): for each other v
    in Q = {u} | S | T, S_v holds the elements of Q - {v} at the positions S
    takes in Q - {u}, and T_v the rest of Q - {v}."""
    own = bit(u)
    union = own | s | t
    lifted = [1 << (x - 1) for x in bits(union)]
    positions = [p for p, b in enumerate(x for x in lifted if x != own) if s & b]
    terms = [Term(u, demand[u - 1], s, t)]
    for vb in lifted:
        if vb == own:
            continue
        rest = [x for x in lifted if x != vb]
        s_v = 0
        for p in positions:
            s_v |= rest[p]
        v = vb.bit_length()
        terms.append(Term(v, demand[v - 1], s_v, union ^ vb ^ s_v))
    return Transmission(SC1, tuple(terms), (u, s, t))


class UncharacterizedRegime(RegimeError):
    """Delivery was asked for outside the regime it is characterized for;
    ``reason`` says why, without the hint on how to override it."""

    def __init__(self, reason: str) -> None:
        super().__init__(f"{reason}; pass unchecked=True to run it anyway")
        self.reason = reason


def _check_regime(params: SystemParams, unchecked: bool) -> None:
    span = params.span
    gp = params.gp
    k = params.k
    if span == 0 or gp < span or span + gp >= k - 1:
        return
    if not unchecked:
        raise UncharacterizedRegime(
            f"delivery is uncharacterized for gamma_p={gp} >= span={span} below the"
            " large-memory regime"
        )


def deliver(
    layout: CacheLayout, demand: Sequence[int], *, unchecked: bool = False
) -> DeliveryResult:
    """Run the full delivery loop for the layout's placement; every demand
    pair lands in exactly one transmission. Deterministic: users ascending,
    demand pairs in canonical order, image terms by ascending shift."""
    params = layout.params
    demand = check_demand(params, demand)
    _check_regime(params, unchecked)
    if layout.placement == SUBSET:
        build = partial(build_subset_xor, params, demand)
    else:
        build = partial(_ring_xor, _window_set(params), demand)
    remaining: list[dict[tuple[int, int], None]] = [
        dict.fromkeys(layout.demand_pairs(u)) for u in range(1, params.k + 1)
    ]
    out: list[Transmission] = []
    for u in range(1, params.k + 1):
        mine = remaining[u - 1]
        for pair in list(mine):
            if pair not in mine:
                continue
            tx = build(u, pair[0], pair[1])
            for term in tx.terms:
                remaining[term.user - 1].pop((term.s, term.t), None)
            out.append(tx)
    leftovers = sum(len(d) for d in remaining)
    if leftovers:
        raise AssertionError(f"{leftovers} demand pairs were never covered")
    return DeliveryResult(params, layout.f, tuple(out))


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


def verify_decodability(
    layout: CacheLayout, demand: Sequence[int], transmissions: Iterable[Transmission]
) -> DecodabilityReport:
    """Check that every user can peel every demanded mini-subfile out of some
    transmission: all other terms in it must be readable by that user.
    Returns the violation list instead of raising."""
    params = layout.params
    demand = check_demand(params, demand)
    carried: set[Anchor] = set()
    peeled: set[Anchor] = set()
    for tx in transmissions:
        keys = [(v, s, t) for v, _, s, t in tx.terms]
        carried.update(keys)
        peeled.update(_peelable(keys))

    failures: list[Failure] = []
    checked = 0
    for u in range(1, params.k + 1):
        for s, t in layout.demand_pairs(u):
            checked += 1
            key = (u, s, t)
            if key in peeled:
                continue
            if key in carried:
                failures.append(Failure(u, s, t, "all carriers blocked by unreadable terms"))
            else:
                failures.append(Failure(u, s, t, "never transmitted"))
    return DecodabilityReport(not failures, checked, tuple(failures))


def _peelable(keys: list[Anchor]) -> list[Anchor]:
    """The (user, S, T) terms of one XOR whose user reads every other term,
    through a shared cache (user in S) or its private cache (user in T)."""
    reach = [s | t for _, s, t in keys]
    out = []
    for key in keys:
        own = 1 << (key[0] - 1)
        for other, r in zip(keys, reach):
            if not r & own and other != key:
                break
        else:
            out.append(key)
    return out


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def format_transmission(tx: Transmission) -> str:
    """One log line: ``CASE d<u>:S:T ^ d<u'>:S':T' ...``."""
    body = " ^ ".join(f"d{t.user}:{mask_str(t.s)}:{mask_str(t.t)}" for t in tx.terms)
    return f"{tx.case} {body}"


def format_log(result: DeliveryResult) -> str:
    lines = [format_transmission(tx) for tx in result.transmissions]
    rate = result.rate
    lines.append(
        f"# total={result.total} general={result.count(GENERAL)}"
        f" sc1={result.count(SC1)} sc2={result.count(SC2)}"
    )
    lines.append(f"# F={result.f} rate={rate.numerator}/{rate.denominator}")
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


def drop_transmission(result: DeliveryResult, index: int) -> DeliveryResult:
    """Result with one transmission removed (for coverage experiments)."""
    kept = result.transmissions[:index] + result.transmissions[index + 1 :]
    return replace(result, transmissions=kept)
