"""Independent oracles: a census of the transmission-subsets, and the
three-way agreement harness.

A transmission-subset is a (1 + span + gamma_p)-subset of [K] containing
at least one window, classified by the same rule the delivery algorithm
applies to its union sets. Turning the ring by one user maps windows onto
windows, so the subsets fall into rotation classes whose members hold the
same number of windows and share a case, and every class meets the slice
of subsets that contain W_K, the window ending at K. The census enumerates
only that slice, the C(K - span, gamma_p + 1) unions of W_K with
gamma_p + 1 other users, and counts the whole ring by double counting:
with nw windows on the ring, a class whose members hold w windows each has
nw / w members per slice member.

Totals are compared three ways: census, closed-form counts, and an actual
delivery run, whose every packet's union is turned onto the slice and
checked against its class. Disagreements report the first offending
subset rather than raising. An instance, a census or a dedicated-cache
cross-check over a size budget is refused before anything is built, by
:func:`ringcache.placement.build`, which gives an instance the ring
placement, the one the census counts, at every L.
"""

from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction
from typing import NamedTuple

from .model import (
    RegimeError,
    SystemParams,
    binom,
    mask_of,
    mask_str,
    params_from_gammas,
    window_masks,
)
from .placement import build, preflight
from .delivery import GENERAL, SC1, SC2, deliver
from .analysis import TransmissionCounts, table1_counts


class SubsetRecord(NamedTuple):
    union: int
    windows: tuple[int, ...]
    case: str

    def describe(self) -> str:
        wins = "; ".join(mask_str(w) for w in self.windows)
        return f"I={mask_str(self.union)} windows[{wins}] case={self.case}"


class SubsetCensus(NamedTuple):
    """``records`` holds the slice, the transmission-subsets that contain
    the window ending at K; the counts are over the whole ring."""

    records: tuple[SubsetRecord, ...]
    subsets: int
    sc1: int
    sc2: int
    transmissions: int

    @property
    def general(self) -> int:
        return self.subsets - self.sc1 - self.sc2


def classify_subset(windows: tuple[int, ...]) -> str:
    """Case of a transmission-subset from the windows it contains: one
    window -> SC1, exactly two disjoint -> SC2, anything else -> GENERAL."""
    if len(windows) == 1:
        return SC1
    if len(windows) == 2 and windows[0] & windows[1] == 0:
        return SC2
    return GENERAL


def enumerate_transmission_subsets(params: SystemParams) -> SubsetCensus:
    """Census through the C(K - span, gamma_p + 1) subsets that contain the
    window ending at K, in lexicographic order, counted over the ring."""
    k, span, gp = params.k, params.span, params.gp
    size = 1 + span + gp
    if size > k:
        raise RegimeError(f"union sets of size {size} do not fit in [1, {k}]")
    preflight("census", params)
    wins = sorted(window_masks(k, span))
    last = window_masks(k, span)[-1]  # W_K: its users come after every other
    records = []
    tally: Counter[tuple[str, int]] = Counter()
    for combo in itertools.combinations(range(1, k - span + 1), gp + 1):
        union = last | mask_of(combo)
        inside = tuple(w for w in wins if w & union == w)
        case = classify_subset(inside)
        records.append(SubsetRecord(union, inside, case))
        tally[case, len(inside)] += 1
    # exact: each class with w windows per member adds nw * (its slice members) / w
    counts = dict.fromkeys((GENERAL, SC1, SC2), 0)
    for (case, w), n in tally.items():
        counts[case] += len(wins) * n // w
    total, sc1, sc2 = sum(counts.values()), counts[SC1], counts[SC2]
    x = (1 + gp) * counts[GENERAL] + sc1 + sc2
    return SubsetCensus(tuple(records), total, sc1, sc2, x)


class AgreementReport(NamedTuple):
    """Three-way comparison of the counting: formulas, census, delivery."""

    params: SystemParams
    table: TransmissionCounts
    census: SubsetCensus
    rate: Fraction
    passed: bool
    divergence: str | None

    def to_json(self) -> dict:
        p = self.params
        return {
            "K": p.k,
            "L": p.l,
            "gamma_a": p.ga,
            "gamma_p": p.gp,
            "subsets": self.table.subsets,
            "sc1": self.table.sc1,
            "sc2": self.table.sc2,
            "transmissions": self.table.transmissions,
            "F": self.table.f,
            "rate": f"{self.rate.numerator}/{self.rate.denominator}",
            "passed": self.passed,
            "divergence": self.divergence,
        }


def count_vs_formula(params: SystemParams) -> AgreementReport:
    """Compare closed-form counts, the census and a delivery run.

    Also checks, union by union, that delivery produced (1 + gamma_p)
    transmissions per GENERAL subset and one per SC1/SC2 subset, of that
    subset's case and over every transmission-subset: each packet's union
    {u} | S | T is turned so that the end of its anchor's window S lands on
    K and looked up in the census slice. The first divergent union is
    spelled out in the report.
    """
    layout = build("verify", params)
    table = table1_counts(params)
    census = enumerate_transmission_subsets(params)
    k, gp, full = params.k, params.gp, (1 << params.k) - 1
    windows = window_masks(k, params.span)
    end_of = {w: e for e, w in enumerate(windows, 1)}  # each window by its last member
    slice_case = {rec.union: rec.case for rec in census.records}
    # per union, 1 per GENERAL packet and 1 + gamma_p per SC1/SC2 packet:
    # each transmission-subset must come to exactly 1 + gamma_p
    weight = {GENERAL: 1, SC1: 1 + gp, SC2: 1 + gp}
    tally: dict[int, int] = {}
    stray = None
    total = 0
    s_of, t_of = layout.s_of, layout.t_of
    rotations = deliver(layout).rotations()
    anchors = itertools.chain.from_iterable(rotation.anchors() for rotation in rotations)
    for total, (case, u, p) in enumerate(anchors, 1):
        s, t = s_of[p], t_of[p]
        union = (1 << (u - 1)) | s | t
        end = end_of.get(s)  # None when S is not a window
        # the union turned so that the end of S lands on K
        found = end and slice_case.get(((union << (k - end)) | (union >> end)) & full)
        if found != case and stray is None:
            anchor = (
                f"union I={mask_str(union)} of packet {total}"
                f" (anchor d{u}:{mask_str(s)}:{mask_str(t)})"
            )
            stray = (
                f"{anchor} is in no transmission class" if not found
                else f"{anchor} is sent as {case}, the census says {found}"
            )
        tally[union] = tally.get(union, 0) + weight[case]

    divergence = None
    if (census.subsets, census.sc1, census.sc2) != (table.subsets, table.sc1, table.sc2):
        divergence = (
            f"census (C={census.subsets}, SC1={census.sc1}, SC2={census.sc2})"
            f" != formulas (C={table.subsets}, SC1={table.sc1}, SC2={table.sc2});"
            f" first subset: {census.records[0].describe() if census.records else 'none'}"
        )
        mismatched = _first_mismatched_record(census, table)
        if mismatched is not None:
            divergence += f"; first {mismatched.case} subset: {mismatched.describe()}"
    elif total != table.transmissions:
        divergence = f"delivery made {total} transmissions, formulas say {table.transmissions}"
    elif stray is not None:
        divergence = stray
    else:
        for union, got in tally.items():
            if got != 1 + gp:
                # every packet of the union had the census's case
                case = classify_subset(tuple(w for w in windows if w & union == w))
                want = 1 + gp if case == GENERAL else 1
                divergence = (
                    f"subset I={mask_str(union)} got {got // weight[case]} transmissions,"
                    f" expected {want} of case {case}"
                )
                break
        else:
            if len(tally) != census.subsets:
                divergence = (
                    f"delivery used {len(tally)} union sets, the census counts {census.subsets}"
                )

    rate = Fraction(total, layout.f)
    return AgreementReport(params, table, census, rate, divergence is None, divergence)


def _first_mismatched_record(census: SubsetCensus, table: TransmissionCounts) -> SubsetRecord | None:
    by_case = {
        SC1: (census.sc1, table.sc1),
        SC2: (census.sc2, table.sc2),
        GENERAL: (census.general, table.general),
    }
    for case, (got, want) in by_case.items():
        if got != want:
            for rec in census.records:
                if rec.case == case:
                    return rec
    return None


class ManReport(NamedTuple):
    """Dedicated-cache cross-check: with no shared layer the scheme must
    reproduce subpacketization C(K, t) and rate C(K, t+1)/C(K, t)."""

    k: int
    t: int
    f: int
    expected_f: int
    rate: Fraction
    expected_rate: Fraction
    passed: bool


def man_crosscheck(k: int, t: int) -> ManReport:
    """The reduction at N = K: neither F nor the rate involves N. The size
    rule (:func:`ringcache.placement.preflight`) is checked before anything
    is built; a representative with highest user h goes out K - h + 1 times."""
    params = params_from_gammas(k, 1, 0, t, k)
    layout = build("man-check", params)
    f = binom(k, t)
    rate = Fraction(sum(k + 1 - h for h in deliver(layout).highs), layout.f)
    expected_rate = Fraction(binom(k, t + 1), f)
    passed = layout.f == f and rate == expected_rate
    return ManReport(k, t, layout.f, f, rate, expected_rate, passed)


def sweep_grid(kmin: int, kmax: int) -> list[SystemParams]:
    """Every integral-parameter instance of the counting regime with N = K,
    K in [kmin, kmax] and L in [1, 3]."""
    grid = []
    for k in range(kmin, kmax + 1):
        for l in range(1, min(3, k) + 1):
            for ga in range(1, k // l + 1):
                span = ga * l
                for gp in range(0, min(span, k - span)):
                    grid.append(params_from_gammas(k, l, ga, gp, k))
    return grid
