"""Independent brute-force oracles.

The census enumerates every (1 + span + gamma_p)-subset of [K], keeps the
ones containing at least one window (the transmission-subsets) and
classifies them by the same rule the delivery algorithm applies to its
union sets. Totals are compared three ways: census, closed-form counts,
and an actual delivery run. Disagreements report the first offending
subset rather than raising.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .model import GuardExceeded, SystemParams, binom, bit, bits, params_from_gammas, window_set
from .placement import build_layout
from .delivery import GENERAL, SC1, SC2, deliver
from .analysis import TransmissionCounts, table1_counts

ENUMERATION_GUARD = 20


@dataclass(frozen=True)
class SubsetRecord:
    union: int
    windows: tuple[int, ...]
    case: str

    def describe(self) -> str:
        wins = "; ".join(str(bits(w)) for w in self.windows)
        return f"I={bits(self.union)} windows[{wins}] case={self.case}"


@dataclass(frozen=True)
class SubsetCensus:
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


def check_enumeration_guard(k: int) -> None:
    """Refuse the census above :data:`ENUMERATION_GUARD` users."""
    if k > ENUMERATION_GUARD:
        raise GuardExceeded(f"refusing exhaustive enumeration for K={k} > {ENUMERATION_GUARD}")


def enumerate_transmission_subsets(params: SystemParams) -> SubsetCensus:
    """Exhaustive census over all C(K, 1 + span + gamma_p) candidate subsets."""
    k = params.k
    check_enumeration_guard(k)
    span = params.span
    gp = params.gp
    size = 1 + span + gp
    if size > k:
        raise GuardExceeded(f"union sets of size {size} do not fit in [1, {k}]")
    wins = sorted(window_set(k, span))
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
    x = (1 + gp) * (total - sc1 - sc2) + sc1 + sc2
    return SubsetCensus(tuple(records), total, sc1, sc2, x)


@dataclass(frozen=True)
class AgreementReport:
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
    """Compare closed-form counts, exhaustive census and a delivery run.

    Also checks, subset by subset, that delivery produced (1 + gamma_p)
    transmissions per GENERAL subset and one per SC1/SC2 subset; the first
    divergent subset is spelled out in the report.
    """
    table = table1_counts(params)
    census = enumerate_transmission_subsets(params)
    layout = build_layout(params)
    gp = params.gp

    # each packet's union set is its anchor's {u} | S | T
    per_union: dict[int, list[str]] = {}
    total = 0
    for case, keys in deliver(layout):
        u, s, t = keys[0]
        per_union.setdefault(bit(u) | s | t, []).append(case)
        total += 1

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
    if divergence is None and census.transmissions != table.transmissions:
        divergence = (
            f"census X={census.transmissions} != formula X={table.transmissions}"
        )
    if divergence is None and total != table.transmissions:
        divergence = f"delivery made {total} transmissions, formulas say {table.transmissions}"
    if divergence is None:
        for rec in census.records:
            made = per_union.get(rec.union, [])
            want = 1 + gp if rec.case == GENERAL else 1
            if len(made) != want or any(c != rec.case for c in made):
                divergence = (
                    f"subset {rec.describe()} got {len(made)} transmissions"
                    f" {made}, expected {want} of case {rec.case}"
                )
                break
        else:
            stray = set(per_union) - {rec.union for rec in census.records}
            if stray:
                divergence = f"delivery used union sets the census never saw: {sorted(stray)}"

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


@dataclass(frozen=True)
class ManReport:
    """Dedicated-cache cross-check: with no shared layer the scheme must
    reproduce subpacketization C(K, t) and rate C(K, t+1)/C(K, t)."""

    k: int
    t: int
    f: int
    expected_f: int
    rate: Fraction
    expected_rate: Fraction
    passed: bool


def man_crosscheck(k: int, t: int, n: int) -> ManReport:
    params = params_from_gammas(k, 1, 0, t, n)
    layout = build_layout(params)
    rate = Fraction(sum(1 for _ in deliver(layout)), layout.f)
    expected_f = binom(k, t)
    expected_rate = Fraction(binom(k, t + 1), binom(k, t))
    passed = layout.f == expected_f and rate == expected_rate
    return ManReport(k, t, layout.f, expected_f, rate, expected_rate, passed)


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
