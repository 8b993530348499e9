"""The census oracle, against its exhaustive reference, and the three-way
agreement harness."""

import ast
import itertools
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest

import ringcache.placement
import ringcache.verify
from ringcache.model import (
    GuardExceeded,
    RegimeError,
    SystemParams,
    binom,
    bit,
    mask_of,
    mask_str,
    params_from_gammas,
    window_masks,
)
from ringcache.placement import RING, build, build_layout, demand_pairs, preflight
from ringcache.delivery import GENERAL, SC1, SC2, deliver, worst_case_demand
from ringcache.analysis import table1_counts
from ringcache.verify import (
    count_vs_formula,
    enumerate_transmission_subsets,
    man_crosscheck,
    sweep_grid,
)

from helpers import PacketStream, census_reference, classify, materialize


def test_census_worked_instances():
    census = enumerate_transmission_subsets(SystemParams(k=7, l=2, ma=1, mp=1, n=7))
    assert (census.subsets, census.sc1, census.sc2) == (35, 7, 7)
    assert census.transmissions == 56
    census = enumerate_transmission_subsets(SystemParams(k=5, l=2, ma=1, mp=1, n=5))
    assert (census.subsets, census.sc1, census.sc2) == (5, 0, 0)
    assert census.transmissions == 10


def test_census_no_sc2_off_boundary():
    for k, l, ga, gp in [(9, 2, 1, 0), (9, 2, 2, 1), (12, 3, 1, 1)]:
        params = params_from_gammas(k, l, ga, gp, k)
        assert gp != params.span - 1
        assert enumerate_transmission_subsets(params).sc2 == 0


def test_census_guard():
    for k, l, ga, gp, size in (
        # the census enumerates its slice, C(K - span, gamma_p + 1) subsets
        (64, 2, 10, 19, f"{binom(44, 20)} subsets, over the budget of 4000000"),
        # a slice of C(18, 8) = 43,758 subsets, at most F
        (26, 1, 8, 7, "F=827424 mini-subfiles per file, over the budget of 750000"),
    ):
        with pytest.raises(GuardExceeded) as refused:
            enumerate_transmission_subsets(params_from_gammas(k, l, ga, gp, k))
        assert str(refused.value) == (
            f"refusing census at K={k} L={l} gamma_a={ga} gamma_p={gp}: {size}"
        )


def test_census_refuses_unions_larger_than_the_ring_by_regime():
    # a regime refusal, not a size one: nothing is over a budget
    with pytest.raises(RegimeError) as refused:
        enumerate_transmission_subsets(params_from_gammas(4, 2, 2, 0, 4))
    assert not isinstance(refused.value, GuardExceeded)
    assert str(refused.value) == "union sets of size 5 do not fit in [1, 4]"


def test_agreement_refuses_work_over_the_budget(monkeypatch):
    # the closed-form transmission count is what a delivery run streams;
    # an instance over a budget is refused before its census or layout is built
    def nothing_built(params):
        raise AssertionError("built something before refusing")

    monkeypatch.setattr(ringcache.placement, "build_layout", nothing_built)
    monkeypatch.setattr(ringcache.placement, "build_subset_layout", nothing_built)
    monkeypatch.setattr(ringcache.verify, "enumerate_transmission_subsets", nothing_built)
    for k, l, ga, gp, size in (
        (34, 2, 3, 4, "4778020 packets, over the budget of 4000000"),
        (26, 1, 8, 7, "F=827424 mini-subfiles per file, over the budget of 750000"),
    ):
        with pytest.raises(GuardExceeded) as refused:
            count_vs_formula(params_from_gammas(k, l, ga, gp, k))
        assert str(refused.value) == f"refusing verify at K={k} L={l} gamma_a={ga} gamma_p={gp}: {size}"
    # X = 3,689,742 at F = 737,352: under both budgets
    assert preflight("verify", params_from_gammas(28, 2, 3, 5, 28)) == RING


def _census_instances():
    """Every grid instance with K <= 14, three seeded ones of each K = 15..18,
    and instances outside the counting regime: no shared layer, and
    gamma_p >= span."""
    rng = random.Random(18)
    grid = sweep_grid(4, 14)
    for k in range(15, 19):
        grid += rng.sample(sweep_grid(k, k), 3)
    grid += [
        params_from_gammas(k, l, ga, gp, k)
        for k, l, ga, gp in [(6, 1, 0, 2), (9, 2, 0, 3), (8, 1, 2, 3), (10, 2, 1, 4), (12, 3, 1, 5)]
    ]
    return grid


def test_slice_census_matches_the_exhaustive_reference():
    for params in _census_instances():
        census = enumerate_transmission_subsets(params)
        reference = census_reference(params)
        key = (params.k, params.l, params.ga, params.gp)
        assert (census.subsets, census.sc1, census.sc2, census.transmissions) == (
            reference.subsets, reference.sc1, reference.sc2, reference.transmissions
        ), key
        last = window_masks(params.k, params.span)[-1]
        assert census.records == tuple(
            rec for rec in reference.records if rec.union & last == last
        ), key


def test_census_matches_anchor_classification():
    # every anchor mapping into a subset gets the census's case for it
    for k, l, ga, gp in [(7, 2, 1, 1), (8, 2, 1, 1), (9, 1, 2, 1), (10, 2, 2, 1)]:
        params = params_from_gammas(k, l, ga, gp, k)
        census = census_reference(params)
        by_union = {rec.union: rec for rec in census.records}
        layout = build_layout(params)
        for u in range(1, k + 1):
            for s, t in demand_pairs(layout, u):
                union = (1 << (u - 1)) | s | t
                case, _ = classify(params, u, s, t)
                assert case == by_union[union].case


def test_mini_subfile_accounting():
    # windows-in-subset counts add up to the total demanded mini-subfiles
    for k, l, ga, gp in [(7, 2, 1, 1), (9, 3, 1, 2), (10, 2, 2, 1)]:
        params = params_from_gammas(k, l, ga, gp, k)
        census = census_reference(params)
        span = params.span
        total = sum(len(rec.windows) for rec in census.records) * (1 + gp)
        assert total == k * (k - span) * binom(k - span - 1, gp)


def test_agreement_worked_instances():
    rep = count_vs_formula(SystemParams(k=7, l=2, ma=1, mp=1, n=7))
    assert rep.passed, rep.divergence
    assert (rep.table.subsets, rep.table.sc1, rep.table.sc2, rep.table.transmissions) == (
        35,
        7,
        7,
        56,
    )
    rep = count_vs_formula(SystemParams(k=5, l=2, ma=1, mp=1, n=5))
    assert rep.passed, rep.divergence
    assert rep.table.transmissions == 10
    assert rep.rate == Fraction(2, 3)


def test_agreement_sweep_small():
    for params in sweep_grid(4, 9):
        rep = count_vs_formula(params)
        assert rep.passed, (params, rep.divergence)


def test_agreement_json_shape():
    rep = count_vs_formula(SystemParams(k=7, l=2, ma=1, mp=1, n=7))
    js = rep.to_json()
    assert js["passed"] is True
    assert js["rate"] == "8/5"
    assert js["divergence"] is None


def test_per_subset_multiplicity():
    # GENERAL subsets carry 1 + gamma_p transmissions, special ones a single
    for k, l, ga, gp in [(7, 2, 1, 1), (9, 2, 2, 2), (8, 1, 3, 1)]:
        params = params_from_gammas(k, l, ga, gp, k)
        census = census_reference(params)
        layout = build_layout(params)
        result = materialize(layout, worst_case_demand(k))
        per_union: dict[int, list[str]] = {}
        for tx in result.transmissions:
            per_union.setdefault(tx.union, []).append(tx.case)
        for rec in census.records:
            got = per_union[rec.union]
            assert all(c == rec.case for c in got)
            assert len(got) == (1 + gp if rec.case == GENERAL else 1)
        assert len(per_union) == census.subsets


def test_man_crosscheck_examples():
    rep = man_crosscheck(4, 2)
    assert rep.passed and rep.rate == Fraction(2, 3) and rep.f == 6
    rep = man_crosscheck(5, 0)
    assert rep.passed and rep.rate == 5 and rep.f == 1
    rep = man_crosscheck(5, 5)
    assert rep.passed and rep.rate == 0
    rep = man_crosscheck(6, 3)
    assert rep.passed and rep.f == 20


def test_man_crosscheck_counts_the_packets_the_rotations_stream():
    # sum(K - h + 1) over the representatives' highest users h is the count
    # of packets the rotations send, on every dedicated instance with K <= 12
    for k in range(1, 13):
        for t in range(k + 1):
            layout = build("man-check", params_from_gammas(k, 1, 0, t, k))
            streamed = sum(len(rotation.order) for rotation in deliver(layout).rotations())
            rep = man_crosscheck(k, t)
            assert rep.rate * rep.f == streamed, (k, t)


def test_sweep_grid_contents():
    grid = sweep_grid(4, 6)
    keys = {(p.k, p.l, p.ga, p.gp) for p in grid}
    assert (4, 2, 1, 1) in keys  # span 2, boundary replication
    assert (5, 1, 4, 0) in keys  # widest window
    assert all(p.gp < p.span and 1 + p.span + p.gp <= p.k for p in grid)
    assert all(p.n == p.k for p in grid)


def test_sweep_grid_is_what_the_counting_formulas_accept():
    accepted = []
    for k in range(1, 17):
        for l, ga, gp in itertools.product(range(1, 4), range(k + 1), range(k + 1)):
            try:
                table1_counts(params_from_gammas(k, l, ga, gp, k))
            except ValueError:  # invalid parameters, or outside the counting regime
                continue
            accepted.append((k, l, ga, gp))
    grid = sweep_grid(1, 16)
    assert [(p.k, p.l, p.ga, p.gp) for p in grid] == accepted
    assert len(accepted) == 676 and all(p.n == p.k for p in grid)


def test_divergence_reporting_names_subset():
    # feed the comparator a cooked census by checking a healthy one first
    params = SystemParams(k=6, l=2, ma=1, mp=1, n=6)
    rep = count_vs_formula(params)
    assert rep.passed
    for rec in rep.census.records:
        assert rec.case in (GENERAL, SC1, SC2)
        assert rec.describe().startswith("I=")
        assert all(w & rec.union == w for w in rec.windows)


def test_subset_records_describe_in_log_notation():
    census = enumerate_transmission_subsets(SystemParams(k=6, l=2, ma=1, mp=1, n=6))
    assert census.records[0].describe() == "I=1,2,5,6 windows[1,2; 1,6; 5,6] case=GENERAL"


def _corrupted(monkeypatch, corrupt):
    """Check K=8 L=2 gamma_a=1 gamma_p=1 with its packets passed through
    ``corrupt`` (a list in, a list out) between delivery and the check."""
    deliver = ringcache.verify.deliver
    monkeypatch.setattr(
        ringcache.verify, "deliver", lambda layout: PacketStream(corrupt(list(deliver(layout))))
    )
    rep = count_vs_formula(SystemParams(k=8, l=2, ma=1, mp=1, n=8))
    assert rep.passed is False
    return rep.divergence


def _union(packet):
    """The union set of a packet of K=8 L=2 gamma_a=1 gamma_p=1."""
    u, p = packet[1][0]
    layout = build_layout(SystemParams(k=8, l=2, ma=1, mp=1, n=8))
    return bit(u) | layout.s_of[p] | layout.t_of[p]


def test_a_union_with_one_packet_too_many_and_another_one_short_fails(monkeypatch):
    # the total still matches: only the per-union count tells
    moved = []

    def corrupt(packets):
        general = [i for i, (case, _) in enumerate(packets) if case == GENERAL]
        a = general[0]
        b = next(i for i in general if _union(packets[i]) != _union(packets[a]))
        moved.extend((_union(packets[a]), _union(packets[b])))
        out = packets[:b] + packets[b + 1:]
        return out[: a + 1] + [packets[a]] + out[a + 1:]

    divergence = _corrupted(monkeypatch, corrupt)
    named = re.fullmatch(
        r"subset I=([\d,]+) got (\d+) transmissions, expected 2 of case GENERAL", divergence
    )
    assert named, divergence
    union, got = mask_of(map(int, named[1].split(","))), int(named[2])
    assert (union, got) in {(moved[0], 3), (moved[1], 1)}


def test_a_relabelled_packet_fails(monkeypatch):
    relabelled = []

    def corrupt(packets):
        i = next(i for i, (case, _) in enumerate(packets) if case == GENERAL)
        relabelled.append((i + 1, _union(packets[i])))
        packets[i] = (SC1, packets[i][1])
        return packets

    divergence = _corrupted(monkeypatch, corrupt)
    n, union = relabelled[0]
    assert re.fullmatch(
        rf"union I={mask_str(union)} of packet {n} \(anchor [^)]*\) is sent as SC1,"
        r" the census says GENERAL",
        divergence,
    ), divergence


def test_a_union_outside_every_class_fails(monkeypatch):
    # the anchor of packet 1, d1:2,3:4, goes to user 2 of its own S: the
    # union {2, 3, 4} is too small for any transmission-subset
    def corrupt(packets):
        case, terms = packets[0]
        packets[0] = (case, [(2, terms[0][1])] + terms[1:])
        return packets

    divergence = _corrupted(monkeypatch, corrupt)
    assert divergence == (
        "union I=2,3,4 of packet 1 (anchor d2:2,3:4) is in no transmission class"
    )


EX8 = SystemParams(k=8, l=2, ma=1, mp=1, n=8)  # C=68 SC1=24 SC2=12 X=100


def _one_more_general_turned_sc1(counts):
    """``counts`` with one GENERAL subset more and 1 + gamma_p = 2 of them
    moved to SC1: C=69 SC1=26, and still X=100."""
    return counts._replace(subsets=counts.subsets + 1, sc1=counts.sc1 + 2)


def test_a_census_off_the_formulas_names_its_first_subset_of_that_case(monkeypatch):
    table = _one_more_general_turned_sc1(table1_counts(EX8))
    monkeypatch.setattr(ringcache.verify, "table1_counts", lambda params: table)
    rep = count_vs_formula(EX8)
    assert rep.passed is False
    assert rep.divergence == (
        "census (C=68, SC1=24, SC2=12) != formulas (C=69, SC1=26, SC2=12);"
        " first subset: I=1,2,7,8 windows[1,2; 1,8; 7,8] case=GENERAL;"
        " first SC1 subset: I=2,4,7,8 windows[7,8] case=SC1"
    )


def test_a_delivery_short_of_the_formulas_fails(monkeypatch):
    assert _corrupted(monkeypatch, lambda packets: packets[:-1]) == (
        "delivery made 99 transmissions, formulas say 100"
    )


def test_a_census_with_a_union_no_delivery_uses_fails(monkeypatch):
    # census and formulas agree on one subset more than delivery reaches,
    # and on the same X, so only the number of union sets tells
    table = _one_more_general_turned_sc1(table1_counts(EX8))
    census = _one_more_general_turned_sc1(enumerate_transmission_subsets(EX8))
    monkeypatch.setattr(ringcache.verify, "table1_counts", lambda params: table)
    monkeypatch.setattr(ringcache.verify, "enumerate_transmission_subsets", lambda params: census)
    rep = count_vs_formula(EX8)
    assert (table.transmissions, census.transmissions, rep.passed) == (100, 100, False)
    assert rep.divergence == "delivery used 68 union sets, the census counts 69"


def test_the_oracle_takes_only_the_case_tags_and_deliver_from_delivery():
    # the oracle checks what delivery sends against its own census, so it
    # may call deliver and name the three cases, and read nothing else of it
    tree = ast.parse(Path(ringcache.verify.__file__).read_text(encoding="utf-8"))
    taken = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert all("delivery" not in alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if (node.level, node.module) in ((1, "delivery"), (0, "ringcache.delivery")):
                taken |= {alias.name for alias in node.names}
            else:
                assert all(alias.name != "delivery" for alias in node.names), node.module
    assert taken and taken <= {"GENERAL", "SC1", "SC2", "deliver"}, taken
