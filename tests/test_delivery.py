"""Delivery algorithm: case classification, the three builders, full runs
against the worked instances, coverage and decodability."""

import itertools
from dataclasses import replace
from fractions import Fraction

import pytest

from ringcache.model import (
    InvalidMiniSubfile,
    RegimeError,
    SystemParams,
    binom,
    mask_of,
    params_from_gammas,
    position_sets,
)
from ringcache.placement import SUBSET, build_layout, build_subset_layout, demand_pairs
from ringcache import delivery
from ringcache.delivery import (
    GENERAL,
    SC1,
    SC2,
    _relabel,
    deliver,
    format_log,
    format_report,
    format_transmission,
    plan_packets,
    random_demand,
    verify_decodability,
    worst_case_demand,
)
from ringcache.analysis import achievable_rate
from ringcache.verify import sweep_grid

from helpers import (
    build_general,
    build_sc1,
    build_sc2,
    build_subset_xor,
    build_transmission,
    classify,
    deliver_greedy_reference,
    drop_transmission,
    elements_at,
    only_bit,
    shift_positions,
)
from golden import EX5, EX5_TRANSMISSIONS, EX7, EX7_SC1, EX7_SC2, term_set
from l1 import l1_instances


def as_sets(transmissions):
    return [frozenset((t.user, t.s, t.t) for t in tx.terms) for tx in transmissions]


@pytest.fixture(scope="module")
def run5():
    layout = build_layout(SystemParams(**EX5))
    demand = worst_case_demand(5)
    return layout, demand, deliver(layout, demand)


@pytest.fixture(scope="module")
def run7():
    layout = build_layout(SystemParams(**EX7))
    demand = worst_case_demand(7)
    return layout, demand, deliver(layout, demand)


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "kwargs,u,s,t,expected",
    [
        (EX7, 1, (3, 4), (6,), SC1),
        (EX7, 1, (3, 4), (7,), SC2),
        (EX5, 2, (3, 4), (5,), GENERAL),
        (EX7, 1, (2, 3), (4,), GENERAL),
        (EX7, 3, (7, 1), (5,), SC1),
    ],
)
def test_classify_examples(kwargs, u, s, t, expected):
    params = SystemParams(**kwargs)
    case, shift = classify(params, u, mask_of(s), mask_of(t))
    assert case == expected
    assert (shift is not None) == (expected == SC2)


def test_sc2_requires_boundary_replication():
    # SC2 can only appear when gamma_p = span - 1
    for k, l, ga, gp in [(9, 2, 1, 0), (9, 3, 1, 1), (12, 2, 2, 1)]:
        params = params_from_gammas(k, l, ga, gp, k)
        assert gp != params.span - 1
        layout = build_layout(params)
        result = deliver(layout, worst_case_demand(k))
        assert result.count(SC2) == 0


def test_relabel_matches_position_set_rotation():
    # the images under shift i equal the rotation of the anchor's position
    # sets by i, read back through the sorted union
    for params in sweep_grid(4, 9):
        for u in range(1, params.k + 1):
            for s, t in demand_pairs(params, u):
                pos = position_sets(u, s, t)
                images = _relabel(u, s, t)
                assert len(images) == pos.size
                assert images[0] == (u, s, t)
                for i in range(1, pos.size):
                    expected = (
                        only_bit(elements_at(pos, shift_positions(pos.p_u, i, pos.size))),
                        elements_at(pos, shift_positions(pos.p_s, i, pos.size)),
                        elements_at(pos, shift_positions(pos.p_t, i, pos.size)),
                    )
                    assert images[i] == expected, (params, u, s, t, i)


@pytest.mark.parametrize("u,s,t", [(3, (3, 4), (6,)), (1, (3, 4), (4,)), (2, (3, 4), (2, 5))])
def test_overlapping_anchor_is_rejected(u, s, t):
    params, demand = SystemParams(**EX7), worst_case_demand(7)
    with pytest.raises(InvalidMiniSubfile):
        classify(params, u, mask_of(s), mask_of(t))
    with pytest.raises(InvalidMiniSubfile):
        build_general(params, demand, u, mask_of(s), mask_of(t))


# ---------------------------------------------------------------------------
# builders against hand-checked lines
# ---------------------------------------------------------------------------

def test_build_general_examples():
    p5, p7 = SystemParams(**EX5), SystemParams(**EX7)
    d5, d7 = worst_case_demand(5), worst_case_demand(7)

    tx = build_general(p5, d5, 2, mask_of((3, 4)), mask_of((5,)))
    assert frozenset((t.user, t.s, t.t) for t in tx.terms) == term_set(
        (2, (3, 4), (5,)), (5, (2, 3), (4,)), (3, (4, 5), (2,))
    )

    tx = build_general(p7, d7, 1, mask_of((2, 3)), mask_of((5,)))
    assert frozenset((t.user, t.s, t.t) for t in tx.terms) == term_set(
        (1, (2, 3), (5,)), (5, (1, 2), (3,))
    )

    tx = build_general(p5, d5, 1, mask_of((2, 3)), mask_of((4,)))
    assert frozenset((t.user, t.s, t.t) for t in tx.terms) == term_set(
        (1, (2, 3), (4,)), (4, (1, 2), (3,)), (2, (3, 4), (1,))
    )


def test_build_sc1_examples():
    p7 = SystemParams(**EX7)
    d7 = worst_case_demand(7)
    tx = build_sc1(p7, d7, 1, mask_of((3, 4)), mask_of((6,)))
    assert frozenset((t.user, t.s, t.t) for t in tx.terms) == EX7_SC1[0]
    tx = build_sc1(p7, d7, 3, mask_of((7, 1)), mask_of((5,)))
    assert frozenset((t.user, t.s, t.t) for t in tx.terms) == EX7_SC1[4]


def test_build_sc1_dedicated_mode():
    # without a shared layer every transmission is the swap group on T | {u}
    params = SystemParams(k=5, l=1, ma=0, mp=2, n=5)
    demand = worst_case_demand(5)
    case, _ = classify(params, 1, 0, mask_of((2, 4)))
    assert case == SC1
    tx = build_sc1(params, demand, 1, 0, mask_of((2, 4)))
    assert frozenset((t.user, t.s, t.t) for t in tx.terms) == term_set(
        (1, (), (2, 4)), (2, (), (1, 4)), (4, (), (1, 2))
    )


def test_build_sc2_examples():
    p7 = SystemParams(**EX7)
    d7 = worst_case_demand(7)
    for (u, s, t), expected in [
        ((1, (3, 4), (7,)), EX7_SC2[0]),
        ((1, (4, 5), (2,)), EX7_SC2[1]),
        ((2, (5, 6), (3,)), EX7_SC2[4]),
    ]:
        case, shift = classify(p7, u, mask_of(s), mask_of(t))
        assert case == SC2
        tx = build_sc2(p7, d7, u, mask_of(s), mask_of(t), shift)
        assert frozenset((tm.user, tm.s, tm.t) for tm in tx.terms) == expected
        assert len(tx.terms) == 4


# ---------------------------------------------------------------------------
# full runs on the worked instances
# ---------------------------------------------------------------------------

def test_ex5_full_run(run5):
    _, _, result = run5
    assert result.total == 10
    assert result.f == 15
    assert result.rate == Fraction(2, 3)
    assert all(len(tx.terms) == 3 for tx in result.transmissions)
    assert result.count(GENERAL) == 10
    assert sorted(map(sorted, as_sets(result.transmissions))) == sorted(
        map(sorted, EX5_TRANSMISSIONS)
    )


def test_ex7_full_run(run7):
    _, _, result = run7
    assert result.total == 56
    assert (result.count(GENERAL), result.count(SC1), result.count(SC2)) == (42, 7, 7)
    assert result.rate == Fraction(8, 5)
    got_sc1 = {fs for fs, tx in zip(as_sets(result.transmissions), result.transmissions) if tx.case == SC1}
    got_sc2 = {fs for fs, tx in zip(as_sets(result.transmissions), result.transmissions) if tx.case == SC2}
    assert got_sc1 == set(EX7_SC1)
    assert got_sc2 == set(EX7_SC2)


def test_coverage_exactly_once(run7):
    layout, _, result = run7
    params = layout.params
    seen = {}
    for tx in result.transmissions:
        for term in tx.terms:
            key = (term.user, term.s, term.t)
            seen[key] = seen.get(key, 0) + 1
    expected = {
        (u, s, t): 1 for u in range(1, 8) for (s, t) in demand_pairs(params, u)
    }
    assert seen == expected


def test_general_terms_have_distinct_windows(run7):
    _, _, result = run7
    for tx in result.transmissions:
        if tx.case == GENERAL:
            windows = [t.s for t in tx.terms]
            assert len(set(windows)) == len(windows)


def test_decodability_worked_instances(run5, run7):
    for layout, demand, result in (run5, run7):
        report = verify_decodability(layout, demand, result.transmissions)
        assert report.ok
        assert report.checked == layout.params.k * len(demand_pairs(layout.params, 1))


def test_dropping_a_transmission_breaks_its_users(run5):
    layout, demand, result = run5
    for idx, tx in enumerate(result.transmissions):
        crippled = drop_transmission(result, idx)
        report = verify_decodability(layout, demand, crippled.transmissions)
        assert not report.ok
        assert report.failing_users() == tuple(sorted({t.user for t in tx.terms}))


def test_failure_report_names_sets_like_the_log(run5):
    layout, demand, result = run5
    assert format_transmission(result.transmissions[0]) == "GENERAL d1:2,3:4 ^ d2:3,4:1 ^ d4:1,2:3"
    crippled = drop_transmission(result, 0)
    report = verify_decodability(layout, demand, crippled.transmissions)
    assert format_report(report).splitlines() == [
        "# decodability FAIL for users (1, 2, 4)",
        "#   user 1 misses S=2,3 T=4: never transmitted",
        "#   user 2 misses S=3,4 T=1: never transmitted",
        "#   user 4 misses S=1,2 T=3: never transmitted",
    ]
    report = verify_decodability(layout, demand, result.transmissions)
    assert format_report(report) == "# decodability PASS (30 mini-subfiles)"


def test_blocked_carrier_is_reported(run5):
    # a carrier whose other terms the user cannot read does not decode
    layout, demand, result = run5
    tx = result.transmissions[0]
    foreign = tx.terms[0]._replace(user=3, s=mask_of((5,)), t=0)  # read by 3 and 5 only
    blocked = replace(tx, terms=tx.terms + (foreign,))
    txs = (blocked,) + result.transmissions[1:]
    report = verify_decodability(layout, demand, txs)
    assert [(f.user, f.reason) for f in report.failures] == [
        (v, "all carriers blocked by unreadable terms") for v in (1, 2, 4)
    ]


def test_non_distinct_demands_still_decode(run5):
    layout, _, _ = run5
    for demand in [(1, 1, 1, 1, 1), (2, 2, 3, 3, 1), (5, 4, 4, 1, 1)]:
        result = deliver(layout, demand)
        report = verify_decodability(layout, demand, result.transmissions)
        assert report.ok
        assert result.total <= 10  # never worse than the all-distinct case


def test_all_permutations_decode_k4():
    params = params_from_gammas(4, 2, 1, 1, 4)
    layout = build_layout(params)
    for demand in itertools.permutations(range(1, 5)):
        result = deliver(layout, demand)
        assert verify_decodability(layout, demand, result.transmissions).ok


def test_sampled_permutations_decode_k6_k7():
    import random

    for k, shapes in ((6, [(2, 1, 1), (2, 2, 1)]), (7, [(2, 1, 1), (2, 2, 2)])):
        perms = random.Random(1).sample(list(itertools.permutations(range(1, k + 1))), 60)
        for l, ga, gp in shapes:
            layout = build_layout(params_from_gammas(k, l, ga, gp, k))
            for demand in perms:
                result = deliver(layout, demand)
                assert verify_decodability(layout, demand, result.transmissions).ok


def test_full_coverage_produces_nothing():
    # gamma_p = K - span: nothing is demanded
    layout = build_layout(SystemParams(k=5, l=2, ma=1, mp=3, n=5))
    result = deliver(layout, worst_case_demand(5))
    assert result.total == 0
    assert result.rate == 0


def test_large_memory_boundary_runs_unchecked_free():
    # span + gamma_p = K - 1 is allowed even with gamma_p >= span
    layout = build_layout(SystemParams(k=6, l=2, ma=1, mp=3, n=6))
    result = deliver(layout, worst_case_demand(6))
    assert result.rate == Fraction(1, 6)
    assert verify_decodability(layout, worst_case_demand(6), result.transmissions).ok


def test_uncharacterized_regime_gate():
    # gamma_p >= span below the large-memory boundary needs the override
    layout = build_layout(SystemParams(k=8, l=2, ma=1, mp=3, n=8))
    with pytest.raises(RegimeError):
        deliver(layout, worst_case_demand(8))
    result = deliver(layout, worst_case_demand(8), unchecked=True)
    assert verify_decodability(layout, worst_case_demand(8), result.transmissions).ok


class _NothingDemanded:
    """A layout that demands nothing: :func:`plan_packets` checks the regime
    on the parameters alone before it builds a packet, so this shows its
    refusals without building a layout."""

    placement = SUBSET

    def __init__(self, params):
        self.params = params

    def demand_pairs(self, u):
        return ()


def _refuses(call, arg):
    try:
        call(arg)
    except RegimeError:
        return True
    return False


def test_rate_and_delivery_refuse_the_same_points():
    # every integral point a ring layout exists for: span + gamma_p <= K
    points, refused = 0, 0
    for k in range(1, 25):
        for l in range(1, k + 1):
            for ga in range(k // l + 1):
                for gp in range(k - ga * l + 1):
                    params = params_from_gammas(k, l, ga, gp, k)
                    by_rate = _refuses(achievable_rate, params)
                    assert _refuses(plan_packets, _NothingDemanded(params)) == by_rate, params
                    points += 1
                    refused += by_rate
    assert points == 12344
    assert refused > 0


def test_demand_validation():
    layout = build_layout(SystemParams(**EX5))
    with pytest.raises(Exception):
        deliver(layout, (1, 2, 3))
    with pytest.raises(Exception):
        deliver(layout, (1, 2, 3, 4, 6))


def test_transmission_count_law(run7):
    _, _, result = run7
    gp = result.params.gp
    general_subsets, seen = {}, set()
    for tx in result.transmissions:
        if tx.case == GENERAL:
            general_subsets[tx.union] = general_subsets.get(tx.union, 0) + 1
        seen.add(tx.union)
    assert all(v == 1 + gp for v in general_subsets.values())
    c_gc = len(general_subsets)
    assert result.total == (1 + gp) * c_gc + result.count(SC1) + result.count(SC2)


def test_log_format(run5):
    _, _, result = run5
    line = format_transmission(result.transmissions[0])
    assert line == "GENERAL d1:2,3:4 ^ d2:3,4:1 ^ d4:1,2:3"
    log = format_log(result)
    assert log.splitlines()[-2] == "# total=10 general=10 sc1=0 sc2=0"
    assert log.splitlines()[-1] == "# F=15 rate=2/3"


def test_deliver_is_deterministic(run7):
    layout, demand, result = run7
    again = deliver(layout, demand)
    assert again.transmissions == result.transmissions


# ---------------------------------------------------------------------------
# the subset placement at L = 1
# ---------------------------------------------------------------------------

def test_build_subset_xor_example():
    # Q = {1, 2, 3}; S sits at the first of the two positions of Q - {u}
    params = SystemParams(k=4, l=1, ma=1, mp=1, n=4)
    tx = build_subset_xor(params, worst_case_demand(4), 1, mask_of((2,)), mask_of((3,)))
    assert format_transmission(tx) == "SC1 d1:2:3 ^ d2:1:3 ^ d3:1:2"


def test_l1_rate_comes_from_a_delivery_that_decodes():
    for k, ga, gp in l1_instances(3, 10):
        params = SystemParams(k=k, l=1, ma=ga, mp=gp, n=k)
        layout = build_subset_layout(params)
        t = ga + gp
        repeated = list(random_demand(params, seed=100 * k + 10 * ga + gp))
        repeated[-1] = repeated[0]  # at least one file wanted twice
        for demand in (worst_case_demand(k), tuple(repeated)):
            result = deliver(layout, demand)
            report = verify_decodability(layout, demand, result.transmissions)
            assert report.ok, (k, ga, gp, demand, report.failures[:3])
            assert report.checked == k * binom(k - 1, ga) * binom(k - 1 - ga, gp)
            assert result.total == binom(k, t + 1) * binom(t, ga)
            assert all(len(tx.terms) == t + 1 for tx in result.transmissions)
            assert result.rate == achievable_rate(params), (k, ga, gp)


def test_dedicated_delivery_is_the_ring_swap_group_run():
    # without a shared layer the subset XORs are the ring path's SC1 swap
    # groups, sent in the same order
    for k in range(3, 8):
        for l in (1, 2):
            for gp in range(k + 1):
                params = SystemParams(k=k, l=l, ma=0, mp=gp, n=k)
                layout = build_layout(params)
                demand = worst_case_demand(k)
                result = deliver(layout, demand)
                expected = []
                covered = set()
                for u in range(1, k + 1):
                    for s, t in demand_pairs(params, u):
                        if (u, s, t) not in covered:
                            tx = build_transmission(params, demand, u, s, t)
                            covered.update((term.user, term.s, term.t) for term in tx.terms)
                            expected.append(tx)
                assert result.transmissions == tuple(expected)


# ---------------------------------------------------------------------------
# the orbit plan against the greedy loop
# ---------------------------------------------------------------------------

def demands_with_a_repeat(params, seed):
    """The worst-case demand, then seeded demands with a repeated file at
    N = K and N = 2K; returns (params, demand) pairs."""
    out = [(params, worst_case_demand(params.k))]
    for n in (params.k, 2 * params.k):
        at_n = params_from_gammas(params.k, params.l, params.gamma_a, params.gamma_p, n)
        demand = list(random_demand(at_n, seed))
        demand[-1] = demand[0]
        out.append((at_n, tuple(demand)))
    return out


def assert_orbit_matches_greedy(layout_of, params, seed, unchecked=False):
    for at_n, demand in demands_with_a_repeat(params, seed):
        layout = layout_of(at_n)
        got = deliver(layout, demand, unchecked=unchecked)
        want = deliver_greedy_reference(layout, demand, unchecked=unchecked)
        # same case, terms (files included) and anchor, transmission for transmission
        assert got == want, (at_n, demand)


def test_orbit_plan_matches_greedy_loop_on_the_grid():
    for seed, params in enumerate(sweep_grid(3, 11)):
        assert_orbit_matches_greedy(build_layout, params, seed)


def test_orbit_plan_matches_greedy_loop_without_a_shared_layer():
    for k in range(2, 10):
        for l in range(1, k + 1):
            for gp in range(k + 1):
                params = SystemParams(k=k, l=l, ma=0, mp=gp, n=k)
                assert_orbit_matches_greedy(build_layout, params, 10 * k + gp)


def test_orbit_plan_matches_greedy_loop_on_the_subset_placement():
    for k, ga, gp in l1_instances(3, 9):
        params = SystemParams(k=k, l=1, ma=ga, mp=gp, n=k)
        assert_orbit_matches_greedy(build_subset_layout, params, 100 * k + 10 * ga + gp)


def test_orbit_plan_matches_greedy_loop_in_the_uncharacterized_band():
    band = [(12, 2, 1, 3)]
    band += [
        (k, l, ga, gp)
        for k in range(5, 11)
        for l in (2, 3)
        for ga in range(1, k // l + 1)
        for gp in range(ga * l, k - ga * l - 1)
    ]
    assert (8, 2, 1, 2) in band and len(band) > 20
    for seed, (k, l, ga, gp) in enumerate(band):
        params = params_from_gammas(k, l, ga, gp, k)
        with pytest.raises(RegimeError):
            deliver(build_layout(params), worst_case_demand(k))
        assert_orbit_matches_greedy(build_layout, params, seed, unchecked=True)


def test_an_uncovered_demand_pair_is_an_error(monkeypatch):
    # each SC2 representative of EX7 loses its last term; the rotations the
    # scan sends then hold no packet with 5 of the demand pairs (counted over
    # the packets sent), and the plan refuses to start
    build = delivery._ring_xor

    def without_sc2_tail(windows, u, s, t):
        case, keys = build(windows, u, s, t)
        return case, keys[:-1] if case == SC2 else keys

    monkeypatch.setattr(delivery, "_ring_xor", without_sc2_tail)
    layout = build_layout(SystemParams(**EX7))
    with pytest.raises(AssertionError, match="^5 demand pairs were never covered$"):
        deliver(layout, worst_case_demand(7))
