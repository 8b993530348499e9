"""Delivery algorithm: case classification, the three builders, full runs
against the worked instances, coverage and decodability."""

import itertools
import random
import tracemalloc
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest

from ringcache.model import (
    InvalidMiniSubfile,
    InvalidParameters,
    SystemParams,
    binom,
    bit,
    mask_of,
    params_from_gammas,
    position_sets,
    window_masks,
)
from ringcache.placement import (
    RING,
    SUBSET,
    build,
    build_layout,
    build_subset_layout,
    demand_pairs,
)
from ringcache import delivery
from ringcache.delivery import (
    GENERAL,
    SC1,
    SC2,
    DecodeCheck,
    _ring_xor,
    check_demand,
    deliver,
    format_log,
    format_report,
    random_demand,
    verify_decodability,
    worst_case_demand,
)
from ringcache.analysis import achievable_rate
from ringcache.verify import sweep_grid

from helpers import (
    DecodeCheckReference,
    DecodeCheckSets,
    Places,
    _relabel,
    as_rotation,
    build_general,
    build_sc1,
    build_sc2,
    build_subset_xor,
    build_transmission,
    classify,
    decode_keys,
    deliver_greedy_reference,
    drop_transmission,
    elements_at,
    format_transmission,
    join_keys,
    materialize,
    only_bit,
    ring_xor_reference,
    scan_reference,
    shift_positions,
    split_keys,
    window_set,
)
from golden import EX5, EX5_TRANSMISSIONS, EX7, EX7_SC1, EX7_SC2, term_set
from l1 import l1_instances


def as_sets(transmissions):
    return [frozenset((t.user, t.s, t.t) for t in tx.terms) for tx in transmissions]


@pytest.fixture(scope="module")
def run5():
    layout = build_layout(SystemParams(**EX5))
    demand = worst_case_demand(5)
    return layout, demand, materialize(layout, demand)


@pytest.fixture(scope="module")
def run7():
    layout = build_layout(SystemParams(**EX7))
    demand = worst_case_demand(7)
    return layout, demand, materialize(layout, demand)


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
        result = materialize(layout, worst_case_demand(k))
        assert result.count(SC2) == 0


def test_relabel_matches_position_set_rotation():
    # the images under shift i equal the rotation of the anchor's position
    # sets by i, read back through the sorted union
    for params in sweep_grid(4, 9):
        layout = build_layout(params)
        for u in range(1, params.k + 1):
            for s, t in demand_pairs(layout, u):
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
    seen = {}
    for tx in result.transmissions:
        for term in tx.terms:
            key = (term.user, term.s, term.t)
            seen[key] = seen.get(key, 0) + 1
    expected = {
        (u, s, t): 1 for u in range(1, 8) for (s, t) in demand_pairs(layout, u)
    }
    assert seen == expected


def test_general_terms_have_distinct_windows(run7):
    _, _, result = run7
    for tx in result.transmissions:
        if tx.case == GENERAL:
            windows = [t.s for t in tx.terms]
            assert len(set(windows)) == len(windows)


def test_decodability_worked_instances(run5, run7):
    for layout, _, result in (run5, run7):
        report = verify_decodability(layout, result.packets())
        assert report.ok
        assert report.checked == layout.params.k * len(demand_pairs(layout, 1))


def test_dropping_a_transmission_breaks_its_users(run5):
    layout, _, result = run5
    for idx, tx in enumerate(result.transmissions):
        crippled = drop_transmission(result, idx)
        report = verify_decodability(layout, crippled.packets())
        assert not report.ok
        assert report.failing_users() == tuple(sorted({t.user for t in tx.terms}))


def test_failure_report_names_sets_like_the_log(run5):
    layout, _, result = run5
    assert format_transmission(result.transmissions[0]) == "GENERAL d1:2,3:4 ^ d2:3,4:1 ^ d4:1,2:3"
    crippled = drop_transmission(result, 0)
    report = verify_decodability(layout, crippled.packets())
    assert format_report(report).splitlines() == [
        "# decodability FAIL for users (1, 2, 4)",
        "#   user 1 misses S=2,3 T=4: never transmitted",
        "#   user 2 misses S=3,4 T=1: never transmitted",
        "#   user 4 misses S=1,2 T=3: never transmitted",
    ]
    report = verify_decodability(layout, result.packets())
    assert format_report(report) == "# decodability PASS (30 mini-subfiles)"


def test_blocked_carrier_is_reported(run5):
    # a carrier whose other terms the user cannot read does not decode
    layout, _, result = run5
    tx = result.transmissions[0]
    foreign = tx.terms[0]._replace(user=3, s=mask_of((5,)), t=0)  # read by 3 and 5 only
    blocked = replace(tx, terms=tx.terms + (foreign,))
    txs = (blocked,) + result.transmissions[1:]
    report = decode_keys(layout, [tx.packet[1] for tx in txs])
    assert [(f.user, f.reason) for f in report.failures] == [
        (v, "all carriers blocked by unreadable terms") for v in (1, 2, 4)
    ]


def test_non_distinct_demands_still_decode(run5):
    layout, _, _ = run5
    for demand in [(1, 1, 1, 1, 1), (2, 2, 3, 3, 1), (5, 4, 4, 1, 1)]:
        result = materialize(layout, demand)
        report = verify_decodability(layout, result.packets())
        assert report.ok
        assert result.total <= 10  # never worse than the all-distinct case


def test_all_permutations_decode_k4():
    params = params_from_gammas(4, 2, 1, 1, 4)
    layout = build_layout(params)
    for demand in itertools.permutations(range(1, 5)):
        result = materialize(layout, demand)
        assert verify_decodability(layout, result.packets()).ok


def test_sampled_permutations_decode_k6_k7():
    import random

    for k, shapes in ((6, [(2, 1, 1), (2, 2, 1)]), (7, [(2, 1, 1), (2, 2, 2)])):
        perms = random.Random(1).sample(list(itertools.permutations(range(1, k + 1))), 60)
        for l, ga, gp in shapes:
            layout = build_layout(params_from_gammas(k, l, ga, gp, k))
            for demand in perms:
                result = materialize(layout, demand)
                assert verify_decodability(layout, result.packets()).ok


def test_full_coverage_produces_nothing():
    # gamma_p = K - span: nothing is demanded
    layout = build_layout(SystemParams(k=5, l=2, ma=1, mp=3, n=5))
    result = materialize(layout, worst_case_demand(5))
    assert result.total == 0
    assert result.rate == 0


def test_large_memory_boundary_runs_unchecked_free():
    # span + gamma_p = K - 1 is allowed even with gamma_p >= span
    layout = build_layout(SystemParams(k=6, l=2, ma=1, mp=3, n=6))
    result = materialize(layout, worst_case_demand(6))
    assert result.rate == Fraction(1, 6)
    assert verify_decodability(layout, result.packets()).ok


def test_uncharacterized_regime_gate():
    # gamma_p >= span below the large-memory boundary: the rate is refused,
    # but delivery runs and decodes
    layout = build_layout(SystemParams(k=8, l=2, ma=1, mp=3, n=8))
    result = materialize(layout, worst_case_demand(8))
    assert verify_decodability(layout, result.packets()).ok


def test_demand_validation():
    params = SystemParams(**EX5)
    with pytest.raises(InvalidParameters):
        check_demand(params, (1, 2, 3))
    with pytest.raises(InvalidParameters):
        check_demand(params, (1, 2, 3, 4, 6))


def test_format_log_holds_pointers_per_place_not_strings():
    # K=20 L=2 gamma_a=3 gamma_p=4, F=20,020: for the whole run format_log
    # keeps two pointers a place, into the shared ``S:`` heads and the cached
    # T strings, 16 bytes a place; an ``S:T`` string per place took about 84
    layout = build_layout(params_from_gammas(20, 2, 3, 4, 20))
    rotations = list(deliver(layout).rotations())
    for _ in format_log(rotations, layout, len):  # renders every S and T once
        pass
    tracemalloc.start()
    try:
        for _ in format_log(rotations, layout, len):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert layout.f == 20_020
    assert 16 * layout.f < peak < 24 * layout.f, (peak, layout.f)


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
    layout, _, result = run5
    line = format_transmission(result.transmissions[0])
    assert line == "GENERAL d1:2,3:4 ^ d2:3,4:1 ^ d4:1,2:3"
    chunks = []
    # the rotations pass through unchanged, each one's lines in one write,
    # then the footer
    rotations = list(deliver(layout).rotations())
    assert list(format_log(rotations, layout, chunks.append)) == rotations
    assert [pk for rotation in rotations for pk in rotation.packets()] == result.packets()
    assert len(chunks) == len(rotations) + 1
    assert all(chunk.endswith("\n") for chunk in chunks)
    log = "".join(chunks).splitlines()
    assert log[:-2] == [format_transmission(tx) for tx in result.transmissions]
    assert log[-2] == "# total=10 general=10 sc1=0 sc2=0"
    assert log[-1] == "# F=15 rate=2/3"


def test_deliver_is_deterministic(run7):
    layout, demand, result = run7
    again = materialize(layout, demand)
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
            result = materialize(layout, demand)
            report = verify_decodability(layout, result.packets())
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
                result = materialize(layout, demand)
                expected = []
                covered = set()
                for u in range(1, k + 1):
                    for s, t in demand_pairs(layout, u):
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


def assert_orbit_matches_greedy(layout_of, params, seed):
    for at_n, demand in demands_with_a_repeat(params, seed):
        layout = layout_of(at_n)
        got = materialize(layout, demand)
        want = deliver_greedy_reference(layout, demand)
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


def uncharacterized_band():
    """(K, L, gamma_a, gamma_p) of band points, where no rate is claimed."""
    band = [(12, 2, 1, 3)]
    band += [
        (k, l, ga, gp)
        for k in range(5, 11)
        for l in (2, 3)
        for ga in range(1, k // l + 1)
        for gp in range(ga * l, k - ga * l - 1)
    ]
    return band


def test_orbit_plan_matches_greedy_loop_in_the_uncharacterized_band():
    band = uncharacterized_band()
    assert (8, 2, 1, 2) in band and len(band) > 20
    for seed, (k, l, ga, gp) in enumerate(band):
        params = params_from_gammas(k, l, ga, gp, k)
        assert_orbit_matches_greedy(build_layout, params, seed)


# ---------------------------------------------------------------------------
# the window-end kernel and the scan by rotation against what they replaced
# ---------------------------------------------------------------------------

def kernel_params():
    """The verify grid, the L = 1 instances and the uncharacterized band."""
    params = sweep_grid(3, 12)
    params += [SystemParams(k=k, l=1, ma=ga, mp=gp, n=k) for k, ga, gp in l1_instances(3, 12)]
    params += [params_from_gammas(k, l, ga, gp, k) for k, l, ga, gp in uncharacterized_band()]
    return list(dict.fromkeys(params))  # the grid's L = 1 instances are among the L = 1 ones


def test_window_end_kernel_matches_the_relabelling_one():
    # every demand pair of user 1 on every ring layout, and of every user up
    # to K = 8, where S also wraps past K: same case, same keys in order
    seen = Counter()
    for params in kernel_params():
        layout = build_layout(params)
        if layout.placement != RING:
            continue
        ends, windows = window_masks(params.k, params.span), window_set(params.k, params.span)
        for u in range(1, params.k + 1 if params.k <= 8 else 2):
            for s, t in demand_pairs(layout, u):
                got = split_keys(params.k, _ring_xor(ends, u, s, t))
                assert got == ring_xor_reference(windows, u, s, t), (params, u, s, t)
                seen[got[0], u == 1] += 1
    assert min(seen[case, first] for case in (GENERAL, SC1, SC2) for first in (0, 1)) > 100, seen


def test_one_key_turns_match_two_field_rotations_up_to_64_users():
    # a pair's key S << K | T spans 2K bits, 128 at K = 64: turning it back
    # by j with the two cached masks turns both fields back by j, and the
    # turn back by K - 1 is the turn on by one user that builds the table
    rng = random.Random(34)
    for k in (2, 3, 17, 63, 64):
        keep, wrap = delivery._turn_masks(k)
        assert len(keep) == len(wrap) == k
        for _ in range(40):
            users = rng.sample(range(1, k + 1), rng.randint(0, k))
            cut = rng.randint(0, len(users))
            s, t = mask_of(users[:cut]), mask_of(users[cut:])
            key = s << k | t
            on = (key >> (k - 1) & keep[-1]) | (key << 1 & wrap[-1])
            assert on == shift_positions(s, 1, k) << k | shift_positions(t, 1, k), (k, s, t)
            for j in range(k):
                back = (key >> j & keep[j]) | (key << (k - j) & wrap[j])
                assert back == shift_positions(s, -j, k) << k | shift_positions(t, -j, k), (k, j)


def test_turn_table_matches_two_field_rotations():
    # every verify-grid layout up to K = 10, the L = 1 subset layouts and the
    # dedicated ones: turn[i] is the place of pair i with S and T each turned
    # on by one user
    layouts = [build_layout(params) for params in sweep_grid(3, 10)]
    layouts += [
        build_subset_layout(SystemParams(k=k, l=1, ma=ga, mp=gp, n=k))
        for k, ga, gp in l1_instances(3, 10)
    ]
    assert {layout.placement for layout in layouts if layout.params.ga} == {RING, SUBSET}
    assert any(not layout.params.ga for layout in layouts)
    for layout in layouts:
        k = layout.params.k
        places = Places(layout).index
        want = [
            places[shift_positions(s, 1, k), shift_positions(t, 1, k)]
            for s, t in zip(layout.s_of, layout.t_of)
        ]
        assert deliver(layout).turn == want, layout.params


def test_scan_by_rotation_matches_the_per_user_scan():
    # the ring layouts of the kernel test, and the subset ones up to K = 10
    layouts = [build_layout(params) for params in kernel_params()]
    layouts += [
        build_subset_layout(SystemParams(k=k, l=1, ma=ga, mp=gp, n=k))
        for k, ga, gp in l1_instances(3, 10)
    ]
    assert {layout.placement for layout in layouts if layout.params.ga} == {RING, SUBSET}
    for layout in layouts:
        delivery = deliver(layout)
        assert delivery.highs == sorted(delivery.highs)
        assert list(delivery) == list(scan_reference(layout, delivery)), layout.params


def test_rotation_zero_is_the_one_record_of_the_orbit():
    # seeded ring, subset and dedicated layouts: rotations() yields the
    # delivery's rotation 0 first, and every later rotation is rotation 0
    # with j, order and places replaced, sharing its other lists, not copies
    rng = random.Random(33)
    grid = sweep_grid(3, 12)
    ring, subset = [p for p in grid if p.l > 1], [p for p in grid if p.l == 1]
    dedicated = [params_from_gammas(k, 1, 0, t, k) for k in range(3, 13) for t in range(k)]
    layouts = [build("man-check", p) for p in rng.sample(dedicated, 8)]
    layouts += [build("simulate", p) for p in rng.sample(ring, 8) + rng.sample(subset, 8)]
    assert {layout.placement for layout in layouts} == {RING, SUBSET}
    shared = ("cases", "starts", "users", "members", "owns", "packs")
    later = 0
    for layout in layouts:
        delivery = deliver(layout)
        first, *rest = delivery.rotations()
        assert first is delivery.first, layout.params
        assert first.j == 0 and len(first.order) == len(delivery.highs)
        for j, rotation in enumerate(rest, start=1):
            assert rotation.j == j
            assert all(getattr(rotation, name) is getattr(first, name) for name in shared)
            assert rotation.places is not first.places
            later += 1
    assert later > 50


def test_an_uncovered_demand_pair_is_an_error(monkeypatch):
    # each SC2 representative of EX7 loses its last term; the rotations the
    # scan sends then hold no packet with 5 of the demand pairs (counted over
    # the packets sent), and the plan refuses to start
    build = delivery._ring_xor

    def without_sc2_tail(windows, u, s, t):
        case, keys = split_keys(7, build(windows, u, s, t))
        return join_keys(7, case, keys[:-1] if case == SC2 else keys)

    monkeypatch.setattr(delivery, "_ring_xor", without_sc2_tail)
    layout = build_layout(SystemParams(**EX7))
    with pytest.raises(AssertionError, match="^5 demand pairs were never covered$"):
        deliver(layout)


def test_a_representative_term_off_the_layout_is_named(monkeypatch):
    # S = {1, 3} is no window of EX7: the term has no place, and the plan
    # refuses to start with the term in log notation
    build = delivery._ring_xor

    def with_a_stray_term(windows, u, s, t):
        case, keys = split_keys(7, build(windows, u, s, t))
        return join_keys(7, case, keys + [(5, mask_of((1, 3)), bit(7))])

    monkeypatch.setattr(delivery, "_ring_xor", with_a_stray_term)
    layout = build_layout(SystemParams(**EX7))
    with pytest.raises(
        AssertionError, match="^representative term d5:1,3:7 is not a pair of the layout$"
    ):
        deliver(layout)


@pytest.mark.parametrize(
    "kernel,params",
    [
        ("_ring_xor", SystemParams(**EX7)),
        ("_subset_xor", SystemParams(k=6, l=1, ma=2, mp=1, n=6)),
    ],
)
def test_a_demand_pair_sent_twice_is_an_error(monkeypatch, kernel, params):
    # the first representative repeats its first term: every pair is still
    # covered, but one goes out twice in each of the representative's
    # K - h + 1 rotations, and the plan refuses to start
    build = getattr(delivery, kernel)
    first = []

    def with_a_repeated_term(*args):
        case, keys = split_keys(params.k, build(*args))
        if not first:
            first.append(max(keys)[0])
            keys = keys + keys[:1]
        return join_keys(params.k, case, keys)

    monkeypatch.setattr(delivery, kernel, with_a_repeated_term)
    layout = build_subset_layout(params) if params.l == 1 else build_layout(params)
    with pytest.raises(AssertionError) as raised:
        deliver(layout)
    pairs = params.k * len(demand_pairs(layout, 1))
    terms = pairs + params.k + 1 - first[0]
    assert str(raised.value) == f"{terms} demand terms sent for {pairs} demand pairs"


# ---------------------------------------------------------------------------
# the two-mask decode check against the term-by-term rule
# ---------------------------------------------------------------------------

def is_demand_key(key):
    v, s, t = key
    return not bit(v) & (s | t)


def filed(check, keys, terms):
    """Where ``check`` filed each demand key of ``keys``, given to it as
    ``terms``: the only keys :meth:`DecodeCheck.report` looks up."""
    return [
        (key, bool(check.peeled[p] & bit(v)), bool(check.blocked[p] & bit(v)))
        for key, (v, p) in zip(keys, terms)
        if is_demand_key(key)
    ]


def random_packet(rng, k):
    """1-7 terms over a few users of [1, k], so users repeat; some keys
    repeat whole, and some have their user in their own S or T."""
    users = rng.sample(range(1, k + 1), rng.randint(1, k))
    keys = []
    for _ in range(rng.randint(1, 7)):
        if keys and rng.random() < 0.15:
            keys.append(rng.choice(keys))
            continue
        v, s, t = rng.choice(users), rng.getrandbits(k), rng.getrandbits(k)
        if rng.random() < 0.7:
            s, t = s & ~bit(v), t & ~bit(v)
        keys.append((v, s, t))
    return keys


def test_two_mask_rule_matches_the_term_by_term_rule_on_random_packets():
    rng = random.Random(20261018)
    seen = Counter()
    for _ in range(20_000):
        keys = random_packet(rng, rng.randint(2, 8))
        places = Places()
        terms = places.terms(keys)
        got, want = DecodeCheck(places.unions()), DecodeCheckReference(places.unions())
        got.add(terms)
        want.add(terms)
        assert filed(got, keys, terms) == filed(want, keys, terms), keys
        seen["repeated key"] += len(set(keys)) < len(keys)
        seen["user twice"] += len({v for v, _, _ in keys}) < len(keys)
        seen["user in own S or T"] += not all(map(is_demand_key, keys))
        for _, peeled, _ in filed(want, keys, terms):
            seen["peeled" if peeled else "blocked"] += 1
    assert min(seen.values()) > 1000, seen


def test_two_mask_rule_matches_the_term_by_term_rule_on_delivered_streams():
    layouts = [build_layout(params) for params in sweep_grid(3, 10)]
    layouts += [
        build_subset_layout(SystemParams(k=k, l=1, ma=ga, mp=gp, n=k))
        for k, ga, gp in l1_instances(3, 10)
    ]
    for layout in layouts:
        places = Places(layout)
        got, want = DecodeCheck(places.unions()), DecodeCheckReference(places.unions())
        for _, terms in deliver(layout):
            assert all(map(is_demand_key, places.keys(terms)))
            got.add(terms)
            want.add(terms)
        assert (got.peeled, got.blocked) == (want.peeled, want.blocked), layout.params
        assert got.report(layout) == want.report(layout)


def mutated_rotation(rng, rotation, unread):
    """The packets of ``rotation`` with one seeded fault in one of them: a
    term dropped, a term duplicated, a demand term added for one of the
    packet's users whose pair another of its users cannot read either, so
    that user has a second unreadable term ("block"), or that user's own
    term replaced by such a term, so each user keeps one term but the other
    has a second unreadable one ("replace"). Returns (fault, packets)."""
    packets = list(rotation.packets())
    i = rng.randrange(len(packets))
    case, terms = packets[i]
    terms = list(terms)
    unreadable = []
    if len(terms) > 1:
        w, v = rng.sample([user for user, _ in terms], 2)
        unreadable = [p for p, x in enumerate(unread) if x & bit(v) and x & bit(w)]
    faults = ("drop", "duplicate", "block", "replace") if unreadable else ("drop", "duplicate")
    fault = rng.choice(faults)
    if fault == "drop":
        del terms[rng.randrange(len(terms))]
    elif fault == "duplicate":
        terms.insert(rng.randrange(len(terms) + 1), rng.choice(terms))
    elif fault == "block":
        terms.insert(rng.randrange(len(terms) + 1), (w, rng.choice(unreadable)))
    else:
        at = [user for user, _ in terms].index(w)
        terms[at] = (w, rng.choice(unreadable))
    packets[i] = case, terms
    rng.shuffle(packets)
    return fault, packets


class WatchedCheck(DecodeCheck):
    """A :class:`DecodeCheck` that notes whether :meth:`add_rotation` fell
    back to filing packet by packet."""

    fell_back = False

    def add(self, terms):
        self.fell_back = True
        super().add(terms)


def test_rotation_check_matches_the_term_by_term_rule_on_mutated_rotations():
    # each rotation of each stream, and the same rotation with one fault,
    # filed whole, packet by packet, and by the term-by-term rule; a clean
    # rotation, and one that only drops a term, is filed at once, and one
    # whose packet repeats a user or gives a user a second unreadable term
    # falls back to filing packet by packet
    layouts = [build_layout(params) for params in sweep_grid(3, 8)]
    layouts += [
        build_subset_layout(SystemParams(k=k, l=1, ma=ga, mp=gp, n=k))
        for k, ga, gp in l1_instances(3, 8)
    ]
    rng = random.Random(20261020)
    seen = Counter()
    for layout in layouts:
        unions = Places(layout).unions()
        unread = [~union for union in unions]
        full = (1 << layout.params.k) - 1

        def demand(check):
            return [
                (peeled & full & ~union, blocked & full & ~union)
                for peeled, blocked, union in zip(check.peeled, check.blocked, unions)
            ]

        for rotation in deliver(layout).rotations():
            for fault, packets in [("none", list(rotation.packets()))] + [
                mutated_rotation(rng, rotation, unread) for _ in range(5)
            ]:
                whole, single, want = (WatchedCheck(unions), DecodeCheck(unions),
                                       DecodeCheckReference(unions))
                whole.add_rotation(as_rotation(rotation.j, packets))
                for _, terms in packets:
                    single.add(terms)
                    want.add(terms)
                # the demand keys, the only ones a report looks up
                filed = [demand(check) for check in (whole, single, want)]
                assert filed[0] == filed[1] == filed[2], (layout.params, fault)
                assert whole.report(layout) == single.report(layout) == want.report(layout)
                seen[fault] += 1
                seen[fault, "fell back" if whole.fell_back else "at once"] += 1
                seen["blocked"] += any(want.blocked)
    assert min(seen[fault] for fault in ("drop", "duplicate", "block", "replace")) > 300, seen
    assert seen["blocked"] > 300 and seen["none"] > 500, seen
    assert seen["none", "at once"] == seen["none"] and seen["drop", "at once"] == seen["drop"]
    for fault in ("duplicate", "block", "replace"):
        assert seen[fault, "fell back"] == seen[fault], seen


# ---------------------------------------------------------------------------
# the (S, T) ledgers against the two key sets they replaced
# ---------------------------------------------------------------------------

def mutated_stream(rng, layout, packets):
    """The (user, S, T) keys of ``packets`` with one to three seeded faults: a
    packet dropped, duplicated or cut short, or a key added whose user is in
    its own S or T or whose pair is not one of the placement's."""
    k, packets = layout.params.k, [list(keys) for keys in packets]
    placed = set(zip(layout.s_of, layout.t_of))
    for _ in range(rng.randint(1, 3)):
        if not packets:
            break
        i = rng.randrange(len(packets))
        fault = rng.choice(("drop", "duplicate", "truncate", "own", "foreign"))
        if fault == "drop":
            del packets[i]
        elif fault == "duplicate":
            packets.insert(rng.randrange(len(packets) + 1), list(packets[i]))
        elif fault == "truncate":
            packets[i] = packets[i][: rng.randrange(len(packets[i]) or 1)]
        else:
            v, s, t = rng.randint(1, k), rng.getrandbits(k), rng.getrandbits(k)
            if fault == "own":
                s, t = (s | bit(v), t & ~bit(v)) if rng.random() < 0.5 else (s & ~bit(v), t | bit(v))
            else:
                s, t = s & ~bit(v), t & ~(s | bit(v))
                if (s, t) in placed:
                    continue
            packets[i].insert(rng.randrange(len(packets[i]) + 1), (v, s, t))
    return packets


def test_ledgers_report_what_the_key_sets_reported_on_mutated_streams():
    rng = random.Random(20261019)
    layouts = [build_layout(params) for params in sweep_grid(3, 8)]
    layouts += [
        build_subset_layout(SystemParams(k=k, l=1, ma=ga, mp=gp, n=k))
        for k, ga, gp in l1_instances(3, 8)
    ]
    assert {layout.placement for layout in layouts if layout.params.ga} == {RING, SUBSET}
    seen = Counter()
    for layout in layouts:
        places = Places(layout)
        packets = [places.keys(terms) for _, terms in deliver(layout)]
        for copy in range(8):
            stream = mutated_stream(rng, layout, packets) if copy else packets
            want = DecodeCheckSets()
            for keys in stream:
                want.add(keys)
            report = decode_keys(layout, stream)
            assert report == want.report(layout), (layout.params, copy)
            seen["stream"] += 1
            seen["failing"] += not report.ok
            seen.update({failure.reason for failure in report.failures})
    assert seen["failing"] >= 500, seen
    assert seen["never transmitted"] >= 100 and seen["all carriers blocked by unreadable terms"] >= 100


def test_miss_only_report_matches_the_per_user_walk():
    # seeded ring and subset runs up to K = 10 with 0-5 packets dropped and,
    # in some packets, a user w given a second demand term that another user
    # v of the packet cannot read either, which blocks w's and v's terms:
    # the report that walks only the places with a miss names the same
    # misses, in the same order, as the walk over every user's demand set
    rng = random.Random(20261034)
    grid = sweep_grid(3, 10)
    layouts = [build_layout(params) for params in rng.sample(grid, 24)]
    layouts += [
        build_subset_layout(SystemParams(k=k, l=1, ma=ga, mp=gp, n=k))
        for k, ga, gp in rng.sample(l1_instances(3, 10), 16)
    ]
    assert {layout.placement for layout in layouts if layout.params.ga} == {RING, SUBSET}
    seen = Counter()
    for layout in layouts:
        places = Places(layout)
        packets = [places.keys(terms) for _, terms in deliver(layout)]
        for dropped in range(6):
            stream = [list(keys) for keys in packets]
            for _ in range(min(dropped, len(stream))):
                del stream[rng.randrange(len(stream))]
            for _ in range(rng.randint(0, 2) if dropped and stream else 0):
                keys = rng.choice(stream)
                if len(keys) < 2:
                    continue
                w, v = rng.sample([user for user, _, _ in keys], 2)
                both = bit(w) | bit(v)
                pairs = [pair for pair in places.pairs if not (pair[0] | pair[1]) & both]
                if pairs:
                    keys.insert(rng.randrange(len(keys) + 1), (w, *rng.choice(pairs)))
            want = DecodeCheckSets()
            for keys in stream:
                want.add(keys)
            report = decode_keys(layout, stream)
            assert report == want.report(layout), (layout.params, dropped)
            seen["ok" if report.ok else "failing"] += 1
            seen.update(failure.reason for failure in report.failures)
    assert seen["ok"] >= 40 and seen["failing"] >= 150, seen
    assert seen["never transmitted"] >= 300, seen
    assert seen["all carriers blocked by unreadable terms"] >= 100, seen


def test_decode_check_memory_is_per_pair_not_per_key():
    # K=14: 11,760 demand keys over F=1,680 pairs; the key sets and the
    # per-user demand sets took about 3 MB, the ledgers take under 1 MB
    layout = build_layout(params_from_gammas(14, 2, 2, 3, 14))
    tracemalloc.start()
    try:
        report = verify_decodability(layout, deliver(layout))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.ok and report.checked == 11_760
    assert peak < 1_500_000, peak
    check = DecodeCheck(Places(layout).unions())
    for _, terms in deliver(layout):
        check.add(terms)
    assert len(check.peeled) == len(check.blocked) == layout.f
