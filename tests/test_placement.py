"""Cache placement against the worked instances and its exact size budgets."""

from dataclasses import replace
from fractions import Fraction

import pytest

from ringcache.model import (
    InvalidParameters,
    RegimeError,
    SystemParams,
    binom,
    bit,
    bits,
    mask_of,
    popcount,
    window_mask,
)
from ringcache.placement import (
    SUBSET,
    _check_memory,
    build_layout,
    build_subset_layout,
    demand_pairs,
    layout_to_json,
    subpacketization,
    t_sets,
)

from helpers import accessible_subfile_windows, reads, window_end
from golden import EX5, EX5_PRIVATE, EX5_SPLIT, EX5_WINDOWS, EX7, EX7_DEMAND_1, EX7_PRIVATE_2
from l1 import l1_instances


@pytest.fixture(scope="module")
def layout5():
    return build_layout(SystemParams(**EX5))


@pytest.fixture(scope="module")
def layout7():
    return build_layout(SystemParams(**EX7))


def test_ex5_subpacketization(layout5):
    assert layout5.f == 15


def test_ex5_access_caches(layout5):
    # shared cache k holds the single original subfile index k of every file
    for k in range(1, 6):
        assert layout5.access[k - 1] == (window_mask(k, 2, 5),)
        assert [window_end(s, 5, 2) for s in layout5.access[k - 1]] == [k]


def test_ex5_reindexing(layout5):
    for original, window in EX5_WINDOWS.items():
        assert bits(layout5.shared_sets[original - 1]) == tuple(sorted(window))


def test_ex5_mini_split(layout5):
    params = layout5.params
    for window, tails in EX5_SPLIT.items():
        got = list(t_sets(params, mask_of(window)))
        assert got == [mask_of(t) for t in tails]


def test_ex5_private_caches(layout5):
    for u, pairs in EX5_PRIVATE.items():
        expected = {(mask_of(s), mask_of(t)) for s, t in pairs}
        assert set(layout5.private[u - 1]) == expected
        assert len(layout5.private[u - 1]) == len(expected)


def test_ex7_private_cache_2(layout7):
    expected = {(mask_of(s), mask_of(t)) for s, t in EX7_PRIVATE_2}
    assert set(layout7.private[1]) == expected
    assert len(layout7.private[1]) == len(expected)
    assert layout7.f == 35


def test_ex7_demand_set_user1(layout7):
    got = demand_pairs(layout7.params, 1)
    assert got == tuple((mask_of(s), mask_of(t)) for s, t in EX7_DEMAND_1)
    assert len(got) == 20


def test_ex5_user1_reachable_windows(layout5):
    assert [bits(w) for w in accessible_subfile_windows(layout5, 1)] == [(1, 2), (1, 5)]


def test_no_overlap_between_private_and_access():
    for k, l, ga, gp in [(5, 2, 1, 1), (7, 2, 1, 1), (8, 2, 1, 2), (9, 3, 1, 2), (10, 1, 3, 1)]:
        params = SystemParams(k=k, l=l, ma=Fraction(k * ga, k), mp=Fraction(k * gp, k), n=k)
        layout = build_layout(params)
        for u in range(1, k + 1):
            for s, t in layout.private[u - 1]:
                assert not s & bit(u)
                assert t & bit(u)


def test_memory_budgets_exact():
    # cache occupancy in mini-subfile units must equal size * F exactly
    for k, l, ga, gp in [(5, 2, 1, 1), (6, 2, 1, 0), (7, 2, 1, 1), (9, 3, 1, 2), (12, 2, 2, 3)]:
        n = k
        params = SystemParams(k=k, l=l, ma=Fraction(n * ga, k), mp=Fraction(n * gp, k), n=n)
        layout = build_layout(params)
        f = layout.f
        minis_per_subfile = f // k  # general path: each subfile splits evenly
        # every cache holds its pattern of each of the n files
        for cache in layout.access:
            held = n * len(cache) * minis_per_subfile
            assert Fraction(held, f) == params.ma
        for cell in layout.private:
            assert Fraction(n * len(cell), f) == params.mp


@pytest.mark.parametrize("system", [EX5, EX7, dict(k=8, l=1, ma=6, mp=2, n=16)])
@pytest.mark.parametrize("side", ["access", "private"])
def test_check_memory_rejects_a_cache_one_entry_short(system, side):
    params = SystemParams(**system)
    layout = build_subset_layout(params) if params.l == 1 else build_layout(params)
    _check_memory(layout)
    for i, cell in enumerate(getattr(layout, side)):
        caches = list(getattr(layout, side))
        caches[i] = cell[:-1]
        with pytest.raises(AssertionError, match="wrong"):
            _check_memory(replace(layout, **{side: tuple(caches)}))


def test_partition_of_subfiles_and_minis(layout5):
    params = layout5.params
    windows = list(layout5.shared_sets)
    assert len(set(windows)) == 5
    for w in windows:
        tails = list(t_sets(params, w))
        assert len(tails) == 3
        assert len(set(tails)) == 3
        for t in tails:
            assert t & w == 0


def test_has_mini_trichotomy():
    # every (S, T) of the placement is either in user u's caches, and then
    # u is in S | T, or in u's demand set, and then it is not
    for system in (EX5, EX7, dict(k=8, l=1, ma=3, mp=1, n=8)):
        params = SystemParams(**system)
        layout = build_subset_layout(params) if params.l == 1 else build_layout(params)
        pairs = [(s, t) for s in layout.shared_sets for t in t_sets(params, s)]
        assert len(pairs) == layout.f
        for u in range(1, params.k + 1):
            demanded = set(layout.demand_pairs(u))
            readable = {(s, t) for s, t in pairs if reads(layout, u, s, t)}
            assert not demanded & readable
            assert demanded | readable == set(pairs)
            for s, t in readable:
                assert (s | t) & bit(u)
            for s, t in demanded:
                assert not (s | t) & bit(u)


def test_has_mini_spot_examples(layout5):
    # user 1 reads S = {1,2} from shared cache 2, holds ({2,3}, {1})
    # privately, and has neither copy of ({2,3}, {4})
    assert reads(layout5, 1, mask_of((1, 2)), mask_of((3,)))
    assert reads(layout5, 1, mask_of((2, 3)), mask_of((1,)))
    assert not reads(layout5, 1, mask_of((2, 3)), mask_of((4,)))


def test_demand_set_sizes():
    for k, l, ga, gp in [(7, 2, 1, 1), (9, 3, 1, 2), (10, 2, 2, 2)]:
        params = SystemParams(k=k, l=l, ma=Fraction(k * ga, k), mp=Fraction(k * gp, k), n=k)
        span = params.span
        expected = (k - span) * binom(k - span - 1, gp)
        for u in range(1, k + 1):
            assert len(demand_pairs(params, u)) == expected


def test_full_private_coverage_leaves_no_demand():
    # gamma_p = K - span: users reach the whole library, demand sets empty
    params = SystemParams(k=5, l=2, ma=1, mp=3, n=5)
    assert all(not demand_pairs(params, u) for u in range(1, 6))
    layout = build_layout(params)
    assert layout.f == 5


def test_dedicated_mode_layout():
    # no shared layer: single empty window, F = C(K, gamma_p)
    params = SystemParams(k=5, l=2, ma=0, mp=2, n=5)
    layout = build_layout(params)
    assert layout.f == 10
    assert all(not cache for cache in layout.access)
    for u in range(1, 6):
        for s, t in layout.private[u - 1]:
            assert s == 0
            assert t & bit(u)
    assert len(layout.private[0]) == 4  # C(K-1, gamma_p-1), held of every file


def test_zero_memory_layout():
    params = SystemParams(k=6, l=2, ma=0, mp=0, n=6)
    layout = build_layout(params)
    assert layout.f == 1
    assert all(not cache for cache in layout.access)
    assert all(not cell for cell in layout.private)


def test_build_rejections():
    with pytest.raises(RegimeError):
        build_layout(SystemParams(k=5, l=2, ma=Fraction(1, 2), mp=1, n=5))
    with pytest.raises(InvalidParameters):
        build_layout(SystemParams(k=5, l=2, ma=3, mp=0, n=5))  # span 6 > K
    with pytest.raises(InvalidParameters):
        build_layout(SystemParams(k=5, l=2, ma=1, mp=4, n=5))  # gamma_p > K - span
    with pytest.raises(RegimeError):
        build_subset_layout(SystemParams(k=5, l=2, ma=1, mp=1, n=5))  # needs L = 1
    with pytest.raises(InvalidParameters):
        build_subset_layout(SystemParams(k=5, l=1, ma=2, mp=4, n=5))  # gamma_p > K - gamma_a


def test_layout_json_golden(layout5):
    js = layout_to_json(layout5)
    assert js["F"] == 15
    assert js["access"]["1"] == [f"{n}:1,5" for n in range(1, 6)]
    assert js["private"]["5"][:3] == ["1:1,2:5", "1:2,3:5", "1:3,4:5"]
    assert set(js) == {"K", "L", "N", "Ma", "Mp", "F", "access", "private"}


def test_subpacketization_formulas():
    assert subpacketization(SystemParams(k=7, l=2, ma=1, mp=1, n=7)) == 35
    assert subpacketization(SystemParams(k=5, l=2, ma=0, mp=2, n=5)) == 10
    assert subpacketization(SystemParams(k=6, l=3, ma=1, mp=0, n=6)) == 6


def test_subset_layout_fills_budgets_exactly():
    # every cache holds exactly Ma * F and Mp * F mini-subfiles, and each
    # entry sits where the subset placement puts it
    for k, ga, gp in l1_instances(3, 10):
        params = SystemParams(k=k, l=1, ma=ga, mp=gp, n=k)
        layout = build_subset_layout(params)
        f = layout.f
        assert layout.placement == SUBSET
        assert f == binom(k, ga) * binom(k - ga, gp)
        for cache, entries in enumerate(layout.access, start=1):
            assert Fraction(k * len(entries) * binom(k - ga, gp), f) == params.ma
            assert len(set(entries)) == len(entries)
            assert all(popcount(s) == ga and s & bit(cache) for s in entries)
        for u, cell in enumerate(layout.private, start=1):
            assert Fraction(k * len(cell), f) == params.mp
            assert len(set(cell)) == len(cell)
            for s, t in cell:
                assert t & bit(u) and not s & bit(u)
                assert not s & t
                assert (popcount(s), popcount(t)) == (ga, gp)

