"""Cache placement against the worked instances and its exact size budgets."""

import gc
import itertools
import json
import random
import tracemalloc
from fractions import Fraction

import pytest

import ringcache.placement

from ringcache.model import (
    InvalidParameters,
    RegimeError,
    SystemParams,
    binom,
    bit,
    bits,
    cyc,
    mask_of,
    window_mask,
)
from ringcache.placement import (
    RING,
    SUBSET,
    _check_memory,
    _rank_offsets,
    build_layout,
    build_subset_layout,
    demand_pairs,
    layout_to_json,
    private_pairs,
    subpacketization,
)
from ringcache.verify import sweep_grid

from helpers import (
    accessible_subfile_windows,
    demand_pairs_reference,
    layout_reference_dict,
    places_reference,
    popcount,
    private_cache_reference,
    reads,
    shared_sets,
    window_end,
)
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
        assert bits(shared_sets(layout5)[original - 1]) == tuple(sorted(window))


def test_ex5_mini_split(layout5):
    for window, tails in EX5_SPLIT.items():
        got = [t for s, t in zip(layout5.s_of, layout5.t_of) if s == mask_of(window)]
        assert got == [mask_of(t) for t in tails]


def test_ex5_private_caches(layout5):
    for u, pairs in EX5_PRIVATE.items():
        expected = {(mask_of(s), mask_of(t)) for s, t in pairs}
        assert set(private_pairs(layout5, u)) == expected
        assert len(private_pairs(layout5, u)) == len(expected)


def test_ex7_private_cache_2(layout7):
    expected = {(mask_of(s), mask_of(t)) for s, t in EX7_PRIVATE_2}
    assert set(private_pairs(layout7, 2)) == expected
    assert len(private_pairs(layout7, 2)) == len(expected)
    assert layout7.f == 35


def test_ex7_demand_set_user1(layout7):
    got = demand_pairs(layout7, 1)
    assert got == tuple((mask_of(s), mask_of(t)) for s, t in EX7_DEMAND_1)
    assert len(got) == 20


def test_ex5_user1_reachable_windows(layout5):
    assert [bits(w) for w in accessible_subfile_windows(layout5, 1)] == [(1, 2), (1, 5)]


def test_no_overlap_between_private_and_access():
    for k, l, ga, gp in [(5, 2, 1, 1), (7, 2, 1, 1), (8, 2, 1, 2), (9, 3, 1, 2), (10, 1, 3, 1)]:
        params = SystemParams(k=k, l=l, ma=Fraction(k * ga, k), mp=Fraction(k * gp, k), n=k)
        layout = build_layout(params)
        for u in range(1, k + 1):
            for s, t in private_pairs(layout, u):
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
        for u in range(1, k + 1):
            assert Fraction(n * len(private_pairs(layout, u)), f) == params.mp


@pytest.mark.parametrize("system", [EX5, EX7, dict(k=8, l=1, ma=6, mp=2, n=16)])
@pytest.mark.parametrize("side", ["access", "private"])
def test_check_memory_rejects_a_cache_one_entry_short(system, side):
    params = SystemParams(**system)
    layout = build_subset_layout(params) if params.l == 1 else build_layout(params)
    _check_memory(layout)
    if side == "access":
        for i, cache in enumerate(layout.access):
            access = layout.access[:i] + (cache[:-1],) + layout.access[i + 1 :]
            with pytest.raises(AssertionError, match="wrong"):
                _check_memory(layout._replace(access=access))
        return
    # private caches are read off the record: dropping any one place (the
    # last one included) from both s_of and t_of leaves each user of its T
    # one entry short, and between them the dropped T reach every user's cache
    reached = 0
    s_of, t_of = layout.s_of, layout.t_of
    for p, t in enumerate(t_of):
        short = layout._replace(s_of=s_of[:p] + s_of[p + 1 :], t_of=t_of[:p] + t_of[p + 1 :])
        with pytest.raises(AssertionError, match="private cache"):
            _check_memory(short)
        reached |= t
    assert reached == (1 << params.k) - 1


def test_check_memory_rejects_a_record_short_of_f_pairs():
    # at gamma_p = 0 no private cache counts the pairs: dropping the first
    # place leaves 5 pairs against F = 6, which only the F check sees, as it
    # sees a place dropped from s_of or from t_of alone
    layout = build_layout(SystemParams(k=6, l=2, ma=1, mp=0, n=6))
    _check_memory(layout)
    assert layout.f == 6 and layout.t_of[0] == 0
    s_of, t_of = layout.s_of, layout.t_of
    for short in (dict(s_of=s_of[1:], t_of=t_of[1:]), dict(s_of=s_of[1:]), dict(t_of=t_of[1:])):
        with pytest.raises(AssertionError, match="the record holds a wrong mini-subfile count"):
            _check_memory(layout._replace(**short))


@pytest.mark.parametrize("system", [EX5, EX7, dict(k=8, l=1, ma=6, mp=2, n=16)])
def test_check_memory_rejects_a_t_that_meets_its_s(system):
    # private caches are counted from T alone, so a T that also holds a
    # member of its S is refused by name, wherever it sits in the record
    params = SystemParams(**system)
    layout = build_subset_layout(params) if params.l == 1 else build_layout(params)
    s_of, t_of = layout.s_of, layout.t_of
    for p in range(0, layout.f, max(1, layout.f // 10)):
        met = t_of[:p] + (t_of[p] | s_of[p] & -s_of[p],) + t_of[p + 1 :]
        with pytest.raises(AssertionError, match="T meets its shared set S"):
            _check_memory(layout._replace(t_of=met))


def test_ring_record_at_full_span_holds_one_pair_for_k_subfiles():
    # K=2 L=2 Ma=1: each window is the whole ring, and the record holds one
    # (S, T) pair for each of the F = K = 2 subfiles, one per window end
    layout = build_layout(SystemParams(k=2, l=2, ma=1, mp=0, n=2))
    assert layout.placement == RING and layout.width == 2
    assert (layout.s_of, layout.t_of) == ((0b11,) * 2, (0,) * 2)
    assert layout.f == 2
    _check_memory(layout)


@pytest.mark.parametrize("seed", range(4))
def test_record_holds_the_pairs_s_by_s_and_each_t_lexicographically(seed):
    # the record against the order rebuilt from the shared sets and T lists,
    # over seeded points of both placements, with the edge shapes always in
    rng = random.Random(seed)
    points = [(4, 2, 2, 0), (6, 3, 2, 0), (7, 2, 0, 4), (8, 1, 0, 3), (6, 2, 1, 0), (8, 1, 3, 0)]
    while len(points) < 16:
        k = rng.randint(1, 9)
        l = rng.randint(1, k)
        ga = rng.randint(0, k // l)
        gp = rng.randint(0, k - (ga if l == 1 else ga * l))
        points.append((k, l, ga, gp))
    for k, l, ga, gp in points:
        params = SystemParams(k=k, l=l, ma=ga, mp=gp, n=k)
        placements = [(RING, build_layout)] + [(SUBSET, build_subset_layout)] * (l == 1 or ga == 0)
        for placement, build in placements:
            layout = build(params)
            assert (layout.s_of, layout.t_of) == places_reference(params, placement), (
                k, l, ga, gp, placement
            )
            assert layout.f == len(layout.t_of) == subpacketization(params, placement)


def test_layout_grows_with_f_not_with_private_copies():
    # K=20 L=2 gamma_a=3 gamma_p=4 (F = 20,020): the record holds each (S, T)
    # once, about 47 bytes per F traced (a T int and a pointer in each of
    # s_of and t_of); per-user private tuples, which hold gamma_p * F pairs,
    # took about 295
    params = SystemParams(k=20, l=2, ma=3, mp=4, n=20)
    build_layout(SystemParams(**EX5))
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        layout = build_layout(params)
        size = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert layout.f == 20_020
    assert size < 64 * layout.f, size / layout.f


def test_partition_of_subfiles_and_minis(layout5):
    windows = list(shared_sets(layout5))
    assert len(set(windows)) == 5
    for w in windows:
        tails = [t for s, t in zip(layout5.s_of, layout5.t_of) if s == w]
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
        pairs = list(zip(layout.s_of, layout.t_of))
        assert len(set(pairs)) == layout.f
        for u in range(1, params.k + 1):
            demanded = set(demand_pairs(layout, u))
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
        layout = build_layout(params)
        for u in range(1, k + 1):
            assert len(demand_pairs(layout, u)) == expected


def test_full_private_coverage_leaves_no_demand():
    # gamma_p = K - span: users reach the whole library, demand sets empty
    params = SystemParams(k=5, l=2, ma=1, mp=3, n=5)
    layout = build_layout(params)
    assert all(not demand_pairs(layout, u) for u in range(1, 6))
    assert layout.f == 5


def test_dedicated_mode_layout():
    # no shared layer: single empty window, F = C(K, gamma_p)
    params = SystemParams(k=5, l=2, ma=0, mp=2, n=5)
    layout = build_layout(params)
    assert layout.f == 10
    assert all(not cache for cache in layout.access)
    for u in range(1, 6):
        for s, t in private_pairs(layout, u):
            assert s == 0
            assert t & bit(u)
    assert len(private_pairs(layout, 1)) == 4  # C(K-1, gamma_p-1), held of every file


def test_zero_memory_layout():
    params = SystemParams(k=6, l=2, ma=0, mp=0, n=6)
    layout = build_layout(params)
    assert layout.f == 1
    assert all(not cache for cache in layout.access)
    assert all(not private_pairs(layout, u) for u in range(1, 7))


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
    parts = []
    layout_to_json(layout5, parts.append)
    js = json.loads("".join(parts))
    assert js["F"] == 15
    assert js["access"]["1"] == [f"{n}:1,5" for n in range(1, 6)]
    assert js["private"]["5"][:3] == ["1:1,2:5", "1:2,3:5", "1:3,4:5"]
    assert set(js) == {"K", "L", "N", "Ma", "Mp", "F", "access", "private"}


def _dump_grid():
    """Layouts the CLI dumps: every valid (K <= 7, L, gamma_a, gamma_p) at
    N = K and N = 2K + 1, plus a seeded sample with 8 <= K <= 11."""
    rng = random.Random(8)
    shapes = [
        (k, l, ga, gp) for k in range(1, 8) for l in range(1, k + 1)
        for ga in range(k + 1) for gp in range(k + 1)
    ]
    shapes += [
        (k, rng.randint(1, 3), rng.randint(0, 3), rng.randint(0, 4))
        for k in (rng.randint(8, 11) for _ in range(40))
    ]
    layouts = []
    for k, l, ga, gp in shapes:
        for n in (k, 2 * k + 1):
            try:
                params = SystemParams(k=k, l=l, ma=Fraction(n * ga, k), mp=Fraction(n * gp, k), n=n)
                layouts.append(build_subset_layout(params) if l == 1 else build_layout(params))
            except (InvalidParameters, RegimeError):
                continue
    return layouts


def test_layout_json_matches_the_indenting_encoder():
    # the direct renderer is byte for byte what json.dumps(indent=2) makes
    # of the dump as a dict, and parses back to that dict
    layouts = _dump_grid()
    for layout in layouts:
        parts = []
        layout_to_json(layout, parts.append)
        text = "".join(parts)
        reference = layout_reference_dict(layout)
        assert text == json.dumps(reference, indent=2)
        assert json.loads(text) == reference
    # the grid reaches every rendering shape
    placements = {layout.placement for layout in layouts if layout.params.ga}
    assert placements == {RING, SUBSET}
    assert any(layout.params.ga == 0 for layout in layouts)  # empty access lists
    assert any(layout.params.gp == 0 for layout in layouts)  # empty private lists
    assert any(layout.params.n == 2 * layout.params.k + 1 for layout in layouts)
    assert Fraction(7, 3) in {layout.params.ma for layout in layouts}  # "Ma": "7/3"
    assert Fraction(14, 3) in {layout.params.mp for layout in layouts}


def test_layout_json_in_chunks_of_files_matches_the_indenting_encoder(monkeypatch):
    # chunks of 1 and 3 files split the caches of the dump grid at every
    # N, where one chunk per cache holds N <= DUMP_CHUNK_FILES files
    layouts = _dump_grid()
    for chunk in (1, 3):
        monkeypatch.setattr(ringcache.placement, "DUMP_CHUNK_FILES", chunk)
        for layout in layouts:
            parts = []
            layout_to_json(layout, parts.append)
            assert "".join(parts) == json.dumps(layout_reference_dict(layout), indent=2)
            p = layout.params
            filled = sum(1 for cache in layout.access if cache)
            filled += sum(1 for u in range(1, p.k + 1) if private_pairs(layout, u))
            assert len(parts) == 2 * p.k + 3 + filled * (-(-p.n // chunk) - 1)


def test_layout_json_writes_each_cache_once():
    # the header with the access opening, K access caches, the private
    # opening, K private caches and the closing brace: 2K + 3 writes
    for system in (EX5, EX7, dict(k=8, l=1, ma=6, mp=2, n=16), dict(k=7, l=2, ma=0, mp=4, n=14)):
        params = SystemParams(**system)
        layout = build_subset_layout(params) if params.l == 1 else build_layout(params)
        parts = []
        layout_to_json(layout, parts.append)
        assert len(parts) == 2 * params.k + 3
        assert parts[0].endswith('  "access": {\n') and parts[-1] == "\n  }\n}"
        assert parts[params.k + 1] == '\n  },\n  "private": {\n'
        for c, block in enumerate(parts[1 : params.k + 1] + parts[params.k + 2 : -1]):
            assert block.lstrip(",\n").startswith(f'    "{c % params.k + 1}": ')


def _access_by_window_mask(params):
    """Shared cache k's S masks built one ``window_mask`` per entry: the
    windows ending at <k + (j-1)L>, j = 1..gamma_a, in ascending end order."""
    k = params.k
    return tuple(
        tuple(
            window_mask(end, params.span, k)
            for end in sorted(cyc(cache + (j - 1) * params.l, k) for j in range(1, params.ga + 1))
        )
        for cache in range(1, k + 1)
    )


def test_access_caches_match_the_window_mask_construction():
    # the access tuples read off the window masks by end are the ones built
    # mask by mask, on the verify grid and where the span covers the ring
    # (one full window, repeated gamma_a times in every cache)
    full = [
        SystemParams(k=k, l=l, ma=k // l, mp=0, n=k)
        for k in range(1, 13) for l in range(1, k + 1) if k % l == 0
    ]
    grid = sweep_grid(1, 12)
    assert len(grid) > 200 and any(p.l == 1 for p in grid)
    for params in grid + full:
        layout = build_layout(params)
        assert layout.access == _access_by_window_mask(params), params
    assert any(p.ga > 1 for p in full)
    assert build_layout(SystemParams(k=6, l=2, ma=3, mp=0, n=6)).access == ((0b111111,) * 3,) * 6


def test_rank_offsets_match_brute_force():
    # by rank r, the offsets of the lexicographic gamma_p-subsets of
    # `outside` users that hold the r-th, read off every subset's mask; each
    # subset holds gamma_p ranks, so the table holds gamma_p * R offsets
    for outside in range(13):
        for gp in range(outside + 1):
            subsets = sorted(
                bits(mask) for mask in range(1 << outside) if popcount(mask) == gp
            )
            table = _rank_offsets(outside, gp)
            assert table == tuple(
                tuple(i for i, subset in enumerate(subsets) if r + 1 in subset)
                for r in range(outside)
            ), (outside, gp)
            assert sum(map(len, table)) == gp * binom(outside, gp)


class _CountedReads(tuple):
    """A tuple that counts its item reads and refuses to be iterated whole."""

    reads = 0

    def __getitem__(self, i):
        type(self).reads += 1
        return tuple.__getitem__(self, i)

    def __iter__(self):
        raise AssertionError("the record was scanned")


@pytest.mark.parametrize(
    "system",
    [
        dict(k=10, l=3, ma=4, mp=8, n=40),  # ring placement
        dict(k=8, l=1, ma=6, mp=2, n=16),  # subset placement at L = 1
        dict(k=7, l=2, ma=0, mp=4, n=14),  # no shared layer
        dict(k=4, l=2, ma=4, mp=0, n=8),  # span = K: every S holds every user
    ],
)
def test_a_dump_reads_each_private_entry_once(system):
    # over the K private caches of a dump, t_of is read once per private
    # entry of a file, gamma_p * F in all, and s_of once per (user, run
    # head), where a run is the C(K - width, gamma_p) places of one S
    params = SystemParams(**system)
    layout = build_subset_layout(params) if params.l == 1 else build_layout(params)
    run = binom(params.k - layout.width, params.gp)

    class SOf(_CountedReads):
        reads = 0

    class TOf(_CountedReads):
        reads = 0

    counted = layout._replace(s_of=SOf(layout.s_of), t_of=TOf(layout.t_of))
    parts = []
    layout_to_json(counted, parts.append)
    assert "".join(parts) == json.dumps(layout_reference_dict(layout), indent=2)
    assert TOf.reads == params.gp * layout.f
    assert SOf.reads == params.k * layout.f // run


def test_cells_match_the_per_user_enumeration():
    # private caches and demand sets, read off the record, are tuple for
    # tuple and in order what enumerating each (user, S) pair on its own
    # gives, on every valid (K <= 9, L, gamma_a, gamma_p) and on a seeded
    # sample at K 10-16
    layouts = []
    for k in range(1, 10):
        for l, ga, gp in itertools.product(range(1, k + 1), range(k + 1), range(k + 1)):
            params = SystemParams(k=k, l=l, ma=ga, mp=gp, n=k)
            for build in (build_layout, build_subset_layout):
                try:
                    layouts.append((build, build(params)))
                except (InvalidParameters, RegimeError):
                    continue
    rng, sampled = random.Random(27), []
    while len(sampled) < 24:
        k = rng.randint(10, 16)
        l = rng.choice((1, 1, 2, 3))
        build = build_subset_layout if l == 1 and rng.random() < 0.5 else build_layout
        ga = rng.randint(0, k // l)
        width = ga if build is build_subset_layout else ga * l
        params = SystemParams(k=k, l=l, ma=ga, mp=rng.randint(0, k - width), n=k)
        if subpacketization(params, SUBSET if build is build_subset_layout else RING) <= 20_000:
            sampled.append((build, build(params)))
    assert {layout.placement for _, layout in sampled if layout.params.ga} == {RING, SUBSET}
    layouts += sampled
    for _, layout in layouts:
        params, sets = layout.params, shared_sets(layout)
        for u in range(1, params.k + 1):
            assert private_pairs(layout, u) == private_cache_reference(params, sets, u)
            assert demand_pairs(layout, u) == demand_pairs_reference(params, sets, u)
    # the grid reaches both placements, no shared layer and no private one
    placements = {layout.placement for _, layout in layouts if layout.params.ga}
    assert placements == {RING, SUBSET}
    assert any(layout.params.ga == 0 for _, layout in layouts)
    assert any(layout.params.gp == 0 for _, layout in layouts)


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
        for u in range(1, k + 1):
            cell = private_pairs(layout, u)
            assert Fraction(k * len(cell), f) == params.mp
            assert len(set(cell)) == len(cell)
            for s, t in cell:
                assert t & bit(u) and not s & bit(u)
                assert not s & t
                assert (popcount(s), popcount(t)) == (ga, gp)

