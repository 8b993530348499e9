"""Closed forms: counting, rate, cut-set bound, optimality, memory sharing."""

import itertools
import math
import random
import re
from collections import Counter
from fractions import Fraction

import pytest

from ringcache import analysis
from ringcache.model import RegimeError, SystemParams, binom, params_from_gammas
from ringcache.analysis import (
    TransmissionCounts,
    achievable_rate,
    cutset_bound,
    memory_share,
    rate_closed_form,
    rate_with_sharing,
    table1_counts,
)
from ringcache.verify import sweep_grid

from helpers import (
    closed_form_reference,
    counts_reference,
    cutset_bound_fraction_reference,
    cutset_bound_reference,
    cutset_terms,
    large_memory,
    memory_share_reference,
    sweep_row_reference,
)


def test_counts_worked_instances():
    c = table1_counts(SystemParams(k=7, l=2, ma=1, mp=1, n=7))
    assert (c.subsets, c.sc1, c.sc2, c.transmissions, c.f) == (35, 7, 7, 56, 35)
    assert c.general == 21
    c = table1_counts(SystemParams(k=5, l=2, ma=1, mp=1, n=5))
    assert (c.subsets, c.sc1, c.sc2, c.transmissions, c.f) == (5, 0, 0, 10, 15)


def test_counts_below_boundary_have_no_sc2():
    # gamma_p < span - 1 never produces disjoint-pair subsets
    c = table1_counts(params_from_gammas(9, 2, 2, 1, 9))
    assert c.sc2 == 0
    c = table1_counts(params_from_gammas(12, 3, 1, 1, 12))
    assert c.sc2 == 0


def test_counts_regime_rejections():
    # one rule, one message, whichever way the point misses it
    for k, l, ga, gp in [
        (5, 2, 0, 1),  # no shared layer
        (5, 2, 1, 2),  # gamma_p >= span
        (6, 3, 2, 0),  # full shared coverage
        (5, 2, 2, 1),  # union set exceeds ring
        (7, 2, 1, 4),  # whole ring: span + gamma_p = K - 1, where the rate is 1/K
        (5, 2, 1, 3),  # covered: span + gamma_p = K, where the rate is 0
    ]:
        message = (
            f"K={k} L={l} gamma_a={ga} gamma_p={gp} (span {ga * l}) is outside the"
            " counting regime 0 <= gamma_p < span < K - gamma_p"
        )
        params = params_from_gammas(k, l, ga, gp, k)
        for counted in (table1_counts, rate_closed_form):
            with pytest.raises(RegimeError, match=f"^{re.escape(message)}$"):
                counted(params)


def test_rate_worked_instances():
    assert achievable_rate(SystemParams(k=5, l=2, ma=1, mp=1, n=5)) == Fraction(2, 3)
    assert achievable_rate(SystemParams(k=7, l=2, ma=1, mp=1, n=7)) == Fraction(8, 5)


def test_rate_large_memory_boundary():
    # span + gamma_p = K - 1 always lands on 1/K
    for k, l, ga, gp in [(4, 2, 1, 1), (7, 2, 2, 2), (12, 3, 2, 5), (30, 3, 6, 11)]:
        params = params_from_gammas(k, l, ga, gp, k)
        assert params.span + gp == k - 1
        assert achievable_rate(params) == Fraction(1, k)
    # ... including gamma_p >= span, where the counting columns do not apply
    params = params_from_gammas(6, 2, 1, 3, 6)
    assert achievable_rate(params) == Fraction(1, 6)


def test_rate_full_memory_is_zero():
    assert achievable_rate(SystemParams(k=5, l=2, ma=1, mp=3, n=5)) == 0
    assert achievable_rate(SystemParams(k=6, l=3, ma=2, mp=0, n=6)) == 0
    assert achievable_rate(SystemParams(k=6, l=2, ma=2, mp=2, n=6)) == 0


def test_rate_uncharacterized_regime_rejected():
    with pytest.raises(RegimeError):
        achievable_rate(SystemParams(k=8, l=2, ma=1, mp=3, n=8))


def test_rate_dedicated_mode():
    # no shared layer: C(K, t+1) / C(K, t) at t = gamma_p
    for k in range(3, 11):
        for t in range(0, k + 1):
            params = SystemParams(k=k, l=1, ma=0, mp=Fraction(k * t, k), n=k)
            assert achievable_rate(params) == Fraction(binom(k, t + 1), binom(k, t))


def test_closed_form_equals_counts_everywhere():
    for params in sweep_grid(4, 12):
        c = table1_counts(params)
        assert rate_closed_form(params) == Fraction(c.transmissions, c.f)


def test_two_binomial_tails_match_the_summed_tails_up_to_64_users():
    # every counting-regime triple 0 <= gamma_p < span < K - gamma_p the
    # bitmasks allow: each transcription equals its summed-tail original
    triples = 0
    for k in range(1, 65):
        for w in range(1, k):
            for gp in range(min(w, k - w)):
                assert analysis._counts(k, w, gp) == counts_reference(k, w, gp), (k, w, gp)
                assert analysis._closed_form(k, w, gp) == closed_form_reference(k, w, gp), (k, w, gp)
                triples += 1
    assert triples == 22352


def test_cutset_examples():
    assert cutset_bound(SystemParams(k=5, l=2, ma=1, mp=1, n=5)) == Fraction(2, 5)
    assert cutset_bound(SystemParams(k=6, l=2, ma=0, mp=0, n=6)) == 6
    # s = 1 term alone forces 1/K on the optimality boundary
    params = SystemParams(k=30, l=3, ma=6, mp=11, n=30)
    assert cutset_bound(params) >= Fraction(1, 30)


def test_cutset_never_negative():
    assert cutset_bound(SystemParams(k=4, l=2, ma=2, mp=2, n=4)) == 0


def test_cutset_bound_matches_fraction_reference():
    # seeded grid: K <= 64, 1 <= L <= K, K <= N <= 3K+5, fractional Ma and Mp,
    # half of them small enough that the bound is positive
    rng = random.Random(5)
    zero = ties = 0
    for _ in range(1500):
        k = rng.randint(1, 64)
        l = rng.randint(1, k)
        n = rng.randint(k, 3 * k + 5)
        top = rng.choice((min(n, n // k + 1), n))
        da, dp = rng.randint(1, 6), rng.randint(1, 6)
        params = SystemParams(
            k, l, Fraction(rng.randint(0, top * da), da), Fraction(rng.randint(0, top * dp), dp), n
        )
        bound = cutset_bound(params)
        assert bound == cutset_bound_fraction_reference(params), params
        terms = cutset_terms(params)
        zero += bound == 0
        ties += bound > 0 and terms.count(bound) > 1
    # the grid reaches the floor at 0 and maxima shared by several s
    assert zero > 100
    assert ties > 5


def test_cutset_bound_matches_the_min_per_term_loop():
    # seeded grid: L = 1, L = K and L in between, N = K and N > K, integral
    # and fractional Ma and Mp; the split loop gives the one-min-per-s bound
    rng = random.Random(15)
    cases = positive = 0
    for k in range(1, 41):
        for l in sorted({1, k, rng.randint(1, k)}):
            for n in (k, k + rng.randint(1, 2 * k + 3)):
                for _ in range(4):
                    da, dp = rng.choice((1, 1, 2, 3, 7)), rng.choice((1, 1, 2, 5))
                    ma = Fraction(rng.randint(0, n * da), da)
                    mp = Fraction(rng.randint(0, (n * dp) // rng.randint(1, 4)), dp)
                    params = SystemParams(k, l, ma, mp, n)
                    bound = cutset_bound(params)
                    assert bound == cutset_bound_reference(params), params
                    cases += 1
                    positive += bound > 0
    assert cases == 880 and positive > 200


def test_cutset_keeps_the_lines_whose_intercept_beats_every_earlier_one():
    # seeded grid: K 1-64, L in {1, K, random}, N = K and N up to 3K + 5,
    # Ma in {0, N, fractional}, Mp in {0, N, denominators up to 10^6}; the
    # kept lines are those whose intercept s - p*ma/q beats 0 and every
    # earlier line's, and the bound over them is the bound over all K lines
    rng = random.Random(29)
    cases = positive = dropped = 0
    for k in range(1, 65):
        for l in sorted({1, k, rng.randint(1, k)}):
            for n in (k, rng.randint(k, 3 * k + 5)):
                den = rng.randint(1, 10**6)
                for ma in (Fraction(0), Fraction(n), Fraction(rng.randint(0, n * den // 4), den)):
                    lines = analysis._cutset_lines(k, l, n, ma)
                    kept, top = [], Fraction(0)
                    for s in range(1, k + 1):
                        q = n // s
                        intercept = s - min(s + l - 1, k) * ma / q
                        if intercept > top:
                            kept.append(s)
                            top = intercept
                    assert [size // ma.denominator for _, size, _ in lines] == kept
                    dropped += k - len(kept)
                    v = rng.randint(1, 10**6)
                    for mp in (0, n, Fraction(rng.randint(0, n * v // rng.choice((1, 4, 16))), v)):
                        params = SystemParams(k, l, ma, mp, n)
                        bound = cutset_bound(params)
                        assert bound == cutset_bound_reference(params), params
                        cases += 1
                        positive += bound > 0
    assert cases == 3222 and positive > 900 and dropped > 20_000, (cases, positive, dropped)


def test_the_rate_sweep_columns_keep_about_four_lines():
    # the columns of the rate-sweep benchmark (N = K, Ma in halves up to K/2):
    # a row evaluates a handful of lines, not K; with no shared layer every
    # intercept s grows with s, so all K are kept
    for k in (16, 24, 32, 40):
        counts = [
            len(analysis._cutset_lines(k, l, k, Fraction(twice_ma, 2)))
            for l in (1, 2, 3) for twice_ma in range(k + 1)
        ]
        assert sum(counts) / len(counts) <= 5, (k, sum(counts) / len(counts))
        for l in (1, 2, 3):
            assert len(analysis._cutset_lines(k, l, k, Fraction(0))) == k


def test_bound_sandwich_and_equality_region():
    for params in sweep_grid(4, 12):
        rate = achievable_rate(params)
        bound = cutset_bound(params)
        assert bound <= rate
        on_boundary = params.ma * params.l + params.mp >= Fraction(params.n) * (
            params.k - 1
        ) / params.k
        assert (bound == rate) == on_boundary
        if on_boundary:
            assert rate == Fraction(1, params.k)


def test_rate_monotone_in_private_memory():
    for k, l in [(6, 2), (9, 3), (12, 1), (12, 2)]:
        for ga in range(1, (k - 1) // l + 1):
            span = ga * l
            rates = [
                achievable_rate(params_from_gammas(k, l, ga, gp, k))
                for gp in range(0, min(span, k - span))
            ]
            assert all(a >= b for a, b in zip(rates, rates[1:]))


def test_rate_monotone_in_shared_memory():
    # the rate never rises with shared memory, L = 1 included: there the ring
    # placement's count would rise from 11/2 to 9 between gamma_a = 1 and 2
    # (K=12, gamma_p=0), but the reported rate is the subset placement's,
    # C(K, t+1)/C(K, t) at t = gamma_a + gamma_p, which falls as t grows
    for k, l, gp in [(12, 2, 1), (12, 3, 0), (9, 2, 0), (12, 1, 0), (12, 1, 1)]:
        rates = []
        for ga in range(1, k // l + 1):
            span = ga * l
            if span < k and gp < min(span, k - span):
                rates.append(achievable_rate(params_from_gammas(k, l, ga, gp, k)))
        assert all(a >= b for a, b in zip(rates, rates[1:]))
    mid = achievable_rate(params_from_gammas(12, 1, 2, 0, 12))
    low = achievable_rate(params_from_gammas(12, 1, 1, 0, 12))
    assert mid < low


def test_is_optimal_examples():
    # at these integral points the rate meets the bound exactly where the
    # paper's large-memory condition holds
    for ma, mp, large in ((6, 11, True), (9, 2, True), (6, 1, False)):
        params = SystemParams(k=30, l=3, ma=ma, mp=mp, n=30)
        assert large_memory(params) is large
        assert (achievable_rate(params) == cutset_bound(params)) is large


def test_large_memory_integral_points_meet_the_bound():
    # the paper's optimality theorem: in the large-memory regime the scheme
    # meets the cut-set bound, checked at every integral point of the grid
    checked = 0
    for k in range(2, 13):
        for l in range(1, k + 1):
            for n in (k, 2 * k + 1):
                for ga in range(k + 1):
                    for gp in range(k + 1):
                        params = params_from_gammas(k, l, ga, gp, n)
                        if not large_memory(params):
                            continue
                        try:
                            rate = achievable_rate(params)
                        except RegimeError:
                            continue
                        assert rate == cutset_bound(params), (k, l, n, ga, gp)
                        checked += 1
    assert checked == 12852


def test_memory_share_passthrough():
    params = SystemParams(k=7, l=2, ma=1, mp=1, n=7)
    share = memory_share(params)
    assert len(share.points) == 1
    assert share.points[0].weight == 1
    assert share.rate == achievable_rate(params)


def test_memory_share_private_axis():
    params = SystemParams(k=10, l=3, ma=1, mp=Fraction(3, 2), n=10)
    share = memory_share(params)
    r1 = achievable_rate(SystemParams(k=10, l=3, ma=1, mp=1, n=10))
    r2 = achievable_rate(SystemParams(k=10, l=3, ma=1, mp=2, n=10))
    assert share.rate == Fraction(1, 2) * r1 + Fraction(1, 2) * r2
    assert min(r1, r2) <= share.rate <= max(r1, r2)


def test_memory_share_shared_axis():
    params = SystemParams(k=10, l=2, ma=Fraction(3, 2), mp=1, n=10)
    share = memory_share(params)
    r1 = achievable_rate(SystemParams(k=10, l=2, ma=1, mp=1, n=10))
    r2 = achievable_rate(SystemParams(k=10, l=2, ma=2, mp=1, n=10))
    assert share.rate == Fraction(1, 2) * r1 + Fraction(1, 2) * r2


def test_memory_share_bilinear():
    params = SystemParams(k=12, l=2, ma=Fraction(5, 2), mp=Fraction(3, 2), n=12)
    share = memory_share(params)
    assert len(share.points) == 4
    total = Fraction(0)
    acc_ma = Fraction(0)
    acc_mp = Fraction(0)
    for pt in share.points:
        corner = params_from_gammas(12, 2, pt.gamma_a, pt.gamma_p, 12)
        assert pt.rate == achievable_rate(corner)
        total += pt.weight * pt.rate
        acc_ma += pt.weight * corner.ma
        acc_mp += pt.weight * corner.mp
    assert total == share.rate
    # the split files refill exactly the requested cache sizes
    assert acc_ma == params.ma
    assert acc_mp == params.mp
    assert sum(pt.weight for pt in share.points) == 1


def test_memory_share_corners_match_params_path():
    # each corner rate equals achievable_rate on the corner's own params, and
    # a rejected corner carries that path's message
    rng = random.Random(11)
    shared = rejected = 0
    for _ in range(400):
        k = rng.randint(2, 24)
        l = rng.randint(1, k)
        n = rng.randint(k, 3 * k + 5)
        den = rng.randint(2, 7)
        params = SystemParams(
            k, l, Fraction(rng.randint(0, n * den), den), Fraction(rng.randint(0, n * den), den), n
        )

        def corner(ga_c, gp_c):
            return SystemParams(k, l, Fraction(n * ga_c, k), Fraction(n * gp_c, k), n)

        try:
            share = memory_share(params)
        except RegimeError as exc:
            rejected += 1
            ga_c, gp_c = map(int, re.search(r"gamma_a=(\d+), gamma_p=(\d+)", str(exc)).groups())
            with pytest.raises(RegimeError) as direct:
                achievable_rate(corner(ga_c, gp_c))
            assert str(exc).endswith(f"unsupported: {direct.value}")
            continue
        shared += 1
        expected = {
            (a, p)
            for a in (math.floor(params.gamma_a), math.ceil(params.gamma_a))
            for p in (math.floor(params.gamma_p), math.ceil(params.gamma_p))
        }
        assert {(pt.gamma_a, pt.gamma_p) for pt in share.points} == expected
        for pt in share.points:
            assert pt.rate == achievable_rate(corner(pt.gamma_a, pt.gamma_p))
    assert shared > 100 and rejected > 10


def test_integer_kernel_matches_the_fraction_reference():
    # memory_share and rate_with_sharing against the Fraction loop they
    # replaced, per kind of point: the same corners, weights, rates and
    # rejection messages, at N = K and N != K
    rng = random.Random(14)
    seen = Counter()
    for i in range(2400):
        k = rng.randint(2, 24)
        l = rng.randint(1, min(3, k)) if i % 8 < 6 else rng.randint(1, k)
        n = rng.choice((k, k + 1, 2 * k + 1, 3 * k + 5))
        kind = ("integral", "gamma_a", "gamma_p", "both")[i % 4]

        def gamma(fractional):
            if not fractional:
                return Fraction(rng.randint(0, k))
            den = rng.randint(2, 9)
            return Fraction(den * rng.randrange(k) + rng.randint(1, den - 1), den)

        ga, gp = gamma(kind in ("gamma_a", "both")), gamma(kind in ("gamma_p", "both"))
        params = params_from_gammas(k, l, ga, gp, n)
        assert (params.gamma_a, params.gamma_p) == (ga, gp)
        try:
            expected = memory_share_reference(params)
        except RegimeError as exc:
            with pytest.raises(RegimeError) as got:
                memory_share(params)
            assert str(got.value) == str(exc)
            if not params.integral:
                with pytest.raises(RegimeError) as got:
                    rate_with_sharing(params)
                assert str(got.value) == str(exc)
            seen[kind, n == k, "rejected"] += 1
            continue
        share = memory_share(params)
        assert share == expected
        assert all(type(pt.weight) is Fraction for pt in share.points)
        assert sum(pt.weight for pt in share.points) == 1
        assert rate_with_sharing(params) == expected.rate
        seen[kind, n == k, "shared"] += 1
    for kind in ("integral", "gamma_a", "gamma_p", "both"):
        for same_n in (True, False):
            assert seen[kind, same_n, "shared"] >= 50, seen
            assert seen[kind, same_n, "rejected"] >= 5, seen


def test_count_law_cross_check_runs_on_every_rate(monkeypatch):
    # a closed form that drifts from the count law, or a count law that
    # drifts from the closed form, is caught by a direct rate and by every
    # memory-sharing corner rate
    for name, drifted in [
        ("_closed_form", lambda k, w, gp: (1, 10**9)),
        ("_counts", lambda k, w, gp: TransmissionCounts(1, 0, 0, 1, 10**9)),
    ]:
        with monkeypatch.context() as patch:
            patch.setattr(analysis, name, drifted)
            with pytest.raises(AssertionError, match="diverge"):
                achievable_rate(SystemParams(k=7, l=2, ma=1, mp=1, n=7))
            with pytest.raises(AssertionError, match="diverge"):
                memory_share(SystemParams(k=10, l=3, ma=1, mp=Fraction(3, 2), n=10))


def test_memory_share_corner_rejection():
    # floor corner with gamma_p >= span and mid-memory: unsupported, named
    params = SystemParams(k=12, l=2, ma=1, mp=Fraction(5, 2), n=12)
    with pytest.raises(RegimeError, match="corner"):
        memory_share(params)


def test_a_sweep_rates_each_corner_once_refused_or_not(monkeypatch):
    # columns across the band (gamma_p >= span below the large-memory
    # regime, where no rate is claimed), one of them mixing gamma_a corners:
    # every corner is rated once, a refused one too, and each point's note
    # is the one the per-row path gives
    calls = Counter()
    rate = analysis._rate

    def counting(*corner):
        calls[corner] += 1
        return rate(*corner)

    k, l, n = 16, 2, 16
    mas = [Fraction(1), Fraction(3, 2), Fraction(2)]
    mps = [(u, 2) for u in range(17)]  # Mp = 0, 1/2, ..., 8
    with monkeypatch.context() as patch:
        patch.setattr(analysis, "_rate", counting)
        notes = [point[-1] for point in analysis.sweep(k, l, n, mas, mps)]
    assert set(calls.values()) == {1}
    expected = [sweep_row_reference(k, l, n, ma, Fraction(u, v))[-1]
                for ma, (u, v) in itertools.product(mas, mps)]
    assert notes == expected
    kinds = Counter("corner" in note if note else None for note in notes)
    assert kinds[None] >= 10 and kinds[False] >= 10 and kinds[True] >= 10, kinds


def test_rate_with_sharing_dispatch():
    integral = SystemParams(k=7, l=2, ma=1, mp=1, n=7)
    assert rate_with_sharing(integral) == Fraction(8, 5)
    fractional = SystemParams(k=10, l=3, ma=1, mp=Fraction(3, 2), n=10)
    assert rate_with_sharing(fractional) == memory_share(fractional).rate
