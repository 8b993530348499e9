"""Acceptance criteria, one test per criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS/FAIL
lines. Criterion 7's dedicated-cache clause at L=1 holds because the rate
reported there is the subset placement's: with gamma_p=0 and
2 <= gamma_a <= K-2 the ring placement alone would need more than
C(K, t+1)/C(K, t), so at L=1 the library places, delivers and reports on
the subset placement, which reaches that rate and decodes.
"""

import io
import itertools
import random
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

from ringcache.model import SystemParams, binom, params_from_gammas
from ringcache.placement import build_layout
from ringcache.delivery import (
    GENERAL,
    SC1,
    SC2,
    verify_decodability,
    worst_case_demand,
)
from ringcache.analysis import (
    achievable_rate,
    cutset_bound,
    memory_share,
    rate_closed_form,
    rate_with_sharing,
    table1_counts,
)
from ringcache.verify import enumerate_transmission_subsets, sweep_grid
from ringcache.cli import main as cli_main

from helpers import materialize


def announce(num, name, ok, detail=""):
    note = f" ({detail})" if detail else ""
    print(f"[criterion {num}] {name}: {'PASS' if ok else 'FAIL'}{note}")


def run_cli(*argv):
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = cli_main(list(argv))
    return code, out.getvalue()


def test_criterion_1_worked_instance_5():
    started = time.monotonic()
    layout = build_layout(SystemParams(k=5, l=2, ma=1, mp=1, n=5))
    demand = worst_case_demand(5)
    result = materialize(layout, demand)
    report = verify_decodability(layout, result.packets())
    elapsed = time.monotonic() - started
    ok = (
        result.total == 10
        and layout.f == 15
        and result.rate == Fraction(2, 3)
        and all(len(tx.terms) == 3 for tx in result.transmissions)
        and report.ok
        and elapsed < 1.0
    )
    announce(1, "(5,2,1,1,5) golden run", ok, f"{result.total} tx, rate {result.rate}, {elapsed:.3f}s")
    assert ok


def test_criterion_2_worked_instance_7():
    started = time.monotonic()
    layout = build_layout(SystemParams(k=7, l=2, ma=1, mp=1, n=7))
    demand = worst_case_demand(7)
    result = materialize(layout, demand)
    report = verify_decodability(layout, result.packets())
    elapsed = time.monotonic() - started
    cases = (result.count(GENERAL), result.count(SC1), result.count(SC2))
    ok = (
        result.total == 56
        and cases == (42, 7, 7)
        and layout.f == 35
        and result.rate == Fraction(8, 5)
        and report.ok
        and elapsed < 1.0
    )
    announce(2, "(7,2,1,1,7) golden run", ok, f"split {cases}, rate {result.rate}, {elapsed:.3f}s")
    assert ok


def test_criterion_3_triple_agreement():
    started = time.monotonic()
    grid = sweep_grid(4, 12)
    failures = []
    for params in grid:
        counts = table1_counts(params)
        closed = rate_closed_form(params)
        census = enumerate_transmission_subsets(params)
        layout = build_layout(params)
        result = materialize(layout, worst_case_demand(params.k))
        f = counts.f
        values = {
            "closed form": closed,
            "count law": Fraction(counts.transmissions, f),
            "delivery": Fraction(result.total, f),
            "census": Fraction(census.transmissions, f),
        }
        if len(set(values.values())) != 1:
            failures.append((params.k, params.l, params.ga, params.gp, values))
        if (census.subsets, census.sc1, census.sc2) != (
            counts.subsets,
            counts.sc1,
            counts.sc2,
        ):
            failures.append((params.k, params.l, params.ga, params.gp, "class split"))
    elapsed = time.monotonic() - started
    ok = not failures and elapsed < 120.0
    announce(3, "triple agreement sweep", ok, f"{len(grid)} instances, {elapsed:.1f}s")
    assert ok, failures[:3]


def test_criterion_4_decodability_universality():
    shapes = sorted({(p.k, p.span, p.gp) for p in sweep_grid(4, 6)})
    failures = []
    checked = 0
    for k, span, gp in shapes:
        l = 2 if span % 2 == 0 else 1
        ga = span // l
        params = params_from_gammas(k, l, ga, gp, k)
        layout = build_layout(params)
        demands = list(itertools.permutations(range(1, k + 1)))
        if k == 6:
            demands = random.Random(0).sample(demands, 500)
        for demand in demands:
            result = materialize(layout, demand)
            report = verify_decodability(layout, result.packets())
            checked += 1
            if not report.ok:
                failures.append((k, span, gp, demand, report.failing_users()))
    ok = not failures
    announce(4, "decodability universality", ok, f"{checked} demand vectors over {len(shapes)} shapes")
    assert ok, failures[:3]


def test_criterion_5_cutset_sandwich():
    failures = []
    for params in sweep_grid(4, 12):
        rate = achievable_rate(params)
        bound = cutset_bound(params)
        boundary = params.ma * params.l + params.mp >= Fraction(params.n) * (
            params.k - 1
        ) / params.k
        if bound > rate:
            failures.append(("sandwich", params.k, params.l, params.ga, params.gp))
        if (bound == rate) != boundary:
            failures.append(("equality-iff", params.k, params.l, params.ga, params.gp))
        if boundary and rate != Fraction(1, params.k):
            failures.append(("boundary-rate", params.k, params.l, params.ga, params.gp))
    ok = not failures
    announce(5, "cut-set sandwich and equality region", ok)
    assert ok, failures[:3]


def test_criterion_6_figure_reproduction():
    started = time.monotonic()
    expected_first = {6: 11, 7: 8, 8: 5, 9: 2}
    failures = []
    for ma, first_mp in expected_first.items():
        hits = []
        for mp in range(1, 14):
            params = SystemParams(k=30, l=3, ma=ma, mp=mp, n=30)
            try:
                rate = rate_with_sharing(params)
            except Exception:
                continue
            if rate == cutset_bound(params):
                hits.append((mp, rate))
        if not hits or hits[0][0] != first_mp or hits[0][1] != Fraction(1, 30):
            failures.append((ma, hits[:1]))
    elapsed = time.monotonic() - started
    ok = not failures and elapsed < 30.0
    announce(6, "K=30 figure sweeps meet the bound at Mp=11/8/5/2", ok, f"{elapsed:.2f}s")
    assert ok, failures


def test_criterion_7a_dedicated_reduction_no_shared_layer():
    failures = []
    for k in range(3, 11):
        for t in range(0, k + 1):
            params = SystemParams(k=k, l=1, ma=0, mp=Fraction(k * t, k), n=k)
            layout = build_layout(params)
            result = materialize(layout, worst_case_demand(k))
            if layout.f != binom(k, t) or result.rate != Fraction(binom(k, t + 1), binom(k, t)):
                failures.append((k, t, layout.f, result.rate))
    ok = not failures
    announce(7, "dedicated-cache reduction (no shared layer)", ok)
    assert ok, failures[:3]


def test_criterion_7b_dedicated_reduction_at_l1():
    """Known discrepancy: fails for 2 <= gamma_a <= K-2 (see module docstring)."""
    failures = []
    for k in range(3, 11):
        for ga in range(0, k + 1):
            params = SystemParams(k=k, l=1, ma=ga, mp=0, n=k)
            rate = achievable_rate(params)
            expected = Fraction(binom(k, ga + 1), binom(k, ga))
            if rate != expected:
                failures.append((k, ga, rate, expected))
    ok = not failures
    announce(
        7,
        "dedicated-cache rate match at L=1, gamma_p=0",
        ok,
        f"{len(failures)} instances off, first {failures[0] if failures else None}",
    )
    assert ok, (
        "ring placement at L=1 is strictly poorer than subset placement for"
        f" mid-range gamma_a; {len(failures)} instances differ, e.g. {failures[:3]}"
    )


def test_criterion_8_memory_sharing_identities():
    failures = []
    cases = [
        (10, 3, Fraction(3, 2), Fraction(1, 2)),
        (10, 3, 1, Fraction(3, 2)),
        (12, 2, Fraction(5, 2), Fraction(3, 2)),
        (9, 2, Fraction(4, 3), Fraction(2, 3)),
        (8, 3, Fraction(7, 4), Fraction(1, 3)),
    ]
    for k, l, ga, gp in cases:
        params = params_from_gammas(k, l, ga, gp, k)
        share = memory_share(params)
        manual = Fraction(0)
        acc_ma = Fraction(0)
        acc_mp = Fraction(0)
        for pt in share.points:
            corner = params_from_gammas(k, l, pt.gamma_a, pt.gamma_p, k)
            corner_rate = achievable_rate(corner)
            if corner_rate != pt.rate:
                failures.append(("corner-rate", k, l, ga, gp))
            manual += pt.weight * corner_rate
            acc_ma += pt.weight * corner.ma
            acc_mp += pt.weight * corner.mp
        lo = min(pt.rate for pt in share.points)
        hi = max(pt.rate for pt in share.points)
        if share.rate != manual or not lo <= share.rate <= hi:
            failures.append(("combination", k, l, ga, gp))
        if acc_ma != params.ma or acc_mp != params.mp:
            failures.append(("cache accounting", k, l, ga, gp))
        if sum(pt.weight for pt in share.points) != 1:
            failures.append(("weights", k, l, ga, gp))
    # degenerate pass-through
    integral = SystemParams(k=7, l=2, ma=1, mp=1, n=7)
    share = memory_share(integral)
    if len(share.points) != 1 or share.rate != achievable_rate(integral):
        failures.append(("pass-through",))
    ok = not failures
    announce(8, "memory-sharing exact identities", ok)
    assert ok, failures


def test_criterion_9_byte_determinism(tmp_path):
    sim_args = ("simulate", "-K", "7", "-L", "2", "--ma", "1", "--mp", "1", "-N", "7")
    sweep_args = (
        "sweep", "-K", "30", "-L", "3", "-N", "30", "--ma", "6,7,8,9", "--mp-range", "1:13",
    )
    problems = []
    for name, args in (("simulate", sim_args), ("sweep", sweep_args)):
        runs = []
        for i in range(2):
            target = tmp_path / f"{name}-{i}.out"
            code, stdout = run_cli(*args, "-o", str(target))
            runs.append((code, stdout, target.read_bytes()))
        if runs[0] != runs[1] or runs[0][0] != 0:
            problems.append(name)
    ok = not problems
    announce(9, "byte-identical reruns of simulate and sweep", ok)
    assert ok, problems
