"""Brute-force census oracles and the three-way agreement harness."""

import itertools
from fractions import Fraction

import pytest

from ringcache.model import GuardExceeded, SystemParams, binom, params_from_gammas
from ringcache.placement import build_layout, demand_pairs
from ringcache.delivery import GENERAL, SC1, SC2, worst_case_demand
from ringcache.analysis import table1_counts
from ringcache.verify import (
    count_vs_formula,
    enumerate_transmission_subsets,
    man_crosscheck,
    sweep_grid,
)

from helpers import classify, materialize


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
    with pytest.raises(GuardExceeded):
        enumerate_transmission_subsets(
            SystemParams(k=21, l=2, ma=1, mp=1, n=21)
        )


def test_census_matches_anchor_classification():
    # every anchor mapping into a subset gets the census's case for it
    for k, l, ga, gp in [(7, 2, 1, 1), (8, 2, 1, 1), (9, 1, 2, 1), (10, 2, 2, 1)]:
        params = params_from_gammas(k, l, ga, gp, k)
        census = enumerate_transmission_subsets(params)
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
        census = enumerate_transmission_subsets(params)
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
        census = enumerate_transmission_subsets(params)
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
    rep = man_crosscheck(4, 2, 4)
    assert rep.passed and rep.rate == Fraction(2, 3) and rep.f == 6
    rep = man_crosscheck(5, 0, 5)
    assert rep.passed and rep.rate == 5 and rep.f == 1
    rep = man_crosscheck(5, 5, 5)
    assert rep.passed and rep.rate == 0
    rep = man_crosscheck(6, 3, 8)
    assert rep.passed and rep.f == 20


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
