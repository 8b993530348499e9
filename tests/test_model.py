"""Cyclic index arithmetic, windows and position sets."""

import itertools
from fractions import Fraction

import pytest

from ringcache.model import (
    InvalidMiniSubfile,
    InvalidParameters,
    RegimeError,
    SystemParams,
    binom,
    bits,
    cyc,
    mask_of,
    params_from_gammas,
    position_sets,
    window_mask,
    window_masks,
)

from helpers import is_window, shift_positions, window_end


@pytest.mark.parametrize("a,k,expected", [(6, 5, 1), (5, 5, 5), (0, 7, 7), (1, 1, 1), (-3, 4, 1)])
def test_cyc_examples(a, k, expected):
    assert cyc(a, k) == expected


def test_cyc_periodicity():
    for k in range(1, 9):
        for a in range(-2 * k, 2 * k + 1):
            assert 1 <= cyc(a, k) <= k
            assert cyc(a + k, k) == cyc(a, k)


def test_binom_convention():
    assert binom(5, 2) == 10
    assert binom(0, 0) == 1
    assert binom(-1, 0) == 0
    assert binom(3, -1) == 0
    assert binom(2, 3) == 0


@pytest.mark.parametrize(
    "elements,k,width,expected",
    [
        ((3, 4), 5, 2, True),
        ((1, 5), 5, 2, True),
        ((1, 3), 5, 2, False),
        ((7, 1), 7, 2, True),
        ((2, 3, 4), 7, 3, True),
        ((2, 4, 5), 7, 3, False),
    ],
)
def test_is_window(elements, k, width, expected):
    assert is_window(mask_of(elements), k, width) is expected


def test_exactly_k_windows():
    for k in range(3, 9):
        for width in range(1, k):
            hits = [
                combo
                for combo in itertools.combinations(range(1, k + 1), width)
                if is_window(mask_of(combo), k, width)
            ]
            assert len(hits) == k


def test_window_end_roundtrip():
    for k in range(3, 9):
        for width in range(1, k):
            for j in range(1, k + 1):
                assert window_end(window_mask(j, width, k), k, width) == j


def test_window_masks_degenerate_widths():
    assert window_masks(6, 0) == (0,)
    assert window_masks(6, 6) == (0b111111,) * 6


@pytest.mark.parametrize(
    "u,s,t,union,pu,ps,pt",
    [
        (3, (5, 6), (2,), (2, 3, 5, 6), (2,), (3, 4), (1,)),
        (2, (3, 4), (5,), (2, 3, 4, 5), (1,), (2, 3), (4,)),
        (1, (3, 4), (6,), (1, 3, 4, 6), (1,), (2, 3), (4,)),
    ],
)
def test_position_sets_examples(u, s, t, union, pu, ps, pt):
    pos = position_sets(u, mask_of(s), mask_of(t))
    assert pos.union == union
    assert bits(pos.p_u) == pu
    assert bits(pos.p_s) == ps
    assert bits(pos.p_t) == pt


def test_position_sets_partition():
    for u, s, t in [(1, (3, 4), (6,)), (4, (6, 7, 1), (2, 3)), (5, (), (1, 2))]:
        pos = position_sets(u, mask_of(s), mask_of(t))
        m = pos.size
        assert pos.p_u | pos.p_s | pos.p_t == (1 << m) - 1
        assert pos.p_u & pos.p_s == 0 and pos.p_u & pos.p_t == 0 and pos.p_s & pos.p_t == 0
        assert bits(pos.p_u) and len(bits(pos.p_u)) == 1
        assert len(bits(pos.p_s)) == len(s)
        assert len(bits(pos.p_t)) == len(t)


def test_position_sets_rejects_overlap():
    with pytest.raises(InvalidMiniSubfile):
        position_sets(3, mask_of((3, 4)), mask_of((6,)))
    with pytest.raises(InvalidMiniSubfile):
        position_sets(1, mask_of((3, 4)), mask_of((4,)))


@pytest.mark.parametrize(
    "positions,j,m,expected",
    [
        ((2, 3), 3, 4, (1, 2)),
        ((2,), 2, 4, (4,)),
        ((1, 2), 0, 4, (1, 2)),
    ],
)
def test_shift_positions_examples(positions, j, m, expected):
    assert bits(shift_positions(mask_of(positions), j, m)) == expected


def test_full_rotation_is_identity():
    for u, s, t in [(2, (3, 4), (5,)), (1, (3, 4), (6,)), (3, (5, 6, 7), (1,))]:
        pos = position_sets(u, mask_of(s), mask_of(t))
        m = pos.size
        for p in (pos.p_u, pos.p_s, pos.p_t):
            assert shift_positions(p, m, m) == p


def test_system_params_validation():
    with pytest.raises(InvalidParameters):
        SystemParams(k=0, l=1, ma=0, mp=0, n=1)
    with pytest.raises(InvalidParameters):
        SystemParams(k=5, l=6, ma=0, mp=0, n=5)
    with pytest.raises(InvalidParameters):
        SystemParams(k=5, l=2, ma=0, mp=0, n=4)  # library smaller than user count
    with pytest.raises(InvalidParameters):
        SystemParams(k=5, l=2, ma=6, mp=0, n=5)
    with pytest.raises(InvalidParameters):
        SystemParams(k=65, l=1, ma=0, mp=0, n=65)


def test_gamma_accessors():
    p = SystemParams(k=5, l=2, ma=1, mp=1, n=5)
    assert p.gamma_a == 1 and p.gamma_p == 1 and p.integral
    assert p.span == 2
    q = SystemParams(k=5, l=2, ma="3/2", mp=1, n=5)
    assert not q.integral
    # a Fraction is kept as given; gammas are K * M / N
    half = Fraction(1, 2)
    h = SystemParams(k=6, l=2, ma=half, mp=Fraction(5, 3), n=9)
    assert h.ma is half and (h.gamma_a, h.gamma_p) == (Fraction(1, 3), Fraction(10, 9))
    with pytest.raises(RegimeError):
        _ = q.ga
    r = params_from_gammas(10, 3, 1, "3/2", 10)
    assert r.ma == 1 and r.mp == Fraction(3, 2)
    assert r.gamma_p == Fraction(3, 2)
