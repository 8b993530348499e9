"""Cache placement.

Two placements fill the same :class:`CacheLayout`; a mini-subfile is
(n, S, T) on both, S being the users that reach it through shared caches
and T the users that hold it privately.

* **Ring placement** (:func:`build_layout`, every L). Each file splits
  into K equal subfiles; the shared cache k stores the subfiles with
  original indices <k + (j-1)L> for j = 1..gamma_a, so a user reaches a
  contiguous window of span = gamma_a*L subfile indices. Subfiles are
  relabelled by that window (the set of users that can reach them), and
  each subfile further splits into C(K - span, gamma_p) mini-subfiles,
  one per gamma_p-subset T of the users outside the window; the private
  cache of user u stores every mini-subfile with u in T and u outside the
  window.
* **Subset placement** (:func:`build_subset_layout`, L = 1). Each user
  reads exactly one shared cache, so the ring is a dedicated network with
  Ma + Mp of memory per user, and S may be any gamma_a-subset of the
  caches rather than a window: shared cache k holds every subfile whose
  S contains k, and each subfile splits into C(K - gamma_a, gamma_p)
  mini-subfiles, one per disjoint gamma_p-subset T. Subpacketization is
  C(K, gamma_a) * C(K - gamma_a, gamma_p) = C(K, t) * C(t, gamma_a) with
  t = gamma_a + gamma_p: Maddah-Ali--Niesen placement at t, each subfile
  cut into one piece per way of choosing which gamma_a of its t users
  hold it in a shared cache.

With no shared-cache layer (gamma_a = 0) the two coincide: each file has
the single empty S and subpacketization C(K, gamma_p), and
:func:`build_layout` returns the subset layout.

Both placements are uncoded and file-symmetric: every file is split and
cached the same way. A layout therefore stores each cache's pattern once
(the S masks a shared cache holds, the (S, T) pairs a private cache
holds), and a cache holds that pattern of every file; the file index n
is attached only in :func:`layout_to_json` and in the terms delivery
sends.

The rate reported at L = 1 is the subset placement's; the census and
:func:`ringcache.verify.count_vs_formula` still check the ring placement
at every L.

Mini-subfile payloads are virtual: the package reasons about identities,
sizes and decodability, never file bytes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

from .model import (
    InvalidParameters,
    RegimeError,
    SystemParams,
    binom,
    bit,
    cyc,
    mask_str,
    subset_masks,
    window_mask,
    window_masks,
)

RING = "ring"
SUBSET = "subset"


@dataclass(frozen=True)
class CacheLayout:
    """Immutable contents of every shared and private cache, once for all
    files: the placement splits and caches every file the same way.

    ``access[k-1]`` holds the S masks of the subfiles shared cache k stores
    of every file, ``private[u-1]`` the (S, T) pairs of the mini-subfiles
    user u stores of every file; ``f`` is the subpacketization (mini-subfiles
    per file) and ``placement`` is :data:`RING` or :data:`SUBSET`. File
    indices are attached only where output needs them: in
    :func:`layout_to_json` and in the terms delivery sends.
    """

    params: SystemParams
    f: int
    access: tuple[tuple[int, ...], ...]
    private: tuple[tuple[tuple[int, int], ...], ...]
    placement: str

    @property
    def width(self) -> int:
        """Users in each S: span on the ring placement, gamma_a on the subset one."""
        return self.params.ga if self.placement == SUBSET else self.params.span

    @property
    def shared_sets(self) -> tuple[int, ...]:
        """Every S a subfile can carry, in canonical order: ring windows by
        end, or all gamma_a-subsets lexicographically."""
        if self.placement == SUBSET:
            return subset_masks(self.params.k, self.width)
        return window_masks(self.params.k, self.width)

    def demand_pairs(self, u: int) -> tuple[tuple[int, int], ...]:
        """User u's demand set on this layout's placement, ordered by S
        (as in :attr:`shared_sets`) then T lexicographically."""
        return self._demand_sets[u - 1]

    @cached_property
    def _demand_sets(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Every user's demand set, built once and shared by delivery and
        the decodability check."""
        sets = self.shared_sets
        return tuple(_demand_pairs(self.params, u, sets) for u in range(1, self.params.k + 1))


def subpacketization(params: SystemParams) -> int:
    """Mini-subfiles per file on the ring placement: C(K, gamma_p) without a
    shared layer, K * C(K - span, gamma_p) with one."""
    if params.ga == 0:
        return binom(params.k, params.gp)
    return params.k * binom(params.k - params.span, params.gp)


def t_sets(params: SystemParams, s_mask: int, containing: int = 0) -> Iterator[int]:
    """gamma_p-subsets of the users outside ``s_mask``, lexicographically
    ascending; ``containing`` restricts to sets including that user."""
    pool = [b for b in map(bit, range(1, params.k + 1)) if not s_mask & b]
    gp = params.gp
    if containing:
        own = bit(containing)
        if gp == 0 or s_mask & own:
            return
        rest = [b for b in pool if b != own]
        for combo in itertools.combinations(rest, gp - 1):
            yield own | sum(combo)
        return
    for combo in itertools.combinations(pool, gp):
        yield sum(combo)


def demand_pairs(params: SystemParams, u: int) -> tuple[tuple[int, int], ...]:
    """User u's demand set on the ring placement: every (window, T) pair it
    cannot reach, ordered by window end then T lexicographically."""
    return _demand_pairs(params, u, window_masks(params.k, params.span))


def _demand_pairs(
    params: SystemParams, u: int, shared_sets: tuple[int, ...]
) -> tuple[tuple[int, int], ...]:
    own = bit(u)
    return tuple((s, t) for s in shared_sets if not s & own for t in t_sets(params, s | own))


def _check_integral(params: SystemParams) -> None:
    if not params.integral:
        raise RegimeError(
            f"placement needs integral replication, got gamma_a={params.gamma_a},"
            f" gamma_p={params.gamma_p}; use memory sharing"
        )


def build_layout(params: SystemParams) -> CacheLayout:
    """Populate every cache with the ring placement, for integral replication
    factors. Without a shared layer that is the subset placement."""
    _check_integral(params)
    if params.ga == 0:
        return build_subset_layout(params)
    k, ga, gp = params.k, params.ga, params.gp
    span = params.span
    if span > k:
        raise InvalidParameters(f"span gamma_a*L = {span} exceeds the ring size K = {k}")
    if gp > k - span:
        raise InvalidParameters(
            f"gamma_p = {gp} exceeds the {k - span} users outside a window"
        )

    access = tuple(
        tuple(
            window_mask(end, span, k)
            for end in sorted(cyc(cache + (j - 1) * params.l, k) for j in range(1, ga + 1))
        )
        for cache in range(1, k + 1)
    )
    private = _private_caches(params, window_masks(k, span))
    layout = CacheLayout(params, subpacketization(params), access, private, RING)
    _check_memory(layout)
    return layout


def build_subset_layout(params: SystemParams) -> CacheLayout:
    """Populate every cache with the subset placement, for integral
    replication factors at L = 1 (or at any L without a shared layer)."""
    _check_integral(params)
    k, ga, gp = params.k, params.ga, params.gp
    if ga and params.l != 1:
        raise RegimeError(
            f"subset placement needs L = 1, got L = {params.l}: at L >= 2 a"
            " subfile held in the shared caches S reaches more users than S"
        )
    if gp > k - ga:
        raise InvalidParameters(
            f"gamma_p = {gp} exceeds the {k - ga} users outside a shared set"
        )
    sets = subset_masks(k, ga)
    access = tuple(tuple(s for s in sets if s & bit(cache)) for cache in range(1, k + 1))
    f = binom(k, ga) * binom(k - ga, gp)
    layout = CacheLayout(params, f, access, _private_caches(params, sets), SUBSET)
    _check_memory(layout)
    return layout


def _private_caches(
    params: SystemParams, shared_sets: tuple[int, ...]
) -> tuple[tuple[tuple[int, int], ...], ...]:
    """User u privately stores each (S, T) with u outside S and inside T."""
    return tuple(
        tuple(
            (s, t)
            for s in shared_sets
            if not s & bit(u)
            for t in t_sets(params, s, containing=u)
        )
        for u in range(1, params.k + 1)
    )


def _check_memory(layout: CacheLayout) -> None:
    """Every cache must hit its size budget exactly: Ma * F mini-subfiles in
    each shared cache and Mp * F in each private one, over all N files."""
    p = layout.params
    per_subfile = binom(p.k - layout.width, p.gp)
    shared_budget, private_budget = p.ma * layout.f, p.mp * layout.f
    for cache in layout.access:
        if p.n * len(cache) * per_subfile != shared_budget:
            raise AssertionError("shared cache holds a wrong subfile count")
    for cell in layout.private:
        if p.n * len(cell) != private_budget:
            raise AssertionError("private cache holds a wrong mini-subfile count")


def layout_to_json(layout: CacheLayout) -> dict:
    """JSON-ready dump: shared entries as ``n:S``, private as ``n:S:T``,
    file-major (every entry of file 1, then of file 2, ...)."""
    p = layout.params
    files = range(1, p.n + 1)

    def per_file(labels: list[str]) -> list[str]:
        return [f"{n}:{label}" for n in files for label in labels]

    return {
        "K": p.k,
        "L": p.l,
        "N": p.n,
        "Ma": str(p.ma),
        "Mp": str(p.mp),
        "F": layout.f,
        "access": {
            str(k + 1): per_file([mask_str(s) for s in cache])
            for k, cache in enumerate(layout.access)
        },
        "private": {
            str(u + 1): per_file([f"{mask_str(s)}:{mask_str(t)}" for s, t in cell])
            for u, cell in enumerate(layout.private)
        },
    }
