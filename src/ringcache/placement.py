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

On both placements the (S, T) pairs are enumerated once for all users, S
by S and each S's T lexicographically, and every stage names a pair by its
place, its index in that order. The S and the T of each place
(:attr:`CacheLayout.s_of`, :attr:`CacheLayout.t_of`) are the layout's only
record of the pairs. A user u outside S splits them as Maddah-Ali--Niesen
placement does, holding the (S, T) with u in T privately and demanding
those with u outside T: :func:`private_pairs` and :func:`demand_pairs`.
Every S owns a run of R = C(K - width, gamma_p) places whose T's are the
gamma_p-subsets of the users outside S in lexicographic order, so the
places of a run whose T holds u sit at offsets fixed by u's rank among
those users; a private cache is read off the runs through one table of
those offsets per (K - width, gamma_p), without a scan of the F places.

Both placements are uncoded and file-symmetric: every file is split and
cached the same way, so a layout holds each pattern once and the file
index n is attached only in :func:`layout_to_json` (which writes the
``layout-dump`` JSON cache by cache) and in the terms delivery sends.

Mini-subfile payloads are virtual: the package reasons about identities,
sizes and decodability, never file bytes. Every command builds its layout
through :func:`build`, which predicts its size from binomials first.
"""

from __future__ import annotations

import functools
import itertools
import json
from collections import Counter
from operator import and_
from typing import Callable, Iterable, Iterator, NamedTuple

from .model import (
    GuardExceeded,
    InvalidParameters,
    RegimeError,
    SystemParams,
    binom,
    bit,
    mask_str,
    subset_masks,
    window_masks,
)
from .analysis import achievable_rate, table1_counts

RING = "ring"
SUBSET = "subset"

# the one size rule (:func:`preflight`): the (S, T) pairs of a layout bound
# its memory, which peaked at about 370-900 bytes per pair, and what
# a command streams bounds its time and output (README, "Size budgets")
LAYOUT_BUDGET = 750_000
OUTPUT_BUDGET = 4_000_000

# files per write of a layout dump: a cache with N files is written in
# chunks, each held whole while it is rendered; N <= 1024 is one chunk
DUMP_CHUNK_FILES = 1024


class CacheLayout(NamedTuple):
    """Immutable contents of every shared and private cache, once for all
    files: the placement splits and caches every file the same way.

    ``access[k-1]`` holds the S masks of the subfiles shared cache k stores
    of every file, and ``placement`` is :data:`RING` or :data:`SUBSET`.
    ``s_of[p]`` and ``t_of[p]`` are the S and the T mask of the pair at
    place p: the F (S, T) pairs of a file, one per mini-subfile, S by S and
    each S's T lexicographically, off which every private cache
    (:func:`private_pairs`) and demand set (:func:`demand_pairs`) is read.
    File indices are attached only where output needs them: in
    :func:`layout_to_json` and in the terms delivery sends.
    """

    params: SystemParams
    access: tuple[tuple[int, ...], ...]
    placement: str
    s_of: tuple[int, ...]
    t_of: tuple[int, ...]

    @property
    def f(self) -> int:
        """The subpacketization: mini-subfiles, and (S, T) pairs, per file."""
        return len(self.s_of)

    @property
    def width(self) -> int:
        """Users in each S: span on the ring placement, gamma_a on the subset one."""
        return self.params.ga if self.placement == SUBSET else self.params.span


def subpacketization(params: SystemParams, placement: str = RING) -> int:
    """Mini-subfiles per file: C(K, gamma_a) * C(K - gamma_a, gamma_p) on the
    subset placement, and on the ring placement K * C(K - span, gamma_p) with
    a shared layer, C(K, gamma_p) without one."""
    k, ga, gp = params.k, params.ga, params.gp
    if placement == SUBSET or ga == 0:
        return binom(k, ga) * binom(k - ga, gp)
    return k * binom(k - params.span, gp)


def preflight(command: str, params: SystemParams) -> str:
    """The placement ``command`` builds, :data:`RING` or :data:`SUBSET`, once
    sized: refused with :class:`GuardExceeded` by two numbers predicted from
    binomials, what it streams, over :data:`OUTPUT_BUDGET`, then its F, over
    :data:`LAYOUT_BUDGET`. The subset placement is built without a shared
    layer and for ``simulate`` and ``layout-dump`` at L = 1, the ring placement
    otherwise. ``simulate`` and ``man-check`` stream rate * F
    packets (F where no rate is claimed), ``verify`` the count law's X,
    ``layout-dump`` N times one file's cache entries, and ``census`` its slice
    of C(K - span, gamma_p + 1) subsets, at most F."""
    k, ga, gp = params.k, params.ga, params.gp
    subset = ga == 0 or params.l == 1 and command in ("simulate", "layout-dump")
    placement = SUBSET if subset else RING
    f = subpacketization(params, placement)
    if command == "layout-dump":
        shared = ga * binom(k, ga) if placement == SUBSET else k * ga
        stream, what = params.n * (shared + gp * f), "cache entries"
    elif command == "verify":
        stream, what = table1_counts(params).transmissions, "packets"
    elif command == "census":
        stream, what = binom(k - params.span, gp + 1), "subsets"
    else:
        try:
            stream, what = achievable_rate(params) * f, "packets"
        except RegimeError:
            stream, what = f, "mini-subfiles per file, with no rate"
    for size, budget, told in (
        (stream, OUTPUT_BUDGET, f"{stream} {what}"),
        (f, LAYOUT_BUDGET, f"F={f} mini-subfiles per file"),
    ):
        if size > budget:
            raise GuardExceeded(
                f"refusing {command} at K={k} L={params.l} gamma_a={ga} gamma_p={gp}:"
                f" {told}, over the budget of {budget}"
            )
    return placement


def build(command: str, params: SystemParams) -> CacheLayout:
    """The layout ``command`` runs on, of the placement :func:`preflight` sized."""
    subset = preflight(command, params) == SUBSET
    return build_subset_layout(params) if subset else build_layout(params)


def _build(params: SystemParams, access: tuple, placement: str, shared_sets: tuple) -> CacheLayout:
    """The layout whose pairs are each S of ``shared_sets`` with its T, by
    place, once every cache is checked against its budget."""
    users = [bit(u) for u in range(1, params.k + 1)]
    s_of: list[int] = []
    t_of: list[int] = []
    for s in shared_sets:
        t_of += map(sum, itertools.combinations([b for b in users if not s & b], params.gp))
        s_of += [s] * (len(t_of) - len(s_of))
    layout = CacheLayout(params, access, placement, tuple(s_of), tuple(t_of))
    _check_memory(layout)
    return layout


@functools.cache
def _rank_offsets(outside: int, gp: int) -> tuple[tuple[int, ...], ...]:
    """By rank r, the offsets into a run of C(outside, gamma_p) places whose
    T holds the r-th user outside the run's S: the gamma_p-combinations of
    the ``outside`` users, lexicographically, that hold r."""
    table: list[list[int]] = [[] for _ in range(outside)]
    for i, combo in enumerate(itertools.combinations(range(outside), gp)):
        for r in combo:
            table[r].append(i)
    return tuple(map(tuple, table))


def _private_runs(layout: CacheLayout, u: int) -> Iterator[tuple[int, Iterator[int]]]:
    """User u's private cache, run by run: each S without u, with the T's
    of its run that hold u, by place."""
    p = layout.params
    outside = p.k - layout.width
    offsets = _rank_offsets(outside, p.gp)
    own = bit(u)
    s_of, t_of = layout.s_of, layout.t_of
    for head in range(0, layout.f, binom(outside, p.gp)):
        s = s_of[head]
        if not s & own:
            # u's rank among the users outside S
            at = offsets[u - 1 - (s & (own - 1)).bit_count()]
            yield s, map(t_of.__getitem__, map(head.__add__, at))


def private_pairs(layout: CacheLayout, u: int) -> tuple[tuple[int, int], ...]:
    """User u's private cache: every (S, T) pair of the layout with u outside
    S and inside T, by place.

    Read off the record run by run, not by a scan of its F places: the run
    of each S is C(K - width, gamma_p) places whose T's are the
    gamma_p-subsets of the users outside S, lexicographically, so the
    places whose T holds u are the offsets :func:`_rank_offsets` gives for
    u's rank among those users. Runs whose S holds u are skipped."""
    return tuple((s, t) for s, ts in _private_runs(layout, u) for t in ts)


def demand_pairs(layout: CacheLayout, u: int) -> tuple[tuple[int, int], ...]:
    """User u's demand set: every (S, T) pair of the layout with u outside
    S | T, by place: ordered by S, then T lexicographically."""
    own = bit(u)
    return tuple((s, t) for s, t in zip(layout.s_of, layout.t_of) if not (s | t) & own)


def build_layout(params: SystemParams) -> CacheLayout:
    """Populate every cache with the ring placement, for integral replication
    factors. Without a shared layer that is the subset placement."""
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

    windows = window_masks(k, span)  # the window ending at j, by j - 1
    access = tuple(
        tuple(windows[i] for i in sorted((cache + j * params.l) % k for j in range(ga)))
        for cache in range(k)
    )
    return _build(params, access, RING, windows)


def build_subset_layout(params: SystemParams) -> CacheLayout:
    """Populate every cache with the subset placement, for integral
    replication factors at L = 1 (or at any L without a shared layer)."""
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
    return _build(params, access, SUBSET, sets)


def _check_memory(layout: CacheLayout) -> None:
    """Every cache must hit its size budget exactly: Ma * F mini-subfiles in
    each shared cache and Mp * F in each private one, over all N files, with
    F the placement's subpacketization, and ``s_of`` and ``t_of`` must each
    hold F places. No T may meet its S, so each T adds one to the private
    cache of each of its users, counted once per distinct T."""
    p = layout.params
    f = subpacketization(p, layout.placement)
    per_subfile = binom(p.k - layout.width, p.gp)
    shared_budget, private_budget = p.ma * f, p.mp * f
    for cache in layout.access:
        if p.n * len(cache) * per_subfile != shared_budget:
            raise AssertionError("shared cache holds a wrong subfile count")
    if any(map(and_, layout.s_of, layout.t_of)):
        raise AssertionError("a private index set T meets its shared set S")
    held = [0] * p.k
    for t, count in Counter(layout.t_of).items():
        while t:
            low = t & -t
            held[low.bit_length() - 1] += count
            t ^= low
    if any(p.n * size != private_budget for size in held):
        raise AssertionError("private cache holds a wrong mini-subfile count")
    if not len(layout.s_of) == len(layout.t_of) == f:
        raise AssertionError("the record holds a wrong mini-subfile count")


def _private_labels(layout: CacheLayout, u: int) -> list[str]:
    """User u's private cache as ``S:T`` labels, each S rendered once per run."""
    labels: list[str] = []
    for s, ts in _private_runs(layout, u):
        head = mask_str(s) + ":"
        labels += [head + mask_str(t) for t in ts]
    return labels


def layout_to_json(layout: CacheLayout, write: Callable[[str], object]) -> None:
    """Write the layout dump as JSON text through ``write``: shared entries
    as ``n:S``, private as ``n:S:T``, file-major (every entry of file 1,
    then of file 2, ...).

    The text is byte-identical to ``json.dumps(dump, indent=2)`` of the
    dump as a dict, but rendered directly: with ``indent`` set the json
    module skips its C encoder and walks every one of the N * (entries)
    strings in pure Python. Labels hold only digits, commas and colons, so
    nothing needs escaping; each cache's labels are rendered once (a private
    cache's off the record's runs, each S once per run) and each
    file's run of entries is one ``str.join`` over a separator that carries
    the file index. The header and the braces are writes of their own, and
    each cache is written in chunks of :data:`DUMP_CHUNK_FILES` files, one
    write per chunk, so no more than one chunk's text and file labels are
    held at a time, whatever N is.
    """
    p = layout.params

    @functools.lru_cache(maxsize=1)  # every cache reuses the labels when N fits one chunk
    def files(first: int) -> list[tuple[str, str]]:
        """From file ``first`` on, one chunk of files: (opening of the file's
        first entry, separator between its entries)."""
        last = min(first + DUMP_CHUNK_FILES, p.n + 1)
        return [(f'"{n}:', f'",\n      "{n}:') for n in range(first, last)]

    def caches(cells: Iterable[list[str]]) -> None:
        lead = "    "
        for c, labels in enumerate(cells, 1):
            if not labels:
                write(f'{lead}"{c}": []')
            else:
                parts = [f'{lead}"{c}": [\n      ']
                for first in range(1, p.n + 1, DUMP_CHUNK_FILES):
                    for head, sep in files(first):
                        parts += (head, sep.join(labels), '",\n      ')
                    if first + DUMP_CHUNK_FILES > p.n:
                        parts[-1] = '"\n    ]'  # N >= K >= 1: at least one file
                    write("".join(parts))
                    parts = []
            lead = ",\n    "

    header = (
        ("K", p.k), ("L", p.l), ("N", p.n), ("Ma", str(p.ma)), ("Mp", str(p.mp)), ("F", layout.f)
    )
    write("".join(
        ["{\n"] + [f'  "{key}": {json.dumps(value)},\n' for key, value in header] + ['  "access": {\n']
    ))
    caches([mask_str(s) for s in cache] for cache in layout.access)
    write('\n  },\n  "private": {\n')
    caches(_private_labels(layout, u) for u in range(1, p.k + 1))
    write("\n  }\n}")
