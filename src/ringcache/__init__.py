"""Coded caching on a ring of shared caches plus per-user private caches.

The public surface: build a :class:`SystemParams`, place caches with
:func:`build_layout` (ring placement) or :func:`build_subset_layout` (L = 1),
stream the XOR packets with :func:`deliver` (each term's (S, T) pair named
by its place p, whose masks are the layout's ``s_of[p]`` and ``t_of[p]``),
check them with :func:`verify_decodability`, and evaluate the
:func:`achievable_rate` / :func:`cutset_bound` closed forms. The
:mod:`ringcache.verify` oracles cross-check the counting independently.
"""

from .model import (
    GuardExceeded,
    InvalidMiniSubfile,
    InvalidParameters,
    RegimeError,
    SystemParams,
    binom,
    cyc,
    params_from_gammas,
)
from .placement import (
    CacheLayout,
    build_layout,
    build_subset_layout,
    demand_pairs,
    private_pairs,
)
from .delivery import (
    GENERAL,
    SC1,
    SC2,
    deliver,
    verify_decodability,
    worst_case_demand,
)
from .analysis import (
    MemoryShare,
    TransmissionCounts,
    achievable_rate,
    cutset_bound,
    memory_share,
    rate_with_sharing,
    table1_counts,
)
from .verify import count_vs_formula, enumerate_transmission_subsets, man_crosscheck

__all__ = [
    "GENERAL",
    "SC1",
    "SC2",
    "CacheLayout",
    "GuardExceeded",
    "InvalidMiniSubfile",
    "InvalidParameters",
    "MemoryShare",
    "RegimeError",
    "SystemParams",
    "TransmissionCounts",
    "achievable_rate",
    "binom",
    "build_layout",
    "build_subset_layout",
    "count_vs_formula",
    "cutset_bound",
    "cyc",
    "deliver",
    "demand_pairs",
    "enumerate_transmission_subsets",
    "man_crosscheck",
    "memory_share",
    "params_from_gammas",
    "private_pairs",
    "rate_with_sharing",
    "table1_counts",
    "verify_decodability",
    "worst_case_demand",
]

__version__ = "0.1.0"
