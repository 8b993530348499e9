"""Coded caching on a ring of shared caches plus per-user private caches.

The public surface: build a :class:`SystemParams`, place caches with
:func:`build_layout` (ring placement) or :func:`build_subset_layout` (L = 1),
run :func:`deliver` for a demand vector, and evaluate
:func:`achievable_rate` / :func:`cutset_bound` closed forms. The
:mod:`ringcache.verify` oracles cross-check the counting by brute force.
"""

from .model import (
    GuardExceeded,
    InvalidMiniSubfile,
    InvalidParameters,
    PositionSets,
    RegimeError,
    SystemParams,
    binom,
    cyc,
    is_window,
    params_from_gammas,
    position_sets,
    shift_positions,
)
from .placement import (
    CacheLayout,
    build_layout,
    build_subset_layout,
    demand_pairs,
)
from .delivery import (
    GENERAL,
    SC1,
    SC2,
    DeliveryResult,
    Transmission,
    deliver,
    verify_decodability,
    worst_case_demand,
)
from .analysis import (
    MemoryShare,
    TransmissionCounts,
    achievable_rate,
    cutset_bound,
    is_optimal,
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
    "DeliveryResult",
    "GuardExceeded",
    "InvalidMiniSubfile",
    "InvalidParameters",
    "MemoryShare",
    "PositionSets",
    "RegimeError",
    "SystemParams",
    "Transmission",
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
    "is_optimal",
    "is_window",
    "man_crosscheck",
    "memory_share",
    "params_from_gammas",
    "position_sets",
    "rate_with_sharing",
    "shift_positions",
    "table1_counts",
    "verify_decodability",
    "worst_case_demand",
]

__version__ = "0.1.0"
