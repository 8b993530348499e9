"""Helpers only the tests need: window labels, what a layout lets a user
read, and delivery results with a transmission taken out."""

from dataclasses import replace

from ringcache.delivery import DeliveryResult
from ringcache.model import bits, cyc, window_mask


def window_end(mask: int, k: int, width: int) -> int:
    """Canonical end label of a window mask (0 for the empty window)."""
    if width == 0 and mask == 0:
        return 0
    for j in range(1, k + 1):
        if window_mask(j, width, k) == mask:
            return j
    raise ValueError(f"{bits(mask)} is not a width-{width} window over [1, {k}]")


def accessible_subfile_windows(layout, u: int) -> tuple[int, ...]:
    """S masks of the subfiles user u reaches through its L shared caches."""
    p = layout.params
    seen = {s for off in range(p.l) for s in layout.access[cyc(u + off, p.k) - 1]}
    return tuple(sorted(seen))


def reads(layout, u: int, s: int, t: int) -> bool:
    """True iff the layout's caches give user u the mini-subfile (S, T) of
    every file: one of its shared caches holds S, or its private cache
    holds (S, T)."""
    return s in accessible_subfile_windows(layout, u) or (s, t) in layout.private[u - 1]


def drop_transmission(result: DeliveryResult, index: int) -> DeliveryResult:
    """Result with one transmission removed (for coverage experiments)."""
    kept = result.transmissions[:index] + result.transmissions[index + 1 :]
    return replace(result, transmissions=kept)
