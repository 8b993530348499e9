"""Helpers only the tests need: window labels, what a layout lets a user
read, delivery results with a transmission taken out, and the cut-set bound
as a loop over Fractions."""

from dataclasses import replace
from fractions import Fraction

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


def cutset_terms(params) -> list[Fraction]:
    """The cut-set term s - (p*ma + s*mp) / floor(N/s) for s = 1..K, with
    p = min(s+L-1, K), in Fraction arithmetic."""
    terms = []
    for s in range(1, params.k + 1):
        p = min(s + params.l - 1, params.k)
        terms.append(s - (p * params.ma + s * params.mp) / (params.n // s))
    return terms


def cutset_bound_reference(params) -> Fraction:
    """The cut-set bound as the Fraction loop the library's integer
    evaluation replaced: the largest term, floored at 0."""
    best = Fraction(0)
    for val in cutset_terms(params):
        if val > best:
            best = val
    return best
