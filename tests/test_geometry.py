"""Bearings against a reference copy of the tangent-table binary search."""

import random

from rulebots.sim.geometry import _TAN_TABLE, bearing_deg


def _octant_reference(num: int, den: int) -> int:
    """The first entry whose tangent exceeds num/den, by bisection."""
    lo, hi = 0, len(_TAN_TABLE)
    scaled = num * (1 << 32)
    while lo < hi:
        mid = (lo + hi) // 2
        if scaled < den * _TAN_TABLE[mid]:
            hi = mid
        else:
            lo = mid + 1
    return lo


def _bearing_reference(dx: int, dy: int) -> int:
    if dx == 0 and dy == 0:
        return 0
    ax, ay = abs(dx), abs(dy)
    if ay <= ax:
        a = _octant_reference(ay, ax)
        if dx >= 0:
            base = a if dy >= 0 else (360 - a) % 360
        else:
            base = 180 - a if dy >= 0 else 180 + a
    else:
        a = _octant_reference(ax, ay)
        if dy >= 0:
            base = 90 - a if dx >= 0 else 90 + a
        else:
            base = 270 - a if dx < 0 else 270 + a
    return base % 360


def test_every_small_offset_matches_the_reference():
    span = range(-300, 301)
    bad = [(dx, dy) for dx in span for dy in span if bearing_deg(dx, dy) != _bearing_reference(dx, dy)]
    assert bad == []


def test_seeded_wide_offsets_match_the_reference():
    rng = random.Random(20_000)
    offsets = [(rng.randint(-40_000, 40_000), rng.randint(-40_000, 40_000)) for _ in range(200_000)]
    bad = [(dx, dy) for dx, dy in offsets if bearing_deg(dx, dy) != _bearing_reference(dx, dy)]
    assert bad == []


def test_slopes_on_and_beside_each_table_entry_match_the_reference():
    # num = floor(den * T[k] / 2^32) is the last numerator below entry k's
    # tangent, or on it when den * T[k] is a multiple of 2^32
    bad = []
    for den in range(1, 2001):
        for t in _TAN_TABLE:
            edge = (den * t) >> 32
            for num in (edge - 1, edge, edge + 1):
                if 0 <= num <= den and bearing_deg(den, num) != _octant_reference(num, den):
                    bad.append((num, den))
    assert bad == []
