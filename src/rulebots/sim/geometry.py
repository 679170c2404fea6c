"""Integer plane geometry: bearings, facing turns, segment intersection.

Positions are integer centimetres and angles integer degrees.  Bearings
come from a fixed tangent table, so every comparison is exact integer
arithmetic and results cannot drift between platforms.  A slope num/den
falls below table entry T exactly when num * 2^32 < den * T, and, T
being an integer, exactly when floor(num * 2^32 / den) < T: so one
`bisect_right` over the table on that floor finds the bearing.
"""

from __future__ import annotations

from bisect import bisect_right

# tan((k + 0.5) degrees) * 2^32, k = 0..44.  A vector whose in-octant
# slope falls below entry k has bearing k degrees within the octant.
_TAN_TABLE = (
    37481612, 112467677, 187522322, 262691453, 338021257,
    413558313, 489349712, 565443172, 641887163, 718731033,
    796025137, 873820972, 952171326, 1031130419, 1110754067,
    1191099847, 1272227273, 1354197987, 1437075955, 1520927688,
    1605822471, 1691832610, 1779033704, 1867504930, 1957329363,
    2048594314, 2141391701, 2235818457, 2331976973, 2429975579,
    2529929081, 2631959344, 2736195935, 2842776839, 2951849240,
    3063570399, 3178108618, 3295644319, 3416371248, 3540497818,
    3668248612, 3799866077, 3935612425, 4075771779, 4220652607,
)


def bearing_deg(dx: int, dy: int) -> int:
    """Integer bearing of (dx, dy): 0 = +x, counter-clockwise, [0, 360).

    (0, 0) maps to 0 by convention; callers special-case coincident
    points before the bearing matters.
    """
    if dx == 0 and dy == 0:
        return 0
    ax, ay = abs(dx), abs(dy)
    if ay <= ax:
        a = bisect_right(_TAN_TABLE, (ay << 32) // ax)
        if dx >= 0:
            base = a if dy >= 0 else (360 - a) % 360
        else:
            base = 180 - a if dy >= 0 else 180 + a
    else:
        a = bisect_right(_TAN_TABLE, (ax << 32) // ay)
        if dy >= 0:
            base = 90 - a if dx >= 0 else 90 + a
        else:
            base = 270 - a if dx < 0 else 270 + a
    return base % 360


def ang_diff(a: int, b: int) -> int:
    """Absolute circular distance between two headings, 0..180."""
    return abs(((a - b + 180) % 360) - 180)


def turn_toward(facing: int, target: int, max_step: int) -> int:
    """Rotate facing toward target by at most max_step degrees."""
    diff = ((target - facing + 180) % 360) - 180
    if diff > max_step:
        diff = max_step
    elif diff < -max_step:
        diff = -max_step
    return (facing + diff) % 360


def _orient(ax: int, ay: int, bx: int, by: int, cx: int, cy: int) -> int:
    v = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
    return (v > 0) - (v < 0)


def _on_segment(ax: int, ay: int, bx: int, by: int, px: int, py: int) -> bool:
    return min(ax, bx) <= px <= max(ax, bx) and min(ay, by) <= py <= max(ay, by)


def segments_intersect(p1, p2, q1, q2) -> bool:
    """Closed-segment intersection test on integer coordinates."""
    ax, ay = p1
    bx, by = p2
    cx, cy = q1
    dx, dy = q2
    o1 = _orient(ax, ay, bx, by, cx, cy)
    o2 = _orient(ax, ay, bx, by, dx, dy)
    o3 = _orient(cx, cy, dx, dy, ax, ay)
    o4 = _orient(cx, cy, dx, dy, bx, by)
    if o1 != o2 and o3 != o4:
        return True
    if o1 == 0 and _on_segment(ax, ay, bx, by, cx, cy):
        return True
    if o2 == 0 and _on_segment(ax, ay, bx, by, dx, dy):
        return True
    if o3 == 0 and _on_segment(cx, cy, dx, dy, ax, ay):
        return True
    if o4 == 0 and _on_segment(cx, cy, dx, dy, bx, by):
        return True
    return False


def dist2(ax: int, ay: int, bx: int, by: int) -> int:
    dx = bx - ax
    dy = by - ay
    return dx * dx + dy * dy
