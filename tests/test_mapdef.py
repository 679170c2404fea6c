"""Map parsing, validation and visibility derivation."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import support
from rulebots.sim import MapError, load_map, parse_map
from rulebots.sim.mapdef import REQUIRED_TAGS


def test_line_map_basics():
    m = parse_map(support.LINE_MAP)
    assert m.name == "line"
    assert list(m.ids) == [0, 1, 2, 3, 4, 5]
    assert m.waypoints[1].x == 400 and m.waypoints[1].y == 0
    assert m.tagged("spawn_ct") == [0]
    assert m.tagged("hostage_point") == [4]


def test_metres_become_centimetres():
    m = parse_map(support.LINE_MAP)
    # edge cost 4 m
    assert m.edge_cost[(0, 1)] == 400
    assert m.edge_cost[(1, 0)] == 400


def test_fractional_metres_round_exactly():
    text = support.LINE_MAP.replace("waypoint 1 4 0 -", "waypoint 1 4.25 0 -")
    m = parse_map(text)
    assert m.waypoints[1].x == 425


def test_sub_centimetre_precision_rejected():
    text = support.LINE_MAP.replace("waypoint 1 4 0 -", "waypoint 1 4.001 0 -")
    with pytest.raises(MapError):
        parse_map(text)


def test_no_walls_means_full_visibility():
    m = parse_map(support.LINE_MAP)
    for a in m.ids:
        for b in m.ids:
            assert m.can_see(a, b)


def test_wall_blocks_sightline():
    text = support.LINE_MAP + "wall 10 -1 10 1\n"
    m = parse_map(text)
    assert not m.can_see(0, 5)
    assert not m.can_see(2, 3)
    assert m.can_see(0, 2)
    assert m.can_see(3, 5)
    # self-visibility always holds
    assert all(m.can_see(w, w) for w in m.ids)


def test_path_costs_cached_and_symmetric():
    m = parse_map(support.LINE_MAP)
    assert m.cost(0, 5) == 2000
    assert m.cost(5, 0) == 2000
    assert m.cost(2, 2) == 0


@pytest.mark.parametrize(
    "mangle,desc",
    [
        (lambda t: t.replace("waypoint 1 4 0 -", "waypoint 0 4 0 -"), "duplicate id"),
        (lambda t: t.replace("edge 0 1 4", "edge 0 1 4\nedge 1 0 4"), "duplicate edge"),
        (lambda t: t.replace("edge 0 1 4", "edge 0 0 4"), "self edge"),
        (lambda t: t.replace("edge 0 1 4", "edge 0 1 0"), "zero cost"),
        (lambda t: t.replace("edge 0 1 4", "edge 0 9 4"), "unknown endpoint"),
        (lambda t: t.replace("spawn_ct,rescue_zone", "spawn_ct,lava_pit"), "unknown tag"),
        (lambda t: t.replace("edge 2 3 4\n", ""), "disconnected"),
        (lambda t: t.replace("spawn_t", "-"), "missing required tag"),
        (lambda t: t + "wall 10 -1 10 1\nvisible 0 5\nvisible 5 0\n", "wall and visible mixed"),
        (lambda t: t + "visible 0 5\n", "one-sided visibility"),
    ],
)
def test_rejected_maps(mangle, desc):
    with pytest.raises(MapError):
        parse_map(mangle(support.LINE_MAP))


@pytest.mark.parametrize("number", ["inf", "-inf", "nan", "1e400", "1e307", "four"])
def test_non_numbers_and_non_finite_numbers_are_bad(number):
    for line, mangled in (
        (4, support.LINE_MAP.replace("waypoint 1 4 0", f"waypoint 1 {number} 0")),
        (9, support.LINE_MAP.replace("edge 0 1 4", f"edge 0 1 {number}")),
        (14, support.LINE_MAP + f"wall 1 1 1 {number}\n"),
    ):
        with pytest.raises(MapError) as caught:
            parse_map(mangled)
        assert str(caught.value) == f"line {line}: bad number {number!r}"


def test_explicit_visibility_replaces_derivation():
    text = "\n".join(
        line for line in support.LINE_MAP.splitlines()
    ) + "\nvisible 0 1\nvisible 1 0\n"
    m = parse_map(text)
    assert m.can_see(0, 1)
    assert not m.can_see(0, 2)


@st.composite
def walled_maps(draw):
    """Chains of waypoints on a small grid, in metres, with random walls."""
    coord = st.integers(0, 8)
    points = draw(st.lists(st.tuples(coord, coord), min_size=1, max_size=7))
    walls = draw(st.lists(st.tuples(coord, coord, coord, coord), max_size=4))
    tags = ",".join(REQUIRED_TAGS)
    lines = ["name walled"]
    lines += [f"waypoint {i} {x} {y} {tags if i == 0 else '-'}" for i, (x, y) in enumerate(points)]
    lines += [f"edge {i - 1} {i} 1" for i in range(1, len(points))]
    lines += ["wall {} {} {} {}".format(*wall) for wall in walls]
    return parse_map("\n".join(lines))


def assert_symmetric_visibility(m):
    # the field of view tests visibility once per pair of bots, for both viewers
    for a in m.ids:
        assert (a, a) in m.vis
        for b in m.ids:
            assert ((a, b) in m.vis) == ((b, a) in m.vis)
    assert {a for pair in m.vis for a in pair} <= set(m.ids)


@settings(max_examples=200, deadline=None)
@given(walled_maps())
def test_wall_derived_visibility_is_symmetric(m):
    assert_symmetric_visibility(m)


def test_bundled_visibility_is_symmetric(warehouse, airplane):
    for m in (warehouse, airplane):
        assert_symmetric_visibility(m)


def test_bundled_fixtures_load(warehouse, airplane):
    for m in (warehouse, airplane):
        for tag in ("spawn_ct", "spawn_t", "hostage_point", "rescue_zone"):
            assert m.tagged(tag)
    assert warehouse.name == "warehouse"
    assert airplane.name == "airplane"
    assert warehouse.source_hash != airplane.source_hash


def test_warehouse_door_geometry(warehouse):
    # the hall wall hides the spawns from each other; the door node sees both
    for ct in warehouse.tagged("spawn_ct"):
        for t in warehouse.tagged("spawn_t"):
            assert not warehouse.can_see(ct, t)
    assert warehouse.can_see(8, 9)
    assert warehouse.can_see(8, 10)


def test_load_map_unknown_name():
    with pytest.raises(MapError):
        load_map("atlantis")


def test_load_map_reads_an_edited_file_again(tmp_path):
    path = tmp_path / "line.map"
    path.write_text(support.LINE_MAP)
    before = load_map(str(path))
    assert load_map(str(path)) is before
    path.write_text(support.LINE_MAP.replace("waypoint 1 4 0 -", "waypoint 1 4.25 0 -"))
    after = load_map(str(path))
    assert (before.waypoints[1].x, after.waypoints[1].x) == (400, 425)
    assert after.source_hash != before.source_hash


def test_a_shared_map_refuses_reassignment():
    with pytest.raises(dataclasses.FrozenInstanceError):
        load_map("warehouse").name = "depot"
