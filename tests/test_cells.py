"""Tests for the grid and hex cell decompositions and vague zones."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.world.cells import ZONE_CODE, ZONES, Cell, CellGrid, HexCellGrid, ZoneKind
from repro.world.geometry import BoundingBox, Point

REGION = BoundingBox.square(1000.0)

in_region = st.builds(
    Point,
    st.floats(min_value=0.0, max_value=1000.0, allow_nan=False),
    st.floats(min_value=0.0, max_value=1000.0, allow_nan=False),
)


class TestCellGrid:
    def test_cell_count(self):
        assert CellGrid(REGION, 5).num_cells == 25
        assert len(CellGrid(REGION, 3)) == 9

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            CellGrid(REGION, 0)
        with pytest.raises(ValueError):
            CellGrid(REGION, 5, vague_width=-1.0)
        with pytest.raises(ValueError, match="inclusive zone"):
            CellGrid(REGION, 5, vague_width=100.0)  # 200 m cells

    def test_locate_centers(self):
        grid = CellGrid(REGION, 5)
        for cell in grid:
            assert grid.locate(cell.center) is cell

    def test_locate_clamps_outside_points(self):
        grid = CellGrid(REGION, 4)
        assert grid.locate(Point(-50, -50)).cell_id == grid.locate(Point(0, 0)).cell_id
        far = grid.locate(Point(2000, 2000))
        assert far.cell_id == grid.num_cells - 1

    def test_cell_lookup_by_id(self):
        grid = CellGrid(REGION, 3)
        assert grid.cell(4).cell_id == 4
        with pytest.raises(KeyError):
            grid.cell(9)

    def test_classify_ideal_always_inclusive(self):
        grid = CellGrid(REGION, 5)
        cell, zone = grid.classify(Point(500, 500))
        assert zone is ZoneKind.INCLUSIVE
        assert cell.bounds.contains(Point(500, 500))

    def test_classify_vague_near_border(self):
        grid = CellGrid(REGION, 5, vague_width=20.0)  # cells 200 m
        # 5 m from a cell border -> vague
        _cell, zone = grid.classify(Point(205.0, 100.0))
        assert zone is ZoneKind.VAGUE
        # deep inside -> inclusive
        _cell, zone = grid.classify(Point(100.0, 100.0))
        assert zone is ZoneKind.INCLUSIVE

    def test_classify_relative_to_other_cell_exclusive(self):
        grid = CellGrid(REGION, 5, vague_width=20.0)
        other = grid.cell(0)
        _cell, zone = grid.classify(Point(900, 900), cell=other)
        assert zone is ZoneKind.EXCLUSIVE

    def test_neighbors_interior(self):
        grid = CellGrid(REGION, 5)
        center = grid.locate(Point(500, 500))
        assert len(list(grid.neighbors(center))) == 8

    def test_neighbors_corner(self):
        grid = CellGrid(REGION, 5)
        corner = grid.locate(Point(1, 1))
        assert len(list(grid.neighbors(corner))) == 3

    def test_cells_cover_region_disjointly(self):
        grid = CellGrid(REGION, 4)
        total_area = sum(c.bounds.area for c in grid)
        assert total_area == pytest.approx(REGION.area)

    @given(in_region)
    def test_locate_contains_point(self, point):
        grid = CellGrid(REGION, 5)
        cell = grid.locate(point)
        assert cell.bounds.contains(point)

    @given(in_region)
    def test_classify_matches_locate(self, point):
        grid = CellGrid(REGION, 5, vague_width=15.0)
        cell, zone = grid.classify(point)
        assert cell is grid.locate(point)
        assert zone in (ZoneKind.INCLUSIVE, ZoneKind.VAGUE)

    @given(in_region)
    def test_vague_iff_near_border(self, point):
        width = 25.0
        grid = CellGrid(REGION, 5, vague_width=width)
        cell, zone = grid.classify(point)
        near_border = cell.bounds.distance_to_border(point) < width
        assert (zone is ZoneKind.VAGUE) == near_border


class TestHexCellGrid:
    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            HexCellGrid(REGION, 0.0)
        with pytest.raises(ValueError):
            HexCellGrid(REGION, 100.0, vague_width=-1.0)
        with pytest.raises(ValueError, match="inclusive zone"):
            HexCellGrid(REGION, 100.0, vague_width=90.0)

    def test_locate_centers(self):
        grid = HexCellGrid(REGION, 120.0)
        for cell in grid.cells[:20]:
            assert grid.locate(cell.center) is cell

    def test_cover_includes_whole_region(self):
        grid = HexCellGrid(REGION, 150.0)
        for point in (Point(0, 0), Point(999, 999), Point(500, 0), Point(0, 500)):
            cell = grid.locate(point)
            # the located hex center is within one circumradius of the point
            assert cell.center.distance_to(point) <= 150.0 + 1e-6

    def test_classify_center_inclusive(self):
        grid = HexCellGrid(REGION, 120.0, vague_width=20.0)
        cell = grid.locate(Point(500, 500))
        got, zone = grid.classify(cell.center)
        assert got is cell
        assert zone is ZoneKind.INCLUSIVE

    def test_classify_exclusive_for_far_cell(self):
        grid = HexCellGrid(REGION, 120.0, vague_width=20.0)
        far = grid.locate(Point(900, 900))
        _got, zone = grid.classify(Point(100, 100), cell=far)
        assert zone is ZoneKind.EXCLUSIVE

    def test_neighbors_are_adjacent(self):
        grid = HexCellGrid(REGION, 120.0)
        cell = grid.locate(Point(500, 500))
        neighbors = list(grid.neighbors(cell))
        assert 1 <= len(neighbors) <= 6
        for n in neighbors:
            # center spacing of adjacent pointy-top hexes is sqrt(3)*R
            assert n.center.distance_to(cell.center) == pytest.approx(
                120.0 * 3**0.5, rel=1e-6
            )

    @given(in_region)
    def test_locate_is_nearest_center(self, point):
        grid = HexCellGrid(REGION, 140.0)
        located = grid.locate(point)
        best = min(grid.cells, key=lambda c: c.center.distance_to(point))
        assert located.center.distance_to(point) == pytest.approx(
            best.center.distance_to(point), abs=1e-6
        )

    @given(in_region)
    def test_vague_band_width(self, point):
        """An in-region point is never EXCLUSIVE in its own hex, and its
        border distance is the distance to the nearest perpendicular
        bisector between the hex's center and a neighbor's center."""
        width = 25.0
        grid = HexCellGrid(REGION, 140.0, vague_width=width)
        cell, zone = grid.classify(point)
        assert cell is grid.locate(point)
        assert zone is not ZoneKind.EXCLUSIVE

        q, r = grid._axial_of[cell.cell_id]
        c = cell.center
        expected = math.inf
        for dq, dr in ((1, 0), (-1, 0), (0, 1), (0, -1), (1, -1), (-1, 1)):
            n = grid._axial_to_center(q + dq, r + dr)
            span = math.hypot(n.x - c.x, n.y - c.y)
            along = ((point.x - c.x) * (n.x - c.x) + (point.y - c.y) * (n.y - c.y)) / span
            expected = min(expected, span / 2.0 - along)
        border = float(grid._border_distance(point.x - c.x, point.y - c.y))
        assert border == pytest.approx(expected, abs=1e-9)
        if abs(border - width) > 1e-9:
            assert (zone is ZoneKind.VAGUE) == (border < width)

    def test_vague_share_matches_geometry(self):
        """The vague band covers ``1 - ((a - w) / a)**2`` of each hex,
        ``a`` the inradius and ``w`` the band width."""
        grid = HexCellGrid(REGION, 120.0, vague_width=10.0)
        points = np.random.default_rng(0).uniform(0.0, 1000.0, size=(20000, 2))
        _cells, zones = grid.classify_many(points)
        assert not np.any(zones == ZONE_CODE[ZoneKind.EXCLUSIVE])
        inradius = 120.0 * math.sqrt(3) / 2.0
        share = np.mean(zones == ZONE_CODE[ZoneKind.VAGUE])
        assert share == pytest.approx(1.0 - ((inradius - 10.0) / inradius) ** 2, abs=0.01)

    def test_points_outside_the_cover_snap_to_nearest_center(self):
        grid = HexCellGrid(REGION, 150.0)
        points = np.random.default_rng(1).uniform(-3000.0, 4000.0, size=(200, 2))
        located = grid.locate_many(points)
        for (x, y), cell_id in zip(points.tolist(), located.tolist()):
            best = min(
                math.hypot(c.center.x - x, c.center.y - y) for c in grid.cells
            )
            center = grid.cell(cell_id).center
            assert math.hypot(center.x - x, center.y - y) == pytest.approx(best)


class TestArrayLookup:
    """``locate_many`` / ``classify_many`` agree with the one-point calls."""

    @pytest.mark.parametrize(
        "grid",
        [
            CellGrid(REGION, 5, vague_width=15.0),
            HexCellGrid(REGION, 130.0, vague_width=15.0),
        ],
        ids=["grid", "hex"],
    )
    def test_many_equals_one_at_a_time(self, grid):
        points = np.random.default_rng(2).uniform(-200.0, 1200.0, size=(500, 2))
        cells, zones = grid.classify_many(points)
        assert np.array_equal(cells, grid.locate_many(points))
        assert grid.locate_many(points.reshape(50, 10, 2)).shape == (50, 10)
        for (x, y), cell_id, code in zip(points.tolist(), cells.tolist(), zones.tolist()):
            cell, zone = grid.classify(Point(x, y))
            assert (cell.cell_id, zone) == (cell_id, ZONES[code])
