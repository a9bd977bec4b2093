"""Cell decomposition of the surveillance region.

The paper divides the whole spatial region into smaller regions called
*scenarios* — "a hexagonal cell if we generate the view of the whole
region by combining the views of all cameras and divide it uniformly"
(Sec. IV-A, Fig. 1).  Each cell is the footprint of one EV-Scenario
stream: at any instant, the EIDs and VIDs located inside the cell form
that cell's E-Scenario and V-Scenario.

For the practical setting (Sec. IV-C, Fig. 2) every cell is split into
three zones:

* **inclusive zone** — the interior far from the border; identities here
  are confidently inside the cell;
* **vague zone** — a band of configurable width along the border;
  identities here are included but flagged vague;
* **exclusive zone** — everything outside the cell.

Two decompositions are provided: a rectangular :class:`CellGrid`
(the default used by the benchmarks) and a :class:`HexCellGrid`
matching the hexagonal-cell illustration in the paper's Fig. 1.  Both
share the :class:`Cell` abstraction, so the sensing and matching layers
are agnostic to the tiling.

Both grids locate and classify whole arrays of points at once
(:meth:`~CellGrid.locate_many`, :meth:`~CellGrid.classify_many`); the
single-point :meth:`~CellGrid.locate` and :meth:`~CellGrid.classify`
are one-point calls of the same code.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.world.geometry import BoundingBox, Point


class ZoneKind(enum.Enum):
    """Which zone of a cell a location falls into (paper Fig. 2)."""

    INCLUSIVE = "inclusive"
    VAGUE = "vague"
    EXCLUSIVE = "exclusive"


#: Zone codes of :meth:`CellGrid.classify_many`: code ``i`` is ``ZONES[i]``.
ZONES: Tuple[ZoneKind, ...] = tuple(ZoneKind)
ZONE_CODE: Dict[ZoneKind, int] = {zone: code for code, zone in enumerate(ZONES)}


def _one_point(point: Point) -> np.ndarray:
    return np.array([[point.x, point.y]], dtype=np.float64)


@dataclass(frozen=True)
class Cell:
    """One scenario region.

    Attributes:
        cell_id: dense integer id, unique within its grid.
        center: the geometric center of the cell.
        bounds: the cell's bounding box (exact for grid cells, the
            circumscribing box for hex cells).
    """

    cell_id: int
    center: Point
    bounds: BoundingBox

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return f"Cell({self.cell_id} @ {self.center.x:.0f},{self.center.y:.0f})"


class CellGrid:
    """Uniform rectangular tiling of a square region into ``n x n`` cells.

    Args:
        region: the whole surveillance region.
        cells_per_side: number of cells along each axis.
        vague_width: width in metres of the vague band inside each cell
            border.  ``0`` disables vague zones (the ideal setting).

    The grid offers O(1) point-to-cell lookup, which the scenario builder
    performs once per (person, tick).
    """

    def __init__(
        self,
        region: BoundingBox,
        cells_per_side: int,
        vague_width: float = 0.0,
    ) -> None:
        if cells_per_side <= 0:
            raise ValueError(f"cells_per_side must be positive, got {cells_per_side}")
        if vague_width < 0:
            raise ValueError(f"vague_width must be non-negative, got {vague_width}")
        cell_w = region.width / cells_per_side
        cell_h = region.height / cells_per_side
        if 2 * vague_width >= min(cell_w, cell_h):
            raise ValueError(
                f"vague_width {vague_width} m leaves no inclusive zone in "
                f"{cell_w:.1f} x {cell_h:.1f} m cells"
            )
        self.region = region
        self.cells_per_side = cells_per_side
        self.vague_width = vague_width
        self._cell_width = cell_w
        self._cell_height = cell_h
        self._cells: List[Cell] = []
        for row in range(cells_per_side):
            for col in range(cells_per_side):
                bounds = BoundingBox(
                    region.min_x + col * cell_w,
                    region.min_y + row * cell_h,
                    region.min_x + (col + 1) * cell_w,
                    region.min_y + (row + 1) * cell_h,
                )
                self._cells.append(
                    Cell(cell_id=row * cells_per_side + col,
                         center=bounds.center,
                         bounds=bounds)
                )
        self._bounds = np.array(
            [
                (c.bounds.min_x, c.bounds.min_y, c.bounds.max_x, c.bounds.max_y)
                for c in self._cells
            ],
            dtype=np.float64,
        )

    @property
    def num_cells(self) -> int:
        return len(self._cells)

    @property
    def cells(self) -> Sequence[Cell]:
        return tuple(self._cells)

    def cell(self, cell_id: int) -> Cell:
        """Look up a cell by id."""
        if not 0 <= cell_id < len(self._cells):
            raise KeyError(f"no cell with id {cell_id}")
        return self._cells[cell_id]

    def locate(self, point: Point) -> Cell:
        """Return the cell containing ``point``.

        Points outside the region are clamped to the nearest cell, which
        mirrors how a physical deployment attributes boundary sightings
        to the edge camera.
        """
        return self._cells[int(self.locate_many(_one_point(point))[0])]

    def locate_many(self, points: np.ndarray) -> np.ndarray:
        """Cell ids of an ``(..., 2)`` array of points (see :meth:`locate`)."""
        points = np.asarray(points, dtype=np.float64)
        last = self.cells_per_side - 1
        # Truncation toward zero, as int() does, then clamping.
        col = ((points[..., 0] - self.region.min_x) / self._cell_width).astype(np.int64)
        row = ((points[..., 1] - self.region.min_y) / self._cell_height).astype(np.int64)
        np.clip(col, 0, last, out=col)
        np.clip(row, 0, last, out=row)
        return row * self.cells_per_side + col

    def classify(self, point: Point, cell: Optional[Cell] = None) -> Tuple[Cell, ZoneKind]:
        """Return ``(cell, zone)`` for a location.

        With ``vague_width == 0`` every in-cell point is INCLUSIVE, which
        is exactly the paper's ideal setting.  Otherwise points within
        ``vague_width`` of the cell border are VAGUE.  When ``cell`` is
        provided the classification is relative to that cell (a point
        outside it is EXCLUSIVE); otherwise the containing cell is used.
        """
        given = None if cell is None else np.array([cell.cell_id])
        cell_ids, zones = self.classify_many(_one_point(point), given)
        return self._cells[int(cell_ids[0])], ZONES[int(zones[0])]

    def classify_many(
        self, points: np.ndarray, cell_ids: Optional[np.ndarray] = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(cell ids, zone codes)`` for an ``(n, 2)`` array of points,
        relative to ``cell_ids`` when given, else to the containing
        cells (see :meth:`classify`; codes index :data:`ZONES`)."""
        points = np.asarray(points, dtype=np.float64)
        if cell_ids is None:
            cell_ids = self.locate_many(points)
        x = points[:, 0]
        y = points[:, 1]
        min_x, min_y, max_x, max_y = self._bounds[cell_ids].T
        inside = (min_x <= x) & (x <= max_x) & (min_y <= y) & (y <= max_y)
        zones = np.where(
            inside, ZONE_CODE[ZoneKind.INCLUSIVE], ZONE_CODE[ZoneKind.EXCLUSIVE]
        ).astype(np.int8)
        if self.vague_width > 0.0:
            border = np.minimum(
                np.minimum(x - min_x, max_x - x), np.minimum(y - min_y, max_y - y)
            )
            zones[inside & (border < self.vague_width)] = ZONE_CODE[ZoneKind.VAGUE]
        return cell_ids, zones

    def neighbors(self, cell: Cell) -> Iterator[Cell]:
        """Yield the up-to-8 cells adjacent to ``cell`` (Moore neighborhood).

        Drifting EIDs land in neighbor cells (Sec. IV-C.1), so the
        sensing model and a couple of tests need adjacency.
        """
        row, col = divmod(cell.cell_id, self.cells_per_side)
        for dr in (-1, 0, 1):
            for dc in (-1, 0, 1):
                if dr == 0 and dc == 0:
                    continue
                nr, nc = row + dr, col + dc
                if 0 <= nr < self.cells_per_side and 0 <= nc < self.cells_per_side:
                    yield self._cells[nr * self.cells_per_side + nc]

    def __iter__(self) -> Iterator[Cell]:
        return iter(self._cells)

    def __len__(self) -> int:
        return len(self._cells)


class HexCellGrid:
    """Pointy-top hexagonal tiling of the region (paper Fig. 1).

    Hexes are laid out in axial coordinates with the given circumradius.
    The API mirrors :class:`CellGrid` (``locate`` / ``classify`` /
    ``cells``) so either tiling can back the scenario builder.

    Args:
        region: the region to cover; hexes are generated so their union
            covers all of it.
        hex_radius: circumradius (center-to-corner distance) in metres.
        vague_width: width of the vague band inside the hex border.
    """

    def __init__(
        self,
        region: BoundingBox,
        hex_radius: float,
        vague_width: float = 0.0,
    ) -> None:
        if hex_radius <= 0:
            raise ValueError(f"hex_radius must be positive, got {hex_radius}")
        if vague_width < 0:
            raise ValueError(f"vague_width must be non-negative, got {vague_width}")
        inradius = hex_radius * math.sqrt(3) / 2.0
        if vague_width >= inradius:
            raise ValueError(
                f"vague_width {vague_width} m leaves no inclusive zone in hexes "
                f"with inradius {inradius:.1f} m"
            )
        self.region = region
        self.hex_radius = hex_radius
        self.vague_width = vague_width
        self._inradius = inradius
        self._cells: List[Cell] = []
        self._by_axial: Dict[Tuple[int, int], Cell] = {}
        self._axial_of: Dict[int, Tuple[int, int]] = {}
        self._build()
        self._centers = np.array(
            [(c.center.x, c.center.y) for c in self._cells], dtype=np.float64
        )
        # Dense axial -> cell id table (-1 where no hex was generated).
        qs = [q for q, _r in self._by_axial]
        rs = [r for _q, r in self._by_axial]
        self._q0, self._r0 = min(qs), min(rs)
        self._axial_table = np.full(
            (max(rs) - self._r0 + 1, max(qs) - self._q0 + 1), -1, dtype=np.int64
        )
        for (q, r), cell in self._by_axial.items():
            self._axial_table[r - self._r0, q - self._q0] = cell.cell_id

    # Axial <-> world conversion for pointy-top hexes.
    def _axial_to_center(self, q: int, r: int) -> Point:
        x = self.region.min_x + self.hex_radius * math.sqrt(3) * (q + r / 2.0)
        y = self.region.min_y + self.hex_radius * 1.5 * r
        return Point(x, y)

    def _points_to_axial(self, points: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        px = points[..., 0] - self.region.min_x
        py = points[..., 1] - self.region.min_y
        qf = (math.sqrt(3) / 3.0 * px - 1.0 / 3.0 * py) / self.hex_radius
        rf = (2.0 / 3.0 * py) / self.hex_radius
        return _axial_round(qf, rf)

    def _build(self) -> None:
        # Generate enough axial rows/cols to cover the region plus one
        # ring of slack so border points always land on a real hex.
        r_max = int(self.region.height / (self.hex_radius * 1.5)) + 2
        q_max = int(self.region.width / (self.hex_radius * math.sqrt(3))) + 2
        next_id = 0
        for r in range(-1, r_max + 1):
            q_offset = -(r // 2)
            for q in range(q_offset - 1, q_offset + q_max + 1):
                center = self._axial_to_center(q, r)
                bounds = BoundingBox(
                    center.x - self.hex_radius,
                    center.y - self.hex_radius,
                    center.x + self.hex_radius,
                    center.y + self.hex_radius,
                )
                cell = Cell(cell_id=next_id, center=center, bounds=bounds)
                self._cells.append(cell)
                self._by_axial[(q, r)] = cell
                self._axial_of[next_id] = (q, r)
                next_id += 1

    @property
    def num_cells(self) -> int:
        return len(self._cells)

    @property
    def cells(self) -> Sequence[Cell]:
        return tuple(self._cells)

    def cell(self, cell_id: int) -> Cell:
        if not 0 <= cell_id < len(self._cells):
            raise KeyError(f"no cell with id {cell_id}")
        return self._cells[cell_id]

    def locate(self, point: Point) -> Cell:
        """Return the hex whose center is nearest ``point``."""
        return self._cells[int(self.locate_many(_one_point(point))[0])]

    def locate_many(self, points: np.ndarray) -> np.ndarray:
        """Cell ids of an ``(..., 2)`` array of points (see :meth:`locate`)."""
        points = np.asarray(points, dtype=np.float64)
        q, r = self._points_to_axial(points)
        row = r - self._r0
        col = q - self._q0
        rows, cols = self._axial_table.shape
        known = (row >= 0) & (row < rows) & (col >= 0) & (col < cols)
        cell_ids = np.full(q.shape, -1, dtype=np.int64)
        cell_ids[known] = self._axial_table[row[known], col[known]]
        # Points outside the generated cover (rare, only far-out-of-region
        # drifted sightings) snap to the nearest existing hex center.
        for index in zip(*np.nonzero(cell_ids < 0)):
            x, y = points[index].tolist()
            cell_ids[index] = min(
                self._cells,
                key=lambda c: math.hypot(c.center.x - x, c.center.y - y),
            ).cell_id
        return cell_ids

    def classify(self, point: Point, cell: Optional[Cell] = None) -> Tuple[Cell, ZoneKind]:
        """Return ``(cell, zone)`` for a location, hex-aware.

        Distance to the hex border is computed exactly (minimum over the
        three edge-normal projections), so the vague band has uniform
        width along all six edges.
        """
        given = None if cell is None else np.array([cell.cell_id])
        cell_ids, zones = self.classify_many(_one_point(point), given)
        return self._cells[int(cell_ids[0])], ZONES[int(zones[0])]

    def classify_many(
        self, points: np.ndarray, cell_ids: Optional[np.ndarray] = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(cell ids, zone codes)`` for an ``(n, 2)`` array of points
        (see :meth:`CellGrid.classify_many`)."""
        points = np.asarray(points, dtype=np.float64)
        if cell_ids is None:
            cell_ids = self.locate_many(points)
        centers = self._centers[cell_ids]
        border = self._border_distance(
            points[:, 0] - centers[:, 0], points[:, 1] - centers[:, 1]
        )
        zones = np.full(len(border), ZONE_CODE[ZoneKind.INCLUSIVE], dtype=np.int8)
        if self.vague_width > 0.0:
            zones[border < self.vague_width] = ZONE_CODE[ZoneKind.VAGUE]
        zones[border < 0] = ZONE_CODE[ZoneKind.EXCLUSIVE]
        return cell_ids, zones

    def _border_distance(self, dx, dy):
        """Signed distance from offsets ``(dx, dy)`` off a hex center to
        that hex's border (positive inside)."""
        # Adjacent pointy-top centers lie at 0, 60, 120 degrees (and the
        # opposites), so those are the three families of edge normals.
        best = None
        for cos_a, sin_a in _HEX_EDGE_NORMALS:
            inner = self._inradius - np.abs(dx * cos_a + dy * sin_a)
            best = inner if best is None else np.minimum(best, inner)
        return best

    def neighbors(self, cell: Cell) -> Iterator[Cell]:
        """Yield the up-to-6 hexes sharing an edge with ``cell``."""
        q, r = self._axial_of[cell.cell_id]
        for dq, dr in ((1, 0), (-1, 0), (0, 1), (0, -1), (1, -1), (-1, 1)):
            neighbor = self._by_axial.get((q + dq, r + dr))
            if neighbor is not None:
                yield neighbor

    def __iter__(self) -> Iterator[Cell]:
        return iter(self._cells)

    def __len__(self) -> int:
        return len(self._cells)


_HEX_EDGE_NORMALS = tuple(
    (math.cos(angle), math.sin(angle))
    for angle in (0.0, math.pi / 3.0, 2.0 * math.pi / 3.0)
)


def _axial_round(qf: np.ndarray, rf: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Round fractional axial coordinates to the containing hex.

    Standard cube-coordinate rounding: round all three cube coords and
    fix the one with the largest rounding error so they still sum to 0.
    ``np.rint`` rounds half to even, as Python's ``round`` does.
    """
    sf = -qf - rf
    q = np.rint(qf)
    r = np.rint(rf)
    s = np.rint(sf)
    dq = np.abs(q - qf)
    dr = np.abs(r - rf)
    ds = np.abs(s - sf)
    fix_q = (dq > dr) & (dq > ds)
    fix_r = ~fix_q & (dr > ds)
    q = np.where(fix_q, -r - s, q)
    r = np.where(fix_r, -q - s, r)
    return q.astype(np.int64), r.astype(np.int64)
