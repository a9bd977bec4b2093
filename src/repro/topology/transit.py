"""Fitting a :class:`~repro.topology.graph.CameraGraph` from traces.

:meth:`TransitModel.fit` consumes the ground-truth mobility traces the
datagen layer already produces (``EVDataset.traces``) and learns, per
directed cell edge, how often and how fast people transit it.  The
model is what every topology consumer holds: the V stage's pruner and
prior, the convoy join, the CLI's ``topology`` verbs and the cluster
workers' ``stats`` report.

The model pickles cleanly (plain dataclasses + numpy arrays), so a
:class:`~repro.cluster.worker.WorkerSpec` can carry topology-enabled
matcher configuration across a process spawn, and it round-trips
through the dataset ``.npz`` format via :meth:`to_arrays` /
:meth:`from_arrays` (the hop matrix is recomputed on load rather than
stored: it is quadratic in cells and derivable in milliseconds).
"""

from __future__ import annotations

from typing import Dict, Iterable, Tuple

import numpy as np

from repro.topology.graph import CameraGraph, EdgeStats

DEFAULT_QUANTILE = 0.95


class TransitModel:
    """A fitted camera graph plus the adjacency coverage it achieved.

    Attributes:
        graph: the fitted :class:`~repro.topology.graph.CameraGraph`.
        coverage: fraction of the grid's directed neighbor pairs that
            the traces actually exercised (the *fitted-edge coverage*
            the inspect report prints).  Low coverage means the traces
            were too short or too sparse to see most physical
            adjacencies; pruning stays sound either way (unseen cells
            are unreachable, and no fitted trace ever crossed them),
            but a production deployment would want this near 1.0.
    """

    def __init__(self, graph: CameraGraph, coverage: float) -> None:
        if not 0.0 <= coverage <= 1.0:
            raise ValueError(f"coverage must be in [0, 1], got {coverage}")
        self.graph = graph
        self.coverage = coverage

    @property
    def quantile(self) -> float:
        """The edge transit-time quantile level the fit calibrated."""
        return self.graph.quantile

    @classmethod
    def fit(cls, traces, grid, quantile: float = DEFAULT_QUANTILE) -> "TransitModel":
        """Learn the camera graph from ground-truth traces.

        Args:
            traces: a :class:`~repro.mobility.trace.TraceSet`, whose
                positions are located in one array lookup.
            grid: the cell decomposition the scenarios use
                (:class:`~repro.world.cells.CellGrid` or
                :class:`~repro.world.cells.HexCellGrid`).
            quantile: level for each edge's calibrated
                ``quantile_ticks`` upper bound.

        Every consecutive same-person tick pair whose cells differ is
        one edge traversal; its enter-to-enter time is the dwell spent
        in the source cell before the move.  The resulting edge set is
        exactly the set of one-tick transitions, which is what makes
        the hop-distance envelope cover every fitted trace (see
        :mod:`repro.topology.graph`).
        """
        if not 0.0 < quantile <= 1.0:
            raise ValueError(f"quantile must be in (0, 1], got {quantile}")
        cells = grid.locate_many(traces.positions)
        # Every tick whose cell differs from the previous tick's is one
        # traversal, scanned person by person in tick order.
        rows, cols = np.nonzero(cells[:, 1:] != cells[:, :-1])
        ticks = cols + 1
        new_person = np.ones(len(rows), dtype=bool)
        new_person[1:] = rows[1:] != rows[:-1]
        # The current cell was entered at the previous traversal of the
        # same person, or at tick 0.
        entered = np.where(new_person, 0, np.roll(ticks, 1))
        dwell = ticks - entered
        codes = cells[rows, cols] * grid.num_cells + cells[rows, ticks]
        unique, first, inverse = np.unique(
            codes, return_index=True, return_inverse=True
        )
        # Group each edge's dwell times in traversal order, and the edges
        # in order of first traversal.
        by_edge = np.argsort(inverse, kind="stable")
        offsets = np.concatenate(([0], np.cumsum(np.bincount(inverse))))
        edges = {}
        for slot in np.argsort(first, kind="stable").tolist():
            u, v = divmod(int(unique[slot]), grid.num_cells)
            times = dwell[by_edge[offsets[slot]:offsets[slot + 1]]]
            edges[(u, v)] = _edge_stats(times, quantile)
        graph = CameraGraph(grid.num_cells, edges, quantile)
        return cls(graph, _adjacency_coverage(grid, edges.keys()))

    # -- queries ---------------------------------------------------------
    def reachable(
        self, cell_a: int, tick_a: int, cell_b: int, tick_b: int
    ) -> bool:
        """Is the sighting pair spatiotemporally consistent?

        Order-free: the earlier sighting must be able to reach the
        later one through observed transitions.  Two same-tick
        sightings are consistent only in the same cell.
        """
        if tick_b < tick_a:
            cell_a, tick_a, cell_b, tick_b = cell_b, tick_b, cell_a, tick_a
        return self.graph.reachable(cell_a, cell_b, tick_b - tick_a)

    def transit_bound(self, u: int, v: int) -> "int | None":
        """The fitted ``u -> v`` quantile transit time, or ``None``.

        The convoy window join's per-hop dwell bound: co-travelers
        moving together should not take much longer than the
        calibrated quantile of everyone else's transits.
        """
        stats = self.graph.edge(u, v)
        return None if stats is None else stats.quantile_ticks

    def describe(self) -> Dict[str, float]:
        """Numeric summary (inspect report, worker ``stats``, bench)."""
        graph = self.graph
        counts = [s.count for _e, s in graph.edges()]
        means = [s.mean_ticks for _e, s in graph.edges()]
        return {
            "nodes": float(graph.num_cells),
            "edges": float(graph.num_edges),
            "coverage": float(self.coverage),
            "quantile": float(graph.quantile),
            "traversals": float(sum(counts)),
            "mean_transit_ticks": float(np.mean(means)) if means else 0.0,
        }

    # -- persistence -----------------------------------------------------
    def to_arrays(self) -> Dict[str, np.ndarray]:
        """Columnar form for ``np.savez`` (see :mod:`repro.datagen.io`)."""
        items = sorted(self.graph.edges(), key=lambda item: item[0])
        edges = np.array(
            [edge for edge, _stats in items], dtype=np.int64
        ).reshape(len(items), 2)
        stats = np.array(
            [
                (s.count, s.mean_ticks, s.var_ticks, s.min_ticks, s.quantile_ticks)
                for _edge, s in items
            ],
            dtype=np.float64,
        ).reshape(len(items), 5)
        meta = np.array(
            [self.graph.num_cells, self.graph.quantile, self.coverage],
            dtype=np.float64,
        )
        return {"topo_edges": edges, "topo_stats": stats, "topo_meta": meta}

    @classmethod
    def from_arrays(
        cls, edges: np.ndarray, stats: np.ndarray, meta: np.ndarray
    ) -> "TransitModel":
        """Rebuild a fitted model from :meth:`to_arrays` columns."""
        num_cells, quantile, coverage = (
            int(meta[0]), float(meta[1]), float(meta[2]),
        )
        edge_map = {
            (int(edges[i, 0]), int(edges[i, 1])): EdgeStats(
                count=int(stats[i, 0]),
                mean_ticks=float(stats[i, 1]),
                var_ticks=float(stats[i, 2]),
                min_ticks=int(stats[i, 3]),
                quantile_ticks=int(stats[i, 4]),
            )
            for i in range(edges.shape[0])
        }
        return cls(CameraGraph(num_cells, edge_map, quantile), coverage)


def _edge_stats(times: np.ndarray, quantile: float) -> EdgeStats:
    array = np.asarray(times, dtype=np.float64)
    return EdgeStats(
        count=len(array),
        mean_ticks=float(array.mean()),
        var_ticks=float(array.var()),
        min_ticks=int(array.min()),
        quantile_ticks=int(np.ceil(np.quantile(array, quantile))),
    )


def _adjacency_coverage(grid, fitted: Iterable[Tuple[int, int]]) -> float:
    """Observed fraction of the grid's directed neighbor pairs."""
    adjacent = {
        (cell.cell_id, neighbor.cell_id)
        for cell in grid
        for neighbor in grid.neighbors(cell)
    }
    if not adjacent:
        return 0.0
    return len(adjacent & set(fitted)) / len(adjacent)
