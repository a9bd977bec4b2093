"""Trajectory generation: stepping a population through a mobility model.

A :class:`Trajectory` is one person's sampled path — the ground-truth
movement from which both the E side (base-station sightings) and the V
side (camera sightings) are derived.  The paper calls the per-identity
versions of these *E-Trajectory* and *V-Trajectory* (Sec. III); both are
noisy projections of the single true trajectory produced here.

A :class:`TraceSet` holds the whole population's paths as one
``(people, ticks, 2)`` float array.  Everything downstream (sensing,
topology fitting) scans that array by column; per-point
:class:`~repro.world.geometry.Point` views (:meth:`TraceSet.trajectory`,
:meth:`TraceSet.positions_at`) are built on demand and never kept.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Sequence

import numpy as np

from repro.mobility.base import MobilityModel, Walker
from repro.world.geometry import Point


@dataclass(frozen=True)
class Trajectory:
    """One person's sampled ground-truth path.

    Attributes:
        person_id: whose path this is.
        timestamps: sample times in seconds, strictly increasing,
            shared across the whole :class:`TraceSet`.
        points: sampled positions, one per timestamp.
    """

    person_id: int
    timestamps: Sequence[float]
    points: Sequence[Point]

    def __post_init__(self) -> None:
        if len(self.timestamps) != len(self.points):
            raise ValueError(
                f"{len(self.timestamps)} timestamps but {len(self.points)} points"
            )

    def __len__(self) -> int:
        return len(self.points)

    def position_at_index(self, tick: int) -> Point:
        """Position at the ``tick``-th sample."""
        return self.points[tick]

    def displacement(self) -> float:
        """Straight-line distance between the first and last samples."""
        if len(self.points) < 2:
            return 0.0
        return self.points[0].distance_to(self.points[-1])

    def path_length(self) -> float:
        """Total travelled distance along the samples."""
        return sum(
            a.distance_to(b) for a, b in zip(self.points, self.points[1:])
        )


class TraceSet:
    """Trajectories for a whole population over a common time base.

    Args:
        person_ids: whose path each row of ``positions`` is.
        positions: ``(people, ticks, 2)`` float array of ``(x, y)``
            samples; row ``i`` is ``person_ids[i]``'s path.
        dt: sampling interval in seconds.
    """

    def __init__(
        self, person_ids: Sequence[int], positions: np.ndarray, dt: float
    ) -> None:
        positions = np.asarray(positions, dtype=np.float64)
        if len(person_ids) == 0:
            raise ValueError("a TraceSet needs at least one trajectory")
        if positions.ndim != 3 or positions.shape[2] != 2:
            raise ValueError(
                f"positions must be (people, ticks, 2), got {positions.shape}"
            )
        if positions.shape[0] != len(person_ids):
            raise ValueError(
                f"{len(person_ids)} person ids but {positions.shape[0]} paths"
            )
        if positions.shape[1] == 0:
            raise ValueError("trajectories need at least one sample")
        self._rows: Dict[int, int] = {
            int(pid): row for row, pid in enumerate(person_ids)
        }
        if len(self._rows) != len(person_ids):
            raise ValueError("duplicate person_id in trajectories")
        self.row_person_ids = tuple(int(pid) for pid in person_ids)
        positions.flags.writeable = False
        self.positions = positions
        self.dt = dt
        self.num_ticks = positions.shape[1]
        self.timestamps = tuple(i * dt for i in range(self.num_ticks))

    @property
    def person_ids(self) -> Sequence[int]:
        return tuple(sorted(self._rows))

    def trajectory(self, person_id: int) -> Trajectory:
        """``person_id``'s path as :class:`Point` samples (a fresh view)."""
        try:
            row = self._rows[person_id]
        except KeyError:
            raise KeyError(f"no trajectory for person {person_id}") from None
        return Trajectory(
            person_id=person_id,
            timestamps=self.timestamps,
            points=tuple(Point(x, y) for x, y in self.positions[row].tolist()),
        )

    def positions_at(self, tick: int) -> Dict[int, Point]:
        """All persons' positions at one tick — one world snapshot."""
        if not 0 <= tick < self.num_ticks:
            raise IndexError(f"tick {tick} out of range [0, {self.num_ticks})")
        return {
            pid: Point(x, y)
            for pid, (x, y) in zip(
                self.row_person_ids, self.positions[:, tick].tolist()
            )
        }

    def __iter__(self) -> Iterator[Trajectory]:
        return (self.trajectory(pid) for pid in self.row_person_ids)

    def __len__(self) -> int:
        return len(self.row_person_ids)


def spawn_walkers(
    model: MobilityModel,
    count: int,
    seed: int,
    dt: float,
    warmup: float,
) -> List[Walker]:
    """``count`` walkers, each on its own substream of ``seed``, stepped
    through ``warmup`` seconds.

    Every person gets an independent generator, so adding or removing
    people never perturbs the others' paths.  The trace generator and
    the live stream source both start their population here.
    """
    children = np.random.SeedSequence(seed).spawn(count)
    walkers = [model.walker(np.random.default_rng(child)) for child in children]
    warmup_steps = int(round(warmup / dt))
    for walker in walkers:
        for _ in range(warmup_steps):
            walker.advance(dt)
    return walkers


def generate_traces(
    model: MobilityModel,
    person_ids: Sequence[int],
    duration: float,
    dt: float = 1.0,
    seed: int = 0,
    warmup: float = 0.0,
) -> TraceSet:
    """Step every person through ``model`` and record sampled paths.

    Args:
        model: the mobility model to drive everyone with.
        person_ids: which people to generate paths for.
        duration: simulated seconds of recorded trace.
        dt: sampling interval in seconds.
        seed: master seed; each person gets an independent substream so
            adding or removing people never perturbs others' paths.
        warmup: seconds to simulate *before* recording starts.  Random
            waypoint needs a warmup to escape its non-stationary uniform
            start (the classic RWP pitfall); benchmarks use a few
            hundred seconds.

    Returns:
        A :class:`TraceSet` with ``floor(duration / dt) + 1`` samples
        per person.
    """
    if duration <= 0:
        raise ValueError(f"duration must be positive, got {duration}")
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    if warmup < 0:
        raise ValueError(f"warmup must be non-negative, got {warmup}")
    num_ticks = int(duration / dt) + 1
    walkers = spawn_walkers(model, len(person_ids), seed, dt, warmup)
    positions = np.empty((len(walkers), num_ticks, 2))
    for row, walker in enumerate(walkers):
        path = [walker.x, walker.y]
        for _ in range(num_ticks - 1):
            walker.advance(dt)
            path.append(walker.x)
            path.append(walker.y)
        positions[row] = np.array(path).reshape(num_ticks, 2)
    return TraceSet(person_ids, positions, dt=dt)
