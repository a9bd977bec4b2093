"""The world build one object at a time: the executable spec of the
columnar builder.

This is the per-object path the columnar world build replaced, kept
literal so the equivalence suite can check production against it:

* mobility steps a :class:`State` of :class:`Point` / :class:`Vector`
  objects and an ``extra`` dict per person and tick, one model at a
  time (random waypoint with its hotspot variant, random walk,
  Gauss-Markov);
* cell lookup and zone classification go point by point;
* sensing walks ``{pid: Point}`` snapshots: one E sighting object per
  device and tick, one ``observe`` call (with its own
  ``np.linalg.norm``) per detection;
* the topology fit walks every trajectory tick by tick.

Everything production must reproduce bit for bit is computed here
independently: positions, random draw order, cell ids, zones, feature
arithmetic, detection ids and the camera graph.  Only configuration,
data types and the per-event stream oracle's attribution rule
(:mod:`tests.oracles.stream`) are shared.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Sequence, Tuple

import numpy as np

from repro.datagen.config import ExperimentConfig
from repro.datagen.dataset import make_grid, make_mobility_model
from repro.mobility.gauss_markov import GaussMarkov
from repro.mobility.hotspot import HotspotWaypoint
from repro.mobility.random_walk import RandomWalk
from repro.sensing.builder import VFrame
from repro.sensing.scenarios import (
    Detection,
    EScenario,
    EVScenario,
    ScenarioKey,
    VScenario,
)
from repro.topology.graph import CameraGraph
from repro.topology.transit import TransitModel, _adjacency_coverage, _edge_stats
from repro.world.cells import CellGrid, HexCellGrid, ZoneKind
from repro.world.entities import EID, VID
from repro.world.geometry import BoundingBox, Point, Vector
from repro.world.population import Population
from tests.oracles.stream import CellSighting, attribute_eids

# -- mobility ----------------------------------------------------------


@dataclass
class State:
    """Kinematic state of one person."""

    position: Point
    velocity: Vector = Vector(0.0, 0.0)
    extra: Dict[str, Any] = field(default_factory=dict)

    @property
    def speed(self) -> float:
        return self.velocity.magnitude


def _uniform_point(region: BoundingBox, rng: np.random.Generator) -> Point:
    return Point(
        float(rng.uniform(region.min_x, region.max_x)),
        float(rng.uniform(region.min_y, region.max_y)),
    )


class WaypointOracle:
    """Random waypoint (and its hotspot variant), state object by state
    object."""

    def __init__(self, model) -> None:
        self.model = model
        self.region = model.region
        self.config = model.config

    def initial_state(self, rng: np.random.Generator) -> State:
        state = State(position=_uniform_point(self.region, rng))
        self._begin_trip(state, rng)
        return state

    def step(self, state: State, dt: float, rng: np.random.Generator) -> State:
        new = State(
            position=state.position,
            velocity=state.velocity,
            extra=dict(state.extra),
        )
        remaining = dt
        while remaining > 1e-9:
            pause_left = new.extra.get("pause_left", 0.0)
            if pause_left > 0.0:
                consumed = min(pause_left, remaining)
                new.extra["pause_left"] = pause_left - consumed
                remaining -= consumed
                if new.extra["pause_left"] <= 1e-9:
                    new.extra["pause_left"] = 0.0
                    self._begin_trip(new, rng)
                continue
            remaining = self._advance_travel(new, remaining, rng)
        return new

    def _destination(self, rng: np.random.Generator) -> Point:
        if not isinstance(self.model, HotspotWaypoint):
            return _uniform_point(self.region, rng)
        hot = self.model.hotspot_config
        hotspots = self.model.hotspots
        if rng.random() < hot.hotspot_bias:
            center = hotspots[int(rng.integers(len(hotspots)))]
            return self.region.clamp(
                Point(
                    center.x + float(rng.normal(0.0, hot.spread)),
                    center.y + float(rng.normal(0.0, hot.spread)),
                )
            )
        return _uniform_point(self.region, rng)

    def _begin_trip(self, state: State, rng: np.random.Generator) -> None:
        cfg = self.config
        destination = self._destination(rng)
        trip_speed = float(rng.uniform(cfg.min_speed, cfg.max_speed))
        state.extra["destination"] = destination
        state.extra["trip_speed"] = trip_speed
        state.extra["pause_left"] = 0.0
        if cfg.max_acceleration is None:
            displacement = state.position.vector_to(destination)
            if displacement.magnitude == 0.0:
                state.velocity = Vector(0.0, 0.0)
            else:
                state.velocity = displacement.normalized().scaled(trip_speed)

    def _advance_travel(
        self, state: State, dt: float, rng: np.random.Generator
    ) -> float:
        cfg = self.config
        destination: Point = state.extra["destination"]
        trip_speed: float = state.extra["trip_speed"]
        distance = state.position.distance_to(destination)
        if distance <= cfg.arrival_tolerance:
            self._arrive(state, rng)
            return dt
        if cfg.max_acceleration is None:
            speed = trip_speed
        else:
            current = state.speed
            delta = trip_speed - current
            max_delta = cfg.max_acceleration * dt
            speed = current + max(-max_delta, min(max_delta, delta))
            speed = max(speed, 0.0)
        travel = min(speed * dt, distance)
        if distance > 0.0:
            direction = state.position.vector_to(destination).normalized()
        else:
            direction = Vector(0.0, 0.0)
        state.velocity = direction.scaled(speed)
        state.position = self.region.clamp(
            state.position.translate(direction.scaled(travel))
        )
        if speed * dt >= distance - 1e-12:
            consumed = distance / speed if speed > 0 else dt
            self._arrive(state, rng)
            return max(dt - consumed, 0.0)
        return 0.0

    def _arrive(self, state: State, rng: np.random.Generator) -> None:
        cfg = self.config
        state.position = self.region.clamp(state.extra["destination"])
        state.velocity = Vector(0.0, 0.0)
        state.extra["pause_left"] = float(rng.uniform(0.0, cfg.max_pause))
        if state.extra["pause_left"] <= 1e-9:
            self._begin_trip(state, rng)


class RandomWalkOracle:
    def __init__(self, model: RandomWalk) -> None:
        self.region = model.region
        self.config = model.config

    def initial_state(self, rng: np.random.Generator) -> State:
        state = State(position=_uniform_point(self.region, rng))
        self._begin_epoch(state, rng)
        return state

    def step(self, state: State, dt: float, rng: np.random.Generator) -> State:
        new = State(
            position=state.position,
            velocity=state.velocity,
            extra=dict(state.extra),
        )
        remaining = dt
        while remaining > 1e-9:
            epoch_left = new.extra.get("epoch_left", 0.0)
            if epoch_left <= 1e-9:
                self._begin_epoch(new, rng)
                epoch_left = new.extra["epoch_left"]
            consumed = min(epoch_left, remaining)
            self._move(new, consumed)
            new.extra["epoch_left"] = epoch_left - consumed
            remaining -= consumed
        return new

    def _begin_epoch(self, state: State, rng: np.random.Generator) -> None:
        cfg = self.config
        angle = float(rng.uniform(0.0, 2.0 * math.pi))
        speed = float(rng.uniform(cfg.min_speed, cfg.max_speed))
        state.velocity = Vector.from_polar(speed, angle)
        state.extra["epoch_left"] = cfg.epoch_duration

    def _move(self, state: State, dt: float) -> None:
        x = state.position.x + state.velocity.dx * dt
        y = state.position.y + state.velocity.dy * dt
        vx, vy = state.velocity.dx, state.velocity.dy
        x, vx = _reflect(x, vx, self.region.min_x, self.region.max_x)
        y, vy = _reflect(y, vy, self.region.min_y, self.region.max_y)
        state.position = Point(x, y)
        state.velocity = Vector(vx, vy)


def _reflect(coord: float, velocity: float, low: float, high: float):
    span = high - low
    if span <= 0:
        return low, 0.0
    rel = (coord - low) % (2.0 * span)
    if rel > span:
        rel = 2.0 * span - rel
        velocity = -velocity
    return low + rel, velocity


class GaussMarkovOracle:
    def __init__(self, model: GaussMarkov) -> None:
        self.region = model.region
        self.config = model.config

    def initial_state(self, rng: np.random.Generator) -> State:
        cfg = self.config
        position = _uniform_point(self.region, rng)
        direction = float(rng.uniform(0.0, 2.0 * math.pi))
        speed = max(0.0, float(rng.normal(cfg.mean_speed, cfg.speed_sigma)))
        state = State(position=position, velocity=Vector.from_polar(speed, direction))
        state.extra["speed"] = speed
        state.extra["direction"] = direction
        return state

    def step(self, state: State, dt: float, rng: np.random.Generator) -> State:
        cfg = self.config
        speed = state.extra.get("speed", cfg.mean_speed)
        direction = state.extra.get("direction", 0.0)
        mean_dir = self._steered_mean_direction(state.position, direction)
        noise_scale = math.sqrt(max(0.0, 1.0 - cfg.alpha**2))
        speed = (
            cfg.alpha * speed
            + (1.0 - cfg.alpha) * cfg.mean_speed
            + noise_scale * float(rng.normal(0.0, cfg.speed_sigma))
        )
        speed = max(speed, 0.0)
        direction = (
            cfg.alpha * direction
            + (1.0 - cfg.alpha) * mean_dir
            + noise_scale * float(rng.normal(0.0, cfg.direction_sigma))
        )
        velocity = Vector.from_polar(speed, direction)
        position = self.region.clamp(state.position.translate(velocity.scaled(dt)))
        new = State(position=position, velocity=velocity)
        new.extra["speed"] = speed
        new.extra["direction"] = direction
        return new

    def _steered_mean_direction(self, position: Point, current: float) -> float:
        cfg = self.config
        if self.region.distance_to_border(position) >= cfg.border_margin:
            return current
        target = position.vector_to(self.region.center).angle
        while target - current > math.pi:
            target -= 2.0 * math.pi
        while current - target > math.pi:
            target += 2.0 * math.pi
        return target


def mobility_oracle(model):
    """The object-path twin of a production mobility model."""
    if isinstance(model, RandomWalk):
        return RandomWalkOracle(model)
    if isinstance(model, GaussMarkov):
        return GaussMarkovOracle(model)
    return WaypointOracle(model)


def oracle_states(
    model, count: int, seed: int, dt: float, warmup: float
) -> Tuple[Any, List[State], List[np.random.Generator]]:
    """Per-person generators and warmed-up states, person by person."""
    oracle = mobility_oracle(model)
    rngs = [
        np.random.default_rng(child)
        for child in np.random.SeedSequence(seed).spawn(count)
    ]
    states = []
    for rng in rngs:
        state = oracle.initial_state(rng)
        for _ in range(int(round(warmup / dt))):
            state = oracle.step(state, dt, rng)
        states.append(state)
    return oracle, states, rngs


def oracle_traces(
    model, count: int, duration: float, dt: float, seed: int, warmup: float
) -> np.ndarray:
    """``(count, ticks, 2)`` positions, stepped one state at a time."""
    oracle, states, rngs = oracle_states(model, count, seed, dt, warmup)
    num_ticks = int(duration / dt) + 1
    out = np.empty((count, num_ticks, 2))
    for row, (state, rng) in enumerate(zip(states, rngs)):
        out[row, 0] = state.position.as_tuple()
        for tick in range(1, num_ticks):
            state = oracle.step(state, dt, rng)
            out[row, tick] = state.position.as_tuple()
    return out


# -- cells ---------------------------------------------------------------


def oracle_locate(grid, point: Point) -> int:
    """The cell id of ``point``, one point at a time."""
    if isinstance(grid, CellGrid):
        col = int((point.x - grid.region.min_x) / grid._cell_width)
        row = int((point.y - grid.region.min_y) / grid._cell_height)
        col = min(max(col, 0), grid.cells_per_side - 1)
        row = min(max(row, 0), grid.cells_per_side - 1)
        return row * grid.cells_per_side + col
    px = point.x - grid.region.min_x
    py = point.y - grid.region.min_y
    qf = (math.sqrt(3) / 3.0 * px - 1.0 / 3.0 * py) / grid.hex_radius
    rf = (2.0 / 3.0 * py) / grid.hex_radius
    sf = -qf - rf
    q, r, s = round(qf), round(rf), round(sf)
    dq, dr, ds = abs(q - qf), abs(r - rf), abs(s - sf)
    if dq > dr and dq > ds:
        q = -r - s
    elif dr > ds:
        r = -q - s
    cell = grid._by_axial.get((int(q), int(r)))
    if cell is None:
        cell = min(grid.cells, key=lambda c: c.center.distance_to(point))
    return cell.cell_id


def oracle_is_vague(grid, point: Point) -> bool:
    """Whether ``point`` lies in the vague band of its own cell."""
    cell = grid.cell(oracle_locate(grid, point))
    if isinstance(grid, CellGrid):
        if not cell.bounds.contains(point) or grid.vague_width == 0.0:
            return False
        return cell.bounds.distance_to_border(point) < grid.vague_width
    assert isinstance(grid, HexCellGrid)
    dx = point.x - cell.center.x
    dy = point.y - cell.center.y
    border = math.inf
    for angle in (0.0, math.pi / 3.0, 2.0 * math.pi / 3.0):
        proj = abs(dx * math.cos(angle) + dy * math.sin(angle))
        border = min(border, grid._inradius - proj)
    return grid.vague_width > 0.0 and 0.0 <= border < grid.vague_width


# -- sensing ---------------------------------------------------------------


class OracleSensor:
    """Per-object E and V sensing over ``{pid: Point}`` snapshots."""

    def __init__(self, population: Population, grid, config: ExperimentConfig) -> None:
        self.population = population
        self.grid = grid
        self.e_config = config.e_sensing_config()
        self.v_config = config.v_sensing_config()
        self.builder_config = config.builder_config()
        self.next_detection = 0

    def observe(self, vid: VID, rng: np.random.Generator) -> np.ndarray:
        appearance = self.population.appearance
        space = appearance.space
        level = space.observation_noise
        if space.outlier_rate > 0.0 and rng.random() < space.outlier_rate:
            level = space.outlier_noise
        per_dim_sigma = level / space.dimension**0.5
        noise = rng.standard_normal(space.dimension) * per_dim_sigma
        observed = appearance.latent(vid) + noise
        norm = np.linalg.norm(observed)
        if norm == 0.0:
            return appearance.latent(vid).copy()
        return observed / norm

    def sense_window(
        self,
        snapshots: Sequence[Tuple[int, Dict[int, Point]]],
        rng: np.random.Generator,
    ) -> Tuple[List[CellSighting], List[VFrame]]:
        cfg = self.e_config
        sightings: List[CellSighting] = []
        seen_cells = set()
        for tick, snapshot in snapshots:
            devices: Dict[EID, Point] = {}
            for pid, point in snapshot.items():
                for eid in self.population.person(pid).all_eids:
                    devices[eid] = point
            for eid in sorted(devices):
                if cfg.miss_rate > 0.0 and rng.random() < cfg.miss_rate:
                    continue
                true_pos = devices[eid]
                if cfg.drift_sigma > 0.0:
                    observed = Point(
                        true_pos.x + float(rng.normal(0.0, cfg.drift_sigma)),
                        true_pos.y + float(rng.normal(0.0, cfg.drift_sigma)),
                    )
                else:
                    observed = true_pos
                cell_id = oracle_locate(self.grid, observed)
                seen_cells.add(cell_id)
                sightings.append(
                    CellSighting(
                        tick=tick,
                        cell_id=cell_id,
                        eid=eid,
                        vague=oracle_is_vague(self.grid, observed),
                    )
                )
        middle_tick, middle = snapshots[self.builder_config.window_ticks // 2]
        present: Dict[int, List[VID]] = {}
        for pid, point in middle.items():
            present.setdefault(oracle_locate(self.grid, point), []).append(
                self.population.person(pid).vid
            )
        frames: List[VFrame] = []
        for cell_id in sorted(seen_cells | set(present)):
            detections = []
            for vid in sorted(present.get(cell_id, ())):
                if self.v_config.miss_rate > 0.0 and rng.random() < self.v_config.miss_rate:
                    continue
                detections.append(
                    Detection(
                        detection_id=self.next_detection,
                        feature=self.observe(vid, rng),
                        true_vid=vid,
                    )
                )
                self.next_detection += 1
            frames.append(
                VFrame.of(middle_tick, cell_id, detections)
            )
        return sightings, frames

    def assemble(
        self, window: int, sightings: Sequence[CellSighting], frames: Sequence[VFrame]
    ) -> List[EVScenario]:
        cfg = self.builder_config
        seen: Dict[int, Dict[EID, int]] = {}
        seen_vague: Dict[int, Dict[EID, int]] = {}
        for s in sightings:
            counts = seen.setdefault(s.cell_id, {})
            counts[s.eid] = counts.get(s.eid, 0) + 1
            if s.vague:
                vague_counts = seen_vague.setdefault(s.cell_id, {})
                vague_counts[s.eid] = vague_counts.get(s.eid, 0) + 1
        scenarios = []
        for frame in frames:
            key = ScenarioKey(cell_id=frame.cell_id, tick=window)
            inclusive, vague = attribute_eids(
                seen.get(frame.cell_id, {}),
                seen_vague.get(frame.cell_id, {}),
                cfg.window_ticks,
                cfg.inclusive_threshold,
                cfg.vague_threshold,
            )
            scenarios.append(
                EVScenario(
                    e=EScenario(key=key, inclusive=frozenset(inclusive), vague=frozenset(vague)),
                    v=VScenario(
                        key, frame.detection_ids, frame.vids, frame.features
                    ),
                )
            )
        return scenarios


def _snapshots(
    positions: np.ndarray, person_ids: Sequence[int], ticks: range
) -> List[Tuple[int, Dict[int, Point]]]:
    return [
        (
            tick,
            {
                pid: Point(float(positions[row, tick, 0]), float(positions[row, tick, 1]))
                for row, pid in enumerate(person_ids)
            },
        )
        for tick in ticks
    ]


@dataclass
class OracleWorld:
    """What the object path builds for one configuration."""

    population: Population
    grid: Any
    positions: np.ndarray
    scenarios: List[EVScenario]
    topology: TransitModel
    replay_events: List[Any]


def oracle_world(config: ExperimentConfig) -> OracleWorld:
    """Build ``config``'s world, and the events its trace replay
    streams, one object at a time."""
    population = Population(config.population_config())
    region = BoundingBox.square(config.region_side)
    grid = make_grid(config, region)
    person_ids = [p.person_id for p in population.people]
    positions = oracle_traces(
        make_mobility_model(config, region),
        len(person_ids),
        config.duration,
        config.sample_dt,
        config.seed + 2,
        config.warmup,
    )
    sensor = OracleSensor(population, grid, config)
    rng = np.random.default_rng(sensor.builder_config.seed)
    window_ticks = sensor.builder_config.window_ticks
    scenarios: List[EVScenario] = []
    events: List[Any] = []
    for window in range(positions.shape[1] // window_ticks):
        ticks = range(window * window_ticks, (window + 1) * window_ticks)
        sightings, frames = sensor.sense_window(
            _snapshots(positions, person_ids, ticks), rng
        )
        scenarios.extend(sensor.assemble(window, sightings, frames))
        events.extend(sightings)
        events.extend(frames)
    return OracleWorld(
        population=population,
        grid=grid,
        positions=positions,
        scenarios=scenarios,
        topology=oracle_fit(positions, grid),
        replay_events=events,
    )


def oracle_live_events(config: ExperimentConfig, max_windows: int) -> Iterator[Any]:
    """The live source's events: every person stepped in lockstep."""
    population = Population(config.population_config())
    region = BoundingBox.square(config.region_side)
    grid = make_grid(config, region)
    person_ids = [p.person_id for p in population.people]
    oracle, states, rngs = oracle_states(
        make_mobility_model(config, region),
        len(person_ids),
        config.seed + 2,
        config.sample_dt,
        config.warmup,
    )
    sensor = OracleSensor(population, grid, config)
    rng = np.random.default_rng(sensor.builder_config.seed)
    tick = 0
    for _window in range(max_windows):
        snapshots = []
        for _ in range(sensor.builder_config.window_ticks):
            if tick > 0:
                states = [
                    oracle.step(state, config.sample_dt, person_rng)
                    for state, person_rng in zip(states, rngs)
                ]
            snapshots.append(
                (tick, {pid: s.position for pid, s in zip(person_ids, states)})
            )
            tick += 1
        sightings, frames = sensor.sense_window(snapshots, rng)
        yield from sightings
        yield from frames


# -- topology ----------------------------------------------------------------


def oracle_fit(positions: np.ndarray, grid, quantile: float = 0.95) -> TransitModel:
    """The camera graph, trajectory by trajectory and tick by tick."""
    transits: Dict[Tuple[int, int], List[int]] = {}
    for path in positions:
        cells = [oracle_locate(grid, Point(float(x), float(y))) for x, y in path]
        entered = 0
        for tick in range(1, len(cells)):
            if cells[tick] == cells[tick - 1]:
                continue
            transits.setdefault((cells[tick - 1], cells[tick]), []).append(
                tick - entered
            )
            entered = tick
    edges = {edge: _edge_stats(times, quantile) for edge, times in transits.items()}
    graph = CameraGraph(grid.num_cells, edges, quantile)
    return TransitModel(graph, _adjacency_coverage(grid, edges.keys()))
