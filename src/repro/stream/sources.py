"""Sensor sources: where the stream comes from.

Two producers, one contract — an iterator of
:data:`~repro.stream.events.StreamItem` in arrival order:

* :class:`TraceReplaySource` replays a recorded ground-truth
  :class:`~repro.mobility.trace.TraceSet` through *fresh* sensing
  models, reproducing exactly the raw events the batch builder would
  aggregate (same RNG consumption order), at a configurable
  ``speedup`` and with optional bounded arrival ``jitter``;
* :class:`SyntheticLiveSource` steps a mobility model live — no
  pre-generated traces, optionally unbounded — for soak tests and
  demos of heavy live traffic.  It advances the same walkers
  :func:`~repro.mobility.trace.generate_traces` does, in lockstep, and
  senses through the same :meth:`ScenarioBuilder.sense_positions`.

Without jitter each window arrives as one
:class:`~repro.sensing.builder.SightingBatch` of its sightings, then
its camera frames.

**Jitter model.**  Each event's arrival key is ``tick + U[0, jitter)``
and events are delivered in key order, so disorder is *bounded*: an
event can arrive at most ``jitter_ticks`` ticks of event time after a
later-stamped one.  The sightings between two consecutive frames of
that order travel as one batch, so arrival order is event for event
the same.  An assembler with ``allowed_lateness >= jitter_ticks``
therefore never drops one of these events as late, and the stream's
end state equals the batch builder's — the property the hypothesis
suite pins.

**Pacing.**  ``speedup > 0`` paces delivery against the wall clock at
``speedup``× real time, per item: an item is delivered when the
arrival key of its last event falls due (a 10 s-tick trace at
``speedup=50`` delivers one tick's worth every 200 ms).
``speedup=0`` (default) delivers as fast as the consumer can take
them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.datagen.config import ExperimentConfig
from repro.datagen.dataset import make_grid, make_mobility_model
from repro.mobility.trace import TraceSet, spawn_walkers
from repro.sensing.builder import ScenarioBuilder, SightingBatch, VFrame, WindowSensing
from repro.sensing.e_sensing import ESensingModel
from repro.sensing.v_sensing import VSensingModel
from repro.stream.events import StreamItem, event_count
from repro.world.geometry import BoundingBox
from repro.world.population import Population


@dataclass(frozen=True)
class ReplayConfig:
    """Delivery shaping shared by both sources.

    Attributes:
        speedup: wall-clock pacing factor; 0 disables pacing.
        jitter_ticks: bounded out-of-orderness horizon in ticks; 0
            delivers in capture order.
        seed: randomness for the per-event jitter draw (independent of
            the sensing seed so the same world can be replayed under
            different arrival orders).
    """

    speedup: float = 0.0
    jitter_ticks: int = 0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.speedup < 0:
            raise ValueError(f"speedup must be non-negative, got {self.speedup}")
        if self.jitter_ticks < 0:
            raise ValueError(
                f"jitter_ticks must be non-negative, got {self.jitter_ticks}"
            )


class _Pacer:
    """Sleeps so event-time advances at ``speedup``× wall time.

    Anchored at the first event actually delivered, so a restored
    pipeline that skips an already-processed prefix does not sleep
    through it again.
    """

    def __init__(self, dt: float, speedup: float) -> None:
        self.dt = dt
        self.speedup = speedup
        self._started: Optional[float] = None
        self._anchor = 0.0

    def pace(self, event_time_ticks: float) -> None:
        if self.speedup <= 0:
            return
        if self._started is None:
            self._started = time.monotonic()
            self._anchor = event_time_ticks
            return
        due = (
            self._started
            + (event_time_ticks - self._anchor) * self.dt / self.speedup
        )
        delay = due - time.monotonic()
        if delay > 0:
            time.sleep(delay)


def _ordered(
    windows: Iterable[WindowSensing],
    window_ticks: int,
    replay: ReplayConfig,
) -> Iterator[Tuple[float, StreamItem]]:
    """Sensed windows as ``(arrival key, item)`` pairs in arrival order,
    applying the jitter buffer.  A batch's key is its last sighting's."""
    if replay.jitter_ticks == 0:
        for sensing in windows:
            if len(sensing.e):
                yield float(sensing.e.ticks[-1]), sensing.e
            for frame in sensing.frames:
                yield float(frame.tick), frame
        return

    rng = np.random.default_rng(replay.seed)
    # The jitter buffer: held sightings and frames, and each held event's
    # arrival key and row (a frame's row is -1 - its position in
    # ``frames``), in arrival order.  Each window's events join it in
    # capture order, so the stable sort breaks key ties by capture.
    held: Optional[SightingBatch] = None
    frames: List[VFrame] = []
    keys = np.empty(0)
    rows = np.empty(0, dtype=np.int64)
    for sensing in windows:
        batch = sensing.e if held is None else SightingBatch.concat([held, sensing.e])
        n, m = len(sensing.e), len(sensing.frames)
        draws = rng.uniform(0.0, replay.jitter_ticks, size=n + m)
        keys = np.concatenate(
            [
                keys,
                sensing.e.ticks + draws[:n],
                np.array([f.tick for f in sensing.frames], dtype=np.int64) + draws[n:],
            ]
        )
        rows = np.concatenate(
            [
                rows,
                np.arange(len(batch) - n, len(batch)),
                -1 - np.arange(len(frames), len(frames) + m),
            ]
        )
        frames.extend(sensing.frames)
        order = np.argsort(keys, kind="stable")
        # Events of later windows all carry ticks >= the next window's
        # first tick, so anything keyed below it can never be preempted.
        ready = int(np.count_nonzero(keys < (sensing.window + 1) * window_ticks))
        yield from _runs(keys[order[:ready]], rows[order[:ready]], batch, frames)
        rest = order[ready:]
        keys, rows = keys[rest], rows[rest]
        is_frame = rows < 0
        held = batch[rows[~is_frame]]
        frames = [frames[-1 - row] for row in rows[is_frame].tolist()]
        rows[~is_frame] = np.arange(len(held))
        rows[is_frame] = -1 - np.arange(len(frames))
    if held is not None:
        yield from _runs(keys, rows, held, frames)


def _runs(
    keys: np.ndarray,
    rows: np.ndarray,
    batch: SightingBatch,
    frames: Sequence[VFrame],
) -> Iterator[Tuple[float, StreamItem]]:
    """Arrival-ordered events as maximal sighting batches between
    frames, each with its last event's arrival key."""
    start = 0
    for at in np.flatnonzero(rows < 0).tolist() + [len(rows)]:
        if at > start:
            yield float(keys[at - 1]), batch[rows[start:at]]
        if at < len(rows):
            yield float(keys[at]), frames[-1 - int(rows[at])]
        start = at + 1


def _deliver(
    windows: Iterable[WindowSensing],
    window_ticks: int,
    dt: float,
    replay: ReplayConfig,
    skip: int = 0,
) -> Iterator[StreamItem]:
    """Arrival-ordered item stream with wall-clock pacing, per item.

    ``skip`` drops the first N events *before* pacing (slicing the
    batch that straddles it), so a restored pipeline resumes
    immediately instead of sleeping through the already-processed
    prefix.
    """
    pacer = _Pacer(dt, replay.speedup)
    for key, item in _ordered(windows, window_ticks, replay):
        if skip:
            count = event_count(item)
            if count <= skip:
                skip -= count
                continue
            item, skip = item[skip:], 0
        pacer.pace(key)
        yield item


class TraceReplaySource:
    """Replay a recorded trace through fresh sensing models.

    Args:
        population: the ground-truth people (appearance + devices).
        grid: the cell decomposition.
        traces: the recorded trajectories to replay.
        config: the experiment configuration the dataset was built
            with; its sensing/builder sub-configs seed *fresh* models
            so the replayed events match the batch build byte for byte.
        replay: delivery shaping (speedup / jitter).
    """

    def __init__(
        self,
        population: Population,
        grid,
        traces: TraceSet,
        config: ExperimentConfig,
        replay: Optional[ReplayConfig] = None,
    ) -> None:
        self.population = population
        self.grid = grid
        self.traces = traces
        self.config = config
        self.replay = replay if replay is not None else ReplayConfig()
        builder_config = config.builder_config()
        self.window_ticks = builder_config.window_ticks
        self.num_windows = traces.num_ticks // builder_config.window_ticks
        if self.num_windows == 0:
            raise ValueError(
                f"traces have {traces.num_ticks} ticks, fewer than one "
                f"window of {builder_config.window_ticks}"
            )
        self._builder_config = builder_config

    @classmethod
    def from_dataset(
        cls, dataset, replay: Optional[ReplayConfig] = None
    ) -> "TraceReplaySource":
        """Replay a built :class:`~repro.datagen.dataset.EVDataset`.

        The dataset must still carry its traces (worlds reloaded from
        disk drop them — rebuild instead).
        """
        if dataset.traces is None:
            raise ValueError(
                "dataset has no traces to replay (reloaded from disk?); "
                "rebuild it with build_dataset or use SyntheticLiveSource"
            )
        return cls(
            dataset.population,
            dataset.grid,
            dataset.traces,
            dataset.config,
            replay=replay,
        )

    def _sensed_windows(self) -> Iterator[WindowSensing]:
        builder = ScenarioBuilder(
            population=self.population,
            grid=self.grid,
            e_model=ESensingModel(self.config.e_sensing_config()),
            v_model=VSensingModel(
                self.population.appearance, self.config.v_sensing_config()
            ),
            config=self._builder_config,
        )
        rng = np.random.default_rng(self._builder_config.seed)
        for window in range(self.num_windows):
            yield builder.sense_window(self.traces, window, rng)

    def events(self, skip: int = 0) -> Iterator[StreamItem]:
        """The replayed stream, in arrival order; ``skip`` drops the
        first N events before pacing (the checkpoint-resume offset)."""
        return _deliver(
            self._sensed_windows(),
            self.window_ticks,
            self.traces.dt,
            self.replay,
            skip=skip,
        )


class SyntheticLiveSource:
    """Generate events live by stepping a mobility model — the
    unbounded-traffic source (no trace is ever materialized).

    Args:
        config: world shape, mobility, sensing noise and windowing.
        max_windows: stop after this many windows (``None`` runs until
            the consumer stops pulling — a genuinely unbounded stream).
        replay: delivery shaping (speedup / jitter).
    """

    def __init__(
        self,
        config: ExperimentConfig,
        max_windows: Optional[int] = None,
        replay: Optional[ReplayConfig] = None,
    ) -> None:
        if max_windows is not None and max_windows <= 0:
            raise ValueError(f"max_windows must be positive, got {max_windows}")
        self.config = config
        self.max_windows = max_windows
        self.replay = replay if replay is not None else ReplayConfig()
        self.population = Population(config.population_config())
        region = BoundingBox.square(config.region_side)
        self.grid = make_grid(config, region)
        self._model = make_mobility_model(config, region)
        self._builder_config = config.builder_config()
        self.window_ticks = self._builder_config.window_ticks

    def _sensed_windows(self) -> Iterator[WindowSensing]:
        config = self.config
        builder = ScenarioBuilder(
            population=self.population,
            grid=self.grid,
            e_model=ESensingModel(config.e_sensing_config()),
            v_model=VSensingModel(
                self.population.appearance, config.v_sensing_config()
            ),
            config=self._builder_config,
        )
        sense_rng = np.random.default_rng(self._builder_config.seed)
        person_ids = tuple(p.person_id for p in self.population.people)
        walkers = spawn_walkers(
            self._model, len(person_ids), config.seed + 2,
            config.sample_dt, config.warmup,
        )
        tick = 0
        window = 0
        while self.max_windows is None or window < self.max_windows:
            positions = np.empty((len(walkers), self.window_ticks, 2))
            for k in range(self.window_ticks):
                if tick > 0:
                    for walker in walkers:
                        walker.advance(config.sample_dt)
                positions[:, k] = [(walker.x, walker.y) for walker in walkers]
                tick += 1
            yield builder.sense_positions(person_ids, positions, window, sense_rng)
            window += 1

    def events(self, skip: int = 0) -> Iterator[StreamItem]:
        """The live stream, in arrival order (possibly unbounded)."""
        return _deliver(
            self._sensed_windows(),
            self.window_ticks,
            self.config.sample_dt,
            self.replay,
            skip=skip,
        )
