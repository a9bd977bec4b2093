"""Job specification and metrics for the MapReduce engine.

A job is the paper's four-stage unit (Sec. V-A): the input dataset is
already split (its partitions are the map tasks), the ``mapper`` turns
records into ``(key, value)`` pairs, the shuffle routes pairs to
reducers, and the ``reducer`` aggregates each key group.  An optional
per-record **map cost** is accumulated into per-task costs and
scheduled onto the simulated cluster to obtain the stage makespans the
figures report.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Hashable, Iterable, List, Optional, Tuple

from repro.mapreduce.cluster import TaskStats

Mapper = Callable[[Any], Iterable[Tuple[Hashable, Any]]]
Reducer = Callable[[Hashable, List[Any]], Iterable[Any]]
MapCost = Callable[[Any], float]


@dataclass(frozen=True)
class MapReduceJob:
    """One MapReduce job.

    Attributes:
        name: job id used in logs, metrics and failure injection.
        mapper: record -> iterable of (key, value) pairs.
        reducer: (key, values) -> iterable of output records.  ``None``
            makes the job *map-only*: mapper outputs are written out
            partition-for-partition with no shuffle (Spark's narrow
            stage; the VID feature-extraction job uses this).
        num_reducers: reduce-task count for shuffled jobs; keys are
            hash-partitioned over them.
        map_cost: simulated seconds of one core to map one record.
    """

    name: str
    mapper: Mapper
    reducer: Optional[Reducer] = None
    num_reducers: int = 8
    map_cost: Optional[MapCost] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("job name must be non-empty")
        if self.num_reducers <= 0:
            raise ValueError(
                f"num_reducers must be positive, got {self.num_reducers}"
            )


@dataclass
class JobMetrics:
    """Everything measured while running one job.

    ``simulated_time`` is the number the paper's Figs. 8/9 plot: the
    sum of the two stages' makespans on the simulated cluster.
    ``wall_time`` is the real elapsed seconds of this Python process.
    """

    job_name: str
    map_tasks: int = 0
    reduce_tasks: int = 0
    map_attempts: int = 0
    reduce_attempts: int = 0
    records_in: int = 0
    pairs_shuffled: int = 0
    records_out: int = 0
    map_stats: Optional[TaskStats] = None
    reduce_stats: Optional[TaskStats] = None
    wall_time: float = 0.0

    @property
    def simulated_time(self) -> float:
        """Stage makespans on the simulated cluster, summed."""
        total = 0.0
        if self.map_stats is not None:
            total += self.map_stats.makespan
        if self.reduce_stats is not None:
            total += self.reduce_stats.makespan
        return total

    @property
    def retries(self) -> int:
        """Attempts beyond the first per task, both stages."""
        return (self.map_attempts - self.map_tasks) + (
            self.reduce_attempts - self.reduce_tasks
        )
