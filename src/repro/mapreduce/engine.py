"""The MapReduce engine: split -> map -> shuffle -> reduce.

Executes :class:`~repro.mapreduce.job.MapReduceJob` over datasets in
the :class:`~repro.mapreduce.storage.InMemoryDFS`:

* **split** — the input dataset's partitions are the map tasks (the
  DFS already stores data in blocks, as HDFS does);
* **map** — each task runs the mapper over its block and writes one
  shuffle bucket per reducer;
* **shuffle** — each reduce task gathers its bucket from every map
  output and groups values by key (sorted by ``repr``);
* **reduce** — the reducer runs per key group; outputs become the
  partitions of the output dataset.

Task attempts go through the :class:`~repro.mapreduce.failures.FailureInjector`
and are retried up to the policy's ``max_attempts`` — the master-side
"task failure recovery" of Sec. V-A.  Tasks run one after another in
this process; *simulated* stage times come from scheduling each
task's accumulated cost onto the :class:`~repro.mapreduce.cluster.SimulatedCluster`
(failed attempts are charged too: a retried task occupied a slot).
"""

from __future__ import annotations

import time
from typing import Any, Callable, Hashable, List, Optional, Tuple

from repro.mapreduce.cluster import SimulatedCluster, TaskStats
from repro.obs import get_event_log, get_tracer
from repro.obs import events as ev
from repro.mapreduce.failures import (
    FailureInjector,
    FailurePolicy,
    InjectedTaskFailure,
)
from repro.mapreduce.job import JobMetrics, MapReduceJob
from repro.mapreduce.shuffle import HashPartitioner, bucket_pairs, merge_buckets
from repro.mapreduce.storage import DatasetHandle, InMemoryDFS


class JobFailedError(RuntimeError):
    """A task exhausted its attempts; the job is dead."""


class MapReduceEngine:
    """Runs jobs over a DFS on a (simulated) cluster.

    Args:
        dfs: the storage layer; a fresh one is created if omitted.
        cluster: resource shape for simulated-time scheduling.
        failure_policy: injected-fault configuration (default: none).
    """

    def __init__(
        self,
        dfs: Optional[InMemoryDFS] = None,
        cluster: Optional[SimulatedCluster] = None,
        failure_policy: Optional[FailurePolicy] = None,
    ) -> None:
        self.cluster = cluster if cluster is not None else SimulatedCluster()
        self.dfs = (
            dfs
            if dfs is not None
            else InMemoryDFS(num_nodes=self.cluster.config.num_nodes)
        )
        self.injector = FailureInjector(
            failure_policy if failure_policy is not None else FailurePolicy()
        )

    # ------------------------------------------------------------------
    def run(
        self,
        job: MapReduceJob,
        input_name: str,
        output_name: str,
    ) -> Tuple[DatasetHandle, JobMetrics]:
        """Execute ``job`` reading ``input_name``, writing ``output_name``."""
        started = time.perf_counter()
        metrics = JobMetrics(job_name=job.name)
        num_map_tasks = self.dfs.num_partitions(input_name)
        metrics.records_in = self.dfs.handle(input_name).num_records

        with get_tracer().span(
            "mr.job", job=job.name, map_tasks=num_map_tasks
        ) as span:
            if job.reducer is None:
                handle = self._run_map_only(job, input_name, output_name, metrics)
            else:
                handle = self._run_full(job, input_name, output_name, metrics)
            metrics.map_tasks = num_map_tasks
            metrics.wall_time = time.perf_counter() - started
            metrics.records_out = handle.num_records
            span.set(
                reduce_tasks=metrics.reduce_tasks,
                map_retries=max(0, metrics.map_attempts - metrics.map_tasks),
                reduce_retries=max(
                    0, metrics.reduce_attempts - metrics.reduce_tasks
                ),
                records_in=metrics.records_in,
                records_out=metrics.records_out,
                pairs_shuffled=metrics.pairs_shuffled,
            )
        return handle, metrics

    # ------------------------------------------------------------------
    def _run_map_only(
        self,
        job: MapReduceJob,
        input_name: str,
        output_name: str,
        metrics: JobMetrics,
    ) -> DatasetHandle:
        """Narrow job: mapper output keeps the input partitioning."""

        def task(index: int) -> Tuple[List[Any], float]:
            records = self.dfs.read_partition(input_name, index)
            output: List[Any] = []
            cost = 0.0
            for record in records:
                for pair in job.mapper(record):
                    output.append(pair)
                if job.map_cost is not None:
                    cost += job.map_cost(record)
            return output, cost

        num_tasks = self.dfs.num_partitions(input_name)
        results, metrics.map_attempts, metrics.map_stats = self._run_stage(
            job.name, "map", task, num_tasks, input_name
        )
        return self.dfs.write(output_name, results)

    def _run_full(
        self,
        job: MapReduceJob,
        input_name: str,
        output_name: str,
        metrics: JobMetrics,
    ) -> DatasetHandle:
        """Shuffled job: map, bucket, merge, reduce."""
        partitioner = HashPartitioner(job.num_reducers)
        num_reducers = job.num_reducers

        def map_task(index: int) -> Tuple[List[List[Tuple[Hashable, Any]]], float]:
            records = self.dfs.read_partition(input_name, index)
            pairs: List[Tuple[Hashable, Any]] = []
            cost = 0.0
            for record in records:
                pairs.extend(job.mapper(record))
                if job.map_cost is not None:
                    cost += job.map_cost(record)
            return bucket_pairs(pairs, partitioner), cost

        num_map_tasks = self.dfs.num_partitions(input_name)
        all_buckets, metrics.map_attempts, metrics.map_stats = self._run_stage(
            job.name, "map", map_task, num_map_tasks, input_name
        )
        metrics.pairs_shuffled = sum(
            len(bucket) for buckets in all_buckets for bucket in buckets
        )

        # Reduce tasks carry no simulated work of their own (the cost
        # model prices map records only); each is charged just the
        # cluster's per-task overhead.
        def reduce_task(index: int) -> Tuple[List[Any], float]:
            grouped = merge_buckets(all_buckets, index)
            output: List[Any] = []
            assert job.reducer is not None
            for key in sorted(grouped.keys(), key=repr):
                output.extend(job.reducer(key, grouped[key]))
            return output, 0.0

        reduce_results, metrics.reduce_attempts, metrics.reduce_stats = (
            self._run_stage(job.name, "reduce", reduce_task, num_reducers)
        )
        metrics.reduce_tasks = num_reducers
        return self.dfs.write(output_name, reduce_results)

    def _map_placements(self, input_name: Optional[str], num_costs: int):
        """Block-home nodes per map attempt, for delay scheduling
        (``None`` for a reduce stage, which has no ``input_name``).

        Retried attempts (num_costs > partitions) disable locality
        accounting — attribution of attempts to blocks is ambiguous.
        """
        if input_name is None:
            return None
        num_partitions = self.dfs.num_partitions(input_name)
        if num_costs != num_partitions:
            return None
        return [self.dfs.node_of(input_name, i) for i in range(num_partitions)]

    # ------------------------------------------------------------------
    def _run_stage(
        self,
        job_name: str,
        phase: str,
        task: Callable[[int], Tuple[Any, float]],
        num_tasks: int,
        input_name: Optional[str] = None,
    ) -> Tuple[List[Any], int, TaskStats]:
        """Run one stage's (``phase`` is ``"map"`` or ``"reduce"``) tasks
        with retry and schedule them on the simulated cluster; returns
        (results, attempts, stage stats).

        The scheduler is charged one cost per *attempt* (failed
        attempts occupied a slot too).  Map stages pass their
        ``input_name`` for delay scheduling.
        """
        stage_id = f"{job_name}:{phase}"
        tracer = get_tracer()

        def attempt_task(index: int) -> Tuple[Any, float, int, List[float]]:
            policy = self.injector.policy
            local_costs: List[float] = []
            with tracer.span("mr.task", stage=stage_id, task=index) as span:
                for attempt in range(1, policy.max_attempts + 1):
                    try:
                        self.injector.check(stage_id, index, attempt)
                        result, cost = task(index)
                        local_costs.append(cost)
                        span.set(attempts=attempt, sim_cost=cost)
                        return result, cost, attempt, local_costs
                    except InjectedTaskFailure:
                        # The dead attempt still burned a slot for roughly
                        # the task's duration; charge it when the task
                        # eventually succeeds (cost known then).
                        local_costs.append(-1.0)
                        log = get_event_log()
                        if log.enabled:
                            log.emit(
                                ev.MR_TASK_RETRY,
                                stage=stage_id,
                                task=index,
                                attempt=attempt,
                                max_attempts=policy.max_attempts,
                            )
                        continue
                raise JobFailedError(
                    f"{stage_id} task {index} failed {policy.max_attempts} attempts"
                )

        with tracer.span(
            "mr.stage", job=job_name, stage=stage_id, phase=phase, tasks=num_tasks
        ) as span:
            results: List[Any] = []
            attempts = 0
            costs: List[float] = []
            for i in range(num_tasks):
                result, cost, task_attempts, local_costs = attempt_task(i)
                results.append(result)
                attempts += task_attempts
                # Failed attempts are charged at the successful attempt's cost.
                costs.extend(cost if c < 0 else c for c in local_costs)
            stats = self.cluster.simulate(
                costs, stage_id, self._map_placements(input_name, len(costs))
            )
            span.set(
                retries=max(0, attempts - num_tasks),
                makespan=stats.makespan,
                speculative_copies=stats.speculative_copies,
                wasted_work=stats.wasted_work,
            )
        return results, attempts, stats
