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

from repro.mapreduce.cluster import SimulatedCluster
from repro.obs import get_event_log, get_registry, get_tracer
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
                records_in=metrics.records_in,
                records_out=metrics.records_out,
                pairs_shuffled=metrics.pairs_shuffled,
            )
        self._publish_job_metrics(metrics)
        return handle, metrics

    def _publish_job_metrics(self, metrics: JobMetrics) -> None:
        """Fold one job's counters into the default metrics registry."""
        reg = get_registry()
        reg.counter("mr_jobs_total", "MapReduce jobs completed").inc()
        reg.counter(
            "mr_records_in_total", "Records read by MapReduce jobs"
        ).inc(metrics.records_in)
        reg.counter(
            "mr_records_out_total", "Records written by MapReduce jobs"
        ).inc(metrics.records_out)
        reg.counter(
            "mr_pairs_shuffled_total", "Key/value pairs moved in shuffles"
        ).inc(metrics.pairs_shuffled)
        tasks = reg.counter("mr_tasks_total", "Tasks that ran, by stage")
        retries = reg.counter(
            "mr_task_retries_total", "Failed attempts that were retried, by stage"
        )
        tasks.inc(metrics.map_tasks, stage="map")
        retries.inc(max(0, metrics.map_attempts - metrics.map_tasks), stage="map")
        if metrics.reduce_tasks:
            tasks.inc(metrics.reduce_tasks, stage="reduce")
            retries.inc(
                max(0, metrics.reduce_attempts - metrics.reduce_tasks),
                stage="reduce",
            )
        sim = reg.counter(
            "mr_simulated_seconds_total",
            "Simulated stage makespan accumulated by jobs, by stage",
        )
        spec = reg.counter(
            "mr_speculative_copies_total", "Speculative backup copies launched"
        )
        log = get_event_log()
        for stage, stats in (
            ("map", metrics.map_stats),
            ("reduce", metrics.reduce_stats),
        ):
            if stats is None:
                continue
            sim.inc(stats.makespan, stage=stage)
            if stats.speculative_copies:
                spec.inc(stats.speculative_copies, stage=stage)
                if log.enabled:
                    log.emit(
                        ev.MR_STAGE_SPECULATION,
                        job=metrics.job_name,
                        stage=stage,
                        speculative_copies=stats.speculative_copies,
                        wasted_work=getattr(stats, "wasted_work", 0.0),
                        makespan=stats.makespan,
                    )
        if log.enabled:
            log.emit(
                ev.MR_JOB_FINISHED,
                job=metrics.job_name,
                map_tasks=metrics.map_tasks,
                reduce_tasks=metrics.reduce_tasks,
                map_retries=max(0, metrics.map_attempts - metrics.map_tasks),
                reduce_retries=max(
                    0, metrics.reduce_attempts - metrics.reduce_tasks
                ),
                records_in=metrics.records_in,
                records_out=metrics.records_out,
                pairs_shuffled=metrics.pairs_shuffled,
            )

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
        results, attempts, costs = self._run_tasks(
            job.name + ":map", task, num_tasks
        )
        metrics.map_attempts = attempts
        metrics.map_stats = self.cluster.simulate(
            costs, job.name + ":map", self._map_placements(input_name, len(costs))
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
        map_results, map_attempts, map_costs = self._run_tasks(
            job.name + ":map", map_task, num_map_tasks
        )
        metrics.map_attempts = map_attempts
        metrics.map_stats = self.cluster.simulate(
            map_costs, job.name + ":map", self._map_placements(input_name, len(map_costs))
        )
        all_buckets = map_results
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

        reduce_results, reduce_attempts, reduce_costs = self._run_tasks(
            job.name + ":reduce", reduce_task, num_reducers
        )
        metrics.reduce_tasks = num_reducers
        metrics.reduce_attempts = reduce_attempts
        metrics.reduce_stats = self.cluster.simulate(
            reduce_costs, job.name + ":reduce"
        )
        return self.dfs.write(output_name, reduce_results)

    def _map_placements(self, input_name: str, num_costs: int):
        """Block-home nodes per map attempt, for delay scheduling.

        Retried attempts (num_costs > partitions) disable locality
        accounting — attribution of attempts to blocks is ambiguous.
        """
        num_partitions = self.dfs.num_partitions(input_name)
        if num_costs != num_partitions:
            return None
        return [self.dfs.node_of(input_name, i) for i in range(num_partitions)]

    # ------------------------------------------------------------------
    def _run_tasks(
        self,
        stage_id: str,
        task: Callable[[int], Tuple[Any, float]],
        num_tasks: int,
    ) -> Tuple[List[Any], int, List[float]]:
        """Run one stage's tasks with retry; returns (results, attempts, costs).

        ``costs`` has one entry per *attempt* (failed attempts occupied
        a slot too), which is what the simulated scheduler charges.
        """
        attempts_total = 0
        costs: List[float] = []
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

        with tracer.span("mr.stage", stage=stage_id, tasks=num_tasks):
            outcomes = [attempt_task(i) for i in range(num_tasks)]

        results: List[Any] = []
        for result, cost, attempts, local_costs in outcomes:
            results.append(result)
            attempts_total += attempts
            # Failed attempts are charged at the successful attempt's cost.
            costs.extend(cost if c < 0 else c for c in local_costs)
        return results, attempts_total, costs
