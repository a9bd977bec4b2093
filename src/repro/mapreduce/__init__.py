"""MapReduce execution substrate (paper Sec. V-A).

The paper parallelizes EV-Matching with MapReduce and implements it on
Apache Spark.  Neither is importable here, so this package provides the
substrate the paper's three jobs run on:

* :mod:`repro.mapreduce.cluster` — a simulated cluster: nodes with
  worker slots, a list scheduler that assigns tasks and computes the
  stage *makespan* from per-task simulated costs (this is what turns
  the matcher's serial cost accounting into the parallel times of
  Figs. 8/9).
* :mod:`repro.mapreduce.job` / :mod:`engine` — the programming model:
  jobs with map / reduce functions, executed split -> map -> hash
  shuffle -> reduce with task retry under injected failures.
* :mod:`repro.mapreduce.storage` — an in-memory stand-in for the
  "underlying distributed file system": named, partitioned datasets
  with block placement.
"""

from repro.mapreduce.cluster import ClusterConfig, SimulatedCluster, TaskStats
from repro.mapreduce.failures import FailureInjector, FailurePolicy, InjectedTaskFailure
from repro.mapreduce.job import JobMetrics, MapReduceJob
from repro.mapreduce.engine import MapReduceEngine
from repro.mapreduce.shuffle import HashPartitioner
from repro.mapreduce.storage import DatasetHandle, InMemoryDFS
from repro.mapreduce.speculation import SkewModel, StagePolicy, simulate_stage

__all__ = [
    "ClusterConfig",
    "DatasetHandle",
    "FailureInjector",
    "FailurePolicy",
    "HashPartitioner",
    "InMemoryDFS",
    "InjectedTaskFailure",
    "JobMetrics",
    "MapReduceEngine",
    "MapReduceJob",
    "SimulatedCluster",
    "SkewModel",
    "StagePolicy",
    "TaskStats",
    "simulate_stage",
]
