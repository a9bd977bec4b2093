"""Supervisor recovery tests: real worker processes, real crashes.

These tests spawn actual ``multiprocessing`` worker processes, kill
them mid-load, and assert the three promises of the supervision layer:

* with ``replication >= 2`` a killed worker never fails a query;
* a lost worker is restarted with capped exponential backoff and
  rebuilds its state (journal replay + router ingest re-offer);
* the event log tells the honest availability story —
  ``cluster.health.degraded`` on first loss, ``cluster.health.ok``
  only when the whole fleet serves again.
"""

import asyncio
import os
import signal
import time
from dataclasses import dataclass
from pathlib import Path
from typing import List

import pytest

from repro.cluster import (
    ClusterRouter,
    Supervisor,
    SupervisorConfig,
    WorkerSpec,
)
from repro.datagen.config import ExperimentConfig
from repro.datagen.dataset import EVDataset, build_dataset
from repro.datagen.io import save_dataset
from repro.obs import EventLog, get_registry, set_event_log
from repro.sensing.scenarios import ScenarioStore
from repro.service.api import STATUS_OK
from repro.service.server import ServiceConfig


@dataclass
class ClusterWorld:
    """A saved standing world plus held-back arriving scenarios."""

    path: Path
    dataset: EVDataset
    arriving: list
    targets: list


@pytest.fixture(scope="module")
def cluster_world(tmp_path_factory) -> ClusterWorld:
    config = ExperimentConfig(
        num_people=60,
        cells_per_side=3,
        duration=400.0,
        sample_dt=10.0,
        warmup=100.0,
        feature_dimension=16,
        seed=7,
    )
    dataset = build_dataset(config)
    full = dataset.store
    ticks = list(full.ticks)
    cutoff = ticks[int(len(ticks) * 0.7)]
    standing = ScenarioStore(
        [full.get(k) for k in full.keys if k.tick <= cutoff]
    )
    arriving = [full.get(k) for k in full.keys if k.tick > cutoff]
    standing_dataset = EVDataset(
        config=config,
        population=dataset.population,
        grid=dataset.grid,
        traces=None,
        store=standing,
    )
    path = save_dataset(
        standing_dataset, tmp_path_factory.mktemp("world") / "world.npz"
    )
    return ClusterWorld(
        path=path,
        dataset=dataset,
        arriving=arriving,
        targets=list(dataset.sample_targets(3, seed=1)),
    )


def make_specs(
    world: ClusterWorld, journal_dir: Path, count: int = 2
) -> List[WorkerSpec]:
    return [
        WorkerSpec(
            worker_id=f"w{i}",
            dataset_path=str(world.path),
            journal_path=str(journal_dir / f"w{i}.journal.jsonl"),
            service=ServiceConfig(workers=2, queue_size=64),
        )
        for i in range(count)
    ]


@pytest.fixture()
def event_log():
    log = EventLog()
    previous = set_event_log(log)
    yield log
    set_event_log(previous)


@pytest.fixture()
def fleet(cluster_world, tmp_path, event_log):
    supervisor = Supervisor(
        make_specs(cluster_world, tmp_path),
        SupervisorConfig(ready_timeout_s=120.0),
    ).start()
    router = ClusterRouter(supervisor, replication=2, read_policy="first")
    yield supervisor, router
    supervisor.stop()


@pytest.fixture()
def dispatch():
    """``dispatch(router, message)``: route on one event loop per test,
    closing the worker connections that loop pooled at teardown."""
    loop = asyncio.new_event_loop()
    routers = set()

    def run(router, message):
        routers.add(router)
        return loop.run_until_complete(router.dispatch(message))

    yield run
    for router in routers:
        for handle in router.supervisor.workers.values():
            loop.run_until_complete(handle.close_links())
    loop.close()


def match_message(world: ClusterWorld) -> dict:
    return {
        "verb": "match",
        "targets": [eid.index for eid in world.targets],
        "algorithm": "ss",
    }


def ingest_message(world: ClusterWorld, count: int) -> dict:
    from repro.stream.checkpoint import scenario_to_json

    return {
        "verb": "ingest",
        "scenarios": [scenario_to_json(s) for s in world.arriving[:count]],
    }


class TestSpecValidation:
    def test_needs_exactly_one_world_source(self, cluster_world):
        with pytest.raises(ValueError):
            WorkerSpec(worker_id="w0", journal_path="j.jsonl")
        with pytest.raises(ValueError):
            WorkerSpec(
                worker_id="w0",
                config=cluster_world.dataset.config,
                dataset_path=str(cluster_world.path),
                journal_path="j.jsonl",
            )

    def test_supervisor_rejects_duplicate_ids(self, cluster_world, tmp_path):
        specs = make_specs(cluster_world, tmp_path, count=1) * 2
        with pytest.raises(ValueError):
            Supervisor(specs)

    def test_supervisor_rejects_empty_fleet(self):
        with pytest.raises(ValueError):
            Supervisor([])


class TestBackoffSchedule:
    def test_exponential_and_capped(self, cluster_world, tmp_path):
        from repro.cluster.supervisor import WorkerHandle

        config = SupervisorConfig(backoff_base_s=0.2, backoff_cap_s=1.0)
        handle = WorkerHandle(
            make_specs(cluster_world, tmp_path, count=1)[0], config
        )
        delays = [handle.mark_down() for _ in range(5)]
        assert delays == [
            pytest.approx(0.2),
            pytest.approx(0.4),
            pytest.approx(0.8),
            pytest.approx(1.0),  # capped
            pytest.approx(1.0),
        ]
        assert handle.restarts == 5


class TestCrashRecovery:
    def test_kill_mid_load_loses_no_query_and_rebuilds_state(
        self, cluster_world, fleet, event_log, dispatch
    ):
        supervisor, router = fleet
        crashes_before = (
            get_registry()
            .counter(
                "ev_cluster_worker_crashes_total",
                "Worker processes lost (crash or hang), by worker",
            )
            .total()
        )

        # Seed live state first so the restart has something to rebuild.
        ingest = dispatch(router, ingest_message(cluster_world, 5))
        assert ingest["status"] == STATUS_OK
        assert ingest["ingested"] == 5
        assert ingest["workers_acked"] == 2

        victim = supervisor.worker("w0")
        pid_before = victim.pid
        victim.kill()

        # Drive queries through the outage; with replication=2 every
        # one must succeed.  Wait for the monitor to *detect* the loss
        # before trusting an all-available check (the poll loop needs a
        # beat to notice the corpse).
        detected = recovered = False
        answered = 0
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            response = dispatch(router, match_message(cluster_world))
            assert response["status"] == STATUS_OK, response
            answered += 1
            if not detected:
                detected = len(supervisor.available()) < 2
            elif (
                len(supervisor.available()) == 2
                and supervisor.worker("w0").pid != pid_before
            ):
                recovered = True
                break
            time.sleep(0.05)

        assert detected, "monitor never noticed the kill"
        assert recovered, supervisor.describe()
        assert answered > 0

        restarted = supervisor.worker("w0")
        assert restarted.restarts == 1
        # State rebuild: the journal replayed the 5 ingested scenarios.
        assert restarted.reloaded == 5
        # The rebuilt worker answers with the same store size as w1.
        stats0 = restarted.request({"verb": "stats"})
        stats1 = supervisor.worker("w1").request({"verb": "stats"})
        assert (
            stats0["snapshot"]["service"]["store_scenarios"]
            == stats1["snapshot"]["service"]["store_scenarios"]
        )

        crashes_after = (
            get_registry()
            .counter(
                "ev_cluster_worker_crashes_total",
                "Worker processes lost (crash or hang), by worker",
            )
            .total()
        )
        assert crashes_after == crashes_before + 1

        # The honest availability story, in order.
        types = [event["type"] for event in event_log.events()]
        for expected in (
            "cluster.worker.crashed",
            "cluster.health.degraded",
            "cluster.worker.restarted",
        ):
            assert expected in types, (expected, types)
        assert types.index("cluster.worker.crashed") < types.index(
            "cluster.worker.restarted"
        )
        # health.ok lands within the next couple monitor polls
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            types = [event["type"] for event in event_log.events()]
            if "cluster.health.ok" in types:
                break
            time.sleep(0.05)
        assert "cluster.health.ok" in types
        assert types.index("cluster.health.degraded") < types.index(
            "cluster.health.ok"
        )
        restarted_event = next(
            event
            for event in event_log.events()
            if event["type"] == "cluster.worker.restarted"
        )
        # First restart is scheduled after one backoff_base_s delay.
        assert restarted_event["fields"]["backoff_s"] == pytest.approx(0.2)

    def test_hung_worker_is_killed_and_restarted(
        self, cluster_world, tmp_path, event_log, dispatch
    ):
        supervisor = Supervisor(
            make_specs(cluster_world, tmp_path),
            SupervisorConfig(heartbeat_timeout_s=1.0, ready_timeout_s=120.0),
        ).start()
        router = ClusterRouter(supervisor, replication=2)
        try:
            victim = supervisor.worker("w1")
            pid_before = victim.pid
            os.kill(pid_before, signal.SIGSTOP)
            try:
                deadline = time.monotonic() + 30.0
                while time.monotonic() < deadline:
                    response = dispatch(router, match_message(cluster_world))
                    assert response["status"] == STATUS_OK, response
                    types = [e["type"] for e in event_log.events()]
                    if (
                        "cluster.worker.hung" in types
                        and supervisor.worker("w1").pid != pid_before
                        and len(supervisor.available()) == 2
                    ):
                        break
                    time.sleep(0.1)
            finally:
                # the supervisor SIGKILLs the stopped process; make sure
                # it cannot linger if the assertion path changes
                try:
                    os.kill(pid_before, signal.SIGCONT)
                except ProcessLookupError:
                    pass
            types = [e["type"] for e in event_log.events()]
            assert "cluster.worker.hung" in types, types
            assert supervisor.worker("w1").pid != pid_before
            assert len(supervisor.available()) == 2, supervisor.describe()
        finally:
            supervisor.stop()

    def test_restarted_worker_catches_up_on_missed_ingests(
        self, cluster_world, fleet, event_log, dispatch
    ):
        supervisor, router = fleet
        victim = supervisor.worker("w0")
        pid_before = victim.pid
        victim.kill()

        # Wait for loss detection, then ingest while w0 is down.
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            if len(supervisor.available()) < 2:
                break
            time.sleep(0.02)
        assert len(supervisor.available()) < 2

        ingest = dispatch(router, ingest_message(cluster_world, 4))
        assert ingest["status"] == STATUS_OK
        assert ingest["workers_acked"] == 1  # only w1 heard it

        # On restart the router's on_worker_ready hook replays the log.
        deadline = time.monotonic() + 60.0
        replayed = None
        while time.monotonic() < deadline:
            replayed = next(
                (
                    event
                    for event in event_log.events()
                    if event["type"] == "cluster.ingest.replayed"
                ),
                None,
            )
            if replayed is not None:
                break
            time.sleep(0.05)
        assert replayed is not None, [e["type"] for e in event_log.events()]
        assert replayed["fields"]["worker"] == "w0"
        assert replayed["fields"]["offered"] == 4
        assert replayed["fields"]["applied"] == 4  # w0 never saw them: fresh
        assert supervisor.worker("w0").pid != pid_before

        stats0 = supervisor.worker("w0").request({"verb": "stats"})
        stats1 = supervisor.worker("w1").request({"verb": "stats"})
        assert (
            stats0["snapshot"]["service"]["store_scenarios"]
            == stats1["snapshot"]["service"]["store_scenarios"]
        )


class TestLoopConnections:
    def test_restart_reconnects_and_never_reuses_old_connections(
        self, cluster_world, fleet, dispatch
    ):
        supervisor, router = fleet
        message = match_message(cluster_world)
        victim_id = router.replicas_for(message)[0]
        victim = supervisor.worker(victim_id)
        assert dispatch(router, message)["worker"] == victim_id
        old_port, old_pid = victim.port, victim.pid
        old = [w for pool in victim._links.values() for _r, w in pool]
        assert old
        assert all(w.get_extra_info("peername")[1] == old_port for w in old)

        victim.kill()
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            if victim.pid != old_pid and victim.state == "ready":
                break
            time.sleep(0.05)
        assert victim.pid != old_pid, supervisor.describe()

        for _ in range(3):
            response = dispatch(router, message)
            assert response["status"] == STATUS_OK, response
            assert response["worker"] == victim_id
            assert response["failovers"] == 0
        # The connections to the dead incarnation were closed, not
        # reused; every pooled connection reaches the new process.
        assert all(w.is_closing() for w in old)
        live = [w for pool in victim._links.values() for _r, w in pool]
        assert live and not set(live) & set(old)
        assert all(
            w.get_extra_info("peername")[1] == victim.port for w in live
        )


class TestWorkerBackendChoice:
    """Each worker reports the E-stage backend it runs (``ready``
    control message, ``stats`` verb): the one candidate-set path."""

    def test_stats_verb_reports_backend(self, fleet):
        supervisor, _router = fleet
        stats = supervisor.worker("w0").request({"verb": "stats"})
        assert stats["backend"] == "python"
