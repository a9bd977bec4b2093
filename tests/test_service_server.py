"""Tests for the query service: server, batcher, metrics, loadgen."""

import sys
import threading
from collections import Counter

import pytest

from repro.core.incremental import IncrementalMatcher
from repro.core.matcher import EVMatcher
from repro.obs.registry import Histogram, MetricsRegistry, set_registry
from repro.sensing.scenarios import ScenarioStore
from repro.service import (
    LoadConfig,
    MatchRequest,
    MatchService,
    ServiceConfig,
    run_load,
)
from repro.service.loadgen import build_request_pool
from repro.service.metrics import RequestLog, RequestRecord


@pytest.fixture()
def service(ideal_dataset):
    svc = MatchService.from_dataset(
        ideal_dataset, ServiceConfig(workers=2, queue_size=32)
    )
    with svc:
        yield svc


def split_store(dataset, fraction=0.7):
    """(standing store, arriving scenarios) split at a tick cutoff."""
    full = dataset.store
    ticks = list(full.ticks)
    cutoff = ticks[int(len(ticks) * fraction)]
    standing = ScenarioStore(
        [full.get(k) for k in full.keys if k.tick <= cutoff]
    )
    arriving = [full.get(k) for k in full.keys if k.tick > cutoff]
    return standing, arriving


class TestMatchEndpoint:
    def test_matches_equal_direct_matcher(self, ideal_dataset, service):
        targets = list(ideal_dataset.sample_targets(5, seed=1))
        response = service.match(targets)
        assert response.status == "ok"
        direct = EVMatcher(ideal_dataset.store).match(targets)
        expected = direct.predictions()
        assert set(response.matches) == set(targets)
        for eid in targets:
            assert response.matches[eid].prediction == expected[eid]

    def test_repeat_is_cached(self, ideal_dataset, service):
        targets = list(ideal_dataset.sample_targets(3, seed=2))
        first = service.match(targets)
        second = service.match(targets)
        assert not first.cached
        assert second.cached
        assert second.matches.keys() == first.matches.keys()
        for eid in targets:
            assert second.matches[eid] == first.matches[eid]

    def test_target_order_does_not_fork_cache_entries(
        self, ideal_dataset, service
    ):
        targets = list(ideal_dataset.sample_targets(3, seed=3))
        service.match(targets)
        response = service.match(list(reversed(targets)))
        assert response.cached

    def test_edp_algorithm(self, ideal_dataset, service):
        targets = list(ideal_dataset.sample_targets(3, seed=4))
        response = service.match(targets, algorithm="edp")
        assert response.status == "ok"
        assert set(response.matches) == set(targets)

    def test_bad_requests_rejected(self):
        with pytest.raises(ValueError):
            MatchRequest(targets=())
        with pytest.raises(ValueError):
            MatchRequest(targets=(1,), algorithm="nope")


class TestDedupAndBatching:
    def test_identical_concurrent_requests_deduplicate(self, ideal_dataset):
        svc = MatchService.from_dataset(ideal_dataset, ServiceConfig(workers=1))
        targets = tuple(ideal_dataset.sample_targets(3, seed=5))
        request = MatchRequest(targets=targets)
        # Submit before start: the twins provably overlap in flight.
        futures = [svc.submit(request) for _ in range(4)]
        with svc:
            responses = [f.result(timeout=30.0) for f in futures]
        assert all(r.status == "ok" for r in responses)
        assert sum(1 for r in responses if r.deduplicated) == 3
        assert svc.metrics.snapshot()["match"]["deduplicated"] == 3

    def test_distinct_requests_batch_into_one_call(self, ideal_dataset):
        svc = MatchService.from_dataset(
            ideal_dataset, ServiceConfig(workers=1, max_batch=8)
        )
        eids = list(ideal_dataset.sample_targets(6, seed=6))
        requests = [MatchRequest(targets=(eid,)) for eid in eids]
        futures = [svc.submit(r) for r in requests]
        with svc:
            responses = [f.result(timeout=30.0) for f in futures]
        assert all(r.status == "ok" for r in responses)
        # All six queued before start, so one worker drains one batch.
        assert all(r.batched_with == 5 for r in responses)

    def test_batched_results_equal_individual_results(self, ideal_dataset):
        eids = list(ideal_dataset.sample_targets(4, seed=7))
        svc = MatchService.from_dataset(
            ideal_dataset, ServiceConfig(workers=1, max_batch=8)
        )
        futures = [svc.submit(MatchRequest(targets=(eid,))) for eid in eids]
        with svc:
            batched = {e: f.result(30.0).matches[e] for e, f in zip(eids, futures)}
        direct = EVMatcher(ideal_dataset.store).match(eids).predictions()
        for eid in eids:
            assert batched[eid].prediction == direct[eid]

    def test_coupled_matcher_disables_batching(self, ideal_dataset):
        from repro.core.matcher import MatcherConfig

        svc = MatchService.from_dataset(
            ideal_dataset,
            ServiceConfig(matcher=MatcherConfig(use_exclusion=True)),
        )
        assert svc.batcher.max_batch == 1


class TestAdmissionControl:
    def test_overflow_sheds(self, ideal_dataset):
        svc = MatchService.from_dataset(
            ideal_dataset, ServiceConfig(workers=1, queue_size=1, max_batch=1)
        )
        eids = list(ideal_dataset.sample_targets(5, seed=8))
        # Not started: the queue (size 1) fills after the first request.
        futures = [svc.submit(MatchRequest(targets=(eid,))) for eid in eids]
        shed_now = [f for f in futures if f.done()]
        assert len(shed_now) == len(eids) - 1
        assert all(f.result().status == "shed" for f in shed_now)
        with svc:
            responses = [f.result(timeout=30.0) for f in futures]
        assert sum(1 for r in responses if r.status == "ok") == 1
        assert svc.metrics.snapshot()["match"]["shed"] == len(eids) - 1

    def test_shed_resolves_attached_twins_too(self, ideal_dataset):
        svc = MatchService.from_dataset(
            ideal_dataset, ServiceConfig(workers=1, queue_size=1)
        )
        a, b = ideal_dataset.sample_targets(2, seed=9)
        svc.submit(MatchRequest(targets=(a,)))  # fills the queue
        twin = MatchRequest(targets=(b,))
        f1 = svc.submit(twin)  # claims a flight, then sheds on Full
        assert f1.done() and f1.result().status == "shed"
        # The key is free again: a later identical request is a fresh flight.
        f2 = svc.submit(twin)
        assert not f2.done() or f2.result().status == "shed"
        with svc:
            pass


class TestIngest:
    def test_ingest_invalidates_and_streams(self, ideal_dataset):
        standing, arriving = split_store(ideal_dataset)
        svc = MatchService(
            standing,
            grid=ideal_dataset.grid,
            universe=ideal_dataset.eids,
            config=ServiceConfig(workers=2),
        )
        targets = list(ideal_dataset.sample_targets(5, seed=10))
        with svc:
            svc.watch(targets)
            before = svc.match(targets[:2])
            assert not before.cached
            assert len(svc.cache) == 1
            emissions = 0
            for scenario in arriving:
                resp = svc.ingest_tick([scenario])
                assert resp.status == "ok"
                assert resp.ingested == 1
                emissions += len(resp.emissions)
            # The standing store grew...
            assert len(svc.store) == len(standing)
            # ...and the stale cached answer was dropped.
            after = svc.match(targets[:2])
            assert not after.cached
            assert svc.cache.stats.invalidated >= 1
            assert svc.watch_emitted == emissions
            assert svc.watch_pending == len(targets) - emissions

    def test_duplicate_ingest_errors(self, ideal_dataset):
        standing, arriving = split_store(ideal_dataset)
        svc = MatchService(
            standing, universe=ideal_dataset.eids, config=ServiceConfig()
        )
        with svc:
            first = arriving[0]
            assert svc.ingest_tick([first]).status == "ok"
            resp = svc.ingest_tick([first])
            assert resp.status == "error"
            assert "duplicate" in resp.error


class TestWatchDuringIngest:
    def test_watch_from_threads_emits_each_target_once(self, ideal_dataset):
        """``watch`` called from other threads while windows ingest:
        the watch list must neither break nor double-emit.  The first
        phase ingests only scenarios naming no target, while two
        threads add the targets a few at a time (each chunk twice), so
        the targets' state ends as if they were watched from the start;
        the second phase ingests the rest.  The emissions must be a
        single-threaded replay's, each target exactly once."""
        full = ideal_dataset.store
        targets = list(ideal_dataset.sample_targets(12, seed=5))
        chunks = [targets[i: i + 2] for i in range(0, len(targets), 2)]

        def by_tick(scenarios):
            batches = {}
            for scenario in scenarios:
                batches.setdefault(scenario.key.tick, []).append(scenario)
            return [batches[tick] for tick in sorted(batches)]

        quiet, rest = [], []
        for key in full.keys:
            scenario = full.get(key)
            naming = not scenario.e.eids.isdisjoint(targets)
            (rest if naming else quiet).append(scenario)
        phases = [by_tick(quiet), by_tick(rest)]

        def timing(emissions):
            return [(e.eid, e.emitted_at_tick, e.scenarios_consumed) for e in emissions]

        # Watch order only orders one scenario's emissions, so the
        # threads' interleaving may reorder those: compare sorted.
        reference = IncrementalMatcher(full, ideal_dataset.eids)
        reference.add_targets(targets)
        expected = sorted(
            t
            for batch in phases[0] + phases[1]
            for t in timing(reference.observe(*batch))
        )
        assert len(expected) == len(targets)

        svc = MatchService(
            ScenarioStore([]),
            grid=ideal_dataset.grid,
            universe=ideal_dataset.eids,
            config=ServiceConfig(workers=1),
        )
        progress = threading.Condition()
        state = {"ingested": 0, "done": False}
        step = len(phases[0]) // (len(chunks) + 1)
        pending_seen = []

        def watcher(first):
            # Each chunk waits for a few more windows, so the adds land
            # between (and during) the ingests.
            for i in range(first, len(chunks), 2):
                with progress:
                    progress.wait_for(
                        lambda: state["done"] or state["ingested"] >= (i + 1) * step
                    )
                svc.watch(chunks[i])
                pending_seen.append(svc.watch_pending)
                svc.watch(chunks[i])

        emitted = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with svc:
                threads = [
                    threading.Thread(target=watcher, args=(first,))
                    for first in (0, 1)
                ]
                for thread in threads:
                    thread.start()
                for batch in phases[0]:
                    response = svc.ingest_tick(batch)
                    assert response.status == "ok", response.error
                    assert response.emissions == []
                    with progress:
                        state["ingested"] += 1
                        progress.notify_all()
                with progress:
                    state["done"] = True
                    progress.notify_all()
                for thread in threads:
                    thread.join(timeout=30.0)
                    assert not thread.is_alive()
                assert svc.watch_pending == len(targets)
                for batch in phases[1]:
                    response = svc.ingest_tick(batch)
                    assert response.status == "ok", response.error
                    emitted.extend(timing(response.emissions))
        finally:
            sys.setswitchinterval(interval)
        assert len(pending_seen) == len(chunks)
        assert set(Counter(eid for eid, _, _ in emitted).values()) == {1}
        assert sorted(emitted) == expected
        assert svc.watch_emitted == len(targets)
        assert svc.watch_pending == 0


    def test_ingest_waits_for_a_watch_in_progress(self, ideal_dataset):
        """The watch list is never observed while ``watch`` is still
        changing it: an ingest arriving meanwhile appends to the store
        but feeds the watch list only once ``watch`` has returned."""
        standing, arriving = split_store(ideal_dataset)
        svc = MatchService(
            standing, universe=ideal_dataset.eids, config=ServiceConfig(workers=1)
        )
        watch_list = svc._watch
        entered, release = threading.Event(), threading.Event()
        add_targets, observe = watch_list.add_targets, watch_list.observe
        observed_after_release = []

        def slow_add_targets(targets):
            entered.set()
            release.wait(timeout=10.0)
            add_targets(targets)

        def recording_observe(*scenarios):
            observed_after_release.append(release.is_set())
            return observe(*scenarios)

        watch_list.add_targets = slow_add_targets
        watch_list.observe = recording_observe
        with svc:
            watcher = threading.Thread(
                target=svc.watch, args=(ideal_dataset.sample_targets(3, seed=1),)
            )
            watcher.start()
            assert entered.wait(timeout=10.0)
            responses = []
            ingest = threading.Thread(
                target=lambda: responses.append(svc.ingest_tick(arriving[:1]))
            )
            ingest.start()
            ingest.join(timeout=0.3)
            assert ingest.is_alive()  # held at the watch lock
            assert arriving[0].key in svc.store  # but the store took it
            release.set()
            for thread in (watcher, ingest):
                thread.join(timeout=10.0)
                assert not thread.is_alive()
        assert observed_after_release == [True]
        assert responses[0].status == "ok"


    def test_reads_run_while_the_watch_list_observes(self, ideal_dataset):
        """The write lock covers the store and shard appends only: a
        query completes while the watch list is still observing the
        window just ingested."""
        standing, arriving = split_store(ideal_dataset)
        svc = MatchService(
            standing, universe=ideal_dataset.eids, config=ServiceConfig(workers=1)
        )
        watch_list = svc._watch
        entered, release = threading.Event(), threading.Event()
        observe = watch_list.observe

        def slow_observe(*scenarios):
            entered.set()
            release.wait(timeout=10.0)
            return observe(*scenarios)

        watch_list.observe = slow_observe
        targets = list(ideal_dataset.sample_targets(2, seed=3))
        with svc:
            responses = []
            ingest = threading.Thread(
                target=lambda: responses.append(svc.ingest_tick(arriving[:1]))
            )
            ingest.start()
            try:
                assert entered.wait(timeout=10.0)
                answer = svc.match(targets, timeout=5.0)
                assert answer.status == "ok"
                assert ingest.is_alive()  # still observing
            finally:
                release.set()
                ingest.join(timeout=10.0)
            assert not ingest.is_alive()
        assert responses[0].status == "ok"


class TestInvestigateAndStats:
    def test_investigate_from_shards(self, ideal_dataset, service):
        eid = ideal_dataset.sample_targets(1, seed=11)[0]
        response = service.investigate(eid)
        assert response.status == "ok"
        assert response.num_scenarios > 0
        assert response.presence
        assert 1 <= response.shards_touched <= service.shards.num_shards
        repeat = service.investigate(eid)
        assert repeat.cached
        assert repeat.presence == response.presence

    def test_stats_snapshot_structure(self, ideal_dataset, service):
        targets = list(ideal_dataset.sample_targets(2, seed=12))
        service.match(targets)
        snapshot = service.stats().snapshot
        assert "match" in snapshot and "service" in snapshot
        match_stats = snapshot["match"]
        for key in ("requests", "ok", "shed", "latency_p95_s"):
            assert key in match_stats
        gauges = snapshot["service"]
        assert gauges["num_shards"] == service.shards.num_shards
        assert gauges["store_scenarios"] == len(service.store)


class TestMetricsUnit:
    def test_percentiles(self):
        hist = Histogram("latency_seconds")
        for v in range(1, 101):
            hist.observe(float(v))
        assert hist.percentile(50) == pytest.approx(50.0, abs=1.0)
        assert hist.percentile(99) == pytest.approx(99.0, abs=1.0)
        assert hist.mean() == pytest.approx(50.5)
        with pytest.raises(ValueError):
            hist.percentile(101)

    def test_reservoir_bounded(self):
        hist = Histogram("latency_seconds", max_samples=10)
        for v in range(100):
            hist.observe(float(v))
        assert hist.count() == 100
        # Window percentiles reflect the most recent samples only.
        assert hist.percentile(0) >= 90.0

    def test_observe_counters(self):
        metrics = RequestLog()
        metrics.write(RequestRecord("match", "ok", 0.01, cached=True))
        metrics.write(RequestRecord("match", "shed", 0.0))
        metrics.write(RequestRecord("match", "error", 0.02))
        snap = metrics.snapshot()["match"]
        assert snap["requests"] == 3
        assert snap["ok"] == 1
        assert snap["shed"] == 1
        assert snap["errors"] == 1
        assert snap["cache_hits"] == 1


class TestMetricsExposition:
    def test_fresh_service_keeps_the_stage_help_text(self, ideal_dataset):
        """The slow-query exemplars read the kernel counters without
        creating them, so each ``ev_*`` family keeps the help text its
        stage publishes with, and a topology-blind service exposes no
        ``ev_topology_*`` family."""
        previous = set_registry(MetricsRegistry())
        try:
            with MatchService.from_dataset(
                ideal_dataset, ServiceConfig(workers=1)
            ) as svc:
                targets = list(ideal_dataset.sample_targets(5, seed=1))
                assert svc.match(targets).status == "ok"
                text = svc.metrics_text().text
        finally:
            set_registry(previous)
        lines = text.splitlines()
        families = {l.split()[2] for l in lines if l.startswith("# TYPE ev_")}
        helped = {l.split()[2] for l in lines if l.startswith("# HELP ev_")}
        assert "ev_e_scenarios_examined_total" in families
        assert families <= helped
        assert not [name for name in families if name.startswith("ev_topology_")]


class TestLoadgen:
    def test_pool_is_deterministic(self, ideal_dataset):
        targets = list(ideal_dataset.sample_targets(12, seed=13))
        config = LoadConfig(pool_size=6, targets_per_request=3, seed=5)
        assert build_request_pool(targets, config) == build_request_pool(
            targets, config
        )

    def test_closed_loop_accounting(self, ideal_dataset, service):
        targets = list(ideal_dataset.sample_targets(10, seed=14))
        config = LoadConfig(
            num_clients=3, requests_per_client=5, pool_size=3, seed=6
        )
        report = run_load(service, targets, config)
        assert report.issued == 15
        assert report.ok + report.shed + report.errors == report.issued
        assert report.errors == 0
        assert len(report.latencies_s) == report.issued
        assert report.achieved_qps > 0
