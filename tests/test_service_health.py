"""Service health: rolling-window SLO verdicts, alone and under load."""

from __future__ import annotations

import pytest

from repro.service import (
    LoadConfig,
    MatchService,
    ServiceConfig,
    SLOConfig,
    run_load,
)
from repro.service.api import (
    STATUS_ERROR,
    STATUS_OK,
    STATUS_SHED,
    MatchRequest,
)
from repro.service.metrics import RequestLog, RequestRecord


class FakeClock:
    def __init__(self) -> None:
        self.now = 100.0

    def __call__(self) -> float:
        return self.now


class TestHealthTracker:
    def make(self, **overrides):
        clock = FakeClock()
        defaults = dict(window_s=60.0, min_samples=4)
        defaults.update(overrides)
        return RequestLog(slo=SLOConfig(**defaults), clock=clock), clock

    def test_insufficient_data_is_healthy(self):
        tracker, _clock = self.make(min_samples=10)
        for _ in range(3):
            tracker.write(RequestRecord("match", STATUS_OK, 0.001))
        health = tracker.health()
        assert health.healthy
        assert health.samples == 3
        assert "insufficient" in health.note
        assert health.checks == ()

    def test_all_objectives_met(self):
        tracker, _clock = self.make()
        for _ in range(10):
            tracker.write(RequestRecord("match", STATUS_OK, 0.01))
        health = tracker.health()
        assert health.healthy
        assert {c.name for c in health.checks} == {
            "latency_p99_s", "shed_rate", "error_rate"
        }
        assert all(c.ok for c in health.checks)

    def test_latency_breach_flips_verdict(self):
        tracker, _clock = self.make(latency_p99_s=0.05)
        for _ in range(10):
            tracker.write(RequestRecord("match", STATUS_OK, 0.2))
        health = tracker.health()
        assert not health.healthy
        (latency,) = [c for c in health.checks if c.name == "latency_p99_s"]
        assert not latency.ok and latency.observed == pytest.approx(0.2)

    def test_shed_and_error_rates(self):
        tracker, _clock = self.make(max_shed_rate=0.2, max_error_rate=0.2)
        for _ in range(6):
            tracker.write(RequestRecord("match", STATUS_OK, 0.001))
        for _ in range(2):
            tracker.write(RequestRecord("match", STATUS_SHED, 0.0))
        for _ in range(2):
            tracker.write(RequestRecord("match", STATUS_ERROR, 0.001))
        health = tracker.health()
        by_name = {c.name: c for c in health.checks}
        assert by_name["shed_rate"].observed == pytest.approx(0.2)
        assert by_name["error_rate"].observed == pytest.approx(0.2)
        assert health.healthy  # at the objective is still within it

    def test_window_forgets_old_outcomes(self):
        tracker, clock = self.make(max_error_rate=0.01)
        for _ in range(10):
            tracker.write(RequestRecord("match", STATUS_ERROR, 0.001))
        assert not tracker.health().healthy
        clock.now += 120.0  # the bad minute scrolls out of the window
        for _ in range(10):
            tracker.write(RequestRecord("match", STATUS_OK, 0.001))
        health = tracker.health()
        assert health.healthy
        assert health.samples == 10

    def test_sample_cap_bounds_memory(self):
        tracker, _clock = self.make(max_window_samples=8, min_samples=1)
        for _ in range(100):
            tracker.write(RequestRecord("match", STATUS_OK, 0.001))
        assert tracker.health().samples == 8


class TestServiceHealth:
    def test_healthy_under_gentle_load(self, ideal_dataset):
        config = ServiceConfig(
            workers=2,
            slo=SLOConfig(latency_p99_s=30.0, min_samples=1),
        )
        with MatchService.from_dataset(ideal_dataset, config) as service:
            targets = list(ideal_dataset.sample_targets(12, seed=1))
            report = run_load(
                service,
                targets,
                LoadConfig(num_clients=2, requests_per_client=6, seed=3),
            )
        assert report.final_health is not None
        assert report.final_health.healthy
        assert report.final_health.samples >= report.issued

    def test_overload_fails_the_shed_slo(self, ideal_dataset):
        # One slow worker, a one-deep queue, and a zero shed budget:
        # concurrent clients must shed, and the verdict must say so.
        config = ServiceConfig(
            workers=1,
            queue_size=1,
            max_batch=1,
            cache_capacity=0,
            worker_delay_s=0.05,
            slo=SLOConfig(max_shed_rate=0.0, min_samples=1),
        )
        with MatchService.from_dataset(ideal_dataset, config) as service:
            targets = list(ideal_dataset.sample_targets(12, seed=1))
            report = run_load(
                service,
                targets,
                LoadConfig(
                    num_clients=6,
                    requests_per_client=4,
                    pool_size=12,
                    seed=5,
                ),
            )
            health = service.health()
        assert report.shed > 0
        assert not health.healthy
        (shed,) = [c for c in health.checks if c.name == "shed_rate"]
        assert not shed.ok and shed.observed > 0.0
        assert report.final_health is not None
        assert not report.final_health.healthy

    def test_meta_traffic_does_not_count(self, ideal_dataset):
        config = ServiceConfig(workers=1, slo=SLOConfig(min_samples=1))
        with MatchService.from_dataset(ideal_dataset, config) as service:
            for _ in range(5):
                service.stats()
                service.metrics_text()
            assert service.health().samples == 0
            target = next(iter(ideal_dataset.sample_targets(1, seed=1)))
            service.submit(MatchRequest(targets=(target,))).result(timeout=60.0)
            assert service.health().samples == 1
