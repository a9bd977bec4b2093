"""Golden metrics exposition of a query service and of a gateway.

A fixed request sequence runs through a :class:`MatchService` (misses,
hits, an ingest, the meta endpoints and a shed while draining) and
through a :class:`ClusterGateway` over two scripted workers (one of
them down, so requests fail over; data verbs with and without a trace
envelope, local verbs, an unknown verb and a shed while draining).
Both run with a clock that stands still, so every latency is 0 and
the exposition depends on the request sequence alone.  The pin holds
the service registry's Prometheus text and the gateway process
registry's, byte for byte: a change to how series are keyed, labelled
or rendered must not move them.

To re-derive the pin after an intentional change to what these
registries publish, run ``python tests/test_exposition_golden.py``
from the repository root with ``PYTHONPATH=src`` (it rewrites
``golden/exposition.json``) and say in the change what moved.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import pytest

from repro.cluster import ClusterGateway, ClusterRouter, GatewayClient
from repro.cluster import gateway as gateway_module
from repro.cluster.protocol import Reply, dumps
from repro.cluster.supervisor import WorkerError
from repro.datagen.config import ExperimentConfig
from repro.datagen.dataset import build_dataset
from repro.obs import MetricsRegistry, Tracer, set_registry, set_tracer
from repro.obs.tracing import TraceContext, inject_trace
from repro.sensing.scenarios import ScenarioStore
from repro.service import server as server_module
from repro.service.server import MatchService, ServiceConfig

GOLDEN_PATH = Path(__file__).resolve().parent / "golden" / "exposition.json"


class _StillClock:
    """The ``time`` module with a ``perf_counter`` that stands still."""

    def __getattr__(self, name):
        return getattr(time, name)

    @staticmethod
    def perf_counter() -> float:
        return 0.0


class _ScriptedWorker:
    """A worker slot that answers every data verb ok, or is down."""

    def __init__(self, down: bool) -> None:
        self.down = down

    async def exchange(self, message):
        if self.down:
            raise WorkerError("down")
        verb = message["verb"]
        answer = {"verb": verb, "status": "ok"}
        if verb == "ingest":
            answer["ingested"] = len(message.get("scenarios", []))
        return Reply(dumps(answer), "ok")

    async def close_links(self, keep=None) -> None:
        pass


class _ScriptedFleet:
    def __init__(self) -> None:
        self.workers = {
            "w0": _ScriptedWorker(down=True),
            "w1": _ScriptedWorker(down=False),
        }
        self.worker_ids = list(self.workers)
        self.on_worker_ready = None
        self.on_telemetry = None

    def available(self):
        return list(self.workers)

    def worker(self, worker_id):
        return self.workers[worker_id]


def service_exposition(monkeypatch) -> str:
    monkeypatch.setattr(server_module, "time", _StillClock())
    dataset = build_dataset(ExperimentConfig(
        num_people=60, cells_per_side=2, duration=300.0, seed=4,
    ))
    targets = dataset.sample_targets(4, seed=1)
    keys = dataset.store.keys
    standing = ScenarioStore([dataset.store.get(k) for k in keys[:-2]])
    service = MatchService(
        standing,
        grid=dataset.grid,
        universe=dataset.eids,
        config=ServiceConfig(workers=1),
    )
    service.start()
    try:
        for _round in range(3):
            service.match(targets[:2])
            service.match(targets[2:], algorithm="edp")
            service.investigate(targets[0])
            service.investigate(targets[3], min_shared=2)
        service.ingest_tick([dataset.store.get(k) for k in keys[-2:]])
        service.stats()
        service.metrics_text()
        service.begin_drain()
        service.match(targets[:1])
        service.investigate(targets[1])
    finally:
        service.stop()
    return service.metrics.render_prometheus()


def gateway_exposition(monkeypatch) -> str:
    monkeypatch.setattr(gateway_module, "time", _StillClock())
    registry = MetricsRegistry()
    previous_registry = set_registry(registry)
    previous_tracer = set_tracer(Tracer())
    try:
        fleet = _ScriptedFleet()
        router = ClusterRouter(fleet, replication=2)
        gateway = ClusterGateway(router, fleet).start()
        try:
            with GatewayClient(*gateway.address) as client:
                for target in range(6):
                    client.call({"verb": "match", "targets": [target]})
                    client.call({"verb": "investigate", "eid": target})
                client.call(inject_trace(
                    {"verb": "match", "targets": [1, 2]},
                    TraceContext("0123456789abcdef"),
                ))
                client.call({"verb": "ingest", "scenarios": []})
                client.call({"verb": "ping"})
                client.call({"verb": "health"})
                client.call({"verb": "nope"})
                gateway.draining = True
                client.call({"verb": "match", "targets": [1]})
        finally:
            gateway.drain(timeout=5.0)
    finally:
        set_registry(previous_registry)
        set_tracer(previous_tracer)
    return registry.render_prometheus()


def expositions(monkeypatch) -> dict:
    return {
        "service": service_exposition(monkeypatch),
        "gateway": gateway_exposition(monkeypatch),
    }


def test_expositions_match_the_pin(monkeypatch):
    pinned = json.loads(GOLDEN_PATH.read_text())
    got = expositions(monkeypatch)
    assert got["service"] == pinned["service"]
    assert got["gateway"] == pinned["gateway"]


if __name__ == "__main__":
    with pytest.MonkeyPatch.context() as patch:
        GOLDEN_PATH.write_text(json.dumps(expositions(patch), indent=1) + "\n")
    print(f"wrote {GOLDEN_PATH}")
