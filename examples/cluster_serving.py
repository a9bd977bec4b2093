#!/usr/bin/env python
"""Cluster serving: worker processes, replication, and a live gateway.

:mod:`repro.service` scales the matcher across threads inside one
process; :mod:`repro.cluster` promotes it to a real deployment shape —
worker *processes* behind a TCP gateway, with supervision and
replicated consistent-hash routing.  This demo:

* builds a world, saves it, and spawns a supervised 3-worker fleet
  (each worker loads the identical replica and journals its ingests);
* stands up the NDJSON socket gateway and drives it with the
  closed-loop load generator — over real sockets;
* tails the flight-recorder event stream (the SSE-style ``events``
  verb) from a second connection while traffic flows;
* kills a worker mid-run and watches the supervisor detect the crash,
  restart it with backoff, and replay the ingests it missed — no
  query fails along the way;
* pulls the observability plane's view of all that: a traced request's
  merged gateway+worker Chrome trace (the ``trace`` verb) and the
  cluster-wide federated metrics exposition (the ``metrics`` verb,
  every worker series labelled ``worker="<id>"``);
* drains the gateway for a graceful exit.

Run:
    python examples/cluster_serving.py
"""

import shutil
import tempfile
import threading
import time
from pathlib import Path

from repro import ExperimentConfig, build_dataset
from repro.cluster import (
    ClusterGateway,
    ClusterRouter,
    GatewayClient,
    Supervisor,
    WorkerSpec,
)
from repro.datagen.io import save_dataset
from repro.obs import (
    EventLog,
    TraceContext,
    Tracer,
    inject_trace,
    new_trace_id,
    set_event_log,
    set_tracer,
)
from repro.service import LoadConfig, MatchRequest, ServiceConfig
from repro.service.loadgen import run_load_socket


def main() -> None:
    set_event_log(EventLog())
    set_tracer(Tracer())  # real tracer → enveloped requests are traced
    workdir = Path(tempfile.mkdtemp(prefix="repro-cluster-demo-"))
    try:
        demo(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def demo(workdir: Path) -> None:
    """The tour, with the saved world and the journals in ``workdir``."""
    print("Building the world (150 people, 4x4 cells)...")
    dataset = build_dataset(
        ExperimentConfig(
            num_people=150, cells_per_side=4, duration=600.0, seed=23
        )
    )
    world = save_dataset(dataset, workdir / "world.npz")
    print(f"  {len(dataset.store)} scenarios saved to {world}")

    print("\nSpawning a 3-worker fleet (full replicas, journaled)...")
    specs = [
        WorkerSpec(
            worker_id=f"w{i}",
            dataset_path=str(world),
            journal_path=str(workdir / f"w{i}.journal.jsonl"),
            service=ServiceConfig(workers=2),
        )
        for i in range(3)
    ]
    supervisor = Supervisor(specs).start()
    router = ClusterRouter(supervisor, replication=2, read_policy="first")
    gateway = ClusterGateway(router, supervisor).start()
    print(f"  gateway listening on {gateway.host}:{gateway.port}")

    # Tail the flight recorder from a second connection while we work.
    tail_client = GatewayClient(gateway.host, gateway.port)
    seen = []

    def tail() -> None:
        for event_type, _event in tail_client.stream_events(
            types=[
                "cluster.worker.crashed",
                "cluster.worker.restarted",
                "cluster.health.degraded",
                "cluster.health.ok",
                "cluster.ingest.replayed",
            ],
            timeout_s=30.0,
        ):
            seen.append(event_type)
            print(f"    [event stream] {event_type}")

    tailer = threading.Thread(target=tail, daemon=True)
    tailer.start()

    print("\nClosed-loop load over real sockets (4 clients):")
    targets = list(dataset.sample_targets(16, seed=1))
    report = run_load_socket(
        gateway.host,
        gateway.port,
        targets,
        LoadConfig(num_clients=4, requests_per_client=10, pool_size=6),
    )
    print(
        f"  {report.issued} requests, {report.ok} ok, "
        f"{report.achieved_qps:.0f} q/s"
    )

    print("\nKilling worker w0 mid-service (queries keep succeeding):")
    client = GatewayClient(gateway.host, gateway.port)
    client.ping()  # warm a connection before the chaos
    supervisor.worker("w0").kill()
    detected = recovered = False
    deadline = time.time() + 30.0
    while time.time() < deadline:
        response = client.submit(
            MatchRequest(targets=tuple(targets[:3]))
        ).result(timeout=30)
        assert response.status == "ok", response
        if not detected:
            # wait for the monitor to notice the loss first, or the
            # "whole again" check below passes vacuously
            detected = len(supervisor.available()) < 3
        elif len(supervisor.available()) == 3:
            recovered = True
            break
        time.sleep(0.1)
    print(f"  fleet whole again: {recovered}")
    # give the tail a beat to drain the recovery events before we
    # shut the stream down
    for _ in range(50):
        if "cluster.health.ok" in seen:
            break
        time.sleep(0.1)

    print("\nThe observability plane's view of the episode:")
    # One merged Chrome trace for a request sent with a trace envelope
    # (requests without one are not traced): the gateway span, the
    # router fan-out, and the worker's match/e.split/v.filter tree on
    # a single wall-clock axis (open in chrome://tracing).
    context = TraceContext(new_trace_id())
    client.call(inject_trace(
        {"verb": "match", "targets": [t.index for t in targets[:2]]},
        context,
    ))
    trace = client.merged_trace(context.trace_id)
    spans = [
        e for e in trace["chrome"]["traceEvents"] if e.get("ph") == "X"
    ]
    processes = {e["pid"] for e in spans}
    print(
        f"  merged trace {trace['trace_id']}: {len(spans)} spans "
        f"across {len(processes)} processes"
    )
    # The federated exposition: worker registries piggybacked on
    # heartbeats, every series re-labelled worker="<id>", counters
    # re-based across w0's restart so nothing went backward.
    exposition = client.metrics_text()
    federated = {
        line.split('worker="', 1)[1].split('"', 1)[0]
        for line in exposition.splitlines()
        if 'worker="' in line and not line.startswith("#")
    }
    print(f"  federated metrics from workers: {sorted(federated)}")

    gateway.drain()
    supervisor.stop()
    tail_client.close()
    client.close()
    print(f"\nEvent stream saw: {sorted(set(seen))}")
    print("Done.")


if __name__ == "__main__":
    main()
