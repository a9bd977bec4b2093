"""``serve-gateway``: investigator traffic through the cluster gateway.

The world is built, saved, and served by ``repro cluster serve`` (one
worker process, replication 1, default ``ServiceConfig`` with the
result cache on) in a subprocess, so the load generator's threads do
not share the gateway's interpreter lock.  Two closed-loop clients,
each on one persistent TCP connection, send the shared request mix
(see ``traffic.py``).  The first ``WARMUP_REQUESTS`` requests fill the
caches and count as set-up; the measured window follows.  Every match
answer must equal the in-process ``EVMatcher`` answer for its targets.
"""

from __future__ import annotations

import os
import re
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import List

from common import (
    TARGETS,
    Outcome,
    build_layers,
    build_worlds,
    coverage,
    median,
    paper_config,
    peak_rss_mb,
    percentile,
    tail_facts,
    target_seed,
    work_dir,
)
from spans import Recorder
from traffic import (
    Sample,
    Traffic,
    answer_accuracy,
    answered_targets,
    check_answers,
    detection_vids,
    first_error,
    in_process_predictions,
)

ROOT = Path(__file__).resolve().parent.parent

#: Closed-loop clients (one persistent connection each) — the host's
#: two CPUs, so the generator never outnumbers them.
CLIENTS = 2

#: Requests whose wall time counts as set-up (cold caches, lazy
#: feature extraction in the worker).
WARMUP_REQUESTS = 400

#: Longest wait for the gateway to report its worker ready.
READY_TIMEOUT_S = 120.0

_UP = re.compile(r"cluster up: gateway on ([\w.\-]+):(\d+)")


class Gateway:
    """A ``repro cluster serve`` subprocess and its output."""

    def __init__(self, dataset_path: Path, journal_dir: Path) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
        )
        self.process = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "cluster", "serve",
                "--dataset", str(dataset_path),
                "--processes", "1",
                "--replication", "1",
                "--port", "0",
                "--journal-dir", str(journal_dir),
            ],
            cwd=str(ROOT),
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        self.lines: List[str] = []
        self.address = None
        self._up = threading.Event()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()

    def _read(self) -> None:
        for line in self.process.stdout:
            self.lines.append(line.rstrip())
            match = _UP.search(line)
            if match:
                self.address = (match.group(1), int(match.group(2)))
                self._up.set()
        self._up.set()  # exited: wake the waiter

    def wait_ready(self, timeout: float) -> bool:
        self._up.wait(timeout)
        return self.address is not None

    def stop(self) -> int:
        """Drain with SIGINT; kill if the drain hangs.  Returns the
        exit code."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=30)
        self._reader.join(timeout=10)
        return self.process.returncode


def _drive(client, requests, recorder, stop, samples: List[Sample], trace_every):
    """One closed-loop client until ``stop(requests sent)`` says so;
    every ``trace_every``-th request (0: none) runs in a client span."""
    from repro.cluster import codec
    from repro.cluster.client import GatewayError
    from repro.service.api import MatchRequest

    count = 0
    while not stop(count):
        request = next(requests)
        is_match = isinstance(request, MatchRequest)
        wire = codec.request_to_wire(request)
        traced = bool(trace_every) and count % trace_every == 1
        started = time.perf_counter()
        try:
            if traced:
                with recorder.span("client.request"):
                    reply = client.call(wire)
            else:
                reply = client.call(wire)
        except GatewayError as exc:
            reply = {"status": "error", "error": str(exc)}
        latency = time.perf_counter() - started
        count += 1
        ok = reply.get("status") == "ok"
        answer = None
        if ok and is_match:
            answer = {
                int(eid): doc.get("prediction")
                for eid, doc in (reply.get("matches") or {}).items()
            }
        samples.append(
            Sample(
                kind="match" if is_match else "investigate",
                latency_s=latency,
                ok=ok,
                cached=bool(reply.get("cached")),
                deduplicated=bool(reply.get("deduplicated")),
                batched=int(reply.get("batched_with") or 0) > 0,
                service_s=float(reply.get("latency_s") or 0.0),
                answer=answer,
                error=f"{reply.get('status')}: {reply.get('error')}",
                traced=traced,
            )
        )


def _load(address, streams, stop, recorder, trace_every) -> tuple:
    """Run every client until ``stop``; returns ``(samples, wall
    seconds)``."""
    from repro.cluster.client import GatewayClient

    per_client: List[List[Sample]] = [[] for _ in range(CLIENTS)]
    client = GatewayClient(address[0], address[1], timeout_s=60.0)
    threads = [
        threading.Thread(
            target=_drive,
            args=(client, streams[i], recorder, stop, per_client[i], trace_every),
            name=f"perfbench-client-{i}",
        )
        for i in range(CLIENTS)
    ]
    started = time.perf_counter()
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        client.close()
    wall = time.perf_counter() - started
    return [s for samples in per_client for s in samples], wall


def run(
    seed: int,
    seconds: float,
    trace: bool,
    config=None,
    targets: int = TARGETS,
) -> Outcome:
    """One ``serve-gateway`` run."""
    from repro.cluster.client import GatewayClient
    from repro.datagen.io import save_dataset

    out = Outcome()
    if config is None:
        config = paper_config()
    build_rec = Recorder()
    dataset, build_s = build_worlds(config, build_rec if trace else None)
    sample = dataset.sample_targets(targets, seed=target_seed(seed))
    traffic = Traffic(sample, seed)

    scratch = work_dir(ROOT) / f"serve-{os.getpid()}"
    scratch.mkdir(exist_ok=True)
    gateway = None
    try:
        started = time.perf_counter()
        path = save_dataset(dataset, scratch / "world.npz")
        save_s = time.perf_counter() - started

        started = time.perf_counter()
        gateway = Gateway(path, scratch / "journals")
        ready = gateway.wait_ready(READY_TIMEOUT_S)
        ready_s = time.perf_counter() - started
        if not ready:
            raise RuntimeError(
                "gateway never came up: " + " | ".join(gateway.lines[-5:])
            )

        streams = [traffic.requests(i) for i in range(CLIENTS)]
        per_client_warmup = WARMUP_REQUESTS // CLIENTS
        client_rec = Recorder()
        warm, warmup_s = _load(
            gateway.address, streams, lambda n: n >= per_client_warmup,
            client_rec, trace_every=0,
        )
        deadline = time.monotonic() + seconds
        measured, window_s = _load(
            gateway.address, streams, lambda n: time.monotonic() >= deadline,
            client_rec, trace_every=2 if trace else 0,
        )

        with GatewayClient(*gateway.address) as client:
            stats = client.stats()
        worker = next(iter(stats["workers"].values()))
        worker_rss = peak_rss_mb(str(worker["pid"]))
        backend = next(
            iter(stats.get("telemetry", {}).get("workers", {}).values()), {}
        ).get("backend")
    finally:
        exit_code = gateway.stop() if gateway is not None else None
        shutil.rmtree(scratch, ignore_errors=True)
    out.check(exit_code == 0, f"gateway exited with code {exit_code}")

    # -- correctness: every answer equals the in-process matcher's.
    everything = warm + measured
    by_index = {eid.index: eid for eid in dataset.eids}
    expected = in_process_predictions(
        dataset.store, [by_index[i] for i in answered_targets(everything)]
    )
    checked, wrong = check_answers(everything, expected)
    out.check(checked > 0, "no match answers to check")
    out.check(wrong == 0, f"{wrong} of {checked} gateway answers differ from EVMatcher")
    out.attempted = len(everything)
    out.failed = sum(1 for s in everything if not s.ok)
    out.check(
        out.failed == 0,
        f"{out.failed} of {out.attempted} requests failed, first: "
        f"{first_error(everything)}",
    )

    # Only answered requests count: a shed or failed reply is fast, and
    # must not read as speed.
    answered = [s for s in measured if s.ok]
    latencies = [s.latency_s for s in answered]
    truth = {eid.index: vid for eid, vid in dataset.truth.items()}
    out.end_to_end = {
        "setup_s": build_s + save_s + ready_s + warmup_s,
        "throughput_per_s": len(answered) / window_s,
        "latency_p50_ms": median(latencies) * 1e3,
        "latency_p90_ms": percentile(latencies, 90) * 1e3,
        "accuracy": answer_accuracy(everything, truth, detection_vids(dataset.store)),
        "peak_rss_mb": worker_rss,
    }
    out.facts.update(
        split_backend=backend,
        target_seed=target_seed(seed),
        requests_measured=len(measured),
        warmup_requests=len(warm),
        warmup_s=warmup_s,
        window_s=window_s,
        **tail_facts(latencies),
        answers_checked=checked,
        first_error=first_error(everything),
    )
    if trace:
        _layers(out, dataset, build_rec, measured, save_s, ready_s)
        out.recorders.update(build=build_rec, client=client_rec)
    return out


def _layers(out, dataset, build_rec, measured, save_s, ready_s) -> None:
    ok = [s for s in measured if s.ok]
    plain = [s for s in ok if not s.traced]
    traced = [s for s in ok if s.traced]
    misses = [s for s in ok if s.kind == "match" and not s.cached]
    investigates = [s for s in ok if s.kind == "investigate"]
    out.layer({
        **build_layers(build_rec, dataset),
        "io.save_s": save_s,
        "worker.ready_s": ready_s,
        "service.latency_p50_ms": median([s.service_s for s in ok]) * 1e3,
        "wire.overhead_p50_ms": median([s.latency_s - s.service_s for s in ok]) * 1e3,
        "service.cache_hit_rate": sum(s.cached for s in ok) / max(1, len(ok)),
        "service.dedup": sum(s.deduplicated for s in ok),
        "service.batched": sum(s.batched for s in ok),
        "service.miss_p50_ms": median([s.latency_s for s in misses]) * 1e3,
        "investigate_p50_ms": median([s.latency_s for s in investigates]) * 1e3,
        "trace.overhead_ms": (
            median([s.latency_s for s in traced])
            - median([s.latency_s for s in plain])
        ) * 1e3,
        **coverage(build_rec, "bench.build"),
    })
