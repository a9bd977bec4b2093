"""The request log under concurrent writers and readers."""

import sys
import threading

from repro.service.metrics import RequestLog, RequestRecord

ENDPOINTS = ("match", "investigate", "ingest", "stats")
WRITERS = 4
#: Per writer; the data endpoints' share stays under the window's cap.
WRITES = 1500


def written_under_reads() -> RequestLog:
    """A log that writers filled while a reader kept reading it."""
    log = RequestLog()
    done = threading.Event()
    reads = []

    def write(offset):
        for i in range(WRITES):
            endpoint = ENDPOINTS[(offset + i) % len(ENDPOINTS)]
            log.write(RequestRecord(endpoint, "ok", 1e-4, cached=i % 2 == 0))

    def read():
        while not done.is_set():
            log.snapshot()
            log.health()
            log.latency_p99()
            log.render_prometheus()
            reads.append(1)

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # interleave the threads finely
    try:
        reader = threading.Thread(target=read)
        writers = [
            threading.Thread(target=write, args=(k,)) for k in range(WRITERS)
        ]
        reader.start()
        for thread in writers:
            thread.start()
        for thread in writers:
            thread.join(timeout=60.0)
        done.set()
        reader.join(timeout=60.0)
    finally:
        sys.setswitchinterval(previous)
    assert not any(thread.is_alive() for thread in (reader, *writers))
    assert reads
    return log


def test_every_concurrent_write_is_counted_once():
    # A lost record shows in most rounds, not all: run a few.
    for _ in range(3):
        assert_counts_every_write(written_under_reads())


def assert_counts_every_write(log: RequestLog) -> None:
    per_endpoint = WRITERS * WRITES // len(ENDPOINTS)
    snapshot = log.snapshot()
    assert {name: row["requests"] for name, row in snapshot.items()} == {
        name: per_endpoint for name in ENDPOINTS
    }
    assert all(row["ok"] == per_endpoint for row in snapshot.values())
    assert sum(row["cache_hits"] for row in snapshot.values()) == (
        WRITERS * WRITES // 2
    )
    text = log.render_prometheus()
    for name in ENDPOINTS:
        assert (
            f'service_requests_total{{endpoint="{name}"}} {per_endpoint}\n'
            in text
        )
        assert log.latency.count(endpoint=name) == per_endpoint
    assert log.health().samples == 3 * per_endpoint  # stats is not judged
