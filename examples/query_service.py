#!/usr/bin/env python
"""The query service: serving EV-Matching as a standing system.

Everything else in ``examples/`` builds a world and runs one batch
match.  A deployment looks different: the dataset sits resident in a
long-lived process that answers repeated queries while new scenario
windows keep arriving.  This demo:

* builds a world and stands the service up on its first 70% of ticks;
* issues concurrent match and investigate queries from several client
  threads (watch the cache, the in-flight dedup and the batcher work);
* ingests the remaining ticks window by window — cached answers whose
  EIDs appear in new scenarios are invalidated, and the incremental
  watch-list fires matches as evidence suffices;
* prints the service's metrics snapshot.

Run:
    python examples/query_service.py
"""

import threading

from repro import ExperimentConfig, build_dataset
from repro.sensing.scenarios import ScenarioStore
from repro.service import MatchService, ServiceConfig


def main() -> None:
    print("Building the world (300 people, 4x4 cells)...")
    dataset = build_dataset(
        ExperimentConfig(
            num_people=300,
            cells_per_side=4,
            duration=1200.0,
            sample_dt=10.0,
            seed=17,
        )
    )
    full = dataset.store
    ticks = list(full.ticks)
    cutoff = ticks[int(len(ticks) * 0.7)]
    standing = ScenarioStore(
        [full.get(key) for key in full.keys if key.tick <= cutoff]
    )
    arriving = {}
    for key in full.keys:
        if key.tick > cutoff:
            arriving.setdefault(key.tick, []).append(full.get(key))

    targets = list(dataset.sample_targets(16, seed=1))
    config = ServiceConfig(workers=3, cache_capacity=128)
    with MatchService(
        standing, grid=dataset.grid, universe=dataset.eids, config=config
    ) as service:
        print(
            f"Service up: {config.workers} workers, "
            f"{len(standing)} scenarios standing "
            f"(ticks up to {cutoff}).\n"
        )
        service.watch(targets[-4:])

        # -- concurrent clients ----------------------------------------
        print("Phase 1: 6 concurrent clients, overlapping queries...")
        responses = {}

        def client(name, work):
            for label, request_fn in work:
                responses[(name, label)] = request_fn()

        jobs = [
            ("A", [("m1", lambda: service.match(targets[:3])),
                   ("m2", lambda: service.match(targets[3:6]))]),
            ("B", [("m1", lambda: service.match(targets[:3]))]),  # twin of A/m1
            ("C", [("inv", lambda: service.investigate(targets[0]))]),
            ("D", [("m3", lambda: service.match(targets[6:9]))]),
            ("E", [("inv", lambda: service.investigate(targets[1]))]),
            ("F", [("m1", lambda: service.match(targets[:3]))]),  # another twin
        ]
        threads = [
            threading.Thread(target=client, args=(name, work))
            for name, work in jobs
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        for (name, label), resp in sorted(responses.items()):
            if hasattr(resp, "matches"):
                flags = []
                if resp.cached:
                    flags.append("cache hit")
                if resp.deduplicated:
                    flags.append("deduplicated")
                if resp.batched_with:
                    flags.append(f"batched with {resp.batched_with}")
                print(
                    f"  client {name}/{label}: {len(resp.matches)} matches "
                    f"in {1e3 * resp.latency_s:.2f} ms"
                    f" ({', '.join(flags) or 'cold'})"
                )
            else:
                print(
                    f"  client {name}/{label}: {resp.num_scenarios} sightings, "
                    f"{len(resp.co_travelers)} co-travelers, "
                    f"{len(resp.presence)} dwell runs"
                )

        repeat = service.match(targets[:3])
        print(
            f"  repeat of m1: cached={repeat.cached} "
            f"in {1e3 * repeat.latency_s:.2f} ms\n"
        )

        # -- live ingestion --------------------------------------------
        print(f"Phase 2: ingesting {len(arriving)} new windows...")
        invalidated = 0
        emissions = 0
        for tick in sorted(arriving):
            resp = service.ingest_tick(arriving[tick])
            invalidated += resp.invalidated
            for emission in resp.emissions:
                emissions += 1
                print(
                    f"  t={tick}: watch-list match {emission.eid.mac} "
                    f"(agreement {emission.result.agreement:.2f})"
                )
        print(
            f"  ingested {sum(len(v) for v in arriving.values())} scenarios; "
            f"{invalidated} cached answers invalidated, "
            f"{emissions} watch-list matches fired."
        )
        stale = service.match(targets[:3])
        print(
            f"  m1 after ingest: cached={stale.cached} "
            f"(recomputed over the grown store)\n"
        )

        # -- metrics ----------------------------------------------------
        print("Phase 3: the stats endpoint:")
        snapshot = service.stats().snapshot
        for endpoint, values in snapshot.items():
            if endpoint == "service":
                continue
            print(
                f"  {endpoint:<12} {int(values['requests'])} requests, "
                f"{int(values['cache_hits'])} cache hits, "
                f"p95 {1e3 * values['latency_p95_s']:.2f} ms"
            )
        gauges = snapshot["service"]
        print(
            f"  service      cache {int(gauges['cache_entries'])} entries "
            f"(hit rate {gauges['cache_hit_rate']:.2f}), "
            f"{int(gauges['store_scenarios'])} scenarios standing, "
            f"watch {int(gauges['watch_emitted'])} emitted / "
            f"{int(gauges['watch_pending'])} pending"
        )


if __name__ == "__main__":
    main()
