"""Command-line interface: run matches and regenerate experiments.

Examples::

    python -m repro match --people 400 --cells 4 --targets 100
    python -m repro match --people 400 --cells 4 --targets 100 --algorithm edp
    python -m repro experiment fig5
    python -m repro experiment list
    python -m repro build --out world.npz --people 600
    python -m repro match --dataset world.npz --targets 100
    python -m repro investigate --dataset world.npz --suspect 3
"""

from __future__ import annotations

import argparse
import contextlib
import signal
import sys
import threading
from typing import Dict, List, Optional, Sequence

from repro.bench import experiments as exp_mod
from repro.bench.reporting import render_rows
from repro.core.matcher import EVMatcher, MatcherConfig
from repro.core.refining import RefiningConfig
from repro.core.set_splitting import SplitConfig
from repro.datagen.config import ExperimentConfig
from repro.datagen.dataset import build_dataset
from repro.datagen.io import load_dataset, save_dataset

#: Experiment registry: CLI name -> (function, title).
EXPERIMENTS: Dict[str, tuple] = {
    "fig5": (exp_mod.fig5_scenarios_vs_eids, "Fig. 5 — selected scenarios vs matched EIDs"),
    "fig6": (exp_mod.fig6_scenarios_vs_density, "Fig. 6 — selected scenarios vs density"),
    "fig7": (exp_mod.fig7_scenarios_per_eid, "Fig. 7 — selected scenarios per matched EID"),
    "fig8": (exp_mod.fig8_time_vs_eids, "Fig. 8 — processing time vs matched EIDs"),
    "fig9": (exp_mod.fig9_time_vs_density, "Fig. 9 — processing time vs density"),
    "table1": (exp_mod.table1_accuracy_vs_eids, "Table I — accuracy vs matched EIDs"),
    "table2": (exp_mod.table2_accuracy_vs_density, "Table II — accuracy vs density"),
    "fig10": (exp_mod.fig10_accuracy_vs_eid_missing, "Fig. 10 — accuracy vs EID missing"),
    "fig11": (exp_mod.fig11_accuracy_vs_vid_missing, "Fig. 11 — accuracy vs VID missing"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="EV-Matching (ICDCS 2017) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    match = sub.add_parser("match", help="run one matching task on a fresh world")
    match.add_argument("--dataset", help="load a saved world instead of building")
    match.add_argument("--people", type=int, default=400, help="population size")
    match.add_argument("--cells", type=int, default=4, help="cells per side")
    match.add_argument("--targets", type=int, default=100, help="EIDs to match")
    match.add_argument("--duration", type=float, default=1200.0, help="trace seconds")
    match.add_argument("--seed", type=int, default=0)
    match.add_argument(
        "--algorithm", choices=("ss", "edp", "both"), default="both"
    )
    match.add_argument("--v-miss", type=float, default=0.0, help="VID missing rate")
    match.add_argument("--e-drift", type=float, default=0.0, help="drift sigma (m)")
    match.add_argument("--vague-width", type=float, default=0.0, help="vague band (m)")
    match.add_argument(
        "--refine", action="store_true", help="enable the Algorithm 2 loop"
    )
    match.add_argument(
        "--topology",
        action="store_true",
        help="use the world's fitted camera graph to prune "
        "spatiotemporally-impossible V-stage candidates and weight "
        "scores by transit likelihood",
    )
    match.add_argument(
        "--engine",
        choices=("local", "mapreduce"),
        default="local",
        help="run the stages in-process or on the MapReduce engine "
        "(mapreduce adds per-job/task spans to --trace output)",
    )
    match.add_argument(
        "--trace",
        metavar="OUT.json",
        help="record spans for the run and write Chrome trace-event "
        "JSON (open in chrome://tracing or Perfetto)",
    )
    match.add_argument(
        "--profile",
        metavar="OUT.collapsed",
        help="continuously sample the run's wall-clock stacks and write "
        "a collapsed-stack profile (plus OUT.collapsed.speedscope.json "
        "for https://speedscope.app); stacks are rooted under the "
        "active tracer spans",
    )
    match.add_argument(
        "--profile-hz",
        type=float,
        default=None,
        metavar="HZ",
        help="profiler sample rate (default: 97)",
    )
    match.add_argument(
        "--metrics",
        action="store_true",
        help="print the metrics registry as Prometheus text after the run",
    )
    match.add_argument(
        "--events",
        metavar="OUT.jsonl",
        help="flight recorder: stream structured events (one JSON object "
        "per line) to this file, with run-manifest/metrics/span footer "
        "records so the stream alone can rebuild a run report",
    )
    match.add_argument(
        "--report",
        metavar="OUT.md",
        help="write a markdown run report (manifest, metrics, span tree, "
        "event timeline, match provenance) after the run",
    )

    experiment = sub.add_parser(
        "experiment", help="regenerate one paper table/figure (or 'list')"
    )
    experiment.add_argument("name", help="experiment id, e.g. fig5, table1, list")

    build = sub.add_parser("build", help="build a synthetic world and save it")
    build.add_argument(
        "--out", required=True, help="output .npz path (written uncompressed)"
    )
    build.add_argument("--people", type=int, default=400)
    build.add_argument("--cells", type=int, default=4)
    build.add_argument("--duration", type=float, default=1200.0)
    build.add_argument("--seed", type=int, default=0)
    build.add_argument("--v-miss", type=float, default=0.0)
    build.add_argument("--e-drift", type=float, default=0.0)
    build.add_argument("--vague-width", type=float, default=0.0)

    investigate = sub.add_parser(
        "investigate", help="universal-label a world and query the fused index"
    )
    investigate.add_argument("--dataset", help="load a saved world instead of building")
    investigate.add_argument("--people", type=int, default=300)
    investigate.add_argument("--cells", type=int, default=3)
    investigate.add_argument("--duration", type=float, default=1000.0)
    investigate.add_argument("--seed", type=int, default=0)
    investigate.add_argument(
        "--suspect", type=int, default=0, help="EID index to profile"
    )

    report = sub.add_parser(
        "report", help="run every experiment and write a markdown report"
    )
    report.add_argument("--out", default="results.md", help="output path")
    report.add_argument(
        "--from-events",
        dest="from_events",
        metavar="RUN.jsonl",
        help="instead of re-running experiments, render the run report "
        "from a flight-recorder stream written by 'match --events'",
    )

    serve = sub.add_parser(
        "serve",
        help="stand up the query service and answer seeded demo traffic",
    )
    serve.add_argument("--dataset", help="load a saved world instead of building")
    serve.add_argument("--people", type=int, default=300)
    serve.add_argument("--cells", type=int, default=4)
    serve.add_argument("--duration", type=float, default=1000.0)
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument("--workers", type=int, default=2, help="worker threads")
    serve.add_argument("--queue-size", type=int, default=64)
    serve.add_argument("--shards", type=int, default=4, help="dataset shards")
    serve.add_argument(
        "--no-cache", action="store_true", help="disable the result cache"
    )
    serve.add_argument(
        "--requests", type=int, default=32,
        help="demo queries to answer before printing stats and exiting",
    )
    serve.add_argument(
        "--watch", type=int, default=5,
        help="targets to track on the incremental watch-list",
    )

    loadtest = sub.add_parser(
        "loadtest",
        help="closed-loop load test: cached vs cold serving throughput",
    )
    loadtest.add_argument("--dataset", help="load a saved world instead of building")
    loadtest.add_argument("--people", type=int, default=300)
    loadtest.add_argument("--cells", type=int, default=4)
    loadtest.add_argument("--duration", type=float, default=1000.0)
    loadtest.add_argument("--seed", type=int, default=0)
    loadtest.add_argument("--clients", type=int, default=4)
    loadtest.add_argument(
        "--requests", type=int, default=25, help="requests per client"
    )
    loadtest.add_argument(
        "--pool", type=int, default=8, help="distinct query shapes"
    )
    loadtest.add_argument("--targets-per-request", type=int, default=3)
    loadtest.add_argument("--workers", type=int, default=2)
    loadtest.add_argument("--shards", type=int, default=4)

    cluster = sub.add_parser(
        "cluster",
        help="multi-process serving: shard workers, replication, "
        "a real TCP gateway",
    )
    cluster_sub = cluster.add_subparsers(dest="cluster_command", required=True)
    cserve = cluster_sub.add_parser(
        "serve",
        help="spawn a supervised worker fleet behind the socket gateway "
        "and serve until SIGINT/SIGTERM",
    )
    cloadtest = cluster_sub.add_parser(
        "loadtest",
        help="drive a cluster over real sockets with the closed-loop "
        "load generator",
    )
    ctrace = cluster_sub.add_parser(
        "trace",
        help="run traced requests against a fresh fleet and write the "
        "merged gateway+worker Chrome trace (chrome://tracing)",
    )
    ctop = cluster_sub.add_parser(
        "top",
        help="live per-worker view of a running gateway: qps, p99, "
        "backend, restarts, telemetry lag",
    )
    cprofile = cluster_sub.add_parser(
        "profile",
        help="run requests against a fresh self-profiling fleet and "
        "write one merged collapsed-stack profile (each stack rooted "
        "under worker=<id>), plus a speedscope document",
    )
    cslowlog = cluster_sub.add_parser(
        "slowlog",
        help="fetch a running gateway's merged slow-query exemplars "
        "(slowest first, tagged by worker)",
    )
    for csub in (cserve, cloadtest, ctrace, cprofile):
        csub.add_argument(
            "--dataset", help="load a saved world instead of building"
        )
        csub.add_argument("--people", type=int, default=200)
        csub.add_argument("--cells", type=int, default=4)
        csub.add_argument("--duration", type=float, default=600.0)
        csub.add_argument("--seed", type=int, default=0)
        csub.add_argument(
            "--processes", type=int, default=2,
            help="worker processes in the fleet",
        )
        csub.add_argument(
            "--threads", type=int, default=2,
            help="serving threads inside each worker process",
        )
        csub.add_argument("--queue-size", type=int, default=64)
        csub.add_argument(
            "--replication", type=int, default=2,
            help="replica fan-out per routing key (≥2 survives one loss)",
        )
        csub.add_argument(
            "--read-policy", choices=("first", "quorum"), default="first"
        )
        csub.add_argument("--host", default="127.0.0.1")
        csub.add_argument(
            "--journal-dir", default=None, metavar="DIR",
            help="per-worker ingest journals live here "
            "(default: a fresh temp dir)",
        )
        csub.add_argument(
            "--events", default=None, metavar="OUT.jsonl",
            help="mirror the flight-recorder event log here",
        )
        csub.add_argument(
            "--telemetry-interval", type=float, default=1.0,
            metavar="SECONDS",
            help="how often workers piggyback metrics/events on "
            "heartbeats (lower = fresher top/metrics, more overhead)",
        )
        csub.add_argument(
            "--events-per-beat", type=int, default=256,
            metavar="N",
            help="flight-recorder events shipped per telemetry beat; "
            "raise when the ev_obs_ship_lag gauge stays non-zero "
            "under load (shipping loss), lower to cap beat size",
        )
        csub.add_argument(
            "--profile-hz", type=float, default=0.0, metavar="HZ",
            help="continuous-profiling sample rate inside each worker "
            "(0 = off; the gateway's profile verb needs > 0)",
        )
        csub.add_argument(
            "--topology", action="store_true",
            help="workers prune V-stage candidates with the world's "
            "fitted camera graph (needs a topology-bearing dataset)",
        )
    cserve.add_argument(
        "--port", type=int, default=0,
        help="gateway port (0 picks an ephemeral one)",
    )
    ctrace.add_argument(
        "output", metavar="OUT.json",
        help="where the merged Chrome trace is written",
    )
    ctrace.add_argument(
        "--requests", type=int, default=1,
        help="traced match requests to issue (the last one's trace is "
        "written)",
    )
    cprofile.add_argument(
        "output", metavar="OUT.collapsed",
        help="where the merged collapsed-stack profile is written "
        "(OUT.collapsed.speedscope.json is written beside it)",
    )
    cprofile.add_argument(
        "--requests", type=int, default=8,
        help="match requests to drive through the gateway while the "
        "workers self-profile",
    )
    cslowlog.add_argument(
        "--connect", required=True, metavar="HOST:PORT",
        help="the running gateway to query",
    )
    cslowlog.add_argument(
        "--limit", type=int, default=16,
        help="merged exemplars to fetch (slowest first)",
    )
    ctop.add_argument(
        "--connect", required=True, metavar="HOST:PORT",
        help="the running gateway to watch",
    )
    ctop.add_argument(
        "--interval", type=float, default=1.0,
        help="seconds between refreshes",
    )
    ctop.add_argument(
        "--iterations", type=int, default=0,
        help="stop after N refreshes (0 = until Ctrl-C)",
    )
    cserve.add_argument(
        "--serve-seconds", type=float, default=0.0,
        help="serve for N seconds then drain (0 = until signalled)",
    )
    cloadtest.add_argument(
        "--connect", default=None, metavar="HOST:PORT",
        help="drive an already-running gateway instead of spawning one",
    )
    cloadtest.add_argument("--clients", type=int, default=4)
    cloadtest.add_argument(
        "--requests", type=int, default=25, help="requests per client"
    )
    cloadtest.add_argument(
        "--pool", type=int, default=8, help="distinct query shapes"
    )
    cloadtest.add_argument("--targets-per-request", type=int, default=3)
    cloadtest.add_argument("--investigate-fraction", type=float, default=0.25)

    stream = sub.add_parser(
        "stream",
        help="stream sensor events through the windowed assembler "
        "(replay or live), with checkpoint/restore",
    )
    stream.add_argument("--dataset", help="load a saved world instead of building")
    stream.add_argument("--people", type=int, default=200)
    stream.add_argument("--cells", type=int, default=4)
    stream.add_argument("--duration", type=float, default=600.0)
    stream.add_argument("--seed", type=int, default=0)
    stream.add_argument(
        "--live", action="store_true",
        help="generate events live (no trace replay, no batch reference)",
    )
    stream.add_argument(
        "--windows", type=int, default=10,
        help="windows to generate in --live mode",
    )
    stream.add_argument(
        "--speedup", type=float, default=0.0,
        help="pace delivery at N× real time (0 = as fast as possible)",
    )
    stream.add_argument(
        "--jitter", type=int, default=0,
        help="bounded out-of-order arrival horizon, in ticks",
    )
    stream.add_argument(
        "--lateness", type=int, default=None,
        help="allowed lateness in ticks (default: match --jitter)",
    )
    stream.add_argument(
        "--queue-size", type=int, default=1024,
        help="bounded admission queue capacity, in items (sighting "
        "batches and camera frames)",
    )
    stream.add_argument(
        "--policy", choices=("block", "shed"), default="block",
        help="queue overflow policy",
    )
    stream.add_argument(
        "--checkpoint", default=None, metavar="PATH",
        help="snapshot resumable state here (and restore from it if present)",
    )
    stream.add_argument(
        "--checkpoint-every", type=int, default=1, metavar="N",
        help="checkpoint every N window closes",
    )
    stream.add_argument(
        "--max-events", type=int, default=None,
        help="stop (simulating a crash) after applying N events",
    )
    stream.add_argument(
        "--events", default=None, metavar="OUT.jsonl",
        help="record the flight-recorder event log here",
    )

    inspect = sub.add_parser(
        "inspect", help="profile a synthetic world (stats + occupancy heatmap)"
    )
    inspect.add_argument("--people", type=int, default=400)
    inspect.add_argument("--cells", type=int, default=4)
    inspect.add_argument("--duration", type=float, default=1200.0)
    inspect.add_argument("--seed", type=int, default=0)
    inspect.add_argument(
        "--mobility",
        choices=("random_waypoint", "random_walk", "gauss_markov", "hotspot"),
        default="random_waypoint",
    )

    topology = sub.add_parser(
        "topology",
        help="fit, save and inspect the camera graph (cell reachability "
        "+ transit-time distributions)",
    )
    topology_sub = topology.add_subparsers(dest="topology_command", required=True)
    tbuild = topology_sub.add_parser(
        "build",
        help="build a world, fit its camera graph, save both to one .npz",
    )
    tbuild.add_argument(
        "--out", required=True, help="output .npz path (written uncompressed)"
    )
    tbuild.add_argument("--people", type=int, default=400)
    tbuild.add_argument("--cells", type=int, default=4)
    tbuild.add_argument("--duration", type=float, default=1200.0)
    tbuild.add_argument("--seed", type=int, default=0)
    tbuild.add_argument("--v-miss", type=float, default=0.0)
    tbuild.add_argument("--e-drift", type=float, default=0.0)
    tbuild.add_argument("--vague-width", type=float, default=0.0)
    tinspect = topology_sub.add_parser(
        "inspect",
        help="print a fitted camera graph's stats and busiest edges",
    )
    tinspect.add_argument(
        "--dataset", help="load a saved world instead of building"
    )
    tinspect.add_argument("--people", type=int, default=400)
    tinspect.add_argument("--cells", type=int, default=4)
    tinspect.add_argument("--duration", type=float, default=1200.0)
    tinspect.add_argument("--seed", type=int, default=0)
    tinspect.add_argument(
        "--edges", type=int, default=10,
        help="busiest edges to list",
    )
    return parser


def _world_from_args(args: argparse.Namespace, out) -> "EVDataset":  # noqa: F821
    if getattr(args, "dataset", None):
        print(f"loading world from {args.dataset}", file=out)
        return load_dataset(args.dataset)
    config = ExperimentConfig(
        num_people=args.people,
        cells_per_side=args.cells,
        duration=args.duration,
        v_miss_rate=getattr(args, "v_miss", 0.0),
        e_drift_sigma=getattr(args, "e_drift", 0.0),
        vague_width=getattr(args, "vague_width", 0.0),
        seed=args.seed,
    )
    print(
        f"building world: {config.num_people} people, "
        f"{config.cells_per_side}x{config.cells_per_side} cells, "
        f"{config.duration:.0f}s trace (seed {config.seed})",
        file=out,
    )
    return build_dataset(config)


def run_match(args: argparse.Namespace, out=None) -> int:
    out = out if out is not None else sys.stdout
    engine = getattr(args, "engine", "local")
    if engine == "mapreduce" and args.refine:
        print("--refine is not supported with --engine mapreduce", file=sys.stderr)
        return 2
    use_topology = getattr(args, "topology", False)
    events_path = getattr(args, "events", None)
    report_path = getattr(args, "report", None)
    recording = bool(events_path or report_path)
    dataset = _world_from_args(args, out)
    topology_filter = None
    if use_topology:
        if dataset.topology is None:
            print(
                "--topology needs a world with a fitted camera graph; "
                "this dataset predates topology (rebuild it with "
                "'repro build' or 'repro topology build')",
                file=sys.stderr,
            )
            return 2
        from repro.core.vid_filtering import FilterConfig
        from repro.topology import TopologyConfig

        topology_filter = FilterConfig(
            topology=TopologyConfig(model=dataset.topology)
        )
        print(
            f"topology: {dataset.topology.graph.num_cells} cells, "
            f"{dataset.topology.graph.num_edges} fitted edges "
            f"(coverage {dataset.topology.coverage:.2f})",
            file=out,
        )
    targets = list(dataset.sample_targets(min(args.targets, len(dataset.eids)), seed=1))

    # The flight recorder needs real spans so every event carries a
    # span_id, so --events/--report imply an installed Tracer — and so
    # does --profile, whose samples are rooted under the active spans.
    profile_path = getattr(args, "profile", None)
    tracer = previous_tracer = None
    if getattr(args, "trace", None) or recording or profile_path:
        from repro.obs import Tracer, set_tracer

        tracer = Tracer()
        previous_tracer = set_tracer(tracer)
    profiler = None
    if profile_path:
        from repro.obs import DEFAULT_PROFILE_HZ, SamplingProfiler, set_profiler

        profiler = SamplingProfiler(
            hz=getattr(args, "profile_hz", None) or DEFAULT_PROFILE_HZ,
            tag="match",
        ).start()
        previous_profiler = set_profiler(profiler)
    event_log = run = previous_log = previous_run = None
    if recording:
        from repro.obs import (
            EventLog,
            new_run_context,
            set_event_log,
            set_run_context,
        )

        event_log = EventLog(sink=events_path)
        previous_log = set_event_log(event_log)
        run = new_run_context(
            "match",
            parameters={
                "dataset": getattr(args, "dataset", None) or "",
                "people": args.people,
                "cells": args.cells,
                "targets": len(targets),
                "duration": args.duration,
                "algorithm": args.algorithm,
                "engine": engine,
                "refine": bool(args.refine),
                "topology": use_topology,
            },
            seed=args.seed,
            backend=SplitConfig.backend,
        )
        previous_run = set_run_context(run)
    try:
        from contextlib import nullcontext

        root = tracer.span("run", command="match") if recording else nullcontext()
        with root:
            if engine == "mapreduce":
                from repro.parallel.driver import ParallelEVMatcher

                matcher = ParallelEVMatcher(
                    dataset.store, filter_config=topology_filter
                )
            else:
                overrides = {}
                if topology_filter is not None:
                    overrides["filter"] = topology_filter
                matcher_config = MatcherConfig(
                    refining=RefiningConfig(max_rounds=4) if args.refine else None,
                    **overrides,
                )
                matcher = EVMatcher(dataset.store, matcher_config)

            rows: List[dict] = []
            if args.algorithm in ("ss", "both"):
                report = matcher.match(targets)
                rows.append(_report_row("ss", report, dataset))
            if args.algorithm in ("edp", "both"):
                report = matcher.match_edp(targets)
                rows.append(_report_row("edp", report, dataset))
    finally:
        profile_snapshot = None
        if profiler is not None:
            from repro.obs import set_profiler

            profile_snapshot = profiler.stop()
            set_profiler(previous_profiler)
        if recording:
            from repro.obs import set_event_log, set_run_context

            run.finish()
            _write_flight_recorder(
                run, event_log, tracer, events_path, report_path, out
            )
            set_event_log(previous_log)
            set_run_context(previous_run)
        if tracer is not None:
            from repro.obs import set_tracer

            set_tracer(previous_tracer)
    columns = ("algorithm", "accuracy_pct", "selected", "per_eid", "sim_v_time_s")
    print(render_rows(f"match {len(targets)} EIDs", columns, rows), file=out)
    if tracer is not None and getattr(args, "trace", None):
        _write_trace(tracer, args.trace, out)
    if profile_snapshot is not None:
        _write_profile(profile_snapshot, profile_path, out)
    if getattr(args, "metrics", False):
        from repro.obs import get_registry

        print("", file=out)
        print(get_registry().render_prometheus(), file=out, end="")
    return 0


def _write_flight_recorder(
    run, event_log, tracer, events_path, report_path, out
) -> None:
    """Seal a recorded run: footer records + optional markdown report.

    The footer (manifest, metrics snapshot, span tree) makes the JSONL
    stream self-contained — ``repro report --from-events`` can rebuild
    the full report from the file alone.
    """
    from repro.obs import events as ev
    from repro.obs import get_registry, render_run_report

    snapshot = get_registry().snapshot()
    span_tree = tracer.render_tree()
    event_log.emit(ev.RUN_MANIFEST, **run.manifest())
    event_log.emit(ev.RUN_METRICS, snapshot=snapshot)
    event_log.emit(ev.RUN_SPANS, tree=span_tree)
    timeline = event_log.events()
    event_log.close()
    if events_path:
        print(
            f"wrote {event_log.emitted} events to {events_path} "
            f"({event_log.dropped} dropped from the ring)",
            file=out,
        )
    if report_path:
        rendered = render_run_report(
            run.manifest(),
            metrics_snapshot=snapshot,
            span_tree=span_tree,
            events=timeline,
            provenance=tuple(run.provenance),
        )
        with open(report_path, "w", encoding="utf-8") as fh:
            fh.write(rendered)
        print(f"wrote run report to {report_path}", file=out)


def _write_profile(snapshot, path: str, out) -> None:
    """Write one snapshot as collapsed stacks + a speedscope document."""
    import json

    collapsed = snapshot.collapsed()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(collapsed + ("\n" if collapsed else ""))
    speedscope_path = f"{path}.speedscope.json"
    with open(speedscope_path, "w", encoding="utf-8") as fh:
        json.dump(snapshot.speedscope(), fh)
    stacks = len(collapsed.splitlines()) if collapsed else 0
    print(
        f"wrote {snapshot.samples} samples ({stacks} distinct stacks, "
        f"{snapshot.hz:g} Hz) to {path} and {speedscope_path} "
        "(flamegraph.pl / https://speedscope.app)",
        file=out,
    )


def _write_trace(tracer, path: str, out) -> None:
    """Dump a run's spans as Chrome trace-event JSON plus a summary."""
    import json

    with open(path, "w", encoding="utf-8") as fh:
        json.dump(tracer.to_chrome_trace(), fh)
    spans = tracer.spans
    print(
        f"wrote {len(spans)} spans to {path} "
        "(open in chrome://tracing or https://ui.perfetto.dev)",
        file=out,
    )
    print(tracer.render_tree(), file=out)


def _report_row(name: str, report, dataset) -> dict:
    return {
        "algorithm": name,
        "accuracy_pct": round(report.score(dataset.truth).percentage, 2),
        "selected": report.num_selected,
        "per_eid": round(report.avg_scenarios_per_eid, 2),
        "sim_v_time_s": round(report.times.v_time, 1),
    }


def run_experiment(name: str, out=None) -> int:
    out = out if out is not None else sys.stdout
    if name == "list":
        for key, (_fn, title) in EXPERIMENTS.items():
            print(f"  {key:<8} {title}", file=out)
        return 0
    entry = EXPERIMENTS.get(name)
    if entry is None:
        print(
            f"unknown experiment {name!r}; try: {', '.join(EXPERIMENTS)} or 'list'",
            file=sys.stderr,
        )
        return 2
    fn, title = entry
    columns, rows = fn()
    print(render_rows(title, columns, rows), file=out)
    return 0


def run_inspect(args: argparse.Namespace, out=None) -> int:
    out = out if out is not None else sys.stdout
    from repro.sensing.stats import (
        co_occurrence_histogram,
        occupancy_by_cell,
        occupancy_over_time,
        store_stats,
    )
    from repro.world.render import render_heatmap, render_sparkline

    config = ExperimentConfig(
        num_people=args.people,
        cells_per_side=args.cells,
        duration=args.duration,
        mobility_model=args.mobility,
        seed=args.seed,
    )
    dataset = build_dataset(config)
    stats = store_stats(dataset.store)
    print(
        f"world: {args.people} people, {args.cells}x{args.cells} cells, "
        f"{args.mobility}, seed {args.seed}",
        file=out,
    )
    print(
        f"  {stats.num_scenarios} scenarios over {stats.num_ticks} ticks; "
        f"{stats.distinct_eids} EIDs, {stats.total_detections} detections",
        file=out,
    )
    print(
        f"  density: mean {stats.mean_eids_per_scenario:.1f} / max "
        f"{stats.max_eids_per_scenario} EIDs per scenario; "
        f"vague {100 * stats.vague_fraction:.1f}%; "
        f"E/V balance {stats.ev_balance:.2f}",
        file=out,
    )
    print("\nmean occupancy per cell:", file=out)
    print(render_heatmap(occupancy_by_cell(dataset.store), args.cells, width=3), file=out)
    series = [count for _tick, count in occupancy_over_time(dataset.store)]
    print("\nsightings over time:", file=out)
    print("  " + render_sparkline(series), file=out)
    print("\ncrowd-size histogram:", file=out)
    for label, count in co_occurrence_histogram(dataset.store):
        print(f"  {label:>9}  {count}", file=out)

    store = dataset.store
    dims = 0
    for key in store.keys[:1]:
        dims = store.v_scenario(key).features.shape[1]
    feature_bytes = stats.total_detections * dims * 8
    print("\nscenario store:", file=out)
    print(
        f"  {len(store)} EV-Scenarios ({stats.num_ticks} ticks x "
        f"{args.cells * args.cells} cells), {stats.distinct_eids} EIDs",
        file=out,
    )
    print(
        f"  {stats.total_detections} detections, {dims}-dim features "
        f"(~{feature_bytes / 1024:.0f} KiB if fully extracted)",
        file=out,
    )

    # The camera graph fitted alongside this world (what --topology
    # matching and the convoy queries consult).
    model = dataset.topology
    if model is not None:
        described = model.describe()
        print("\ncamera graph (topology):", file=out)
        print(
            f"  {described['nodes']:.0f} cells, {described['edges']:.0f} "
            f"fitted edges ({100 * described['coverage']:.0f}% of "
            "adjacent cell pairs)",
            file=out,
        )
        print(
            f"  {described['traversals']:.0f} observed traversals; "
            f"mean transit {described['mean_transit_ticks']:.1f} ticks; "
            f"reachability quantile q{described['quantile']:.2f}",
            file=out,
        )
    return 0


def run_build(args: argparse.Namespace, out=None) -> int:
    out = out if out is not None else sys.stdout
    dataset = _world_from_args(args, out)
    written = save_dataset(dataset, args.out)
    print(
        f"saved {len(dataset.store)} scenarios "
        f"({dataset.store.total_detections()} detections) to {written}",
        file=out,
    )
    return 0


def run_topology(args: argparse.Namespace, out=None) -> int:
    out = out if out is not None else sys.stdout
    if args.topology_command == "build":
        dataset = _world_from_args(args, out)
        written = save_dataset(dataset, args.out)
        model = dataset.topology
        print(
            f"saved {len(dataset.store)} scenarios + camera graph "
            f"({model.graph.num_edges} edges over {model.graph.num_cells} "
            f"cells, coverage {model.coverage:.2f}) to {written}",
            file=out,
        )
        return 0
    if args.topology_command == "inspect":
        dataset = _world_from_args(args, out)
        model = dataset.topology
        if model is None:
            print(
                "this dataset has no fitted camera graph; rebuild it "
                "with 'repro topology build'",
                file=sys.stderr,
            )
            return 2
        described = model.describe()
        print("camera graph:", file=out)
        print(
            f"  {described['nodes']:.0f} cells, {described['edges']:.0f} "
            f"fitted edges ({100 * described['coverage']:.0f}% of "
            "adjacent cell pairs)",
            file=out,
        )
        print(
            f"  {described['traversals']:.0f} observed traversals; "
            f"mean transit {described['mean_transit_ticks']:.1f} ticks; "
            f"reachability quantile q{described['quantile']:.2f}",
            file=out,
        )
        busiest = sorted(
            model.graph.edges(), key=lambda item: -item[1].count
        )[: args.edges]
        if busiest:
            print(f"\nbusiest {len(busiest)} edges:", file=out)
            for (u, v), stats in busiest:
                print(
                    f"  {u:>4} -> {v:<4} {stats.count:>5} traversals  "
                    f"mean {stats.mean_ticks:.1f} ticks  "
                    f"q{described['quantile']:.2f} {stats.quantile_ticks} "
                    "ticks",
                    file=out,
                )
        return 0
    raise AssertionError(
        f"unhandled topology command {args.topology_command!r}"
    )  # pragma: no cover


def run_investigate(args: argparse.Namespace, out=None) -> int:
    out = out if out is not None else sys.stdout
    from repro.fusion import FusedIndex
    from repro.world.entities import EID

    dataset = _world_from_args(args, out)
    print("running universal labeling...", file=out)
    report = EVMatcher(dataset.store).match_universal()
    index = FusedIndex(dataset.store, report)
    print(f"indexed {index.num_profiles} profiles", file=out)

    suspect = EID(args.suspect)
    if suspect not in index.eids:
        print(f"no profile for EID index {args.suspect}", file=sys.stderr)
        return 2
    profile = index.profile(suspect)
    print(f"\nprofile of {suspect.mac}:", file=out)
    if profile.e_trajectory is not None:
        print(
            f"  electronic: {len(profile.e_trajectory)} sightings, "
            f"cells {profile.e_trajectory.cells_visited()[:8]}",
            file=out,
        )
    print(
        f"  visual: {profile.num_appearances} attributed detections "
        f"(confidence {profile.match_agreement:.2f})",
        file=out,
    )
    companions = index.co_travelers(suspect, min_shared=3)[:5]
    if companions:
        print("  co-travelers:", file=out)
        for other, shared in companions:
            print(f"    {other.mac}: {shared} shared scenarios", file=out)
    return 0


@contextlib.contextmanager
def _drain_on_signals(begin_drain, out):
    """Install SIGINT/SIGTERM handlers that trigger a graceful drain.

    First signal: stop admission (the callback) and let in-flight work
    finish.  Second signal: the default KeyboardInterrupt escape hatch.
    No-op off the main thread (tests drive the run functions directly).
    """
    fired = {"drained": False}

    def handler(signum, frame):
        if fired["drained"]:
            raise KeyboardInterrupt
        fired["drained"] = True
        print(
            f"signal {signal.Signals(signum).name}: draining "
            f"(again to force quit)...",
            file=out,
        )
        begin_drain()

    if threading.current_thread() is not threading.main_thread():
        yield fired
        return
    previous = {
        sig: signal.signal(sig, handler)
        for sig in (signal.SIGINT, signal.SIGTERM)
    }
    try:
        yield fired
    finally:
        for sig, old in previous.items():
            signal.signal(sig, old)


def run_serve(args: argparse.Namespace, out=None) -> int:
    out = out if out is not None else sys.stdout
    from repro.service import LoadConfig, MatchService, ServiceConfig, run_load

    dataset = _world_from_args(args, out)
    config = ServiceConfig(
        workers=args.workers,
        queue_size=args.queue_size,
        num_shards=args.shards,
        cache_capacity=0 if args.no_cache else 256,
    )
    with MatchService.from_dataset(dataset, config) as service, \
            _drain_on_signals(service.begin_drain, out):
        watch = list(dataset.sample_targets(
            min(args.watch, len(dataset.eids)), seed=2
        ))
        if watch:
            service.watch(watch)
        pool = list(dataset.sample_targets(
            min(24, len(dataset.eids)), seed=1
        ))
        print(
            f"service up: {config.workers} workers, "
            f"{service.shards.num_shards} shards, "
            f"cache {'off' if args.no_cache else 'on'}; "
            f"answering {args.requests} demo queries...",
            file=out,
        )
        report = run_load(
            service,
            pool,
            LoadConfig(
                num_clients=min(4, args.requests),
                requests_per_client=max(1, args.requests // min(4, args.requests)),
                pool_size=8,
                investigate_fraction=0.25,
                seed=args.seed,
            ),
        )
        print(
            f"  {report.issued} requests: {report.ok} ok, {report.shed} shed, "
            f"{report.errors} errors; {report.achieved_qps:.0f} q/s, "
            f"hit rate {report.hit_rate:.2f}",
            file=out,
        )
        rows = [
            {"endpoint": endpoint, **{
                k: round(v, 4) for k, v in sorted(values.items())
                if k in ("requests", "ok", "shed", "errors", "cache_hits",
                         "latency_p50_s", "latency_p95_s", "latency_p99_s")
            }}
            for endpoint, values in service.stats().snapshot.items()
            if endpoint != "service"
        ]
        if rows:
            columns = tuple(rows[0].keys())
            print(render_rows("service stats", columns, rows), file=out)
    return 0


@contextlib.contextmanager
def _cluster_stack(args: argparse.Namespace, out, dataset=None):
    """Stand up the shared cluster stack: fleet + router + gateway.

    Workers load the world themselves: from ``--dataset`` when given,
    otherwise from a file this saves once into the journal directory
    (``dataset``, or a world built from the flags when ``None``).  So a
    ``--dataset`` world is never parsed here unless the caller needs it
    and passes it in.

    Yields ``(supervisor, router, gateway)`` and tears the stack down
    on exit: the gateway drains, the fleet stops, and a journal
    directory made here (no ``--journal-dir``) is removed with the
    world file saved in it.
    """
    import os
    import shutil
    import tempfile

    from repro.cluster import (
        ClusterGateway,
        ClusterRouter,
        Supervisor,
        WorkerSpec,
    )
    from repro.service import ServiceConfig

    journal_dir = args.journal_dir or tempfile.mkdtemp(prefix="repro-cluster-")
    supervisor = gateway = None
    try:
        os.makedirs(journal_dir, exist_ok=True)
        if getattr(args, "dataset", None):
            dataset_path = args.dataset
            print(f"workers load the world from {dataset_path}", file=out)
        else:
            if dataset is None:
                dataset = _world_from_args(args, out)
            # Save once; every worker loads the identical world instead
            # of re-simulating it.
            dataset_path = str(
                save_dataset(dataset, os.path.join(journal_dir, "world.npz"))
            )
        service_config = ServiceConfig(
            workers=args.threads, queue_size=args.queue_size
        )
        specs = [
            WorkerSpec(
                worker_id=f"w{i}",
                dataset_path=dataset_path,
                journal_path=os.path.join(journal_dir, f"w{i}.journal.jsonl"),
                service=service_config,
                host=args.host,
                telemetry_interval_s=getattr(args, "telemetry_interval", 1.0),
                max_events_per_beat=getattr(args, "events_per_beat", 256),
                profile_hz=getattr(args, "profile_hz", 0.0),
                use_topology=getattr(args, "topology", False),
            )
            for i in range(args.processes)
        ]
        print(
            f"spawning {args.processes} worker processes "
            f"({args.threads} threads each, journals in {journal_dir})...",
            file=out,
        )
        supervisor = Supervisor(specs).start()
        router = ClusterRouter(
            supervisor,
            replication=args.replication,
            read_policy=args.read_policy,
        )
        gateway = ClusterGateway(
            router, supervisor, host=args.host, port=getattr(args, "port", 0)
        ).start()
        yield supervisor, router, gateway
    finally:
        if gateway is not None:
            gateway.drain(timeout=5.0)
        if supervisor is not None:
            supervisor.stop()
        if not args.journal_dir:
            shutil.rmtree(journal_dir, ignore_errors=True)


def run_cluster_serve(args: argparse.Namespace, out=None) -> int:
    out = out if out is not None else sys.stdout
    import time

    from repro.obs import EventLog, set_event_log
    from repro.obs.tracing import Tracer, set_tracer

    # A live event log always runs under the gateway: it feeds the SSE
    # stream; --events additionally mirrors it to a JSONL file.  A real
    # tracer makes the merged gateway+worker trace of every request
    # that carries a trace envelope available on the ``trace`` verb.
    log = EventLog(sink=args.events) if args.events else EventLog()
    previous_log = set_event_log(log)
    previous_tracer = set_tracer(Tracer())
    try:
        with _cluster_stack(args, out) as (supervisor, router, gateway):
            print(
                f"cluster up: gateway on {gateway.host}:{gateway.port}, "
                f"replication {router.replication}, "
                f"read policy {router.read_policy}",
                file=out,
            )
            print(
                "NDJSON verbs: match investigate ingest health stats "
                "metrics trace profile slowlog ping events(SSE stream); "
                "Ctrl-C drains",
                file=out,
            )
            stop = threading.Event()
            with _drain_on_signals(stop.set, out):
                deadline = (
                    time.monotonic() + args.serve_seconds
                    if args.serve_seconds > 0
                    else None
                )
                while not stop.is_set():
                    if deadline is not None and time.monotonic() >= deadline:
                        break
                    stop.wait(0.2)
            print("draining gateway...", file=out)
            summary = gateway.drain()
        restarts = sum(h.restarts for h in supervisor.workers.values())
        print(
            f"drained clean: {summary['drained']}; "
            f"requests served: {gateway_requests(gateway)}; "
            f"worker restarts: {restarts}",
            file=out,
        )
        return 0
    finally:
        log.close()
        set_event_log(previous_log)
        set_tracer(previous_tracer)


def gateway_requests(gateway) -> int:
    """Requests the gateway answered, from its request log."""
    return sum(row["requests"] for row in gateway.requests.snapshot().values())


def run_cluster_loadtest(args: argparse.Namespace, out=None) -> int:
    out = out if out is not None else sys.stdout
    from repro.obs import EventLog, set_event_log
    from repro.service import LoadConfig, run_load_socket
    from repro.service.loadgen import percentile

    load_config = LoadConfig(
        num_clients=args.clients,
        requests_per_client=args.requests,
        pool_size=args.pool,
        targets_per_request=args.targets_per_request,
        investigate_fraction=args.investigate_fraction,
        seed=args.seed,
    )
    log = EventLog(sink=args.events) if args.events else EventLog()
    previous_log = set_event_log(log)
    stack = contextlib.ExitStack()
    try:
        # Target sampling needs the world itself, not just its path.
        dataset = _world_from_args(args, out)
        if args.connect:
            host, _, port = args.connect.rpartition(":")
            address = (host or "127.0.0.1", int(port))
        else:
            _supervisor, _router, gateway = stack.enter_context(
                _cluster_stack(args, out, dataset)
            )
            address = (gateway.host, gateway.port)
        targets = list(
            dataset.sample_targets(min(24, len(dataset.eids)), seed=1)
        )
        print(
            f"driving {address[0]}:{address[1]} over real sockets: "
            f"{load_config.num_clients} clients x "
            f"{load_config.requests_per_client} requests...",
            file=out,
        )
        report = run_load_socket(address[0], address[1], targets, load_config)
        print(
            f"  {report.issued} requests: {report.ok} ok, "
            f"{report.shed} shed, {report.errors} errors; "
            f"{report.achieved_qps:.0f} q/s over the wire",
            file=out,
        )
        if report.latencies_s:
            print(
                f"  latency p50 {percentile(report.latencies_s, 50)*1e3:.1f}ms "
                f"p95 {percentile(report.latencies_s, 95)*1e3:.1f}ms",
                file=out,
            )
        if report.final_health is not None:
            print(
                f"  gateway health: "
                f"{'ok' if report.final_health.healthy else 'DEGRADED'} "
                f"over {report.final_health.samples} samples",
                file=out,
            )
        return 0 if report.errors == 0 else 1
    finally:
        stack.close()
        log.close()
        set_event_log(previous_log)


def run_cluster_trace(args: argparse.Namespace, out=None) -> int:
    """``repro cluster trace OUT.json``: one merged cross-process trace.

    Stands up a fresh fleet with tracing on, issues ``--requests``
    match requests through the gateway, each with a trace envelope of
    its own, fetches the last request's merged Chrome trace by its id
    over the ``trace`` verb, and writes it for chrome://tracing /
    Perfetto.
    """
    out = out if out is not None else sys.stdout
    import json

    from repro.cluster import GatewayClient
    from repro.obs import EventLog, set_event_log
    from repro.obs.tracing import (
        TraceContext,
        Tracer,
        inject_trace,
        new_trace_id,
        set_tracer,
    )

    log = EventLog(sink=args.events) if args.events else EventLog()
    previous_log = set_event_log(log)
    previous_tracer = set_tracer(Tracer())
    stack = contextlib.ExitStack()
    try:
        dataset = _world_from_args(args, out)
        _supervisor, _router, gateway = stack.enter_context(
            _cluster_stack(args, out, dataset)
        )
        with GatewayClient(gateway.host, gateway.port) as client:
            for i in range(max(1, args.requests)):
                targets = dataset.sample_targets(
                    min(3, len(dataset.eids)), seed=args.seed + i
                )
                context = TraceContext(new_trace_id())
                response = client.call(inject_trace(
                    {
                        "verb": "match",
                        "targets": [eid.index for eid in targets],
                        "algorithm": "ss",
                    },
                    context,
                ))
                if response.get("status") != "ok":
                    print(
                        f"match failed: {response.get('error')}", file=out
                    )
                    return 1
            trace = client.merged_trace(context.trace_id)
        chrome = trace["chrome"]
        with open(args.output, "w", encoding="utf-8") as fh:
            json.dump(chrome, fh)
        spans = [e for e in chrome["traceEvents"] if e.get("ph") == "X"]
        processes = {e["pid"] for e in spans}
        print(
            f"wrote {args.output}: trace {trace['trace_id']}, "
            f"{len(spans)} spans across {len(processes)} processes "
            "(open in chrome://tracing)",
            file=out,
        )
        return 0
    finally:
        stack.close()
        log.close()
        set_event_log(previous_log)
        set_tracer(previous_tracer)


def run_cluster_profile(args: argparse.Namespace, out=None) -> int:
    """``repro cluster profile OUT.collapsed``: one cluster flamegraph.

    Stands up a fresh fleet with every worker self-profiling
    (``--profile-hz``, default 97 when left at 0), drives ``--requests``
    match requests through the gateway so there is work to sample,
    fetches the merged profile over the ``profile`` verb — every stack
    rooted under a ``worker=<id>`` frame — and writes the collapsed
    text plus ``OUT.collapsed.speedscope.json``.
    """
    out = out if out is not None else sys.stdout
    import json
    import time

    from repro.cluster import GatewayClient
    from repro.obs import EventLog, set_event_log
    from repro.obs.profiler import DEFAULT_PROFILE_HZ

    if not args.profile_hz:
        args.profile_hz = DEFAULT_PROFILE_HZ
    log = EventLog(sink=args.events) if args.events else EventLog()
    previous_log = set_event_log(log)
    stack = contextlib.ExitStack()
    try:
        dataset = _world_from_args(args, out)
        _supervisor, _router, gateway = stack.enter_context(
            _cluster_stack(args, out, dataset)
        )
        print(
            f"profiling the fleet at {args.profile_hz:g} Hz "
            f"({max(1, args.requests)} match requests)...",
            file=out,
        )
        with GatewayClient(gateway.host, gateway.port) as client:
            for i in range(max(1, args.requests)):
                targets = dataset.sample_targets(
                    min(3, len(dataset.eids)), seed=args.seed + i
                )
                response = client.call(
                    {
                        "verb": "match",
                        "targets": [eid.index for eid in targets],
                        "algorithm": "ss",
                    }
                )
                if response.get("status") != "ok":
                    print(
                        f"match failed: {response.get('error')}", file=out
                    )
                    return 1
            # The samplers run at ~10ms granularity: briefly re-poll so
            # short bursts of work land in at least two workers' stacks
            # before the merge is fetched.
            deadline = time.monotonic() + 10.0
            while True:
                profile = client.merged_profile()
                sampled = [
                    wid
                    for wid in profile["workers"]
                    if f"worker={wid};" in profile["collapsed"]
                ]
                if len(sampled) >= 2 or time.monotonic() >= deadline:
                    break
                time.sleep(0.25)
        collapsed = str(profile["collapsed"])
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(collapsed + ("\n" if collapsed else ""))
        speedscope_path = f"{args.output}.speedscope.json"
        with open(speedscope_path, "w", encoding="utf-8") as fh:
            json.dump(profile["speedscope"], fh)
        print(
            f"wrote {args.output} and {speedscope_path}: "
            f"{profile.get('samples', 0)} samples across "
            f"{len(sampled)} sampled workers "
            f"(of {len(profile['workers'])} profiled)",
            file=out,
        )
        return 0
    finally:
        stack.close()
        log.close()
        set_event_log(previous_log)


def run_cluster_slowlog(args: argparse.Namespace, out=None) -> int:
    """``repro cluster slowlog --connect HOST:PORT``: the fleet's
    merged slow-query exemplars, slowest first, plus the slowest
    request's span tree."""
    out = out if out is not None else sys.stdout
    from repro.cluster import GatewayClient, GatewayError

    host, _, port = args.connect.rpartition(":")
    try:
        with GatewayClient(host or "127.0.0.1", int(port)) as client:
            reply = client.slowlog(limit=args.limit)
    except GatewayError as exc:
        print(f"gateway unreachable: {exc}", file=out)
        return 1
    workers = reply.get("workers", {})
    for worker_id in sorted(workers):
        policy = workers[worker_id]
        threshold = policy.get("threshold_s")
        print(
            f"{worker_id}: mode={policy.get('mode', '?')} "
            f"threshold="
            + (f"{float(threshold) * 1e3:.1f}ms" if threshold else "warming")
            + f" captured={policy.get('captured', 0)}"
            f" considered={policy.get('considered', 0)}",
            file=out,
        )
    records = reply.get("records", [])
    if not records:
        print("no slow queries captured yet", file=out)
        return 0
    rows = [
        {
            "worker": record.get("worker", "?"),
            "endpoint": record.get("endpoint", "?"),
            "latency_ms": f"{float(record.get('latency_s', 0.0)) * 1e3:.1f}",
            "threshold_ms": (
                f"{float(record.get('threshold_s', 0.0)) * 1e3:.1f}"
            ),
            "backend": record.get("backend_label", "?"),
            "trace_id": (record.get("trace_id") or "-")[:12],
            "detail": ",".join(
                f"{k}={v}" for k, v in sorted(
                    (record.get("detail") or {}).items()
                )
            )[:40],
        }
        for record in records
    ]
    columns = (
        "worker", "endpoint", "latency_ms", "threshold_ms",
        "backend", "trace_id", "detail",
    )
    print(
        render_rows(
            f"slow queries — {args.connect}, {len(records)} exemplars",
            columns,
            rows,
        ),
        file=out,
    )
    slowest = records[0]
    spans = slowest.get("spans")
    if spans:
        print(
            f"\nslowest ({slowest.get('endpoint')} on "
            f"{slowest.get('worker')}, "
            f"{float(slowest.get('latency_s', 0.0)) * 1e3:.1f}ms):",
            file=out,
        )
        _print_span_tree(spans, out)
    return 0


def _print_span_tree(node: dict, out, depth: int = 0) -> None:
    took = float(node.get("dur_ms", 0.0))
    print(f"  {'  ' * depth}{node.get('name', '?')}  {took:.1f}ms", file=out)
    for child in node.get("children", []) or []:
        _print_span_tree(child, out, depth + 1)
    elided = int(node.get("elided", 0) or 0)
    if elided:
        print(f"  {'  ' * (depth + 1)}... {elided} spans elided", file=out)


def run_cluster_top(args: argparse.Namespace, out=None) -> int:
    """``repro cluster top --connect HOST:PORT``: live fleet view.

    Polls the gateway's ``stats`` verb (supervisor state + the
    telemetry summaries the workers piggyback on heartbeats) and
    renders one table per refresh; per-worker qps comes from request-
    count deltas between refreshes.
    """
    out = out if out is not None else sys.stdout
    import time

    from repro.cluster import GatewayClient, GatewayError

    host, _, port = args.connect.rpartition(":")
    columns = (
        "worker", "state", "backend", "restarts",
        "qps", "p99_ms", "shed", "lag_s",
    )
    last_requests: Dict[str, float] = {}
    last_ts: Optional[float] = None
    refreshes = 0
    try:
        with GatewayClient(host or "127.0.0.1", int(port)) as client:
            while True:
                stats = client.stats()
                now = time.monotonic()
                workers = stats.get("workers", {})
                summaries = stats.get("telemetry", {}).get("workers", {})
                rows = []
                total_qps = 0.0
                for worker_id in sorted(workers):
                    state = workers[worker_id]
                    summary = summaries.get(worker_id, {})
                    requests = float(summary.get("requests", 0) or 0)
                    qps = 0.0
                    if last_ts is not None and worker_id in last_requests:
                        elapsed = now - last_ts
                        if elapsed > 0:
                            qps = max(
                                0.0,
                                (requests - last_requests[worker_id])
                                / elapsed,
                            )
                    last_requests[worker_id] = requests
                    total_qps += qps
                    rows.append(
                        {
                            "worker": worker_id,
                            "state": state.get("state", "?"),
                            "backend": summary.get("backend", "?"),
                            "restarts": state.get("restarts", 0),
                            "qps": f"{qps:.1f}",
                            "p99_ms": (
                                f"{float(summary.get('p99_ms', 0.0)):.1f}"
                            ),
                            "shed": int(summary.get("shed", 0) or 0),
                            "lag_s": (
                                f"{float(summary.get('lag_s', 0.0)):.1f}"
                            ),
                        }
                    )
                last_ts = now
                title = (
                    f"cluster top — {args.connect}, "
                    f"{len(rows)} workers, {total_qps:.1f} qps"
                )
                print(render_rows(title, columns, rows), file=out)
                refreshes += 1
                if args.iterations and refreshes >= args.iterations:
                    return 0
                time.sleep(args.interval)
    except KeyboardInterrupt:
        return 0
    except GatewayError as exc:
        print(f"gateway unreachable: {exc}", file=out)
        return 1


def run_cluster(args: argparse.Namespace, out=None) -> int:
    if args.cluster_command == "serve":
        return run_cluster_serve(args, out)
    if args.cluster_command == "loadtest":
        return run_cluster_loadtest(args, out)
    if args.cluster_command == "trace":
        return run_cluster_trace(args, out)
    if args.cluster_command == "profile":
        return run_cluster_profile(args, out)
    if args.cluster_command == "slowlog":
        return run_cluster_slowlog(args, out)
    if args.cluster_command == "top":
        return run_cluster_top(args, out)
    raise AssertionError(
        f"unhandled cluster command {args.cluster_command!r}"
    )  # pragma: no cover


def run_stream(args: argparse.Namespace, out=None) -> int:
    out = out if out is not None else sys.stdout
    from repro.sensing.scenarios import ScenarioStore
    from repro.stream import (
        DurableStoreSink,
        ReplayConfig,
        StoreSink,
        StreamConfig,
        StreamPipeline,
        SyntheticLiveSource,
        TraceReplaySource,
        stores_equivalent,
    )

    replay = ReplayConfig(
        speedup=args.speedup, jitter_ticks=args.jitter, seed=args.seed
    )
    lateness = args.lateness if args.lateness is not None else args.jitter
    batch_store = None
    if args.live:
        config = ExperimentConfig(
            num_people=args.people,
            cells_per_side=args.cells,
            duration=args.duration,
            seed=args.seed,
        )
        print(
            f"live stream: {config.num_people} people, "
            f"{args.windows} windows (seed {config.seed})",
            file=out,
        )
        source = SyntheticLiveSource(
            config, max_windows=args.windows, replay=replay
        )
        builder_config = config.builder_config()
    else:
        dataset = _world_from_args(args, out)
        if dataset.traces is None:
            print(
                "saved worlds carry no traces to replay; "
                "rebuild with --people/--duration or use --live",
                file=sys.stderr,
            )
            return 2
        source = TraceReplaySource.from_dataset(dataset, replay=replay)
        builder_config = dataset.config.builder_config()
        batch_store = dataset.store

    stream_config = StreamConfig.from_builder(
        builder_config,
        allowed_lateness=lateness,
        queue_capacity=args.queue_size,
        overflow=args.policy,
        checkpoint_path=args.checkpoint,
        checkpoint_every_windows=args.checkpoint_every,
        max_events=args.max_events,
    )

    tracer = previous_tracer = None
    event_log = run = previous_log = previous_run = None
    recording = bool(args.events)
    if recording:
        from repro.obs import (
            EventLog,
            Tracer,
            new_run_context,
            set_event_log,
            set_run_context,
            set_tracer,
        )

        tracer = Tracer()
        previous_tracer = set_tracer(tracer)
        event_log = EventLog(sink=args.events)
        previous_log = set_event_log(event_log)
        run = new_run_context(
            "stream",
            parameters={
                "live": args.live,
                "speedup": args.speedup,
                "jitter": args.jitter,
                "lateness": lateness,
                "policy": args.policy,
                "checkpoint": args.checkpoint or "",
            },
            seed=args.seed,
        )
        previous_run = set_run_context(run)
    try:
        store = ScenarioStore([])
        if args.checkpoint:
            # Durable sink: the journal beside the checkpoint lets a
            # restarted process resume with the store it had.
            sink = DurableStoreSink(store, args.checkpoint + ".store.jsonl")
            if sink.reloaded:
                print(
                    f"reloaded {sink.reloaded} scenarios from "
                    f"{sink.journal_path}",
                    file=out,
                )
        else:
            sink = StoreSink(store)
        pipeline = StreamPipeline(source, sink, stream_config)
        report = pipeline.run()
    finally:
        if recording:
            from repro.obs import set_event_log, set_run_context, set_tracer

            run.finish()
            _write_flight_recorder(
                run, event_log, tracer, args.events, None, out
            )
            set_event_log(previous_log)
            set_run_context(previous_run)
            set_tracer(previous_tracer)
    print(report.render(), file=out)
    if batch_store is not None and not report.killed:
        equal = stores_equivalent(batch_store, store)
        print(
            f"batch equivalence      {'OK' if equal else 'MISMATCH'}"
            f" ({len(store)}/{len(batch_store)} scenarios)",
            file=out,
        )
        if not equal and report.late_dropped == 0 and report.shed == 0:
            return 1
    return 0


def run_loadtest(args: argparse.Namespace, out=None) -> int:
    out = out if out is not None else sys.stdout
    from repro.service import LoadConfig, MatchService, ServiceConfig, run_load
    from repro.service.loadgen import percentile

    dataset = _world_from_args(args, out)
    targets = list(dataset.sample_targets(
        min(24, len(dataset.eids)), seed=1
    ))
    load = LoadConfig(
        num_clients=args.clients,
        requests_per_client=args.requests,
        pool_size=args.pool,
        targets_per_request=args.targets_per_request,
        seed=args.seed,
    )
    rows: List[dict] = []
    reports = {}
    for mode, capacity in (("cold", 0), ("cached", 256)):
        config = ServiceConfig(
            workers=args.workers,
            num_shards=args.shards,
            cache_capacity=capacity,
        )
        with MatchService.from_dataset(dataset, config) as service:
            report = run_load(service, targets, load)
        reports[mode] = report
        rows.append({
            "mode": mode,
            "qps": round(report.achieved_qps, 1),
            "ok": report.ok,
            "shed": report.shed,
            "hit_rate": round(report.hit_rate, 2),
            "p50_ms": round(1e3 * percentile(report.latencies_s, 50), 2),
            "p95_ms": round(1e3 * percentile(report.latencies_s, 95), 2),
        })
    columns = ("mode", "qps", "ok", "shed", "hit_rate", "p50_ms", "p95_ms")
    print(render_rows("serving throughput: cold vs cached", columns, rows), file=out)
    cold, cached = reports["cold"], reports["cached"]
    if cold.achieved_qps > 0:
        print(
            f"cache+batcher speedup: "
            f"{cached.achieved_qps / cold.achieved_qps:.1f}x",
            file=out,
        )
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "match":
        return run_match(args)
    if args.command == "experiment":
        return run_experiment(args.name)
    if args.command == "inspect":
        return run_inspect(args)
    if args.command == "build":
        return run_build(args)
    if args.command == "topology":
        return run_topology(args)
    if args.command == "investigate":
        return run_investigate(args)
    if args.command == "serve":
        return run_serve(args)
    if args.command == "loadtest":
        return run_loadtest(args)
    if args.command == "cluster":
        return run_cluster(args)
    if args.command == "stream":
        return run_stream(args)
    if args.command == "report":
        if getattr(args, "from_events", None):
            from repro.obs import render_report_from_events

            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(render_report_from_events(args.from_events))
            print(f"wrote {args.out}")
            return 0
        from repro.bench.reporting import generate_report

        written = generate_report(args.out)
        print(f"wrote {written}")
        return 0
    raise AssertionError(f"unhandled command {args.command!r}")  # pragma: no cover
