"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``generate``
    Build a synthetic / DBLP-like / IMDB-like PEG and save it to disk.
``info``
    Print the statistics of a saved PEG (nodes, edges, components, ...).
``query``
    Run a pattern query (JSON spec) against a saved PEG; ``--trace``
    prints the span tree of the evaluation (one child per stage of
    :data:`repro.obs.timing.STAGES`, per-partition index lookups with
    store read counters under ``lookup``).
``metrics``
    Run a query workload and print the process metrics registry in
    Prometheus text exposition format — one latency histogram per
    stage, store read counters, estimator error, plan-cache hits.
``plan``
    Print the decomposition the planner chooses for a query —
    paths, per-path cardinality estimates, estimated cost and plan
    provenance (greedy/exact/random/cache) — without executing it;
    repeated runs demonstrate the plan cache.
``build``
    Run the offline phase ahead of time: build the (optionally
    process-parallel) path index and context tables and persist them as
    an offline bundle.
``apply-updates``
    Apply a batch of live-graph mutations (JSON ops) to a saved PEG —
    and, when an offline bundle is given, to its index via the delta
    overlay (enumerating only the paths through the nodes the batch
    dirtied) with compaction, instead of a full rebuild. Ops can be
    appended to a durable mutation log for idempotent replay.
``serve``
    Serve a query workload through the concurrent
    :class:`~repro.service.QueryService` (result cache, single-flight
    dedup), warm-starting from / writing an offline snapshot; with
    ``--listen HOST:PORT`` the service is exposed over the network
    through the fault-tolerant asyncio front end (:mod:`repro.net`)
    instead of draining a workload file.
``client``
    Send a query (or ping / stats probe) to a running
    ``serve --listen`` server, with timeouts, bounded retry and a
    circuit breaker.

The query spec is a JSON object::

    {
      "nodes": {"a": "DB", "b": "ML", "c": "DB"},
      "edges": [["a", "b"], ["b", "c"]]
    }

Example session::

    python -m repro generate --kind dblp --size 300 --out dblp.peg
    python -m repro info dblp.peg
    python -m repro query dblp.peg --spec query.json --alpha 0.1 --explain
    python -m repro serve dblp.peg --snapshot dblp.idx \\
        --queries workload.jsonl --stats

The first ``serve`` run builds the offline phase and writes the
snapshot; later runs restore it in milliseconds (warm start). The
``serve`` workload file holds one query spec per line (JSON lines) or
one JSON list of specs; each spec may carry its own ``"alpha"``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from repro.datasets import (
    SyntheticConfig,
    generate_dblp_pgd,
    generate_imdb_pgd,
    generate_synthetic_pgd,
)
from repro.obs.timing import STAGES
from repro.peg import build_peg, load_peg, save_peg
from repro.query import QueryEngine, QueryGraph, QueryOptions, explain
from repro.storage.kvstore import DiskPathStore
from repro.utils.errors import ReproError


def _non_negative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _alpha(text: str) -> float:
    """``--alpha``: the check a request's ``alpha`` gets on the wire."""
    from repro.net.protocol import checked_alpha

    try:
        return checked_alpha(float(text))
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}")
    except ReproError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _build_parser() -> argparse.ArgumentParser:
    from repro import __version__

    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Probabilistic subgraph pattern matching over uncertain graphs "
            "with identity linkage uncertainty (ICDE 2014 reproduction)."
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    commands = parser.add_subparsers(dest="command", required=True)

    generate = commands.add_parser(
        "generate", help="generate a dataset and save its PEG"
    )
    generate.add_argument(
        "--kind",
        choices=("synthetic", "dblp", "imdb"),
        default="synthetic",
        help="dataset family (default: synthetic)",
    )
    generate.add_argument(
        "--size", type=int, default=400,
        help="number of references/authors/actors (default: 400)",
    )
    generate.add_argument(
        "--uncertainty", type=float, default=0.2,
        help="fraction of uncertain elements, synthetic only (default 0.2)",
    )
    generate.add_argument("--seed", type=int, default=7)
    generate.add_argument(
        "--out", required=True, help="output path for the PEG file"
    )

    info = commands.add_parser("info", help="print PEG statistics")
    info.add_argument("peg", help="path to a saved PEG")

    query = commands.add_parser(
        "query", help="run a pattern query against a saved PEG"
    )
    query.add_argument("peg", help="path to a saved PEG")
    spec_group = query.add_mutually_exclusive_group(required=True)
    spec_group.add_argument(
        "--spec",
        help="path to the JSON query spec (see module docstring)",
    )
    spec_group.add_argument(
        "--pattern",
        help=(
            "inline pattern, e.g. '(a:DB)-(b:ML)-(c:DB); (a)-(c)' "
            "(see repro.query.pattern)"
        ),
    )
    query.add_argument("--alpha", type=_alpha, default=0.5)
    query.add_argument("--max-length", type=int, default=2, dest="max_length")
    query.add_argument("--beta", type=float, default=0.05)
    query.add_argument(
        "--decomposition",
        choices=("greedy", "exact", "random"),
        default=QueryOptions().decomposition,
        help="decomposition strategy (default: %(default)s)",
    )
    query.add_argument(
        "--explain", action="store_true",
        help="print the full evaluation report instead of matches only",
    )
    query.add_argument(
        "--limit", type=_non_negative_int, default=20,
        help="maximum matches printed (default 20)",
    )
    query.add_argument(
        "--trace", action="store_true",
        help=(
            "record and print the evaluation's span tree (stages "
            f"{', '.join(STAGES)}; per-partition lookup and store-read "
            "counters)"
        ),
    )

    metrics = commands.add_parser(
        "metrics",
        help=(
            "run a query workload and print the metrics registry in "
            "Prometheus text exposition format (stage= labels: "
            f"{', '.join(STAGES)})"
        ),
    )
    metrics.add_argument("peg", help="path to a saved PEG")
    metrics_spec = metrics.add_mutually_exclusive_group(required=True)
    metrics_spec.add_argument(
        "--spec", help="path to the JSON query spec (see module docstring)"
    )
    metrics_spec.add_argument(
        "--pattern",
        help="inline pattern, e.g. '(a:DB)-(b:ML)-(c:DB); (a)-(c)'",
    )
    metrics.add_argument("--alpha", type=_alpha, default=0.5)
    metrics.add_argument("--max-length", type=int, default=2, dest="max_length")
    metrics.add_argument("--beta", type=float, default=0.05)
    metrics.add_argument(
        "--repeat", type=int, default=3,
        help=(
            "evaluate the query this many times before exporting "
            "(default 3: populates the latency histograms and "
            "demonstrates the plan cache)"
        ),
    )

    plan = commands.add_parser(
        "plan",
        help=(
            "print the chosen path decomposition and its estimated cost "
            "without executing the query (EXPLAIN without ANALYZE)"
        ),
    )
    plan.add_argument("peg", help="path to a saved PEG")
    plan_spec = plan.add_mutually_exclusive_group(required=True)
    plan_spec.add_argument(
        "--spec", help="path to the JSON query spec (see module docstring)"
    )
    plan_spec.add_argument(
        "--pattern",
        help="inline pattern, e.g. '(a:DB)-(b:ML)-(c:DB); (a)-(c)'",
    )
    plan.add_argument("--alpha", type=_alpha, default=0.5)
    plan.add_argument("--max-length", type=int, default=2, dest="max_length")
    plan.add_argument("--beta", type=float, default=0.05)
    plan.add_argument(
        "--strategy",
        choices=("greedy", "exact", "random"),
        default=QueryOptions().decomposition,
        help="decomposition strategy (default: %(default)s)",
    )
    plan.add_argument(
        "--repeat", type=int, default=2,
        help=(
            "plan this many times (default 2: the second run "
            "demonstrates the plan-cache hit)"
        ),
    )

    build = commands.add_parser(
        "build",
        help="build the offline bundle (index + context) for later serving",
    )
    build.add_argument("peg", help="path to a saved PEG")
    build.add_argument(
        "--out", required=True,
        help="output directory for the offline bundle",
    )
    build.add_argument("--max-length", type=int, default=2, dest="max_length")
    build.add_argument("--beta", type=float, default=0.05)
    build.add_argument("--gamma", type=float, default=0.1)
    build.add_argument(
        "--build-processes", type=int, default=0, dest="build_processes",
        help=(
            "process-pool workers for the index enumeration "
            "(0 builds in-process)"
        ),
    )

    apply_updates = commands.add_parser(
        "apply-updates",
        help=(
            "apply live-graph mutations to a saved PEG (and its offline "
            "bundle) without a full rebuild"
        ),
    )
    apply_updates.add_argument("peg", help="path to a saved PEG")
    apply_updates.add_argument(
        "--ops", required=True,
        help=(
            "mutation ops file (JSON lines or one JSON list); each op is "
            'e.g. {"op": "add_edge", "refs_a": [1], "refs_b": [2], '
            '"edge": 0.8} — see repro.delta.ops'
        ),
    )
    apply_updates.add_argument(
        "--out",
        help="where to save the mutated PEG (default: overwrite the input)",
    )
    apply_updates.add_argument(
        "--snapshot",
        help=(
            "offline-bundle directory to update through the delta overlay; "
            "must exist (build it first with `build` or `serve`)"
        ),
    )
    apply_updates.add_argument(
        "--log", dest="mutation_log",
        help=(
            "append the ops to this durable mutation log before applying "
            "(replay skips already-applied sequence numbers)"
        ),
    )
    apply_updates.add_argument(
        "--no-compact", action="store_true",
        help=(
            "skip folding the delta into the bundle stores (only allowed "
            "without --snapshot: an updated bundle must be compacted "
            "before it can be persisted)"
        ),
    )

    serve = commands.add_parser(
        "serve",
        help="serve a query workload concurrently with caching + snapshots",
    )
    serve.add_argument("peg", help="path to a saved PEG")
    serve.add_argument(
        "--snapshot",
        help=(
            "offline-bundle directory: restored when present (warm start), "
            "otherwise built and written (cold start)"
        ),
    )
    serve.add_argument(
        "--queries",
        help="workload file (JSON lines or one JSON list); default: stdin",
    )
    serve.add_argument("--alpha", type=_alpha, default=0.5)
    serve.add_argument("--max-length", type=int, default=2, dest="max_length")
    serve.add_argument("--beta", type=float, default=0.05)
    serve.add_argument(
        "--workers", type=int, default=4, help="evaluation threads (default 4)"
    )
    serve.add_argument(
        "--cache-size", type=int, default=256, dest="cache_size",
        help="result-cache entries, 0 disables (default 256)",
    )
    serve.add_argument(
        "--repeat", type=int, default=1,
        help="serve the workload this many times (exercises the cache)",
    )
    serve.add_argument(
        "--build-processes", type=int, default=0, dest="build_processes",
        help="process-pool workers for a cold-start index build",
    )
    serve.add_argument(
        "--stats", action="store_true",
        help="print the service stats snapshot after draining the workload",
    )
    serve.add_argument(
        "--metrics-every", type=int, default=0, dest="metrics_every",
        help=(
            "print a one-line metrics snapshot (requests, hit rate, "
            "p50/p95, store reads) after every N workload rounds "
            "(0 = never, default)"
        ),
    )
    serve.add_argument(
        "--listen", metavar="HOST:PORT",
        help=(
            "serve over the network instead of from a workload file: "
            "bind the asyncio front end (admission control, deadlines, "
            "load shedding) on HOST:PORT and run until interrupted "
            "(port 0 picks an ephemeral port)"
        ),
    )
    serve.add_argument(
        "--max-pending", type=int, default=64, dest="max_pending",
        help="network admission queue bound before shedding (default 64)",
    )
    serve.add_argument(
        "--default-deadline-ms", type=float, default=None,
        dest="default_deadline_ms",
        help="deadline applied to network requests that carry none",
    )

    client = commands.add_parser(
        "client",
        help="query a running `serve --listen` server over the network",
    )
    client.add_argument("address", metavar="HOST:PORT")
    client.add_argument("--spec", help="query spec JSON file")
    client.add_argument("--alpha", type=_alpha, default=0.5)
    client.add_argument(
        "--deadline-ms", type=float, default=None, dest="deadline_ms",
        help="per-request deadline in milliseconds",
    )
    client.add_argument(
        "--timeout", type=float, default=30.0,
        help="request timeout in seconds (default 30)",
    )
    client.add_argument(
        "--ping", action="store_true", help="round-trip a ping and exit"
    )
    client.add_argument(
        "--stats", action="store_true",
        help="print the server's stats snapshot and exit",
    )

    # Its arguments are the analysis runner's own; main() forwards them.
    commands.add_parser(
        "lint", add_help=False,
        help="run the repro.analysis invariant linter over source paths "
             "(options: python -m repro lint --help)",
    )
    return parser


def _cmd_generate(args) -> int:
    if args.kind == "synthetic":
        pgd = generate_synthetic_pgd(
            SyntheticConfig(
                num_references=args.size,
                uncertainty=args.uncertainty,
                seed=args.seed,
            )
        )
    elif args.kind == "dblp":
        pgd = generate_dblp_pgd(num_authors=args.size, seed=args.seed)
    else:
        pgd = generate_imdb_pgd(num_actors=args.size, seed=args.seed)
    peg = build_peg(pgd)
    save_peg(peg, args.out)
    stats = peg.stats()
    print(
        f"wrote {args.out}: {stats['nodes']} entities, "
        f"{stats['edges']} edges, {stats['nontrivial_components']} "
        f"uncertain identity components"
    )
    return 0


def _cmd_info(args) -> int:
    peg = load_peg(args.peg)
    for key, value in peg.stats().items():
        print(f"{key:24s}{value}")
    labels = sorted(peg.sigma, key=repr)
    print(f"{'label alphabet':24s}{', '.join(map(str, labels))}")
    return 0


def _load_query_spec(path: str) -> QueryGraph:
    from repro.net.protocol import query_graph_from_spec

    with open(path, "r", encoding="utf-8") as handle:
        spec = json.load(handle)
    try:
        return query_graph_from_spec(spec)
    except ReproError as exc:
        raise ReproError(f"{path!r}: {exc}") from exc


def _query_from_args(args) -> QueryGraph:
    """The query of a ``--pattern`` / ``--spec`` command."""
    if args.pattern is not None:
        from repro.query.pattern import parse_pattern

        return parse_pattern(args.pattern)
    return _load_query_spec(args.spec)


def _cmd_query(args) -> int:
    peg = load_peg(args.peg)
    query = _query_from_args(args)
    engine = QueryEngine(peg, max_length=args.max_length, beta=args.beta)
    options = QueryOptions(
        decomposition=args.decomposition,
        trace=args.trace,
    )
    result = engine.query(query, args.alpha, options)
    if args.explain:
        print(explain(result, max_matches=args.limit))
    else:
        print(f"{len(result.matches)} matches (alpha={args.alpha})")
        for match in result.matches[: args.limit]:
            rendered = ", ".join(
                "{" + ",".join(str(r) for r in sorted(entity, key=str)) + "}"
                f":{label}"
                for entity, label in match.nodes
            )
            print(f"  Pr={match.probability:.4f}  {rendered}")
        if len(result.matches) > args.limit:
            print(f"  ... {len(result.matches) - args.limit} more")
    if args.trace and result.trace is not None:
        from repro.obs import render_trace

        print()
        print(render_trace(result.trace))
    return 0


def _cmd_metrics(args) -> int:
    from repro.obs import get_registry

    peg = load_peg(args.peg)
    query = _query_from_args(args)
    engine = QueryEngine(peg, max_length=args.max_length, beta=args.beta)
    for _ in range(max(1, args.repeat)):
        engine.query(query, args.alpha)
    print(get_registry().render_prometheus())
    return 0


def _cmd_plan(args) -> int:
    import time

    peg = load_peg(args.peg)
    query = _query_from_args(args)
    engine = QueryEngine(peg, max_length=args.max_length, beta=args.beta)
    options = QueryOptions(
        decomposition=args.strategy,
        seed=0 if args.strategy == "random" else None,
    )
    before = engine.planner.stats_snapshot()
    for round_num in range(max(1, args.repeat)):
        start = time.perf_counter()
        decomposition, info = engine.planner.plan(query, args.alpha, options)
        elapsed = (time.perf_counter() - start) * 1000
        source = "cache" if info.cached else info.source
        print(
            f"[{round_num + 1}] strategy={info.strategy} source={source}  "
            f"estimated cost {info.estimated_cost:.4g}  "
            f"planned in {elapsed:.2f} ms"
        )
        for i, path in enumerate(decomposition.paths):
            labels = query.label_sequence(path.nodes)
            rendered = " - ".join(
                f"{node}:{label}" for node, label in zip(path.nodes, labels)
            )
            estimate = engine.index.estimate_cardinality(labels, args.alpha)
            print(f"    P{i}: {rendered}  (est. cardinality {estimate:.4g})")
    stats = engine.planner.stats_snapshot()
    print(
        "plan cache: "
        f"{stats['plan_cache_hits'] - before['plan_cache_hits']} hits, "
        f"{stats['plan_cache_misses'] - before['plan_cache_misses']} misses, "
        f"{stats['plan_cache_size']} entries"
    )
    return 0


def _cmd_build(args) -> int:
    peg = load_peg(args.peg)
    # A reused output directory must not leak an earlier build's data
    # into the fresh store.
    from repro.index.bundle import clear_offline_artifacts

    clear_offline_artifacts(args.out)
    engine = QueryEngine(
        peg,
        max_length=args.max_length,
        beta=args.beta,
        gamma=args.gamma,
        store=DiskPathStore(args.out),
        build_processes=args.build_processes,
    )
    engine.save_offline(args.out)
    stats = engine.offline_stats()
    print(
        f"wrote offline bundle to {args.out} ("
        f"L={args.max_length}, beta={args.beta}, gamma={args.gamma})"
    )
    for key in ("sequences", "paths", "size_bytes", "offline_seconds"):
        print(f"  {key:18s}{stats[key]}")
    return 0


def _load_ops(path: str):
    """Parse a mutation-ops file: JSON lines or one JSON list of specs."""
    from repro.delta import op_from_json

    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read().strip()
    if not text:
        return []
    if text.startswith("["):
        specs = json.loads(text)
    else:
        specs = [
            json.loads(line) for line in text.splitlines() if line.strip()
        ]
    return [op_from_json(spec) for spec in specs]


def _cmd_apply_updates(args) -> int:
    from repro.delta import MutationLog
    from repro.index.bundle import load_offline
    from repro.query.engine import QueryEngine

    if args.no_compact and args.snapshot:
        raise ReproError(
            "--no-compact requires omitting --snapshot: an updated bundle "
            "must be compacted before it can be persisted"
        )
    peg = load_peg(args.peg)
    ops = _load_ops(args.ops)
    if not ops:
        print("no ops to apply")
        return 0
    if args.snapshot:
        index, context = load_offline(args.snapshot)
        engine = QueryEngine(peg, _precomputed=(index, context))
    else:
        # No bundle to maintain: a throwaway minimal index still lets
        # the delta layer validate and version the mutations.
        engine = QueryEngine(peg, max_length=1, beta=0.5)
    log = MutationLog(args.mutation_log) if args.mutation_log else None
    try:
        summary = engine.apply_updates(ops, log=log)
        print(
            f"applied {summary['applied']} ops "
            f"({summary['dirty_nodes']} dirty nodes, "
            f"{summary['enumerated_paths']} paths enumerated, "
            f"{summary['delta_paths']} delta paths, "
            f"graph version {summary['graph_version']})"
        )
        if not args.no_compact:
            stats = engine.compact_updates()
            print(
                f"compacted: {stats['sequences_rewritten']} sequences "
                f"rewritten, {stats['paths_dropped']} stale paths dropped, "
                f"{stats['paths_added']} paths added"
            )
        if args.snapshot:
            engine.save_offline(args.snapshot)
            print(f"updated offline bundle at {args.snapshot}")
    finally:
        if log is not None:
            log.close()
    out = args.out or args.peg
    save_peg(peg, out)
    print(f"wrote updated PEG to {out}")
    return 0


def _load_workload(path: str | None) -> list:
    """Parse a serve workload: JSON lines or one JSON list of specs."""
    if path is None:
        text = sys.stdin.read()
    else:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    text = text.strip()
    if not text:
        return []
    if text.startswith("["):
        specs = json.loads(text)
    else:
        specs = [
            json.loads(line) for line in text.splitlines() if line.strip()
        ]
    from repro.net.protocol import checked_alpha, query_graph_from_spec

    workload = []
    for spec in specs:
        try:
            query = query_graph_from_spec(spec)
            alpha = spec.get("alpha")
            alpha = None if alpha is None else checked_alpha(alpha)
        except ReproError as exc:
            raise ReproError(f"workload entry rejected: {exc}") from exc
        workload.append((query, alpha))
    return workload


def _parse_address(address: str) -> tuple:
    host, sep, port = address.rpartition(":")
    if not sep or not port.isdigit():
        raise ReproError(
            f"address must be HOST:PORT, got {address!r}"
        )
    return host or "127.0.0.1", int(port)


def _cmd_serve(args) -> int:
    from repro.service import QueryService

    peg = load_peg(args.peg)
    # Network mode serves requests from sockets, not a workload file
    # (reading stdin for one would block forever).
    workload = [] if args.listen else _load_workload(args.queries)
    if args.snapshot:
        service = QueryService.open(
            peg,
            args.snapshot,
            max_length=args.max_length,
            beta=args.beta,
            num_workers=args.workers,
            cache_size=args.cache_size,
            build_processes=args.build_processes,
        )
        if service.warm_started:
            index = service.engine.index
            print(
                f"warm start: restored offline bundle from {args.snapshot} "
                f"(L={index.max_length}, beta={index.beta}; "
                "snapshot parameters override --max-length/--beta)"
            )
        else:
            print(f"cold start: built offline phase, snapshot -> {args.snapshot}")
    else:
        service = QueryService.build(
            peg,
            max_length=args.max_length,
            beta=args.beta,
            num_workers=args.workers,
            cache_size=args.cache_size,
            build_processes=args.build_processes,
        )
        print("cold start: built offline phase (no snapshot directory)")
    if args.listen:
        import threading

        from repro.net import start_server

        host, port = _parse_address(args.listen)
        with service:
            handle = start_server(
                service,
                host,
                port,
                max_pending=args.max_pending,
                default_deadline_ms=args.default_deadline_ms,
            )
            bound_host, bound_port = handle.address
            print(f"serving on {bound_host}:{bound_port} (Ctrl-C to stop)")
            sys.stdout.flush()
            try:
                threading.Event().wait()
            except KeyboardInterrupt:
                print("draining...")
            finally:
                handle.stop()
            if args.stats:
                for key, value in sorted(service.stats_snapshot().items()):
                    print(f"{key:20s}{value}")
        return 0
    with service:
        for round_num in range(args.repeat):
            futures = [
                service.submit(query, args.alpha if alpha is None else alpha)
                for query, alpha in workload
            ]
            for i, future in enumerate(futures):
                result = future.result()
                print(f"[round {round_num + 1}] query {i}: "
                      f"{len(result.matches)} matches")
            if args.metrics_every and (round_num + 1) % args.metrics_every == 0:
                snap = service.stats_snapshot()
                print(
                    f"[metrics] requests={snap['requests']} "
                    f"hit_rate={snap['hit_rate']:.2f} "
                    f"p50={snap['latency_p50'] * 1e3:.2f}ms "
                    f"p95={snap['latency_p95'] * 1e3:.2f}ms "
                    f"store_reads={snap.get('repro_store_reads_total', 0)}"
                )
        if args.stats:
            for key, value in sorted(service.stats_snapshot().items()):
                print(f"{key:20s}{value}")
    return 0


def _cmd_client(args) -> int:
    from repro.net import QueryClient

    host, port = _parse_address(args.address)
    with QueryClient(host, port, request_timeout=args.timeout) as client:
        if args.ping:
            print("pong" if client.ping() else "no pong")
            return 0
        if args.stats:
            for key, value in sorted(client.stats().items()):
                print(f"{key:24s}{value}")
            return 0
        if not args.spec:
            raise ReproError("client needs --spec (or --ping / --stats)")
        with open(args.spec, "r", encoding="utf-8") as handle:
            spec = json.load(handle)
        if not isinstance(spec, dict):
            raise ReproError(f"{args.spec!r} must contain a JSON object")
        reply = client.query(
            spec.get("nodes", {}),
            spec.get("edges", ()),
            alpha=spec.get("alpha", args.alpha),
            deadline_ms=args.deadline_ms,
        )
        print(f"{reply['num_matches']} matches (alpha="
              f"{spec.get('alpha', args.alpha)})")
        for match in reply["matches"]:
            rendered = ", ".join(
                "{" + ",".join(str(r) for r in refs) + "}" + f":{label}"
                for refs, label in match["nodes"]
            )
            print(f"  Pr={match['probability']:.4f}  {rendered}")
    return 0


def main(argv=None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = _build_parser()
    args, rest = parser.parse_known_args(argv)
    if args.command == "lint":
        from repro.analysis.runner import main as analysis_main

        return analysis_main(rest)
    if rest:
        parser.error(f"unrecognized arguments: {' '.join(rest)}")
    handlers = {
        "generate": _cmd_generate,
        "info": _cmd_info,
        "query": _cmd_query,
        "metrics": _cmd_metrics,
        "plan": _cmd_plan,
        "build": _cmd_build,
        "apply-updates": _cmd_apply_updates,
        "serve": _cmd_serve,
        "client": _cmd_client,
    }
    if args.command in ("serve", "client"):
        # Chaos testing: REPRO_FAULTS / REPRO_FAULTS_SEED arm the
        # fault-injection sites before any serving work starts.
        from repro.testing import faults

        faults.install_from_env()
    try:
        return handlers[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except json.JSONDecodeError as exc:
        print(f"error: invalid JSON in input: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # Downstream pipe (e.g. `repro serve ... | head`) closed early.
        # Redirect stdout to devnull so the interpreter's exit-time
        # flush does not raise again, and exit quietly.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
