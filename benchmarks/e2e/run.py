"""One end-to-end benchmark: four workloads, five end-to-end metrics,
per-layer attribution by staged replay.

Usage (from the repository root; ``src/`` is put on the path here)::

    python3 benchmarks/e2e/run.py                      # every workload, both runs
    python3 benchmarks/e2e/run.py --workload wire_zipf # one workload, untraced
    python3 benchmarks/e2e/run.py --workload match_heavy --trace 1
    python3 benchmarks/e2e/run.py --seed 11 --out benchmarks/e2e/out/A.json

With ``--workload`` the run happens in this process and the last line of
standard output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}`` holding the end-to-end metrics (``--trace 0``) or the
per-layer metrics (``--trace 1``) named in ``BENCHMARK.json``. Without
it each workload runs in a fresh child process, untraced and traced,
and every metric is printed by name.

All layer numbers are taken from outside the program: nothing under
``src/`` knows about this benchmark. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import typing
import zlib

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SOURCE = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(HERE, ".work")

# The benchmark always measures the checkout it lives in.
sys.path.insert(0, SOURCE)
try:
    import repro  # noqa: F401
except ImportError:
    raise SystemExit(
        f"benchmarks/e2e: no program to measure ({SOURCE} has no repro package)"
    ) from None

from repro.datasets import generate_synthetic_pgd
from repro.index.bundle import load_offline
from repro.index.context import build_context
from repro.net import QueryClient, start_server
from repro.net.protocol import (
    decode_frame,
    encode_frame,
    query_graph_from_spec,
    result_response,
    serialize_matches,
)
from repro.peg import build_peg
from repro.peg.serialize import save_peg
from repro.query import QueryEngine, QueryOptions
from repro.service import QueryService
from repro.utils.errors import ReproError

import measure
import workloads
from replay import STAGES, StagedReplay
from serverproc import ServerProcess

#: The reference implementations every sampled answer is checked against.
REFERENCE_OPTIONS = QueryOptions(reduction_backend="python", link_backend="python")

#: Fewest timings a run may report (p95 then has 20 beyond it), and
#: fewest passes: a position's latency is its fastest timing over them.
MIN_SAMPLES = 400
MIN_PASSES = 3
#: Set-ups per untraced run, ``setup_s`` being their median
#: (``live_updates`` sets up once per period instead).
SETUPS = 3
#: Requests whose answers are re-derived with the reference backends.
CHECK_SAMPLE = 12
#: Requests driven through all three boundaries in the traced run, and
#: how often each is timed at each boundary (the fastest time counts).
BOUNDARY_SAMPLE = 16
BOUNDARY_REPEATS = 3
#: Distinct requests the traced run replays (caps ``wire_zipf``'s 1024).
REPLAY_REQUESTS = 96

#: Two clocks. ``now`` is wall time and only says how long a phase has
#: run. Every reported time is read off ``busy``: the seconds this
#: process (all its threads) has spent on a CPU, plus on ``wire_zipf``
#: those of the server child. That is wall time less what the host took
#: away (steal, other processes' turns) and less idle waiting, and it
#: is what repeats from run to run on a shared machine.
now = time.perf_counter
busy = time.process_time


class Budget(typing.NamedTuple):
    """When a measured phase may stop: after ``seconds`` of wall time,
    ``min_samples`` timings and ``min_passes`` whole passes."""

    seconds: float
    min_samples: int = MIN_SAMPLES
    min_passes: int = MIN_PASSES


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


# ----------------------------------------------------------------------
# Set-up
# ----------------------------------------------------------------------


def build_engine(inputs) -> QueryEngine:
    """Seed -> PGD -> PEG -> offline phase: what ``setup_s`` times."""
    peg = build_peg(generate_synthetic_pgd(inputs.graph))
    return QueryEngine(peg, max_length=inputs.max_length, beta=inputs.beta)


def repeated_setup(make, dispose, repeats: int,
                   child_seconds=lambda product: 0.0) -> tuple:
    """Run ``make`` ``repeats`` times and keep the last product.

    Returns ``(product, median seconds)``, in seconds on a CPU: this
    process's plus ``child_seconds(product)`` of a child ``make``
    started. Each earlier product is disposed of and collected before
    the next set-up starts, so every set-up begins from the same heap.
    """
    seconds = []
    product = None
    while len(seconds) < repeats:
        if product is not None:
            dispose(product)
            product = None
        gc.collect()
        start = busy()
        product = make()
        seconds.append(busy() - start + child_seconds(product))
    return product, measure.median(seconds)


def evenly_spaced(count: int, sample: int) -> list:
    """At most ``sample`` positions spread over ``range(count)``."""
    if count <= sample:
        return list(range(count))
    return [round(i * (count - 1) / (sample - 1)) for i in range(sample)]


# ----------------------------------------------------------------------
# Measured phases: one per boundary
# ----------------------------------------------------------------------


class Outcome:
    """What a measured phase produced, before it is turned into metrics.

    Every workload is a sequence of identically shaped passes (a pass
    over the pool, a replay of the request trace, an update period).
    ``passes[k][i]`` is the latency of position ``i`` in pass ``k``
    (``None`` if that request failed) and ``write_passes[k]`` the
    latencies of the pass's writes (``live_updates``: its mutation
    batches, then its compaction), in seconds on a CPU as ``clock``
    counts them.
    """

    def __init__(self, setup_s: float = 0.0, clock=busy) -> None:
        self.setup_s = setup_s
        self.clock = clock
        self.passes: list = []
        self.write_passes: list = []
        self.started = now()
        self.clock_started = clock()
        #: Wall time of the measured phase over its time on a CPU: 1.0
        #: on an idle host when the program never waits.
        self.wall_cpu_ratio = 0.0
        self.attempted = 0
        self.failed = 0
        self.peak_rss_mb = 0.0
        # live-update periods
        self.overlay_paths: list = []  # delta paths just before compaction
        self.ops = 0
        # wire_zipf: the child server's own counters over the phase
        self.server_stats: dict = {}
        # traced run: the staged replay's span log
        self.spans = None

    def fail(self, what: str) -> None:
        self.failed += 1
        print(f"FAILED: {what}", file=sys.stderr)

    @property
    def samples(self) -> int:
        return sum(1 for row in self.passes for t in row if t is not None)

    def add_pass(self, row: list, budget: Budget, writes=()) -> bool:
        """Record one pass; true once the phase has measured enough."""
        self.passes.append(row)
        self.write_passes.append(list(writes))
        self.wall_cpu_ratio = measure.ratio(
            now() - self.started, self.clock() - self.clock_started
        )
        return (now() - self.started >= budget.seconds
                and self.samples >= budget.min_samples
                and len(self.passes) >= budget.min_passes)

    def fastest(self, writes: bool = False) -> list:
        """Per position, the fastest timing any pass took (or ``None``)."""
        return [
            min((t for t in column if t is not None), default=None)
            for column in zip(*(self.write_passes if writes else self.passes))
        ]


def check_against_reference(outcome, engine, pool, answers, positions) -> None:
    """Compare sampled answers with the pure-Python reference backends."""
    for position in positions:
        query, alpha = pool[position]
        reference = engine.query(query, alpha, REFERENCE_OPTIONS)
        outcome.attempted += 1
        if measure.match_digest(answers[position]) != measure.match_digest(
            reference.matches
        ):
            outcome.fail(f"request {position} differs from the reference backends")


def run_engine_boundary(inputs, budget: Budget, setups: int):
    """``match_heavy`` / ``lookup_heavy``: one caller on ``QueryEngine.query``."""
    engine, setup_s = repeated_setup(
        lambda: build_engine(inputs), lambda engine: None, setups
    )
    pool = inputs.pool
    # Warm-up pass (plan cache, link cache, probability tables); its
    # answers are what every later reply is compared with.
    answers = [engine.query(query, alpha).matches for query, alpha in pool]
    outcome = Outcome(setup_s)
    enough = False
    while not enough:
        row = [None] * len(pool)
        for position in inputs.pass_order(len(outcome.passes)):
            query, alpha = pool[position]
            outcome.attempted += 1
            begin = busy()
            try:
                matches = engine.query(query, alpha).matches
            except ReproError as exc:
                outcome.fail(f"request {position}: {exc}")
                continue
            elapsed = busy() - begin
            if len(matches) != len(answers[position]):
                outcome.fail(f"request {position} changed its answer")
                continue
            row[position] = elapsed
        enough = outcome.add_pass(row, budget)
    outcome.peak_rss_mb = measure.peak_rss_mb()
    check_against_reference(
        outcome, engine, pool, answers, evenly_spaced(len(pool), CHECK_SAMPLE)
    )
    return outcome


def reply_digest(reply: dict) -> tuple:
    """Cheap fingerprint of a wire reply: count and every probability."""
    probabilities = repr([match["probability"] for match in reply["matches"]])
    return reply["num_matches"], zlib.crc32(probabilities.encode("ascii"))


def replay_trace(client, inputs, specs, trace, first_digest, outcome) -> list:
    """Send ``trace`` over one connection, each request only after the
    previous reply; returns the latency of each position.

    Every reply for a key is compared with the first reply seen for it,
    which checks each cache hit against the miss that filled the cache.
    """
    row = [None] * len(trace)
    clock = outcome.clock
    for position, key in enumerate(trace):
        spec = specs[key]
        outcome.attempted += 1
        begin = clock()
        try:
            reply = client.query(spec["nodes"], spec["edges"], inputs.pool[key][1])
        except ReproError as exc:
            outcome.fail(f"key {key}: {exc}")
            continue
        elapsed = clock() - begin
        digest = reply_digest(reply)
        if first_digest.setdefault(key, digest) != digest:
            outcome.fail(f"key {key} changed its answer")
            continue
        row[position] = elapsed
    return row


def run_wire_boundary(inputs, budget: Budget, setups: int, work_root: str,
                      stack: contextlib.ExitStack):
    """``wire_zipf``: a Zipf request trace replayed over one TCP
    connection to a warm-started child server."""

    def make():
        engine = build_engine(inputs)
        workdir = tempfile.mkdtemp(dir=work_root)
        peg_path = os.path.join(workdir, "graph.peg")
        bundle = os.path.join(workdir, "bundle")
        save_peg(engine.peg, peg_path)
        engine.save_offline(bundle)
        server = ServerProcess(peg_path, bundle, SOURCE, inputs.cache_size)
        stack.callback(server.stop)
        server.start()
        return engine, workdir, server

    def dispose(made) -> None:
        made[2].stop()
        shutil.rmtree(made[1], ignore_errors=True)

    (engine, _workdir, server), setup_s = repeated_setup(
        make, dispose, setups, lambda made: made[2].cpu_seconds()
    )

    def clock() -> float:
        """Seconds on a CPU of both ends of the wire."""
        return busy() + server.cpu_seconds()

    specs = [workloads.query_spec(query) for query, _alpha in inputs.pool]
    trace = inputs.zipf_trace()
    first_digest: dict = {}
    with QueryClient(*server.address, request_timeout=60.0) as client:
        # Warm-up pass. The trace names more distinct keys than the
        # cache holds, so the cache a pass leaves behind depends on the
        # trace alone: every later pass sees the same hits and misses.
        warmup = Outcome(clock=clock)
        replay_trace(client, inputs, specs, trace, first_digest, warmup)
        before = client.stats()
        outcome = Outcome(setup_s, clock)
        outcome.failed = warmup.failed
        enough = False
        while not enough:
            row = replay_trace(client, inputs, specs, trace, first_digest, outcome)
            enough = outcome.add_pass(row, budget)
        after = client.stats()
        # A sample of replies against the generator's own engine.
        for key in evenly_spaced(len(inputs.pool), CHECK_SAMPLE):
            query, alpha = inputs.pool[key]
            reply = client.query(specs[key]["nodes"], specs[key]["edges"], alpha)
            expected = json.loads(json.dumps(
                serialize_matches(engine.query(query, alpha).matches)
            ))
            outcome.attempted += 1
            if reply["matches"] != expected:
                outcome.fail(f"key {key}: reply differs from the local engine")
    outcome.server_stats = {
        name: after[name] - before[name]
        for name in ("hits", "misses", "evictions")
    }
    server.stop()
    outcome.peak_rss_mb = measure.peak_rss_mb(resource.RUSAGE_CHILDREN)
    return outcome


def update_periods(outcome, inputs, budget: Budget) -> None:
    """``live_updates``: periods of ``cycles_per_period`` x [read the
    pool, apply one mutation batch] closed by a compaction, on a
    ``QueryService`` without a result cache.

    A period is this workload's pass: position ``cycle * len(pool) + i``
    is pool request ``i`` read in that cycle of the period. Every period
    starts from a freshly built engine and the first mutation batch, so
    that all periods do the same work on the same graph states (a graph
    that kept its mutations would make a position's cost depend on how
    many periods a run fits in); building it is one of the run's
    set-ups. After the last period the live overlay is checked against
    an engine rebuilt from the mutated graph.
    """
    pool = inputs.pool
    setups, first_counts = [], None
    enough = False
    while not enough:
        gc.collect()
        begin = busy()
        engine = build_engine(inputs)
        setups.append(busy() - begin)
        batches = inputs.mutation_batches(engine.peg)
        with QueryService(engine, num_workers=1, cache_size=0) as service:
            for query, alpha in pool:
                service.query(query, alpha)
            row = [None] * (inputs.cycles_per_period * len(pool))
            counts = list(row)
            writes = []
            for cycle in range(inputs.cycles_per_period):
                order = inputs.pass_order(
                    len(outcome.passes) * inputs.cycles_per_period + cycle
                )
                for position in order:
                    outcome.attempted += 1
                    begin = busy()
                    try:
                        matches = service.query(*pool[position]).matches
                    except ReproError as exc:
                        outcome.fail(f"request {position}: {exc}")
                        continue
                    row[cycle * len(pool) + position] = busy() - begin
                    counts[cycle * len(pool) + position] = len(matches)
                batch = next(batches)
                outcome.attempted += 1
                begin = busy()
                try:
                    service.apply_updates(batch)
                except ReproError as exc:
                    outcome.fail(f"update batch: {exc}")
                writes.append(busy() - begin)
                outcome.ops += len(batch)
            outcome.overlay_paths.append(engine.index.delta_path_count())
            begin = busy()
            engine.compact_updates()
            writes.append(busy() - begin)
            enough = outcome.add_pass(row, budget, writes)
            first_counts = first_counts or counts
            if counts != first_counts:
                outcome.fail("a period's answers differ from the first period's")
            if enough:
                outcome.peak_rss_mb = measure.peak_rss_mb()
                check_overlay(outcome, service, engine, inputs, next(batches))
    outcome.setup_s = measure.median(setups)


def check_overlay(outcome, service, engine, inputs, batch) -> None:
    """One more batch so that an overlay is live, then every answer
    against an engine rebuilt from the mutated graph."""
    service.apply_updates(batch)
    rebuilt = QueryEngine(
        engine.peg, max_length=inputs.max_length, beta=inputs.beta
    )
    for position, (query, alpha) in enumerate(inputs.pool):
        outcome.attempted += 1
        if measure.match_digest(
            service.query(query, alpha).matches
        ) != measure.match_digest(rebuilt.query(query, alpha).matches):
            outcome.fail(f"request {position}: overlay differs from a rebuild")


def run_untraced(inputs, budget: Budget, setups: int, work_root, stack):
    if inputs.name == "wire_zipf":
        return run_wire_boundary(inputs, budget, setups, work_root, stack)
    if inputs.name == "live_updates":
        outcome = Outcome()
        update_periods(outcome, inputs, budget)
        return outcome
    return run_engine_boundary(inputs, budget, setups)


def end_to_end_metrics(outcome) -> dict:
    """The five end-to-end metrics of one measured phase.

    A position's latency is its fastest timing over the passes: what a
    busy host adds even to time on a CPU (caches emptied by whoever ran
    in between) only ever adds, and the least disturbed timing is the
    one that repeats from run to run. Throughput is the replies of one
    pass over the time of its operations, writes included, each at its
    fastest: with one closed-loop caller, the rate of a pass in which
    nothing was disturbed.
    """
    fastest = [t for t in outcome.fastest() if t is not None]
    fastest_ms = [t * 1e3 for t in fastest]
    return {
        "setup_s": outcome.setup_s,
        "query_p50_ms": measure.median(fastest_ms),
        "query_p95_ms": measure.percentile(
            fastest_ms, 95, timings_per_sample=len(outcome.passes)
        ),
        "throughput_qps": measure.ratio(
            len(fastest), sum(fastest) + sum(outcome.fastest(writes=True))
        ),
        "peak_rss_mb": outcome.peak_rss_mb,
    }


# ----------------------------------------------------------------------
# Traced run: every layer, from outside
# ----------------------------------------------------------------------


def replay_requests(inputs) -> list:
    """Distinct requests of the workload's own stream, in first-use order."""
    if inputs.name != "wire_zipf":
        return list(inputs.pool)
    distinct = list(dict.fromkeys(inputs.zipf_trace()))
    return [inputs.pool[key] for key in distinct[:REPLAY_REQUESTS]]


def offline_layers(inputs, work_root: str) -> tuple:
    """Time each offline layer by calling it; ``(engine, metrics)``."""
    metrics = {}
    pgd = generate_synthetic_pgd(inputs.graph)
    start = busy()
    peg = build_peg(pgd)
    metrics["peg.build_s"] = busy() - start
    start = busy()
    engine = QueryEngine(peg, max_length=inputs.max_length, beta=inputs.beta)
    metrics["index.build_s"] = busy() - start
    start = busy()
    build_context(peg)
    metrics["index.context_s"] = busy() - start
    metrics["index.paths"] = engine.index.num_paths()
    metrics["index.bytes"] = engine.index.size_bytes()
    bundle = tempfile.mkdtemp(dir=work_root)
    start = busy()
    engine.save_offline(bundle)
    metrics["bundle.save_s"] = busy() - start
    start = busy()
    index, _context = load_offline(bundle)
    metrics["bundle.load_s"] = busy() - start
    index.store.close()
    shutil.rmtree(bundle, ignore_errors=True)
    return engine, metrics


def engine_layers(outcome, engine, requests, seconds: float) -> dict:
    """Untraced ``engine.query`` and the staged replay over the same
    requests, request by request, for ``seconds`` and two passes.

    As in the untraced run, a request's time is its fastest over the
    passes: the fastest ``engine.query`` on one side, the replay with
    the smallest sum of stage self times on the other. Counts are those
    of one pass (every pass counts the same).
    """
    replay = StagedReplay(engine)
    # Warm-up pass of both, and the proof that the replay is the engine.
    for request, (query, alpha) in enumerate(requests):
        outcome.attempted += 1
        if measure.match_digest(
            replay.run(request, query, alpha)
        ) != measure.match_digest(engine.query(query, alpha).matches):
            outcome.fail(f"request {request}: staged replay differs from the engine")
    untraced = [float("inf")] * len(requests)
    traced = [float("inf")] * len(requests)
    stages = [None] * len(requests)
    passes = 0
    engine_wall = engine_busy = 0.0
    start = now()
    while passes < 2 or now() - start < seconds:
        replay.reset_counters()
        for request, (query, alpha) in enumerate(requests):
            # Whichever evaluation of a request comes second finds the
            # processor's caches warm, so the two take turns going first.
            replay_first = (request + passes) % 2 == 1
            if replay_first:
                replayed = len(replay.run(request, query, alpha))
            begin, begin_wall = busy(), now()
            result = engine.query(query, alpha)
            spent_wall, spent = now() - begin_wall, busy() - begin
            untraced[request] = min(untraced[request], spent)
            engine_wall += spent_wall
            engine_busy += spent
            # Freed here, outside the timing, as the replay's matches
            # are freed outside its spans.
            expected = len(result.matches)
            del result
            if not replay_first:
                replayed = len(replay.run(request, query, alpha))
            outcome.attempted += 1
            if replayed != expected:
                outcome.fail(f"request {request}: staged replay differs")
        for request, self_s in replay.log.self_seconds().items():
            if sum(self_s.values()) < traced[request]:
                traced[request] = sum(self_s.values())
                stages[request] = self_s
        passes += 1
    count, counts = replay.requests, replay.counts
    space_ratios = replay.space_ratios
    outcome.spans = replay.log
    # One more pass, only for the cost of link_build without its cache
    # (kept out of the loop above: it slows the request that follows).
    replay.reset_counters()
    for request, (query, alpha) in enumerate(requests):
        replay.run(request, query, alpha, cold_links=True)

    self_s = {
        stage: sum(by_name.get(stage, 0.0) for by_name in stages)
        for stage in STAGES
    }
    stage_total = sum(self_s.values())
    metrics = {}
    for stage in STAGES:
        metrics[f"{stage}.self_ms"] = self_s[stage] / count * 1e3
        metrics[f"{stage}.share"] = measure.ratio(self_s[stage], stage_total)
    metrics.update({
        "plan.cache_hit_ratio": counts["plan_hits"] / count,
        "lookup.raw_candidates": counts["raw_candidates"] / count,
        "lookup.pruned_candidates": counts["pruned_candidates"] / count,
        "lookup.prune_keep_ratio": measure.ratio(
            counts["pruned_candidates"], counts["raw_candidates"]
        ),
        "lookup.store_reads": counts["store_reads"] / count,
        "lookup.store_bytes": counts["store_bytes"] / count,
        "link_build.pairs": counts["link_pairs"] / count,
        "link_build.cache_hit_ratio": measure.ratio(
            counts["link_hits"], counts["link_hits"] + counts["link_misses"]
        ),
        "link_build.cold_ms": sum(replay.cold_link_seconds) / count * 1e3,
        "reduce.rounds": counts["reduce_rounds"] / count,
        "reduce.removed": counts["reduce_removed"] / count,
        "reduce.space_ratio": measure.mean(space_ratios),
        "match.matches": counts["matches"] / count,
        "match.us_per_match": measure.ratio(
            self_s["match"] * 1e6, counts["matches"]
        ),
        "engine.replay_gap_ratio": measure.ratio(stage_total, sum(untraced)),
        "engine.wall_cpu_ratio": measure.ratio(engine_wall, engine_busy),
        "trace.overhead_ratio": measure.ratio(sum(untraced), sum(traced)),
    })
    return metrics


def boundary_layers(engine, sample) -> dict:
    """Service and net cost by subtraction across the three boundaries.

    Each sampled request first fills the result cache of a second,
    caching service (which also warms the engine's own caches). It is
    then timed ``BOUNDARY_REPEATS`` times at ``QueryEngine.query``,
    ``QueryService.query`` and ``QueryClient.query`` (one connection,
    result cache off) and the fastest time at each boundary is kept, so
    the differences are the layers above the engine and little else.
    The caching service then gives the cost of a hit. The two
    overheads and the hit are medians over the sample; encoding,
    decoding and reply size are means, because a few large match sets
    carry most of that cost.
    """
    service_ms, net_ms, hit_ms = [], [], []
    encode_ms, decode_ms, reply_bytes = [], [], []
    with contextlib.ExitStack() as stack:
        service = stack.enter_context(
            QueryService(engine, num_workers=1, cache_size=0)
        )
        cached = stack.enter_context(
            QueryService(engine, num_workers=1, cache_size=len(sample))
        )
        handle = stack.enter_context(start_server(service))
        client = stack.enter_context(QueryClient(*handle.address))

        def fastest(call) -> float:
            times = []
            for _ in range(BOUNDARY_REPEATS):
                begin = busy()
                call()
                times.append(busy() - begin)
            return min(times) * 1e3

        for query, alpha in sample:
            spec = workloads.query_spec(query)
            result = cached.query(query, alpha)
            at_engine = fastest(lambda: engine.query(query, alpha))
            at_service = fastest(lambda: service.query(query, alpha))
            at_client = fastest(
                lambda: client.query(spec["nodes"], spec["edges"], alpha)
            )
            service_ms.append(at_service - at_engine)
            net_ms.append(at_client - at_service)
            hit_ms.append(fastest(lambda: cached.query(query, alpha)))
            encode_ms.append(
                fastest(lambda: encode_frame(result_response(1, result)))
            )
            reply_bytes.append(len(encode_frame(result_response(1, result))))
            request = encode_frame(dict(spec, id=1, kind="query", alpha=alpha))[4:]
            decode_ms.append(
                fastest(lambda: query_graph_from_spec(decode_frame(request)))
            )
        rejected = service.stats_snapshot()["rejected"]
    return {
        "service.overhead_ms": measure.median(service_ms),
        "service.hit_ms": measure.median(hit_ms),
        "net.overhead_ms": measure.median(net_ms),
        "net.encode_reply_ms": measure.mean(encode_ms),
        "net.decode_request_ms": measure.mean(decode_ms),
        "net.reply_bytes": measure.mean(reply_bytes),
        "net.rejected": rejected,
    }


def cache_layers(server_stats: dict) -> dict:
    """Result-cache behaviour, from the serving program's own counters.

    Only ``wire_zipf`` puts a result cache in front of the engine; on
    the other workloads there is nothing to hit, and the counters are 0.
    """
    hits = server_stats.get("hits", 0)
    return {
        "service.hit_ratio": measure.ratio(
            hits, hits + server_stats.get("misses", 0)
        ),
        "service.evictions": server_stats.get("evictions", 0),
    }


def delta_layers(periods, pool_size: int, rebuild_s: float) -> dict:
    """The delta layer's numbers out of ``live_updates`` periods.

    The other workloads never write, so the layer is not in their path
    and their numbers are 0.
    """
    fastest = [t for t in periods.fastest() if t is not None]
    # Cycle 0 of a period reads the freshly compacted index, the later
    # cycles read through the overlay.
    base, overlay = fastest[:pool_size], fastest[pool_size:]
    # A period's writes are its mutation batches, then its compaction.
    updates = [t for row in periods.write_passes for t in row[:-1]]
    compactions = [row[-1] for row in periods.write_passes if row]
    apply_s = measure.median(updates)
    return {
        "delta.apply_ms": apply_s * 1e3,
        "delta.ops_per_s": measure.ratio(
            periods.ops, sum(updates)
        ),
        "delta.compact_ms": measure.median(compactions) * 1e3,
        "delta.overlay_paths": measure.mean(periods.overlay_paths),
        "delta.read_overhead_ratio": measure.ratio(
            measure.median(overlay), measure.median(base)
        ),
        "delta.rebuild_ratio": measure.ratio(apply_s, rebuild_s),
    }


def run_traced(inputs, seconds: float, work_root: str, stack) -> tuple:
    """Every per-layer metric for one workload; ``(outcome, metrics)``."""
    outcome = Outcome()
    engine, metrics = offline_layers(inputs, work_root)
    requests = replay_requests(inputs)
    metrics.update(engine_layers(outcome, engine, requests, 0.4 * seconds))
    sample = [
        requests[i] for i in evenly_spaced(len(requests), BOUNDARY_SAMPLE)
    ]
    metrics.update(boundary_layers(engine, sample))
    # The layers only one workload has in its path run that workload's
    # own loop, shortened: the result cache behind the wire, the delta
    # overlay under writes.
    used = Outcome()
    once = Budget(seconds=0.0, min_samples=0, min_passes=1)
    if inputs.name == "wire_zipf":
        used = run_wire_boundary(inputs, once, 1, work_root, stack)
    if inputs.name == "live_updates":
        update_periods(used, inputs, once)
    outcome.attempted += used.attempted
    outcome.failed += used.failed
    metrics.update(cache_layers(used.server_stats))
    metrics.update(
        delta_layers(used, len(inputs.pool), metrics["index.build_s"])
    )
    return outcome, metrics


# ----------------------------------------------------------------------
# Command line
# ----------------------------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 tiny: bool = False) -> dict:
    """One run of one workload in this process; the full result record."""
    spec = load_spec()
    inputs = workloads.GENERATORS[name](seed, tiny)
    budget = Budget(seconds, MIN_SAMPLES // 2 if tiny else MIN_SAMPLES)
    os.makedirs(WORK_DIR, exist_ok=True)
    with contextlib.ExitStack() as stack:
        work_root = tempfile.mkdtemp(prefix=f"{name}-", dir=WORK_DIR)
        stack.callback(shutil.rmtree, work_root, ignore_errors=True)
        if trace:
            outcome, values = run_traced(inputs, seconds, work_root, stack)
            declared = spec["per_layer"]
            spans = outcome.spans.to_rows()
            samples = len(spans)
        else:
            outcome = run_untraced(
                inputs, budget, 1 if tiny else SETUPS, work_root, stack
            )
            values = end_to_end_metrics(outcome)
            declared = spec["end_to_end"]
            spans = []
            samples = outcome.samples
    metrics = {
        entry["name"]: {"value": values[entry["name"]], "unit": entry["unit"]}
        for entry in declared
    }
    return {
        "workload": name,
        "trace": int(trace),
        "seconds": seconds,
        "samples": samples,
        # Wall time over time on a CPU of the measured phase (untraced
        # run): how much the host took away or the program waited.
        "wall_cpu_ratio": outcome.wall_cpu_ratio,
        "environment": measure.environment(seed),
        # The staged replay's spans, kept in memory until now.
        "spans": spans,
        "result": {
            "correct": outcome.failed == 0,
            "attempted": outcome.attempted,
            "failed": outcome.failed,
            "metrics": metrics,
        },
    }


def print_record(record: dict) -> None:
    result = record["result"]
    kind = "spans" if record["trace"] else "latency samples"
    print(f"== {record['workload']} (trace {record['trace']}, seed "
          f"{record['environment']['seed']}, {record['samples']} {kind}) ==")
    for name, metric in result["metrics"].items():
        print(f"{name:28s}{metric['value']:16.6g} {metric['unit']}")
    failed_ratio = result["failed"] / result["attempted"]
    print(f"{'failed_ratio':28s}{failed_ratio:16.6g} ratio "
          f"({result['failed']} of {result['attempted']})")
    if not record["trace"]:
        print(f"{'wall_cpu_ratio':28s}{record['wall_cpu_ratio']:16.6g} ratio "
              "(not a metric: the host's disturbance of this run)")


def run_all(args) -> int:
    """Every workload in a fresh process each, untraced and/or traced,
    once per seed ``--seed`` .. ``--seed + --repeat - 1``."""
    traces = (0, 1) if args.trace is None else (args.trace,)
    os.makedirs(WORK_DIR, exist_ok=True)
    records = []
    status = 0
    for name in workloads.WORKLOAD_NAMES:
        for trace in traces:
            for seed in range(args.seed, args.seed + args.repeat):
                with tempfile.TemporaryDirectory(dir=WORK_DIR) as scratch:
                    out = os.path.join(scratch, "record.json")
                    command = [
                        sys.executable, os.path.abspath(__file__),
                        "--workload", name, "--seed", str(seed),
                        "--seconds", str(args.seconds), "--trace", str(trace),
                        "--out", out,
                    ] + (["--tiny"] if args.tiny else [])
                    child = subprocess.run(
                        command, stdout=subprocess.DEVNULL, timeout=900
                    )
                    status = status or child.returncode
                    if not os.path.exists(out):
                        print(f"{name} (trace {trace}, seed {seed}) produced "
                              f"no result (exit {child.returncode})",
                              file=sys.stderr)
                        continue
                    with open(out, encoding="utf-8") as handle:
                        record = json.load(handle)["runs"][0]
                print_record(record)
                records.append(record)
    write_out(args.out, records)
    return status


def write_out(path, records: list) -> None:
    """Write the full records (each with its own environment and seed)."""
    if not path:
        return
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"runs": records}, handle, indent=2, sort_keys=True)
        handle.write("\n")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOAD_NAMES)
    parser.add_argument(
        "--seed", type=int, default=workloads.DEFAULT_SEED,
        help=f"request-stream seed (default {workloads.DEFAULT_SEED}; "
        f"{workloads.HELD_OUT_SEED} is held out for confirming claims)",
    )
    parser.add_argument(
        "--seconds", type=float, default=None,
        help="length of the measured phase (default: BENCHMARK.json run_seconds)",
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), nargs="?", const=1, default=None,
        help="0: end-to-end metrics, 1: per-layer metrics "
        "(default: 0 with --workload, both without)",
    )
    parser.add_argument(
        "--repeat", type=int, default=1,
        help="without --workload: run each workload this many times, on "
        "consecutive seeds starting at --seed (for compare.py)",
    )
    parser.add_argument("--out", help="also write the full records here as JSON")
    parser.add_argument(
        "--tiny", action="store_true",
        help="toy sizes for the self-test; the numbers mean nothing",
    )
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = 0.2 if args.tiny else float(load_spec()["run_seconds"])
    return args


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    args = parse_args(argv)
    # A terminated run still unwinds: servers reaped, work files removed.
    signal.signal(signal.SIGTERM, _terminate)
    if args.workload is None:
        return run_all(args)
    record = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), args.tiny
    )
    print_record(record)
    write_out(args.out, [record])
    print(json.dumps(record["result"]))
    return 0 if record["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
