"""Seeded load generator for the sharded gateway: `repro bench serve-load`.

SLO numbers (p50/p95/p99 latency, sustained QPS, shed rate, mean batch
size) are first-class, regression-gated artifacts, exactly like the
micro-benchmark medians: this module measures them and writes the
committed ``BENCH_serving.json``.

The workload: fit one extraction tool per synthetic-corpus domain,
generate a corpus whose **working set is deliberately larger than one
replica's page cache**, and drive a seeded request stream over it.
Three phases, same stream:

1. **single_pool** — the pre-gateway baseline: one
   :class:`~repro.serving.QAService` with the same per-replica cache
   capacity as each gateway shard, served through its bulk
   ``ask_many`` in ``max_batch`` slices.  The working set exceeds its
   cache, so a fraction of every pass re-parses — the cost of scaling
   a one-replica design.
2. **gateway_closed** — closed-loop: ``concurrency`` workers each keep
   ``window`` requests outstanding against the
   :class:`~repro.serving.gateway.ServingGateway`.  Content-affinity
   hashing partitions the working set across the shard caches, so the
   same traffic serves warm; this phase's sustained QPS over the
   single-pool baseline is the gated headline number.
3. **gateway_open** — open-loop: a pacer submits at a rate *derived
   from the measured closed-loop capacity* (so the phase means the
   same thing on any machine) against a bounded queue; overflow must
   shed as structured ``RejectedError("overload")`` results, never
   block or drop silently.

Every non-shed answer from every phase is checked bit-identical to
sequential ``tool.predict`` on the same page — the load benchmark *is*
a differential test; a divergence fails the run, not just the gate.

The regression gate (:func:`check_serving`, wired into ``repro bench
serve-load --compare`` and ``benchmarks/check_regression.py``)
normalizes by an in-run machine-speed proxy — the single-pool QPS
ratio between fresh and baseline runs — so a slower CI runner shifts
both sides and cancels, exactly in the spirit of
:func:`repro.benchtool.speed_scale`.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import asdict, dataclass, field

from ..persist import tagged_payload, write_artifact
from .gateway import ServingGateway
from .ingest import ingest_html
from .service import QAService, ServingRequest

#: The gated floor on ``gateway_closed.qps / single_pool.qps`` by shard
#: count: the acceptance bar is >=2x at 4 shards on the synthetic
#: corpus; the 2-shard CI smoke keeps a margin-of-noise floor.
MIN_SPEEDUP_BY_SHARDS = {4: 2.0, 2: 1.2}
MIN_SPEEDUP_DEFAULT = 1.2

#: p95 latency may grow at most this factor over the committed
#: baseline, after machine normalization via the single-pool QPS ratio.
MAX_LATENCY_REGRESSION = 2.5

#: Machine-speed proxies outside this band are not trusted (scale 1.0).
SPEED_PROXY_BAND = (0.2, 5.0)


@dataclass(frozen=True)
class LoadConfig:
    """One serve-load run, fully seeded and machine-independent.

    ``pages_per_route * routes`` is sized against ``page_cache_size``
    on purpose: the working set must overflow one replica's cache but
    fit the union of ``shards`` caches, or the benchmark degenerates
    into a pure dispatch-overhead microbench.
    """

    shards: int = 4
    jobs: int = 1
    backend: str = "thread"
    #: Closed-loop worker threads, each keeping ``window`` outstanding.
    concurrency: int = 8
    window: int = 16
    #: Total requests in the seeded stream (each phase replays it).
    requests: int = 3000
    routes: int = 4
    pages_per_route: int = 128
    page_cache_size: int = 256
    max_batch: int = 16
    flush_delay_seconds: float = 0.002
    #: Queue bound for the open-loop phase (closed-loop runs unbounded).
    queue_depth: int = 256
    #: Open-loop offered rate as a multiple of measured closed-loop QPS
    #: (0 skips the phase).
    open_rate_factor: float = 1.5
    open_requests: int = 1500
    #: Queue bound for the open-loop gateway specifically (``None`` =
    #: auto: tight enough that the stall window must overflow it).  The
    #: closed-loop ``queue_depth`` is far too deep for a GIL-shared
    #: pacer to ever fill — the root cause of the committed artifact's
    #: ``shed_rate: 0.0`` (see :func:`run_gateway_open`).
    open_queue_depth: "int | None" = None
    ensemble: int = 40
    train: int = 3
    seed: int = 0
    #: Run the corpus-routing phase (``repro bench serve-load --routed``):
    #: build a store+index over the workload corpus and gate routed
    #: ``ask_corpus`` against the exhaustive scan at equal answers.
    routed: bool = False
    routed_top_k: int = 16

    def effective_open_queue_depth(self) -> int:
        """The open-loop bound: explicit, or sized against the stall window.

        Auto mode targets roughly one eighth of the per-shard traffic a
        third-of-the-run stall sends at the paused shard, so overflow is
        guaranteed at any machine speed while most requests still serve.
        """
        if self.open_queue_depth is not None:
            return self.open_queue_depth
        return max(8, self.open_requests // (8 * max(1, self.shards)))


@dataclass
class PhaseResult:
    """Metrics of one load phase."""

    name: str
    requests: int = 0
    ok: int = 0
    shed: int = 0
    failed: int = 0
    elapsed_seconds: float = 0.0
    latencies_ms: "list[float]" = field(default_factory=list, repr=False)
    mean_batch_size: float = 0.0
    offered_qps: float = 0.0
    #: Deepest shard queue observed during the phase's stall window
    #: (open loop only) — the evidence that backpressure actually built.
    peak_queue_depth: int = 0

    def qps(self) -> float:
        served = self.ok
        return served / self.elapsed_seconds if self.elapsed_seconds > 0 else 0.0

    def shed_rate(self) -> float:
        return self.shed / self.requests if self.requests else 0.0

    def percentile_ms(self, q: float) -> float:
        if not self.latencies_ms:
            return 0.0
        ordered = sorted(self.latencies_ms)
        return ordered[min(len(ordered) - 1, int(q * (len(ordered) - 1)))]

    def as_dict(self) -> dict:
        return {
            "requests": self.requests,
            "ok": self.ok,
            "shed": self.shed,
            "failed": self.failed,
            "elapsed_seconds": round(self.elapsed_seconds, 4),
            "qps": round(self.qps(), 1),
            "offered_qps": round(self.offered_qps, 1),
            "shed_rate": round(self.shed_rate(), 4),
            "p50_ms": round(self.percentile_ms(0.50), 3),
            "p95_ms": round(self.percentile_ms(0.95), 3),
            "p99_ms": round(self.percentile_ms(0.99), 3),
            "mean_batch_size": round(self.mean_batch_size, 2),
            "peak_queue_depth": self.peak_queue_depth,
        }


@dataclass
class Workload:
    """Fitted tools, corpus pages, the seeded stream, and the oracle."""

    routes: "list[str]"
    tools: dict
    #: (route, url) -> raw html of the page.
    corpus: "dict[tuple[str, str], str]"
    #: The seeded request stream, replayed by every phase.
    stream: "list[ServingRequest]"
    #: One request per distinct page — the unmeasured warm-up pass every
    #: phase runs first, so the measured pass is steady state (for the
    #: over-capacity single pool, steady state *is* thrashing: a warm
    #: pass cannot make a working set fit a smaller cache).
    distinct: "list[ServingRequest]"
    #: (route, url) -> sequential ``tool.predict`` answer (the oracle).
    expected: dict


def build_workload(config: LoadConfig) -> Workload:
    """Fit one tool per domain; generate corpus, stream and oracle."""
    from ..core.webqa import WebQA
    from ..dataset.corpus import DOMAINS, generate_page
    from ..dataset.tasks import tasks_for_domain
    from ..experiments.common import ExperimentConfig, dataset_for

    domains = list(DOMAINS[: config.routes])
    fit_config = ExperimentConfig(
        n_pages=max(4, config.train + 3),
        n_train=config.train,
        ensemble_size=config.ensemble,
        seed=config.seed,
    )
    tools = {}
    for domain in domains:
        task = tasks_for_domain(domain)[0]
        dataset = dataset_for(task, fit_config)
        tools[domain] = WebQA(
            ensemble_size=config.ensemble, seed=config.seed
        ).fit(
            task.question,
            task.keywords,
            list(dataset.train),
            list(dataset.test_pages),
            dataset.models,
        )
    corpus: "dict[tuple[str, str], str]" = {}
    for domain in domains:
        for page_seed in range(config.pages_per_route):
            generated = generate_page(domain, page_seed)
            corpus[(domain, generated.page.url)] = generated.html
    keys = sorted(corpus)
    rng = random.Random(f"serve-load:{config.seed}")
    stream = []
    for _ in range(config.requests):
        route, url = keys[rng.randrange(len(keys))]
        stream.append(
            ServingRequest(route=route, html=corpus[(route, url)], url=url)
        )
    expected = {
        (route, url): tools[route].predict(
            ingest_html(corpus[(route, url)], url=url)
        )
        for route, url in keys
    }
    distinct = [
        ServingRequest(route=route, html=corpus[(route, url)], url=url)
        for route, url in keys
    ]
    return Workload(
        routes=domains, tools=tools, corpus=corpus, stream=stream,
        distinct=distinct, expected=expected,
    )


def _verify(workload: Workload, requests, results, phase: str) -> int:
    """Assert every non-shed answer matches the sequential oracle."""
    ok = 0
    for request, result in zip(requests, results):
        if result is None or result.error is not None:
            continue
        ok += 1
        expected = workload.expected[(request.route, request.url)]
        if result.answer != expected:
            raise AssertionError(
                f"{phase}: answer diverged from sequential predict for "
                f"{request.route}/{request.url}: "
                f"{result.answer!r} != {expected!r}"
            )
    return ok


def _tally(phase: PhaseResult, results) -> None:
    for result in results:
        if result is None:
            phase.failed += 1
        elif result.error is None:
            phase.ok += 1
        elif (
            getattr(result.error, "stage", "") == "admission"
            and getattr(result.error, "reason", "") == "overload"
        ):
            phase.shed += 1
        else:
            phase.failed += 1


def run_single_pool(config: LoadConfig, workload: Workload) -> PhaseResult:
    """Baseline: one QAService, bulk ``ask_many`` in max_batch slices."""
    phase = PhaseResult(name="single_pool", requests=len(workload.stream))
    with QAService(
        jobs=config.jobs,
        backend=config.backend,
        max_batch=config.max_batch,
        page_cache_size=config.page_cache_size,
    ) as service:
        for route in workload.routes:
            service.register(route, workload.tools[route])
        # Unmeasured warm-up: the measured pass is steady state.
        service.ask_many(workload.distinct, strict=False)
        stream = workload.stream
        results = []
        started = time.perf_counter()
        for offset in range(0, len(stream), config.max_batch):
            chunk = stream[offset : offset + config.max_batch]
            chunk_start = time.perf_counter()
            batch = service.ask_many(chunk, strict=False)
            chunk_ms = (time.perf_counter() - chunk_start) * 1000.0
            results.extend(batch)
            # Every request in a bulk slice waits for its whole slice.
            phase.latencies_ms.extend([chunk_ms] * len(chunk))
        phase.elapsed_seconds = time.perf_counter() - started
        phase.mean_batch_size = service.stats.mean_batch_size()
    _tally(phase, results)
    _verify(workload, stream, results, phase.name)
    return phase


def run_gateway_closed(
    config: LoadConfig, gateway: ServingGateway, workload: Workload
) -> PhaseResult:
    """Closed loop: N workers, each with ``window`` outstanding requests."""
    phase = PhaseResult(name="gateway_closed", requests=len(workload.stream))
    stream = workload.stream
    results: "list" = [None] * len(stream)
    batches_before = gateway.stats.batches
    batched_before = gateway.stats.batched_requests
    cursor_lock = threading.Lock()
    cursor = [0]

    def worker() -> None:
        while True:
            with cursor_lock:
                start = cursor[0]
                if start >= len(stream):
                    return
                cursor[0] = start + config.window
            chunk = stream[start : start + config.window]
            submitted = time.perf_counter()
            futures = [gateway.submit(request) for request in chunk]
            for offset, future in enumerate(futures):
                results[start + offset] = future.result()
                phase.latencies_ms.append(
                    (time.perf_counter() - submitted) * 1000.0
                )

    threads = [
        threading.Thread(target=worker, daemon=True)
        for _ in range(config.concurrency)
    ]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    phase.elapsed_seconds = time.perf_counter() - started
    batches = gateway.stats.batches - batches_before
    if batches:
        phase.mean_batch_size = (
            gateway.stats.batched_requests - batched_before
        ) / batches
    _tally(phase, results)
    _verify(workload, stream, results, phase.name)
    return phase


def run_gateway_open(
    config: LoadConfig,
    gateway: ServingGateway,
    workload: Workload,
    offered_qps: float,
) -> PhaseResult:
    """Open loop: paced submissions; overflow sheds at the queue bound.

    Why a stall window instead of trusting the offered rate alone: the
    pacer shares the GIL (and often the cores) with the dispatchers and
    workers it is overloading, so its *achieved* submission rate can
    never sustainably exceed the drain rate — queues hover near empty
    and the committed artifact showed ``shed_rate: 0.0`` at a nominal
    1.5x capacity.  Real overload is a downstream stall, so the phase
    models one deterministically: through the middle third of the run,
    shard 0 is paused (its queue accepts but stops dispatching) while
    the pacer keeps offering; the paused queue fills to the (tight,
    :meth:`LoadConfig.effective_open_queue_depth`) bound and overflow
    *must* shed as structured results.  The peak depth is sampled just
    before the resume, so the artifact carries the backpressure
    evidence, and :func:`check_serving` gates on sheds actually
    happening.
    """
    phase = PhaseResult(
        name="gateway_open",
        requests=config.open_requests,
        offered_qps=offered_qps,
    )
    rng = random.Random(f"serve-load-open:{config.seed}")
    stream = [
        workload.stream[rng.randrange(len(workload.stream))]
        for _ in range(config.open_requests)
    ]
    batches_before = gateway.stats.batches
    batched_before = gateway.stats.batched_requests
    interval = 1.0 / offered_qps if offered_qps > 0 else 0.0
    stall_start = config.open_requests // 3
    stall_end = (2 * config.open_requests) // 3
    stall = config.open_requests >= 9
    stamps: "dict[int, float]" = {}
    submitted: "list[float]" = [0.0] * len(stream)

    def stamp(index: int):
        def callback(_future) -> None:
            stamps[index] = time.perf_counter()

        return callback

    futures = []
    started = time.perf_counter()
    for index, request in enumerate(stream):
        if stall and index == stall_start:
            gateway.pause_shard(0)
        if stall and index == stall_end:
            phase.peak_queue_depth = max(gateway.queue_depths())
            gateway.resume_shard(0)
        target = started + index * interval
        delay = target - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        submitted[index] = time.perf_counter()
        future = gateway.submit(request)
        future.add_done_callback(stamp(index))
        futures.append(future)
    results = [future.result() for future in futures]
    phase.elapsed_seconds = time.perf_counter() - started
    batches = gateway.stats.batches - batches_before
    if batches:
        phase.mean_batch_size = (
            gateway.stats.batched_requests - batched_before
        ) / batches
    for index, result in enumerate(results):
        if result is not None and result.error is None:
            phase.latencies_ms.append(
                (stamps[index] - submitted[index]) * 1000.0
            )
    _tally(phase, results)
    _verify(workload, stream, results, phase.name)
    return phase


def run_load(config: LoadConfig) -> dict:
    """All phases over one workload; returns the artifact payload."""
    workload = build_workload(config)
    single = run_single_pool(config, workload)

    with ServingGateway(
        shards=config.shards,
        jobs=config.jobs,
        backend=config.backend,
        max_batch=config.max_batch,
        flush_delay_seconds=config.flush_delay_seconds,
        queue_depth=None,
        page_cache_size=config.page_cache_size,
    ) as gateway:
        for route in workload.routes:
            gateway.register(route, workload.tools[route])
        # Unmeasured warm-up, symmetric with the single-pool phase.
        gateway.ask_many(workload.distinct, strict=False)
        closed = run_gateway_closed(config, gateway, workload)
        health = gateway.health()

    phases = {"single_pool": single, "gateway_closed": closed}
    if config.open_rate_factor > 0 and config.open_requests > 0:
        with ServingGateway(
            shards=config.shards,
            jobs=config.jobs,
            backend=config.backend,
            max_batch=config.max_batch,
            flush_delay_seconds=config.flush_delay_seconds,
            queue_depth=config.effective_open_queue_depth(),
            page_cache_size=config.page_cache_size,
        ) as gateway:
            for route in workload.routes:
                gateway.register(route, workload.tools[route])
            # Warm the shard caches so the open phase measures steady
            # state, then offer a rate derived from measured capacity.
            gateway.ask_many(workload.distinct, strict=False)
            phases["gateway_open"] = run_gateway_open(
                config, gateway, workload,
                offered_qps=closed.qps() * config.open_rate_factor,
            )

    routing = run_routed(config, workload) if config.routed else None

    benchmarks = {name: phase.as_dict() for name, phase in phases.items()}
    speedup = (
        closed.qps() / single.qps() if single.qps() > 0 else float("inf")
    )
    return tagged_payload(
        "suite",
        "serving_load",
        config=asdict(config),
        benchmarks=benchmarks,
        speedups={"gateway_closed/single_pool": round(speedup, 2)},
        working_set_pages=len(workload.corpus),
        routing=routing,
        gateway_health={
            "queue_depths": health["queue_depths"],
            "pools_broken": health["pools_broken"],
            "stats": health["stats"],
        },
    )


def run_routed(config: LoadConfig, workload: Workload) -> dict:
    """The ``--routed`` phase: top-k corpus routing vs the exhaustive scan.

    Builds a corpus store and inverted index over the workload's own
    pages, registers the same fitted tools, and answers each route's
    question both ways through ``QAService.ask_corpus``: index-routed
    top-k and the O(corpus) exhaustive reference.  Every answer pair
    must be **bit-identical** (answer, provenance fingerprint/url, score,
    candidate set) — ``answers_match`` records it and the gate enforces
    it — and the reported ``speedup`` is total exhaustive seconds over
    total routed seconds at steady state (entity caches warm on both
    sides).
    """
    import os
    import shutil
    import tempfile

    from ..retrieval.index import build_corpus_index
    from .corpus import build_corpus_store

    directory = tempfile.mkdtemp(prefix="serve-load-")
    store_path = os.path.join(directory, "corpus.rpw")
    try:
        build_corpus_store(
            ((html, url) for (_route, url), html in sorted(workload.corpus.items())),
            store_path,
        )
        index_stat = build_corpus_index(store_path)
        routed_seconds = exhaustive_seconds = 0.0
        routed_queries = exhaustive_queries = 0
        answers_match = True
        per_route = {}
        with QAService(
            jobs=config.jobs,
            backend=config.backend,
            max_batch=config.max_batch,
            page_cache_size=config.page_cache_size,
            store=store_path,
        ) as service:
            for route in workload.routes:
                service.register(route, workload.tools[route])
            for route in workload.routes:
                # Warm-up pass: NER/token caches fill on both paths and
                # the equivalence check runs on the warm answers.
                routed = service.ask_corpus(route, top_k=config.routed_top_k)
                exhaustive = service.ask_corpus(
                    route, top_k=config.routed_top_k, exhaustive=True
                )
                matched = (
                    routed.answer == exhaustive.answer
                    and routed.fingerprint == exhaustive.fingerprint
                    and routed.url == exhaustive.url
                    and routed.score == exhaustive.score
                    and routed.support == exhaustive.support
                    and routed.candidates == exhaustive.candidates
                )
                answers_match = answers_match and matched
                started = time.perf_counter()
                for _ in range(5):
                    service.ask_corpus(route, top_k=config.routed_top_k)
                route_routed = time.perf_counter() - started
                started = time.perf_counter()
                for _ in range(2):
                    service.ask_corpus(
                        route, top_k=config.routed_top_k, exhaustive=True
                    )
                route_exhaustive = time.perf_counter() - started
                routed_seconds += route_routed
                exhaustive_seconds += route_exhaustive
                routed_queries += 5
                exhaustive_queries += 2
                per_route[route] = {
                    "matched": matched,
                    "routed_ms": round(route_routed / 5 * 1000.0, 3),
                    "exhaustive_ms": round(route_exhaustive / 2 * 1000.0, 3),
                    "answer": list(routed.answer),
                    "url": routed.url,
                    "support": routed.support,
                }
        routed_mean = routed_seconds / routed_queries
        exhaustive_mean = exhaustive_seconds / exhaustive_queries
        return {
            "working_set_pages": index_stat["pages"],
            "top_k": config.routed_top_k,
            "index": {
                "terms": index_stat["terms"],
                "postings": index_stat["postings"],
                "file_bytes": index_stat["file_bytes"],
                "generation": index_stat["generation"],
            },
            "routed_ms": round(routed_mean * 1000.0, 3),
            "exhaustive_ms": round(exhaustive_mean * 1000.0, 3),
            "speedup": round(exhaustive_mean / routed_mean, 2),
            "answers_match": answers_match,
            "per_route": per_route,
        }
    finally:
        shutil.rmtree(directory, ignore_errors=True)


def min_speedup(shards: int) -> float:
    return MIN_SPEEDUP_BY_SHARDS.get(shards, MIN_SPEEDUP_DEFAULT)


def check_serving(
    fresh: dict,
    baseline: "dict | None" = None,
    max_latency_regression: float = MAX_LATENCY_REGRESSION,
) -> "list[str]":
    """Gate one serve-load artifact; returns failure messages (empty = pass).

    Absolute invariants on the fresh run alone:

    * closed-loop speedup over single-pool >= :func:`min_speedup` for
      the run's shard count (the acceptance bar);
    * closed-loop sheds nothing and fails nothing (unbounded queue,
      clean corpus);
    * an open-loop phase, when present, never *fails* a request —
      overflow must be structured shedding — **and actually sheds
      some** (while still serving some): an overload phase whose shed
      path never fired proves nothing (the ``shed_rate: 0.0`` artifact
      bug);
    * a routing phase, when present, must be answer-exact
      (``answers_match``) and beat the exhaustive scan by a floor that
      scales with how much scan work the index actually skips
      (``working_set / (8 * top_k)``, clamped to [2x, 10x] — the full
      >=10x headline is gated by the 2k-page ``test_bench_route_topk``).

    Relative gates against the committed ``baseline``: closed-loop p95
    latency, normalized by the in-run machine-speed proxy (the
    single-pool QPS ratio), within ``max_latency_regression``.
    """
    failures: "list[str]" = []
    benchmarks = fresh.get("benchmarks", {})
    single = benchmarks.get("single_pool")
    closed = benchmarks.get("gateway_closed")
    if not single or not closed:
        return ["serving artifact missing single_pool/gateway_closed phases"]
    shards = fresh.get("config", {}).get("shards", 0)
    floor = min_speedup(shards)
    speedup = fresh.get("speedups", {}).get("gateway_closed/single_pool", 0.0)
    if speedup < floor:
        failures.append(
            f"gateway_closed speedup {speedup:.2f}x under the {floor:.2f}x "
            f"floor for {shards} shards"
        )
    if closed.get("shed", 0) or closed.get("failed", 0):
        failures.append(
            f"closed loop not clean: shed={closed.get('shed')} "
            f"failed={closed.get('failed')}"
        )
    open_phase = benchmarks.get("gateway_open")
    if open_phase and open_phase.get("failed", 0):
        failures.append(
            f"open loop produced {open_phase['failed']} hard failures "
            "(overload must shed, not fail)"
        )
    if open_phase and not open_phase.get("shed", 0):
        failures.append(
            "open loop shed nothing: the bounded queue never saturated, "
            "so the committed artifact does not exercise the shed path"
        )
    if open_phase and not open_phase.get("ok", 0):
        failures.append("open loop served nothing: every request shed")
    routing = fresh.get("routing")
    if routing:
        if not routing.get("answers_match", False):
            failures.append(
                "routed ask_corpus diverged from the exhaustive scan "
                "(answers must be bit-identical)"
            )
        pages = routing.get("working_set_pages", 0)
        top_k = max(1, routing.get("top_k", 1))
        floor = max(2.0, min(10.0, pages / (8.0 * top_k)))
        speedup = routing.get("speedup", 0.0)
        if speedup < floor:
            failures.append(
                f"routed speedup {speedup:.2f}x under the {floor:.2f}x floor "
                f"for a {pages}-page working set at top_k={top_k}"
            )
    if baseline is not None:
        base = baseline.get("benchmarks", {})
        base_single = base.get("single_pool", {})
        base_closed = base.get("gateway_closed", {})
        scale = 1.0
        if base_single.get("qps") and single.get("qps"):
            proxy = base_single["qps"] / single["qps"]
            low, high = SPEED_PROXY_BAND
            if low <= proxy <= high:
                scale = proxy
        base_p95 = base_closed.get("p95_ms")
        fresh_p95 = closed.get("p95_ms")
        if base_p95 and fresh_p95:
            if fresh_p95 > base_p95 * scale * max_latency_regression:
                failures.append(
                    f"gateway_closed p95 {fresh_p95:.3f}ms exceeds "
                    f"baseline {base_p95:.3f}ms x scale {scale:.2f} x "
                    f"bound {max_latency_regression:.2f}"
                )
    return failures


def format_serving(payload: dict) -> str:
    """Human-readable phase table of one serve-load artifact."""
    lines = [
        f"{'phase':<16} {'req':>6} {'ok':>6} {'shed':>5} {'fail':>5} "
        f"{'qps':>9} {'p50ms':>8} {'p95ms':>8} {'p99ms':>8} {'batch':>6}"
    ]
    for name, bench in payload.get("benchmarks", {}).items():
        lines.append(
            f"{name:<16} {bench['requests']:>6} {bench['ok']:>6} "
            f"{bench['shed']:>5} {bench['failed']:>5} {bench['qps']:>9.1f} "
            f"{bench['p50_ms']:>8.3f} {bench['p95_ms']:>8.3f} "
            f"{bench['p99_ms']:>8.3f} {bench['mean_batch_size']:>6.2f}"
        )
    for name, value in payload.get("speedups", {}).items():
        lines.append(f"{name}: {value}x")
    routing = payload.get("routing")
    if routing:
        lines.append(
            f"routing: {routing['routed_ms']}ms routed vs "
            f"{routing['exhaustive_ms']}ms exhaustive -> "
            f"{routing['speedup']}x over {routing['working_set_pages']} "
            f"pages (top_k={routing['top_k']}, "
            f"answers_match={routing['answers_match']})"
        )
    lines.append(
        f"working set: {payload.get('working_set_pages')} distinct pages; "
        f"per-replica cache {payload.get('config', {}).get('page_cache_size')}"
    )
    return "\n".join(lines)


def measure_serving(
    config: "LoadConfig | None" = None, output: "str | None" = None
) -> dict:
    """Run :func:`run_load` and optionally persist the artifact."""
    payload = run_load(config or LoadConfig())
    if output is not None:
        write_artifact(output, payload, sort_keys=True)
    return payload
