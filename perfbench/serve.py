"""``serve_pages``: open-loop raw-HTML traffic through a 2-shard gateway.

Four routes (the first task of each domain) answer pages submitted as
raw HTML.  Arrivals are Poisson at three fixed absolute rates, each for
a third of the run.  75% of requests repeat a page of a hot set larger
than the two shards' page caches combined, drawn by a Zipf popularity;
the other 25% are pages the gateway has never seen.  Each latency runs
from the moment the request was *due*, so a late generator or a stalled
gateway shows up in every request behind it.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field

from common import mean, now, percentile

SETUPS = 2
FRESH_RIG_PER_PHASE = False
#: Offered request rates (1/s).
RATES = {"low": 150.0, "mid": 300.0, "high": 450.0}
#: The latency limit ``ops_per_s`` (goodput at ``high``) counts against.
P99_LIMIT_MS = 300.0
#: Hot pages per domain; 4 x 192 = 768 > 2 shards x 256 cached pages.
HOT_PER_DOMAIN = 192
FRESH_SHARE = 0.25
ZIPF_EXPONENT = 1.0
DRAIN_TIMEOUT_S = 60.0


@dataclass
class Request:
    route: str
    url: str
    html: str
    #: Seconds after the rate phase starts that the request is due.
    offset: float


@dataclass
class Rig:
    seed: int
    gateway: object
    tools: dict
    #: One arrival schedule (rate name -> requests) per measured phase;
    #: each phase has fresh pages of its own.
    schedules: "list[dict[str, list[Request]]]"
    #: (route, url) -> gold answer of the page.
    gold: dict
    seconds: float


@dataclass
class RatePhase:
    rate: float
    duration: float
    latency_ms: "list[float]" = field(default_factory=list)
    lag_ms: "list[float]" = field(default_factory=list)
    backlog_max: int = 0
    backlog_end: int = 0
    #: (request, ServingResult) per arrival.
    results: list = field(default_factory=list)
    correct: "list[bool]" = field(default_factory=list)


@dataclass
class Phase:
    rates: "dict[str, RatePhase]" = field(default_factory=dict)

    @property
    def op_ms(self) -> "list[float]":
        return [ms for rate in self.rates.values() for ms in rate.latency_ms]


def setup(seed: int, workdir: str, seconds: float, phases: int) -> Rig:
    from repro.core.webqa import WebQA
    from repro.dataset.corpus import DOMAINS, _cached_domain_corpus, generate_page
    from repro.dataset.tasks import tasks_for_domain
    from repro.experiments.common import (
        ExperimentConfig,
        clear_process_caches,
        dataset_for,
    )
    from repro.serving.gateway import ServingGateway
    from repro.serving.service import ServingRequest

    clear_process_caches()
    _cached_domain_corpus.cache_clear()
    fit_config = ExperimentConfig(n_pages=6, n_train=3, ensemble_size=40)
    tools, gold = {}, {}
    for domain in DOMAINS:
        task = tasks_for_domain(domain)[0]
        dataset = dataset_for(task, fit_config)
        tools[task.task_id] = WebQA(ensemble_size=40).fit(
            task.question,
            task.keywords,
            list(dataset.train),
            list(dataset.test_pages),
            dataset.models,
        )
    routes = {domain: tasks_for_domain(domain)[0].task_id for domain in DOMAINS}

    def page(domain: str, page_seed: int) -> "tuple[str, str, str]":
        generated = generate_page(domain, page_seed)
        route = routes[domain]
        gold[(route, generated.page.url)] = generated.gold[route]
        return route, generated.page.url, generated.html

    hot = [
        page(domain, index)
        for domain in DOMAINS
        for index in range(HOT_PER_DOMAIN)
    ]
    rng = random.Random(f"serve_pages:{seed}")
    # Popularity rank -> hot page, so each seed has its own hot head.
    ranked = hot[:]
    rng.shuffle(ranked)
    weights = [1.0 / (rank + 1) ** ZIPF_EXPONENT for rank in range(len(ranked))]
    fresh_seed = 1_000_000 + 100_000 * seed
    schedules = []
    for _ in range(phases):
        schedule = {}
        for name, rate in RATES.items():
            requests, offset = [], 0.0
            while True:
                offset += rng.expovariate(rate)
                if offset >= seconds / len(RATES):
                    break
                if rng.random() < FRESH_SHARE:
                    domain = DOMAINS[rng.randrange(len(DOMAINS))]
                    chosen = page(domain, fresh_seed)
                    fresh_seed += 1
                else:
                    chosen = rng.choices(ranked, weights=weights)[0]
                requests.append(Request(*chosen, offset=offset))
            schedule[name] = requests
        schedules.append(schedule)
    gateway = ServingGateway(shards=2)
    for route, tool in tools.items():
        gateway.register(route, tool)
    # Warm the caches with the hot set, the way a running gateway is warm.
    gateway.ask_many(
        [ServingRequest(route=r, html=h, url=u) for r, u, h in ranked[::-1]],
        strict=False,
    )
    return Rig(
        seed=seed, gateway=gateway, tools=tools, schedules=schedules,
        gold=gold, seconds=seconds,
    )


def _run_rate(rig: Rig, rate: float, requests, tracer) -> RatePhase:
    from repro.serving.service import ServingRequest

    gateway = rig.gateway
    phase = RatePhase(rate=rate, duration=rig.seconds / len(RATES))
    done_at = [0.0] * len(requests)
    done: "list[int]" = []
    futures = []
    ops = []

    def finished(index: int):
        def callback(_future) -> None:
            done_at[index] = now()
            done.append(index)

        return callback

    start = now() + 0.005
    for index, request in enumerate(requests):
        due = start + request.offset
        delay = due - now()
        if delay > 0:
            time.sleep(delay)
        sent = now()
        phase.lag_ms.append((sent - due) * 1e3)
        if tracer is not None:
            op = tracer.op("request", start=due)
            tracer.record("loadgen.lag", due, sent, (op,))
            ops.append(op)
        future = gateway.submit(
            ServingRequest(route=request.route, html=request.html, url=request.url)
        )
        if tracer is not None:
            tracer.detach()
        future.add_done_callback(finished(index))
        futures.append(future)
        phase.backlog_max = max(phase.backlog_max, len(futures) - len(done))
    phase.backlog_end = len(futures) - len(done)
    for request, future in zip(requests, futures):
        phase.results.append((request, future.result(timeout=DRAIN_TIMEOUT_S)))
    # A future's callbacks run just after its waiters wake.
    while len(done) < len(futures):
        time.sleep(0.0005)
    for index, request in enumerate(requests):
        phase.latency_ms.append((done_at[index] - (start + request.offset)) * 1e3)
    for op, end in zip(ops, done_at):
        op.end = end
    return phase


def measure(rig: Rig, seconds: float, tracer=None) -> Phase:
    phase = Phase()
    schedule = rig.schedules.pop(0)
    for name, rate in RATES.items():
        phase.rates[name] = _run_rate(rig, rate, schedule[name], tracer)
    return phase


def verify(rig: Rig, phases: "list[Phase]") -> "list[str]":
    """Every answer equals a sequential ``WebQA.predict`` of its page."""
    from repro.serving.ingest import ingest_html

    expected = {}
    problems = []
    for phase in phases:
        for rate in phase.rates.values():
            rate.correct = []
            for request, result in rate.results:
                key = (request.route, request.url)
                if key not in expected:
                    page = ingest_html(request.html, url=request.url)
                    expected[key] = rig.tools[request.route].predict(page)
                ok = result.error is None and result.answer == expected[key]
                rate.correct.append(ok)
                if result.error is not None:
                    problems.append(f"{key}: {result.error!r}")
                elif not ok:
                    problems.append(f"{key}: {result.answer!r} != {expected[key]!r}")
    return problems


def _goodput(rate: RatePhase) -> float:
    good = sum(
        ok and ms <= P99_LIMIT_MS
        for ok, ms in zip(rate.correct, rate.latency_ms)
    )
    return good / rate.duration


def end_to_end(rig: Rig, phase: Phase) -> dict:
    """Latency pooled over the three rates; goodput at ``high``.

    ``f1_mean`` averages over the distinct pages answered, so a popular
    page counts once.
    """
    from repro.metrics.scores import Score

    f1 = {
        key: Score.of(result.answer, rig.gold[key]).f1
        for rate in phase.rates.values()
        for request, result in rate.results
        if result.error is None
        for key in [(request.route, request.url)]
    }
    return {
        "latency_p50_ms": percentile(phase.op_ms, 0.5),
        "throughput_per_s": _goodput(phase.rates["high"]),
        "f1_mean": mean(f1.values()),
    }


def report(rig: Rig, phase: Phase) -> "list[tuple[str, float, str]]":
    rows = []
    for name, rate in phase.rates.items():
        rows += [
            (f"ask_p50_ms.{name}", percentile(rate.latency_ms, 0.5), "ms"),
            (f"ask_p99_ms.{name}", percentile(rate.latency_ms, 0.99), "ms"),
            (f"offered_rps.{name}", rate.rate, "1/s"),
            (f"requests.{name}", len(rate.latency_ms), "count"),
        ]
    rows.append(("ask_goodput_rps", _goodput(phase.rates["high"]), "1/s"))
    rows.append(("p99_limit_ms", P99_LIMIT_MS, "ms"))
    return rows


def per_layer(rig: Rig, phase: Phase) -> dict:
    out = {}
    for name, rate in phase.rates.items():
        out[f"loadgen.ask_p50_ms.{name}"] = percentile(rate.latency_ms, 0.5)
        out[f"loadgen.ask_p99_ms.{name}"] = percentile(rate.latency_ms, 0.99)
        out[f"loadgen.lag_p99_ms.{name}"] = percentile(rate.lag_ms, 0.99)
        out[f"loadgen.backlog_max.{name}"] = rate.backlog_max
        out[f"loadgen.backlog_end.{name}"] = rate.backlog_end
    out["loadgen.lag_p99_ms"] = percentile(
        [ms for rate in phase.rates.values() for ms in rate.lag_ms], 0.99
    )
    return out


def attempted(phase: Phase) -> "tuple[int, int]":
    """(requests sent, requests answered with an error)."""
    results = [r for rate in phase.rates.values() for _, r in rate.results]
    return len(results), sum(r.error is not None for r in results)


def close(rig: Rig) -> None:
    rig.gateway.close()
