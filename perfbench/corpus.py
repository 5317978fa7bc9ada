"""``route_corpus`` and ``live_corpus``: corpus question answering.

Both run over one rig: a 1024-page store (4 domains x 256 pages) with
its inverted index, 25 task routes fitted at a small scale (4 pages,
2 labels, ensemble 20, dataset seed 0) and a 2-shard gateway.

* ``route_corpus``: one client in a closed loop sends a seeded uniform
  stream of ``ask_corpus(route, top_k=16)`` calls over the 25 routes.
* ``live_corpus``: the same reads, while a second thread feeds another
  seeded page's content under an existing url at a fixed rate.  One
  route per domain is tracked, and every eighth feed lands on a page
  such a route was fitted on, so it refits warm and hot-swaps.
"""

from __future__ import annotations

import os
import random
import threading
import time
from dataclasses import dataclass, field

from common import mean, now, percentile

SETUPS = 2
FRESH_RIG_PER_PHASE = False
PAGES_PER_DOMAIN = 256
TOP_K = 16
#: Feeds per second on ``live_corpus``.
FEED_RATE = 1.0
#: Generator seed of the first fed page's content.
FED_CONTENT_SEED = 100_000
#: Every this-many-th feed rewrites a page a tracked route was fitted
#: on.  A refit re-runs synthesis on the feeder thread; more of them
#: make the read figures follow the machine's speed more than the reads.
REFIT_EVERY = 8
#: Pages of a tracked route's task (its labeled and unlabeled pages are
#: the generator's seeds 0..3 of its domain).
TRACKED_PAGES = 4
#: A read that finds the index one generation behind the store retries
#: after this pause (see ``_ask``).
RETRY_PAUSE_S = 0.001
RETRY_LIMIT_S = 5.0


class GoldBook:
    """Gold answers of generated corpus pages, for answer-quality F1.

    Pages are keyed by their serving fingerprint.  A page's gold comes
    from the domain generator that made it; a page of another domain
    than the task's has no gold answer (``()``).
    """

    def __init__(self) -> None:
        #: fingerprint -> (domain, generator seed)
        self._origin: "dict[str, tuple[str, int]]" = {}
        self._gold: "dict[tuple[str, int], dict]" = {}
        self._f1: "dict[tuple, float]" = {}

    def add(self, fingerprint: str, domain: str, seed: int) -> None:
        self._origin[fingerprint] = (domain, seed)

    def add_url(self, fingerprint: str, url: str) -> None:
        """Register a store page by its ``https://example.org/<domain>/<seed>`` url."""
        domain, seed = url.rstrip("/").split("/")[-2:]
        self.add(fingerprint, domain, int(seed))

    def known(self, fingerprint: str) -> bool:
        return fingerprint in self._origin

    def gold(self, fingerprint: str, task_id: str) -> "tuple[str, ...]":
        from repro.dataset.corpus import generate_page

        origin = self._origin[fingerprint]
        if origin not in self._gold:
            self._gold[origin] = generate_page(*origin).gold
        return self._gold[origin].get(task_id, ())

    def f1(self, answer, fingerprint: str, task_id: str) -> float:
        from repro.metrics.scores import score_examples

        gold = self.gold(fingerprint, task_id)
        key = (tuple(answer), gold)
        if key not in self._f1:
            self._f1[key] = score_examples([(tuple(answer), gold)]).f1
        return self._f1[key]


@dataclass
class Rig:
    seed: int
    live: bool
    gateway: object
    routes: "list[str]"
    gold: GoldBook
    corpus: "object | None" = None
    #: (url, html, domain, content seed) of every planned feed.
    feeds: "list[tuple[str, str, str, int]]" = field(default_factory=list)


@dataclass
class Phase:
    op_ms: "list[float]" = field(default_factory=list)
    #: (route, CorpusAnswer) per completed read.
    answers: list = field(default_factory=list)
    errors: "list[str]" = field(default_factory=list)
    retries: int = 0
    feed_ms: "list[float]" = field(default_factory=list)
    feed_reports: list = field(default_factory=list)
    feed_errors: "list[str]" = field(default_factory=list)
    elapsed: float = 0.0


def setup(
    seed: int, workdir: str, seconds: float, phases: int, live: bool = False
) -> Rig:
    from repro.core.webqa import WebQA
    from repro.dataset.corpus import DOMAINS, _cached_domain_corpus, generate_page
    from repro.dataset.corpus import load_task_dataset
    from repro.dataset.tasks import TASKS, tasks_for_domain
    from repro.experiments.common import clear_process_caches
    from repro.retrieval.index import build_corpus_index
    from repro.serving.corpus import build_dataset_store
    from repro.serving.gateway import ServingGateway

    clear_process_caches()
    _cached_domain_corpus.cache_clear()
    os.makedirs(workdir, exist_ok=True)
    path = os.path.join(workdir, "corpus.rpw")
    build_dataset_store(path, pages_per_domain=PAGES_PER_DOMAIN)
    build_corpus_index(path)
    tools, datasets = {}, {}
    for task in TASKS:
        dataset = load_task_dataset(
            task, n_pages=4, n_train=2, seed=0, use_label_suggestions=False
        )
        tools[task.task_id] = WebQA(ensemble_size=20).fit(
            task.question,
            task.keywords,
            list(dataset.train),
            list(dataset.test_pages),
            dataset.models,
        )
        datasets[task.task_id] = dataset
    gateway = ServingGateway(shards=2, store=path)
    for route, tool in tools.items():
        gateway.register(route, tool)
    gold = GoldBook()
    for fingerprint in gateway.store.fingerprints():
        gold.add_url(fingerprint, gateway.store.entry(fingerprint)["url"])
    rig = Rig(
        seed=seed, live=live, gateway=gateway, routes=sorted(tools), gold=gold,
    )
    if live:
        from repro.serving.live import LiveCorpus

        rig.corpus = LiveCorpus(gateway)
        for domain in DOMAINS:
            route = tasks_for_domain(domain)[0].task_id
            rig.corpus.track(
                route,
                tools[route].session,
                list(datasets[route].test_pages),
                ensemble_size=20,
            )
        # Every seed feeds the same contents in the same pattern: every
        # REFIT_EVERY-th feed rewrites a tracked route's page, the
        # domains in turn, starting with its labeled pages (so the refit
        # re-solves synthesis blocks); the seed picks which untracked
        # urls the other feeds rewrite.
        rng = random.Random(f"live_corpus:{seed}")
        for index in range(int(FEED_RATE * seconds * phases) + 8):
            domain = DOMAINS[index % len(DOMAINS)]
            page = rng.randrange(TRACKED_PAGES, PAGES_PER_DOMAIN)
            if index % REFIT_EVERY == 0:
                turn = index // REFIT_EVERY
                domain = DOMAINS[turn % len(DOMAINS)]
                page = (turn // len(DOMAINS)) % TRACKED_PAGES
            content = FED_CONTENT_SEED + index
            html = generate_page(domain, content).html
            url = f"https://example.org/{domain}/{page}"
            rig.feeds.append((url, html, domain, content))
    # Lazy set-up users pay once: the first query of each route.
    for route in rig.routes:
        gateway.ask_corpus(route, top_k=TOP_K)
    return rig


def _ask(rig: Rig, route: str, phase: Phase):
    """One routed read; retries while the index trails a feed's publish.

    A feed publishes the store generation before the index generation,
    and ``ask_corpus`` refuses (``IngestError``: index is stale) a read
    that lands between the two.  The read is retried; the retries are
    counted, and their wait is part of the read's latency.
    """
    from repro.core.errors import IngestError

    deadline = now() + RETRY_LIMIT_S
    while True:
        try:
            return rig.gateway.ask_corpus(route, top_k=TOP_K)
        except (IngestError, KeyError) as error:
            if not rig.live or now() > deadline:
                raise
            if isinstance(error, IngestError) and "stale" not in str(error):
                raise
            phase.retries += 1
            time.sleep(RETRY_PAUSE_S)


def _route_stream(rig: Rig):
    """Uniform over the routes, in rounds: each round asks every route
    once, in a seeded order, so every seed sends the same mix."""
    rng = random.Random(f"{'live' if rig.live else 'route'}_corpus:{rig.seed}")
    while True:
        round_ = rig.routes[:]
        rng.shuffle(round_)
        yield from round_


def _reads(rig: Rig, seconds: float, phase: Phase, tracer) -> None:
    stream = _route_stream(rig)
    started = now()
    while now() - started < seconds:
        route = next(stream)
        op = tracer.op("ask_corpus") if tracer else None
        begin = now()
        try:
            answer = _ask(rig, route, phase)
        except Exception as error:
            phase.errors.append(f"{route}: {error!r}")
            continue
        finally:
            if op is not None:
                tracer.end_op(op)
        phase.op_ms.append((now() - begin) * 1e3)
        phase.answers.append((route, answer))
    phase.elapsed = now() - started


def _feeder(rig: Rig, seconds: float, phase: Phase, stop, tracer) -> None:
    from repro.serving.ingest import page_fingerprint

    started = now()
    interval = 1.0 / FEED_RATE
    for index, (url, html, domain, content) in enumerate(rig.feeds):
        due = started + index * interval
        if due - started >= seconds or stop.wait(max(0.0, due - now())):
            return
        rig.gold.add(page_fingerprint(html, url), domain, content)
        op = tracer.op("feed") if tracer else None
        begin = now()
        try:
            report = rig.corpus.feed(html, url=url)
        except Exception as error:
            phase.feed_errors.append(f"feed {url}: {error!r}")
            continue
        finally:
            if op is not None:
                tracer.end_op(op)
        phase.feed_ms.append((now() - begin) * 1e3)
        phase.feed_reports.append((url, html, report))


def measure(rig: Rig, seconds: float, tracer=None) -> Phase:
    phase = Phase()
    if not rig.live:
        _reads(rig, seconds, phase, tracer)
        return phase
    stop = threading.Event()
    feeder = threading.Thread(
        target=_feeder, args=(rig, seconds, phase, stop, tracer),
        name="bench-feeder",
    )
    feeder.start()
    try:
        _reads(rig, seconds, phase, tracer)
    finally:
        stop.set()
        feeder.join()
    # The next phase feeds the pages after the ones fed here.
    del rig.feeds[: len(phase.feed_reports) + len(phase.feed_errors)]
    return phase


def _same(a, b) -> bool:
    return (
        a.answer == b.answer
        and a.fingerprint == b.fingerprint
        and a.url == b.url
        and a.score == b.score
        and a.support == b.support
        and a.candidates == b.candidates
    )


def verify(rig: Rig, phases: "list[Phase]") -> "list[str]":
    """Routed answers must equal the exhaustive scan's, bit for bit.

    ``route_corpus``: every read against the exhaustive answer of its
    route.  ``live_corpus``: after the last feed, the routed answer of
    every route against the exhaustive one on the final generation, and
    every fed url resolves to the content fed last.
    """
    gateway = rig.gateway
    problems = [e for phase in phases for e in phase.errors + phase.feed_errors]
    if rig.live:
        for route in rig.routes:
            routed = gateway.ask_corpus(route, top_k=TOP_K)
            exhaustive = gateway.ask_corpus(route, top_k=TOP_K, exhaustive=True)
            if not _same(routed, exhaustive):
                problems.append(f"{route}: routed != exhaustive after feeds")
        problems += _check_fed_urls(rig, phases)
        return problems
    exhaustive = {}
    for phase in phases:
        for route, answer in phase.answers:
            if route not in exhaustive:
                exhaustive[route] = gateway.ask_corpus(
                    route, top_k=TOP_K, exhaustive=True
                )
            if not _same(answer, exhaustive[route]):
                problems.append(f"{route}: routed != exhaustive")
    return problems


def _check_fed_urls(rig: Rig, phases: "list[Phase]") -> "list[str]":
    from repro.serving.ingest import ingest_html, page_fingerprint

    store = rig.gateway.store
    latest = {}
    for phase in phases:
        for url, html, _ in phase.feed_reports:
            latest[url] = html
    live_by_url: "dict[str, list[str]]" = {}
    for fingerprint in store.fingerprints():
        url = store.entry(fingerprint)["url"]
        if url in latest:
            live_by_url.setdefault(url, []).append(fingerprint)
    problems = []
    for url, html in latest.items():
        expected = page_fingerprint(html, url)
        if live_by_url.get(url) != [expected]:
            problems.append(f"{url}: store holds {live_by_url.get(url)}, not {expected}")
            continue
        page, _ = store.load(expected)
        if page.root.subtree_text() != ingest_html(html, url=url).root.subtree_text():
            problems.append(f"{url}: stored page differs from the fed content")
    return problems


def end_to_end(rig: Rig, phase: Phase) -> dict:
    """``f1_mean`` averages over distinct (route, answering page) pairs."""
    f1 = {
        (route, answer.fingerprint): rig.gold.f1(answer.answer, answer.fingerprint, route)
        for route, answer in phase.answers
        if answer.fingerprint is not None and rig.gold.known(answer.fingerprint)
    }
    return {
        "latency_p50_ms": percentile(phase.op_ms, 0.5),
        "throughput_per_s": len(phase.op_ms) / phase.elapsed if phase.elapsed else 0.0,
        "f1_mean": mean(f1.values()),
    }


def report(rig: Rig, phase: Phase) -> "list[tuple[str, float, str]]":
    e2e = end_to_end(rig, phase)
    rows = [
        ("ask_corpus_p50_ms", e2e["latency_p50_ms"], "ms"),
        ("ask_corpus_p99_ms", percentile(phase.op_ms, 0.99), "ms"),
        ("ask_corpus_qps", e2e["throughput_per_s"], "1/s"),
        ("ask_corpus_samples", len(phase.op_ms), "count"),
    ]
    if rig.live:
        rows += [
            ("feed_p50_ms", percentile(phase.feed_ms, 0.5), "ms"),
            ("feeds", len(phase.feed_ms), "count"),
            ("stale_read_retries", phase.retries, "count"),
        ]
    return rows


def per_layer(rig: Rig, phase: Phase) -> dict:
    swaps = [swap for _, _, report in phase.feed_reports for swap in report.swaps]
    return {
        "serving.live.feed_ms_p50": percentile(phase.feed_ms, 0.5),
        "serving.live.refit_ms": mean(s.refit_seconds * 1e3 for s in swaps),
        "serving.live.swaps": sum(s.swapped for s in swaps),
        "serving.live.rollbacks": sum(not s.swapped for s in swaps),
        "serving.live.read_retries": phase.retries,
    }


def attempted(phase: Phase) -> "tuple[int, int]":
    """(operations attempted, operations that raised)."""
    failed = len(phase.errors) + len(phase.feed_errors)
    return len(phase.op_ms) + len(phase.feed_ms) + failed, failed


def close(rig: Rig) -> None:
    if rig.corpus is not None:
        rig.corpus.drain()
    rig.gateway.close()
