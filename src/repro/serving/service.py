"""QAService: route questions to program artifacts, micro-batch, predict.

The production front of the reproduction (ROADMAP north star): a
long-lived process that answers extraction requests for *many* tasks at
once.  One :class:`QAService` owns

* a **routing table** — routing key (task id, attribute name, anything)
  → a serving-only :class:`~repro.core.webqa.WebQA` loaded from a
  :class:`~repro.core.artifact.ProgramArtifact`.  Each route's tool is
  **versioned** (artifact sha256) and hot-swappable under an
  epoch/refcount protocol: re-registering a live route installs the new
  tool atomically while in-flight requests drain on the version they
  pinned, and :meth:`QAService.rollback` restores the previous version
  the same way — the backbone of live-corpus refits
  (:mod:`repro.serving.live`).  The table lives on a
  :class:`_ControlPlane` that :meth:`QAService.replica` shares, so the
  shards of a :class:`~repro.serving.gateway.ServingGateway` serve one
  table rather than N copies of it;
* the **ingestion pipeline** — one shared
  :class:`~repro.serving.ingest.PageCache`, so every route benefits from
  every other route's parsed pages;
* the **dispatch loop** — incoming requests are coalesced per route into
  micro-batches of at most ``max_batch`` pages and dispatched through
  the service's persistent :class:`~repro.runtime.TaskRunner` pool;
* **per-stage statistics** — ingest/predict latency, batch counts and
  sizes, cache hit rates, per-route request counters, and the
  resilience counters (retries, failures by stage, rejections, pool
  rebuilds).

Semantics are deliberately boring: answers come back in request order
and are bit-identical to calling ``tool.predict`` sequentially per page
(pinned by the differential tests in ``tests/serving/test_service.py``);
the batching exists for throughput, never for approximation.

Fault tolerance (PR 6) — the failure model, end to end:

* **Per-request isolation.**  Every request is served in its own
  slot: ``ask_many(strict=False)`` returns one :class:`ServingResult`
  per request — answer *or* structured
  :class:`~repro.core.errors.ServingError` — so one poisoned page
  cannot fail the 31 good requests sharing its micro-batch.  The
  default ``strict=True`` is the same isolated call, then a projection
  (:func:`_answers`, shared with the gateway): the lowest-index
  error raises, else the plain answers come back.  Strict failures are
  therefore counted by the circuit breakers and :class:`ServiceStats`
  exactly like isolated ones.
* **Deadlines.**  A per-call (or service-default) ``deadline_seconds``
  bounds the *whole* request path; work that misses it fails with
  :class:`~repro.core.errors.DeadlineExceeded` rather than wedging the
  caller.  Completed answers are never discarded by a deadline.
* **Bounded retry.**  Transient failures (crashed workers, injected
  recoverable faults) are retried up to
  :attr:`RetryPolicy.max_retries` times with exponential backoff and
  *deterministic* jitter; terminal failures are never retried.
* **Pool self-healing.**  A worker crash breaks the persistent pool;
  the :class:`~repro.runtime.TaskRunner` discards it and the retry
  lands on a freshly built pool (``pools_broken`` counts these).
* **Admission control.**  ``max_inflight`` bounds concurrently served
  requests; overflow is shed instantly with
  :class:`~repro.core.errors.RejectedError` — an overloaded service
  stays responsive *because* it refuses work.  A per-route
  :class:`CircuitBreaker` sheds requests for routes that keep failing
  (closed → open after ``circuit_threshold`` consecutive failures →
  half-open probe after ``circuit_reset_seconds`` → closed on success).
* **Graceful degradation.**  Hostile pages are ingested under
  :class:`~repro.serving.ingest.ServingLimits` (bounded parse, flagged
  ``degraded``), and a failing *compiled* plan falls back to the AST
  interpreter (same program, same answer, flagged ``degraded``).

Chaos testing hooks: a :class:`~repro.serving.faults.FaultInjector`
passed at construction injects the deterministic failures the whole
model is tested against (``tests/serving/test_faults.py``).
"""

from __future__ import annotations

import copy
import os
import random
import threading
import time
from concurrent.futures import BrokenExecutor
from concurrent.futures import TimeoutError as FuturesTimeout
from dataclasses import dataclass, field
from functools import partial

from ..core.artifact import ProgramArtifact
from ..core.errors import (
    DeadlineExceeded,
    IngestError,
    NotFittedError,
    PredictError,
    RejectedError,
    RouteError,
    ServingError,
    is_transient,
)
from ..core.webqa import WebQA
from ..nlp.vocab import IdfModel
from ..retrieval.index import CorpusIndexReader, page_text
from ..retrieval.router import (
    DEFAULT_TOP_K,
    CorpusAnswer,
    build_answer,
    cut_top_k,
    query_terms,
    scan_scores,
)
from ..runtime.runner import TaskRunner
from ..webtree.generations import read_manifest
from ..webtree.node import WebPage
from ..webtree.store import CorpusStoreReader
from .faults import FaultInjector, FaultPlan
from .ingest import DEFAULT_LIMITS, IngestOutcome, PageCache, ServingLimits, ingest_page


@dataclass(frozen=True)
class ServingRequest:
    """One unit of incoming work: a routing key plus a page.

    Exactly one of ``html`` / ``page`` is set: raw HTML goes through the
    ingestion pipeline (and its cache); an already-parsed
    :class:`WebPage` skips it, for callers that manage pages themselves.
    """

    route: str
    html: str | None = None
    page: WebPage | None = None
    url: str = ""

    def __post_init__(self) -> None:
        if (self.html is None) == (self.page is None):
            raise ValueError("exactly one of html/page must be provided")

    @classmethod
    def of(cls, request: "ServingRequest | tuple") -> "ServingRequest":
        """Accept a request or a ``(route, html[, url])`` tuple."""
        if isinstance(request, cls):
            return request
        return cls(
            route=request[0],
            html=request[1],
            url=request[2] if len(request) > 2 else "",
        )


@dataclass
class ServingResult:
    """The structured outcome of one request under ``strict=False``.

    Exactly one of :attr:`answer` / :attr:`error` is set.  The rest is
    provenance an operator needs when triaging: where the page came from
    (fingerprint, cache hit), whether any degradation fired (bounded
    parse, interpreter fallback), and how much the request cost
    (retries, per-stage seconds).
    """

    route: str
    answer: "tuple[str, ...] | None" = None
    error: ServingError | None = None
    fingerprint: str = ""
    #: Bounded-parse ingest or interpreter-fallback predict fired.
    degraded: bool = False
    cache_hit: bool = False
    #: Retry attempts spent across ingest and predict.
    retries: int = 0
    ingest_seconds: float = 0.0
    predict_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return self.error is None

    def as_dict(self) -> dict:
        return {
            "route": self.route,
            "ok": self.ok,
            "answer": list(self.answer) if self.answer is not None else None,
            "error": self.error.as_dict() if self.error is not None else None,
            "fingerprint": self.fingerprint,
            "degraded": self.degraded,
            "cache_hit": self.cache_hit,
            "retries": self.retries,
            "ingest_seconds": self.ingest_seconds,
            "predict_seconds": self.predict_seconds,
        }


def _answers(results: "list[ServingResult]") -> "list[tuple[str, ...]]":
    """The ``strict=True`` projection of isolated results, for every front end.

    The lowest-index error raises, else the plain answers come back —
    deterministic whatever order the stages (or the shards) failed in.
    """
    for result in results:
        if result.error is not None:
            raise result.error
    return [result.answer for result in results]


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff with deterministic jitter.

    ``delay`` is a pure function of ``(policy, attempt, key)`` — the
    jitter comes from a ``random.Random`` seeded with both, so two runs
    of the same chaos plan back off identically (real-clock *sleeps*
    still vary; the decision sequence does not).  The defaults are
    test-friendly small; production callers tune ``backoff_seconds`` to
    their downstream costs.
    """

    #: Retries per request per stage (0 disables retrying entirely).
    max_retries: int = 2
    backoff_seconds: float = 0.01
    backoff_factor: float = 2.0
    max_backoff_seconds: float = 0.25
    #: Fraction of the backoff randomly shaved off (0 = no jitter).
    jitter: float = 0.5
    seed: int = 0

    def delay(self, attempt: int, key: str = "") -> float:
        base = min(
            self.backoff_seconds * self.backoff_factor ** max(0, attempt),
            self.max_backoff_seconds,
        )
        if not self.jitter or base <= 0:
            return base
        rng = random.Random(f"retry:{self.seed}:{key}:{attempt}")
        return base * (1.0 - self.jitter * rng.random())


#: A retry policy that never retries — for tests pinning first-failure paths.
NO_RETRY = RetryPolicy(max_retries=0, backoff_seconds=0.0, jitter=0.0)

_NO_STORE = "ask_corpus needs a corpus store; construct the service with store=..."


class CircuitBreaker:
    """Per-route failure breaker: closed → open → half-open → closed.

    ``threshold`` *consecutive* failures open the circuit; while open,
    :meth:`allow` refuses instantly (the route sheds load instead of
    burning pool time on a failing artifact).  After ``reset_seconds``
    the next :meth:`allow` admits exactly one probe (half-open); its
    success re-closes the circuit, its failure re-opens the clock.

    ``clock`` is injectable so tests drive the state machine without
    sleeping.  All transitions happen under one lock — the breaker is
    shared by every thread serving its route.
    """

    def __init__(
        self,
        threshold: int = 5,
        reset_seconds: float = 30.0,
        clock=time.monotonic,
    ) -> None:
        if threshold < 1:
            raise ValueError(f"threshold must be >= 1, got {threshold}")
        self.threshold = threshold
        self.reset_seconds = reset_seconds
        self._clock = clock
        self._lock = threading.Lock()
        self._state = "closed"
        self._consecutive_failures = 0
        self._opened_at = 0.0

    @property
    def state(self) -> str:
        with self._lock:
            return self._state

    def allow(self) -> bool:
        """May a request proceed?  Admitting the probe is a side effect."""
        with self._lock:
            if self._state == "closed":
                return True
            if (
                self._state == "open"
                and self._clock() - self._opened_at >= self.reset_seconds
            ):
                self._state = "half_open"
                return True
            # Open and still cooling, or a half-open probe is in flight.
            return False

    def record_success(self) -> None:
        with self._lock:
            self._state = "closed"
            self._consecutive_failures = 0

    def record_failure(self) -> None:
        with self._lock:
            self._consecutive_failures += 1
            if (
                self._state == "half_open"
                or self._consecutive_failures >= self.threshold
            ):
                self._state = "open"
                self._opened_at = self._clock()


class _Deadline:
    """An absolute wall for one ``ask_many`` call (monotonic clock)."""

    __slots__ = ("at", "seconds", "started")

    def __init__(self, seconds: "float | None") -> None:
        self.seconds = seconds or 0.0
        self.started = time.monotonic()
        self.at = self.started + seconds if seconds is not None else None

    def passed(self) -> bool:
        return self.at is not None and time.monotonic() > self.at

    def remaining(self) -> "float | None":
        if self.at is None:
            return None
        return max(0.0, self.at - time.monotonic())

    def elapsed(self) -> float:
        return time.monotonic() - self.started


@dataclass
class ServiceStats:
    """Counters and stage timings for one :class:`QAService`.

    Mutations go through the record methods, which serialize concurrent
    callers (one service instance legitimately serves many threads).
    """

    requests: int = 0
    batches: int = 0
    max_batch_size: int = 0
    #: *Busy* seconds summed per call — with concurrent callers these
    #: overlap in wall-clock, so they measure work done, never elapsed
    #: time (see :meth:`throughput` vs :meth:`busy_throughput`).
    ingest_seconds: float = 0.0
    predict_seconds: float = 0.0
    #: Monotonic activity window across every recorded call: earliest
    #: call start and latest call end.  ``requests / span`` is honest
    #: wall-clock throughput even when calls overlap.
    span_started: "float | None" = None
    span_ended: "float | None" = None
    requests_by_route: dict[str, int] = field(default_factory=dict)
    # -- resilience counters (PR 6) --------------------------------------
    retries: int = 0
    failures: int = 0
    failures_by_stage: dict[str, int] = field(default_factory=dict)
    rejected: int = 0
    deadline_exceeded: int = 0
    degraded: int = 0
    #: Broken worker pools discarded and rebuilt (mirrors the runner).
    pools_broken: int = 0
    #: Live-route tool hot-swaps (re-register / live-corpus refit).
    #: This and ``rollbacks`` count route-table events, so only the
    #: service that owns the control plane records them, never a replica.
    hot_swaps: int = 0
    #: Refit outcomes rejected in favour of the serving version
    #: (failure, deadline, held-out regression) plus explicit rollbacks.
    rollbacks: int = 0
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def record_batch(self, size: int) -> None:
        with self._lock:
            self.batches += 1
            self.max_batch_size = max(self.max_batch_size, size)

    def record_requests(
        self,
        count: int,
        by_route: dict[str, int],
        ingest_seconds: float,
        predict_seconds: float,
        started: "float | None" = None,
        ended: "float | None" = None,
    ) -> None:
        """Fold one ``ask_many`` call's counters in atomically.

        ``started``/``ended`` are the call's monotonic wall-clock
        bounds; they extend the stats-wide activity span, which is kept
        *separately* from the per-stage busy seconds — concurrent calls
        overlap in wall-clock, so summing their stage seconds would
        over-report elapsed time (the pre-gateway accounting bug).
        """
        with self._lock:
            self.requests += count
            self.ingest_seconds += ingest_seconds
            self.predict_seconds += predict_seconds
            if started is not None:
                self.span_started = (
                    started
                    if self.span_started is None
                    else min(self.span_started, started)
                )
            if ended is not None:
                self.span_ended = (
                    ended
                    if self.span_ended is None
                    else max(self.span_ended, ended)
                )
            for route, route_count in by_route.items():
                self.requests_by_route[route] = (
                    self.requests_by_route.get(route, 0) + route_count
                )

    def record_results(self, results: "list[ServingResult]") -> None:
        """Fold one call's per-request outcomes into the resilience counters."""
        with self._lock:
            for result in results:
                self.retries += result.retries
                if result.degraded:
                    self.degraded += 1
                error = result.error
                if error is None:
                    continue
                self.failures += 1
                self.failures_by_stage[error.stage] = (
                    self.failures_by_stage.get(error.stage, 0) + 1
                )
                if isinstance(error, RejectedError):
                    self.rejected += 1
                if isinstance(error, DeadlineExceeded):
                    self.deadline_exceeded += 1

    def set_pools_broken(self, count: int) -> None:
        with self._lock:
            self.pools_broken = count

    def record_swap(self) -> None:
        with self._lock:
            self.hot_swaps += 1

    def record_rollback(self) -> None:
        with self._lock:
            self.rollbacks += 1

    def mean_batch_size(self) -> float:
        return self.requests / self.batches if self.batches else 0.0

    def busy_seconds(self) -> float:
        """Work done across all callers (stage seconds; overlaps sum)."""
        return self.ingest_seconds + self.predict_seconds

    def span_seconds(self) -> float:
        """Wall-clock activity window: first call start → last call end."""
        if self.span_started is None or self.span_ended is None:
            return 0.0
        return max(0.0, self.span_ended - self.span_started)

    def throughput(self) -> float:
        """Answered pages per *wall-clock* second over the activity span.

        Falls back to the busy-time rate when no span was recorded
        (stats populated by hand, e.g. in unit tests).
        """
        span = self.span_seconds()
        if span > 0:
            return self.requests / span
        return self.busy_throughput()

    def busy_throughput(self) -> float:
        """Pages per second of *busy* time (ingest + predict work done).

        With one caller this equals wall-clock throughput; with N
        concurrent callers the busy seconds overlap and this measures
        per-lane service rate, not aggregate QPS — use
        :meth:`throughput` for capacity claims.
        """
        busy = self.busy_seconds()
        return self.requests / busy if busy > 0 else 0.0

    def as_dict(self) -> dict:
        return {
            "requests": self.requests,
            "batches": self.batches,
            "mean_batch_size": round(self.mean_batch_size(), 2),
            "max_batch_size": self.max_batch_size,
            "ingest_seconds": self.ingest_seconds,
            "predict_seconds": self.predict_seconds,
            "busy_seconds": self.busy_seconds(),
            "span_seconds": self.span_seconds(),
            "throughput_pages_per_s": round(self.throughput(), 2),
            "busy_pages_per_s": round(self.busy_throughput(), 2),
            "requests_by_route": dict(self.requests_by_route),
            "retries": self.retries,
            "failures": self.failures,
            "failures_by_stage": dict(self.failures_by_stage),
            "rejected": self.rejected,
            "deadline_exceeded": self.deadline_exceeded,
            "degraded": self.degraded,
            "pools_broken": self.pools_broken,
            "hot_swaps": self.hot_swaps,
            "rollbacks": self.rollbacks,
        }


class _ToolVersion:
    """One published ``(tool, version)`` pair with its in-flight refcount.

    Refcounts are mutated only under the owning :class:`_RouteState`
    lock; the ``tool``/``version``/``epoch`` fields are immutable after
    construction, so a pinned holder may read them lock-free.
    """

    __slots__ = ("tool", "version", "epoch", "refs")

    def __init__(self, tool: WebQA, version: str, epoch: int) -> None:
        self.tool = tool
        self.version = version
        self.epoch = epoch
        self.refs = 0


class _RouteState:
    """Everything one route owns, swapped as a unit — never piecewise.

    The epoch/refcount hot-swap protocol: a serving call :meth:`pin`\\ s
    the current :class:`_ToolVersion` once (incrementing its refcount)
    and serves the whole call from that pin, so a concurrent
    :meth:`swap` can never change the tool underneath a half-dispatched
    batch.  ``swap`` installs a fresh version under the next epoch;
    the retired version keeps serving its pinned calls and *drains* —
    it leaves the draining list when its last pin is released.  The
    circuit breaker and the route's request counters live here, not on
    the version, so a swap never resets them.
    """

    __slots__ = ("breaker", "epoch", "current", "previous", "_draining", "_lock")

    def __init__(self, tool: WebQA, version: str, breaker: CircuitBreaker) -> None:
        self.breaker = breaker
        self.epoch = 0
        self.current = _ToolVersion(tool, version, 0)
        self.previous: "_ToolVersion | None" = None
        self._draining: "list[_ToolVersion]" = []
        self._lock = threading.Lock()

    def pin(self) -> _ToolVersion:
        """Take a reference on the current version (release when done)."""
        with self._lock:
            version = self.current
            version.refs += 1
            return version

    def release(self, version: _ToolVersion) -> None:
        with self._lock:
            version.refs -= 1
            if version.refs == 0 and version is not self.current:
                try:
                    self._draining.remove(version)
                except ValueError:
                    pass

    def swap(self, tool: WebQA, version: str) -> _ToolVersion:
        """Install a new current version; returns the retired one."""
        with self._lock:
            retired = self.current
            self.epoch += 1
            self.current = _ToolVersion(tool, version, self.epoch)
            self.previous = retired
            if retired.refs > 0:
                self._draining.append(retired)
            return retired

    def rollback(self) -> "_ToolVersion | None":
        """Re-install the previously served version (a fresh epoch)."""
        with self._lock:
            restored = self.previous
            if restored is None:
                return None
            retired = self.current
            self.epoch += 1
            self.current = _ToolVersion(restored.tool, restored.version, self.epoch)
            self.previous = retired
            if retired.refs > 0:
                self._draining.append(retired)
            return self.current

    def drained(self) -> bool:
        """True when no retired version still serves an in-flight call."""
        with self._lock:
            return not self._draining


def _predict_page(payload: tuple) -> "tuple[tuple[str, ...], bool]":
    """Answer one page; module-level so process pools can pickle it.

    Returns ``(answer, degraded)``.  The fault hook runs first (it may
    raise, sleep, or kill the worker — that is its job); an organic
    *compiled*-plan failure falls back to the AST interpreter, which
    evaluates the same program over the same eval state — a correct
    answer on the slow path beats no answer, and the ``degraded`` flag
    keeps the downgrade observable.
    """
    tool, page, index, attempt, injector, allow_exit = payload
    if injector is not None:
        injector.before_predict(index, attempt, allow_exit=allow_exit)
        if injector.breaks_compiled(index):
            return tool.predict_interpreted(page), True
    try:
        return tool.predict(page), False
    except (NotFittedError, ServingError):
        raise
    except Exception:
        return tool.predict_interpreted(page), True


class _ControlPlane:
    """The state every shard of one front end shares, held exactly once.

    A standalone :class:`QAService` owns one; the N shards of a
    :class:`~repro.serving.gateway.ServingGateway` share one
    (:meth:`QAService.replica`).  It holds the route table — one
    :class:`_RouteState` per route, so a register or rollback is a
    single atomic transition however many shards serve the route, and
    one circuit breaker counts failures wherever they land — plus the
    attached live corpus, the fault injector and the lazily opened
    corpus index with its scan-IDF cache.  What sharding partitions
    (page cache, worker pool, request counters, admission) stays on
    each shard.
    """

    def __init__(
        self,
        stats: ServiceStats,
        injector: "FaultInjector | None",
        new_breaker,
    ) -> None:
        #: The owning service's stats: hot-swaps and rollbacks are
        #: route-table events, counted here once for every shard.
        self.stats = stats
        self.injector = injector
        self.new_breaker = new_breaker
        self.routes: dict[str, _RouteState] = {}
        self.live: "object | None" = None
        self.corpus_index: "CorpusIndexReader | None" = None
        self.scan_idf_cache: "tuple[int, IdfModel] | None" = None
        #: Serializes route-table mutation and the index's lazy open.
        #: Reentrant: a failed lookup under it lists the routes.
        self.lock = threading.RLock()


class _RouteControl:
    """The control-plane API both front ends expose over ``self.control``.

    :class:`QAService` and :class:`~repro.serving.gateway.ServingGateway`
    inherit these operations unchanged: each is one call on the shared
    :class:`_ControlPlane`, so a gateway never loops over its shards to
    keep them in step — there is nothing per shard to keep in step.
    """

    control: _ControlPlane

    def register(
        self,
        route: str,
        source: "WebQA | ProgramArtifact | str",
        version: "str | None" = None,
    ) -> WebQA:
        """Bind ``route`` to an artifact (object or path) or a fitted tool.

        Artifacts are loaded through :meth:`WebQA.from_artifact` (no
        synthesis); an already-constructed tool must be serving-capable,
        otherwise :class:`NotFittedError` surfaces immediately at
        registration instead of on the first request.

        Re-registering a live route is an atomic **hot-swap**: requests
        already in flight drain on the version they pinned, new requests
        see the new tool, and the route's circuit breaker state and
        request counters carry over untouched.  ``version`` defaults to
        the artifact's sha256 ``fingerprint()`` when the source carries
        one ("" otherwise); live-corpus refits always pass it.
        """
        if isinstance(source, WebQA):
            tool = source
            if tool._compiled is None or tool._contexts is None:
                raise NotFittedError(f"registering route {route!r}")
        else:
            tool = WebQA.from_artifact(source)
        if version is None:
            version = (
                tool.artifact.fingerprint() if tool.artifact is not None else ""
            )
        control = self.control
        with control.lock:
            state = control.routes.get(route)
            if state is None:
                control.routes[route] = _RouteState(
                    tool, version, control.new_breaker()
                )
                control.stats.requests_by_route.setdefault(route, 0)
                return tool
            state.swap(tool, version)
        control.stats.record_swap()
        return tool

    def unregister(self, route: str) -> None:
        with self.control.lock:
            self._state(route)
            del self.control.routes[route]

    def routes(self) -> tuple[str, ...]:
        with self.control.lock:
            return tuple(sorted(self.control.routes))

    def _state(self, route: str) -> _RouteState:
        state = self.control.routes.get(route)
        if state is None:
            raise RouteError(
                f"unknown route {route!r}; registered: {self.routes()}",
                route=route,
            )
        return state

    def tool(self, route: str) -> WebQA:
        return self._state(route).current.tool

    def breaker(self, route: str) -> CircuitBreaker:
        """The circuit breaker guarding ``route`` (:class:`RouteError` if unknown)."""
        return self._state(route).breaker

    def rollback(self, route: str) -> str:
        """Restore ``route``'s previously served version; returns its id.

        The counterpart of a hot-swap gone wrong after publication —
        the previous ``(tool, version)`` is re-installed under a fresh
        epoch (in-flight requests on the bad version drain, exactly as
        in a forward swap).  :class:`RouteError` when the route is
        unknown or has never swapped.
        """
        restored = self._state(route).rollback()
        if restored is None:
            raise RouteError(
                f"route {route!r} has no previous version to roll back to",
                route=route,
            )
        self.control.stats.record_rollback()
        return restored.version

    def route_version(self, route: str) -> str:
        """The version id currently served for ``route``."""
        return self._state(route).current.version

    def route_epoch(self, route: str) -> int:
        """How many swaps/rollbacks ``route`` has seen (0 = original)."""
        return self._state(route).epoch

    def route_drained(self, route: str) -> bool:
        """True when no retired version of ``route`` still serves a call."""
        return self._state(route).drained()

    def inject_faults(
        self, injector: "FaultInjector | FaultPlan | None"
    ) -> None:
        """Swap the fault injector at runtime (``None`` turns chaos off).

        Chaos tests use this to model an outage ending — e.g. to let a
        half-open circuit's probe succeed after a run of injected
        failures opened it.
        """
        if isinstance(injector, FaultPlan):
            injector = FaultInjector(injector)
        self.control.injector = injector

    # -- live corpus --------------------------------------------------------------

    def attach_live(self, live: "object") -> None:
        """Attach a :class:`~repro.serving.live.LiveCorpus`; done by its
        constructor — :meth:`feed` delegates to it."""
        self.control.live = live

    @property
    def live(self) -> "object | None":
        return self.control.live

    def feed(self, html: str, url: str = "", **kwargs):
        """Feed one changed raw document into the attached live corpus.

        Convenience front for :meth:`LiveCorpus.feed` (ingest →
        invalidate → corpus generation → warm refit → hot-swap/rollback);
        requires a :class:`~repro.serving.live.LiveCorpus` constructed
        over this front end.
        """
        if self.control.live is None:
            raise ValueError(
                "no live corpus attached; construct "
                "repro.serving.live.LiveCorpus(...) over this front end first"
            )
        return self.control.live.feed(html, url=url, **kwargs)


class QAService(_RouteControl):
    """Serve many program artifacts behind routing keys.

    Parameters
    ----------
    jobs / backend:
        Worker pool each micro-batch is dispatched over
        (:class:`~repro.runtime.TaskRunner` semantics; ``jobs=1`` runs
        inline).
    max_batch:
        Micro-batch size cap.  Larger batches amortize dispatch
        overhead; the cap bounds per-batch latency.
    page_cache_size:
        Capacity of the shared ingest :class:`PageCache` (0 disables).
    retry_policy:
        Backoff schedule for transient failures (default
        :class:`RetryPolicy`; :data:`NO_RETRY` disables).
    deadline_seconds:
        Default per-call deadline (``None`` = unbounded; any
        ``ask_many`` call may override).
    max_inflight:
        Admission bound on concurrently served requests (``None`` =
        unbounded).  Overflow is shed with
        :class:`~repro.core.errors.RejectedError`.
    circuit_threshold / circuit_reset_seconds:
        Per-route :class:`CircuitBreaker` tuning.
    limits:
        Ingest guard rails (:class:`~repro.serving.ingest.ServingLimits`)
        applied to every raw-HTML request; ``None`` disables.
    fault_injector:
        A :class:`~repro.serving.faults.FaultInjector` (or bare
        :class:`~repro.serving.faults.FaultPlan`) for chaos testing;
        ``None`` (production) costs nothing.
    clock:
        Injectable monotonic clock shared by the circuit breakers.
    store:
        A prebuilt corpus store — a path or an opened
        :class:`~repro.webtree.store.CorpusStoreReader`.  Page-cache
        misses rehydrate the indexed page from its planes instead of
        parsing (see :func:`~repro.serving.ingest.ingest_page`).
    """

    def __init__(
        self,
        jobs: int = 1,
        backend: str = "thread",
        max_batch: int = 32,
        page_cache_size: int = 256,
        retry_policy: "RetryPolicy | None" = None,
        deadline_seconds: "float | None" = None,
        max_inflight: "int | None" = None,
        circuit_threshold: int = 5,
        circuit_reset_seconds: float = 30.0,
        limits: "ServingLimits | None" = DEFAULT_LIMITS,
        fault_injector: "FaultInjector | FaultPlan | None" = None,
        clock=time.monotonic,
        store: "object | str | None" = None,
    ) -> None:
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if max_inflight is not None and max_inflight < 1:
            raise ValueError(f"max_inflight must be >= 1, got {max_inflight}")
        if isinstance(store, (str, os.PathLike)):
            store = CorpusStoreReader(store)
        self.store = store
        self.jobs = jobs
        self.backend = backend
        self.max_batch = max_batch
        self.retry_policy = retry_policy if retry_policy is not None else RetryPolicy()
        self.deadline_seconds = deadline_seconds
        self.max_inflight = max_inflight
        self.limits = limits
        self._open_shard(page_cache_size)
        if isinstance(fault_injector, FaultPlan):
            fault_injector = FaultInjector(fault_injector)
        # Routes, live corpus, injector and the corpus index (which opens
        # lazily on the first ask_corpus and follows the store's
        # generation from then on): shared with every replica.
        self.control = _ControlPlane(
            self.stats,
            fault_injector,
            partial(
                CircuitBreaker,
                threshold=circuit_threshold,
                reset_seconds=circuit_reset_seconds,
                clock=clock,
            ),
        )

    def _open_shard(self, page_cache_size: int) -> None:
        """The per-shard data plane: cache, stats, admission, pool."""
        self.cache = PageCache(capacity=page_cache_size)
        self.stats = ServiceStats()
        self._inflight = 0
        self._inflight_lock = threading.Lock()
        # One long-lived pool for every micro-batch: a service dispatches
        # many small batches, and per-batch pool construction (worker
        # spawn, tool re-pickling on the process backend) would dominate.
        self._runner = TaskRunner(
            jobs=self.jobs, backend=self.backend, persistent=True
        )
        # Spawn the workers now, at startup, not lazily inside the first
        # batch — first-request latency should not pay for OS thread
        # (or process) creation.
        self._runner.prewarm()

    def replica(self) -> "QAService":
        """Another shard engine over this service's control plane.

        The replica has the same configuration and shares the store,
        the route table, live corpus, fault injector and corpus index;
        it gets its own page cache, worker pool, stats and admission
        count.  A register, rollback or fault swap on either is seen by
        both at once.
        """
        twin = copy.copy(self)
        twin._open_shard(self.cache.capacity)
        return twin

    def close(self) -> None:
        """Shut down the service's worker pool (idempotent)."""
        self._runner.close()

    def __enter__(self) -> "QAService":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- corpus routing (ask the corpus, not a page) -------------------------------

    def corpus_index(self, required: bool = True) -> "CorpusIndexReader | None":
        """The inverted-index reader over this service's corpus store.

        Opens lazily (and at most once) from the newest manifest;
        :meth:`~repro.retrieval.index.CorpusIndexReader.ensure_fresh`
        keeps it at the store's generation from then on.
        ``required=False`` returns ``None`` instead of raising when no
        store is attached or no index has been built.
        """
        if self.store is None:
            if required:
                raise IngestError(_NO_STORE)
            return None
        control = self.control
        with control.lock:
            if control.corpus_index is None:
                if not required and read_manifest(self.store.path).index is None:
                    return None
                control.corpus_index = CorpusIndexReader(self.store.path)
            return control.corpus_index

    def _corpus_scan_idf(self, store: "CorpusStoreReader") -> IdfModel:
        """The exhaustive scan's IdfModel: the index's own, or corpus-fit.

        The IDF model is an *input* to the scoring specification, not
        part of the routed-vs-exhaustive differential — so when an index
        is published, the scan borrows its pinned model at ``store``'s
        generation (index segments keep the full build's fit) and the
        two paths stay bit-identical across live updates.  Without an
        index the scan fits over the store pages in sorted-fingerprint
        order — exactly the build pass of
        :func:`~repro.retrieval.index.build_index_file`, so a freshly
        built index scores identically to the fit-on-the-fly scan.
        """
        index = self.corpus_index(required=False)
        if index is not None:
            return index.ensure_fresh(store).idf()
        cached = self.control.scan_idf_cache
        if cached is not None and cached[0] == store.generation:
            return cached[1]
        idf = IdfModel.fit(
            page_text(store.load(fingerprint)[0])
            for fingerprint in sorted(store.fingerprints())
        )
        self.control.scan_idf_cache = (store.generation, idf)
        return idf

    def ask_corpus(
        self,
        route: str,
        question: "str | None" = None,
        *,
        top_k: "int | None" = DEFAULT_TOP_K,
        exhaustive: bool = False,
        deadline_seconds: "float | None" = None,
    ) -> CorpusAnswer:
        """Answer a question *over the whole corpus*: route, fan out, vote.

        The corpus-scale entry point: nobody hands the service a page.
        See :meth:`answer_corpus`; the candidate pages fan out through
        this service's own micro-batch :meth:`ask_many`.
        """
        return self.answer_corpus(
            route,
            question,
            top_k,
            exhaustive,
            lambda requests: self.ask_many(
                [request for _, request in requests],
                strict=False,
                deadline_seconds=deadline_seconds,
            ),
        )

    def answer_corpus(
        self,
        route: str,
        question: "str | None",
        top_k: "int | None",
        exhaustive: bool,
        fan_out,
    ) -> CorpusAnswer:
        """The body of every ``ask_corpus``, with a pluggable fan-out.

        The question — by default the route's own compiled question,
        with its attribute keywords — is tokenized into a sparse term
        query; the inverted index scores it against every page with one
        vectorized sparse dot-product; the ``top_k`` highest-scoring
        pages are rehydrated from the store planes (no parsing) and
        handed to ``fan_out`` as ``[(fingerprint, ServingRequest), ...]``,
        which returns one :class:`ServingResult` per request; and the
        transductive consensus rule elects the answer among the
        candidates' predictions, returned with full page provenance.

        Scoring and page loads use **one generation**: the store is
        pinned first and the index pinned to it, so a feed publishing
        mid-call changes neither the candidates nor the pages they load.

        ``exhaustive=True`` bypasses the index and scores every store
        page on the fly — the O(corpus) reference path.  By construction
        (shared weighting, pinned accumulation order, same candidate
        rule, same consensus) its :class:`CorpusAnswer` is bit-identical
        to the routed one; the differential tests hold the two to exact
        equality while the benchmarks measure the gap between their
        costs.
        """
        if self.store is None:
            raise IngestError(_NO_STORE)
        tool = self.tool(route)
        if question is None:
            question = tool._question
        query = query_terms(question, tool._keywords)
        store = self.store.pinned()
        if exhaustive:
            scored = scan_scores(store, self._corpus_scan_idf(store), query)
        else:
            scored = self.corpus_index().ensure_fresh(store).score(query)
        candidates = cut_top_k(scored, top_k)
        answers: "list[tuple[str, ...] | None]" = []
        if candidates:
            results = fan_out(
                [
                    (fingerprint, ServingRequest(
                        route=route, page=store.load(fingerprint)[0]
                    ))
                    for fingerprint, _ in candidates
                ]
            )
            answers = [result.answer if result.ok else None for result in results]
        return build_answer(
            route,
            question,
            candidates,
            answers,
            top_k=top_k,
            routed=not exhaustive,
            url_of=lambda fp: (store.entry(fp) or {}).get("url") or None,
        )

    def health(self) -> dict:
        """One operator-facing snapshot of the service's state."""
        with self._inflight_lock:
            inflight = self._inflight
        with self.control.lock:
            states = sorted(self.control.routes.items())
        return {
            "routes": [route for route, _ in states],
            "inflight": inflight,
            "max_inflight": self.max_inflight,
            "pools_broken": self._runner.pools_broken,
            "circuits": {r: s.breaker.state for r, s in states},
            "versions": {r: s.current.version for r, s in states},
            "epochs": {r: s.epoch for r, s in states},
            "stats": self.stats.as_dict(),
            "ingest": self.cache.stats.as_dict(),
            "store": self.store.stat() if self.store is not None else None,
            "index": (
                index.stat()
                if (index := self.corpus_index(required=False)) is not None
                else None
            ),
        }

    # -- admission ---------------------------------------------------------------

    def _admit(self, count: int) -> int:
        """Reserve in-flight slots; returns how many were granted.

        The in-flight counter is maintained even without a
        ``max_inflight`` bound — the health surface reports it either
        way (an unbounded service still has observable load).
        """
        with self._inflight_lock:
            granted = (
                count
                if self.max_inflight is None
                else min(count, max(0, self.max_inflight - self._inflight))
            )
            self._inflight += granted
        return granted

    def _release(self, count: int) -> None:
        if count == 0:
            return
        with self._inflight_lock:
            self._inflight -= count

    # -- the serving path --------------------------------------------------------

    def ask(
        self,
        route: str,
        html: str | None = None,
        page: WebPage | None = None,
        url: str = "",
    ) -> tuple[str, ...]:
        """Answer one request synchronously (a micro-batch of one)."""
        (answer,) = self.ask_many(
            [ServingRequest(route=route, html=html, page=page, url=url)]
        )
        return answer

    def ask_many(
        self,
        requests: "list[ServingRequest | tuple]",
        *,
        strict: bool = True,
        deadline_seconds: "float | None" = None,
    ):
        """Answer a bulk of requests; results align with ``requests``.

        The dispatch pipeline: (1) **admit** — shed overflow beyond
        ``max_inflight``; (2) **ingest** every raw-HTML request through
        the shared page cache, under the service's
        :class:`~repro.serving.ingest.ServingLimits`; (3) **route** —
        group request indices by routing key (order-preserving), each
        gated by its route's circuit breaker; (4) **batch** — chunk each
        route's run into micro-batches of at most ``max_batch``; (5)
        **predict** — each batch goes through the worker pool, with
        bounded retry for transient failures.  Answers are scattered
        back to request order.

        Every request is isolated, failures contained in their own
        slots.  With ``strict=False`` the return value is one
        :class:`ServingResult` per request; with the default
        ``strict=True`` the lowest-index failure raises (see
        :func:`_answers`), else the return value is a plain
        ``list[tuple[str, ...]]`` of answers.

        ``deadline_seconds`` (default: the service-wide setting) bounds
        the whole call; late work fails with
        :class:`~repro.core.errors.DeadlineExceeded`.

        Tuples ``(route, html)`` / ``(route, html, url)`` are accepted as
        a convenience and normalized to :class:`ServingRequest`.
        """
        normalized = [ServingRequest.of(request) for request in requests]
        if deadline_seconds is None:
            deadline_seconds = self.deadline_seconds
        deadline = _Deadline(deadline_seconds)
        results = self._serve(normalized, deadline)
        return _answers(results) if strict else results

    def _serve(
        self, normalized: "list[ServingRequest]", deadline: _Deadline
    ) -> "list[ServingResult]":
        results = [ServingResult(route=request.route) for request in normalized]
        # Tool versions pinned by this call (one per served route): the
        # pin taken at routing time is what stages 4-5 serve, so a
        # concurrent hot-swap drains behind this call instead of
        # changing the tool mid-batch.
        pinned: "dict[str, tuple[_RouteState, _ToolVersion]]" = {}
        admitted = self._admit(len(normalized))
        try:
            for position in range(admitted, len(normalized)):
                results[position].error = RejectedError(
                    f"request shed: {self.max_inflight} requests already in "
                    f"flight (admission bound)",
                    reason="overload",
                    route=normalized[position].route,
                )

            # Stage 2: ingest (cache-aware, retried, timed).  On the
            # thread backend cold parse+index work fans over the same
            # pool predict uses; process workers cannot populate the
            # parent's cache, so that backend stays sequential.
            start = time.perf_counter()
            live = list(range(admitted))
            work = [(i, normalized[i], deadline) for i in live]
            needs_ingest = any(normalized[i].page is None for i in live)
            if needs_ingest and self.jobs > 1 and self.backend == "thread":
                outcomes = self._runner.map(
                    self._ingest_one, work, return_exceptions=True
                )
            else:
                outcomes = []
                for item in work:
                    try:
                        outcomes.append(self._ingest_one(item))
                    except Exception as error:  # noqa: BLE001 — isolated below
                        outcomes.append(error)
            pages: "dict[int, WebPage]" = {}
            for position, outcome in zip(live, outcomes):
                result = results[position]
                if isinstance(outcome, BaseException):
                    result.error = self._wrap_error(
                        outcome, IngestError, normalized[position].route,
                        result.fingerprint, result.retries, deadline,
                    )
                    continue
                ingested, attempts, seconds = outcome
                pages[position] = ingested.page
                result.fingerprint = ingested.fingerprint
                result.degraded = ingested.degraded
                result.cache_hit = ingested.cache_hit
                result.retries += attempts
                result.ingest_seconds = seconds
            ingest_seconds = time.perf_counter() - start

            # Stage 3: route, gated per request by the circuit breaker.
            by_route: dict[str, list[int]] = {}
            for position in live:
                if results[position].error is not None:
                    continue
                route = normalized[position].route
                state = self.control.routes.get(route)
                if state is None:
                    results[position].error = RouteError(
                        f"unknown route {route!r}; registered: {self.routes()}",
                        route=route,
                        fingerprint=results[position].fingerprint,
                    )
                    continue
                if not state.breaker.allow():
                    results[position].error = RejectedError(
                        f"circuit open for route {route!r}",
                        reason="circuit-open",
                        route=route,
                        fingerprint=results[position].fingerprint,
                    )
                    continue
                if route not in pinned:
                    pinned[route] = (state, state.pin())
                by_route.setdefault(route, []).append(position)

            # Stages 4+5: micro-batch and predict, per route, over the
            # service's persistent worker pool.
            start = time.perf_counter()
            for route, positions in by_route.items():
                state, version = pinned[route]
                tool = version.tool
                breaker = state.breaker
                for offset in range(0, len(positions), self.max_batch):
                    batch = positions[offset : offset + self.max_batch]
                    batch_start = time.perf_counter()
                    self._predict_batch(tool, route, batch, pages, results, deadline)
                    self.stats.record_batch(len(batch))
                    per_request = (time.perf_counter() - batch_start) / len(batch)
                    for position in batch:
                        results[position].predict_seconds = per_request
                        error = results[position].error
                        if error is None:
                            breaker.record_success()
                        elif error.stage in ("predict", "deadline"):
                            breaker.record_failure()
            predict_seconds = time.perf_counter() - start

            by_route_counts: dict[str, int] = {}
            for request in normalized:
                by_route_counts[request.route] = (
                    by_route_counts.get(request.route, 0) + 1
                )
            self.stats.record_requests(
                count=len(normalized),
                by_route=by_route_counts,
                ingest_seconds=ingest_seconds,
                predict_seconds=predict_seconds,
                started=deadline.started,
                ended=time.monotonic(),
            )
            self.stats.record_results(results)
            return results
        finally:
            for state, version in pinned.values():
                state.release(version)
            self._release(admitted)
            self.stats.set_pools_broken(self._runner.pools_broken)

    # -- stage helpers -----------------------------------------------------------

    def _ingest_one(
        self, item: "tuple[int, ServingRequest, _Deadline]"
    ) -> "tuple[IngestOutcome, int, float]":
        """Ingest one request with bounded retry.

        Returns ``(outcome, attempts_spent, seconds)``; raises an
        already-wrapped :class:`~repro.core.errors.ServingError` when
        the retry budget (or the deadline) runs out.
        """
        index, request, deadline = item
        attempt = 0
        started = time.perf_counter()
        while True:
            if deadline.passed():
                raise DeadlineExceeded(
                    f"deadline passed before ingest of request {index}",
                    route=request.route,
                    retries=attempt,
                    deadline_seconds=deadline.seconds,
                    elapsed_seconds=deadline.elapsed(),
                )
            try:
                injector = self.control.injector
                if injector is not None:
                    injector.before_ingest(index, attempt)
                if request.page is not None:
                    outcome = IngestOutcome(
                        request.page, "", degraded=False, cache_hit=False
                    )
                else:
                    outcome = ingest_page(
                        request.html or "",
                        request.url,
                        cache=self.cache,
                        limits=self.limits,
                        store=self.store,
                    )
                return outcome, attempt, time.perf_counter() - started
            except Exception as error:  # noqa: BLE001 — classified below
                if (
                    is_transient(error)
                    and attempt < self.retry_policy.max_retries
                    and not deadline.passed()
                ):
                    self._backoff(attempt, f"ingest:{index}", deadline)
                    attempt += 1
                    continue
                raise self._wrap_error(
                    error, IngestError, request.route, "", attempt, deadline
                ) from error

    def _predict_batch(
        self,
        tool: WebQA,
        route: str,
        batch: "list[int]",
        pages: "dict[int, WebPage]",
        results: "list[ServingResult]",
        deadline: _Deadline,
    ) -> None:
        """Run one micro-batch with per-item isolation and bounded retry."""
        allow_exit = self.backend == "process"
        pending = list(batch)
        attempts = {position: 0 for position in batch}
        while pending:
            payloads = [
                (
                    tool,
                    pages[position],
                    position,
                    attempts[position],
                    self.control.injector,
                    allow_exit,
                )
                for position in pending
            ]
            outs = self._runner.map(
                _predict_page,
                payloads,
                return_exceptions=True,
                deadline=deadline.at,
            )
            retry: list[int] = []
            for position, out in zip(pending, outs):
                result = results[position]
                if isinstance(out, BaseException):
                    if (
                        is_transient(out)
                        and attempts[position] < self.retry_policy.max_retries
                        and not deadline.passed()
                    ):
                        attempts[position] += 1
                        retry.append(position)
                        continue
                    result.error = self._wrap_error(
                        out, PredictError, route, result.fingerprint,
                        attempts[position], deadline,
                    )
                    result.retries += attempts[position]
                else:
                    answer, degraded = out
                    result.answer = answer
                    result.degraded = result.degraded or degraded
                    result.retries += attempts[position]
            if retry:
                round_attempt = min(attempts[position] for position in retry) - 1
                self._backoff(round_attempt, f"predict:{route}", deadline)
            pending = retry

    def _backoff(self, attempt: int, key: str, deadline: _Deadline) -> None:
        delay = self.retry_policy.delay(attempt, key)
        remaining = deadline.remaining()
        if remaining is not None:
            delay = min(delay, remaining)
        if delay > 0:
            time.sleep(delay)

    def _wrap_error(
        self,
        error: BaseException,
        stage_cls: type,
        route: str,
        fingerprint: str,
        retries: int,
        deadline: _Deadline,
    ) -> ServingError:
        """Normalize any stage failure into the serving taxonomy.

        A :class:`ServingError` passes through with its context
        completed; a pool timeout becomes
        :class:`~repro.core.errors.DeadlineExceeded`; a broken pool or
        any organic exception is wrapped in the stage's error class
        (cause preserved for tracebacks).
        """
        if isinstance(error, ServingError):
            error.route = error.route or route
            error.fingerprint = error.fingerprint or fingerprint
            error.retries = max(error.retries, retries)
            return error
        if isinstance(error, (FuturesTimeout, TimeoutError)):
            wrapped: ServingError = DeadlineExceeded(
                f"deadline of {deadline.seconds:.3f}s exceeded "
                f"after {deadline.elapsed():.3f}s",
                route=route,
                fingerprint=fingerprint,
                retries=retries,
                deadline_seconds=deadline.seconds,
                elapsed_seconds=deadline.elapsed(),
            )
        elif isinstance(error, BrokenExecutor):
            wrapped = stage_cls(
                f"worker pool broke: {error!r}",
                route=route,
                fingerprint=fingerprint,
                retries=retries,
                transient=True,
            )
        else:
            wrapped = stage_cls(
                f"{type(error).__name__}: {error}",
                route=route,
                fingerprint=fingerprint,
                retries=retries,
                transient=False,
            )
        wrapped.__cause__ = error
        return wrapped
