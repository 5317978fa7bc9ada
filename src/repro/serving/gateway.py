"""ServingGateway: concurrent traffic over N replica QAService shards.

The single-process :class:`~repro.serving.service.QAService` serves one
caller at a time per pool; the gateway turns it into a serving
*platform* (ROADMAP open item 1): a thread- and asyncio-friendly
front-end that accepts concurrent ``ask``/``ask_many`` traffic, hashes
every request onto one of N replica shards, coalesces queued requests
into per-shard micro-batches, and sheds deterministically when a shard
queue hits its depth bound.

Architecture — four moving parts:

* **Shards.**  N full :class:`QAService` replicas, each with its own
  persistent :class:`~repro.runtime.TaskRunner` pool and its own
  bounded :class:`~repro.serving.ingest.PageCache`, all warm-started
  from **one shared** :class:`~repro.webtree.store.CorpusStoreReader`
  (memmapped planes are read-only; N shards share the bytes through
  the OS page cache).
* **Content-affinity hashing.**  A request's shard is a pure function
  of its page fingerprint (:func:`~repro.serving.ingest.page_fingerprint`
  over ``(url, html)``) — the same page always lands on the same shard,
  so the N per-shard caches *partition* the corpus instead of
  duplicating it.  That is where sharding pays even on one core: a
  working set larger than one replica's cache thrashes a single pool
  (every request pays a cold parse), while the same traffic hashed
  across N shards stays cache-resident.  On multi-core machines the
  per-shard pools add replica parallelism on top.
* **Coalescing queues.**  One :class:`~repro.runtime.CoalescingQueue`
  + dispatcher thread per shard.  Concurrent front-end submitters
  enqueue; the dispatcher takes size- or age-triggered micro-batches
  and drives them through ``shard.ask_many(strict=False)`` — the same
  five-stage pipeline, retry policy, deadlines and circuit breakers as
  direct service calls.
* **Backpressure ladder.**  Overload is refused in order, outermost
  first: (1) the shard queue at ``queue_depth`` sheds instantly with
  :class:`~repro.core.errors.RejectedError` (``reason="overload"``,
  stable, arrival-order-deterministic); (2) whatever reaches a shard
  still passes its ``max_inflight`` admission bound; (3) per-route
  circuit breakers shed routes that keep failing.  Nothing blocks, and
  nothing is dropped silently — every refused request gets a
  structured rejection.

Control-plane operations fan out: :meth:`register` hot-swaps a route
on every shard under each shard's own epoch/refcount drain protocol,
:meth:`rollback` restores the previous version everywhere, and a
:class:`~repro.serving.live.LiveCorpus` may be constructed **directly
over the gateway** — it duck-types as a service (shared ``store``, a
fan-out cache facade, ``register``/``route_version``/``tool``/``stats``)
so ``feed()`` publishes one corpus generation, invalidates every shard's
cache exactly, refits once, and swaps all shards to the same candidate.

The differential bar is absolute and pinned by
``tests/serving/test_gateway.py``: for any shard count, concurrency
level and flush policy, answers are bit-identical to sequential
``tool.predict`` over the same requests.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future
from concurrent.futures import TimeoutError as FuturesTimeout
from dataclasses import dataclass, field

from ..core.errors import DeadlineExceeded, RejectedError
from ..retrieval.router import DEFAULT_TOP_K, CorpusAnswer
from ..runtime.batchq import CoalescingQueue, QueueClosed
from .faults import FaultInjector, FaultPlan
from .ingest import DEFAULT_LIMITS, ServingLimits, page_fingerprint
from .service import QAService, ServingRequest, ServingResult


@dataclass
class GatewayStats:
    """Front-end counters: what entered, what was refused, how it batched.

    Per-shard serving detail (stage seconds, retries, failures) lives
    on each shard's own :class:`~repro.serving.service.ServiceStats`;
    these counters cover the gateway layer itself.
    """

    submitted: int = 0
    #: Requests refused at the queue bound (``RejectedError("overload")``).
    shed: int = 0
    batches: int = 0
    batched_requests: int = 0
    max_batch_size: int = 0
    hot_swaps: int = 0
    rollbacks: int = 0
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def record_submit(self, count: int = 1) -> None:
        with self._lock:
            self.submitted += count

    def record_shed(self, count: int = 1) -> None:
        with self._lock:
            self.shed += count

    def record_batch(self, size: int) -> None:
        with self._lock:
            self.batches += 1
            self.batched_requests += size
            self.max_batch_size = max(self.max_batch_size, size)

    def record_swap(self) -> None:
        with self._lock:
            self.hot_swaps += 1

    def record_rollback(self) -> None:
        with self._lock:
            self.rollbacks += 1

    def mean_batch_size(self) -> float:
        return self.batched_requests / self.batches if self.batches else 0.0

    def shed_rate(self) -> float:
        return self.shed / self.submitted if self.submitted else 0.0

    def as_dict(self) -> dict:
        return {
            "submitted": self.submitted,
            "shed": self.shed,
            "shed_rate": round(self.shed_rate(), 4),
            "batches": self.batches,
            "mean_batch_size": round(self.mean_batch_size(), 2),
            "max_batch_size": self.max_batch_size,
            "hot_swaps": self.hot_swaps,
            "rollbacks": self.rollbacks,
        }


class _FanoutCache:
    """The gateway's cache facade for :class:`LiveCorpus`.

    ``invalidate`` must reach *every* shard (a page may have been
    cached anywhere before affinity settled, and exactness is the
    contract); ``put`` warms only the page's home shard — priming any
    other cache would violate the partitioning that makes sharding pay.
    """

    def __init__(self, gateway: "ServingGateway") -> None:
        self._gateway = gateway

    def invalidate(self, fingerprint: str) -> bool:
        dropped = False
        for shard in self._gateway._shards:
            dropped = shard.cache.invalidate(fingerprint) or dropped
        return dropped

    def put(self, fingerprint: str, page, degraded: bool = False) -> None:
        home = self._gateway.shard_of_fingerprint(fingerprint)
        self._gateway._shards[home].cache.put(fingerprint, page, degraded)


class _Pending:
    """One queued request: the work plus the future its caller awaits."""

    __slots__ = ("request", "future")

    def __init__(self, request: ServingRequest, future: "Future") -> None:
        self.request = request
        self.future = future


class ServingGateway:
    """N replica :class:`QAService` shards behind one concurrent front-end.

    Parameters
    ----------
    shards:
        Replica count.  Each shard owns a pool and a page cache.
    store:
        A corpus store path or opened
        :class:`~repro.webtree.store.CorpusStoreReader`, shared by all
        shards (opened once).
    max_batch / flush_delay_seconds:
        Micro-batch flush policy per shard queue: flush at ``max_batch``
        waiting requests or when the oldest has aged
        ``flush_delay_seconds``, whichever first.
    queue_depth:
        Per-shard bound on *waiting* requests (``None`` = unbounded).
        Overflow resolves instantly to a
        :class:`~repro.core.errors.RejectedError` (``"overload"``)
        result — the outermost rung of the backpressure ladder.
    jobs / backend / page_cache_size / retry_policy / deadline_seconds /
    max_inflight / circuit_threshold / circuit_reset_seconds / limits /
    fault_injector / clock:
        Forwarded to every shard's :class:`QAService` constructor.
    """

    def __init__(
        self,
        shards: int = 2,
        store: "object | str | None" = None,
        max_batch: int = 32,
        flush_delay_seconds: float = 0.002,
        queue_depth: "int | None" = None,
        jobs: int = 1,
        backend: str = "thread",
        page_cache_size: int = 256,
        limits: "ServingLimits | None" = DEFAULT_LIMITS,
        fault_injector: "FaultInjector | FaultPlan | None" = None,
        **service_kwargs,
    ) -> None:
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        import os

        if isinstance(store, (str, os.PathLike)):
            from ..webtree.store import CorpusStoreReader

            store = CorpusStoreReader(store)
        self.store = store
        self.shards = shards
        self.max_batch = max_batch
        self.queue_depth = queue_depth
        self.limits = limits
        if isinstance(fault_injector, FaultPlan):
            fault_injector = FaultInjector(fault_injector)
        self._injector = fault_injector
        self.stats = GatewayStats()
        self.cache = _FanoutCache(self)
        self._live: "object | None" = None
        self._routes: "set[str]" = set()
        self._routes_lock = threading.Lock()
        self._closed = False
        self._shards = [
            QAService(
                jobs=jobs,
                backend=backend,
                max_batch=max_batch,
                page_cache_size=page_cache_size,
                limits=limits,
                fault_injector=fault_injector,
                store=store,
                **service_kwargs,
            )
            for _ in range(shards)
        ]
        self._queues = [
            CoalescingQueue(
                max_batch=max_batch,
                max_delay_seconds=flush_delay_seconds,
                max_depth=queue_depth,
            )
            for _ in range(shards)
        ]
        self._dispatchers = [
            threading.Thread(
                target=self._dispatch_loop,
                args=(index,),
                name=f"gateway-shard-{index}",
                daemon=True,
            )
            for index in range(shards)
        ]
        for thread in self._dispatchers:
            thread.start()

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Drain the queues, stop the dispatchers, close every shard."""
        if self._closed:
            return
        self._closed = True
        for queue in self._queues:
            queue.close()
        for thread in self._dispatchers:
            thread.join()
        for shard in self._shards:
            shard.close()

    def __enter__(self) -> "ServingGateway":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- sharding ------------------------------------------------------------

    def shard_of_fingerprint(self, fingerprint: str) -> int:
        """Shard index for a page fingerprint (hex sha256 prefix mod N)."""
        return int(fingerprint[:16], 16) % self.shards

    def shard_of(self, request: ServingRequest) -> int:
        """Content-affinity shard for one request.

        Raw-HTML requests hash on the exact cache key serving will use
        (:func:`page_fingerprint` over ``(url, html)``), so one page
        always warms exactly one shard cache.  Pre-parsed requests
        carry no raw bytes; they hash on their url namespace, which
        keeps per-page affinity without re-serializing the tree.
        """
        if request.html is not None:
            key = page_fingerprint(request.html, request.url)
        else:
            url = request.url or (
                request.page.url if request.page is not None else ""
            )
            key = page_fingerprint("", url)
        return self.shard_of_fingerprint(key)

    def shard(self, index: int) -> QAService:
        """Direct access to one replica (tests, operators)."""
        return self._shards[index]

    # -- control plane (fan-out) ---------------------------------------------

    def register(
        self,
        route: str,
        source: "object",
        version: "str | None" = None,
    ):
        """Bind ``route`` on every shard; re-binding hot-swaps everywhere.

        The artifact is loaded (or the tool validated) exactly once, on
        shard 0; the remaining shards register the same tool object
        under the same version id, each swapping atomically under its
        own epoch/refcount protocol.  Tools are stateless at serving
        time, so sharing one instance across shard pools is the same
        sharing the shard's own worker threads already do.
        """
        swap = route in self._routes
        tool = self._shards[0].register(route, source, version=version)
        if version is None:
            version = self._shards[0].route_version(route)
        for shard in self._shards[1:]:
            shard.register(route, tool, version=version)
        with self._routes_lock:
            self._routes.add(route)
        if swap:
            self.stats.record_swap()
        return tool

    def unregister(self, route: str) -> None:
        for shard in self._shards:
            shard.unregister(route)
        with self._routes_lock:
            self._routes.discard(route)

    def routes(self) -> "tuple[str, ...]":
        return self._shards[0].routes()

    def tool(self, route: str):
        return self._shards[0].tool(route)

    def route_version(self, route: str) -> str:
        return self._shards[0].route_version(route)

    def route_versions(self, route: str) -> "list[str]":
        """The version each shard currently serves (all equal when quiet)."""
        return [shard.route_version(route) for shard in self._shards]

    def route_drained(self, route: str) -> bool:
        """No retired version still serves a call, on *any* shard."""
        return all(shard.route_drained(route) for shard in self._shards)

    def rollback(self, route: str) -> str:
        """Restore ``route``'s previous version on every shard."""
        version = ""
        for shard in self._shards:
            version = shard.rollback(route)
        self.stats.record_rollback()
        return version

    def inject_faults(
        self, injector: "FaultInjector | FaultPlan | None"
    ) -> None:
        if isinstance(injector, FaultPlan):
            injector = FaultInjector(injector)
        self._injector = injector
        for shard in self._shards:
            shard.inject_faults(injector)

    # -- live corpus ---------------------------------------------------------

    def attach_live(self, live: "object") -> None:
        """Attach a :class:`LiveCorpus` built over this gateway."""
        self._live = live

    @property
    def live(self) -> "object | None":
        return self._live

    def feed(self, html: str, url: str = "", **kwargs):
        """Feed one changed document to the attached live corpus."""
        if self._live is None:
            raise ValueError(
                "no live corpus attached; construct "
                "repro.serving.live.LiveCorpus(gateway, ...) first"
            )
        return self._live.feed(html, url=url, **kwargs)

    # -- operator controls ---------------------------------------------------

    def pause_shard(self, index: int) -> None:
        """Quiesce one shard: its queue accepts but stops dispatching."""
        self._queues[index].pause()

    def resume_shard(self, index: int) -> None:
        self._queues[index].resume()

    def queue_depths(self) -> "list[int]":
        return [queue.depth() for queue in self._queues]

    def health(self) -> dict:
        """The operator snapshot: backpressure before it sheds.

        Top level: the gateway's own counters plus the per-shard
        queue/in-flight/breaker/version summary the satellite asks for;
        ``shards`` carries each replica's full
        :meth:`QAService.health` for drill-down.
        """
        shard_health = [shard.health() for shard in self._shards]
        routes = self.routes()
        total_requests = sum(h["stats"]["requests"] for h in shard_health)
        starts = [
            shard.stats.span_started
            for shard in self._shards
            if shard.stats.span_started is not None
        ]
        ends = [
            shard.stats.span_ended
            for shard in self._shards
            if shard.stats.span_ended is not None
        ]
        span = (max(ends) - min(starts)) if starts and ends else 0.0
        return {
            "shards": self.shards,
            "closed": self._closed,
            "queue_depths": self.queue_depths(),
            "queue_depth_bound": self.queue_depth,
            # Live-corpus churn observability: exact invalidations per
            # shard, plus the corpus generation store and index share.
            "invalidations": [
                h["ingest"]["invalidations"] for h in shard_health
            ],
            "generation": (
                self.store.generation if self.store is not None else None
            ),
            "inflight": [h["inflight"] for h in shard_health],
            "pools_broken": [h["pools_broken"] for h in shard_health],
            "dispatchers_alive": [t.is_alive() for t in self._dispatchers],
            "circuits": {
                route: [h["circuits"].get(route) for h in shard_health]
                for route in routes
            },
            "versions": {
                route: self.route_versions(route) for route in routes
            },
            "requests": total_requests,
            "span_seconds": span,
            "throughput_pages_per_s": round(
                total_requests / span if span > 0 else 0.0, 2
            ),
            "stats": self.stats.as_dict(),
            "per_shard": shard_health,
        }

    # -- the serving path ----------------------------------------------------

    def submit(self, request: "ServingRequest | tuple") -> "Future":
        """Enqueue one request; the future resolves to a ServingResult.

        Never blocks and never raises for data-plane conditions: a
        request refused at the queue bound resolves *immediately* to a
        result carrying ``RejectedError("overload")``, exactly like an
        admission-bound rejection one rung further in.
        """
        request = self._normalize(request)
        return self._submit_to(self.shard_of(request), request)

    def _submit_to(self, index: int, request: ServingRequest) -> "Future":
        """Enqueue on an explicit shard (corpus routing picks by
        candidate-page fingerprint, where :meth:`shard_of` cannot —
        pre-parsed store pages carry no raw bytes to hash)."""
        future: "Future" = Future()
        self.stats.record_submit()
        if self._closed:
            future.set_result(
                ServingResult(
                    route=request.route,
                    error=RejectedError(
                        "gateway is closed", reason="closed", route=request.route
                    ),
                )
            )
            return future
        try:
            accepted = self._queues[index].put(_Pending(request, future))
        except QueueClosed:
            accepted = False
        if not accepted:
            self.stats.record_shed()
            future.set_result(
                ServingResult(
                    route=request.route,
                    error=RejectedError(
                        f"request shed: shard {index} queue at depth bound "
                        f"{self.queue_depth}",
                        reason="overload",
                        route=request.route,
                    ),
                )
            )
        return future

    def ask(
        self,
        route: str,
        html: "str | None" = None,
        page=None,
        url: str = "",
        timeout: "float | None" = None,
    ) -> "tuple[str, ...]":
        """Answer one request synchronously through the sharded path."""
        (answer,) = self.ask_many(
            [ServingRequest(route=route, html=html, page=page, url=url)],
            timeout=timeout,
        )
        return answer

    def ask_many(
        self,
        requests: "list[ServingRequest | tuple]",
        *,
        strict: bool = True,
        timeout: "float | None" = None,
    ):
        """Answer a bulk of requests; results align with ``requests``.

        Requests fan out to their affinity shards and coalesce with any
        other traffic in flight; this call gathers the futures back in
        request order.  ``strict=True`` (default) raises the
        lowest-index error — deterministic regardless of shard timing —
        and returns plain answers; ``strict=False`` returns one
        :class:`ServingResult` per request.
        """
        futures = [self.submit(request) for request in requests]
        results = self._gather(futures, timeout)
        if strict:
            for result in results:
                if result.error is not None:
                    raise result.error
            return [result.answer for result in results]
        return results

    def ask_corpus(
        self,
        route: str,
        question: "str | None" = None,
        *,
        top_k: "int | None" = DEFAULT_TOP_K,
        exhaustive: bool = False,
        timeout: "float | None" = None,
    ) -> CorpusAnswer:
        """Corpus-scale answering through the sharded data plane.

        Scoring runs once at the front (the memmap index is shared, like
        the store); each candidate page then fans out through
        :meth:`_submit_to` on its *content-affinity* shard — the shard
        whose cache owns that fingerprint — so routed fan-outs coalesce
        with ordinary page traffic and the per-shard cache partitioning
        is preserved.  Everything else is the shard's own
        :meth:`~repro.serving.service.QAService.answer_corpus`, so a
        gateway answer is bit-identical to a single-service
        ``ask_corpus`` over the same store, routed or exhaustive alike.
        """
        return self._shards[0].answer_corpus(
            route,
            question,
            top_k,
            exhaustive,
            lambda requests: self._gather(
                [
                    self._submit_to(self.shard_of_fingerprint(fp), request)
                    for fp, request in requests
                ],
                timeout,
            ),
        )

    # -- asyncio front-end ---------------------------------------------------

    async def ask_many_async(
        self,
        requests: "list[ServingRequest | tuple]",
        *,
        strict: bool = True,
    ):
        """Awaitable :meth:`ask_many`: the event loop never blocks.

        Each request's ``concurrent.futures.Future`` is wrapped for the
        running loop, so thousands of coroutines can await answers
        while the shard dispatchers batch underneath them.
        """
        import asyncio

        futures = [
            asyncio.wrap_future(self.submit(request)) for request in requests
        ]
        results = list(await asyncio.gather(*futures))
        if strict:
            for result in results:
                if result.error is not None:
                    raise result.error
            return [result.answer for result in results]
        return results

    async def ask_async(
        self,
        route: str,
        html: "str | None" = None,
        page=None,
        url: str = "",
    ) -> "tuple[str, ...]":
        (answer,) = await self.ask_many_async(
            [ServingRequest(route=route, html=html, page=page, url=url)]
        )
        return answer

    # -- internals -----------------------------------------------------------

    @staticmethod
    def _normalize(request: "ServingRequest | tuple") -> ServingRequest:
        if isinstance(request, ServingRequest):
            return request
        return ServingRequest(
            route=request[0],
            html=request[1],
            url=request[2] if len(request) > 2 else "",
        )

    def _gather(
        self, futures: "list[Future]", timeout: "float | None"
    ) -> "list[ServingResult]":
        deadline = time.monotonic() + timeout if timeout is not None else None
        results: "list[ServingResult]" = []
        for future in futures:
            remaining = None
            if deadline is not None:
                remaining = max(0.0, deadline - time.monotonic())
            try:
                results.append(future.result(timeout=remaining))
            except FuturesTimeout:
                raise DeadlineExceeded(
                    f"gateway timeout of {timeout:.3f}s exceeded awaiting "
                    f"request {len(results)}",
                    deadline_seconds=timeout or 0.0,
                ) from None
        return results

    def _dispatch_loop(self, index: int) -> None:
        """One shard's consumer: take micro-batches, serve, resolve."""
        shard = self._shards[index]
        queue = self._queues[index]
        while True:
            batch: "list[_Pending]" = queue.take()
            if not batch:
                # take() returns empty only once closed and drained.
                return
            self.stats.record_batch(len(batch))
            try:
                results = shard.ask_many(
                    [pending.request for pending in batch], strict=False
                )
            except BaseException as error:  # noqa: BLE001 — isolate the batch
                for pending in batch:
                    if not pending.future.done():
                        pending.future.set_exception(error)
                continue
            for pending, result in zip(batch, results):
                pending.future.set_result(result)
