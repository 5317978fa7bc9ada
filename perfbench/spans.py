"""In-memory span tracing, installed from outside the program.

Nothing under ``src/`` knows about this module.  :func:`install` rebinds
the public functions of each layer (module attributes, every alias a
``from x import f`` made of them, and class attributes) to timing
wrappers; :meth:`Patches.undo` puts the originals back.  Spans stay in
memory and are summarized (and optionally written out) when the run
ends.

Model:

* An **op** is one end-to-end operation of a workload (one task fit, one
  ``ask_corpus`` call, one served request, one feed).  The workload
  opens it, on the thread that drives it, with :meth:`Tracer.op`.
* A **span** is one call into a layer.  Spans nest per thread; a span's
  *self* time is its duration minus that of its children.  A span opened
  with no enclosing span belongs to the op of its thread, or, on a
  gateway dispatcher thread, to the ops of the requests in the
  micro-batch that thread just took from its queue.
* ``trace.attributed_share`` is the part of the ops' wall time covered
  by their top-level spans.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from collections import defaultdict

now = time.perf_counter


class Op:
    __slots__ = ("name", "start", "end", "spans")

    def __init__(self, name: str, start: float) -> None:
        self.name = name
        self.start = start
        self.end = start
        self.spans: list = []


class Span:
    __slots__ = ("name", "start", "end", "child", "parent", "ops")

    def __init__(self, name, start, parent, ops) -> None:
        self.name = name
        self.start = start
        self.end = start
        self.child = 0.0
        self.parent = parent
        self.ops = ops


class Tracer:
    """Collects spans, ops, counters and samples in memory."""

    def __init__(self) -> None:
        self.spans: "list[Span]" = []
        self.ops: "list[Op]" = []
        self.counts: "dict[str, float]" = defaultdict(float)
        self.samples: "dict[str, list[float]]" = defaultdict(list)
        self._local = threading.local()
        #: id(queued item) -> (put time, ops of the putting thread).
        self._queued: "dict[int, tuple[float, tuple]]" = {}
        self._count_lock = threading.Lock()

    def count(self, name: str, amount: float = 1) -> None:
        with self._count_lock:
            self.counts[name] += amount

    # -- ops ---------------------------------------------------------------

    def op(self, name: str, start: "float | None" = None) -> Op:
        """Open an op and make it the calling thread's current op."""
        op = Op(name, now() if start is None else start)
        self.ops.append(op)
        self._local.op = op
        return op

    def end_op(self, op: Op, end: "float | None" = None) -> None:
        op.end = now() if end is None else end
        self.detach()

    def detach(self) -> None:
        """Stop attributing the calling thread's spans to its op."""
        self._local.op = None

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _current_ops(self) -> tuple:
        op = getattr(self._local, "op", None)
        if op is not None:
            return (op,)
        return getattr(self._local, "linked", ())

    # -- spans -------------------------------------------------------------

    def open(self, name: str) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else None
        span = Span(name, now(), parent, () if parent else self._current_ops())
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = now()
        stack = self._stack()
        stack.pop()
        self._finish(span)

    def record(self, name: str, start: float, end: float, ops: tuple) -> None:
        """A span measured by hand (queue waits, generator lateness)."""
        span = Span(name, start, None, ops)
        span.end = end
        self._finish(span)

    def _finish(self, span: Span) -> None:
        self.spans.append(span)
        if span.parent is not None:
            span.parent.child += span.end - span.start
        for op in span.ops:
            op.spans.append(span)

    # -- the coalescing queue ----------------------------------------------

    def queued(self, item: object) -> None:
        self._queued[id(item)] = (now(), self._current_ops())

    def dequeued(self, batch: list) -> None:
        taken = now()
        linked: list = []
        for item in batch:
            put, ops = self._queued.pop(id(item), (taken, ()))
            self.samples["runtime.batchq.wait_ms"].append((taken - put) * 1e3)
            self.record("runtime.batchq.wait", put, taken, ops)
            linked.extend(op for op in ops if op not in linked)
        self._local.linked = tuple(linked)
        if batch:
            self.count("runtime.batchq.batches")
            self.count("runtime.batchq.items", len(batch))

    # -- summaries ---------------------------------------------------------

    def totals(self) -> "dict[str, tuple[int, float, float]]":
        """name -> (calls, total seconds, self seconds)."""
        out: "dict[str, list]" = defaultdict(lambda: [0, 0.0, 0.0])
        for span in self.spans:
            entry = out[span.name]
            duration = span.end - span.start
            entry[0] += 1
            entry[1] += duration
            entry[2] += duration - span.child
        return {name: tuple(entry) for name, entry in out.items()}

    def attributed_share(self) -> float:
        """Share of the ops' wall time covered by their top-level spans."""
        wall = covered = 0.0
        for op in self.ops:
            if op.end <= op.start:
                continue
            wall += op.end - op.start
            intervals = sorted(
                (max(s.start, op.start), min(s.end, op.end)) for s in op.spans
            )
            reach = op.start
            for start, end in intervals:
                start = max(start, reach)
                if end > start:
                    covered += end - start
                    reach = end
        return covered / wall if wall else 0.0

    def write(self, path: str) -> None:
        """Write every span and op as JSON lines (times in seconds)."""
        index = {id(op): i for i, op in enumerate(self.ops)}
        with open(path, "w", encoding="utf-8") as out:
            for i, op in enumerate(self.ops):
                out.write(json.dumps(
                    {"op": i, "name": op.name, "start": op.start, "end": op.end}
                ) + "\n")
            for span in self.spans:
                out.write(json.dumps({
                    "span": span.name, "start": span.start, "end": span.end,
                    "self": span.end - span.start - span.child,
                    "ops": [index[id(op)] for op in span.ops],
                }) + "\n")


# -- patching -----------------------------------------------------------------


class Patches:
    """Rebinds attributes and restores them on :meth:`undo`."""

    def __init__(self) -> None:
        self._undo: list = []

    def function(self, module, name: str, make) -> None:
        """Replace ``module.name`` and every alias of it in ``repro.*``."""
        original = getattr(module, name)
        wrapped = make(original)
        for mod in list(sys.modules.values()):
            if not getattr(mod, "__name__", "").startswith("repro"):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, wrapped)

    def method(self, cls, name: str, make) -> None:
        self._set(cls, name, make(cls.__dict__[name]))

    def _set(self, owner, key: str, value) -> None:
        self._undo.append((owner, key, owner.__dict__[key]))
        setattr(owner, key, value)

    def undo(self) -> None:
        while self._undo:
            owner, key, value = self._undo.pop()
            setattr(owner, key, value)


def spanned(tracer: Tracer, name: str, after=None):
    """Wrapper factory: one span per call; then ``after(args, result)``."""

    def make(fn):
        def wrapper(*args, **kwargs):
            span = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if after is not None:
                after(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    return make


def spanned_generator(tracer: Tracer, name: str, per_item: str):
    """Wrapper factory for a generator: one span per ``next()``."""

    def make(fn):
        def wrapper(*args, **kwargs):
            iterator = fn(*args, **kwargs)
            while True:
                span = tracer.open(name)
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    tracer.close(span)
                tracer.count(per_item)
                yield item

        wrapper.__wrapped__ = fn
        return wrapper

    return make


def install(tracer: Tracer) -> Patches:
    """Wrap the public functions of every layer the benchmark reports."""
    from repro.core.webqa import WebQA
    from repro.html import parser
    from repro.retrieval import index as rindex
    from repro.retrieval import router
    from repro.runtime.batchq import CoalescingQueue
    from repro.selection import transductive
    from repro.serving import corpus as scorpus
    from repro.serving import ingest
    from repro.serving.gateway import ServingGateway
    from repro.serving.service import QAService
    from repro.synthesis import branch, extractors, guards
    from repro.synthesis.session import SynthesisSession
    from repro.webtree.index import PageIndex
    from repro.webtree.store import CorpusStoreReader, CorpusStoreUpdater

    count = tracer.count
    patches = Patches()

    def session_stats(args, result):
        stats = result.stats
        count("synthesis.session.partitions", stats.partitions_explored)
        count("synthesis.extractors.evaluated", stats.extractors_evaluated)
        count("synthesis.extractors.dedup_hits", stats.extractor_dedup_hits)
        count("synthesis.session.blocks_reused", stats.blocks_reused)
        count("synthesis.session.blocks_synthesized", stats.blocks_synthesized)

    def scored(args, result):
        count("retrieval.index.pages_scored", len(result))
        count("retrieval.index.pages_live", len(args[0]))

    def cache_lookup(args, result):
        count("serving.ingest.cache_lookups", 1)
        count("serving.ingest.cache_hits", result is not None)

    def invalidated(args, result):
        count("serving.ingest.invalidations", bool(result))

    def published(args, result):
        count("webtree.store.generations", 1)

    def shed(args, result):
        error = result.result().error if result.done() else None
        if error is not None and getattr(error, "reason", "") == "overload":
            count("serving.gateway.shed", 1)

    def queue_put(put):
        def wrapper(self, item):
            tracer.queued(item)
            return put(self, item)

        return wrapper

    def queue_take(take):
        def wrapper(self):
            batch = take(self)
            tracer.dequeued(batch)
            return batch

        return wrapper

    # synthesis and selection (the learner)
    patches.method(SynthesisSession, "synthesize", spanned(
        tracer, "synthesis.session.synthesize", session_stats))
    patches.function(branch, "synthesize_branch", spanned(tracer, "synthesis.branch"))
    patches.function(guards, "iter_guards", spanned_generator(
        tracer, "synthesis.guards", "synthesis.guards.tried"))
    patches.function(extractors, "synthesize_extractors", spanned(
        tracer, "synthesis.extractors"))
    patches.function(transductive, "select_program", spanned(tracer, "selection.select"))
    patches.method(WebQA, "predict", spanned(tracer, "dsl.compile.predict"))
    # corpus routing
    patches.function(router, "query_terms", spanned(tracer, "retrieval.router.query"))
    patches.function(router, "cut_top_k", spanned(tracer, "retrieval.router.topk"))
    patches.function(router, "build_answer", spanned(tracer, "selection.consensus"))
    patches.method(rindex.CorpusIndexReader, "score", spanned(
        tracer, "retrieval.index.score", scored))
    patches.method(rindex.CorpusIndexReader, "ensure_fresh", spanned(
        tracer, "retrieval.index.ensure_fresh"))
    patches.function(rindex, "build_corpus_index", spanned(tracer, "retrieval.index.build"))
    patches.function(rindex, "update_corpus_index", spanned(tracer, "retrieval.index.update"))
    # the columnar store
    patches.function(scorpus, "build_corpus_store", spanned(tracer, "webtree.store.build"))
    patches.method(CorpusStoreReader, "load", spanned(tracer, "webtree.store.load"))
    patches.method(CorpusStoreReader, "reload", spanned(tracer, "webtree.store.reload"))
    patches.method(CorpusStoreUpdater, "publish_segment", spanned(
        tracer, "webtree.store.publish"))
    patches.method(CorpusStoreUpdater, "publish_manifest", spanned(
        tracer, "webtree.store.publish", published))
    # ingest and its cache
    patches.function(ingest, "ingest_page", spanned(tracer, "serving.ingest"))
    patches.function(parser, "parse_html", spanned(tracer, "html.parser.parse"))
    patches.method(PageIndex, "__init__", spanned(tracer, "serving.ingest.index"))
    patches.method(ingest.PageCache, "get_entry", spanned(
        tracer, "serving.ingest.cache", cache_lookup))
    patches.method(ingest.PageCache, "invalidate", spanned(
        tracer, "serving.ingest.invalidate", invalidated))
    # gateway, queue, shards, live updates
    patches.method(ServingGateway, "submit", spanned(
        tracer, "serving.gateway.submit", shed))
    patches.method(QAService, "ask_many", spanned(tracer, "serving.service.ask_many"))
    patches.method(CoalescingQueue, "put", queue_put)
    patches.method(CoalescingQueue, "take", queue_take)
    return patches
