"""Synthesis-engine microbenchmarks: the hot paths behind Table 3.

These are classic pytest-benchmark timings (many rounds) of the
individual components: HTML parsing, tree building, the three neural
primitives, DSL evaluation, guard enumeration and extractor synthesis.

DSL evaluation and synthesis are measured in both engine modes — the
default ``indexed`` engine and the ``reference`` interpreter it
replaced — so the speedup is tracked directly in this suite (and in the
BENCH_synthesis_micro.json artifact written by
``python -m repro.cli bench --output``).
"""

from dataclasses import replace

from repro.dataset import generate_page
from repro.dsl import EvalContext, ast
from repro.html import parse_html
from repro.nlp import NlpModels
from repro.synthesis import (
    LabeledExample,
    SynthesisSession,
    TaskContexts,
    synthesize,
    synthesize_branch,
)
from repro.synthesis.config import SynthesisConfig
from repro.dsl.productions import ProductionConfig, fine_thresholds
from repro.webtree import build_tree

MODELS = NlpModels()
QUESTION = "Who are the current PhD students?"
KEYWORDS = ("Current Students", "PhD")

PAGE_HTML = generate_page("faculty", 11).html
PAGE = generate_page("faculty", 11).page
GOLD = generate_page("faculty", 11).gold["fac_t1"]
# Seed 16 chosen so the two-branch partitions stay feasible against the
# seed-11 page: the warm-refit benchmark then actually exercises block
# reuse (blocks_reused > 0), not just cache misses.
PAGE2 = generate_page("faculty", 16).page
GOLD2 = generate_page("faculty", 16).gold["fac_t1"]

SMALL = SynthesisConfig(
    productions=ProductionConfig(
        keyword_thresholds=(0.7,),
        entity_labels=("PERSON", "ORG", "DATE"),
        use_negation=False,
        use_subtree_text=False,
    ),
    guard_depth=3,
    extractor_depth=3,
    max_branches=1,
)
SMALL_REFERENCE = replace(SMALL, engine="reference")


def test_bench_parse_html(benchmark):
    doc = benchmark(parse_html, PAGE_HTML)
    assert doc.body is not None


# -- tokenizer fast path: vectorized scanner vs the stdlib event parser -------
#
# Both variants parse the same spread of dataset pages (all four domains,
# several seeds each) so the ratio reflects corpus-shaped markup, not one
# lucky page.  The vectorized median is guarded in CI and its win over
# the stdlib path is tracked as a speedup pair (≥2x by construction of
# the PR that introduced it).

_PARSE_CORPUS = [
    generate_page(domain, seed).html
    for domain in ("faculty", "conference", "class", "clinic")
    for seed in range(3, 27, 2)
]


def test_bench_parse_html_stdlib(benchmark):
    def run():
        return [
            parse_html(html, tokenizer="stdlib") for html in _PARSE_CORPUS
        ]

    docs = benchmark(run)
    assert len(docs) == len(_PARSE_CORPUS)


def test_bench_parse_html_vectorized(benchmark):
    def run():
        return [parse_html(html) for html in _PARSE_CORPUS]

    docs = benchmark(run)
    assert len(docs) == len(_PARSE_CORPUS)
    # The fast scanner must actually take its fast path on dataset pages;
    # a silent wholesale fallback would quietly measure stdlib twice.
    assert not any(doc.fast_fallback for doc in docs)


def test_bench_build_tree(benchmark):
    doc = parse_html(PAGE_HTML)
    page = benchmark(build_tree, doc)
    assert page.size() > 3


def test_bench_keyword_similarity(benchmark):
    matcher = NlpModels().keywords  # fresh: no memoized results

    def score():
        return matcher.similarity("Professional Service and Activities", "PC")

    value = benchmark(score)
    assert 0.0 <= value <= 1.0


# -- cold keyword plane: batched scoring vs the scalar loop -------------------
#
# The workload the page-level TextPlane actually runs, at serving scale:
# score every node text of a batch of pages against the task keywords,
# starting from a matcher with no phrase/tokenization caches (the
# module-level word-vector cache stays warm in both variants, exactly
# like test_bench_keyword_similarity).

_PLANE_TEXTS = [
    text
    for seed in range(3, 99, 6)
    for text in generate_page("faculty", seed).page.index().texts
]


def test_bench_keyword_similarity_scalar_cold(benchmark):
    from repro.nlp import KeywordMatcher

    def run():
        matcher = KeywordMatcher()  # cold phrase/word-token caches
        return [matcher.best_similarity(text, KEYWORDS) for text in _PLANE_TEXTS]

    scores = benchmark(run)
    assert len(scores) == len(_PLANE_TEXTS)


def test_bench_keyword_similarity_batch_cold(benchmark):
    from repro.nlp import KeywordMatcher

    def run():
        matcher = KeywordMatcher()  # cold phrase/word-token caches
        return matcher.similarity_batch(_PLANE_TEXTS, KEYWORDS)

    scores = benchmark(run)
    assert len(scores) == len(_PLANE_TEXTS)


def test_bench_ner_extraction(benchmark):
    from repro.nlp.ner import extract_entities

    text = PAGE.root.subtree_text()[:500]
    spans = benchmark(extract_entities, text)
    assert isinstance(spans, list)


def test_bench_qa_answer(benchmark):
    model = NlpModels().qa
    passage = PAGE.root.subtree_text()[:800]

    def answer():
        model._cache.clear()
        return model.answer(QUESTION, passage)

    benchmark(answer)


_LOCATOR = ast.GetDescendants(
    ast.GetRoot(), ast.MatchText(ast.MatchKeyword(0.7), False)
)


def test_bench_eval_locator(benchmark):
    # Warm path: page-scoped caches persist across contexts, so this
    # measures the steady-state cost synthesis actually pays when it
    # re-evaluates a locator over an already-analyzed page.
    def run():
        ctx = EvalContext(PAGE, QUESTION, KEYWORDS, MODELS)
        return ctx.eval_locator(_LOCATOR)

    benchmark(run)


def test_bench_eval_locator_cold(benchmark):
    # Cold path: the index (and every page-scoped memo) is rebuilt each
    # round, isolating first-evaluation cost from cache-hit cost.  The
    # module-level MODELS keeps its internal memos, exactly like the
    # reference benchmark below.
    def run():
        PAGE.invalidate_index()
        ctx = EvalContext(PAGE, QUESTION, KEYWORDS, MODELS)
        return ctx.eval_locator(_LOCATOR)

    benchmark(run)


def test_bench_eval_locator_reference(benchmark):
    def run():
        ctx = EvalContext(PAGE, QUESTION, KEYWORDS, MODELS, engine="reference")
        return ctx.eval_locator(_LOCATOR)

    benchmark(run)


def test_bench_eval_extractor(benchmark):
    ctx = EvalContext(PAGE, QUESTION, KEYWORDS, MODELS)
    nodes = ctx.eval_locator(ast.get_leaves(ast.GetRoot()))
    extractor = ast.Filter(
        ast.Split(ast.ExtractContent(), ","), ast.HasEntity("PERSON")
    )

    def run():
        fresh = EvalContext(PAGE, QUESTION, KEYWORDS, MODELS)
        return fresh.eval_extractor(extractor, nodes)

    benchmark(run)


def test_bench_branch_synthesis(benchmark):
    def run():
        # Drop the page-scoped caches so every round is a cold synthesis
        # run (cache reuse *within* the run is the engine's own win);
        # MODELS keeps its internal memos, like the reference variants.
        PAGE.invalidate_index()
        contexts = TaskContexts(QUESTION, KEYWORDS, MODELS)
        return synthesize_branch(
            [LabeledExample(PAGE, GOLD)], [], contexts, SMALL
        )

    # 15 rounds, not 5: this median is a CI merge gate, and at rounds=5
    # the distribution was unstable enough (stddev ≈ mean, mean 12.3ms vs
    # median 6.7ms) that one slow outlier round could flip the verdict.
    # The gate itself compares *medians* (benchtool CompareRow), which
    # the extra rounds make robust.
    space = benchmark.pedantic(run, rounds=15, iterations=1, warmup_rounds=1)
    assert space.f1 > 0


def test_bench_branch_synthesis_sequential(benchmark):
    # The per-candidate scalar schedule (frontier=False): the oracle the
    # frontier engine is differentially pinned against, timed so the
    # artifact tracks the frontier win as a median ratio.
    config = replace(SMALL, frontier=False)

    def run():
        PAGE.invalidate_index()
        contexts = TaskContexts(QUESTION, KEYWORDS, MODELS)
        return synthesize_branch(
            [LabeledExample(PAGE, GOLD)], [], contexts, config
        )

    # Rounds match test_bench_branch_synthesis: the two medians form a
    # tracked speedup pair, so they should face the same noise regime.
    space = benchmark.pedantic(run, rounds=15, iterations=1, warmup_rounds=1)
    assert space.f1 > 0


# -- frontier guard sweep: one GenGuards family, fine threshold grid ----------
#
# The workload the classify_guard_frontier kernel exists for: the paper's
# 0.05-step matchKeyword threshold grid makes GenGuards emit a ~25-guard
# family over one locator; the frontier classifies the whole family with
# one locator evaluation and one scoring pass per page.  Page caches are
# dropped per round (cold, like branch synthesis); MODELS keeps its memos.

_SWEEP_PRODUCTIONS = ProductionConfig(
    keyword_thresholds=fine_thresholds(0.05),
    entity_labels=("PERSON", "ORG", "DATE"),
)
_SWEEP_LOCATOR = ast.GetDescendants(ast.GetRoot(), ast.IsLeaf())


def test_bench_frontier_guard_sweep(benchmark):
    from repro.dsl.productions import gen_guards

    family = list(gen_guards(_SWEEP_LOCATOR, _SWEEP_PRODUCTIONS))
    positives = [LabeledExample(PAGE, GOLD)]
    negatives = [LabeledExample(PAGE2, GOLD2)]

    def run():
        PAGE.invalidate_index()
        PAGE2.invalidate_index()
        contexts = TaskContexts(QUESTION, KEYWORDS, MODELS)
        return contexts.classify_guard_frontier(family, positives, negatives)

    # Guarded median: 15 rounds for the same outlier robustness as
    # test_bench_branch_synthesis.
    verdicts = benchmark.pedantic(run, rounds=15, iterations=1, warmup_rounds=1)
    assert len(verdicts) == len(family)


def test_bench_full_synthesis(benchmark):
    # Steady-state: page-scoped caches are deliberately pre-warmed (not
    # left to test ordering), measuring what repeated synthesis over an
    # already-analyzed page costs — the experiments-pipeline hot path.
    # The _cold variant below isolates first-synthesis cost.
    examples = [LabeledExample(PAGE, GOLD)]
    synthesize(examples, QUESTION, KEYWORDS, MODELS, SMALL)

    def run():
        return synthesize(examples, QUESTION, KEYWORDS, MODELS, SMALL)

    # Guarded medians get >= 7 rounds (see test_bench_branch_synthesis);
    # full synthesis is slow enough that 7 keeps the suite affordable
    # while still drowning a single outlier round.
    result = benchmark.pedantic(run, rounds=7, iterations=1, warmup_rounds=0)
    assert result.f1 > 0


def test_bench_full_synthesis_cold(benchmark):
    examples = [LabeledExample(PAGE, GOLD)]

    def run():
        # Cold per round — see test_bench_branch_synthesis.
        PAGE.invalidate_index()
        return synthesize(examples, QUESTION, KEYWORDS, MODELS, SMALL)

    result = benchmark.pedantic(run, rounds=7, iterations=1, warmup_rounds=0)
    assert result.f1 > 0


def test_bench_full_synthesis_reference(benchmark):
    examples = [LabeledExample(PAGE, GOLD)]

    def run():
        return synthesize(examples, QUESTION, KEYWORDS, MODELS, SMALL_REFERENCE)

    result = benchmark.pedantic(run, rounds=3, iterations=1, warmup_rounds=0)
    assert result.f1 > 0


# -- incremental sessions: warm refit vs fresh synthesis ---------------------
#
# The interactive loop of the paper: fit on k examples, label one more,
# synthesize again.  A session reuses every branch-synthesis block whose
# (block, negatives) content did not change; the fresh baseline re-solves
# all of them.  Page-scoped eval caches are pre-warmed in every variant,
# so the measured delta is the session layer's own win, not engine memo
# warmup.

REFIT_CONFIG = replace(SMALL, max_branches=2)
BASE_EXAMPLE = LabeledExample(PAGE, GOLD)
NEW_EXAMPLE = LabeledExample(PAGE2, GOLD2)


def _prewarm_refit_pages():
    synthesize([BASE_EXAMPLE, NEW_EXAMPLE], QUESTION, KEYWORDS, MODELS, REFIT_CONFIG)


def test_bench_session_refit_warm(benchmark):
    _prewarm_refit_pages()

    def setup():
        session = SynthesisSession(
            QUESTION, KEYWORDS, MODELS, config=REFIT_CONFIG,
            examples=[BASE_EXAMPLE],
        )
        session.synthesize()
        return (session,), {}

    def run(session):
        session.add_example(NEW_EXAMPLE)
        return session.synthesize()

    result = benchmark.pedantic(run, setup=setup, rounds=3, iterations=1)
    assert result.f1 > 0
    assert result.stats.blocks_reused > 0


def test_bench_session_resynthesize(benchmark):
    _prewarm_refit_pages()
    session = SynthesisSession(
        QUESTION, KEYWORDS, MODELS, config=REFIT_CONFIG,
        examples=[BASE_EXAMPLE, NEW_EXAMPLE],
    )
    session.synthesize()

    def run():
        return session.synthesize()

    result = benchmark.pedantic(run, rounds=3, iterations=1, warmup_rounds=0)
    assert result.f1 > 0
    assert result.stats.blocks_synthesized == 0


def test_bench_session_refit_fresh(benchmark):
    _prewarm_refit_pages()
    examples = [BASE_EXAMPLE, NEW_EXAMPLE]

    def run():
        return synthesize(examples, QUESTION, KEYWORDS, MODELS, REFIT_CONFIG)

    result = benchmark.pedantic(run, rounds=3, iterations=1, warmup_rounds=0)
    assert result.f1 > 0


def test_bench_live_update(benchmark):
    """End-to-end live feed: publish → invalidate → warm refit → hot-swap.

    One unlabeled page alternates between two content variants, so every
    round is a real change (fresh fingerprint) but the labeled examples
    never move — the refit runs in the fully-cached resynthesize regime
    and the measured time is the live-update machinery itself plus
    selection, compared against ``test_bench_session_refit_fresh``.
    """
    from repro.core.webqa import WebQA
    from repro.serving.ingest import ingest_html
    from repro.serving.live import LiveCorpus
    from repro.serving.service import QAService

    _prewarm_refit_pages()
    url = "https://bench/live-update"
    variants = [
        generate_page("faculty", seed=70).html,
        generate_page("faculty", seed=71).html,
    ]
    service = QAService()
    session = SynthesisSession(
        QUESTION, KEYWORDS, MODELS, config=REFIT_CONFIG,
        examples=[BASE_EXAMPLE, NEW_EXAMPLE],
    )
    unlabeled = [ingest_html(variants[0], url=url)]
    tool = WebQA(
        config=REFIT_CONFIG, ensemble_size=8, selection="shortest"
    ).fit_session(session, unlabeled)
    service.register("bench", tool)
    live = LiveCorpus(service)
    live.track(
        "bench", session, unlabeled=unlabeled,
        ensemble_size=8, selection="shortest",
    )
    # Warm both variants through once so neural memos are populated.
    live.feed(variants[1], url)
    live.feed(variants[0], url)
    state = {"i": 0}

    def run():
        state["i"] ^= 1
        return live.feed(variants[state["i"]], url)

    report = benchmark.pedantic(run, rounds=7, iterations=1, warmup_rounds=0)
    assert not report.unchanged
    assert report.swaps and report.swaps[0].swapped
    service.close()


# -- serving: compiled predict / predict_batch --------------------------------
#
# The production-shaped path: one fitted tool answering previously
# unseen pages.  Every round serves *fresh page objects* (deep copies
# made in untimed setup), so per-request work — index build, plane
# scoring, compiled plan execution — is measured cold, while the tool's
# compiled plan and the model bundle's memos stay warm, exactly the
# steady state of a serving process.

_SERVE_PAGES = [generate_page("faculty", seed).page for seed in range(40, 52)]
_SERVE_TOOL = None


def _serving_tool():
    global _SERVE_TOOL
    if _SERVE_TOOL is None:
        from repro.core.webqa import WebQA

        _SERVE_TOOL = WebQA(config=SMALL, selection="shortest").fit(
            QUESTION,
            KEYWORDS,
            [LabeledExample(PAGE, GOLD)],
            _SERVE_PAGES[:2],
            MODELS,
        )
    return _SERVE_TOOL


def _fresh_serve_pages():
    import copy

    return (copy.deepcopy(_SERVE_PAGES),), {}


def test_bench_predict(benchmark):
    tool = _serving_tool()

    def run(pages):
        return [tool.predict(page) for page in pages]

    answers = benchmark.pedantic(
        run, setup=_fresh_serve_pages, rounds=3, iterations=1, warmup_rounds=1
    )
    assert len(answers) == len(_SERVE_PAGES)


def test_bench_predict_batch(benchmark):
    tool = _serving_tool()

    def run(pages):
        return tool.predict_batch(pages, jobs=2)

    answers = benchmark.pedantic(
        run, setup=_fresh_serve_pages, rounds=3, iterations=1, warmup_rounds=1
    )
    assert len(answers) == len(_SERVE_PAGES)
    assert answers == [tool.predict(page) for page in _SERVE_PAGES]


# -- artifact store + QAService: the production serving stack -----------------
#
# artifact_load is the deployment-critical path (a worker process picking
# up a program); serve_cold is the full ingest pipeline on raw HTML with
# an empty page cache; serve_warm_batch is the steady state — warm cache,
# micro-batched dispatch — whose overhead over bare predict_batch (same
# pages, same jobs) is the service tax and must stay under 10%
# (tracked as a median_speedups pair and gated in CI).

_SERVE_HTML = [
    (generate_page("faculty", seed).html, f"https://bench/{seed}")
    for seed in range(40, 52)
]


_SERVE_ARTIFACT_PATH = None


def _serving_artifact_path():
    global _SERVE_ARTIFACT_PATH
    if _SERVE_ARTIFACT_PATH is None:
        import tempfile

        handle, path = tempfile.mkstemp(suffix=".artifact.json")
        import os

        os.close(handle)
        _serving_tool().export_artifact(path)
        _SERVE_ARTIFACT_PATH = path
    return _SERVE_ARTIFACT_PATH


def test_bench_artifact_load(benchmark):
    from repro.core.webqa import WebQA

    path = _serving_artifact_path()

    def run():
        return WebQA.from_artifact(path)

    tool = benchmark(run)
    assert tool.program == _serving_tool().program


def test_bench_serve_cold(benchmark):
    from repro.serving.service import QAService

    artifact = _serving_tool().export_artifact()
    services = []

    def setup():
        # jobs=1: inline dispatch, no worker pool.  The cold pair
        # (serve_cold vs serve_cold_store) isolates the *ingest* path —
        # thread-pool scheduling jitter on shared runners otherwise
        # swamps the medians the speedup gate divides.  The warm-batch
        # benches below keep the jobs=2 pool path covered.
        service = QAService(jobs=1, max_batch=len(_SERVE_HTML))
        service.register("bench", artifact)
        services.append(service)
        return (service,), {}

    def run(service):
        return service.ask_many(
            [("bench", html, url) for html, url in _SERVE_HTML]
        )

    try:
        # 9 rounds to match test_bench_serve_cold_store: this median is
        # the denominator of a speedup gate, and a 3-round median bounces
        # enough run-to-run to blur the ratio.
        answers = benchmark.pedantic(
            run, setup=setup, rounds=9, iterations=1, warmup_rounds=1
        )
    finally:
        for service in services:
            service.close()
    assert len(answers) == len(_SERVE_HTML)


_SERVE_STORE_PATH = None


def _serving_store_path():
    """A columnar corpus store over _SERVE_HTML, built once per session."""
    global _SERVE_STORE_PATH
    if _SERVE_STORE_PATH is None:
        import os
        import tempfile

        from repro.serving.corpus import build_corpus_store

        handle, path = tempfile.mkstemp(suffix=".rpw")
        os.close(handle)
        build_corpus_store(_SERVE_HTML, path)
        _SERVE_STORE_PATH = path
    return _SERVE_STORE_PATH


def test_bench_serve_cold_store(benchmark):
    """test_bench_serve_cold with the page planes on disk.

    Identical regime — fresh service, empty page cache, raw (html, url)
    requests — except every ingest rehydrates its prebuilt index planes
    from the memmapped store instead of parsing.  The serve_cold /
    serve_cold_store median ratio is the store's whole reason to exist
    (≥3x, tracked as a speedup pair); the median itself is guarded in CI.
    """
    from repro.serving.service import QAService

    artifact = _serving_tool().export_artifact()
    store_path = _serving_store_path()
    services = []

    def setup():
        # jobs=1 to mirror test_bench_serve_cold exactly (see there).
        service = QAService(
            jobs=1, max_batch=len(_SERVE_HTML), store=store_path
        )
        service.register("bench", artifact)
        services.append(service)
        return (service,), {}

    def run(service):
        return service.ask_many(
            [("bench", html, url) for html, url in _SERVE_HTML]
        )

    # More rounds than serve_cold: this one is a guarded CI gate and
    # fast enough (no parsing) that extra rounds are cheap.
    try:
        answers = benchmark.pedantic(
            run, setup=setup, rounds=9, iterations=1, warmup_rounds=1
        )
    finally:
        for service in services:
            service.close()
    assert len(answers) == len(_SERVE_HTML)
    # Every request must have come off the store, not the parser.
    last = services[-1]
    assert last.cache.stats.store_hits == len(_SERVE_HTML)
    # Store-backed answers are bit-identical to the parse path's.
    with QAService(jobs=2, max_batch=len(_SERVE_HTML)) as parsed_service:
        parsed_service.register("bench", artifact)
        assert answers == parsed_service.ask_many(
            [("bench", html, url) for html, url in _SERVE_HTML]
        )


def test_bench_serve_warm_batch(benchmark):
    from repro.serving.service import QAService, ServingRequest

    tool = _serving_tool()
    service = QAService(jobs=2, max_batch=len(_SERVE_PAGES))
    service.register("bench", tool.export_artifact())
    # Same fresh-page regime as test_bench_predict_batch (its overhead
    # baseline): pages handed to the service directly, cache warm in the
    # sense that ingest is a no-op — the measured delta is routing,
    # batching and stats bookkeeping.
    def setup():
        (pages,), _ = _fresh_serve_pages()
        return ([ServingRequest(route="bench", page=page) for page in pages],), {}

    def run(requests):
        return service.ask_many(requests)

    # More rounds than the neighbouring 3-round benches: this median is
    # a CI merge gate (benchtool.GUARDED), and a 3-sample median
    # of a ~1ms operation is one scheduler hiccup away from a false
    # failure on a shared runner.
    try:
        answers = benchmark.pedantic(
            run, setup=setup, rounds=15, iterations=1, warmup_rounds=2
        )
    finally:
        service.close()
    assert answers == [tool.predict(page) for page in _SERVE_PAGES]


def test_bench_serve_warm_batch_nonstrict(benchmark):
    """The isolation tax: serve_warm_batch with ``strict=False``.

    Same regime as :func:`test_bench_serve_warm_batch`, but through the
    per-request isolation path — structured :class:`ServingResult`
    objects, per-item exception walls, retry accounting — with no faults
    injected.  The ``serve_warm_batch`` / ``_nonstrict`` median ratio is
    tracked as a speedup pair: fault tolerance must not tax the clean
    path (expected ≈1.0x).
    """
    from repro.serving.service import QAService, ServingRequest

    tool = _serving_tool()
    service = QAService(jobs=2, max_batch=len(_SERVE_PAGES))
    service.register("bench", tool.export_artifact())

    def setup():
        (pages,), _ = _fresh_serve_pages()
        return ([ServingRequest(route="bench", page=page) for page in pages],), {}

    def run(requests):
        return service.ask_many(requests, strict=False)

    try:
        results = benchmark.pedantic(
            run, setup=setup, rounds=15, iterations=1, warmup_rounds=2
        )
    finally:
        service.close()
    assert all(result.ok for result in results)
    assert [r.answer for r in results] == [
        tool.predict(page) for page in _SERVE_PAGES
    ]


# One terminally poisoned request inside a healthy batch: seeds 40..55
# give a 16-page micro-batch; index 5 always fails at predict.
_FAULTY_PAGES = [generate_page("faculty", seed).page for seed in range(40, 56)]
_FAULTY_INDEX = 5


def test_bench_serve_faulty_batch(benchmark):
    """Per-request isolation under fire, timed (and gated in CI).

    A 16-page warm batch with one terminally poisoned request served
    non-strict: the poisoned slot must come back as a structured error,
    the other 15 with correct answers, and the whole round must stay in
    the same cost regime as the clean warm batch (isolation, not
    batch-wide retry or abort).
    """
    from repro.serving.faults import ALWAYS, FaultPlan
    from repro.serving.service import QAService, ServingRequest

    tool = _serving_tool()
    service = QAService(
        jobs=2,
        max_batch=len(_FAULTY_PAGES),
        fault_injector=FaultPlan(predict_faults={_FAULTY_INDEX: ALWAYS}),
    )
    service.register("bench", tool.export_artifact())

    def setup():
        import copy

        pages = copy.deepcopy(_FAULTY_PAGES)
        return ([ServingRequest(route="bench", page=page) for page in pages],), {}

    def run(requests):
        return service.ask_many(requests, strict=False)

    try:
        results = benchmark.pedantic(
            run, setup=setup, rounds=15, iterations=1, warmup_rounds=2
        )
    finally:
        service.close()
    for index, result in enumerate(results):
        if index == _FAULTY_INDEX:
            assert result.error is not None
            assert result.error.stage == "predict"
            assert result.error.injected
        else:
            assert result.ok
            assert result.answer == tool.predict(_FAULTY_PAGES[index])


# -- corpus routing: inverted-index top-k vs exhaustive scan ------------------
#
# The corpus-scale question-answering path: one fitted tool, a 2048-page
# store with its memmap inverted index, `ask_corpus` routing the question
# to the top-k candidate pages and answering by consensus.  The routed /
# exhaustive median ratio is the index's whole reason to exist (scoring
# drops from one tokenize+NER pass per store page to a handful of
# posting-list reads); the answers are bit-identical by construction and
# asserted so below.  The routed median is guarded in CI.

_ROUTING_RIG = None
_ROUTING_PAGES_PER_DOMAIN = 512  # x4 domains = 2048 store pages


def _routing_rig():
    """(service, route) over a 2048-page indexed store, built once."""
    global _ROUTING_RIG
    if _ROUTING_RIG is None:
        import os
        import tempfile

        from repro.core.webqa import WebQA
        from repro.dataset.corpus import load_task_dataset
        from repro.dataset.tasks import tasks_for_domain
        from repro.retrieval.index import build_corpus_index
        from repro.serving.corpus import build_dataset_store
        from repro.serving.service import QAService

        handle, path = tempfile.mkstemp(suffix=".rpw")
        os.close(handle)
        build_dataset_store(
            path, pages_per_domain=_ROUTING_PAGES_PER_DOMAIN
        )
        build_corpus_index(path)
        task = tasks_for_domain("faculty")[0]
        dataset = load_task_dataset(
            task, n_pages=4, n_train=2, seed=0, use_label_suggestions=False
        )
        tool = WebQA(ensemble_size=20).fit(
            task.question,
            task.keywords,
            list(dataset.train),
            list(dataset.test_pages),
            dataset.models,
        )
        service = QAService(jobs=1, store=path)
        service.register(task.task_id, tool)
        _ROUTING_RIG = (service, task.task_id)
    return _ROUTING_RIG


def test_bench_route_topk(benchmark):
    """Index-routed `ask_corpus`: score, cut top-16, fan out, consensus."""
    service, route = _routing_rig()

    def run():
        return service.ask_corpus(route, top_k=16)

    answer = benchmark.pedantic(
        run, rounds=9, iterations=1, warmup_rounds=1
    )
    assert answer.ok and answer.routed
    assert len(answer.candidates) == 16
    # The equivalence contract, enforced in the bench itself: the routed
    # answer (payload and provenance) is bit-identical to the exhaustive
    # reference scan's.
    exhaustive = service.ask_corpus(route, top_k=16, exhaustive=True)
    assert answer.answer == exhaustive.answer
    assert answer.fingerprint == exhaustive.fingerprint
    assert answer.url == exhaustive.url
    assert answer.score == exhaustive.score
    assert answer.support == exhaustive.support
    assert answer.candidates == exhaustive.candidates


def test_bench_route_exhaustive(benchmark):
    """The no-index baseline: same query, every store page scanned."""
    service, route = _routing_rig()

    def run():
        return service.ask_corpus(route, top_k=16, exhaustive=True)

    answer = benchmark.pedantic(
        run, rounds=3, iterations=1, warmup_rounds=1
    )
    assert answer.ok and not answer.routed
    assert len(answer.candidates) == 16


# -- routed layers: consensus vote and index scoring --------------------------
#
# Two layers of a routed `ask_corpus` besides store loads and predict:
# the consensus vote over the top-16 candidates' answers and the sparse
# dot-product over the index.  Each row checks its result against the
# exhaustive path's.

_ROUTING_POOL = None


def _routing_pool():
    """(candidates, answers, exhaustive answer) of the rig's top-16 call."""
    global _ROUTING_POOL
    if _ROUTING_POOL is None:
        service, route = _routing_rig()
        captured = []

        def fan_out(requests):
            results = service.ask_many(
                [request for _, request in requests], strict=False
            )
            captured.extend(r.answer if r.ok else None for r in results)
            return results

        routed = service.answer_corpus(route, None, 16, False, fan_out)
        _ROUTING_POOL = (
            list(routed.candidates),
            captured,
            service.ask_corpus(route, top_k=16, exhaustive=True),
        )
    return _ROUTING_POOL


def test_bench_route_consensus(benchmark):
    """Consensus vote over the 16 routed candidates' predicted answers."""
    from repro.retrieval.router import select_answer

    candidates, answers, exhaustive = _routing_pool()
    assert len(answers) == 16
    winner, loss, support = benchmark(select_answer, candidates, answers)
    assert candidates[winner][0] == exhaustive.fingerprint
    assert answers[winner] == exhaustive.answer
    assert (loss, support) == (exhaustive.consensus_loss, exhaustive.support)


def test_bench_index_score(benchmark):
    """`CorpusIndexReader.score` for the rig's question over 2048 pages."""
    from repro.dataset.tasks import TASKS_BY_ID
    from repro.retrieval.router import query_terms, scan_scores

    service, route = _routing_rig()
    task = TASKS_BY_ID[route]
    query = query_terms(task.question, task.keywords)
    store = service.store.pinned()
    reader = service.corpus_index().ensure_fresh(store)
    scored = benchmark(reader.score, query)
    assert scored == scan_scores(store, reader.idf(), query)
