"""Routed corpus answers while the corpus is being fed.

``ask_corpus`` scores against the index and loads the candidates from
the store.  Both come from one manifest generation, so a feed landing
anywhere inside a routed call — between its file steps, or between the
call's scoring and its page loads — never raises and never mixes two
generations: the call answers exactly as the exhaustive scan does at
the generation it scored.  Both entry points (service and gateway) run
the same body, so both are checked.
"""

import os
import sys
import threading

import pytest

import repro.serving.service as service_module
from repro.core.webqa import WebQA
from repro.dataset.corpus import generate_page, load_task_dataset
from repro.dataset.tasks import TASKS_BY_ID
from repro.retrieval.index import build_corpus_index
from repro.serving.corpus import build_dataset_store
from repro.serving.gateway import ServingGateway
from repro.serving.live import LiveCorpus
from repro.serving.service import QAService

ROUTES = ("fac_t1", "conf_t1")
TOP_K = 6


@pytest.fixture(scope="module")
def tools():
    fitted = {}
    for route in ROUTES:
        task = TASKS_BY_ID[route]
        dataset = load_task_dataset(
            task, n_pages=4, n_train=2, seed=0, use_label_suggestions=False
        )
        fitted[route] = WebQA(ensemble_size=12).fit(
            task.question,
            task.keywords,
            list(dataset.train),
            list(dataset.test_pages),
            dataset.models,
        )
    return fitted


@pytest.fixture(params=["service", "gateway"])
def front(request, tmp_path, tools):
    path = str(tmp_path / "corpus.rpw")
    build_dataset_store(path, pages_per_domain=6)
    build_corpus_index(path)
    if request.param == "service":
        front = QAService(jobs=1, store=path)
    else:
        front = ServingGateway(shards=2, store=path)
    for route, tool in tools.items():
        front.register(route, tool)
    LiveCorpus(front)
    yield front
    front.close()


def _same(a, b) -> bool:
    return a.as_dict() | {"routed": None} == b.as_dict() | {"routed": None}


def _top_candidate_url(front, route) -> str:
    answer = front.ask_corpus(route, top_k=TOP_K)
    return front.store.entry(answer.candidates[0][0])["url"]


def _unrelated_html() -> str:
    return generate_page("clinic", 4321).html


def test_feed_between_scoring_and_loading(front, monkeypatch):
    route = ROUTES[0]
    before = front.ask_corpus(route, top_k=TOP_K, exhaustive=True)
    top = before.candidates[0][0]
    url = front.store.entry(top)["url"]
    fed = []
    cut_top_k = service_module.cut_top_k

    def cut_then_feed(scored, top_k):
        candidates = cut_top_k(scored, top_k)
        if not fed:
            # The store reader reloads inside the feed: the top
            # candidate's fingerprint is gone before its page loads.
            fed.append(front.feed(_unrelated_html(), url=url))
        return candidates

    monkeypatch.setattr(service_module, "cut_top_k", cut_then_feed)
    during = front.ask_corpus(route, top_k=TOP_K)
    monkeypatch.undo()
    assert fed and top not in front.store
    assert _same(during, before)
    after = front.ask_corpus(route, top_k=TOP_K)
    assert _same(after, front.ask_corpus(route, top_k=TOP_K, exhaustive=True))
    assert after.candidates != before.candidates


def test_reads_between_publish_steps_see_the_old_generation(front, monkeypatch):
    old = {route: front.ask_corpus(route, top_k=TOP_K) for route in ROUTES}
    url = _top_candidate_url(front, ROUTES[0])
    steps = []
    replace = os.replace

    def replace_then_ask(source, target):
        replace(source, target)
        answers = {}
        for route in ROUTES:
            routed = front.ask_corpus(route, top_k=TOP_K)
            assert _same(
                routed, front.ask_corpus(route, top_k=TOP_K, exhaustive=True)
            )
            answers[route] = routed
        steps.append((os.path.basename(target), answers))

    monkeypatch.setattr(os, "replace", replace_then_ask)
    front.feed(_unrelated_html(), url=url)
    monkeypatch.undo()
    names = [name for name, _ in steps]
    assert names == ["corpus.rpw.seg-2", "corpus.rpw.idx.seg-2", "corpus.rpw.gen"]
    for name, answers in steps[:-1]:
        for route in ROUTES:
            assert _same(answers[route], old[route]), name
    new = front.ask_corpus(ROUTES[0], top_k=TOP_K)
    assert new.candidates != old[ROUTES[0]].candidates


def test_concurrent_reads_during_feeds_match_some_generation(front):
    """Readers racing a feeder: every routed answer is the exhaustive
    answer of one published generation, and no read raises."""
    route = ROUTES[0]
    expected = [front.ask_corpus(route, top_k=TOP_K, exhaustive=True)]
    urls = [
        front.store.entry(fp)["url"] for fp, _ in expected[0].candidates[:4]
    ]
    answers, errors = [], []
    stop = threading.Event()

    def reader():
        while not stop.is_set():
            try:
                answers.append(front.ask_corpus(route, top_k=TOP_K))
            except Exception as error:  # noqa: BLE001 — reported below
                errors.append(error)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    threads = [threading.Thread(target=reader) for _ in range(4)]
    try:
        for thread in threads:
            thread.start()
        for seed, url in enumerate(urls):
            front.feed(generate_page("clinic", 5000 + seed).html, url=url)
            expected.append(
                front.ask_corpus(route, top_k=TOP_K, exhaustive=True)
            )
    finally:
        stop.set()
        for thread in threads:
            thread.join(timeout=60)
        sys.setswitchinterval(switch)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors
    assert answers
    for answer in answers:
        assert any(_same(answer, reference) for reference in expected)
