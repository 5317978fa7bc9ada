"""Routed ≡ exhaustive: the corpus-answering differential suite.

The index is only allowed to be *fast*, never *different*: for every
question, `ask_corpus` through the memmap index must return the exact
:class:`~repro.retrieval.router.CorpusAnswer` — answer tuple, consensus
page, url, score, support and full candidate ranking — that the
O(corpus) exhaustive scan returns.  This suite holds that equality over
all 25 dataset tasks on a mixed-domain store, over hypothesis-driven
``top_k`` choices, and at the raw scoring layer over hypothesis-built
sparse queries; plus the sharded-gateway entry point against the
single-service one.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.webqa import WebQA
from repro.dataset.corpus import load_task_dataset
from repro.dataset.tasks import TASKS, TASKS_BY_ID
from repro.nlp.tokenize import words
from repro.retrieval.index import entity_key, open_corpus_index, page_text
from repro.retrieval.index import build_corpus_index
from repro.retrieval.router import cut_top_k, query_terms, scan_scores
from repro.serving.corpus import build_dataset_store
from repro.serving.gateway import ServingGateway
from repro.serving.service import QAService
from repro.webtree.store import open_store

#: Deliberately lean fit knobs: the differential pins serving-path
#: equality, not extraction quality, so small ensembles keep 25 fits CI-
#: cheap while still producing heterogeneous programs per route.
FIT = dict(n_pages=4, n_train=2, seed=0, use_label_suggestions=False)


@pytest.fixture(scope="module")
def rig(tmp_path_factory):
    """One 24-page mixed-domain indexed store with all 25 tasks fitted."""
    path = str(tmp_path_factory.mktemp("router") / "corpus.rpw")
    build_dataset_store(path, pages_per_domain=6)
    build_corpus_index(path)
    service = QAService(jobs=1, store=path)
    for task in TASKS:
        dataset = load_task_dataset(task, **FIT)
        tool = WebQA(ensemble_size=12).fit(
            task.question,
            task.keywords,
            list(dataset.train),
            list(dataset.test_pages),
            dataset.models,
        )
        service.register(task.task_id, tool)
    yield service, path
    service.close()


def _strip_routed(answer):
    payload = answer.as_dict()
    routed = payload.pop("routed")
    return payload, routed


@pytest.mark.parametrize("task_id", sorted(TASKS_BY_ID))
def test_routed_equals_exhaustive_on_every_task(rig, task_id):
    service, _ = rig
    routed, was_routed = _strip_routed(service.ask_corpus(task_id, top_k=8))
    scanned, was_scanned = _strip_routed(
        service.ask_corpus(task_id, top_k=8, exhaustive=True)
    )
    assert was_routed is True and was_scanned is False
    assert routed == scanned
    assert routed["answer"] or routed["candidates"]


@given(top_k=st.integers(min_value=0, max_value=30))
@settings(max_examples=8, deadline=None)
def test_any_top_k_is_equal(rig, top_k):
    service, _ = rig
    routed, _ = _strip_routed(service.ask_corpus("fac_t1", top_k=top_k))
    scanned, _ = _strip_routed(
        service.ask_corpus("fac_t1", top_k=top_k, exhaustive=True)
    )
    assert routed == scanned
    assert len(routed["candidates"]) <= max(top_k, 0)


def test_explicit_question_routes_identically(rig):
    service, _ = rig
    question = "Which professor teaches the databases class?"
    routed, _ = _strip_routed(
        service.ask_corpus("class_t2", question, top_k=6)
    )
    scanned, _ = _strip_routed(
        service.ask_corpus("class_t2", question, top_k=6, exhaustive=True)
    )
    assert routed == scanned
    assert routed["question"] == question


def _term_pool(store_path):
    """Real corpus tokens + entity keys + guaranteed-unseen terms."""
    store = open_store(store_path)
    pool = set()
    for fingerprint in sorted(store.fingerprints())[:6]:
        page, _ = store.load(fingerprint)
        tokens = words(page_text(page))
        pool.update(tokens[:40])
        if tokens:
            pool.add(entity_key("person", " ".join(tokens[:2])))
    pool.update({"zzzunseen", "qqqnotacorpusword"})
    return sorted(pool)


@pytest.fixture(scope="module")
def scoring_rig(rig):
    _service, path = rig
    reader = open_corpus_index(path)
    return open_store(path), reader, _term_pool(path)


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_scoring_layer_differential(scoring_rig, data):
    """Raw scores over arbitrary sparse queries: index == scan, bit-exact."""
    store, reader, pool = scoring_rig
    terms = data.draw(
        st.lists(st.sampled_from(pool), min_size=1, max_size=8, unique=True)
    )
    weight = data.draw(
        st.floats(min_value=0.25, max_value=4.0, allow_nan=False)
    )
    query = {term: weight for term in terms}
    scanned = scan_scores(store, reader.idf(), query)
    assert reader.score(query) == scanned
    top_k = data.draw(st.integers(min_value=0, max_value=12))
    assert reader.route(query, top_k) == cut_top_k(scanned, top_k)


def test_gateway_matches_single_service(rig, tmp_path):
    """The sharded entry point returns the service's exact CorpusAnswer."""
    service, path = rig
    with ServingGateway(shards=2, store=path) as gateway:
        for task_id in ("fac_t1", "clinic_t5"):
            gateway.register(task_id, service.tool(task_id))
            via_gateway, was_routed = _strip_routed(
                gateway.ask_corpus(task_id, top_k=8)
            )
            direct, _ = _strip_routed(service.ask_corpus(task_id, top_k=8))
            assert was_routed is True
            assert via_gateway == direct
            via_scan, _ = _strip_routed(
                gateway.ask_corpus(task_id, top_k=8, exhaustive=True)
            )
            assert via_scan == direct
