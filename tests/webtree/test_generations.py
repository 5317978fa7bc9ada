"""The shared generational-file layer under the store and the index.

Both payload codecs frame their files the same way and are validated by
the same code, so the framing checks are parametrized over both; the
manifest and reader checks pin what the two payloads share.
"""

import pytest

from repro.core.errors import IngestError
from repro.retrieval.index import build_corpus_index, open_corpus_index
from repro.serving.corpus import build_corpus_store, update_corpus_store
from repro.webtree.generations import Manifest, read_manifest, write_manifest
from repro.webtree.store import open_store

DOCS = [
    ("<html><body><h1>Alice</h1><p>compiler verification</p></body></html>",
     "https://g/alice"),
    ("<html><body><h1>Robert</h1><p>query optimization</p></body></html>",
     "https://g/robert"),
]
CHANGED = "<html><body><h1>Alice</h1><p>program synthesis</p></body></html>"

#: payload -> (file of that payload in a freshly indexed corpus, opener)
CODECS = {
    "store": ("c.rpw", open_store),
    "index": ("c.rpw.idx-1", open_corpus_index),
}


def _corpus(tmp_path):
    path = str(tmp_path / "c.rpw")
    build_corpus_store(DOCS, path)
    build_corpus_index(path)
    return path


@pytest.mark.parametrize("payload", sorted(CODECS))
def test_junk_between_manifest_and_footer_is_rejected(tmp_path, payload):
    path = _corpus(tmp_path)
    name, opener = CODECS[payload]
    data = (tmp_path / name).read_bytes()
    opener(path)  # intact: opens
    footer = 24  # u64 offset + u64 length + 8-byte magic
    (tmp_path / name).write_bytes(data[:-footer] + b"junk" + data[-footer:])
    with pytest.raises(IngestError, match="manifest bounds"):
        opener(path)


def test_manifest_round_trips(tmp_path):
    path = str(tmp_path / "c.rpw")
    assert read_manifest(path) == Manifest()
    manifest = Manifest(
        generation=7,
        removed=frozenset({"fp-a", "fp-b"}),
        store=("c.rpw.seg-3",),
        index=("c.rpw.idx-5", "c.rpw.idx.seg-7"),
    )
    write_manifest(path, manifest)
    assert read_manifest(path) == manifest
    write_manifest(path, Manifest(generation=8))
    assert read_manifest(path).index is None


@pytest.mark.parametrize(
    "payload",
    [b"not json", b"[]", b'{"format": 2, "generation": -1, "removed": [], '
     b'"store": []}', b'{"format": 2, "generation": 1, "removed": "x", '
     b'"store": []}'],
)
def test_malformed_manifest_fails_loudly(tmp_path, payload):
    path = str(tmp_path / "c.rpw")
    (tmp_path / "c.rpw.gen").write_bytes(payload)
    with pytest.raises(IngestError):
        read_manifest(path)


def test_pinned_readers_ignore_reloads(tmp_path):
    path = _corpus(tmp_path)
    store, index = open_store(path), open_corpus_index(path)
    pinned_store, pinned_index = store.pinned(), index.pinned()
    update_corpus_store(path, [(CHANGED, DOCS[0][1])])
    assert store.reload() and index.reload()
    assert store.generation == index.generation == 2
    assert pinned_store.generation == pinned_index.generation == 1
    assert set(pinned_store.fingerprints()) == set(pinned_index.fingerprints())
    assert set(pinned_store.fingerprints()) != set(store.fingerprints())


def test_ensure_fresh_pins_both_readers_to_one_manifest(tmp_path):
    path = _corpus(tmp_path)
    store, index = open_store(path), open_corpus_index(path)
    assert index.ensure_fresh(store).generation == 1
    update_corpus_store(path, [(CHANGED, DOCS[0][1])])
    # Neither reader has reloaded; a store view at the old generation
    # keeps the index there: no file is read.
    view = store.pinned()
    assert index.ensure_fresh(view).generation == view.generation == 1
    # A store view at the new generation moves the index with it.
    store.reload()
    view = store.pinned()
    assert index.ensure_fresh(view).generation == 2
    # And an index ahead of an old store view moves the view, never
    # the other way round.
    old = store.pinned()
    update_corpus_store(path, [], remove_urls=(DOCS[1][1],))
    index.reload()
    pinned = index.ensure_fresh(old)
    assert pinned.generation == old.generation == 3
    assert set(pinned.fingerprints()) == set(old.fingerprints())


def test_ensure_fresh_refuses_a_manifest_that_went_back(tmp_path):
    path = _corpus(tmp_path)
    index = open_corpus_index(path)
    update_corpus_store(path, [(CHANGED, DOCS[0][1])])
    store = open_store(path)
    (tmp_path / "c.rpw.gen").unlink()
    with pytest.raises(IngestError, match="went back"):
        index.ensure_fresh(store)
