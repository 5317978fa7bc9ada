"""Inverted-index format, generational updates, and crash safety.

The index is the second payload of the corpus: its files are listed in
the same manifest as the store's and published by the same swap, with
loud failure on corrupted *published* state.  This suite pins the
format round-trip (postings read back equal the shared
:func:`page_postings` weighting of the page text), the update protocol
(changed pages shadow, removals mask, removal-only updates advance the
manifest without a segment file, store and index always share one
generation, old-format manifests fail closed), garbage collection of
index debris, and the index side of the crash cases (the byte-boundary
sweep over the index's own writes; the sweep over the whole combined
publish lives in ``tests/webtree/test_store.py``).
"""

import os
import pickle

import pytest

from repro.core.errors import IngestError
from repro.nlp.vocab import IdfModel
from repro.retrieval.index import (
    CorpusIndexReader,
    build_corpus_index,
    open_corpus_index,
    page_postings,
    page_text,
    update_corpus_index,
)
from repro.retrieval.router import cut_top_k, query_terms, scan_scores
from repro.serving.corpus import build_corpus_store, update_corpus_store
from repro.serving.ingest import ingest_html, page_fingerprint
from repro.webtree.generations import collect_garbage, read_manifest
from repro.webtree.store import CorpusStoreUpdater, open_store

#: A deliberately tiny corpus: distinctive names and topics so routing
#: queries separate the pages, small enough that the byte-boundary
#: crash sweep stays fast.
DOCS = [
    ("<html><body><h1>Alice Chen</h1>"
     "<p>PhD student working on compiler verification.</p>"
     "</body></html>", "https://t/alice"),
    ("<html><body><h1>Robert Smith</h1>"
     "<p>Professor of databases and query optimization.</p>"
     "</body></html>", "https://t/robert"),
    ("<html><body><h1>Mary Anderson</h1>"
     "<p>Clinic hours on Tuesday for physical therapy.</p>"
     "</body></html>", "https://t/mary"),
    ("<html><body><h1>Program Schedule</h1>"
     "<p>The synthesis workshop runs Thursday afternoon.</p>"
     "</body></html>", "https://t/schedule"),
]

CHANGED_HTML = (
    "<html><body><h1>Alice Chen</h1>"
    "<p>Now studying program synthesis and datalog engines.</p>"
    "</body></html>"
)


def _build(tmp_path, docs=DOCS):
    path = str(tmp_path / "corpus.rpw")
    build_corpus_store(docs, path)
    build_corpus_index(path)
    return path


class TestBuildAndRead:
    def test_build_stat_and_page_set(self, tmp_path):
        path = _build(tmp_path)
        reader = open_corpus_index(path)
        store = open_store(path)
        assert len(reader) == len(DOCS)
        assert sorted(reader.fingerprints()) == sorted(store.fingerprints())
        stat = reader.stat()
        assert stat["pages"] == len(DOCS)
        # Building the index published the corpus's next generation;
        # store and index read it from the same manifest.
        assert stat["generation"] == store.generation == 1
        assert stat["segments"] == 0
        assert stat["removed_pages"] == 0
        assert stat["terms"] > 0 and stat["postings"] >= stat["terms"]

    def test_postings_round_trip_the_shared_weighting(self, tmp_path):
        path = _build(tmp_path)
        reader = open_corpus_index(path)
        store = open_store(path)
        idf = reader.idf()
        for fingerprint in store.fingerprints():
            page, _ = store.load(fingerprint)
            assert reader.postings_for(fingerprint) == page_postings(
                page_text(page), idf
            )

    def test_built_idf_equals_scan_fit(self, tmp_path):
        # A fresh build fits the IdfModel exactly the way the no-index
        # exhaustive scan does: store pages in sorted-fingerprint order.
        path = _build(tmp_path)
        reader = open_corpus_index(path)
        store = open_store(path)
        scan_fit = IdfModel.fit(
            page_text(store.load(fp)[0]) for fp in sorted(store.fingerprints())
        )
        assert reader.idf().to_dict() == scan_fit.to_dict()

    def test_score_and_route_match_exhaustive_scan(self, tmp_path):
        path = _build(tmp_path)
        reader = open_corpus_index(path)
        store = open_store(path)
        for question in (
            "Who is the PhD student working on compiler verification?",
            "When are the clinic hours for physical therapy?",
            "workshop schedule Thursday",
        ):
            query = query_terms(question)
            scanned = scan_scores(store, reader.idf(), query)
            assert reader.score(query) == scanned
            for top_k in (0, 1, 2, None):
                assert reader.route(query, top_k) == cut_top_k(scanned, top_k)

    def test_unknown_terms_score_nothing(self, tmp_path):
        path = _build(tmp_path)
        reader = open_corpus_index(path)
        assert reader.score({"zzzunseenzzz": 1.0}) == []

    def test_reader_pickles_at_current_generation(self, tmp_path):
        path = _build(tmp_path)
        reader = open_corpus_index(path)
        clone = pickle.loads(pickle.dumps(reader))
        assert clone.generation == reader.generation
        assert sorted(clone.fingerprints()) == sorted(reader.fingerprints())


class TestGenerationalUpdates:
    def test_changed_page_publishes_a_shadowing_segment(self, tmp_path):
        path = _build(tmp_path)
        old_fp = page_fingerprint(DOCS[0][0], DOCS[0][1])
        update_corpus_store(path, [(CHANGED_HTML, DOCS[0][1])])
        store = open_store(path)
        reader = open_corpus_index(path)
        new_fp = page_fingerprint(CHANGED_HTML, DOCS[0][1])
        assert new_fp in reader and old_fp not in reader
        assert reader.generation == store.generation == 2
        assert reader.ensure_fresh(store).generation == store.generation
        # The segment's postings use the full build's IdfModel.
        page, _ = store.load(new_fp)
        assert reader.postings_for(new_fp) == page_postings(
            page_text(page), reader.idf()
        )
        assert reader.stat()["segments"] == 1
        assert (tmp_path / "corpus.rpw.idx.seg-2").exists()

    def test_removal_only_update_is_manifest_only(self, tmp_path):
        path = _build(tmp_path)
        fp = page_fingerprint(DOCS[2][0], DOCS[2][1])
        update_corpus_store(path, [], remove_urls=(DOCS[2][1],))
        reader = open_corpus_index(path)
        store = open_store(path)
        assert fp not in reader
        assert len(reader) == len(DOCS) - 1
        # No new segment of either payload was written — the manifest
        # alone advanced, and its removed set hides the page in both.
        assert reader.stat()["segments"] == 0
        assert reader.stat()["removed_pages"] == 1
        assert reader.generation == store.generation == 2
        assert not list(tmp_path.glob("*.seg-*"))
        # The removed page no longer routes.
        query = query_terms("clinic hours physical therapy Tuesday")
        assert fp not in dict(reader.score(query))

    def test_update_without_index_is_a_noop(self, tmp_path):
        path = str(tmp_path / "bare.rpw")
        build_corpus_store(DOCS, path)
        page = ingest_html(CHANGED_HTML, url=DOCS[0][1])
        fp = page_fingerprint(CHANGED_HTML, DOCS[0][1])
        assert update_corpus_index(path, read_manifest(path), 1, {fp: page}) is None
        # A store update on an unindexed corpus writes no index file and
        # leaves the manifest without an index.
        update_corpus_store(path, [(CHANGED_HTML, DOCS[0][1])])
        assert read_manifest(path).index is None
        assert not list(tmp_path.glob("*.idx*"))

    def test_stale_index_fails_closed_with_repair_hint(self, tmp_path):
        # A store generation the index never saw cannot exist: a bare
        # store update moves the index in the same manifest swap.
        path = _build(tmp_path)
        page = ingest_html(CHANGED_HTML, url=DOCS[0][1])
        fp = page_fingerprint(CHANGED_HTML, DOCS[0][1])
        with CorpusStoreUpdater(path) as updater:
            updater.update(fp, page)
        store = open_store(path)
        reader = open_corpus_index(path)
        assert reader.ensure_fresh(store).generation == store.generation
        assert reader.postings_for(fp) == page_postings(
            page_text(page), reader.idf()
        )
        # What is left to be stale is an older on-disk format: a format-1
        # manifest fails loudly for both payloads, naming the rebuild.
        (tmp_path / "corpus.rpw.gen").write_text(
            '{"format": 1, "generation": 1, "segments": [], "removed": []}'
        )
        for opener in (open_store, open_corpus_index):
            with pytest.raises(IngestError, match="repro corpus index"):
                opener(path)

    def test_reload_picks_up_published_generations(self, tmp_path):
        path = _build(tmp_path)
        reader = open_corpus_index(path)
        assert reader.reload() is False
        update_corpus_store(path, [(CHANGED_HTML, DOCS[0][1])])
        assert reader.reload() is True
        assert reader.generation == 2
        assert page_fingerprint(CHANGED_HTML, DOCS[0][1]) in reader

    def test_rebuild_compacts_and_refits(self, tmp_path):
        path = _build(tmp_path)
        update_corpus_store(path, [(CHANGED_HTML, DOCS[0][1])])
        update_corpus_store(path, [], remove_urls=(DOCS[3][1],))
        stat = build_corpus_index(path)
        store = open_store(path)
        assert stat["segments"] == 0
        assert stat["generation"] == store.generation == 4
        # The store keeps its segments and removed set; the index is one
        # fresh file and shares the removed set.
        assert stat["removed_pages"] == store.stat()["removed_pages"] == 2
        reader = open_corpus_index(path)
        assert sorted(reader.fingerprints()) == sorted(store.fingerprints())
        # The rebuild refit the IdfModel over the *current* corpus.
        scan_fit = IdfModel.fit(
            page_text(store.load(fp)[0]) for fp in sorted(store.fingerprints())
        )
        assert reader.idf().to_dict() == scan_fit.to_dict()

    def test_compacting_store_update_rebuilds_index(self, tmp_path):
        path = _build(tmp_path)
        update_corpus_store(path, [(CHANGED_HTML, DOCS[0][1])], compact=True)
        reader = open_corpus_index(path)
        store = open_store(path)
        assert reader.generation == store.generation == 3
        assert reader.stat()["segments"] == 0
        assert reader.manifest.index == ("corpus.rpw.idx-3",)
        scan_fit = IdfModel.fit(
            page_text(store.load(fp)[0]) for fp in sorted(store.fingerprints())
        )
        assert reader.idf().to_dict() == scan_fit.to_dict()


class TestGarbageCollection:
    def test_update_then_compact_leaves_no_index_segments(self, tmp_path):
        path = _build(tmp_path)
        for seed in range(3):
            html = CHANGED_HTML.replace("datalog", f"datalog v{seed}")
            update_corpus_store(path, [(html, DOCS[0][1])])
        assert len(list(tmp_path.glob("*.idx.seg-*"))) == 3
        update_corpus_store(path, [], compact=True)
        assert not list(tmp_path.glob("*.idx.seg-*"))
        manifest = read_manifest(path)
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            ["corpus.rpw", "corpus.rpw.gen", *manifest.index]
        )

    def test_collects_unreferenced_files_of_both_payloads(self, tmp_path):
        path = _build(tmp_path)
        debris = [
            "corpus.rpw.seg-7", "corpus.rpw.idx-5", "corpus.rpw.idx.seg-6",
            "corpus.rpw.seg-8.tmp", "corpus.rpw.idx-8.tmp",
            "corpus.rpw.idx.seg-8.tmp", "corpus.rpw.gen.tmp", "corpus.rpw.tmp",
        ]
        for name in debris:
            (tmp_path / name).write_bytes(b"debris")
        deleted = collect_garbage(path)
        assert sorted(os.path.basename(p) for p in deleted) == sorted(debris)
        assert open_corpus_index(path).generation == 1
        assert (tmp_path / "corpus.rpw.idx-1").exists()


class TestCorruption:
    def _index_file(self, tmp_path):
        _build(tmp_path)
        return tmp_path / "corpus.rpw.idx-1"

    def test_truncated_base_raises_ingest_error(self, tmp_path):
        idx = self._index_file(tmp_path)
        payload = idx.read_bytes()
        for keep in (0, 4, len(payload) // 2, len(payload) - 1):
            idx.write_bytes(payload[:keep])
            with pytest.raises(IngestError):
                open_corpus_index(str(tmp_path / "corpus.rpw"))

    def test_corrupt_magic_raises_ingest_error(self, tmp_path):
        idx = self._index_file(tmp_path)
        payload = bytearray(idx.read_bytes())
        payload[0] ^= 0xFF
        idx.write_bytes(bytes(payload))
        with pytest.raises(IngestError):
            open_corpus_index(str(tmp_path / "corpus.rpw"))

    def test_corrupt_footer_raises_ingest_error(self, tmp_path):
        idx = self._index_file(tmp_path)
        payload = bytearray(idx.read_bytes())
        payload[-3] ^= 0xFF
        idx.write_bytes(bytes(payload))
        with pytest.raises(IngestError):
            open_corpus_index(str(tmp_path / "corpus.rpw"))


class TestCrashSafety:
    """The index side of the crash cases: a torn byte anywhere in the
    index's own writes, or torn tmp files of an update, leave the previous
    generation openable, and inconsistent *published* index state fails
    loudly.  The byte-boundary sweep over the whole combined publish,
    checking both readers, is
    ``tests/webtree/test_store.py::TestGenerationCrashSafety``.
    """

    def _materialize(self, tmp_path):
        """(files before the update, files the update adds) as bytes."""
        scratch = tmp_path / "scratch"
        scratch.mkdir()
        path = str(scratch / "c.rpw")
        build_corpus_store(DOCS[:2], path)
        build_corpus_index(path)
        before = {p.name: p.read_bytes() for p in scratch.iterdir()}
        self.old_fp = page_fingerprint(DOCS[0][0], DOCS[0][1])
        update_corpus_store(path, [(CHANGED_HTML, DOCS[0][1])])
        self.new_fp = page_fingerprint(CHANGED_HTML, DOCS[0][1])
        after = {p.name: p.read_bytes() for p in scratch.iterdir()}
        return before, after

    def _open_state(self, tmp_path, name, files):
        state_dir = tmp_path / name
        state_dir.mkdir()
        for filename, payload in files.items():
            (state_dir / filename).write_bytes(payload)
        return open_corpus_index(str(state_dir / "c.rpw"))

    def _assert_previous_generation(self, reader):
        assert reader.generation == 1
        assert self.old_fp in reader
        assert self.new_fp not in reader

    def test_every_byte_boundary_reopens_previous_generation(self, tmp_path):
        # The index's own writes of the combined publish: with the store
        # segment already renamed into place, every byte of the index
        # segment tmp, its rename seam, and every byte of the manifest
        # tmp must still open the index at the previous generation.
        before, after = self._materialize(tmp_path)
        published = {**before, "c.rpw.seg-2": after["c.rpw.seg-2"]}
        segment = after["c.rpw.idx.seg-2"]
        manifest = after["c.rpw.gen"]
        states = []
        for keep in range(len(segment) + 1):
            states.append({**published, "c.rpw.idx.seg-2.tmp": segment[:keep]})
        published = {**published, "c.rpw.idx.seg-2": segment}
        states.append(dict(published))
        for keep in range(len(manifest) + 1):
            states.append({**published, "c.rpw.gen.tmp": manifest[:keep]})
        for index, files in enumerate(states):
            reader = self._open_state(tmp_path, f"state{index}", files)
            self._assert_previous_generation(reader)
        committed = self._open_state(
            tmp_path, "committed", {**published, "c.rpw.gen": manifest}
        )
        assert committed.generation == 2
        assert self.new_fp in committed
        assert self.old_fp not in committed

    def test_bit_flipped_tmp_files_are_ignored(self, tmp_path):
        before, after = self._materialize(tmp_path)
        rng = __import__("random").Random("idx-bitflip-sweep")
        for trial in range(24):
            torn = dict(before)
            for name in ("c.rpw.seg-2", "c.rpw.idx.seg-2", "c.rpw.gen"):
                payload = bytearray(after[name])
                payload[rng.randrange(len(payload))] ^= 1 << rng.randrange(8)
                torn[name + ".tmp"] = bytes(payload)
            reader = self._open_state(tmp_path, f"flip{trial}", torn)
            self._assert_previous_generation(reader)

    def test_published_manifest_without_segment_fails_loudly(self, tmp_path):
        _before, after = self._materialize(tmp_path)
        files = dict(after)
        del files["c.rpw.idx.seg-2"]
        with pytest.raises(IngestError):
            self._open_state(tmp_path, "missing-segment", files)

    def test_truncated_published_segment_fails_loudly(self, tmp_path):
        _before, after = self._materialize(tmp_path)
        files = dict(after)
        segment = files["c.rpw.idx.seg-2"]
        files["c.rpw.idx.seg-2"] = segment[: len(segment) // 2]
        with pytest.raises(IngestError):
            self._open_state(tmp_path, "torn-published-segment", files)
