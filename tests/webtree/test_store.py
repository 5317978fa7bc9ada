"""Columnar corpus store: every index plane survives the disk round-trip.

The store's contract is *plane-exact rehydration*: a PageIndex loaded
from disk must be indistinguishable from one built freshly over the same
tree — same Euler-tour ranks, same bitsets, same text planes, same
children structure — because serving answers are computed off those
planes.  The hypothesis suite drives that over generated trees
(including unicode text and the degraded flag); the crash-safety suite
pins that a truncated or corrupted file fails loudly with IngestError
instead of serving garbage planes.
"""

import pickle
import shutil

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import IngestError
from repro.retrieval.index import build_corpus_index, open_corpus_index
from repro.serving.corpus import build_corpus_store, update_corpus_store
from repro.serving.ingest import page_fingerprint
from repro.webtree import page_from_html
from repro.webtree.node import NodeType, PageNode, WebPage
from repro.webtree.store import (
    CorpusStoreReader,
    CorpusStoreUpdater,
    CorpusStoreWriter,
    collect_garbage,
    compact_store,
    open_store,
)

# -- tree generation ----------------------------------------------------------

#: Per-node spec: (parent selector, text, type).  The selector indexes
#: the already-built nodes modulo their count, so every draw yields a
#: valid tree of any shape hypothesis reaches for.
node_specs = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=10**6),
        st.text(max_size=40),
        st.sampled_from(list(NodeType)),
    ),
    max_size=30,
)


def build_page(specs, url="https://store.test/page"):
    root = PageNode(0, "root text")
    nodes = [root]
    for position, (selector, text, node_type) in enumerate(specs, start=1):
        parent = nodes[selector % len(nodes)]
        nodes.append(parent.add_child(PageNode(position, text, node_type)))
    return WebPage(root, url=url)


def assert_index_equal(loaded, fresh):
    """Every evaluation-relevant plane of the two indexes is equal."""
    assert len(loaded) == len(fresh)
    assert loaded.exit == fresh.exit
    assert loaded.parent == fresh.parent
    assert loaded.depth == fresh.depth
    assert loaded.texts == fresh.texts
    assert loaded.leaf_mask == fresh.leaf_mask
    assert loaded.elem_mask == fresh.elem_mask
    assert loaded.all_mask == fresh.all_mask
    assert loaded.children_ranks == fresh.children_ranks
    assert loaded.children_mask == fresh.children_mask
    # Bitset arithmetic requires Python ints (1 << numpy int overflows);
    # rehydration must have converted every plane out of numpy.
    for plane in (loaded.exit, loaded.parent, loaded.depth):
        assert all(type(value) is int for value in plane)
    assert type(loaded.leaf_mask) is int
    assert type(loaded.elem_mask) is int


def assert_page_equal(loaded, original):
    assert loaded.url == original.url
    loaded_nodes = list(loaded.root.iter_subtree())
    original_nodes = list(original.root.iter_subtree())
    assert len(loaded_nodes) == len(original_nodes)
    for got, want in zip(loaded_nodes, original_nodes):
        assert got.node_id == want.node_id
        assert got.text == want.text
        assert got.node_type is want.node_type
        assert got.sibling_pos == want.sibling_pos
        assert len(got.children) == len(want.children)
    assert_index_equal(loaded.index(), original.index())


class TestRoundTrip:
    @given(specs=node_specs, degraded=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_every_plane_round_trips(self, tmp_path_factory, specs, degraded):
        path = str(tmp_path_factory.mktemp("store") / "pages.rpw")
        page = build_page(specs)
        fingerprint = "fp-solo"
        with CorpusStoreWriter(path) as writer:
            assert writer.add_page(fingerprint, page, degraded=degraded)
        reader = CorpusStoreReader(path)
        loaded, loaded_degraded = reader.load(fingerprint)
        assert loaded_degraded is degraded
        assert_page_equal(loaded, page)

    @given(
        texts=st.lists(
            st.text(
                alphabet=st.characters(min_codepoint=0x20, max_codepoint=0x2FA1F),
                max_size=30,
            ),
            min_size=1,
            max_size=8,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_unicode_text_planes_round_trip(self, tmp_path_factory, texts):
        # Multi-byte codepoints stress the char-offset table: offsets are
        # *character* positions into the decoded blob, not byte offsets.
        path = str(tmp_path_factory.mktemp("store") / "pages.rpw")
        root = PageNode(0, texts[0])
        for position, text in enumerate(texts[1:], start=1):
            root.add_child(PageNode(position, text))
        page = WebPage(root, url="https://store.test/unicode")
        with CorpusStoreWriter(path) as writer:
            writer.add_page("fp-unicode", page)
        loaded, _ = CorpusStoreReader(path).load("fp-unicode")
        assert loaded.index().texts == page.index().texts

    def test_dataset_pages_round_trip(self, tmp_path):
        from repro.dataset import generate_page

        path = str(tmp_path / "pages.rpw")
        pages = [
            generate_page(domain, seed).page
            for domain in ("faculty", "conference", "class", "clinic")
            for seed in (3, 9)
        ]
        with CorpusStoreWriter(path) as writer:
            for position, page in enumerate(pages):
                writer.add_page(f"fp{position}", page)
        reader = open_store(path)
        for position, page in enumerate(pages):
            loaded, degraded = reader.load(f"fp{position}")
            assert not degraded
            assert_page_equal(loaded, page)


class TestWriter:
    def test_duplicate_fingerprint_dedupes(self, tmp_path):
        path = str(tmp_path / "pages.rpw")
        page = build_page([(0, "child", NodeType.NONE)])
        with CorpusStoreWriter(path) as writer:
            assert writer.add_page("fp", page)
            assert not writer.add_page("fp", page)
            assert len(writer) == 1
            assert "fp" in writer
        assert len(CorpusStoreReader(path)) == 1

    def test_file_appears_atomically(self, tmp_path):
        path = tmp_path / "pages.rpw"
        page = build_page([])
        writer = CorpusStoreWriter(str(path))
        writer.add_page("fp", page)
        assert not path.exists()  # only the .tmp exists mid-build
        writer.finalize()
        assert path.exists()

    def test_abort_leaves_nothing(self, tmp_path):
        path = tmp_path / "pages.rpw"
        try:
            with CorpusStoreWriter(str(path)) as writer:
                writer.add_page("fp", build_page([]))
                raise RuntimeError("build failed")
        except RuntimeError:
            pass
        assert not path.exists()
        assert not (tmp_path / "pages.rpw.tmp").exists()


class TestCrashSafety:
    def _built(self, tmp_path):
        path = tmp_path / "pages.rpw"
        with CorpusStoreWriter(str(path)) as writer:
            for position in range(3):
                writer.add_page(
                    f"fp{position}",
                    build_page([(0, f"text {position}", NodeType.LIST)]),
                )
        return path

    def test_truncated_file_raises_ingest_error(self, tmp_path):
        path = self._built(tmp_path)
        payload = path.read_bytes()
        # Every truncation point — mid-header, mid-blocks, mid-manifest,
        # mid-footer — must be rejected at open, not at first load.
        for keep in (0, 4, len(payload) // 2, len(payload) - 1):
            clipped = tmp_path / f"clipped{keep}.rpw"
            clipped.write_bytes(payload[:keep])
            with pytest.raises(IngestError):
                CorpusStoreReader(str(clipped))

    def test_corrupt_magic_raises_ingest_error(self, tmp_path):
        path = self._built(tmp_path)
        payload = bytearray(path.read_bytes())
        payload[0] ^= 0xFF
        bad = tmp_path / "badmagic.rpw"
        bad.write_bytes(bytes(payload))
        with pytest.raises(IngestError):
            CorpusStoreReader(str(bad))

    def test_corrupt_footer_raises_ingest_error(self, tmp_path):
        path = self._built(tmp_path)
        payload = bytearray(path.read_bytes())
        payload[-1] ^= 0xFF
        bad = tmp_path / "badfooter.rpw"
        bad.write_bytes(bytes(payload))
        with pytest.raises(IngestError):
            CorpusStoreReader(str(bad))

    def test_missing_file_raises_ingest_error(self, tmp_path):
        with pytest.raises(IngestError):
            CorpusStoreReader(str(tmp_path / "absent.rpw"))


class TestReader:
    def test_get_unknown_fingerprint_is_none(self, tmp_path):
        path = str(tmp_path / "pages.rpw")
        with CorpusStoreWriter(path) as writer:
            writer.add_page("known", build_page([]))
        reader = CorpusStoreReader(path)
        assert reader.get("unknown") is None
        assert "known" in reader
        assert "unknown" not in reader

    def test_stat_shape(self, tmp_path):
        path = str(tmp_path / "pages.rpw")
        with CorpusStoreWriter(path) as writer:
            writer.add_page("a", build_page([(0, "x", NodeType.NONE)]))
            writer.add_page("b", build_page([]), degraded=True)
        stat = CorpusStoreReader(path).stat()
        assert stat["pages"] == 2
        assert stat["nodes"] == 3
        assert stat["degraded_pages"] == 1
        assert stat["file_bytes"] > 0

    def test_reader_pickles_by_path(self, tmp_path):
        # TaskRunner process workers receive the reader by pickle; the
        # handle must reopen its memmap worker-side, not ship bytes.
        path = str(tmp_path / "pages.rpw")
        page = page_from_html("<h1>T</h1><ul><li>a</li><li>b</li></ul>")
        fingerprint = page_fingerprint("<h1>T</h1>", "u")
        with CorpusStoreWriter(path) as writer:
            writer.add_page(fingerprint, page)
        reader = CorpusStoreReader(path)
        clone = pickle.loads(pickle.dumps(reader))
        loaded, _ = clone.load(fingerprint)
        assert_page_equal(loaded, page)


# -- generational updates -----------------------------------------------------


def _page(tag):
    return build_page(
        [(0, f"{tag} alpha", NodeType.LIST), (0, f"{tag} beta", NodeType.NONE)],
        url=f"https://store.test/{tag}",
    )


class TestGenerations:
    def _base(self, tmp_path, fingerprints=("fp0", "fp1")):
        path = str(tmp_path / "pages.rpw")
        pages = {fp: _page(fp) for fp in fingerprints}
        with CorpusStoreWriter(path) as writer:
            for fp, page in pages.items():
                writer.add_page(fp, page)
        return path, pages

    def test_update_and_remove_roundtrip(self, tmp_path):
        path, pages = self._base(tmp_path)
        replacement = _page("fp0-v2")
        with CorpusStoreUpdater(path) as updater:
            assert updater.remove("fp0")
            assert updater.update("fp0-v2", replacement)
        reader = open_store(path)
        assert reader.generation == 1
        assert "fp0" not in reader
        assert "fp1" in reader  # untouched pages survive updates
        loaded, _ = reader.load("fp0-v2")
        assert_page_equal(loaded, replacement)
        loaded, _ = reader.load("fp1")
        assert_page_equal(loaded, pages["fp1"])

    def test_reload_picks_up_new_generation(self, tmp_path):
        path, _ = self._base(tmp_path)
        reader = open_store(path)
        assert reader.generation == 0
        with CorpusStoreUpdater(path) as updater:
            updater.update("fp2", _page("fp2"))
        # The open reader still serves its generation until reload.
        assert "fp2" not in reader
        assert reader.reload() is True
        assert reader.generation == 1
        assert "fp2" in reader
        assert reader.reload() is False  # idempotent when nothing changed

    def test_loaded_pages_survive_reload(self, tmp_path):
        path, pages = self._base(tmp_path)
        reader = open_store(path)
        loaded, _ = reader.load("fp0")
        with CorpusStoreUpdater(path) as updater:
            updater.remove("fp0")
        reader.reload()
        assert "fp0" not in reader
        # The already-rehydrated page keeps working: it owns its planes.
        assert_page_equal(loaded, pages["fp0"])

    def test_restore_after_remove_reuses_bytes(self, tmp_path):
        path, pages = self._base(tmp_path)
        with CorpusStoreUpdater(path) as updater:
            updater.remove("fp0")
        with CorpusStoreUpdater(path) as updater:
            # The bytes are still in the base file, only hidden by the
            # removed set — restoring must not rewrite them.
            assert updater.update("fp0", pages["fp0"])
        reader = open_store(path)
        assert reader.generation == 2
        assert reader.stat()["segments"] == 0  # no segment was written
        loaded, _ = reader.load("fp0")
        assert_page_equal(loaded, pages["fp0"])

    def test_noop_commit_publishes_nothing(self, tmp_path):
        path, _ = self._base(tmp_path)
        with CorpusStoreUpdater(path) as updater:
            updater.update("fp0", _page("fp0"))  # already live: no-op
        assert open_store(path).generation == 0
        assert not (tmp_path / "pages.rpw.gen").exists()

    def test_updater_abort_on_exception(self, tmp_path):
        path, _ = self._base(tmp_path)
        with pytest.raises(RuntimeError):
            with CorpusStoreUpdater(path) as updater:
                updater.update("fp2", _page("fp2"))
                raise RuntimeError("update failed")
        assert open_store(path).generation == 0
        assert "fp2" not in open_store(path)
        assert not (tmp_path / "pages.rpw.seg-1.tmp").exists()

    def test_update_existing_fingerprint_is_noop(self, tmp_path):
        path, _ = self._base(tmp_path)
        with CorpusStoreUpdater(path) as updater:
            assert not updater.update("fp0", _page("fp0"))
            assert not updater.remove("absent")

    def test_successive_generations_resolve_newest(self, tmp_path):
        # Fingerprints are content hashes: each content version of a url
        # arrives under a *new* fingerprint, superseding the old one.
        path, _ = self._base(tmp_path)
        v2, v3 = _page("v2"), _page("v3")
        with CorpusStoreUpdater(path) as updater:
            updater.remove("fp0")
            updater.update("fp-v2", v2)
        with CorpusStoreUpdater(path) as updater:
            updater.remove("fp-v2")
            updater.update("fp-v3", v3)
        reader = open_store(path)
        assert reader.generation == 2
        assert set(reader.fingerprints()) == {"fp1", "fp-v3"}
        loaded, _ = reader.load("fp-v3")
        assert_page_equal(loaded, v3)

    def test_compaction_preserves_pages_and_collects(self, tmp_path):
        path, pages = self._base(tmp_path)
        with CorpusStoreUpdater(path) as updater:
            updater.remove("fp0")
            updater.update("fp2", _page("fp2"))
        with CorpusStoreUpdater(path) as updater:
            updater.update("fp3", _page("fp3"))
        before = open_store(path)
        live = {fp: before.load(fp) for fp in before.fingerprints()}
        report = compact_store(path)
        reader = open_store(path)
        assert reader.generation == report["generation"]
        assert set(reader.fingerprints()) == set(live)
        assert reader.stat()["segments"] == 0
        assert reader.stat()["removed_pages"] == 0
        for fp, (page, degraded) in live.items():
            loaded, got_degraded = reader.load(fp)
            assert got_degraded == degraded
            assert_page_equal(loaded, page)
        # Only the base and its (empty-segment) manifest remain on disk.
        leftovers = sorted(p.name for p in tmp_path.iterdir())
        assert leftovers == ["pages.rpw", "pages.rpw.gen"]

    def test_collect_garbage_removes_orphans(self, tmp_path):
        path, _ = self._base(tmp_path)
        # An orphaned segment (published, never referenced: the
        # mid-publish crash residue) and torn tmp files.
        (tmp_path / "pages.rpw.seg-9").write_bytes(b"orphan")
        (tmp_path / "pages.rpw.seg-3.tmp").write_bytes(b"torn")
        (tmp_path / "pages.rpw.gen.tmp").write_bytes(b"torn")
        deleted = collect_garbage(path)
        assert len(deleted) == 3
        assert sorted(p.name for p in tmp_path.iterdir()) == ["pages.rpw"]
        assert open_store(path).generation == 0

    def test_reader_pickles_at_current_generation(self, tmp_path):
        path, _ = self._base(tmp_path)
        added = _page("fp2")
        with CorpusStoreUpdater(path) as updater:
            updater.update("fp2", added)
        reader = open_store(path)
        clone = pickle.loads(pickle.dumps(reader))
        assert clone.generation == 1
        loaded, _ = clone.load("fp2")
        assert_page_equal(loaded, added)


class TestGenerationCrashSafety:
    """A crash at *any* point of an update leaves the previous generation
    fully openable, and inconsistent *published* state fails loudly.

    The write sequence (see :mod:`repro.webtree.generations`) is: each
    new payload file as ``.tmp`` → fsync+rename, then the manifest
    ``.tmp`` → fsync+rename.  The byte-boundary sweep materializes the
    exact directory state at every byte of every write and at every
    rename seam of an indexed corpus's update; the other cases pin the
    store payload on its own.
    """

    def _materialize(self, tmp_path):
        """Build one committed update; return (base, segment, manifest) bytes."""
        scratch = tmp_path / "scratch"
        scratch.mkdir()
        path = str(scratch / "pages.rpw")
        self.old_page = _page("old")
        self.new_page = _page("new")
        with CorpusStoreWriter(path) as writer:
            writer.add_page("fp-old", self.old_page)
        base = (scratch / "pages.rpw").read_bytes()
        with CorpusStoreUpdater(path) as updater:
            updater.remove("fp-old")
            updater.update("fp-new", self.new_page)
        segment = (scratch / "pages.rpw.seg-1").read_bytes()
        manifest = (scratch / "pages.rpw.gen").read_bytes()
        return base, segment, manifest

    def _open_state(self, tmp_path, name, files):
        state_dir = tmp_path / name
        state_dir.mkdir()
        for filename, payload in files.items():
            (state_dir / filename).write_bytes(payload)
        return open_store(str(state_dir / "pages.rpw"))

    def _assert_previous_generation(self, reader):
        assert reader.generation == 0
        assert "fp-old" in reader
        assert "fp-new" not in reader
        loaded, _ = reader.load("fp-old")
        assert_page_equal(loaded, self.old_page)

    def test_every_byte_boundary_reopens_previous_generation(self, tmp_path):
        """One sweep over the combined publish of an indexed corpus.

        The update writes, in order: the store segment tmp, its rename,
        the index segment tmp, its rename, the manifest tmp and its
        rename.  Every state up to the last rename must open *both*
        readers at the previous generation with the previous pages and
        postings; the final state serves the update in both.
        """
        scratch = tmp_path / "scratch"
        scratch.mkdir()
        path = str(scratch / "c.rpw")
        old_html = "<html><body><h1>Old page</h1><p>alpha beta</p></body></html>"
        new_html = "<html><body><h1>New page</h1><p>gamma delta</p></body></html>"
        url = "https://store.test/p"
        build_corpus_store([(old_html, url)], path)
        build_corpus_index(path)
        before = {p.name: p.read_bytes() for p in scratch.iterdir()}
        old_store, old_index = open_store(path), open_corpus_index(path)
        old_fp = page_fingerprint(old_html, url)
        old_page, _ = old_store.load(old_fp)
        old_postings = old_index.postings_for(old_fp)
        update_corpus_store(path, [(new_html, url)])
        new_fp = page_fingerprint(new_html, url)
        after = {p.name: p.read_bytes() for p in scratch.iterdir()}
        steps = ["c.rpw.seg-2", "c.rpw.idx.seg-2", "c.rpw.gen"]
        assert set(after) - set(before) == set(steps[:2])

        states = []
        published = dict(before)
        for name in steps:
            for keep in range(len(after[name]) + 1):
                states.append({**published, name + ".tmp": after[name][:keep]})
            published = {**published, name: after[name]}
            if name != "c.rpw.gen":
                states.append(dict(published))
        state_dir = tmp_path / "state"
        for files in states:
            state_dir.mkdir()
            for filename, payload in files.items():
                (state_dir / filename).write_bytes(payload)
            state_path = str(state_dir / "c.rpw")
            store, index = open_store(state_path), open_corpus_index(state_path)
            assert store.generation == index.generation == 1
            assert set(store.fingerprints()) == set(index.fingerprints()) == {old_fp}
            assert_page_equal(store.load(old_fp)[0], old_page)
            assert index.postings_for(old_fp) == old_postings
            shutil.rmtree(state_dir)
        # And the state after the manifest rename serves the update.
        state_dir.mkdir()
        for filename, payload in published.items():
            (state_dir / filename).write_bytes(payload)
        state_path = str(state_dir / "c.rpw")
        store, index = open_store(state_path), open_corpus_index(state_path)
        assert store.generation == index.generation == 2
        assert set(store.fingerprints()) == set(index.fingerprints()) == {new_fp}

    def test_bit_flipped_tmp_files_are_ignored(self, tmp_path):
        base, segment, manifest = self._materialize(tmp_path)
        rng = __import__("random").Random("bitflip-sweep")
        for trial in range(24):
            torn_segment = bytearray(segment)
            torn_manifest = bytearray(manifest)
            torn_segment[rng.randrange(len(segment))] ^= 1 << rng.randrange(8)
            torn_manifest[rng.randrange(len(manifest))] ^= 1 << rng.randrange(8)
            reader = self._open_state(
                tmp_path, f"flip{trial}",
                {"pages.rpw": base,
                 "pages.rpw.seg-1.tmp": bytes(torn_segment),
                 "pages.rpw.gen.tmp": bytes(torn_manifest)},
            )
            self._assert_previous_generation(reader)

    def test_published_manifest_without_segment_fails_loudly(self, tmp_path):
        # The converse guarantee: *published* state that is inconsistent
        # (a manifest referencing a missing segment) is corruption, and
        # must raise instead of silently time-traveling to generation 0.
        base, segment, manifest = self._materialize(tmp_path)
        state_dir = tmp_path / "missing-segment"
        state_dir.mkdir()
        (state_dir / "pages.rpw").write_bytes(base)
        (state_dir / "pages.rpw.gen").write_bytes(manifest)
        with pytest.raises(IngestError):
            open_store(str(state_dir / "pages.rpw"))

    def test_truncated_published_segment_fails_loudly(self, tmp_path):
        base, segment, manifest = self._materialize(tmp_path)
        state_dir = tmp_path / "torn-published-segment"
        state_dir.mkdir()
        (state_dir / "pages.rpw").write_bytes(base)
        (state_dir / "pages.rpw.seg-1").write_bytes(segment[: len(segment) // 2])
        (state_dir / "pages.rpw.gen").write_bytes(manifest)
        with pytest.raises(IngestError):
            open_store(str(state_dir / "pages.rpw"))
