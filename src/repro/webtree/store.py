"""Disk-backed columnar store for indexed webpage trees.

``PageIndex`` is already a pre/post "XPath accelerator"-style window
encoding in parallel arrays: pre-order ranks with ``exit``/``parent``/
``depth`` planes and rank-bitset masks.  This module persists exactly
those planes, so a corpus is parsed **once** and every later process
rehydrates pages straight from the planes — no HTML tokenizing, no
tree walk, no Euler tour.

On-disk layout (store-format file, little-endian; the header/manifest/
footer framing is :class:`~repro.webtree.generations.FileFormat`)::

    header   b"RPWSTORE" + u32 version + u32 flags            (16 bytes)
    block*   one per page, at manifest-recorded offsets:
               node plane   n × NODE_DTYPE  (exit/parent/depth i4,
                            node_id i8, node_type u1 — packed, 21 B)
               text offsets (n+1) × u8      (*character* offsets)
               text blob    UTF-8           (all node texts, one run)
               leaf bits    ceil(n/8)       (leaf_mask, little-endian)
               elem bits    ceil(n/8)       (elem_mask, little-endian)
    manifest JSON: {"pages": {fingerprint → {url, degraded, n, offset,
                                              text_bytes}}}
    footer   u64 manifest_offset + u64 manifest_len + b"RPWSEND1"

The manifest key is the serving layer's raw-bytes ``page_fingerprint``
(sha256 over url + raw HTML), so a store lookup needs **no parse** —
hashing the input answers "is this page already indexed?".  The same
property is the invalidation rule: any byte change to the HTML (or the
url namespace) changes the key, so a stale entry can never be returned;
re-ingesting the changed document simply misses and parses.

The store is the page payload of a generational corpus
(:mod:`repro.webtree.generations`): the base file ``<path>`` plus the
segment files the corpus manifest lists, each a complete store-format
file.  :class:`CorpusStoreUpdater` publishes one generation of the
whole corpus — page blocks and, when an index exists, their postings —
and :func:`compact_store` folds every live page into a fresh base.

Readers map each file with ``np.memmap`` and slice plane views out of
it zero-copy; N worker processes opening one store share the read-only
pages through the OS page cache.  The numeric planes are converted to
Python lists at page-load time (the rank bitsets are arbitrary-
precision ints, and ``1 << numpy_int`` overflows), which is the only
materialization the load path pays besides decoding the text blob.

Truncated or corrupt *published* files fail loudly: every structural
check (framing, block bounds, text encoding, manifest shape) raises
:class:`~repro.core.errors.IngestError` instead of serving garbage.
"""

from __future__ import annotations

import os
from typing import Optional

import numpy as np

from .generations import (
    AtomicFile,
    FileFormat,
    GenerationalReader,
    Layers,
    Manifest,
    collect_garbage,
    payload_file,
    read_manifest,
    write_manifest,
)
from .index import PageIndex
from .node import NodeType, PageNode, WebPage

STORE_FORMAT = FileFormat("corpus store", b"RPWSTORE", b"RPWSEND1")

#: One row per pre-order rank; packed (align=False) so row r of a page
#: with block offset o lives at byte o + 21*r regardless of platform.
NODE_DTYPE = np.dtype(
    [
        ("exit", "<i4"),
        ("parent", "<i4"),
        ("depth", "<i4"),
        ("node_id", "<i8"),
        ("node_type", "u1"),
    ],
    align=False,
)

OFFSET_DTYPE = np.dtype("<u8")

_TYPE_CODE = {NodeType.NONE: 0, NodeType.LIST: 1, NodeType.TABLE: 2}
_TYPE_BY_CODE = {code: node_type for node_type, code in _TYPE_CODE.items()}

_corrupt = STORE_FORMAT.corrupt


class CorpusStoreWriter:
    """Streaming store builder: pages in, one atomic file out.

    Usage::

        with CorpusStoreWriter(path) as writer:
            for html, url in corpus:
                outcome = ingest_page(html, url, ...)
                writer.add_page(outcome.fingerprint, outcome.page,
                                degraded=outcome.degraded)
        # __exit__ finalizes (atomic rename); an exception aborts and
        # removes the temp file instead.

    Pages stream straight to disk — the writer holds one page's planes
    at a time plus the (small) manifest, so corpus size is bounded by
    disk, not RAM.
    """

    def __init__(self, path: str) -> None:
        self.path = os.fspath(path)
        self._out = AtomicFile(self.path)
        self._out.write(STORE_FORMAT.header())
        self._offset = STORE_FORMAT.header_size
        self._manifest: dict[str, dict] = {}

    def __enter__(self) -> "CorpusStoreWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.finalize()
        else:
            self.abort()

    def __len__(self) -> int:
        return len(self._manifest)

    def __contains__(self, fingerprint: str) -> bool:
        return fingerprint in self._manifest

    def add_page(
        self, fingerprint: str, page: WebPage, degraded: bool = False
    ) -> bool:
        """Serialize one indexed page under ``fingerprint``.

        Returns False (and writes nothing) when the fingerprint is
        already present — re-ingesting a known page is a no-op, matching
        the cache semantics of the serving layer.
        """
        if self._out.closed:
            raise ValueError("writer is closed")
        if fingerprint in self._manifest:
            return False
        index = page.index()
        nodes = index.nodes
        size = len(nodes)
        plane = np.empty(size, dtype=NODE_DTYPE)
        plane["exit"] = index.exit
        plane["parent"] = index.parent
        plane["depth"] = index.depth
        try:
            plane["node_id"] = [node.node_id for node in nodes]
        except OverflowError as exc:
            raise ValueError(
                f"page {page.url!r} has a node_id outside int64"
            ) from exc
        plane["node_type"] = [_TYPE_CODE[node.node_type] for node in nodes]
        offsets = np.zeros(size + 1, dtype=OFFSET_DTYPE)
        np.cumsum(
            [len(text) for text in index.texts], out=offsets[1:]
        )
        # surrogatepass: node text is arbitrary Python str (hostile HTML
        # can smuggle lone surrogates through the parser); the reader
        # decodes with the same handler, so any str round-trips exactly.
        blob = "".join(index.texts).encode("utf-8", "surrogatepass")
        mask_bytes = (size + 7) // 8
        write = self._out.write
        written = write(plane.tobytes())
        written += write(offsets.tobytes())
        written += write(blob)
        written += write(index.leaf_mask.to_bytes(mask_bytes, "little"))
        written += write(index.elem_mask.to_bytes(mask_bytes, "little"))
        self._manifest[fingerprint] = {
            "url": page.url,
            "degraded": bool(degraded),
            "n": size,
            "offset": self._offset,
            "text_bytes": len(blob),
        }
        self._offset += written
        return True

    def finalize(self) -> None:
        """Write manifest + footer, fsync, and atomically publish."""
        if self._out.closed:
            return
        self._out.write(
            STORE_FORMAT.trailer(self._offset, {"pages": self._manifest})
        )
        self._out.commit()

    def abort(self) -> None:
        """Discard everything written; the published path is untouched."""
        self._out.abort()

    def abandon(self) -> None:
        """Stop writing as a crash would: the partial tmp stays on disk."""
        self._out.abandon()


def _block_length(size: int, text_bytes: int) -> int:
    return (
        size * NODE_DTYPE.itemsize
        + (size + 1) * OFFSET_DTYPE.itemsize
        + text_bytes
        + 2 * ((size + 7) // 8)
    )


class _StoreFile:
    """One validated, memmapped store-format file (base or segment)."""

    __slots__ = ("path", "raw", "view", "pages")

    def __init__(self, path: str) -> None:
        self.path = os.fspath(path)
        raw, manifest, manifest_offset = STORE_FORMAT.open(self.path)
        pages = manifest.get("pages")
        if not isinstance(pages, dict):
            raise _corrupt(self.path, "manifest has no page table")
        for fingerprint, entry in pages.items():
            try:
                size = entry["n"]
                offset = entry["offset"]
                text_bytes = entry["text_bytes"]
                entry["url"], entry["degraded"]
            except (TypeError, KeyError) as exc:
                raise _corrupt(
                    self.path, f"manifest entry {fingerprint[:12]} malformed"
                ) from exc
            if (
                size < 1
                or offset < STORE_FORMAT.header_size
                or offset + _block_length(size, text_bytes) > manifest_offset
            ):
                raise _corrupt(
                    self.path,
                    f"page block {fingerprint[:12]} out of bounds",
                )
        self.raw = raw
        # Plain memoryview over the mapping: per-load byte reads (text
        # blob, bitsets) skip np.memmap.__getitem__/__array_finalize__
        # overhead, which dominates small-page loads.
        self.view = memoryview(raw)
        self.pages = pages

    def load(self, fingerprint: str) -> "tuple[WebPage, bool]":
        """Rehydrate one page (with its index prebuilt) from the planes."""
        entry = self.pages[fingerprint]
        size = entry["n"]
        offset = entry["offset"]
        text_bytes = entry["text_bytes"]
        raw = self.raw
        view = self.view
        plane = np.frombuffer(raw, dtype=NODE_DTYPE, count=size, offset=offset)
        cursor = offset + size * NODE_DTYPE.itemsize
        char_offsets = np.frombuffer(
            raw, dtype=OFFSET_DTYPE, count=size + 1, offset=cursor
        ).tolist()
        cursor += (size + 1) * OFFSET_DTYPE.itemsize
        try:
            blob = str(
                view[cursor : cursor + text_bytes], "utf-8", "surrogatepass"
            )
        except UnicodeDecodeError as exc:
            raise _corrupt(
                self.path, f"text blob of {fingerprint[:12]} undecodable"
            ) from exc
        cursor += text_bytes
        mask_bytes = (size + 7) // 8
        leaf_mask = int.from_bytes(
            view[cursor : cursor + mask_bytes], "little"
        )
        cursor += mask_bytes
        elem_mask = int.from_bytes(
            view[cursor : cursor + mask_bytes], "little"
        )
        if char_offsets[0] != 0 or char_offsets[-1] != len(blob):
            raise _corrupt(
                self.path, f"text offsets of {fingerprint[:12]} inconsistent"
            )
        # Bitset arithmetic needs Python ints (`1 << numpy_int` would
        # overflow); .tolist() materializes each plane exactly once.
        exit_ = plane["exit"].tolist()
        parent = plane["parent"].tolist()
        depth = plane["depth"].tolist()
        node_ids = plane["node_id"].tolist()
        type_codes = plane["node_type"].tolist()
        texts = [
            blob[begin:end]
            for begin, end in zip(char_offsets, char_offsets[1:])
        ]
        nodes: list[PageNode] = []
        # PageNode.__init__ and add_child are inlined (slot stores only):
        # this loop is the hot center of store-backed cold serving.
        new_node = object.__new__
        node_type = _TYPE_BY_CODE
        append = nodes.append
        rank = 0
        try:
            for node_id, code, parent_rank, text in zip(
                node_ids, type_codes, parent, texts
            ):
                node = new_node(PageNode)
                node.node_id = node_id
                node.text = text
                node.node_type = node_type[code]
                node.children = []
                node.parent = None
                node.sibling_pos = 0
                if parent_rank >= 0:
                    # Pre-order guarantees parent[r] < r, so the parent
                    # object always exists already; sibling_pos is set
                    # exactly as add_child would.
                    top = nodes[parent_rank]
                    node.parent = top
                    node.sibling_pos = len(top.children)
                    top.children.append(node)
                elif rank != 0:
                    raise _corrupt(
                        self.path,
                        f"page {fingerprint[:12]} has multiple roots",
                    )
                append(node)
                rank += 1
        except (KeyError, IndexError) as exc:
            raise _corrupt(
                self.path, f"node plane of {fingerprint[:12]} inconsistent"
            ) from exc
        page = WebPage(nodes[0], url=entry["url"])
        page._index = PageIndex.from_planes(
            page, nodes, exit_, parent, depth, leaf_mask, elem_mask,
            texts=texts,
        )
        return page, entry["degraded"]


class CorpusStoreReader(GenerationalReader):
    """Read-only memmap view of a corpus store (base + update segments).

    Cheap to open (framing and manifest validation; no page is read
    until :meth:`load`), safe to share across threads, and **picklable
    by path** — unpickling re-opens the memmaps in the receiving
    process, so a reader can ride initargs into ``TaskRunner`` process
    workers where all workers share the files through the OS page cache.
    """

    def _open(self, manifest: Manifest) -> Layers:
        files = [_StoreFile(self.path)]
        files.extend(_StoreFile(self._resolve(name)) for name in manifest.store)
        return Layers(manifest, files)

    def reload(self) -> bool:
        """Move to the newest published generation; True when it moved.

        Pages already loaded are untouched: they hold their own
        references to the old mappings, which ``os.replace`` and
        ``unlink`` cannot disturb.  Safe to call concurrently with
        :meth:`load` — lookups read the current view exactly once.
        """
        return self._advance(read_manifest(self.path))

    # -- manifest queries ----------------------------------------------------

    def __len__(self) -> int:
        return len(self._view.owner)

    def entry(self, fingerprint: str) -> "Optional[dict]":
        """The live manifest entry for ``fingerprint`` (url etc.), if any."""
        store_file = self._view.owner.get(fingerprint)
        if store_file is None:
            return None
        return store_file.pages[fingerprint]

    def stat(self) -> dict:
        """Aggregate shape of the store, for `repro corpus stat`."""
        view = self._view
        entries = [
            store_file.pages[fingerprint]
            for fingerprint, store_file in view.owner.items()
        ]
        return {
            "path": self.path,
            "file_bytes": sum(int(f.raw.size) for f in view.files),
            "pages": len(entries),
            "nodes": sum(entry["n"] for entry in entries),
            "text_bytes": sum(entry["text_bytes"] for entry in entries),
            "degraded_pages": sum(1 for entry in entries if entry["degraded"]),
            "generation": view.manifest.generation,
            "segments": len(view.files) - 1,
            "removed_pages": len(view.manifest.removed),
        }

    # -- page loads ----------------------------------------------------------

    def get(self, fingerprint: str) -> "Optional[tuple[WebPage, bool]]":
        """``(page, degraded)`` for ``fingerprint``, or None if absent."""
        store_file = self._view.owner.get(fingerprint)
        if store_file is None:
            return None
        return store_file.load(fingerprint)

    def load(self, fingerprint: str) -> "tuple[WebPage, bool]":
        """Rehydrate one page (with its index prebuilt) from the planes."""
        return self._view.owner[fingerprint].load(fingerprint)


class CorpusStoreUpdater:
    """Crash-safe mutations to a published corpus, one generation at a time.

    Usage::

        with CorpusStoreUpdater(path) as updater:
            updater.remove(stale_fingerprint)
            updater.update(new_fingerprint, page)
        # __exit__ commits (publishes the next generation); an
        # exception aborts and removes the in-flight segment instead.

    :meth:`update` streams page blocks into ``<path>.seg-<G>.tmp``; no
    published file is touched until :meth:`commit`.  Its first step,
    :meth:`publish_segment`, publishes the store segment and — when the
    corpus has an index — the index segment holding the staged pages'
    postings; its second, :meth:`publish_manifest`, makes both visible
    with one manifest swap.  A crash at any byte boundary leaves the
    previous generation fully openable.  One updater commits one
    generation; the instance is closed afterwards.  Single writer at a
    time — concurrent updaters would race the generation counter.
    """

    def __init__(self, path: str, *, create: bool = True) -> None:
        self.path = os.fspath(path)
        if not os.path.exists(self.path):
            if not create:
                raise _corrupt(self.path, "no store at path")
            CorpusStoreWriter(self.path).finalize()
        self._reader = CorpusStoreReader(self.path)
        self._base = self._reader.manifest
        #: The generation this updater publishes.
        self.generation = self._base.generation + 1
        self._segment_target = payload_file(self.path, "seg", self.generation)
        self._writer: "Optional[CorpusStoreWriter]" = None
        self._removed = set(self._base.removed)
        #: Staged pages with new bytes, kept for their index postings.
        self._added: "dict[str, WebPage]" = {}
        self._restored: set[str] = set()
        self._segments: "Optional[tuple[Optional[str], Optional[str]]]" = None
        self._closed = False

    def __enter__(self) -> "CorpusStoreUpdater":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.commit()
        else:
            self.abort()

    def _check_open(self) -> None:
        if self._closed:
            raise ValueError("updater is closed")

    def _stored(self, fingerprint: str) -> "Optional[_StoreFile]":
        """The newest on-disk file holding this fingerprint's bytes."""
        for store_file in reversed(self._reader._view.files):
            if fingerprint in store_file.pages:
                return store_file
        return None

    def _dirty(self) -> bool:
        return bool(
            self._added or self._restored or self._removed != self._base.removed
        )

    def update(
        self, fingerprint: str, page: WebPage, degraded: bool = False
    ) -> bool:
        """Stage ``page`` under ``fingerprint`` for the next generation.

        Returns False (writing nothing) when the fingerprint is already
        live — content addressing makes that a guaranteed no-op.  A
        fingerprint whose bytes exist but were removed is restored
        without rewriting (the stored bytes are identical by key).
        """
        self._check_open()
        if fingerprint in self._added or fingerprint in self._restored:
            return False
        staged = self._writer is not None and fingerprint in self._writer
        if fingerprint not in self._removed and (
            fingerprint in self._reader or staged
        ):
            return False
        if self._stored(fingerprint) is not None:
            self._restored.add(fingerprint)
        else:
            if not staged:
                if self._writer is None:
                    self._writer = CorpusStoreWriter(self._segment_target)
                self._writer.add_page(fingerprint, page, degraded=degraded)
            self._added[fingerprint] = page
        self._removed.discard(fingerprint)
        return True

    def remove(self, fingerprint: str) -> bool:
        """Stage removal of ``fingerprint``; False when not live."""
        self._check_open()
        staged = fingerprint in self._added or fingerprint in self._restored
        live = staged or (
            fingerprint not in self._removed
            and (
                self._stored(fingerprint) is not None
                or (self._writer is not None and fingerprint in self._writer)
            )
        )
        if not live:
            return False
        self._added.pop(fingerprint, None)
        self._restored.discard(fingerprint)
        self._removed.add(fingerprint)
        return True

    def publish_segment(self) -> None:
        """Step 1 of the publish: atomically write both segment files.

        The store segment holds the staged page blocks; the index
        segment (:func:`~repro.retrieval.index.update_corpus_index`) the
        postings of every page this generation makes live.  Neither is
        visible until :meth:`publish_manifest`.
        """
        self._check_open()
        if self._segments is not None:
            return
        store_segment = None
        if self._writer is not None:
            self._writer.finalize()
            store_segment = os.path.basename(self._segment_target)
        pages = dict(self._added)
        for fingerprint in self._restored:
            pages[fingerprint] = self._stored(fingerprint).load(fingerprint)[0]
        # The index codec builds on this module, so it is imported late.
        from ..retrieval.index import update_corpus_index

        index_segment = update_corpus_index(
            self.path, self._base, self.generation, pages
        )
        self._segments = (store_segment, index_segment)

    def publish_manifest(self) -> int:
        """Step 2 of the publish: one manifest swap makes it all visible."""
        self._check_open()
        store_segment, index_segment = self._segments or (None, None)
        base = self._base
        index = base.index
        if index is not None and index_segment is not None:
            index += (index_segment,)
        write_manifest(
            self.path,
            Manifest(
                generation=self.generation,
                removed=frozenset(self._removed),
                store=base.store + ((store_segment,) if store_segment else ()),
                index=index,
            ),
        )
        self._closed = True
        return self.generation

    def commit(self) -> int:
        """Publish all staged mutations; returns the live generation.

        With nothing staged this is a no-op returning the unchanged
        generation.
        """
        self._check_open()
        if not self._dirty():
            self.abort()
            return self._base.generation
        self.publish_segment()
        return self.publish_manifest()

    def abort(self) -> None:
        """Discard staged mutations; published files are untouched."""
        if self._closed:
            return
        if self._writer is not None:
            self._writer.abort()
        self._closed = True

    def abandon(self) -> None:
        """Simulate a crash mid-update (tests/chaos): drop all in-flight
        state, leaving any partially written segment tmp on disk."""
        if self._writer is not None:
            self._writer.abandon()
        self._closed = True


def compact_store(path: str) -> dict:
    """Fold all live pages into a fresh base and drop the segments.

    Publishes the result as the next generation (no segments, nothing
    removed), then garbage-collects the stale files.  A corpus with an
    index gets a full index rebuild in the same publish (its IdfModel
    refit over the compacted pages).  The base file is replaced *before*
    the manifest swap: a crash between the two leaves the old manifest
    over the new base, which still resolves every live fingerprint to
    identical bytes (content addressing) and hides every removed one
    (they are simply absent from the new base).
    """
    path = os.fspath(path)
    reader = CorpusStoreReader(path)
    generation = reader.generation + 1
    manifest_pages: dict[str, dict] = {}
    with AtomicFile(path) as out:
        out.write(STORE_FORMAT.header())
        offset = STORE_FORMAT.header_size
        for fingerprint, store_file in reader._view.owner.items():
            entry = store_file.pages[fingerprint]
            length = _block_length(entry["n"], entry["text_bytes"])
            out.write(store_file.view[entry["offset"] : entry["offset"] + length])
            manifest_pages[fingerprint] = dict(entry, offset=offset)
            offset += length
        out.write(STORE_FORMAT.trailer(offset, {"pages": manifest_pages}))
    index = None
    if reader.manifest.index is not None:
        from ..retrieval.index import build_index_file

        index = (build_index_file(path, reader, generation),)
    write_manifest(path, Manifest(generation=generation, index=index))
    collected = collect_garbage(path)
    return {
        "path": path,
        "generation": generation,
        "pages": len(manifest_pages),
        "file_bytes": os.path.getsize(path),
        "collected": collected,
    }


def open_store(path: str) -> CorpusStoreReader:
    """Open an existing corpus store (validating its structure)."""
    return CorpusStoreReader(path)
