"""Memmap-backed inverted keyword/entity index over a corpus store.

The corpus store (:mod:`repro.webtree.store`) answers "give me page X";
the index answers "which pages could answer this question?".  It maps
**terms** — lower-cased word tokens and typed entity keys — to postings
lists of ``(page, weight)`` pairs over the store's ``page_fingerprint``
space, with weights from the corpus-fit :class:`~repro.nlp.vocab.IdfModel`
(tf-scaled IDF for tokens, a flat boost for entity keys).  Routing a
question then costs one vectorized sparse dot-product over the question's
terms — work proportional to the match set, not the corpus.

**File format** (framing: :class:`~repro.webtree.generations.FileFormat`)::

    header   <8sII        magic=b"RPWIDX01", version, reserved
    body     page_ids     <u4   one entry per posting, grouped by term
             weights      <f4   aligned with page_ids
             offsets      <u8   n_terms+1 prefix offsets into the arrays
    manifest JSON         pages (fingerprints, posting order), terms
                          (sorted), idf (IdfModel state), section table
    footer   <QQ8s        manifest offset/length, magic=b"RPWIDXE1"

The index is the second payload of the generational corpus
(:mod:`repro.webtree.generations`): the corpus manifest lists its files,
a full build ``<store>.idx-<G>`` followed by the segments
``<store>.idx.seg-<G>`` that updates publish together with the store's
segments.  Segments reuse the full build's **pinned IdfModel**, so
weights stay comparable across files; a rebuild (:func:`build_corpus_index`,
also part of compaction) refits it.

Scoring is deliberately order-pinned: both the vectorized reader path
and the on-the-fly exhaustive scan (:mod:`repro.retrieval.router`)
accumulate float32 posting weights into float64 scores in sorted-term
order, one addition per (term, page) — so routed and scanned scores are
bit-identical and the routed ≡ exhaustive differential can demand exact
equality, not tolerance bands.
"""

from __future__ import annotations

import os
from collections import Counter
from dataclasses import replace
from typing import Mapping, Optional

import numpy as np

from ..core.errors import IngestError
from ..nlp.ner import extract_entities
from ..nlp.tokenize import words
from ..nlp.vocab import IdfModel
from ..webtree.generations import (
    FileFormat,
    GenerationalReader,
    Layers,
    Manifest,
    payload_file,
    publish_bytes,
    read_manifest,
    write_manifest,
)
from ..webtree.node import WebPage
from ..webtree.store import CorpusStoreReader

INDEX_FORMAT = FileFormat("corpus index", b"RPWIDX01", b"RPWIDXE1")

PAGE_ID_DTYPE = np.dtype("<u4")
WEIGHT_DTYPE = np.dtype("<f4")
OFFSET_DTYPE = np.dtype("<u8")

#: Separator inside entity keys.  Word tokens are lower-cased
#: alphanumeric runs, so a term containing this byte is unambiguously an
#: entity key, never a token.
ENTITY_SEP = "\x1f"

#: Posting weight of an entity key.  Entity keys are near-unique by
#: construction (label + normalized phrase), so a flat boost in the
#: upper reach of the IDF scale makes entity-anchored questions route
#: entity-first without drowning topical token evidence.
ENTITY_WEIGHT = 2.5

_corrupt = INDEX_FORMAT.corrupt


def entity_key(label: str, text: str) -> str:
    """The index term for one typed entity occurrence ('' if degenerate)."""
    phrase = " ".join(words(text))
    if not phrase:
        return ""
    return f"{label.lower()}{ENTITY_SEP}{phrase}"


def page_postings(text: str, idf: IdfModel) -> dict[str, np.float32]:
    """Term → float32 weight for one page's text.

    The single weighting function of the whole retrieval layer: the
    index build pass, the incremental segment updater and the
    no-index exhaustive scan all call it, so every path scores a page
    identically by construction.  Token weights are
    ``idf(t) * (1 + ln tf)`` (batched through
    :meth:`IdfModel.idf_array`); entity keys get the flat
    :data:`ENTITY_WEIGHT`.  Weights are quantized to float32 — the
    on-disk precision — *here*, so in-memory and memmapped postings are
    bit-identical.
    """
    postings: dict[str, np.float32] = {}
    tokens = words(text)
    if tokens:
        counts = Counter(tokens)
        unique = sorted(counts)
        weights = idf.idf_array(unique) * (
            1.0 + np.log(np.array([counts[t] for t in unique], dtype=np.float64))
        )
        for term, weight in zip(unique, weights.astype(np.float32).tolist()):
            postings[term] = np.float32(weight)
    for span in extract_entities(text):
        key = entity_key(span.label, span.text)
        if key:
            postings[key] = np.float32(ENTITY_WEIGHT)
    return postings


def page_text(page: "object") -> str:
    """The whole-page text the index tokenizes: the root subtree join.

    Store-loaded pages arrive with their index planes prebuilt, so this
    never parses — it reuses the cached Euler-tour text join.
    """
    return page.index().subtree_text(0)  # type: ignore[attr-defined]


def _pack_index(
    postings_by_page: Mapping[str, Mapping[str, float]], idf: IdfModel
) -> bytes:
    """Serialize one complete index file (header/body/manifest/footer)."""
    pages = sorted(postings_by_page)
    page_of = {fingerprint: i for i, fingerprint in enumerate(pages)}
    by_term: dict[str, list[tuple[int, float]]] = {}
    for fingerprint in pages:
        page_id = page_of[fingerprint]
        for term, weight in postings_by_page[fingerprint].items():
            by_term.setdefault(term, []).append((page_id, float(weight)))
    terms = sorted(by_term)
    offsets = np.zeros(len(terms) + 1, dtype=OFFSET_DTYPE)
    page_ids: list[int] = []
    weights: list[float] = []
    for i, term in enumerate(terms):
        entries = sorted(by_term[term])
        page_ids.extend(entry[0] for entry in entries)
        weights.extend(entry[1] for entry in entries)
        offsets[i + 1] = len(page_ids)
    page_id_bytes = np.array(page_ids, dtype=PAGE_ID_DTYPE).tobytes()
    weight_bytes = np.array(weights, dtype=WEIGHT_DTYPE).tobytes()
    offset_bytes = offsets.tobytes()
    body_offset = INDEX_FORMAT.header_size
    sections = {
        "page_ids": [body_offset, len(page_ids)],
        "weights": [body_offset + len(page_id_bytes), len(weights)],
        "offsets": [
            body_offset + len(page_id_bytes) + len(weight_bytes),
            len(terms) + 1,
        ],
    }
    manifest = {
        "pages": pages,
        "terms": terms,
        "sections": sections,
        "idf": idf.to_dict(),
    }
    manifest_offset = sections["offsets"][0] + len(offset_bytes)
    return b"".join(
        (
            INDEX_FORMAT.header(),
            page_id_bytes,
            weight_bytes,
            offset_bytes,
            INDEX_FORMAT.trailer(manifest_offset, manifest),
        )
    )


class _IndexFile:
    """One validated memmap view of a single index file."""

    def __init__(self, path: str) -> None:
        self.path = os.fspath(path)
        self.raw, manifest, manifest_offset = INDEX_FORMAT.open(self.path)
        try:
            self.pages: list[str] = list(manifest["pages"])
            self.terms: list[str] = list(manifest["terms"])
            self.idf_state: dict = manifest["idf"]
            sections = manifest["sections"]
            self.page_ids = self._section(
                sections, "page_ids", PAGE_ID_DTYPE, manifest_offset
            )
            self.weights = self._section(
                sections, "weights", WEIGHT_DTYPE, manifest_offset
            )
            self.offsets = self._section(
                sections, "offsets", OFFSET_DTYPE, manifest_offset
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise _corrupt(self.path, f"manifest unreadable: {exc}") from exc
        if len(self.offsets) != len(self.terms) + 1:
            raise _corrupt(self.path, "offset table does not match term count")
        if len(self.page_ids) != len(self.weights):
            raise _corrupt(self.path, "postings arrays disagree in length")
        if len(self.offsets) and (
            int(self.offsets[-1]) != len(self.page_ids)
            or np.any(np.diff(self.offsets.astype(np.int64)) < 0)
        ):
            raise _corrupt(self.path, "offset table is not a valid prefix sum")
        if len(self.page_ids) and int(self.page_ids.max()) >= len(self.pages):
            raise _corrupt(self.path, "posting page id out of range")
        self._term_index = {term: i for i, term in enumerate(self.terms)}

    def _section(
        self, sections: dict, name: str, dtype: np.dtype, manifest_offset: int
    ) -> np.ndarray:
        offset, count = (int(value) for value in sections[name])
        end = offset + count * dtype.itemsize
        if offset < INDEX_FORMAT.header_size or end > manifest_offset:
            raise ValueError(f"section {name!r} out of bounds")
        return np.frombuffer(self.raw[offset:end], dtype=dtype)

    def idf(self) -> IdfModel:
        return IdfModel.from_dict(self.idf_state)

    def postings(self, term: str) -> "tuple[np.ndarray, np.ndarray]":
        """(page_ids, weights) slices for ``term`` (empty when absent)."""
        index = self._term_index.get(term)
        if index is None:
            empty = np.empty(0, dtype=PAGE_ID_DTYPE)
            return empty, np.empty(0, dtype=WEIGHT_DTYPE)
        start, end = int(self.offsets[index]), int(self.offsets[index + 1])
        return self.page_ids[start:end], self.weights[start:end]


class _IndexLayers(Layers):
    """The index files of one generation, plus per-file live masks."""

    __slots__ = ("live_masks",)

    def __init__(self, manifest: Manifest, files: "list[_IndexFile]") -> None:
        super().__init__(manifest, files)
        # Per file: which local page ids still own their fingerprint
        # under shadowing/removal — the mask the scorer applies so a
        # stale segment row can never produce a candidate.
        owner = self.owner
        self.live_masks = [
            np.fromiter(
                (owner.get(fingerprint) is index_file
                 for fingerprint in index_file.pages),
                dtype=bool,
                count=len(index_file.pages),
            )
            for index_file in files
        ]


class CorpusIndexReader(GenerationalReader):
    """Read-only memmap view of a corpus's inverted index.

    Opened from the *store* path: the corpus manifest names the index
    files.  Cheap to open, safe to share across threads, picklable by
    path; see :class:`~repro.webtree.generations.GenerationalReader`.
    """

    def _open(self, manifest: Manifest) -> _IndexLayers:
        if manifest.index is None:
            raise IngestError(
                f"no corpus index for store {self.path!r}; run "
                "`repro corpus index` over the store first"
            )
        return _IndexLayers(
            manifest, [_IndexFile(self._resolve(name)) for name in manifest.index]
        )

    def reload(self) -> bool:
        """Move to the newest published generation; True when it moved."""
        return self._advance(read_manifest(self.path))

    def ensure_fresh(self, store: CorpusStoreReader) -> "CorpusIndexReader":
        """This index pinned at ``store``'s generation, for one query.

        When the generations already match this is one integer compare
        — no file I/O.  Otherwise the index reads the manifest once and
        moves to it, and so does ``store`` when it is older (callers
        pass a :meth:`~CorpusStoreReader.pinned` store, so only their
        own view moves).  Store and index then come from one manifest,
        so every routed candidate is a page ``store`` can load.
        """
        view = self._view
        while view.manifest.generation != store.generation:
            manifest = read_manifest(self.path)
            if manifest.generation < store.generation:
                raise IngestError(
                    f"corpus manifest of {self.path!r} went back to generation "
                    f"{manifest.generation} under a reader at {store.generation}"
                )
            self._advance(manifest)
            store._advance(manifest)
            # Another caller may have moved this reader past ``manifest``;
            # then the next manifest read moves ``store`` along too.
            view = self._view
        pinned = self.pinned()
        pinned._view = view
        return pinned

    # -- manifest queries ----------------------------------------------------

    def __len__(self) -> int:
        return len(self._view.owner)

    def idf(self) -> IdfModel:
        """The IdfModel every file of this generation is weighted with."""
        return self._view.files[0].idf()

    def postings_for(self, fingerprint: str) -> dict[str, np.float32]:
        """All (term → weight) postings of one live page, for tests/stat."""
        index_file = self._view.owner.get(fingerprint)
        if index_file is None:
            return {}
        page_id = index_file.pages.index(fingerprint)
        result: dict[str, np.float32] = {}
        for i, term in enumerate(index_file.terms):
            start, end = int(index_file.offsets[i]), int(index_file.offsets[i + 1])
            ids = index_file.page_ids[start:end]
            hit = np.nonzero(ids == page_id)[0]
            if hit.size:
                result[term] = np.float32(
                    index_file.weights[start + int(hit[0])]
                )
        return result

    def stat(self) -> dict:
        view = self._view
        return {
            "path": self.path,
            "file_bytes": sum(int(f.raw.size) for f in view.files),
            "pages": len(view.owner),
            "terms": sum(len(f.terms) for f in view.files),
            "postings": sum(len(f.page_ids) for f in view.files),
            "generation": view.manifest.generation,
            "segments": len(view.files) - 1,
            "removed_pages": len(view.manifest.removed),
        }

    # -- scoring -------------------------------------------------------------

    def score(self, query: Mapping[str, float]) -> "list[tuple[str, float]]":
        """Sparse dot-product of ``query`` against every live page.

        Returns ``(fingerprint, score)`` for every page with a positive
        score, sorted by ``(-score, fingerprint)`` — a total order, so
        any top-k cut is deterministic.  Accumulation is float64 over
        float32 postings in sorted-term order (see the module
        docstring's bit-exactness contract with the scan path).
        """
        terms = sorted(query)
        view = self._view
        results: list[tuple[str, float]] = []
        for index_file, live in zip(view.files, view.live_masks):
            if not live.any():
                continue
            scores = np.zeros(len(index_file.pages), dtype=np.float64)
            touched = np.zeros(len(index_file.pages), dtype=bool)
            for term in terms:
                page_ids, weights = index_file.postings(term)
                if not len(page_ids):
                    continue
                np.add.at(
                    scores,
                    page_ids,
                    np.float64(query[term]) * weights.astype(np.float64),
                )
                touched[page_ids] = True
            hits = np.nonzero(touched & live & (scores > 0.0))[0]
            pages = index_file.pages
            results.extend(
                (pages[int(page_id)], float(scores[int(page_id)]))
                for page_id in hits
            )
        results.sort(key=lambda item: (-item[1], item[0]))
        return results

    def route(
        self, query: Mapping[str, float], top_k: Optional[int] = None
    ) -> "list[tuple[str, float]]":
        """Top-``top_k`` candidates for ``query`` (all matches if None)."""
        scored = self.score(query)
        if top_k is not None:
            scored = scored[: max(0, int(top_k))]
        return scored


def update_corpus_index(
    store_path: str,
    base: Manifest,
    generation: int,
    pages: "Mapping[str, WebPage]",
) -> "Optional[str]":
    """Write the index segment of one corpus update; return its file name.

    ``pages`` are the pages the update at ``generation`` makes live, on
    top of the published generation ``base``.  Their postings are
    weighted with ``base``'s pinned IdfModel and written atomically to
    ``<store>.idx.seg-<G>``, which stays invisible until the update's
    manifest swap.  Returns None (writing nothing) when the corpus has
    no index or there are no pages to post.
    """
    if base.index is None or not pages:
        return None
    directory = os.path.dirname(os.path.abspath(store_path))
    idf = _IndexFile(os.path.join(directory, base.index[0])).idf()
    path = payload_file(store_path, "idx.seg", generation)
    publish_bytes(
        path,
        _pack_index(
            {fp: page_postings(page_text(page), idf) for fp, page in pages.items()},
            idf,
        ),
    )
    return os.path.basename(path)


def build_index_file(
    store_path: str,
    store: CorpusStoreReader,
    generation: int,
    idf: "Optional[IdfModel]" = None,
) -> str:
    """Write a full index over ``store``'s live pages; return its file name.

    One pass over the pages — rehydrated from the memmapped planes,
    never parsed — fitting the IdfModel in sorted-fingerprint order
    (exactly the no-index exhaustive scan's fit) unless one is given.
    The file ``<store>.idx-<G>`` is invisible until a manifest lists it.
    """
    fingerprints = sorted(store.fingerprints())
    texts = [page_text(store.load(fingerprint)[0]) for fingerprint in fingerprints]
    if idf is None:
        idf = IdfModel.fit(texts)
    path = payload_file(store_path, "idx", generation)
    publish_bytes(
        path,
        _pack_index(
            {fp: page_postings(text, idf) for fp, text in zip(fingerprints, texts)},
            idf,
        ),
    )
    return os.path.basename(path)


def build_corpus_index(
    store_path: str, idf: "Optional[IdfModel]" = None
) -> dict:
    """Build (or fully rebuild) the corpus's index as its next generation.

    Writes a full index file (:func:`build_index_file`) and publishes a
    manifest that keeps the store's files and lists it as the whole
    index.  Returns the new index's :meth:`~CorpusIndexReader.stat`.
    """
    store = CorpusStoreReader(store_path)
    generation = store.generation + 1
    name = build_index_file(store_path, store, generation, idf)
    write_manifest(
        store_path, replace(store.manifest, generation=generation, index=(name,))
    )
    return CorpusIndexReader(store_path).stat()


def open_corpus_index(store_path: str) -> CorpusIndexReader:
    """Open the index of an existing corpus (validating its structure)."""
    return CorpusIndexReader(store_path)
