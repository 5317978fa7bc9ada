"""Corpus-store build orchestration for the serving layer.

:mod:`repro.webtree.store` owns the on-disk format; this module owns
*populating* it through the serving ingest pipeline (same limits, same
degraded flags, same fingerprints serving will later look up) and the
``repro corpus build / stat`` CLI surface.

The split keeps the dependency arrows clean: webtree knows bytes and
planes, serving knows HTML, limits and caches.
"""

from __future__ import annotations

import os
import time
from typing import Iterable, Sequence

from ..webtree.store import CorpusStoreReader, CorpusStoreWriter
from .ingest import DEFAULT_LIMITS, IngestStats, ServingLimits, ingest_page

#: Re-exported serving-facing name: the read handle a ``QAService`` or a
#: ``TaskRunner`` worker opens over a built store.
CorpusStore = CorpusStoreReader


def build_corpus_store(
    documents: "Iterable[tuple[str, str]]",
    path: str,
    limits: "ServingLimits | None" = DEFAULT_LIMITS,
) -> dict:
    """Parse ``(html, url)`` documents once and persist their planes.

    Every document flows through :func:`~repro.serving.ingest.ingest_page`
    with ``store_writer`` attached — exactly the serving parse path, so a
    page rehydrated from the store is the page serving would have built,
    degraded flag included.  Byte-identical documents dedupe on their
    fingerprint.  The file appears atomically at ``path`` only on
    success.

    Returns a build report (page/node counts, parse seconds, fallbacks).
    """
    stats = IngestStats()
    started = time.perf_counter()
    with CorpusStoreWriter(path) as writer:
        for html, url in documents:
            ingest_page(
                html, url, stats=stats, limits=limits, store_writer=writer
            )
        pages = len(writer)
    reader = CorpusStoreReader(path)
    report = reader.stat()
    report.update(
        {
            "documents": stats.pages_ingested,
            "deduped": stats.pages_ingested - pages,
            "degraded_pages": stats.pages_degraded,
            "parse_fallbacks": stats.parse_fallbacks,
            "parse_seconds": round(stats.parse_seconds, 4),
            "index_seconds": round(stats.index_seconds, 4),
            "build_seconds": round(time.perf_counter() - started, 4),
        }
    )
    return report


def dataset_documents(
    domains: "Sequence[str]", pages_per_domain: int
) -> "Iterable[tuple[str, str]]":
    """``(html, url)`` pairs of the synthetic corpus, generation order."""
    from ..dataset.corpus import generate_page

    for domain in domains:
        for seed in range(pages_per_domain):
            corpus_page = generate_page(domain, seed)
            yield corpus_page.html, corpus_page.page.url


def build_dataset_store(
    path: str,
    domains: "Sequence[str] | None" = None,
    pages_per_domain: int = 25,
    limits: "ServingLimits | None" = DEFAULT_LIMITS,
) -> dict:
    """:func:`build_corpus_store` over the synthetic dataset corpus."""
    from ..dataset.corpus import DOMAINS

    selected = tuple(domains) if domains else DOMAINS
    return build_corpus_store(
        dataset_documents(selected, pages_per_domain), path, limits=limits
    )


def html_dir_documents(directory: str) -> "Iterable[tuple[str, str]]":
    """``(html, url)`` pairs from a directory of ``*.html`` files.

    The url is the bare filename.  Fingerprints cover ``(url, html)``,
    so requests served against such a store must use the filename as
    their url; harnesses with real page urls (the smoke manifest) should
    build from their own ``(html, url)`` pairs instead.
    """
    for name in sorted(os.listdir(directory)):
        if not name.endswith(".html"):
            continue
        with open(os.path.join(directory, name), "r", encoding="utf-8") as f:
            yield f.read(), name


def update_corpus_store(
    path: str,
    documents: "Iterable[tuple[str, str]]" = (),
    remove_urls: "Sequence[str]" = (),
    limits: "ServingLimits | None" = DEFAULT_LIMITS,
    compact: bool = False,
) -> dict:
    """Publish one new corpus generation: changed pages in, stale urls out.

    Each ``(html, url)`` document is parsed through the serving ingest
    pipeline and appended as an update segment entry; any live page with
    the same url is superseded (its fingerprint lands in the
    generation's ``removed`` set).  ``remove_urls`` drops pages outright.
    The publish is crash-safe end to end (segment renames, then one
    manifest rename — see :mod:`repro.webtree.generations`); a no-op
    update leaves the corpus untouched at its current generation.

    With ``compact`` the generations are squashed into a fresh base
    afterwards and stale files collected.  An inverted index, when the
    corpus has one, moves in the same publishes (see
    :class:`~repro.webtree.store.CorpusStoreUpdater` and
    :func:`~repro.webtree.store.compact_store`).  Returns a report
    merging the post-update
    :meth:`~repro.webtree.store.CorpusStoreReader.stat` with update
    counts — the ``repro corpus update`` CLI body.
    """
    from ..webtree.store import CorpusStoreUpdater, compact_store
    from .ingest import page_fingerprint

    reader = CorpusStoreReader(path)
    by_url = {}
    for fingerprint in reader.fingerprints():
        entry = reader.entry(fingerprint)
        if entry is not None and entry.get("url"):
            by_url[entry["url"]] = fingerprint
    stats = IngestStats()
    started = time.perf_counter()
    updated = removed = missing = 0
    with CorpusStoreUpdater(path) as updater:
        for html, url in documents:
            fingerprint = page_fingerprint(html, url)
            stale = by_url.get(url)
            if stale == fingerprint:
                continue  # byte-identical to the live page: no-op
            outcome = ingest_page(html, url, stats=stats, limits=limits)
            if stale is not None:
                updater.remove(stale)
            if updater.update(fingerprint, outcome.page, degraded=outcome.degraded):
                updated += 1
            by_url[url] = fingerprint
        for url in remove_urls:
            stale = by_url.get(url)
            if stale is None:
                missing += 1
            elif updater.remove(stale):
                removed += 1
    collected = compact_store(path)["collected"] if compact else None
    reader.reload()
    report = reader.stat()
    if collected is not None:
        report["collected"] = len(collected)
    report.update(
        {
            "updated": updated,
            "removed": removed,
            "missing_urls": missing,
            "degraded_updates": stats.pages_degraded,
            "update_seconds": round(time.perf_counter() - started, 4),
        }
    )
    return report


def corpus_stat(path: str) -> dict:
    """Shape summary of an existing store (validates it on open)."""
    return CorpusStoreReader(path).stat()
