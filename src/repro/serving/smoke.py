"""Two-process artifact/serving smoke check (the CI `artifact-serving` job).

Phase 1 (``export``) fits one small task per domain, exports each
program artifact, renders the task's test pages back to HTML files and
records the fitted tools' expected answers.  Phase 2 (``serve``) runs in
a **fresh process**: it loads the artifacts, registers them on a
:class:`~repro.serving.QAService`, serves the HTML through the full
ingest → route → batch → predict pipeline, and fails unless

* every answer is bit-identical to the fitted tool's recorded answer,
* zero synthesis searches ran in the serving process
  (:func:`~repro.synthesis.session.synthesis_call_count`).

The corpus variant (the CI `corpus-serving` job) proves the disk-backed
store end to end: ``corpus-export`` additionally parses the exported
HTML once into a columnar store file, and ``corpus-serve`` serves from
it in a fresh interpreter asserting **zero** ``parse_html`` calls
(:func:`~repro.html.parser.parse_call_count`) on top of the identical-
answers and zero-synthesis bars — pages must rehydrate from planes, not
re-parse.

Usage::

    python -m repro.serving.smoke export --dir smoke-out
    python -m repro.serving.smoke serve  --dir smoke-out   # fresh process
    python -m repro.serving.smoke corpus-export --dir smoke-out
    python -m repro.serving.smoke corpus-serve  --dir smoke-out
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from ..core.webqa import WebQA
from ..dataset.corpus import load_task_dataset
from ..dataset.tasks import TASKS_BY_ID
from ..html.parser import parse_call_count
from ..persist import read_artifact, write_artifact
from .ingest import ingest_html
from .service import QAService, ServingRequest
from ..synthesis.session import synthesis_call_count
from ..webtree.html_out import page_to_html

#: One quick task per domain: enough to exercise routing across
#: heterogeneous programs while staying CI-cheap.
SMOKE_TASKS = ("fac_t1", "conf_t1", "class_t2", "clinic_t5")

MANIFEST = "manifest.json"

#: Columnar store file written by ``corpus-export`` next to the manifest.
CORPUS_FILE = "corpus.rpw"


def run_export(out_dir: Path, n_pages: int, n_train: int) -> int:
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest: dict = {"tasks": []}
    for task_id in SMOKE_TASKS:
        task = TASKS_BY_ID[task_id]
        dataset = load_task_dataset(task, n_pages=n_pages, n_train=n_train, seed=0)
        tool = WebQA(ensemble_size=50).fit(
            task.question,
            task.keywords,
            list(dataset.train),
            list(dataset.test_pages),
            dataset.models,
        )
        artifact_path = out_dir / f"{task_id}.artifact.json"
        tool.export_artifact(
            str(artifact_path),
            task_meta={"task_id": task.task_id, "domain": task.domain},
        )
        entry = {"task_id": task_id, "artifact": artifact_path.name, "pages": []}
        for position, page in enumerate(dataset.test_pages):
            html_path = out_dir / f"{task_id}.page{position}.html"
            html_path.write_text(page_to_html(page), encoding="utf-8")
            # Expected answers come from re-ingesting the rendered HTML
            # through the *fitted* tool, so the serve phase compares the
            # loaded artifact against the synthesizing tool on byte-
            # identical inputs (rendering is canonical but the re-parsed
            # tree is only isomorphic to the generator's original).
            reparsed = ingest_html(
                html_path.read_text(encoding="utf-8"), url=page.url
            )
            entry["pages"].append(
                {
                    "html": html_path.name,
                    "url": page.url,
                    "expected": list(tool.predict(reparsed)),
                }
            )
        manifest["tasks"].append(entry)
        print(f"exported {task_id}: {len(entry['pages'])} pages")
    write_artifact(str(out_dir / MANIFEST), manifest)
    print(f"export complete: {out_dir / MANIFEST}")
    return 0


def run_serve(out_dir: Path, jobs: int, max_batch: int) -> int:
    calls_before = synthesis_call_count()
    manifest = read_artifact(str(out_dir / MANIFEST))
    requests: list[ServingRequest] = []
    expected: list[tuple[str, ...]] = []
    with QAService(jobs=jobs, max_batch=max_batch) as service:
        for entry in manifest["tasks"]:
            service.register(entry["task_id"], str(out_dir / entry["artifact"]))
            for page_entry in entry["pages"]:
                html = (out_dir / page_entry["html"]).read_text(encoding="utf-8")
                requests.append(
                    ServingRequest(
                        route=entry["task_id"], html=html, url=page_entry["url"]
                    )
                )
                expected.append(tuple(page_entry["expected"]))
        # Serve twice: the second pass must hit the page cache.
        answers = service.ask_many(requests)
        answers_again = service.ask_many(requests)

    failures = 0
    for request, got, want in zip(requests, answers, expected):
        if tuple(got) != want:
            failures += 1
            print(
                f"MISMATCH route={request.route} url={request.url}: "
                f"got {got!r}, expected {want!r}",
                file=sys.stderr,
            )
    if answers_again != answers:
        failures += 1
        print("MISMATCH: warm-cache pass differs from cold pass", file=sys.stderr)
    if service.cache.stats.cache_hits < len(requests):
        failures += 1
        print(
            f"PAGE CACHE INEFFECTIVE: {service.cache.stats.cache_hits} hits "
            f"over {2 * len(requests)} requests",
            file=sys.stderr,
        )
    synthesis_calls = synthesis_call_count() - calls_before
    if synthesis_calls != 0:
        failures += 1
        print(
            f"SYNTHESIS IN SERVING PATH: {synthesis_calls} synthesize() calls "
            f"during load+serve (must be 0)",
            file=sys.stderr,
        )
    print(json.dumps(service.stats.as_dict(), indent=2))
    print(json.dumps({"page_cache": service.cache.stats.as_dict()}, indent=2))
    if failures:
        print(f"serving smoke FAILED: {failures} problem(s)", file=sys.stderr)
        return 1
    print(
        f"serving smoke OK: {len(requests)} requests x2 passes, "
        f"{len(manifest['tasks'])} routes, 0 synthesis calls"
    )
    return 0


def run_corpus_export(out_dir: Path, n_pages: int, n_train: int) -> int:
    """``export`` plus a columnar store over the exported pages.

    The store is keyed by ``page_fingerprint(html, url)`` over the exact
    ``(html, url)`` pairs the serve phase will request, so every serve-
    phase ingest must resolve from planes on disk.
    """
    status = run_export(out_dir, n_pages, n_train)
    if status:
        return status
    from .corpus import build_corpus_store

    manifest = read_artifact(str(out_dir / MANIFEST))
    documents = []
    for entry in manifest["tasks"]:
        for page_entry in entry["pages"]:
            html = (out_dir / page_entry["html"]).read_text(encoding="utf-8")
            documents.append((html, page_entry["url"]))
    report = build_corpus_store(documents, str(out_dir / CORPUS_FILE))
    print(json.dumps({"corpus_store": report}, indent=2))
    return 0


def run_corpus_serve(out_dir: Path, jobs: int, max_batch: int) -> int:
    """``serve`` from the columnar store: zero parses allowed.

    Runs in a fresh interpreter after ``corpus-export``: every page must
    rehydrate from the store (``store_hits`` covers every request,
    ``parse_call_count()`` delta stays 0) and answers must match the
    fitted tools bit-for-bit — proving store-backed serving ≡ the parse
    path without ever invoking the parser.
    """
    parses_before = parse_call_count()
    calls_before = synthesis_call_count()
    manifest = read_artifact(str(out_dir / MANIFEST))
    requests: list[ServingRequest] = []
    expected: list[tuple[str, ...]] = []
    store_path = out_dir / CORPUS_FILE
    with QAService(
        jobs=jobs, max_batch=max_batch, store=str(store_path)
    ) as service:
        for entry in manifest["tasks"]:
            service.register(entry["task_id"], str(out_dir / entry["artifact"]))
            for page_entry in entry["pages"]:
                html = (out_dir / page_entry["html"]).read_text(encoding="utf-8")
                requests.append(
                    ServingRequest(
                        route=entry["task_id"], html=html, url=page_entry["url"]
                    )
                )
                expected.append(tuple(page_entry["expected"]))
        answers = service.ask_many(requests)
        answers_again = service.ask_many(requests)

    failures = 0
    for request, got, want in zip(requests, answers, expected):
        if tuple(got) != want:
            failures += 1
            print(
                f"MISMATCH route={request.route} url={request.url}: "
                f"got {got!r}, expected {want!r}",
                file=sys.stderr,
            )
    if answers_again != answers:
        failures += 1
        print("MISMATCH: warm-cache pass differs from cold pass", file=sys.stderr)
    store_hits = service.cache.stats.store_hits
    if store_hits < len(requests):
        failures += 1
        print(
            f"STORE INEFFECTIVE: {store_hits} store hits over "
            f"{len(requests)} cold requests (every miss must resolve "
            f"from the store)",
            file=sys.stderr,
        )
    parse_calls = parse_call_count() - parses_before
    if parse_calls != 0:
        failures += 1
        print(
            f"PARSE IN STORE-BACKED SERVING: {parse_calls} parse_html "
            f"calls during load+serve (must be 0)",
            file=sys.stderr,
        )
    synthesis_calls = synthesis_call_count() - calls_before
    if synthesis_calls != 0:
        failures += 1
        print(
            f"SYNTHESIS IN SERVING PATH: {synthesis_calls} synthesize() "
            f"calls during load+serve (must be 0)",
            file=sys.stderr,
        )
    print(json.dumps(service.stats.as_dict(), indent=2))
    print(json.dumps({"page_cache": service.cache.stats.as_dict()}, indent=2))
    if failures:
        print(f"corpus smoke FAILED: {failures} problem(s)", file=sys.stderr)
        return 1
    print(
        f"corpus smoke OK: {len(requests)} requests x2 passes, "
        f"{store_hits} store hits, 0 parse calls, 0 synthesis calls"
    )
    return 0


#: Routed-answer expectations written by ``routing-export`` next to the
#: manifest, keyed by task id.
ROUTING_FILE = "routing.json"

#: CorpusAnswer fields compared across processes and against the
#: exhaustive scan ("routed" itself necessarily differs between paths).
ROUTING_KEYS = (
    "answer", "fingerprint", "url", "score", "consensus_loss",
    "support", "candidates",
)


def run_routing_export(
    out_dir: Path, n_pages: int, n_train: int, top_k: int
) -> int:
    """``corpus-export`` plus the inverted routing index + expectations.

    Builds the store and its index, then records each task's
    routed :class:`~repro.retrieval.router.CorpusAnswer` so the fresh-
    process ``routing-serve`` phase can demand bit-identical answers and
    provenance.
    """
    status = run_corpus_export(out_dir, n_pages, n_train)
    if status:
        return status
    from ..retrieval.index import build_corpus_index

    store_path = out_dir / CORPUS_FILE
    report = build_corpus_index(str(store_path))
    print(json.dumps({"corpus_index": report}, indent=2))
    manifest = read_artifact(str(out_dir / MANIFEST))
    routing: dict = {"top_k": top_k, "tasks": {}}
    with QAService(jobs=1, store=str(store_path)) as service:
        for entry in manifest["tasks"]:
            service.register(entry["task_id"], str(out_dir / entry["artifact"]))
            answer = service.ask_corpus(entry["task_id"], top_k=top_k)
            routing["tasks"][entry["task_id"]] = answer.as_dict()
            print(
                f"routed {entry['task_id']}: {answer.url} "
                f"support={answer.support}/{len(answer.candidates)}"
            )
    write_artifact(str(out_dir / ROUTING_FILE), routing)
    return 0


def run_routing_serve(out_dir: Path, jobs: int, max_batch: int) -> int:
    """Route and answer from the index in a fresh process.

    Three bars on top of the recorded expectations: zero ``parse_html``
    calls (candidates rehydrate from store planes), zero synthesis
    calls (artifacts only), and routed ≡ exhaustive — the top-k answer,
    provenance and candidate ranking must be bit-identical to a full
    scan of every store page, re-proving the equivalence contract in
    the serving process itself.
    """
    parses_before = parse_call_count()
    calls_before = synthesis_call_count()
    manifest = read_artifact(str(out_dir / MANIFEST))
    routing = read_artifact(str(out_dir / ROUTING_FILE))
    top_k = int(routing["top_k"])
    failures = 0
    with QAService(
        jobs=jobs, max_batch=max_batch, store=str(out_dir / CORPUS_FILE)
    ) as service:
        for entry in manifest["tasks"]:
            task_id = entry["task_id"]
            service.register(task_id, str(out_dir / entry["artifact"]))
            routed = service.ask_corpus(task_id, top_k=top_k)
            exhaustive = service.ask_corpus(
                task_id, top_k=top_k, exhaustive=True
            )
            got, reference = routed.as_dict(), exhaustive.as_dict()
            expected = routing["tasks"][task_id]
            for key in ROUTING_KEYS:
                if got[key] != reference[key]:
                    failures += 1
                    print(
                        f"ROUTED != EXHAUSTIVE for {task_id}.{key}: "
                        f"{got[key]!r} vs {reference[key]!r}",
                        file=sys.stderr,
                    )
                if got[key] != expected[key]:
                    failures += 1
                    print(
                        f"MISMATCH vs export for {task_id}.{key}: "
                        f"got {got[key]!r}, expected {expected[key]!r}",
                        file=sys.stderr,
                    )
            if not routed.ok:
                failures += 1
                print(f"NO ANSWER routed for {task_id}", file=sys.stderr)
    parse_calls = parse_call_count() - parses_before
    if parse_calls != 0:
        failures += 1
        print(
            f"PARSE IN ROUTED SERVING: {parse_calls} parse_html calls "
            f"(must be 0: candidates come from store planes)",
            file=sys.stderr,
        )
    synthesis_calls = synthesis_call_count() - calls_before
    if synthesis_calls != 0:
        failures += 1
        print(
            f"SYNTHESIS IN ROUTED SERVING: {synthesis_calls} synthesize() "
            f"calls (must be 0)",
            file=sys.stderr,
        )
    if failures:
        print(f"routing smoke FAILED: {failures} problem(s)", file=sys.stderr)
        return 1
    print(
        f"routing smoke OK: {len(manifest['tasks'])} routes answered from "
        f"the index at top_k={top_k}, routed == exhaustive == export, "
        f"0 parse calls, 0 synthesis calls"
    )
    return 0


def run_routing_update(out_dir: Path) -> int:
    """Verify the index tracks a live store update (`repro corpus update`).

    Run after mutating the store: store and index must open at the same
    manifest generation, the update must have published one after the
    index build's generation 1, and — the strong form of "postings reflect the new
    generation" — every live page's postings must equal a fresh
    :func:`~repro.retrieval.index.page_postings` pass over its current
    store text.  Finishes with a routed-vs-exhaustive pass over the
    updated corpus.
    """
    from ..retrieval.index import open_corpus_index, page_postings, page_text
    from ..webtree.store import open_store

    store_path = out_dir / CORPUS_FILE
    store = open_store(str(store_path))
    reader = open_corpus_index(str(store_path))
    failures = 0
    if reader.generation != store.generation or reader.generation < 2:
        failures += 1
        print(
            f"GENERATION MISMATCH: store at {store.generation}, index at "
            f"{reader.generation} (both must match, >= 2)",
            file=sys.stderr,
        )
    store_fps = sorted(store.fingerprints())
    if sorted(reader.fingerprints()) != store_fps:
        failures += 1
        print("PAGE SET DIVERGED between store and index", file=sys.stderr)
    idf = reader.idf()
    stale_pages = 0
    for fingerprint in store_fps:
        page, _ = store.load(fingerprint)
        if reader.postings_for(fingerprint) != page_postings(page_text(page), idf):
            stale_pages += 1
    if stale_pages:
        failures += 1
        print(
            f"STALE POSTINGS: {stale_pages}/{len(store_fps)} pages' index "
            f"postings differ from their current store text",
            file=sys.stderr,
        )
    manifest = read_artifact(str(out_dir / MANIFEST))
    routing = read_artifact(str(out_dir / ROUTING_FILE))
    top_k = int(routing["top_k"])
    with QAService(jobs=1, store=str(store_path)) as service:
        for entry in manifest["tasks"]:
            task_id = entry["task_id"]
            service.register(task_id, str(out_dir / entry["artifact"]))
            routed = service.ask_corpus(task_id, top_k=top_k)
            exhaustive = service.ask_corpus(
                task_id, top_k=top_k, exhaustive=True
            )
            got, reference = routed.as_dict(), exhaustive.as_dict()
            diverged = [
                key for key in ROUTING_KEYS if got[key] != reference[key]
            ]
            if diverged:
                failures += 1
                print(
                    f"ROUTED != EXHAUSTIVE after update for {task_id}: "
                    f"{', '.join(diverged)}",
                    file=sys.stderr,
                )
    if failures:
        print(
            f"routing update smoke FAILED: {failures} problem(s)",
            file=sys.stderr,
        )
        return 1
    print(
        f"routing update smoke OK: store and index at generation "
        f"{reader.generation}; "
        f"{len(store_fps)} pages' postings current; routed == exhaustive"
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="phase", required=True)
    export = sub.add_parser("export", help="fit tasks and write artifacts+pages")
    export.add_argument("--dir", type=Path, required=True)
    export.add_argument("--pages", type=int, default=8)
    export.add_argument("--train", type=int, default=3)
    serve = sub.add_parser("serve", help="load artifacts and serve in-process")
    serve.add_argument("--dir", type=Path, required=True)
    serve.add_argument("--jobs", type=int, default=2)
    serve.add_argument("--max-batch", type=int, default=8)
    corpus_export = sub.add_parser(
        "corpus-export", help="export plus build a columnar corpus store"
    )
    corpus_export.add_argument("--dir", type=Path, required=True)
    corpus_export.add_argument("--pages", type=int, default=8)
    corpus_export.add_argument("--train", type=int, default=3)
    corpus_serve = sub.add_parser(
        "corpus-serve", help="serve from the store: 0 parse calls allowed"
    )
    corpus_serve.add_argument("--dir", type=Path, required=True)
    corpus_serve.add_argument("--jobs", type=int, default=2)
    corpus_serve.add_argument("--max-batch", type=int, default=8)
    routing_export = sub.add_parser(
        "routing-export",
        help="corpus-export plus the routing index and expected answers",
    )
    routing_export.add_argument("--dir", type=Path, required=True)
    routing_export.add_argument("--pages", type=int, default=8)
    routing_export.add_argument("--train", type=int, default=3)
    routing_export.add_argument("--top-k", type=int, default=8)
    routing_serve = sub.add_parser(
        "routing-serve",
        help="route+answer from the index in a fresh process: 0 parse, "
        "0 synthesis, routed == exhaustive == export",
    )
    routing_serve.add_argument("--dir", type=Path, required=True)
    routing_serve.add_argument("--jobs", type=int, default=2)
    routing_serve.add_argument("--max-batch", type=int, default=8)
    routing_update = sub.add_parser(
        "routing-update",
        help="after `repro corpus update`: assert store and index open at "
        "the same generation with current postings",
    )
    routing_update.add_argument("--dir", type=Path, required=True)
    args = parser.parse_args(argv)
    if args.phase == "export":
        return run_export(args.dir, args.pages, args.train)
    if args.phase == "corpus-export":
        return run_corpus_export(args.dir, args.pages, args.train)
    if args.phase == "corpus-serve":
        return run_corpus_serve(args.dir, args.jobs, args.max_batch)
    if args.phase == "routing-export":
        return run_routing_export(args.dir, args.pages, args.train, args.top_k)
    if args.phase == "routing-serve":
        return run_routing_serve(args.dir, args.jobs, args.max_batch)
    if args.phase == "routing-update":
        return run_routing_update(args.dir)
    return run_serve(args.dir, args.jobs, args.max_batch)


if __name__ == "__main__":
    sys.exit(main())
