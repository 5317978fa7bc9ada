"""Two-process serving smoke: fit and export in one interpreter, serve in a fresh one.

WebQA's claim is that a program synthesized from a few labeled pages
answers *other* pages; this smoke proves the serving stack keeps that
claim across a process boundary.  Three phases, each taking only
``--dir``:

* ``export`` fits one small task per domain (:data:`SMOKE_TASKS`),
  exports each program artifact, renders the task's test pages to HTML
  files and records the fitted tool's answer on each; builds a columnar
  store over exactly those ``(html, url)`` pairs plus its routing index;
  and records each task's routed
  :class:`~repro.retrieval.router.CorpusAnswer`.  Everything goes into
  one ``manifest.json``.
* ``serve`` runs in a **fresh process** and fails unless

  (a) *parse path* — a store-less :class:`~repro.serving.QAService`
      serves the HTML twice: answers equal the recorded ones, the warm
      pass equals the cold pass, and page-cache hits cover every request;
  (b) *store path* — a store-backed service serves the same HTML twice
      with the same answer bars, and store hits cover every request;
  (c) *routing* — per task, routed ≡ exhaustive ≡ export on
      :data:`ROUTING_KEYS`, and routing found an answering page;
      (b) and (c) together make **zero** ``parse_html`` calls
      (:func:`~repro.html.parser.parse_call_count`);
  (d) the whole phase makes **zero** synthesis calls
      (:func:`~repro.synthesis.session.synthesis_call_count`).
* ``update`` runs after ``repro corpus update`` rewrote a page: store
  and index must open at the same manifest generation, past the index
  build's; every live page's postings must equal a fresh
  :func:`~repro.retrieval.index.page_postings` pass over its current
  store text; and routed ≡ exhaustive must hold on the updated corpus.

Usage::

    python -m repro.serving.smoke export --dir smoke-out
    python -m repro.serving.smoke serve  --dir smoke-out   # fresh process
    python -m repro.cli corpus update smoke-out/corpus.rpw --page NEW.html URL
    python -m repro.serving.smoke update --dir smoke-out
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
from ..retrieval.index import (
    build_corpus_index,
    open_corpus_index,
    page_postings,
    page_text,
)
from ..synthesis.session import synthesis_call_count
from ..webtree.html_out import page_to_html
from ..webtree.store import open_store
from .corpus import build_corpus_store
from .ingest import ingest_html
from .service import QAService, ServingRequest

#: One quick task per domain: enough to exercise routing across
#: heterogeneous programs while staying CI-cheap.
SMOKE_TASKS = ("fac_t1", "conf_t1", "class_t2", "clinic_t5")

MANIFEST = "manifest.json"

#: Columnar store file (and, beside it, its routing index).
CORPUS_FILE = "corpus.rpw"

#: Dataset scale per task, the routing cut, and the serving pool shape.
N_PAGES, N_TRAIN, TOP_K = 8, 3, 8
JOBS, MAX_BATCH = 2, 8

#: CorpusAnswer fields compared across processes and against the
#: exhaustive scan ("routed" itself necessarily differs between paths).
ROUTING_KEYS = (
    "answer", "fingerprint", "url", "score", "consensus_loss",
    "support", "candidates",
)


class Checks:
    """Collects failed bars, reporting each on stderr as it fails."""

    def __init__(self) -> None:
        self.failures = 0

    def expect(self, condition: bool, message: str) -> None:
        if not condition:
            self.failures += 1
            print(message, file=sys.stderr)

    def report(self, phase: str, summary: str) -> int:
        if self.failures:
            print(f"{phase} smoke FAILED: {self.failures} problem(s)", file=sys.stderr)
            return 1
        print(f"{phase} smoke OK: {summary}")
        return 0


def run_export(out_dir: Path) -> int:
    """Fit, export artifacts and pages, build store + index, record answers."""
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest: dict = {"tasks": []}
    documents: list[tuple[str, str]] = []
    for task_id in SMOKE_TASKS:
        task = TASKS_BY_ID[task_id]
        dataset = load_task_dataset(task, n_pages=N_PAGES, n_train=N_TRAIN, seed=0)
        tool = WebQA(ensemble_size=50).fit(
            task.question,
            task.keywords,
            list(dataset.train),
            list(dataset.test_pages),
            dataset.models,
        )
        artifact = f"{task_id}.artifact.json"
        tool.export_artifact(
            str(out_dir / artifact),
            task_meta={"task_id": task.task_id, "domain": task.domain},
        )
        entry = {"task_id": task_id, "artifact": artifact, "pages": []}
        for position, page in enumerate(dataset.test_pages):
            html_path = out_dir / f"{task_id}.page{position}.html"
            html_path.write_text(page_to_html(page), encoding="utf-8")
            # Expected answers come from re-ingesting the rendered HTML
            # through the *fitted* tool, so the serve phase compares the
            # loaded artifact against the synthesizing tool on byte-
            # identical inputs (rendering is canonical but the re-parsed
            # tree is only isomorphic to the generator's original).
            html = html_path.read_text(encoding="utf-8")
            expected = tool.predict(ingest_html(html, url=page.url))
            entry["pages"].append(
                {"html": html_path.name, "url": page.url, "expected": list(expected)}
            )
            documents.append((html, page.url))
        manifest["tasks"].append(entry)
        print(f"exported {task_id}: {len(entry['pages'])} pages")
    # The store holds exactly the (html, url) pairs ``serve`` requests,
    # so every store-path ingest must resolve from planes on disk.
    store_path = str(out_dir / CORPUS_FILE)
    report = {"corpus_store": build_corpus_store(documents, store_path)}
    report["corpus_index"] = build_corpus_index(store_path)
    print(json.dumps(report, indent=2))
    with QAService(jobs=1, store=store_path) as service:
        for entry in _register(service, manifest, out_dir):
            answer = service.ask_corpus(entry["task_id"], top_k=TOP_K)
            entry["routed"] = answer.as_dict()
            print(f"routed {entry['task_id']}: {answer.url} "
                  f"support={answer.support}/{len(answer.candidates)}")
    write_artifact(str(out_dir / MANIFEST), manifest)
    print(f"export complete: {out_dir / MANIFEST}")
    return 0


def _register(service: QAService, manifest: dict, out_dir: Path) -> list[dict]:
    """Register every exported artifact; returns the manifest's task entries."""
    for entry in manifest["tasks"]:
        service.register(entry["task_id"], str(out_dir / entry["artifact"]))
    return manifest["tasks"]


def _route(service: QAService, task_id: str):
    """``(routed answer, its fields, the exhaustive scan's fields)``."""
    routed = service.ask_corpus(task_id, top_k=TOP_K)
    exhaustive = service.ask_corpus(task_id, top_k=TOP_K, exhaustive=True)
    return routed, routed.as_dict(), exhaustive.as_dict()


def _serve_twice(
    checks: Checks, label: str, service: QAService, requests, expected
) -> None:
    """Serve ``requests`` cold, then warm; both must give ``expected``."""
    answers = service.ask_many(requests)
    checks.expect(service.ask_many(requests) == answers,
                  f"{label}: warm-cache pass differs from cold pass")
    for request, got, want in zip(requests, answers, expected):
        checks.expect(tuple(got) == want,
                      f"{label} MISMATCH route={request.route} url={request.url}: "
                      f"got {got!r}, expected {want!r}")
    print(json.dumps({label: service.stats.as_dict(),
                      "page_cache": service.cache.stats.as_dict()}, indent=2))


def run_serve(out_dir: Path) -> int:
    """Fresh process: parse path, store path, routing; 0 parses, 0 synthesis."""
    synthesis_before = synthesis_call_count()
    checks = Checks()
    manifest = read_artifact(str(out_dir / MANIFEST))
    requests: list[ServingRequest] = []
    expected: list[tuple[str, ...]] = []
    for entry in manifest["tasks"]:
        for page in entry["pages"]:
            html = (out_dir / page["html"]).read_text(encoding="utf-8")
            route, url = entry["task_id"], page["url"]
            requests.append(ServingRequest(route=route, html=html, url=url))
            expected.append(tuple(page["expected"]))

    # (a) The parse path: the warm pass must hit the page cache.
    with QAService(jobs=JOBS, max_batch=MAX_BATCH) as service:
        _register(service, manifest, out_dir)
        _serve_twice(checks, "parse path", service, requests, expected)
    hits = service.cache.stats.cache_hits
    checks.expect(hits >= len(requests),
                  f"PAGE CACHE INEFFECTIVE: {hits} hits over "
                  f"{2 * len(requests)} requests")

    # (b) The store path and (c) routing: pages rehydrate from planes.
    parses_before = parse_call_count()
    store_path = str(out_dir / CORPUS_FILE)
    with QAService(jobs=JOBS, max_batch=MAX_BATCH, store=store_path) as service:
        _register(service, manifest, out_dir)
        _serve_twice(checks, "store path", service, requests, expected)
        store_hits = service.cache.stats.store_hits
        checks.expect(store_hits >= len(requests),
                      f"STORE INEFFECTIVE: {store_hits} store hits over "
                      f"{len(requests)} cold requests (every miss must "
                      f"resolve from the store)")
        for entry in manifest["tasks"]:
            task_id, recorded = entry["task_id"], entry["routed"]
            routed, got, reference = _route(service, task_id)
            for key in ROUTING_KEYS:
                checks.expect(got[key] == reference[key],
                              f"ROUTED != EXHAUSTIVE for {task_id}.{key}: "
                              f"{got[key]!r} vs {reference[key]!r}")
                checks.expect(got[key] == recorded[key],
                              f"MISMATCH vs export for {task_id}.{key}: "
                              f"got {got[key]!r}, expected {recorded[key]!r}")
            checks.expect(routed.ok, f"NO ANSWER routed for {task_id}")
    parses = parse_call_count() - parses_before
    checks.expect(parses == 0, f"PARSE IN STORE-BACKED SERVING: {parses} parse_html "
                               f"calls (must be 0: pages come from store planes)")

    # (d) Artifacts only: nothing in this process may synthesize.
    synthesized = synthesis_call_count() - synthesis_before
    checks.expect(synthesized == 0, f"SYNTHESIS IN SERVING PATH: {synthesized} "
                                    f"synthesize() calls (must be 0)")
    return checks.report(
        "serving",
        f"{len(requests)} requests x2 passes on the parse and store paths, "
        f"{len(manifest['tasks'])} routes routed == exhaustive == export at "
        f"top_k={TOP_K}, 0 parse calls from the store, 0 synthesis calls",
    )


def run_update(out_dir: Path) -> int:
    """After `repro corpus update`: store and index agree, routing holds."""
    checks = Checks()
    store_path = str(out_dir / CORPUS_FILE)
    store = open_store(store_path)
    reader = open_corpus_index(store_path)
    checks.expect(reader.generation == store.generation and reader.generation >= 2,
                  f"GENERATION MISMATCH: store at {store.generation}, index at "
                  f"{reader.generation} (both must match, >= 2)")
    fingerprints = sorted(store.fingerprints())
    checks.expect(sorted(reader.fingerprints()) == fingerprints,
                  "PAGE SET DIVERGED between store and index")
    idf = reader.idf()
    stale = sum(
        reader.postings_for(fp) != page_postings(page_text(store.load(fp)[0]), idf)
        for fp in fingerprints
    )
    checks.expect(stale == 0, f"STALE POSTINGS: {stale}/{len(fingerprints)} pages' "
                              f"index postings differ from their current store text")
    with QAService(jobs=1, store=store_path) as service:
        manifest = read_artifact(str(out_dir / MANIFEST))
        for entry in _register(service, manifest, out_dir):
            _, got, reference = _route(service, entry["task_id"])
            diverged = [key for key in ROUTING_KEYS if got[key] != reference[key]]
            checks.expect(not diverged, f"ROUTED != EXHAUSTIVE after update for "
                                        f"{entry['task_id']}: {', '.join(diverged)}")
    return checks.report(
        "routing update",
        f"store and index at generation {reader.generation}; "
        f"{len(fingerprints)} pages' postings current; routed == exhaustive",
    )


PHASES = {"export": run_export, "serve": run_serve, "update": run_update}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="phase", required=True)
    for name, run in PHASES.items():
        phase = sub.add_parser(name, help=run.__doc__.splitlines()[0])
        phase.add_argument("--dir", type=Path, required=True)
    args = parser.parse_args(argv)
    return PHASES[args.phase](args.dir)


if __name__ == "__main__":
    sys.exit(main())
