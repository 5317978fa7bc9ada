"""Run one workload of the WebQA benchmark and print its metrics.

    python3 perfbench/run.py --workload route_corpus --seed 1 --seconds 15 --trace 0

Run it from the repository root.  With ``--trace 0`` the run reports the
end-to-end metrics of ``BENCHMARK.json``; with ``--trace 1`` it measures
half the time untraced and half traced, and reports the per-layer
metrics.  Each metric is printed by name with its unit, and the last
line of standard output is one JSON object::

    {"correct": true, "attempted": 612, "failed": 0, "metrics": {...}}

A wrong answer is a failed operation; any failure makes the run exit 1.
Metric meanings and the layer -> end-to-end map are in ``LAYERS.md``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import shutil
import statistics
import sys

import common
import corpus
import fit25
import serve
import spans

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = os.path.join(ROOT, ".bench_work")

PROGRAM_MODULES = (
    "repro.core.webqa",
    "repro.experiments.common",
    "repro.retrieval.index",
    "repro.serving.corpus",
    "repro.serving.gateway",
    "repro.serving.live",
)

#: workload -> (module, extra set-up arguments)
WORKLOADS = {
    "fit25": (fit25, {}),
    "route_corpus": (corpus, {}),
    "serve_pages": (serve, {}),
    "live_corpus": (corpus, {"live": True}),
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(tracer, setup_tracer) -> dict:
    """The traced phase's per-layer figures (build times from set-up)."""
    totals = tracer.totals()
    setup_totals = setup_tracer.totals()
    counts = tracer.counts

    def calls(name):
        return totals.get(name, (0, 0.0, 0.0))[0]

    def seconds(name, table=totals):
        return table.get(name, (0, 0.0, 0.0))[1]

    def per_call(name, scale):
        return ratio(seconds(name), calls(name)) * scale

    reused = counts["synthesis.session.blocks_reused"]
    evaluated = counts["synthesis.extractors.evaluated"]
    dedup = counts["synthesis.extractors.dedup_hits"]
    waits = tracer.samples["runtime.batchq.wait_ms"]
    return {
        "synthesis.session.synthesize_s": seconds("synthesis.session.synthesize"),
        "synthesis.session.partitions": counts["synthesis.session.partitions"],
        "synthesis.session.blocks_reused_ratio": ratio(
            reused, reused + counts["synthesis.session.blocks_synthesized"]
        ),
        "synthesis.branch.self_s": totals.get("synthesis.branch", (0, 0, 0.0))[2],
        "synthesis.branch.calls": calls("synthesis.branch"),
        "synthesis.guards.s": seconds("synthesis.guards"),
        "synthesis.guards.tried": counts["synthesis.guards.tried"],
        "synthesis.extractors.s": seconds("synthesis.extractors"),
        "synthesis.extractors.evaluated": evaluated,
        "synthesis.extractors.dedup_ratio": ratio(dedup, dedup + evaluated),
        "selection.select_s": seconds("selection.select"),
        "selection.consensus_ms": per_call("selection.consensus", 1e3),
        "retrieval.router.query_us": per_call("retrieval.router.query", 1e6),
        "retrieval.index.score_ms": per_call("retrieval.index.score", 1e3),
        "retrieval.index.hit_ratio": ratio(
            counts["retrieval.index.pages_scored"],
            counts["retrieval.index.pages_live"],
        ),
        "retrieval.router.topk_us": per_call("retrieval.router.topk", 1e6),
        "retrieval.index.ensure_fresh_ms": per_call("retrieval.index.ensure_fresh", 1e3),
        "retrieval.index.update_ms": per_call("retrieval.index.update", 1e3),
        "retrieval.index.build_s": seconds("retrieval.index.build", setup_totals),
        "webtree.store.build_s": seconds("webtree.store.build", setup_totals),
        "webtree.store.publish_ms": ratio(
            seconds("webtree.store.publish"), counts["webtree.store.generations"]
        ) * 1e3,
        "webtree.store.generations": counts["webtree.store.generations"],
        "webtree.store.load_us": per_call("webtree.store.load", 1e6),
        "webtree.store.loads": calls("webtree.store.load"),
        "dsl.compile.predict_us": per_call("dsl.compile.predict", 1e6),
        "dsl.compile.predict_calls": calls("dsl.compile.predict"),
        "html.parser.parse_us": per_call("html.parser.parse", 1e6),
        "html.parser.parses": calls("html.parser.parse"),
        "serving.ingest.index_us": per_call("serving.ingest.index", 1e6),
        "serving.ingest.cache_hit_ratio": ratio(
            counts["serving.ingest.cache_hits"],
            counts["serving.ingest.cache_lookups"],
        ),
        "serving.ingest.invalidations": counts["serving.ingest.invalidations"],
        "runtime.batchq.wait_ms_p50": common.percentile(waits, 0.5),
        "runtime.batchq.wait_ms_p99": common.percentile(waits, 0.99),
        "runtime.batchq.batch_size_mean": ratio(
            counts["runtime.batchq.items"], counts["runtime.batchq.batches"]
        ),
        "serving.gateway.shed": counts["serving.gateway.shed"],
        "trace.attributed_share": tracer.attributed_share(),
    }


def run(args, spec) -> "tuple[dict, int, int, list[str], list]":
    """Set up, measure and verify; returns metrics, counts, problems, report."""
    module, extra = WORKLOADS[args.workload]
    names = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    os.makedirs(WORK, exist_ok=True)
    work = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    phases = 2 if args.trace else 1
    seconds = args.seconds / phases
    rigs = []

    def setup(index, tracer=None):
        patches = spans.install(tracer) if tracer is not None else None
        began = common.now()
        try:
            rig = module.setup(
                args.seed, os.path.join(work, f"setup{index}"), seconds, phases,
                **extra,
            )
        finally:
            if patches is not None:
                patches.undo()
        rigs.append(rig)
        return rig, common.now() - began

    try:
        if not args.trace:
            setup_s = []
            for index in range(module.SETUPS):
                if rigs:
                    module.close(rigs.pop())
                rig, elapsed = setup(index)
                setup_s.append(elapsed)
            with common.GcMonitor() as gc_phase:
                phase = module.measure(rig, seconds)
            problems = module.verify(rig, [phase])
            values = dict(module.end_to_end(rig, phase))
            values["setup_s"] = statistics.median(setup_s)
            measured = [phase]
        else:
            setup_tracer = spans.Tracer()
            rig, _ = setup(0, setup_tracer)
            with common.GcMonitor() as gc_phase:
                untraced = module.measure(rig, seconds)
            if module.FRESH_RIG_PER_PHASE:
                module.close(rigs.pop())
                rig, _ = setup(1)
            tracer = spans.Tracer()
            patches = spans.install(tracer)
            try:
                phase = module.measure(rig, seconds, tracer)
            finally:
                patches.undo()
            measured = [untraced, phase]
            problems = module.verify(rig, measured)
            values = layer_metrics(tracer, setup_tracer)
            values.update(module.per_layer(rig, untraced))
            values["latency.p95_ms"] = common.percentile(untraced.op_ms, 0.95)
            values["latency.p99_ms"] = common.percentile(untraced.op_ms, 0.99)
            values["python.gc.gen2"] = gc_phase.gen2
            values["python.gc.pause_ms"] = gc_phase.pause_s * 1e3
            values["trace.overhead_share"] = ratio(
                common.mean(phase.op_ms), common.mean(untraced.op_ms)
            )
            os.makedirs(os.path.join(WORK, "traces"), exist_ok=True)
            tracer.write(
                os.path.join(WORK, "traces", f"{args.workload}-{args.seed}.jsonl")
            )
        report = module.report(rig, measured[0]) + [
            ("python.gc.gen2", gc_phase.gen2, "count"),
            ("python.gc.pause_ms", gc_phase.pause_s * 1e3, "ms"),
        ]
    finally:
        while rigs:
            module.close(rigs.pop())
        shutil.rmtree(work, ignore_errors=True)
    counts = [module.attempted(p) for p in measured]
    attempted = sum(a for a, _ in counts)
    # Oracle problems include the operations that raised.
    failed = max(sum(f for _, f in counts), len(problems))
    if args.trace:
        # A layer a workload never enters reports 0.
        metrics = {name: values.get(name, 0.0) for name in names}
    else:
        metrics = {name: values[name] for name in names}
    return metrics, attempted, failed, problems, report


def main(argv=None) -> int:
    args = parse_args(argv)
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"error: no program sources under {ROOT}/src", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    # Import the program before anything is timed: set-up excludes imports.
    for name in PROGRAM_MODULES:
        importlib.import_module(name)
    with open(spec_path, encoding="utf-8") as f:
        spec = json.load(f)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    metrics, attempted, failed, problems, report = run(args, spec)
    for name, value, unit in report:
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    for name, value in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {units[name]}")
    for problem in problems[:20]:
        print(f"FAILED: {problem}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
