"""Shared benchmark-artifact tooling.

One home for the machinery behind ``python -m repro.cli bench``:
measure (or load, ``--fresh``) a fresh artifact, print a per-benchmark
delta table against a baseline, and exit non-zero when a guarded
benchmark regressed (what the CI ``bench-regression`` job runs, and the
local one-liner for checking a perf change before pushing);
``--output BENCH_synthesis_micro.json`` rewrites the committed artifact.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from .persist import tagged_payload, write_artifact

#: Benchmarks whose median gates CI.  They are the headline perf
#: invariants: branch synthesis and the frontier guard sweep (the
#: synthesis engine), cold indexed locator evaluation (the eval engine),
#: whole-pipeline synthesis warm + cold (the full Figure 7 stack), the
#: QAService warm batch path (the serving stack), the vectorized HTML
#: tokenizer and store-backed cold serving (the ingest stack).  All
#: guarded benches run enough rounds (>=7, most 15) that the gated
#: median shrugs off single outlier rounds on shared CI runners.
GUARDED = (
    "test_bench_branch_synthesis",
    "test_bench_frontier_guard_sweep",
    "test_bench_eval_locator_cold",
    "test_bench_full_synthesis",
    "test_bench_full_synthesis_cold",
    "test_bench_serve_warm_batch",
    "test_bench_serve_faulty_batch",
    "test_bench_parse_html_vectorized",
    "test_bench_serve_cold_store",
    "test_bench_live_update",
    "test_bench_route_topk",
)

#: A guarded median may grow at most this factor over the baseline,
#: after machine-speed normalization (see :func:`speed_scale`).
#: Cross-machine absolute times are noisy, so the threshold is
#: deliberately loose and guards *relative catastrophes* (a disabled
#: cache, a quadratic loop), not scheduling jitter.
DEFAULT_MAX_REGRESSION = 1.25

#: Minimum shared benchmarks needed to estimate machine speed; a
#: ``--filter`` subset below this gates on raw ratios instead.
SPEED_SCALE_MIN_SAMPLES = 8

#: Machine-speed estimates outside this band are rejected (scale 1.0):
#: a whole suite uniformly >2x slower is more plausibly a real global
#: regression than a 2x-slower runner, so it must fail loudly rather
#: than be normalized away.
SPEED_SCALE_BAND = (0.5, 2.0)

#: Per-benchmark regression bounds overriding DEFAULT_MAX_REGRESSION.
#: test_bench_serve_cold_store has a sub-millisecond median dominated by
#: raw allocation throughput (tens of thousands of node objects per
#: round), which on shared runners lands in visibly bimodal fast/slow
#: host states that suite-median normalization cannot cancel (the rest
#: of the suite is compute-, not allocation-, bound).  2.0x still trips
#: on losing the store path itself: falling back to parsing is a >3x
#: jump by construction.
MAX_REGRESSION_OVERRIDES = {
    "test_bench_serve_cold_store": 2.0,
}

#: (fast, slow) benchmark pairs whose ratio is reported as a speedup.
SPEEDUP_PAIRS = (
    ("test_bench_eval_locator", "test_bench_eval_locator_reference"),
    ("test_bench_eval_locator_cold", "test_bench_eval_locator_reference"),
    ("test_bench_full_synthesis", "test_bench_full_synthesis_reference"),
    ("test_bench_full_synthesis_cold", "test_bench_full_synthesis_reference"),
    # Session reuse: warm refit (add one example to a fitted session) and
    # no-change re-synthesis, both against a fresh full synthesis of the
    # same final example set.
    ("test_bench_session_refit_warm", "test_bench_session_refit_fresh"),
    ("test_bench_session_resynthesize", "test_bench_session_refit_fresh"),
    # Live update: feed a changed unlabeled page through the full
    # publish→invalidate→refit→swap path vs a fresh full synthesis of
    # the same (unchanged) example set.
    ("test_bench_live_update", "test_bench_session_refit_fresh"),
    # Vectorized planes: batched keyword scoring of a whole page vs the
    # per-text scalar loop, both from cold matcher caches.
    (
        "test_bench_keyword_similarity_batch_cold",
        "test_bench_keyword_similarity_scalar_cold",
    ),
    # Frontier search: whole-family evaluation vs the per-candidate
    # scalar schedule (same results by construction).
    ("test_bench_branch_synthesis", "test_bench_branch_synthesis_sequential"),
    # Serving: thread fan-out vs sequential compiled predict.
    ("test_bench_predict_batch", "test_bench_predict"),
    # Artifact serving: the QAService warm batch path vs bare
    # predict_batch on the same pages — the *service tax* ratio — and
    # the warm cache vs cold-ingest win.
    ("test_bench_serve_warm_batch", "test_bench_predict_batch"),
    ("test_bench_serve_warm_batch", "test_bench_serve_cold"),
    # Fault tolerance: the *isolation tax* — the strict fast path vs the
    # per-request isolation path (structured results, retry accounting)
    # on the same warm pages.  Expected ≈1.0x.
    ("test_bench_serve_warm_batch", "test_bench_serve_warm_batch_nonstrict"),
    # Streaming tokenizer: the vectorized single-pass scanner vs the
    # stdlib HTMLParser event path over the same dataset pages (>=2x;
    # identical trees by construction, pinned differentially in tests).
    ("test_bench_parse_html_vectorized", "test_bench_parse_html_stdlib"),
    # Columnar corpus store: cold serving rehydrating memmapped index
    # planes vs cold serving parsing raw HTML (>=3x).
    ("test_bench_serve_cold_store", "test_bench_serve_cold"),
    # Corpus routing: inverted-index top-k question routing vs the
    # exhaustive per-page scan over the same >=2k-page store, at
    # bit-identical answers and provenance (>=10x; sublinear vs O(n)).
    ("test_bench_route_topk", "test_bench_route_exhaustive"),
)

#: Path fragments that locate the micro-benchmark suite from a repo root.
MICRO_BENCH = Path("benchmarks") / "test_bench_synthesis_micro.py"


def find_repo_root(start: Path | None = None) -> Path:
    """Walk up from ``start`` (default cwd) to the repo root.

    The root is recognized by the presence of the micro-benchmark file;
    raises ``FileNotFoundError`` when no ancestor qualifies (the bench
    tooling only makes sense inside a source checkout).
    """
    current = (start or Path.cwd()).resolve()
    for candidate in (current, *current.parents):
        if (candidate / MICRO_BENCH).is_file():
            return candidate
    raise FileNotFoundError(
        f"no repo root with {MICRO_BENCH} above {current}; "
        "run from inside the repository"
    )


def _pytest_env(repo_root: Path) -> dict:
    src = str(repo_root / "src")
    inherited = os.environ.get("PYTHONPATH")
    return {
        **os.environ,
        "PYTHONPATH": f"{src}{os.pathsep}{inherited}" if inherited else src,
    }


def run_benchmarks(
    raw_json: Path,
    repo_root: Path | None = None,
    filter_expr: str | None = None,
) -> None:
    """Run the micro-benchmark suite, writing pytest-benchmark JSON.

    ``filter_expr`` is a pytest ``-k`` expression restricting which
    benchmarks run (the CI chaos job measures only the serving subset).
    """
    repo_root = repo_root or find_repo_root()
    command = [
        sys.executable,
        "-m",
        "pytest",
        str(repo_root / MICRO_BENCH),
        "-q",
        f"--benchmark-json={raw_json}",
        # GC pauses land on random rounds and swamp the short medians
        # (a single gen-2 pass costs more than a whole store-backed
        # serve round); collecting between rounds instead keeps the
        # guarded medians deterministic enough to gate on.
        "--benchmark-disable-gc",
    ]
    if filter_expr:
        command += ["-k", filter_expr]
    result = subprocess.run(command, cwd=repo_root, env=_pytest_env(repo_root))
    if result.returncode != 0:
        raise SystemExit(f"benchmark run failed with exit code {result.returncode}")


def run_smoke(repo_root: Path | None = None) -> int:
    """One-round smoke run of the non-micro benchmark files.

    The CI ``benchmarks`` job's sanity pass: every experiment-scale
    benchmark must still execute, with warmup off and a single round so
    the job stays fast.  Returns the pytest exit code.
    """
    repo_root = repo_root or find_repo_root()
    command = [
        sys.executable,
        "-m",
        "pytest",
        str(repo_root / "benchmarks"),
        "-q",
        f"--ignore={repo_root / MICRO_BENCH}",
        "--benchmark-warmup=off",
        "--benchmark-min-rounds=1",
    ]
    return subprocess.run(
        command, cwd=repo_root, env=_pytest_env(repo_root)
    ).returncode


def summarize(raw: dict) -> dict:
    """Distill pytest-benchmark JSON into the committed artifact shape."""
    timings = {}
    for bench in raw.get("benchmarks", []):
        stats = bench["stats"]
        timings[bench["name"]] = {
            "median_s": stats["median"],
            "mean_s": stats["mean"],
            "stddev_s": stats["stddev"],
            "rounds": stats["rounds"],
        }
    speedups = {}
    for fast, slow in SPEEDUP_PAIRS:
        if fast in timings and slow in timings and timings[fast]["median_s"] > 0:
            speedups[f"{slow}/{fast}"] = round(
                timings[slow]["median_s"] / timings[fast]["median_s"], 2
            )
    return tagged_payload(
        "suite",
        "synthesis_micro",
        config={
            key: raw.get("machine_info", {}).get(key)
            for key in ("node", "processor", "python_version")
        },
        timestamp=raw.get("datetime", ""),
        benchmarks=timings,
        median_speedups=speedups,
    )


def measure(
    output: Path | None = None,
    repo_root: Path | None = None,
    filter_expr: str | None = None,
) -> dict:
    """Run the micro suite and return (and optionally write) the artifact."""
    with tempfile.TemporaryDirectory() as tmp:
        raw_json = Path(tmp) / "raw.json"
        run_benchmarks(raw_json, repo_root, filter_expr=filter_expr)
        raw = json.loads(raw_json.read_text())
    artifact = summarize(raw)
    if output is not None:
        write_artifact(str(output), artifact, sort_keys=True)
    return artifact


@dataclass(frozen=True)
class CompareRow:
    """One benchmark's baseline-vs-fresh comparison."""

    name: str
    base_median_s: float | None
    fresh_median_s: float | None
    guarded: bool

    @property
    def ratio(self) -> float | None:
        if self.base_median_s is None or self.fresh_median_s is None:
            return None
        if self.base_median_s <= 0:
            # A zero/negative baseline median can't be divided by; treat
            # any measurable fresh time as an infinite regression so the
            # gate fails loudly instead of passing on corrupt data.
            return float("inf") if self.fresh_median_s > 0 else 1.0
        return self.fresh_median_s / self.base_median_s

    def verdict(self, max_regression: float, scale: float = 1.0) -> str:
        if self.base_median_s is None:
            return "new"
        if self.fresh_median_s is None:
            return "MISSING" if self.guarded else "missing"
        if not self.guarded:
            return ""
        return "FAIL" if self.fails(max_regression, scale) else "ok"

    def fails(self, max_regression: float, scale: float = 1.0) -> bool:
        """True when this row blocks the gate (guarded rows only).

        ``scale`` is the suite-wide machine-speed estimate from
        :func:`speed_scale`; the gate bounds the *normalized* ratio, so
        a uniformly slower runner doesn't fail every guarded benchmark
        at once.
        """
        if not self.guarded:
            return False
        if self.base_median_s is None:
            return False  # no committed baseline yet: tracked, not gated
        if self.fresh_median_s is None:
            return True  # a guarded benchmark that vanished is a failure
        ratio = self.ratio
        bound = MAX_REGRESSION_OVERRIDES.get(self.name, max_regression)
        return ratio is not None and ratio / scale > bound


def speed_scale(rows: "Sequence[CompareRow]") -> float:
    """Suite-wide machine-speed estimate: the median fresh/base ratio.

    A committed baseline records absolute medians from one machine and
    one weather; a fresh run on a slower runner (or a busy host) shifts
    *every* benchmark by roughly the same factor.  That shift is machine
    speed, not regression — the gate divides each guarded ratio by this
    estimate so it measures a benchmark's movement *relative to the rest
    of the suite*.  The median over all compared benchmarks is robust to
    a handful of genuinely regressed (or improved) entries.

    Returns 1.0 (no normalization) when fewer than
    :data:`SPEED_SCALE_MIN_SAMPLES` ratios are available — a filtered
    subset can't distinguish its own regressions from machine speed —
    or when the estimate falls outside :data:`SPEED_SCALE_BAND`.
    """
    ratios = sorted(
        row.ratio
        for row in rows
        if row.ratio is not None and row.ratio != float("inf")
    )
    if len(ratios) < SPEED_SCALE_MIN_SAMPLES:
        return 1.0
    middle = len(ratios) // 2
    estimate = (
        ratios[middle]
        if len(ratios) % 2
        else (ratios[middle - 1] + ratios[middle]) / 2
    )
    low, high = SPEED_SCALE_BAND
    if not low <= estimate <= high:
        return 1.0
    return estimate


def compare(
    fresh: dict,
    baseline: dict,
    guarded: Sequence[str] = GUARDED,
) -> list[CompareRow]:
    """Per-benchmark comparison rows over the union of both artifacts."""
    fresh_benchmarks = fresh.get("benchmarks", {})
    base_benchmarks = baseline.get("benchmarks", {})
    names = list(
        dict.fromkeys([*base_benchmarks.keys(), *fresh_benchmarks.keys()])
    )
    guarded_set = set(guarded)
    rows = []
    for name in sorted(names):
        base_entry = base_benchmarks.get(name)
        fresh_entry = fresh_benchmarks.get(name)
        rows.append(
            CompareRow(
                name=name,
                base_median_s=(
                    base_entry["median_s"] if base_entry is not None else None
                ),
                fresh_median_s=(
                    fresh_entry["median_s"] if fresh_entry is not None else None
                ),
                guarded=name in guarded_set,
            )
        )
    return rows


def format_compare(
    rows: Sequence[CompareRow],
    max_regression: float = DEFAULT_MAX_REGRESSION,
    scale: float = 1.0,
) -> str:
    """The human-readable delta table of ``compare`` rows."""

    def ms(value: float | None) -> str:
        return f"{value * 1000:10.3f}" if value is not None else "         —"

    lines = [
        f"{'benchmark':44s} {'base ms':>10s} {'fresh ms':>10s} "
        f"{'ratio':>7s}  gate"
    ]
    for row in rows:
        ratio = row.ratio
        ratio_text = f"{ratio:7.2f}" if ratio is not None else "      —"
        marker = "*" if row.guarded else " "
        lines.append(
            f"{row.name:44s} {ms(row.base_median_s)} "
            f"{ms(row.fresh_median_s)} {ratio_text}  "
            f"{marker}{row.verdict(max_regression, scale)}"
        )
    lines.append(
        f"(machine-speed scale {scale:.2f}x; * guarded: normalized "
        f"median may grow at most {max_regression:.2f}x over the baseline, "
        "subject to MAX_REGRESSION_OVERRIDES)"
    )
    return "\n".join(lines)
