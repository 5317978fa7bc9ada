"""Benchmark-regression gate for CI.

Compares a freshly measured micro-benchmark artifact (the output of
``python -m repro.cli bench --output``) against the committed baseline
``BENCH_synthesis_micro.json`` and fails when a guarded benchmark's
median regresses by more than the allowed ratio.  The guarded set,
threshold and comparison logic live in :mod:`repro.benchtool` (shared
with the ``repro bench`` CLI subcommand, which also measures and prints
the full delta table in one step — the CI job uses it).

A fresh artifact tagged ``suite: serving_load`` (the output of
``repro bench serve-load --output``) is routed to the serving SLO gate
in :mod:`repro.serving.loadgen` instead, against the committed
``BENCH_serving.json`` baseline.

Usage::

    python -m repro.cli bench --output fresh.json
    python benchmarks/check_regression.py fresh.json          # vs committed baseline
    python benchmarks/check_regression.py fresh.json --baseline other.json
    python benchmarks/check_regression.py fresh.json --max-regression 1.5
    python benchmarks/check_regression.py fresh_serving.json  # serving SLO gate
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_BASELINE = REPO_ROOT / "BENCH_synthesis_micro.json"
DEFAULT_SERVING_BASELINE = REPO_ROOT / "BENCH_serving.json"

sys.path.insert(0, str(REPO_ROOT / "src"))

from repro import benchtool  # noqa: E402

#: Re-exported: the guarded set and default threshold are defined once
#: in repro.benchtool.
GUARDED = benchtool.GUARDED
DEFAULT_MAX_REGRESSION = benchtool.DEFAULT_MAX_REGRESSION


def check(
    fresh: dict, baseline: dict, max_regression: float
) -> list[tuple[str, float, float, float]]:
    """Regressions beyond the threshold: (name, base_s, fresh_s, ratio)."""
    failures = []
    rows = benchtool.compare(fresh, baseline)
    # Suite-wide machine-speed estimate: uniform shifts (slower runner,
    # busy host) are normalized out before gating individual medians.
    scale = benchtool.speed_scale(rows)
    print(f"  machine-speed scale: {scale:.2f}x")
    for row in rows:
        if not row.guarded:
            continue
        if row.base_median_s is None:
            print(f"  {row.name}: no committed baseline — skipped")
            continue
        if row.fresh_median_s is None:
            # A guarded benchmark that silently vanished is itself a
            # regression: fail loudly instead of green-lighting.
            failures.append(
                (row.name, row.base_median_s, float("nan"), float("nan"))
            )
            continue
        ratio = row.ratio
        verdict = "FAIL" if row.fails(max_regression, scale) else "ok"
        print(
            f"  {row.name}: baseline {row.base_median_s * 1000:.3f}ms → "
            f"fresh {row.fresh_median_s * 1000:.3f}ms ({ratio:.2f}x) {verdict}"
        )
        if row.fails(max_regression, scale):
            failures.append(
                (row.name, row.base_median_s, row.fresh_median_s, ratio)
            )
    return failures


def check_serving(fresh: dict, baseline: "dict | None") -> int:
    """Apply the serving SLO gate (speedup floor, clean loops, p95)."""
    from repro.serving import loadgen

    print("serving load gate (see repro.serving.loadgen.check_serving):")
    print(loadgen.format_serving(fresh))
    failures = loadgen.check_serving(fresh, baseline)
    if failures:
        for failure in failures:
            print(f"REGRESSION: {failure}", file=sys.stderr)
        return 1
    print("serving load gate passed")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("fresh", type=Path, help="freshly measured artifact JSON")
    parser.add_argument(
        "--baseline",
        type=Path,
        default=None,
        help="committed baseline artifact (default: repo "
        "BENCH_synthesis_micro.json, or BENCH_serving.json for a "
        "serving_load artifact)",
    )
    parser.add_argument(
        "--max-regression",
        type=float,
        default=DEFAULT_MAX_REGRESSION,
        help=f"maximum allowed fresh/baseline median ratio "
        f"(default {DEFAULT_MAX_REGRESSION})",
    )
    args = parser.parse_args(argv)
    fresh = json.loads(args.fresh.read_text())
    if fresh.get("suite") == "serving_load":
        baseline_path = args.baseline or DEFAULT_SERVING_BASELINE
        baseline = (
            json.loads(baseline_path.read_text())
            if baseline_path.exists()
            else None
        )
        return check_serving(fresh, baseline)
    baseline = json.loads((args.baseline or DEFAULT_BASELINE).read_text())
    print(
        f"benchmark regression gate (threshold {args.max_regression:.2f}x, "
        f"baseline {args.baseline}):"
    )
    failures = check(fresh, baseline, args.max_regression)
    if failures:
        for name, base_median, fresh_median, ratio in failures:
            print(
                f"REGRESSION: {name} median {base_median:.6f}s → "
                f"{fresh_median:.6f}s ({ratio:.2f}x)",
                file=sys.stderr,
            )
        return 1
    print("benchmark regression gate passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
