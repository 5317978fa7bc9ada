"""Persist experiment results as JSON artifacts.

Experiment runs are minutes-long; persisting their raw results lets you
re-render tables, compare runs across code changes, and archive the
numbers EXPERIMENTS.md quotes.  Artifacts are plain JSON with a small
metadata header (experiment name, corpus scale, timestamp supplied by
the caller).

The generic artifact plumbing (canonical text form, header shape, file
IO) lives in :mod:`repro.persist`, shared with the micro-benchmark
artifact (``python -m repro.cli bench --output``) and the
program-artifact layer; this module only contributes the
experiment-specific row encodings.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from typing import Any

from ..core.results import TaskResult
from ..metrics.scores import Score
from ..persist import artifact_text, tagged_payload
from .common import ExperimentConfig


def _config_dict(config: ExperimentConfig) -> dict[str, Any]:
    return {
        "n_pages": config.n_pages,
        "n_train": config.n_train,
        "ensemble_size": config.ensemble_size,
        "seed": config.seed,
        "use_label_suggestions": config.use_label_suggestions,
    }


def results_to_json(
    experiment: str,
    results: list[TaskResult],
    config: ExperimentConfig,
    timestamp: str = "",
) -> str:
    """Serialize comparison-style results (fig12/table2/table6)."""
    payload = tagged_payload(
        "experiment",
        experiment,
        config=_config_dict(config),
        timestamp=timestamp,
        results=[
            {
                "task_id": r.task_id,
                "domain": r.domain,
                "tool": r.tool,
                "precision": r.score.precision,
                "recall": r.score.recall,
                "f1": r.score.f1,
                "seconds": r.seconds,
            }
            for r in results
        ],
    )
    return artifact_text(payload)


def results_from_json(text: str) -> tuple[str, list[TaskResult]]:
    """Inverse of :func:`results_to_json`; returns (experiment, results)."""
    payload = json.loads(text)
    results = [
        TaskResult(
            task_id=entry["task_id"],
            domain=entry["domain"],
            tool=entry["tool"],
            score=Score(entry["precision"], entry["recall"], entry["f1"]),
            seconds=entry.get("seconds", 0.0),
        )
        for entry in payload["results"]
    ]
    return payload["experiment"], results


def series_to_json(
    experiment: str,
    xs: list[Any],
    series: dict[str, list[float]],
    config: ExperimentConfig,
    timestamp: str = "",
) -> str:
    """Serialize figure-style results (fig13/fig14/noise series)."""
    return artifact_text(
        tagged_payload(
            "experiment",
            experiment,
            config=_config_dict(config),
            timestamp=timestamp,
            xs=list(xs),
            series={name: list(values) for name, values in series.items()},
        )
    )


def series_from_json(text: str) -> tuple[str, list[Any], dict[str, list[float]]]:
    """Inverse of :func:`series_to_json`."""
    payload = json.loads(text)
    return payload["experiment"], payload["xs"], payload["series"]


def rows_to_json(
    experiment: str, rows: list[Any], config: ExperimentConfig, timestamp: str = ""
) -> str:
    """Serialize dataclass-row results (table3/table4 ablation rows)."""
    return artifact_text(
        tagged_payload(
            "experiment",
            experiment,
            config=_config_dict(config),
            timestamp=timestamp,
            rows=[asdict(row) for row in rows],
        )
    )
