"""Shared JSON-artifact persistence helpers.

Three subsystems persist JSON artifacts with the same conventions —
experiment results (:mod:`repro.experiments.persist`), micro-benchmark
medians (``python -m repro.cli bench --output``) and program artifacts
(:mod:`repro.core.artifact`).  Each used to hand-roll the identical
``json.dumps``/file plumbing; this module is the single home for it.

Conventions: UTF-8, two-space indentation, a metadata header first
(artifact kind, config, timestamp), and a trailing newline on files so
committed artifacts diff cleanly.
"""

from __future__ import annotations

import json
from typing import Any


def artifact_text(payload: dict[str, Any], sort_keys: bool = False) -> str:
    """The canonical serialized form of one JSON artifact."""
    return json.dumps(payload, indent=2, sort_keys=sort_keys, ensure_ascii=False)


def write_artifact(
    path: str, payload: dict[str, Any], sort_keys: bool = False
) -> None:
    """Write ``payload`` to ``path`` in the canonical artifact form."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(artifact_text(payload, sort_keys=sort_keys) + "\n")


def read_artifact(path: str) -> dict[str, Any]:
    """Read a JSON artifact written by :func:`write_artifact`."""
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    if not isinstance(payload, dict):
        raise ValueError(f"artifact {path!r} is not a JSON object")
    return payload


def tagged_payload(
    tag_key: str,
    tag_value: str,
    config: dict[str, Any],
    timestamp: str = "",
    **body: Any,
) -> dict[str, Any]:
    """Assemble the standard artifact shape: header first, body after.

    ``tag_key`` names the artifact family (``"experiment"``, ``"suite"``,
    …) so readers can dispatch without guessing from the body.
    """
    return {tag_key: tag_value, "config": config, "timestamp": timestamp, **body}
