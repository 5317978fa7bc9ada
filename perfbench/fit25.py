"""``fit25``: fit and score WebQA on all 25 tasks, in order.

The corpus is the ``ExperimentConfig()`` default (20 pages per domain,
4 labels, ensemble 200, dataset seed 0, ``jobs=1``); ``--seed`` seeds
the ensemble that transductive selection samples.  One run is one pass
over the 25 tasks, however long it takes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from common import mean, now, percentile

SETUPS = 3
#: Each measured pass needs cold per-page caches, so a traced pass gets
#: its own set-up.
FRESH_RIG_PER_PHASE = True


@dataclass
class Rig:
    seed: int
    datasets: list


@dataclass
class Phase:
    fit_ms: "list[float]" = field(default_factory=list)
    f1: "dict[str, float]" = field(default_factory=dict)
    mismatches: "list[str]" = field(default_factory=list)
    failed: int = 0
    elapsed: float = 0.0

    @property
    def op_ms(self) -> "list[float]":
        return self.fit_ms


def setup(seed: int, workdir: str, seconds: float, phases: int) -> Rig:
    from repro.dataset.corpus import _cached_domain_corpus
    from repro.dataset.tasks import TASKS
    from repro.experiments.common import (
        ExperimentConfig,
        clear_process_caches,
        dataset_for,
    )

    # Every set-up starts as cold as the first one in a fresh process.
    clear_process_caches()
    _cached_domain_corpus.cache_clear()
    config = ExperimentConfig()
    return Rig(seed=seed, datasets=[dataset_for(task, config) for task in TASKS])


def measure(rig: Rig, seconds: float, tracer=None) -> Phase:
    from repro.core.webqa import WebQA
    from repro.experiments.common import ExperimentConfig
    from repro.metrics.scores import score_examples

    ensemble = ExperimentConfig().ensemble_size
    phase = Phase()
    started = now()
    for dataset in rig.datasets:
        task = dataset.task
        op = tracer.op("fit") if tracer else None
        begin = now()
        try:
            tool = WebQA(ensemble_size=ensemble, seed=rig.seed).fit(
                task.question,
                task.keywords,
                list(dataset.train),
                list(dataset.test_pages),
                dataset.models,
            )
        except Exception as error:  # a failed fit is a failed op, not a crash
            phase.failed += 1
            phase.mismatches.append(f"{task.task_id}: fit raised {error!r}")
            continue
        finally:
            if op is not None:
                tracer.end_op(op)
        phase.fit_ms.append((now() - begin) * 1e3)
        predictions = [tool.predict(page) for page in dataset.test_pages]
        phase.f1[task.task_id] = score_examples(
            zip(predictions, dataset.test_gold)
        ).f1
        # Oracle: the compiled plan answers exactly like the interpreter.
        for page, answer in zip(dataset.test_pages, predictions):
            if tool.predict_interpreted(page) != answer:
                phase.mismatches.append(
                    f"{task.task_id}: compiled predict != interpreted on {page.url}"
                )
    phase.elapsed = now() - started
    return phase


def verify(rig: Rig, phases: "list[Phase]") -> "list[str]":
    return [m for phase in phases for m in phase.mismatches]


def end_to_end(rig: Rig, phase: Phase) -> dict:
    fit_s = sum(phase.fit_ms) / 1e3
    return {
        "latency_p50_ms": percentile(phase.fit_ms, 0.5),
        "throughput_per_s": len(phase.fit_ms) / fit_s if fit_s else 0.0,
        "f1_mean": mean(phase.f1.values()),
    }


def report(rig: Rig, phase: Phase) -> "list[tuple[str, float, str]]":
    """Figures printed by their own names before the result line."""
    rows = [
        ("fit_s", sum(phase.fit_ms) / 1e3, "s"),
        ("f1_mean", mean(phase.f1.values()), "F1"),
    ]
    rows += [(f"f1.{task}", f1, "F1") for task, f1 in phase.f1.items()]
    return rows


def per_layer(rig: Rig, phase: Phase) -> dict:
    return {}


def attempted(phase: Phase) -> "tuple[int, int]":
    """(operations attempted, operations that raised)."""
    return len(phase.fit_ms) + phase.failed, phase.failed


def close(rig: Rig) -> None:
    rig.datasets.clear()
