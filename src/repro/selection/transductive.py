"""Transductive program selection (paper Section 6, Figure 11).

Given the optimal-program space from synthesis and the *unlabeled* test
pages, the selector:

1. samples an ensemble Π_E of N i.i.d. optimal programs (Eq. 5);
2. runs every ensemble member on the unlabeled pages, obtaining outputs
   O_j (Eq. 8) — the ensemble's "soft labels";
3. returns the member minimizing the summed loss against all other
   members' outputs (Eq. 11) — the consensus program.

Because programs are deterministic, the expectation over the label
distribution collapses to the mean loss against the sampled outputs
(Theorem B.1), which is exactly what is computed here.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..dsl import ast
from ..nlp.models import NlpModels
from ..synthesis.examples import TaskContexts
from ..synthesis.top import SynthesisResult
from ..webtree.node import WebPage
from .loss import weighted_output_losses

#: Default ensemble size N (paper Section 7: 1000).
DEFAULT_ENSEMBLE_SIZE = 1000


@dataclass(frozen=True)
class SelectionOutcome:
    """The consensus program plus the evidence used to choose it."""

    program: ast.Program
    loss: float
    ensemble_size: int
    distinct_outputs: int


def run_on_pages(
    program: ast.Program,
    pages: list[WebPage],
    question: str,
    keywords: tuple[str, ...],
    models: NlpModels,
    contexts: TaskContexts | None = None,
    engine: str | None = None,
) -> tuple[tuple[str, ...], ...]:
    """Evaluate a program on every page; aligned tuple of answers.

    Pass a :class:`TaskContexts` to share per-page evaluation state
    across calls (and to pin the evaluation engine); otherwise a fresh
    one is created from ``engine``.
    """
    if contexts is None:
        contexts = TaskContexts(question, tuple(keywords), models, engine=engine)
    elif (contexts.question, contexts.keywords, contexts.models) != (
        question,
        tuple(keywords),
        models,
    ):
        raise ValueError(
            "contexts was built for a different (question, keywords, models) "
            "triple than the one passed to run_on_pages"
        )
    return tuple(contexts.ctx(page).eval_program(program) for page in pages)


def consensus_select(
    outputs: "list[tuple[str, ...]]",
) -> "tuple[int, float, int]":
    """Pick the consensus member of a set of single-page answers.

    The cross-page analogue of :func:`select_program`'s Eq. 11 argmin:
    ``outputs[i]`` is one candidate page's answer tuple, and the winner
    is the answer minimizing the mean Hamming word loss against all the
    others — the answer the candidate set "votes" for.  Returns
    ``(index, mean_loss, support)`` where ``support`` counts exact
    duplicates of the winning answer.  Ties break toward larger
    support, then lexicographically smaller answer, then smaller index —
    a total order independent of input permutation, which the corpus
    router (:mod:`repro.retrieval.router`) relies on for routed ≡
    exhaustive bit-identity.

    Cost: one tokenization per distinct answer plus D(D−1)/2 word-set
    differences for D distinct answers (:func:`weighted_output_losses`).
    """
    if not outputs:
        raise ValueError("consensus_select needs at least one output")
    multiplicity: dict[tuple[str, ...], int] = {}
    for answer in outputs:
        multiplicity[answer] = multiplicity.get(answer, 0) + 1
    totals = weighted_output_losses(
        [(answer,) for answer in multiplicity], list(multiplicity.values())
    )
    losses = {
        answer: total / len(outputs)
        for answer, total in zip(multiplicity, totals)
    }
    best = min(
        multiplicity,
        key=lambda answer: (losses[answer], -multiplicity[answer], answer),
    )
    return outputs.index(best), losses[best], multiplicity[best]


def select_program(
    result: SynthesisResult,
    unlabeled_pages: list[WebPage],
    models: NlpModels,
    ensemble_size: int = DEFAULT_ENSEMBLE_SIZE,
    seed: int = 0,
    engine: str | None = None,
) -> SelectionOutcome:
    """The Select procedure of Figure 11.

    Note the N² pairwise loss of Eq. 11 collapses to comparing *distinct*
    outputs weighted by multiplicity: many sampled programs are
    observationally identical on the unlabeled pages, and grouping them
    makes selection fast without changing the argmin.  For D distinct
    outputs over P pages the loss table costs D·P tokenizations plus
    D(D−1)/2·P word-set differences (:func:`weighted_output_losses`).
    """
    if not result.spaces:
        raise ValueError("synthesis produced no optimal programs to select from")
    ensemble = result.sample_many(ensemble_size, seed=seed)
    contexts = TaskContexts(
        result.question, tuple(result.keywords), models, engine=engine
    )

    # Group ensemble members by their behaviour on the unlabeled pages.
    by_output: dict[tuple[tuple[str, ...], ...], list[ast.Program]] = {}
    for program in ensemble:
        outputs = run_on_pages(
            program, unlabeled_pages, result.question, result.keywords,
            models, contexts,
        )
        by_output.setdefault(outputs, []).append(program)

    totals = weighted_output_losses(
        list(by_output), [len(programs) for programs in by_output.values()]
    )
    best_program: ast.Program | None = None
    best_loss = float("inf")
    for programs, total in zip(by_output.values(), totals):
        mean_loss = total / len(ensemble)
        if mean_loss < best_loss:
            best_loss = mean_loss
            best_program = programs[0]
    assert best_program is not None
    return SelectionOutcome(
        program=best_program,
        loss=best_loss,
        ensemble_size=len(ensemble),
        distinct_outputs=len(by_output),
    )
