"""Empirical checks of the Section 6 / Appendix B derivation.

The implementation evaluates the transductive objective by grouping
ensemble members with identical outputs (a multiplicity-weighted sum).
Theorem B.1 says this equals the naive expectation over the label
distribution — i.e. the plain mean of pairwise losses over the sampled
ensemble.  These tests verify the algebra on real synthesized ensembles.
"""

import pytest

from repro.dataset import generate_page
from repro.nlp import NlpModels
from repro.selection import output_loss, select_program
from repro.selection.transductive import run_on_pages
from repro.synthesis import LabeledExample, TaskContexts, synthesize

from tests.synthesis.conftest import (
    GOLD_A,
    GOLD_B,
    KEYWORDS,
    PAGE_A,
    PAGE_B,
    PAGE_C,
    QUESTION,
    small_config,
)

MODELS = NlpModels()


def synthesis_result():
    examples = [LabeledExample(PAGE_A, GOLD_A), LabeledExample(PAGE_B, GOLD_B)]
    return synthesize(examples, QUESTION, KEYWORDS, MODELS, small_config())


def faculty_result():
    """A fit whose ensemble behaves in several ways on three pages."""
    example = generate_page("faculty", 11)
    result = synthesize(
        [LabeledExample(example.page, example.gold["fac_t1"])],
        QUESTION, KEYWORDS, MODELS, small_config(),
    )
    return result, [generate_page("faculty", seed).page for seed in (3, 4, 5)]


def naive_select(members, pages, result):
    """Eq. 11 over the raw ensemble: every pair, first strict minimum."""
    contexts = TaskContexts(result.question, result.keywords, MODELS)
    outputs = [
        run_on_pages(m, pages, result.question, result.keywords, MODELS, contexts)
        for m in members
    ]
    best, best_loss = None, float("inf")
    for member, output in zip(members, outputs):
        loss = sum(output_loss(output, other) for other in outputs) / len(outputs)
        if loss < best_loss:
            best, best_loss = member, loss
    return best, best_loss


class FixedEnsemble:
    """A synthesis result whose sampled ensemble is a given member list."""

    def __init__(self, result, members):
        self.spaces = result.spaces
        self.question = result.question
        self.keywords = result.keywords
        self.members = list(members)

    def sample_many(self, n, seed=0):
        return list(self.members)


class TestTheoremB1:
    def test_grouped_loss_equals_naive_mean(self):
        result = synthesis_result()
        pages = [PAGE_C]
        ensemble_size = 40
        outcome = select_program(
            result, pages, MODELS, ensemble_size=ensemble_size, seed=5
        )
        # Naive Eq. 10: mean over the ensemble of L(π*; I, O_j).
        ensemble = result.sample_many(ensemble_size, seed=5)
        chosen_outputs = run_on_pages(
            outcome.program, pages, QUESTION, KEYWORDS, MODELS
        )
        naive = sum(
            output_loss(
                chosen_outputs,
                run_on_pages(member, pages, QUESTION, KEYWORDS, MODELS),
            )
            for member in ensemble
        ) / ensemble_size
        assert abs(naive - outcome.loss) < 1e-9

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_select_program_equals_naive_n_squared(self, seed):
        # Multi-page outputs with several distinct behaviours: the
        # grouped loss table must reproduce the naive N² mean and its
        # first-strict-minimum member bit for bit.
        result, pages = faculty_result()
        outcome = select_program(result, pages, MODELS, ensemble_size=60, seed=seed)
        program, loss = naive_select(
            result.sample_many(60, seed=seed), pages, result
        )
        assert (outcome.program, outcome.loss) == (program, loss)

    def test_select_program_ties_match_naive_n_squared(self):
        # One program per distinct output, at equal multiplicity: two
        # outputs are always tied, and the earliest member must win.
        result, pages = faculty_result()
        contexts = TaskContexts(result.question, result.keywords, MODELS)
        by_output = {}
        for program in result.enumerate(limit=400):
            by_output.setdefault(
                run_on_pages(program, pages, result.question,
                             result.keywords, MODELS, contexts),
                program,
            )
        distinct = list(by_output.values())
        assert len(distinct) >= 3
        pair = distinct[-2:]
        for members in (
            [pair[1], pair[0], pair[0], pair[1]],
            distinct + distinct[::-1],
        ):
            fixed = FixedEnsemble(result, members)
            outcome = select_program(fixed, pages, MODELS)
            program, loss = naive_select(members, pages, result)
            assert (outcome.program, outcome.loss) == (program, loss)
        assert outcome.distinct_outputs == len(distinct)
        tied = select_program(FixedEnsemble(result, [pair[1], pair[0]]), pages, MODELS)
        assert tied.program == pair[1]

    def test_chosen_program_minimizes_objective(self):
        result = synthesis_result()
        pages = [PAGE_C]
        ensemble_size = 30
        outcome = select_program(
            result, pages, MODELS, ensemble_size=ensemble_size, seed=2
        )
        ensemble = result.sample_many(ensemble_size, seed=2)
        member_outputs = [
            run_on_pages(m, pages, QUESTION, KEYWORDS, MODELS) for m in ensemble
        ]

        def objective(outputs) -> float:
            return sum(output_loss(outputs, o) for o in member_outputs) / len(
                member_outputs
            )

        best = min(objective(o) for o in member_outputs)
        assert abs(objective(
            run_on_pages(outcome.program, pages, QUESTION, KEYWORDS, MODELS)
        ) - best) < 1e-9

    def test_degenerate_ensemble_loss_zero(self):
        # If every sampled program behaves identically on the unlabeled
        # pages, the consensus loss is exactly zero.
        result = synthesis_result()
        outcome = select_program(result, [], MODELS, ensemble_size=10, seed=0)
        assert outcome.loss == 0.0
        assert outcome.distinct_outputs == 1
