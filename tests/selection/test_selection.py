"""Tests for transductive program selection (Section 6) and baselines."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dsl import ast, run_program
from repro.nlp import NlpModels
from repro.selection import (
    hamming_word_distance,
    output_loss,
    select_program,
    select_random,
    select_shortest,
    weighted_output_losses,
)
from repro.selection.transductive import consensus_select
from repro.synthesis import LabeledExample, synthesize
from repro.synthesis.top import SynthesisResult, SynthesisStats

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


def synth():
    examples = [LabeledExample(PAGE_A, GOLD_A), LabeledExample(PAGE_B, GOLD_B)]
    return synthesize(examples, QUESTION, KEYWORDS, MODELS, small_config())


class TestLoss:
    def test_identical_zero(self):
        assert hamming_word_distance(["a b"], ["b a"]) == 0

    def test_symmetric_difference(self):
        assert hamming_word_distance(["Bob Smith"], ["Bob Jones"]) == 2

    def test_case_insensitive(self):
        assert hamming_word_distance(["BOB"], ["bob"]) == 0

    def test_output_loss_sums_pages(self):
        a = [("x",), ("y",)]
        b = [("x",), ("z",)]
        assert output_loss(a, b) == 2

    def test_output_loss_alignment_check(self):
        with pytest.raises(ValueError):
            output_loss([("x",)], [])


    def test_weighted_losses_match_pairwise_output_loss(self):
        outputs = [(("a b", "c"), ("x",)), (("b",), ()), (("A", "c d"), ("x y",))]
        counts = [2, 1, 3]
        assert weighted_output_losses(outputs, counts) == [
            sum(c * output_loss(o, other) for other, c in zip(outputs, counts))
            for o in outputs
        ]

    def test_weighted_losses_alignment_check(self):
        with pytest.raises(ValueError):
            weighted_output_losses([(("x",),), ()], [1, 1])


def naive_consensus(outputs):
    """The pairwise-``output_loss`` consensus vote, re-tokenizing per pair."""
    if not outputs:
        raise ValueError("consensus_select needs at least one output")
    multiplicity = {}
    for answer in outputs:
        multiplicity[answer] = multiplicity.get(answer, 0) + 1
    losses = {}
    for answer in multiplicity:
        total = 0.0
        for other, count in multiplicity.items():
            total += count * output_loss((answer,), (other,))
        losses[answer] = total / len(outputs)
    best = min(
        multiplicity,
        key=lambda answer: (losses[answer], -multiplicity[answer], answer),
    )
    return outputs.index(best), losses[best], multiplicity[best]


#: Answer tuples over a tiny vocabulary (mixed case, shared words), so
#: pools are dense in duplicates, equal-loss ties and case-only variants.
ANSWERS = st.lists(
    st.lists(
        st.sampled_from(["Bob", "bob", "Smith", "Ann", "Lee", "PhD", "x1"]),
        min_size=0, max_size=3,
    ).map(" ".join),
    min_size=0, max_size=3,
).map(tuple)


class TestConsensusSelect:
    @given(st.lists(ANSWERS, min_size=1, max_size=5).flatmap(
        lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=16)
    ))
    @settings(max_examples=300, deadline=None)
    def test_equals_pairwise_reference(self, outputs):
        # Exact equality, float loss included: the loss table's integer
        # sums divide to the same float as the pairwise float sums.
        assert consensus_select(outputs) == naive_consensus(outputs)

    @given(st.lists(ANSWERS, min_size=1, max_size=12).flatmap(
        lambda outputs: st.tuples(st.just(outputs), st.permutations(outputs))
    ))
    @settings(max_examples=200, deadline=None)
    def test_elected_answer_is_permutation_invariant(self, pair):
        outputs, shuffled = pair
        index, loss, support = consensus_select(outputs)
        s_index, s_loss, s_support = consensus_select(list(shuffled))
        assert shuffled[s_index] == outputs[index]
        assert (s_loss, s_support) == (loss, support)

    def test_duplicates_win_by_support(self):
        outputs = [("Bob Smith",), ("Ann Lee",), ("Ann Lee",)]
        assert consensus_select(outputs) == naive_consensus(outputs) == (
            1, 4 / 3, 2
        )

    def test_all_tied_pool_breaks_lexicographically(self):
        # Pairwise-disjoint single words: every answer has loss 4/3 and
        # support 1, so the smallest answer wins.
        outputs = [("c",), ("a",), ("b",)]
        assert consensus_select(outputs) == naive_consensus(outputs) == (
            1, 4 / 3, 1
        )

    def test_single_element_pool(self):
        assert consensus_select([("only",)]) == (0, 0.0, 1)

    def test_empty_pool_raises(self):
        with pytest.raises(ValueError):
            consensus_select([])


class TestSelectProgram:
    def test_consensus_program_is_optimal_member(self):
        result = synth()
        outcome = select_program(result, [PAGE_C], MODELS, ensemble_size=50)
        assert outcome.ensemble_size == 50
        assert outcome.distinct_outputs >= 1
        assert outcome.loss >= 0.0
        # The selected program is optimal on training by construction.
        from repro.metrics import score_examples

        pairs = [
            (run_program(outcome.program, PAGE_A, QUESTION, KEYWORDS, MODELS), GOLD_A),
            (run_program(outcome.program, PAGE_B, QUESTION, KEYWORDS, MODELS), GOLD_B),
        ]
        assert abs(score_examples(pairs).f1 - result.f1) < 1e-9

    def test_deterministic_given_seed(self):
        result = synth()
        a = select_program(result, [PAGE_C], MODELS, ensemble_size=30, seed=7)
        b = select_program(result, [PAGE_C], MODELS, ensemble_size=30, seed=7)
        assert a.program == b.program

    def test_empty_result_raises(self):
        empty = SynthesisResult(
            spaces=(), f1=0.0,
            stats=SynthesisStats(0.0, 0, 0, 0),
            question=QUESTION, keywords=KEYWORDS,
        )
        with pytest.raises(ValueError):
            select_program(empty, [PAGE_C], MODELS)

    def test_no_unlabeled_pages_still_selects(self):
        result = synth()
        outcome = select_program(result, [], MODELS, ensemble_size=10)
        assert isinstance(outcome.program, ast.Program)


class TestBaselines:
    def test_random_deterministic_per_seed(self):
        result = synth()
        assert select_random(result, seed=3) == select_random(result, seed=3)

    def test_random_varies_across_seeds(self):
        result = synth()
        programs = {select_random(result, seed=s) for s in range(20)}
        assert len(programs) > 1

    def test_shortest_is_minimal_in_pool(self):
        from repro.dsl.depth import program_size

        result = synth()
        shortest = select_shortest(result, seed=0)
        pool = result.enumerate(limit=500)
        assert program_size(shortest) == min(program_size(p) for p in pool)

    def test_baselines_raise_on_empty(self):
        empty = SynthesisResult(
            spaces=(), f1=0.0,
            stats=SynthesisStats(0.0, 0, 0, 0),
        )
        with pytest.raises(ValueError):
            select_random(empty)
        with pytest.raises(ValueError):
            select_shortest(empty)
