"""Loss functions for transductive program selection (paper Section 7).

The paper instantiates the selection objective with the Hamming distance
between the *sets of words* extracted by two programs on the same inputs:
``L(π; I, O) = Hamming(π(I), O)``.

Both selectors — Eq. 11 over an ensemble's outputs and the corpus
router's consensus vote — compare every distinct output with every
other, so they share :func:`weighted_output_losses`, which tokenizes each
distinct answer once per page instead of once per pair.
"""

from __future__ import annotations

from typing import Sequence

from ..nlp.tokenize import word_set


def hamming_word_distance(answer_a: Sequence[str], answer_b: Sequence[str]) -> int:
    """Symmetric difference size between the word sets of two answers.

    >>> hamming_word_distance(["Bob Smith"], ["Bob Jones"])
    2
    >>> hamming_word_distance(["a b"], ["b a"])
    0
    """
    set_a = word_set(" ".join(answer_a))
    set_b = word_set(" ".join(answer_b))
    return len(set_a ^ set_b)


def output_loss(
    outputs_a: Sequence[Sequence[str]], outputs_b: Sequence[Sequence[str]]
) -> int:
    """Total Hamming word distance across aligned per-page outputs.

    This is ``L(π; I, O_j)`` with I implicit in the alignment: element i
    of each argument is the output on unlabeled page i.
    """
    if len(outputs_a) != len(outputs_b):
        raise ValueError("output sequences must align page-for-page")
    return sum(
        hamming_word_distance(a, b) for a, b in zip(outputs_a, outputs_b)
    )


def weighted_output_losses(
    outputs: Sequence[Sequence[Sequence[str]]], counts: Sequence[int]
) -> list[int]:
    """Each distinct output's multiplicity-weighted total loss.

    ``outputs[i]`` is one distinct output (its per-page answers, aligned
    as in :func:`output_loss`) occurring ``counts[i]`` times; entry ``i``
    of the result is ``sum(counts[j] * output_loss(outputs[i],
    outputs[j]) for j)``.  Each (output, page) word set is built once,
    and each unordered pair's distance is computed once and credited to
    both sides, since the loss is symmetric: D distinct outputs over P
    pages cost D·P tokenizations plus D(D−1)/2·P set differences.  The
    sums are exact integers, so callers dividing them get the same
    floats as a pairwise :func:`output_loss` loop.

    >>> weighted_output_losses([[("Bob Smith",)], [("Bob Jones",)]], [3, 1])
    [2, 6]
    """
    if len({len(output) for output in outputs}) > 1:
        raise ValueError("output sequences must align page-for-page")
    sets = [
        [word_set(" ".join(answer)) for answer in output] for output in outputs
    ]
    totals = [0] * len(sets)
    for i, sets_i in enumerate(sets):
        for j in range(i + 1, len(sets)):
            distance = sum(len(a ^ b) for a, b in zip(sets_i, sets[j]))
            totals[i] += counts[j] * distance
            totals[j] += counts[i] * distance
    return totals
