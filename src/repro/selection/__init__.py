"""Program selection via transductive learning (paper Section 6)."""

from .baselines import select_random, select_shortest
from .loss import hamming_word_distance, output_loss, weighted_output_losses
from .transductive import (
    DEFAULT_ENSEMBLE_SIZE,
    SelectionOutcome,
    run_on_pages,
    select_program,
)

__all__ = [
    "select_random",
    "select_shortest",
    "hamming_word_distance",
    "output_loss",
    "weighted_output_losses",
    "DEFAULT_ENSEMBLE_SIZE",
    "SelectionOutcome",
    "run_on_pages",
    "select_program",
]
