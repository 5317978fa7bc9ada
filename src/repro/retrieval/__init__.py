"""Corpus-scale question routing: inverted index + consensus answering.

Turns the serving stack from "answer on this page" into "answer over
this corpus": :mod:`.index` persists a memmap-backed inverted
keyword/entity index as the second payload of the corpus (published
with the store's pages by one manifest swap), and :mod:`.router`
scores questions against it — or against an exhaustive reference scan that is bit-identical by
construction — then selects among cross-page answers with the
transductive consensus rule.
"""

from .index import (
    CorpusIndexReader,
    build_corpus_index,
    open_corpus_index,
    page_postings,
    update_corpus_index,
)
from .router import (
    DEFAULT_TOP_K,
    CorpusAnswer,
    build_answer,
    cut_top_k,
    query_terms,
    scan_scores,
    select_answer,
)

__all__ = [
    "CorpusAnswer",
    "CorpusIndexReader",
    "DEFAULT_TOP_K",
    "build_answer",
    "build_corpus_index",
    "cut_top_k",
    "open_corpus_index",
    "page_postings",
    "query_terms",
    "scan_scores",
    "select_answer",
    "update_corpus_index",
]
