"""Deterministic premise/alternative scoring over mean word embeddings.

Each symbol sequence is embedded as the componentwise mean of its word
vectors, read through ``EmbeddingTable.vectors``; a premise/answer pair
is scored by cosine; per-problem scores go through a softmax into a plain
list of likelihoods; the highest likelihood wins (ties break to the
lowest index and are flagged).
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from .embeddings import EmbeddingTable, cosine
from .errors import BadCardinality


class Choice(NamedTuple):
    """1-based index of the winning alternative, with a tie flag."""

    index: int
    tie: bool


def embed_sequence(words: Sequence[str], table: EmbeddingTable) -> np.ndarray:
    """Componentwise mean of the words' rows of ``EmbeddingTable.vectors``.

    An empty or all-OOV sequence embeds as the zero vector, which is the
    flag downstream scoring treats as "no signal".
    """
    if not words:
        return np.zeros(table.dimension)
    return table.vectors(words).mean(axis=0)


def score_pair(premise_words: Sequence[str], answer_words: Sequence[str],
               table: EmbeddingTable) -> float:
    """Cosine between the two mean embeddings; 0 when either side is empty."""
    return cosine(embed_sequence(premise_words, table),
                  embed_sequence(answer_words, table))


def likelihoods(scores: Sequence[float]) -> list[float]:
    """Softmax over raw scores; order-preserving."""
    if len(scores) < 2:
        raise BadCardinality(f"need at least 2 alternatives, got {len(scores)}")
    s = np.asarray(scores, dtype=np.float64)
    e = np.exp(s - s.max())
    return (e / e.sum()).tolist()


def choose(y: Sequence[float]) -> Choice:
    """Pick the highest likelihood; exact ties go to the lowest index."""
    values = list(y)
    best = max(values)
    return Choice(values.index(best) + 1, values.count(best) > 1)
