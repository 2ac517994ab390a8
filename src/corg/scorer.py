"""Deterministic premise/alternative scoring over mean word embeddings.

Each symbol sequence is embedded as the componentwise mean of its word
vectors, read through ``EmbeddingTable.vectors``; a premise/answer pair
is scored by cosine; per-problem scores go through a softmax into
likelihoods summing to 1; the highest likelihood wins (ties break to the
lowest index and are flagged).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .embeddings import EmbeddingTable, cosine
from .errors import BadCardinality


@dataclass
class ScoreVector:
    """Per-alternative likelihoods; components in [0,1] summing to 1."""

    y: list[float]

    def __post_init__(self):
        if abs(sum(self.y) - 1.0) > 1e-9:
            raise ValueError(f"likelihoods sum to {sum(self.y)}, not 1")

    def __iter__(self):
        return iter(self.y)

    def __len__(self):
        return len(self.y)

    def __getitem__(self, i: int) -> float:
        return self.y[i]


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


def likelihoods(scores: Sequence[float]) -> ScoreVector:
    """Softmax over raw scores; order-preserving."""
    if len(scores) < 2:
        raise BadCardinality(f"need at least 2 alternatives, got {len(scores)}")
    s = np.asarray(scores, dtype=np.float64)
    e = np.exp(s - s.max())
    return ScoreVector((e / e.sum()).tolist())


def choose(y: ScoreVector | Sequence[float]) -> Choice:
    """Pick the highest likelihood; exact ties go to the lowest index."""
    values = list(y)
    best = max(values)
    return Choice(values.index(best) + 1, values.count(best) > 1)
