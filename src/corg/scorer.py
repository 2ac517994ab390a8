"""Deterministic premise/alternative scoring over mean word embeddings.

Each text's symbols are embedded once, as the componentwise mean of their
word vectors, read through ``EmbeddingTable.vectors``; each alternative's
embedding is scored against the premise's by clipped cosine; per-problem
scores go through a softmax into a plain list of likelihoods; the highest
likelihood wins (ties break to the lowest index and are flagged).
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np

from .embeddings import EmbeddingTable
from .errors import BadCardinality, DimensionMismatch


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


def score_pair(premise: np.ndarray, answer: np.ndarray) -> float:
    """Cosine of two embeddings, clipped to [-1, 1]; 0 whenever either has
    zero norm.  Embeddings of different shapes raise DimensionMismatch."""
    u = np.asarray(premise, dtype=np.float64)
    v = np.asarray(answer, dtype=np.float64)
    if u.shape != v.shape:
        raise DimensionMismatch(f"cosine of shapes {u.shape} and {v.shape}")
    nu, nv = np.linalg.norm(u), np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        return 0.0
    return float(min(1.0, max(-1.0, float(np.dot(u, v)) / (nu * nv))))


def likelihoods(scores: Sequence[float]) -> list[float]:
    """Softmax over raw scores; order-preserving.  The exponentials' sum is
    ``math.fsum``'s, so permuting the scores permutes the result bit for bit."""
    if len(scores) < 2:
        raise BadCardinality(f"need at least 2 alternatives, got {len(scores)}")
    s = np.asarray(scores, dtype=np.float64)
    e = np.exp(s - s.max())
    return (e / math.fsum(e.tolist())).tolist()


def choose(y: Sequence[float]) -> Choice:
    """Pick the highest likelihood; exact ties go to the lowest index."""
    values = list(y)
    best = max(values)
    return Choice(values.index(best) + 1, values.count(best) > 1)
