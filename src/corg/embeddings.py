"""Word-vector table with cosine similarity and an out-of-vocabulary policy.

File format: optional header line ``<count> <dim>``, then one
``word v1 ... v_dim`` entry per line (the layout used by common
pre-computed embedding releases).  ``.gz`` paths are read transparently.
Lookup keys are lowercase.
"""

from __future__ import annotations

import gzip
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DimensionMismatch, WordNotFound

_CAMEL_BOUNDARY = re.compile(r"(?<=[a-z0-9])(?=[A-Z])|(?<=[A-Z])(?=[A-Z][a-z])")


@dataclass
class OovPolicy:
    """What to do when a token has no stored vector.

    ``split_average`` breaks the token at underscores and camelCase
    boundaries (``annoy_your_spouse`` -> annoy/your/spouse,
    ``astronomicalBody`` -> astronomical/body) and averages the vectors of
    the parts that are in vocabulary; when no part is known it falls
    through to ``fallback``.  Mode ``zero`` returns an all-zero vector
    immediately, mode ``error`` raises WordNotFound.
    """

    mode: str = "split_average"
    fallback: str = "zero"

    def __post_init__(self):
        if self.mode not in ("split_average", "zero", "error"):
            raise ValueError(f"unknown OOV mode {self.mode!r}")
        if self.fallback not in ("zero", "error"):
            raise ValueError(f"unknown OOV fallback {self.fallback!r}")


def split_identifier(token: str) -> list[str]:
    """Lowercased word parts of an identifier, split at ``_`` and camelCase."""
    parts = []
    for chunk in token.split("_"):
        for part in _CAMEL_BOUNDARY.sub("_", chunk).split("_"):
            if part:
                parts.append(part.lower())
    return parts


@dataclass
class EmbeddingTable:
    """Immutable-after-load map from lowercase words to fixed-size vectors."""

    dimension: int
    entries: dict[str, np.ndarray] = field(default_factory=dict)
    duplicates: int = 0

    def __len__(self) -> int:
        return len(self.entries)

    def __contains__(self, word: str) -> bool:
        return word.lower() in self.entries

    def get(self, word: str) -> np.ndarray | None:
        """Direct lookup, no OOV handling."""
        return self.entries.get(word.lower())

    def vector(self, token: str, policy: OovPolicy | None = None) -> np.ndarray:
        """Vector for a token under the given OOV policy.

        Returns the stored array (treat it as read-only).  An all-zero
        result is the flag for a miss under the ``zero`` fallback.
        """
        policy = policy or OovPolicy()
        hit = self.entries.get(token.lower())
        if hit is not None:
            return hit
        if policy.mode == "split_average":
            found = [self.entries[p] for p in split_identifier(token) if p in self.entries]
            if found:
                return np.mean(found, axis=0)
            if policy.fallback == "zero":
                return np.zeros(self.dimension)
            raise WordNotFound(f"no vector for {token!r} or any of its parts")
        if policy.mode == "zero":
            return np.zeros(self.dimension)
        raise WordNotFound(f"no vector for {token!r}")


def load_table(path) -> EmbeddingTable:
    """Load a vector table; duplicate words are counted and the last wins."""
    path = Path(path)
    opener = gzip.open if path.suffix == ".gz" else open
    entries: dict[str, np.ndarray] = {}
    duplicates = 0
    dimension: int | None = None
    with opener(path, "rt", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            fields = line.split()
            if not fields:
                continue
            if line_no == 1 and len(fields) == 2 and all(_is_int(f) for f in fields):
                dimension = int(fields[1])
                continue
            word = fields[0].lower()
            try:
                vec = np.array(fields[1:], dtype=np.float64)
            except ValueError as e:
                raise DimensionMismatch(f"line {line_no}: bad float ({e})") from e
            if dimension is None:
                dimension = len(vec)
            if len(vec) != dimension:
                raise DimensionMismatch(
                    f"line {line_no}: expected {dimension} components, got {len(vec)}")
            if word in entries:
                duplicates += 1
            entries[word] = vec
    if dimension is None:
        raise DimensionMismatch("empty embedding file")
    return EmbeddingTable(dimension, entries, duplicates)


def _is_int(s: str) -> bool:
    try:
        int(s)
        return True
    except ValueError:
        return False


def cosine(u: np.ndarray, v: np.ndarray) -> float:
    """Cosine similarity in [-1, 1]; 0 whenever either vector has zero norm."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape:
        raise DimensionMismatch(f"cosine of shapes {u.shape} and {v.shape}")
    nu = np.linalg.norm(u)
    nv = np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        return 0.0
    return float(min(1.0, max(-1.0, float(np.dot(u, v)) / (nu * nv))))
