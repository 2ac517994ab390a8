"""Word-vector table with cosine similarity.

File format: optional header line ``<count> <dim>``, then one
``word v1 ... v_dim`` entry per line (the layout used by common
pre-computed embedding releases).  ``.gz`` paths are read transparently.
Lookup keys are lowercase.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, MalformedLine
from .kg import _CAMEL_BOUNDARY, _is_utf8, _open_text


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

    def vector(self, token: str) -> np.ndarray:
        """The token's stored vector, else the mean of the vectors of its
        in-vocabulary ``split_identifier`` parts (``annoy_your_spouse`` ->
        annoy/your/spouse, ``astronomicalBody`` -> astronomical/body), else
        zeros, the flag for a miss.

        Returns the stored array on a hit (treat it as read-only).
        """
        hit = self.entries.get(token.lower())
        if hit is not None:
            return hit
        found = [self.entries[p] for p in split_identifier(token) if p in self.entries]
        return np.mean(found, axis=0) if found else np.zeros(self.dimension)


def load_table(path) -> EmbeddingTable:
    """Load a vector table; duplicate words are counted and the last wins.

    A bad line raises a CorgError naming it and the file, as does a file with
    no vector line; a ``.gz`` that does not decompress raises CorruptArchive."""
    entries: dict[str, np.ndarray] = {}
    unchecked: list[tuple[int, np.ndarray]] = []  # (line, vector) not yet checked finite
    duplicates = 0
    dimension: int | None = None
    for line_no, line in enumerate(_open_text(path), start=1):
        if not line.isascii() and not _is_utf8(line):
            raise MalformedLine(line_no, f"not valid UTF-8 ({path})")
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
            raise DimensionMismatch(f"line {line_no}: bad float, {e} ({path})") from e
        if dimension is None:
            dimension = len(vec)
        if len(vec) != dimension:
            raise DimensionMismatch(f"line {line_no}: expected {dimension} "
                                    f"components, got {len(vec)} ({path})")
        if word in entries:
            duplicates += 1
        entries[word] = vec
        unchecked.append((line_no, vec))
        if len(unchecked) == 256:  # a check per line would cost half a parse
            _require_finite(unchecked, path)
    _require_finite(unchecked, path)
    if not entries:
        raise DimensionMismatch(f"no vector line in {path}")
    return EmbeddingTable(dimension, entries, duplicates)


def _require_finite(rows: list[tuple[int, np.ndarray]], path):
    """Raise MalformedLine naming the first of these (line, vector) rows
    with a component that is not finite; otherwise empty ``rows``."""
    if rows and not np.isfinite(np.stack([vec for _, vec in rows])).all():
        line_no = next(n for n, vec in rows if not np.isfinite(vec).all())
        raise MalformedLine(line_no, f"component that is not finite ({path})")
    rows.clear()


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
