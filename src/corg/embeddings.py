"""Word-vector table with cosine similarity.

File format: optional header line ``<count> <dim>``, then one
``word v1 ... v_dim`` entry per line (the layout used by common
pre-computed embedding releases).  ``.gz`` paths are read transparently.
Lookup keys are lowercase.

A table is one float64 matrix with a row per word.  ``load_table`` parses
the vectors a block of lines at a time with one ``np.loadtxt`` call, and
parses a block again line by line only when that call fails or its result
is not a finite matrix of the table's width, to name the bad line or to
accept a float spelling ``loadtxt`` does not (``1_0``).
"""

from __future__ import annotations

from typing import Iterator, Mapping

import numpy as np

from .errors import DimensionMismatch, MalformedLine
from .kg import _CAMEL_BOUNDARY, _is_utf8, _open_text

_BLOCK_LINES = 1024


def split_identifier(token: str) -> list[str]:
    """Lowercased word parts of an identifier, split at ``_`` and camelCase."""
    parts = []
    for chunk in token.split("_"):
        for part in _CAMEL_BOUNDARY.sub("_", chunk).split("_"):
            if part:
                parts.append(part.lower())
    return parts


class EmbeddingTable:
    """Immutable-after-load map from lowercase words to fixed-size vectors.

    The vectors are the rows of one float64 ``matrix`` of shape
    ``(len(table), dimension)``, and ``rows`` maps each word to its row.
    ``EmbeddingTable(dimension, {word: vector})`` copies the given vectors
    into a new matrix.
    """

    def __init__(self, dimension: int, vectors: Mapping[str, np.ndarray],
                 duplicates: int = 0):
        self.dimension = dimension
        self.duplicates = duplicates
        self.rows = {word: i for i, word in enumerate(vectors)}
        self.matrix = np.zeros((len(self.rows), dimension))
        for word, i in self.rows.items():
            self.matrix[i] = vectors[word]

    def __len__(self) -> int:
        return len(self.rows)

    def vector(self, token: str) -> np.ndarray:
        """The token's stored vector, else the mean of the vectors of its
        in-vocabulary ``split_identifier`` parts (``annoy_your_spouse`` ->
        annoy/your/spouse, ``astronomicalBody`` -> astronomical/body), else
        zeros, the flag for a miss.

        Returns a view of the token's matrix row on a hit (treat it as
        read-only).
        """
        row = self.rows.get(token.lower())
        if row is not None:
            return self.matrix[row]
        found = [self.rows[p] for p in split_identifier(token) if p in self.rows]
        return self.matrix[found].mean(axis=0) if found else np.zeros(self.dimension)


def load_table(path) -> EmbeddingTable:
    """Load a vector table; duplicate words are counted and the last wins.

    A bad line raises a CorgError naming it and the file, as do a file with
    no vector line and a table of dimension 0; a ``.gz`` that does not
    decompress raises CorruptArchive."""
    rows: dict[str, int] = {}
    matrix = np.zeros((0, 0))
    duplicates = 0
    for dimension, block in _vector_blocks(path):
        vectors = _parse_block(block, dimension, path)
        start = len(rows)
        for _, word, _ in block:
            rows.setdefault(word, len(rows))
        if len(rows) > len(matrix):
            # grown in place, so that the vectors are never held twice; no
            # view of ``matrix`` outlives the statement that takes it
            matrix.resize((max(len(rows), 2 * len(matrix)), dimension), refcheck=False)
        if len(rows) - start == len(block):
            matrix[start:len(rows)] = vectors
        else:
            duplicates += len(block) - (len(rows) - start)
            for (_, word, _), vec in zip(block, vectors):
                matrix[rows[word]] = vec
    if not rows:
        raise DimensionMismatch(f"no vector line in {path}")
    matrix.resize((len(rows), dimension), refcheck=False)
    table = EmbeddingTable(dimension, {}, duplicates)
    table.rows, table.matrix = rows, matrix
    return table


def _vector_blocks(path) -> Iterator[tuple[int, list[tuple[int, str, str]]]]:
    """The table's dimension with blocks of its vector lines as
    ``(line_no, lowercased word, components text)``.

    Raises for a line that is not UTF-8, for a word with no component and
    for a header of dimension below 1."""
    dimension: int | None = None
    block: list[tuple[int, str, str]] = []
    for line_no, line in enumerate(_open_text(path), start=1):
        if not line.isascii() and not _is_utf8(line):
            raise MalformedLine(line_no, f"not valid UTF-8 ({path})")
        if line_no == 1:
            fields = line.split()
            if len(fields) == 2 and all(_is_int(f) for f in fields):
                dimension = int(fields[1])
                if dimension < 1:
                    raise DimensionMismatch(f"line 1: header gives dimension "
                                            f"{dimension} ({path})")
                continue
        fields = line.split(maxsplit=1)
        if not fields:
            continue
        if len(fields) == 1:
            raise DimensionMismatch(f"line {line_no}: word with no vector ({path})")
        if dimension is None:
            dimension = len(fields[1].split())
        block.append((line_no, fields[0].lower(), fields[1]))
        if len(block) == _BLOCK_LINES:
            yield dimension, block
            block = []
    if block:
        yield dimension, block


def _parse_block(block: list[tuple[int, str, str]], dimension: int, path) -> np.ndarray:
    """The block's vectors as a ``(len(block), dimension)`` finite matrix."""
    try:
        vectors = np.loadtxt([text for _, _, text in block], comments=None, ndmin=2)
    except ValueError:
        return _parse_lines(block, dimension, path)
    if vectors.shape != (len(block), dimension) or not np.isfinite(vectors).all():
        return _parse_lines(block, dimension, path)
    return vectors


def _parse_lines(block: list[tuple[int, str, str]], dimension: int, path) -> np.ndarray:
    """``_parse_block`` one line at a time, with Python's float syntax: a
    bad float or a wrong component count raises DimensionMismatch for its
    line, and then a component that is not finite raises MalformedLine for
    the first line that has one."""
    vectors = []
    for line_no, _, text in block:
        try:
            vec = np.array(text.split(), dtype=np.float64)
        except ValueError as e:
            raise DimensionMismatch(f"line {line_no}: bad float, {e} ({path})") from e
        if len(vec) != dimension:
            raise DimensionMismatch(f"line {line_no}: expected {dimension} "
                                    f"components, got {len(vec)} ({path})")
        vectors.append(vec)
    finite = np.isfinite(vectors).all(axis=1)
    if not finite.all():
        line_no = block[int(np.argmin(finite))][0]
        raise MalformedLine(line_no, f"component that is not finite ({path})")
    return np.array(vectors)


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
