"""Word-vector table with cosine similarity.

File format: optional header line ``<count> <dim>``, then one
``word v1 ... v_dim`` entry per line (the layout used by common
pre-computed embedding releases); a header's count is the number of
entry lines, duplicates included.  ``.gz`` paths are read transparently.
Every module reads vectors through ``EmbeddingTable.vectors``, the one
lookup, in bulk; its keys are lowercase.

``load_table`` reads a plain table once, to index it, and parses no float
then: it checks every line's UTF-8 and component count and the header's
word count, and keeps, per word, where its last line is.  A row is parsed
when ``vectors`` first needs it, and kept: each call reopens the file,
checks that the file has not changed since the load and that every line
it needs still starts with its word, and parses those lines together with
one ``_parse_block`` call.  So a bad float or a
component that is not finite raises when its row is read, and never for a
row that no run reads.  A ``.gz`` table cannot seek cheaply, so every row
is parsed, and checked, at load, a block of lines at a time.

``_parse_block`` parses its lines with one ``np.loadtxt`` call, and again
line by line only when that call fails or its result is not a finite
matrix of the table's width, to name the bad line or to accept a float
spelling ``loadtxt`` does not (``1_0``).
"""

from __future__ import annotations

import os
from array import array
from pathlib import Path
from typing import Iterator, Mapping, Sequence

import numpy as np

from .errors import DimensionMismatch, MalformedLine
from .kg import _CAMEL_BOUNDARY, _open_text

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

    ``rows`` maps each word to its row.  Parsed rows are kept in one
    float64 store: row i is ``_store[_slot[i]]``, and ``_slot[i]`` is -1
    until row i is parsed.  A table that ``load_table`` indexed holds, per
    row, the byte offset, byte size and line number of its line in
    ``_lines``, and parses its rows from there.
    ``EmbeddingTable(dimension, {word: vector})`` copies the given vectors,
    so every row of it is parsed.
    """

    def __init__(self, dimension: int, vectors: Mapping[str, np.ndarray],
                 duplicates: int = 0):
        self.dimension = dimension
        self.duplicates = duplicates
        self.rows = {word: i for i, word in enumerate(vectors)}
        self._store = np.zeros((len(self.rows), dimension))
        for word, i in self.rows.items():
            self._store[i] = vectors[word]
        self._slot = np.arange(len(self.rows))
        self._n_parsed = len(self.rows)
        self._path = self._lines = self._signature = None

    def __len__(self) -> int:
        return len(self.rows)

    def vectors(self, tokens: Sequence[str]) -> np.ndarray:
        """A fresh ``(len(tokens), dimension)`` array, one row per token.

        Row i is token i's stored vector (keys are lowercase), else the
        mean of the vectors of its in-vocabulary ``split_identifier`` parts
        (``annoy_your_spouse`` -> annoy/your/spouse, ``astronomicalBody`` ->
        astronomical/body), else zeros, the flag for a miss.  The rows this
        needs that are not parsed yet are parsed first, together; a bad one
        raises a CorgError naming the file and its line.
        """
        rows = np.array([self.rows.get(t.lower(), -1) for t in tokens], dtype=np.intp)
        hit = rows >= 0
        parts = {i: [self.rows[p] for p in split_identifier(tokens[i]) if p in self.rows]
                 for i in np.flatnonzero(~hit).tolist()}
        needed = rows[hit].tolist()
        for found in parts.values():
            needed += found
        self._parse(np.array(needed, dtype=np.intp))
        out = np.zeros((len(tokens), self.dimension))
        out[hit] = self._store[self._slot[rows[hit]]]
        for i, found in parts.items():
            if found:
                out[i] = self._store[self._slot[found]].mean(axis=0)
        return out

    def _parse(self, rows: np.ndarray) -> None:
        """Parse those of ``rows`` not parsed yet, in one block, and keep them."""
        rows = rows[self._slot[rows] < 0]
        if not len(rows):
            return
        rows = np.unique(rows)
        rows = rows[np.argsort(self._lines[rows, 0])]  # in file order
        vectors = _parse_block(self._read(rows), self.dimension, self._path)
        start, end = self._n_parsed, self._n_parsed + len(rows)
        if end > len(self._store):
            # grown in place, so that the parsed rows are never held twice; no
            # view of ``_store`` outlives the statement that takes it
            self._store.resize((max(end, 2 * len(self._store)), self.dimension),
                               refcheck=False)
        self._store[start:end] = vectors
        self._slot[rows] = np.arange(start, end)
        self._n_parsed = end

    def _read(self, rows: np.ndarray) -> list[tuple[int, str, str]]:
        """The lines of ``rows``, read again from the table file, as
        ``(line_no, word, components text)``.

        Raises MalformedLine naming the file and a line when the file has
        changed since the load, when a line no longer starts with its word,
        or when the file cannot be read."""
        path, block = self._path, []
        changed = f"the table changed after it was loaded ({path})"
        line_no = int(self._lines[rows[0], 2])
        try:
            with open(path, "rb") as fh:
                if _signature(os.fstat(fh.fileno())) != self._signature:
                    raise MalformedLine(line_no, changed)
                for row, (offset, size, line_no) in zip(rows.tolist(),
                                                        self._lines[rows].tolist()):
                    fh.seek(offset)
                    fields = fh.read(size).decode("utf-8", "surrogateescape").split(maxsplit=1)
                    word = fields[0].lower() if fields else None
                    if len(fields) < 2 or self.rows.get(word) != row:
                        raise MalformedLine(line_no, changed)
                    block.append((line_no, word, fields[1]))
        except OSError as e:
            raise MalformedLine(line_no, f"cannot read the table again, {e} ({path})") from e
        return block


def load_table(path) -> EmbeddingTable:
    """Load a vector table; duplicate words are counted and the last wins.

    At load, a line that is not UTF-8 or whose component count is not the
    table's raises a CorgError naming it and the file, as do a file with no
    vector line, a table of dimension 0 and a header whose count is not the
    number of vector lines.  A bad float or a component that is not finite
    raises, naming its line and the file, only when ``vectors`` reads its
    row (at load for a ``.gz`` table, whose rows are all parsed then).  A
    plain table is read again for every row parsed; a file changed or gone
    since the load raises then.  A ``.gz`` that does not decompress raises
    CorruptArchive."""
    eager = Path(path).suffix == ".gz"
    table = EmbeddingTable(0, {})
    rows = table.rows
    offsets, sizes, line_nos = array("q"), array("q"), array("q")
    block: list[tuple[int, str, str]] = []
    n_lines = 0
    lines = _open_text(path) if eager else _open_plain(path, table)
    for dimension, offset, size, line_no, word, line in _vector_lines(lines, path):
        n_lines += 1
        row = rows.setdefault(word, len(rows))
        if eager:
            block.append((line_no, word, line.split(maxsplit=1)[1]))
            if len(block) == _BLOCK_LINES:
                _keep_block(table, block, dimension, path)
                block = []
        elif row < len(offsets):  # a duplicate: its last line wins
            offsets[row], sizes[row], line_nos[row] = offset, size, line_no
        else:
            offsets.append(offset)
            sizes.append(size)
            line_nos.append(line_no)
    if block:
        _keep_block(table, block, dimension, path)
    if not rows:
        raise DimensionMismatch(f"no vector line in {path}")
    table.dimension, table.duplicates = dimension, n_lines - len(rows)
    table._path = os.path.abspath(path)  # reopened whatever the working directory is then
    if eager:
        table._store.resize((len(rows), dimension), refcheck=False)
        table._slot, table._n_parsed = np.arange(len(rows)), len(rows)
    else:
        table._store = np.empty((0, dimension))
        table._slot = np.full(len(rows), -1, dtype=np.intp)
        table._lines = np.column_stack([offsets, sizes, line_nos])
    return table


def _open_plain(path, table: EmbeddingTable) -> Iterator[str]:
    """The lines of a plain table file, line ends kept, so that a line's
    UTF-8 size is its byte size; records the file's signature on
    ``table``."""
    with open(path, encoding="utf-8", errors="surrogateescape", newline="") as fh:
        table._signature = _signature(os.fstat(fh.fileno()))
        yield from fh


def _signature(stat: os.stat_result) -> tuple[int, ...]:
    """What changes when a file is rewritten, truncated or replaced."""
    return stat.st_dev, stat.st_ino, stat.st_size, stat.st_mtime_ns


def _vector_lines(lines: Iterator[str], path) -> Iterator[tuple[int, int, int, int, str, str]]:
    """``(dimension, byte offset, byte size, line_no, lowercased word,
    line)`` for each vector line.

    Raises for a line that is not UTF-8, for a word with no component, for
    a line whose component count is not the table's, for a header of
    dimension below 1, and after the last line for a header whose count is
    not the number of vector lines (unless there is none)."""
    count = dimension = None
    n_lines = offset = 0
    for line_no, line in enumerate(lines, start=1):
        try:
            size = len(line) if line.isascii() else len(line.encode("utf-8"))
        except UnicodeEncodeError:
            raise MalformedLine(line_no, f"not valid UTF-8 ({path})") from None
        offset += size
        fields = line.split()
        if line_no == 1 and len(fields) == 2 and all(_is_int(f) for f in fields):
            count, dimension = int(fields[0]), int(fields[1])
            if dimension < 1:
                raise DimensionMismatch(f"line 1: header gives dimension "
                                        f"{dimension} ({path})")
            continue
        if not fields:
            continue
        if len(fields) == 1:
            raise DimensionMismatch(f"line {line_no}: word with no vector ({path})")
        if dimension is None:
            dimension = len(fields) - 1
        elif len(fields) - 1 != dimension:
            raise DimensionMismatch(f"line {line_no}: expected {dimension} "
                                    f"components, got {len(fields) - 1} ({path})")
        n_lines += 1
        yield dimension, offset - size, size, line_no, fields[0].lower(), line
    if count is not None and n_lines and n_lines != count:
        raise MalformedLine(1, f"header gives {count} words, the file has "
                               f"{n_lines} vector lines ({path})")


def _keep_block(table: EmbeddingTable, block: list[tuple[int, str, str]],
                dimension: int, path) -> None:
    """Parse a block of lines of a table being loaded into its store, at the
    rows of their words; a word's later line wins."""
    vectors = _parse_block(block, dimension, path)
    last = {table.rows[word]: i for i, (_, word, _) in enumerate(block)}
    store = table._store
    if len(table.rows) > len(store):
        # grown in place, as in ``EmbeddingTable._parse``
        store.resize((max(len(table.rows), 2 * len(store)), dimension), refcheck=False)
    store[list(last)] = vectors[list(last.values())]


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
