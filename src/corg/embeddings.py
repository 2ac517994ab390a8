"""Word-vector table: words to fixed-size float64 vectors, read lazily.

File format: optional header line ``<count> <dim>``, then one
``word v1 ... v_dim`` entry per line (the layout used by common
pre-computed embedding releases); a header's count is the number of
entry lines, duplicates included.  The file is opened by ``kg._open``:
a ``.gz`` path is read transparently, and a UTF-8 byte-order mark at the
start of the file is dropped.  A row's byte offset counts from the first
byte after that mark, in a plain table and in a ``.gz`` one alike.
Every module reads vectors through ``EmbeddingTable.vectors``, the one
lookup, in bulk, by lowercased token.

``load_table`` reads a table once, to index it, and parses no float then:
it checks every line's UTF-8 and component count and the header's word
count, and keeps, per word, where its last line is.  It reads the file in
byte blocks of whole lines, ``kg._BLOCK_BYTES`` at a time.  A block whose
bytes are ASCII, whose only control bytes are its ``\\n`` line ends and
whose lines are each the word and ``dimension`` components, separated by
single spaces, is indexed from the positions of those bytes, with a few
numpy passes: per line, Python only cuts out the word and lowercases it.
Any other block, a non-ASCII one among them, goes line by line through
``_vector_lines``'s rule, the one definition of the format; so do the
first lines, up to the one that fixes the dimension.  Both ways give the
same index, line numbers and errors.

A row is parsed when ``vectors`` first needs it, and kept in the table's
``_parsed`` dict, row to vector, the one place parsed rows live: each call
reads the lines it needs again, checks that each still starts with its
word, and parses them together with one ``_parse_block`` call.  So a bad
float or a component that is not finite raises when its row is read, and
never for a row that no run reads.  A plain table reopens its file for
this, first checks that the file has not changed since the load, and
reads a row at its offset from where ``_open`` leaves the handle.  A
``.gz`` table cannot seek cheaply, so it keeps its decompressed text after
the mark in memory, one copy of it, and reads its lines from there.
Nothing allocates room for rows not parsed yet.

``_parse_block`` parses its lines with one ``np.loadtxt`` call, and again
line by line only when that call fails or its result is not a finite
matrix of the table's width, to name the bad line or to accept a float
spelling ``loadtxt`` does not (``1_0``).
"""

from __future__ import annotations

import gzip
import io
import os
from contextlib import closing, nullcontext
from typing import Iterator, Mapping, Sequence

import numpy as np

from .errors import DimensionMismatch, MalformedLine
from .kg import _CAMEL_BOUNDARY, _blocks, _open


def split_identifier(token: str) -> list[str]:
    """Lowercased word parts of an identifier, split at ``_`` and camelCase."""
    parts = []
    for chunk in token.split("_"):
        for part in _CAMEL_BOUNDARY.sub("_", chunk).split("_"):
            if part:
                parts.append(part.lower())
    return parts


class EmbeddingTable:
    """Immutable-after-load map from words to fixed-size vectors.

    ``rows`` maps each word to its row, and ``_parsed`` maps each parsed
    row to its float64 vector; a row is absent from it until it is parsed.
    A table that ``load_table`` indexed holds, per row, the byte offset,
    byte size and line number of its line in ``_lines``, and parses its
    rows from there: from its file, or from ``_text``, the decompressed
    text that a ``.gz`` table keeps.  ``EmbeddingTable(dimension, {word: vector})`` copies
    the given vectors, so every row of it is parsed; it keeps their keys as
    given, while ``load_table`` lowercases every word.  ``vectors``
    lowercases every token, so a key with an uppercase letter is never
    found: ``EmbeddingTable(2, {"Sun": v}).vectors(["Sun"])`` is zeros.
    A vector whose shape is not ``(dimension,)`` raises
    DimensionMismatch, and one with a component that is not finite raises
    ValueError, each naming its word.
    """

    def __init__(self, dimension: int, vectors: Mapping[str, np.ndarray]):
        self.dimension = dimension
        self.duplicates = 0
        self.rows = {word: i for i, word in enumerate(vectors)}
        self._parsed = {}
        for word, i in self.rows.items():
            vector = np.array(vectors[word], dtype=np.float64)
            if vector.shape != (dimension,):
                raise DimensionMismatch(f"vector of {word!r} has shape {vector.shape}, "
                                        f"expected ({dimension},)")
            if not np.isfinite(vector).all():
                raise ValueError(f"vector of {word!r} must be finite, got {vector}")
            self._parsed[i] = vector
        self._path = self._lines = self._signature = self._text = None

    def __len__(self) -> int:
        return len(self.rows)

    def vectors(self, tokens: Sequence[str]) -> np.ndarray:
        """A fresh ``(len(tokens), dimension)`` array, one row per token.

        Row i is the stored vector of token i lowercased, else the
        mean of the vectors of its in-vocabulary ``split_identifier`` parts
        (``annoy_your_spouse`` -> annoy/your/spouse, ``astronomicalBody`` ->
        astronomical/body), else zeros, the flag for a miss.  The rows this
        needs that are not parsed yet are parsed first, together; a bad one
        raises a CorgError naming the file and its line.
        """
        rows = [self.rows.get(t.lower(), -1) for t in tokens]
        parts = {i: [self.rows[p] for p in split_identifier(tokens[i]) if p in self.rows]
                 for i, row in enumerate(rows) if row < 0}
        needed = [row for row in rows if row >= 0]
        for found in parts.values():
            needed += found
        self._parse(needed)
        parsed, out = self._parsed, np.zeros((len(tokens), self.dimension))
        for i, row in enumerate(rows):
            if row >= 0:
                out[i] = parsed[row]
            elif parts[i]:
                out[i] = np.array([parsed[r] for r in parts[i]]).mean(axis=0)
        return out

    def _parse(self, rows: list[int]) -> None:
        """Parse those of ``rows`` not parsed yet, in one block, and keep them."""
        rows = np.array(list(set(rows).difference(self._parsed)), dtype=np.intp)
        if not len(rows):
            return
        rows = rows[np.argsort(self._lines[rows, 0])]  # in file order
        self._parsed.update(zip(rows.tolist(), _parse_block(self._read(rows),
                                                            self.dimension, self._path)))

    def _read(self, rows: np.ndarray) -> list[tuple[int, str, str]]:
        """The lines of ``rows``, read again from the table file, or from
        the text a ``.gz`` table keeps, as ``(line_no, word, components
        text)``; an offset counts from where ``_open`` leaves a plain
        file, past a byte-order mark, and from the start of the kept text.

        Raises MalformedLine naming the file and a line when a plain file
        has changed since the load, when a line no longer starts with its
        word, or when the file cannot be read."""
        path, block, text = self._path, [], self._text
        changed = f"the table changed after it was loaded ({path})"
        line_no = int(self._lines[rows[0], 2])
        try:
            with _open(path) if text is None else nullcontext(text) as fh:
                if text is None and _signature(os.fstat(fh.fileno())) != self._signature:
                    raise MalformedLine(line_no, changed)
                base = 0 if text is not None else fh.tell()
                for row, (offset, size, line_no) in zip(rows.tolist(),
                                                        self._lines[rows].tolist()):
                    fh.seek(base + offset)
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
    row.  The table comes back with no row parsed.  A plain table is read
    again for every row parsed, and a file changed or gone since the load
    raises then; a ``.gz`` table keeps its decompressed text and is never
    read again.  A ``.gz`` that does not decompress raises CorruptArchive.
    A row's byte offset counts from the first byte after a byte-order mark,
    which the kept text of a ``.gz`` table leaves out.

    The file, a ``.gz`` one decompressed, is read in byte blocks of whole
    lines, and ``_vector_lines`` indexes each block.  A block of ASCII
    lines that are each a word and ``dimension`` components, separated by
    single spaces, is indexed with a few numpy passes over its bytes.  Any
    other block, a non-ASCII one among them, goes line by line through the
    one rule of the format; so does the header line.  Both ways give the
    same rows, line numbers and errors."""
    table = EmbeddingTable(0, {})
    rows = table.rows
    lines = np.empty((0, 3), dtype=np.int64)  # per row: its last line's offset, size, number
    n_lines = 0
    # closed at once if a line raises, so that the file is not left open
    with closing(_table_blocks(path, table)) as blocks:
        for dimension, words, offsets, sizes, line_nos in _vector_lines(blocks, path):
            if not words:
                continue
            n_lines += len(words)
            found = np.array([rows.setdefault(word, len(rows)) for word in words])
            # a word's last line wins
            last = len(found) - 1 - np.unique(found[::-1], return_index=True)[1]
            if len(rows) > len(lines):
                # grown in place, so that the index is never held twice; no
                # view of ``lines`` outlives the statement that takes it
                lines.resize((max(len(rows), 2 * len(lines)), 3), refcheck=False)
            lines[found[last]] = np.column_stack([offsets, sizes, line_nos])[last]
    if not rows:
        raise DimensionMismatch(f"no vector line in {path}")
    table.dimension, table.duplicates = dimension, n_lines - len(rows)
    table._path = os.path.abspath(path)  # reopened whatever the working directory is then
    lines.resize((len(rows), 3), refcheck=False)
    table._lines = lines
    return table


def _table_blocks(path, table: EmbeddingTable) -> Iterator[bytes]:
    """The ``_blocks`` of a table file; records a plain file's signature on
    ``table``, and appends each block of a ``.gz`` one to ``table._text``,
    the one copy of its text, which is cut to its length at the end."""
    with _open(path) as fh:
        if not isinstance(fh, gzip.GzipFile):
            table._signature = _signature(os.fstat(fh.fileno()))
            yield from _blocks(fh)
            return
        table._text = text = io.BytesIO()
        for data in _blocks(fh):
            text.write(data)
            yield data
        # getvalue() cuts the unshared buffer to its length in place, and
        # the new BytesIO shares it: the growth slack goes, and no copy is made
        table._text = io.BytesIO(text.getvalue())


def _signature(stat: os.stat_result) -> tuple[int, ...]:
    """What changes when a file is rewritten, truncated or replaced."""
    return stat.st_dev, stat.st_ino, stat.st_size, stat.st_mtime_ns


def _vector_lines(blocks: Iterator[bytes], path) -> Iterator[tuple]:
    """The vector lines of a table file's ``blocks``, one run of lines at a
    time, as ``(dimension, lowercased words, byte offsets, byte sizes, line
    numbers)``, the last three int64 arrays.

    The rule is ``str.split`` on each line, the line ends being ``\\r\\n``,
    ``\\n`` and ``\\r``.  It raises for a line that is not UTF-8, for a word
    with no component, for a line whose component count is not the table's,
    for a header of dimension below 1, and after the last line for a header
    whose count is not the number of vector lines (unless there is none).
    The first lines, up to the one that fixes the dimension, go through it
    one by one.  The rest of a block goes through it line by line only when
    ``_even_lines`` cannot index the block from its bytes."""
    count = dimension = None
    n_lines = line_no = offset = 0
    for data in blocks:
        start = 0
        while start < len(data):
            even = None
            if line_no and dimension is not None:
                stop = len(data)
                even = _even_lines(data[start:], dimension)
            else:
                stop = data.find(b"\n", start) + 1 or len(data)
            if even is not None:
                words, starts, stops = even
                yield (dimension, words, offset + starts, stops - starts,
                       np.arange(line_no + 1, line_no + len(words) + 1))
                n_lines += len(words)
                line_no += len(words)
                offset += stop - start
                start = stop
                continue
            words, offsets, sizes, line_nos = [], [], [], []
            for line in _text_lines(data[start:stop]):
                line_no += 1
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
                words.append(fields[0].lower())
                offsets.append(offset - size)
                sizes.append(size)
                line_nos.append(line_no)
            yield (dimension, words, np.array(offsets, dtype=np.int64),
                   np.array(sizes, dtype=np.int64), np.array(line_nos, dtype=np.int64))
            start = stop
    if count is not None and n_lines and n_lines != count:
        raise MalformedLine(1, f"header gives {count} words, the file has "
                               f"{n_lines} vector lines ({path})")


def _text_lines(data: bytes) -> Iterator[str]:
    """The lines of ``data`` for the per-line rule, ends kept; undecodable
    bytes become lone surrogates."""
    return io.StringIO(data.decode("utf-8", "surrogateescape"), newline="")


def _even_lines(data: bytes, dimension: int):
    """``data``'s lines indexed from its bytes, as ``(lowercased words, line
    starts, line stops)``, or None unless every line is
    ``dimension + 1`` ASCII tokens separated by single spaces, with no
    control byte but its ``\\n``.  Such a line's ``str.split()`` is those
    tokens, so the per-line rule would index it alike."""
    if not data.isascii():
        return None
    width = dimension + 1
    a = np.frombuffer(data, dtype=np.uint8)
    ends = np.flatnonzero(a <= 32)  # where each token ends: a space or a line end
    kinds = a[ends]
    if data[-1] != 10:  # the file's last line, with no line end
        ends, kinds = np.append(ends, len(a)), np.append(kinds, 10)
    line = np.full(width, 32, dtype=np.uint8)  # the token ends of an even line
    line[-1] = 10
    if len(ends) % width or not (kinds.reshape(-1, width) == line).all() \
            or np.diff(ends, prepend=-1).min() < 2:  # an empty token
        return None
    line_ends = ends[dimension::width]
    stops = np.minimum(line_ends + 1, len(a))
    starts = np.concatenate(([0], stops[:-1]))
    text = data.decode("ascii")
    words = [text[s:e].lower() for s, e in zip(starts.tolist(), ends[::width].tolist())]
    return words, starts, stops


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
