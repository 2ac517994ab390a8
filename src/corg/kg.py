"""Triple store for ConceptNet-style knowledge graph dumps.

Two input formats are accepted, detected per line:

* assertions dump: 5 tab-separated fields
  ``assertion-URI <TAB> relation-URI <TAB> start-URI <TAB> end-URI <TAB> json``
  with relation URIs like ``/r/Causes`` and concept URIs like ``/c/en/sun``;
  the JSON metadata must decode, and its ``"weight"`` key, if any, must be
  a number: it is checked, not kept.  Only edges between two English
  concepts are kept.
* plain fixture: ``subject <TAB> relation <TAB> object [<TAB> weight]``,
  ``#`` comments and blank lines allowed; the weight must parse as a float
  and is not kept either.

Lines end at ``\\r\\n``, ``\\n`` or ``\\r``.

Every graph, relation-whitelist and vector-table file is opened by
``_open``, the one place that decides how: a ``.gz`` path is decompressed,
a UTF-8 byte-order mark at the start of the file is dropped, and what a
damaged archive raises becomes CorruptArchive.

``load_graph`` reads the file in byte blocks of whole lines, ``_BLOCK_BYTES``
at a time, as ``load_table`` reads a vector table.  A block is even when its
bytes are ASCII, hold no ``#`` and no control byte (below 0x20) but ``\\t``
and ``\\n``, and its lines all have exactly 3 tab-separated fields, or all
have exactly 4.  An even block is parsed by columns: it is split once, each
distinct relation field gets its verdict and each distinct concept field is
normalized once, each distinct weight is checked once, and the kept rows are
interned in line order.  Any other block, a dump block among them, goes line
by line through ``_LineParser``, the one definition of the format; so does an
even block with a field that would make its line malformed.  Both ways give
the same graph.

Concept identifiers are normalized to lowercase single tokens (multiword
concepts stay underscore-joined, e.g. ``annoy_your_spouse``); relation names
are normalized to lowercase snake_case (``AtLocation`` -> ``at_location``).
A leading ``Not`` on a relation becomes a ``negated`` flag on the triple.
"""

from __future__ import annotations

import codecs
import gzip
import io
import json
import re
import zlib
from array import array
from contextlib import contextmanager
from dataclasses import dataclass, field
from importlib import resources
from itertools import chain, compress
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator

import numpy as np

from .errors import CorruptArchive, MalformedLine, NoTriplesLoaded

_CAMEL_BOUNDARY = re.compile(r"(?<=[a-z0-9])(?=[A-Z])|(?<=[A-Z])(?=[A-Z][a-z])")
_BLOCK_BYTES = 1 << 18  # bytes read at a time by ``load_graph`` and ``load_table``


@dataclass(frozen=True, slots=True)
class Triple:
    """One knowledge-graph edge: the fields that translation reads."""

    subject: str
    relation: str
    object: str
    negated: bool = False


@dataclass
class RelationFilter:
    """Which triples survive loading.

    ``allowed=None`` disables relation filtering; otherwise it must be a
    non-empty set of normalized relation ids.
    """

    allowed: frozenset[str] | None = None

    def __post_init__(self):
        if self.allowed is not None:
            self.allowed = frozenset(self.allowed)
            if not self.allowed:
                raise ValueError("relation whitelist enabled but empty")


@dataclass
class LoadStats:
    """Kept/skipped line counts per reason for one load."""

    kept: int = 0
    skipped: dict[str, int] = field(default_factory=dict)

    def skip(self, reason: str, lines: int = 1):
        self.skipped[reason] = self.skipped.get(reason, 0) + lines

    @property
    def total_skipped(self) -> int:
        return sum(self.skipped.values())


class KnowledgeGraph:
    """Append-only triple store held as array columns; a triple's id is its row.

    ``add`` interns names to ids (``concepts``, ``relations``) and appends
    to the ``subject``, ``relation``, ``object`` and ``negated`` columns;
    ``triple(i)`` and iteration build ``Triple`` values on demand.  There
    are no adjacency indexes.  Once loaded the graph is treated as
    immutable and can be shared by readers.
    """

    def __init__(self, triples: Iterable[Triple] = ()):
        self.concepts: dict[str, int] = {}
        self.relations: dict[str, int] = {}
        self._concept_names, self._relation_names = [], []
        self.subject, self.relation, self.object = array("i"), array("i"), array("i")
        self.negated = array("b")
        self.stats = LoadStats()
        for t in triples:
            self.add(t)

    def add(self, triple: Triple) -> int:
        return self._append(triple.subject, triple.relation, triple.object, triple.negated)

    def _append(self, subject: str, relation: str, obj: str, negated: bool) -> int:
        self.subject.append(_id_of(self.concepts, self._concept_names, subject))
        self.relation.append(_id_of(self.relations, self._relation_names, relation))
        self.object.append(_id_of(self.concepts, self._concept_names, obj))
        self.negated.append(negated)
        return len(self.subject) - 1

    def triple(self, i: int) -> Triple:
        return Triple(self._concept_names[self.subject[i]],
                      self._relation_names[self.relation[i]],
                      self._concept_names[self.object[i]], bool(self.negated[i]))

    def __iter__(self) -> Iterator[Triple]:
        return map(self.triple, range(len(self)))

    def __len__(self) -> int:
        return len(self.subject)

    @classmethod
    def from_tuples(cls, rows: Iterable[tuple[str, str, str]]) -> "KnowledgeGraph":
        """Build a graph from (subject, relation, object) tuples.

        Names are normalized the same way the loaders normalize them, so
        ``("sun", "Causes", "light")`` works as a fixture row, and
        ``("person", "NotDesires", "pain")`` gives a negated triple.
        """
        g = cls()
        for subject, relation, obj in rows:
            rel, negated = normalize_relation(relation)
            g._append(normalize_concept(subject), rel, normalize_concept(obj), negated)
        g.stats.kept = len(g)
        return g


def _id_of(ids: dict[str, int], names: list[str], name: str) -> int:
    if name not in ids:
        ids[name] = len(names)
        names.append(name)
    return ids[name]


def normalize_concept(term: str) -> str:
    """Lowercase a concept term and join spaces with underscores."""
    return term.strip().lower().replace(" ", "_")


def normalize_relation(raw: str) -> tuple[str, bool]:
    """Normalize a raw relation name; returns (relation_id, negated).

    ``NotDesires`` -> ``("desires", True)``; ``AtLocation`` ->
    ``("at_location", False)``.  Multi-segment names (``dbpedia/genre``)
    are joined with underscores.
    """
    name = raw.strip()
    negated = False
    if name.startswith("Not") and len(name) > 3 and name[3].isupper():
        negated = True
        name = name[3:]
    parts = [p for p in name.split("/") if p]
    snake = "_".join(_CAMEL_BOUNDARY.sub("_", p) for p in parts)
    return snake.lower(), negated


_JSON = json.JSONDecoder()


class _LineParser:
    """The one parser of dump and fixture lines, with per-load memos.

    A line parses to the fields ``(subject, relation, object, negated)`` of
    a kept ``Triple``, or to the reason it is skipped, a ``str``
    (``"external_url"``, ``"non_concept"``, ``"language"``, ``"relation"``),
    or raises MalformedLine.  ``allowed`` is the relation filter's set, or
    None for no filter.  Each relation URI is memoized to its verdict,
    ``(relation, negated, allowed)`` or ``"external_url"``, and so is each
    plain relation field (a fixture keeps ``external_url`` edges).  Each
    concept URI is memoized to ``(name, None)`` for an English concept,
    else to ``(None, reason)``.  A URI that raises MalformedLine is not
    memoized, so it raises on every use.
    """

    def __init__(self, allowed: frozenset[str] | None = None):
        self._allowed = allowed
        self._relation_uris: dict[str, tuple[str, bool, bool] | str] = {}
        self._relations: dict[str, tuple[str, bool, bool]] = {}
        self._concepts: dict[str, tuple[str | None, str | None]] = {}

    def relation(self, raw: str) -> tuple[str, bool, bool]:
        """The verdict on a plain relation field, memoized."""
        return self._relations.get(raw) or self._relation(raw)

    def _relation(self, raw: str) -> tuple[str, bool, bool]:
        relation, negated = normalize_relation(raw)
        verdict = relation, negated, self._allowed is None or relation in self._allowed
        self._relations[raw] = verdict
        return verdict

    def _relation_uri(self, uri: str, line_no: int) -> tuple[str, bool, bool] | str:
        if not uri.startswith("/r/") or len(uri) <= 3:
            raise MalformedLine(line_no, f"bad relation URI {uri!r}")
        verdict = self._relations.get(uri[3:]) or self._relation(uri[3:])
        if verdict[0] == "external_url":
            verdict = "external_url"
        self._relation_uris[uri] = verdict
        return verdict

    def _concept(self, uri: str, line_no: int) -> tuple[str | None, str | None]:
        """``/c/en/sun/n`` -> ("sun", None); ``/c/fr/soleil`` -> (None,
        "language"); a URI outside ``/c/`` -> (None, "non_concept")."""
        if not uri.startswith("/c/"):
            verdict = None, "non_concept"
        else:
            parts = uri.split("/")
            if len(parts) < 4 or not parts[2] or not parts[3]:
                raise MalformedLine(line_no, f"bad concept URI {uri!r}")
            verdict = (normalize_concept(parts[3]), None) if parts[2] == "en" \
                else (None, "language")
        self._concepts[uri] = verdict
        return verdict

    def assertion(self, line: str, line_no: int) -> tuple[str, str, str, bool] | str:
        """A dump line; what skips or breaks it comes first in the order of
        its fields: the relation URI, the start URI, the end URI, then
        ``language``, the metadata and last the relation filter."""
        fields = line.rstrip("\n").split("\t")
        if len(fields) != 5:
            raise MalformedLine(line_no, f"expected 5 fields, got {len(fields)}")
        _, rel_uri, start_uri, end_uri, meta = fields
        relation = self._relation_uris.get(rel_uri) or self._relation_uri(rel_uri, line_no)
        if relation == "external_url":
            return relation
        start, start_skip = self._concepts.get(start_uri) or self._concept(start_uri, line_no)
        if start_skip == "non_concept":
            return start_skip
        end, end_skip = self._concepts.get(end_uri) or self._concept(end_uri, line_no)
        if end_skip == "non_concept":
            return end_skip
        if start_skip or end_skip:
            return "language"
        meta = meta.strip()
        if meta:
            # json.loads(meta) without its wrappers: the same verdict, as
            # ``meta`` has no whitespace at either end
            try:
                data, stop = _JSON.raw_decode(meta)
            except (ValueError, RecursionError) as e:
                raise MalformedLine(line_no, f"bad JSON metadata: {e}") from e
            if stop != len(meta):
                raise MalformedLine(line_no, f"bad JSON metadata: extra data at {stop}")
            if isinstance(data, dict) and "weight" in data:
                _check_weight(data["weight"], line_no)
        relation, negated, allowed = relation
        return (start, relation, end, negated) if allowed else "relation"

    def plain(self, line: str, line_no: int) -> tuple[str, str, str, bool] | str:
        fields = line.rstrip("\n").split("\t")
        if len(fields) not in (3, 4):
            raise MalformedLine(line_no, f"expected 3 or 4 fields, got {len(fields)}")
        relation, negated, allowed = self.relation(fields[1])
        if not fields[0].strip() or not relation or not fields[2].strip():
            raise MalformedLine(line_no, "empty field")
        if len(fields) == 4:
            try:
                float(fields[3])
            except ValueError as e:
                raise MalformedLine(line_no, f"bad weight {fields[3]!r}") from e
        if not allowed:
            return "relation"
        return normalize_concept(fields[0]), relation, normalize_concept(fields[2]), negated


def _check_weight(value, line_no: int):
    """A JSON ``"weight"`` that is not a number, or an int too large for a
    float, makes its line malformed."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            float(value)
            return
        except OverflowError:
            pass
    raise MalformedLine(line_no, f"weight is not a number: {value!r:.40}")


@contextmanager
def _open(path) -> Iterator[BinaryIO]:
    """The one opener of an input file: a binary handle on ``path``, a
    ``.gz`` one decompressed, placed after a leading UTF-8 byte-order mark.
    What a ``.gz`` file that is not gzip data, is cut short or is corrupt
    raises while the handle is read becomes CorruptArchive."""
    try:
        with (gzip.open if Path(path).suffix == ".gz" else open)(path, "rb") as fh:
            if fh.read(len(codecs.BOM_UTF8)) != codecs.BOM_UTF8:
                fh.seek(0)
            yield fh
    except (gzip.BadGzipFile, EOFError, zlib.error) as e:
        raise CorruptArchive(f"{path}: {e}") from e


def _blocks(fh) -> Iterator[bytes]:
    """The bytes of ``fh`` in blocks of whole lines: each read of
    ``_BLOCK_BYTES`` bytes is cut after its last ``\\n``, or else after its
    last ``\\r`` that is not its last byte (the end of a ``\\r\\n`` may come
    in the next read), and the rest goes in front of the next block.  The
    last block may lack a line end.  A read's bytes up to its cut are copied
    once, into their block; the rest, less than a line, is copied, so that
    no view keeps the whole read alive while the next one is joined."""
    pieces = []
    while chunk := fh.read(_BLOCK_BYTES):
        cut = chunk.rfind(b"\n") + 1 or chunk.rfind(b"\r", 0, len(chunk) - 1) + 1
        if cut:
            pieces.append(memoryview(chunk)[:cut])
            yield b"".join(pieces)
            pieces = [chunk[cut:]]
        else:
            pieces.append(chunk)
    if rest := b"".join(pieces):
        yield rest


def _block_lines(data: bytes) -> Iterator[str]:
    """The lines of ``data`` for the per-line rule, each ending in ``\\n``
    (a ``\\r\\n`` or ``\\r`` read as one) but a last line with no end;
    undecodable bytes become lone surrogates."""
    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", errors="surrogateescape")


def _is_utf8(line: str) -> bool:
    """False for a line read from bytes that are not valid UTF-8."""
    try:
        line.encode("utf-8")
        return True
    except UnicodeEncodeError:
        return False


# the control bytes of an even line of 3 or of 4 fields, in order
_EVEN_LINE = {3: np.array([9, 9, 10], dtype=np.uint8),
              4: np.array([9, 9, 9, 10], dtype=np.uint8)}


def _append_even(g: KnowledgeGraph, parser: _LineParser, data: bytes) -> int | None:
    """Append the kept rows of an even block of plain lines to ``g``, count
    the rows that the relation filter drops, and return the block's line
    count; or return None, having changed nothing, when ``data`` is not an
    even block or one of its fields would make its line malformed.

    Each distinct field is checked once, with the per-line rule's own steps:
    a relation field's verdict from ``parser``'s memo, ``normalize_concept``
    on a concept field (blank is malformed) and ``float`` on a weight.  So
    the rows, their order and the counts are those of the per-line rule."""
    first_end = data.find(b"\n")
    width = data.count(b"\t", 0, first_end if first_end >= 0 else len(data)) + 1
    if width not in _EVEN_LINE or not data.isascii() or b"#" in data:
        return None
    ended = data[-1] == 10
    a = np.frombuffer(data, dtype=np.uint8)
    kinds = a[a < 32]
    if not ended:
        kinds = np.append(kinds, 10)
    if len(kinds) % width or not (kinds.reshape(-1, width) == _EVEN_LINE[width]).all():
        return None
    n_lines = len(kinds) // width
    # split as bytes, and only the distinct fields decoded: a small object
    # per field, and no copy of the block as text
    fields = data.replace(b"\n", b"\t").split(b"\t")
    if ended:
        fields.pop()
    subjects, relations, objects = fields[0::width], fields[1::width], fields[2::width]
    verdicts = {raw: parser.relation(raw.decode()) for raw in set(relations)}
    names = {raw: normalize_concept(raw.decode()) for raw in set(subjects).union(objects)}
    if not all(relation for relation, _, _ in verdicts.values()) or not all(names.values()):
        return None
    try:
        for weight in set(fields[3::4] if width == 4 else ()):
            float(weight.decode())
    except ValueError:
        return None
    if not all(allowed for _, _, allowed in verdicts.values()):
        keep = [verdicts[raw][2] for raw in relations]
        g.stats.skip("relation", keep.count(False))
        subjects, relations, objects = (list(compress(column, keep))
                                        for column in (subjects, relations, objects))
    concept_ids = _intern(g.concepts, g._concept_names, names,
                          chain.from_iterable(zip(subjects, objects)))
    relation_ids = _intern(g.relations, g._relation_names,
                           {raw: relation for raw, (relation, _, _) in verdicts.items()}, relations)
    negated = {raw: flag for raw, (_, flag, _) in verdicts.items()}
    g.subject += array("i", map(concept_ids.__getitem__, subjects))
    g.relation += array("i", map(relation_ids.__getitem__, relations))
    g.object += array("i", map(concept_ids.__getitem__, objects))
    g.negated += array("b", map(negated.__getitem__, relations))
    return n_lines


def _intern(ids: dict[str, int], names: list[str], fields: dict[bytes, str],
            uses: Iterable[bytes]) -> dict[bytes, int]:
    """Each of ``fields``, raw field to name, mapped to its name's id; a
    name not in ``ids`` yet is interned as ``_id_of`` does, in the order of
    its raw field's first place in ``uses``."""
    found = {raw: ids.get(name, -1) for raw, name in fields.items()}
    if -1 in found.values():
        for raw in dict.fromkeys(uses):
            if found[raw] < 0:
                found[raw] = _id_of(ids, names, fields[raw])
    return found


def load_graph(path, relation_filter: RelationFilter | None = None) -> KnowledgeGraph:
    """Load a dump or fixture file into a KnowledgeGraph.

    Malformed lines, invalid UTF-8 among them, are counted, never fatal.
    Bad JSON metadata, a ``"weight"`` that is not a number (nor an int
    that overflows a float) and a plain fourth field that is not a float
    make a line malformed.  The relation filter comes after every check,
    so a line it would drop still counts as malformed.  A byte-order mark
    at the start of the file is dropped, so it is not part of the first
    name.
    Raises NoTriplesLoaded when nothing survives the filter (wrong filter
    or wrong file), CorruptArchive for a ``.gz`` file that does not
    decompress, and OSError for unreadable paths.  Load statistics end up
    on ``graph.stats``.

    The file, a ``.gz`` one decompressed, is read in byte blocks of whole
    lines.  An even block, whose bytes are ASCII, hold no ``#`` and no
    control byte but ``\\t`` and ``\\n``, and whose lines all have 3
    tab-separated fields or all have 4, is parsed by columns
    (``_append_even``): each distinct field is checked once, and the kept
    rows are interned in line order.  Any other block, and an even one with
    a field that makes its line malformed, goes line by line to one
    ``_LineParser``, which holds the relation filter; each line comes back
    as a kept line's fields or as a skip reason, and this loop only
    dispatches and counts.  The parser memoizes the verdict on each
    relation URI and concept URI for the length of the load (a dump
    repeats them, as a concept takes part in many edges), and decodes the
    metadata with one ``JSONDecoder.raw_decode`` call.  Either way a kept
    line's fields are interned straight into the graph's id columns, so
    concept ids follow the order of the first kept line, subject before
    object; no ``Triple`` is built.
    """
    parser = _LineParser((relation_filter or RelationFilter()).allowed)
    g = KnowledgeGraph()
    skip, append = g.stats.skip, g._append
    line_no = 0
    with _open(path) as fh:
        for data in _blocks(fh):
            even = _append_even(g, parser, data)
            if even is not None:
                line_no += even
                continue
            for line in _block_lines(data):
                line_no += 1
                try:
                    if not line.isascii() and not _is_utf8(line):
                        parsed = "malformed"
                    elif line.startswith("/a/") and line.count("\t") == 4:
                        parsed = parser.assertion(line, line_no)
                    elif (stripped := line.strip()) and not stripped.startswith("#"):
                        parsed = parser.plain(line, line_no)
                    else:
                        continue
                except MalformedLine:
                    parsed = "malformed"
                if isinstance(parsed, str):
                    skip(parsed)
                else:
                    append(*parsed)
    g.stats.kept = len(g)
    if not g:
        raise NoTriplesLoaded(f"no triples loaded from {path}")
    return g


def default_relation_whitelist() -> frozenset[str]:
    """Relation ids from the whitelist file shipped with the package."""
    shipped = resources.files("corg.data").joinpath("relations_default.txt")
    with resources.as_file(shipped) as path:
        return load_relation_whitelist(path)


def load_relation_whitelist(path) -> frozenset[str]:
    """Read a one-relation-per-line whitelist file (# comments allowed).

    A line that is not UTF-8 raises MalformedLine naming it and the file.
    The file is read as ``load_graph`` reads a graph: in blocks, a ``.gz``
    one decompressed, a leading byte-order mark dropped, and lines ending at
    ``\\r\\n``, ``\\n`` or ``\\r``."""
    relations = set()
    with _open(path) as fh:
        lines = chain.from_iterable(map(_block_lines, _blocks(fh)))
        for line_no, line in enumerate(lines, start=1):
            if not line.isascii() and not _is_utf8(line):
                raise MalformedLine(line_no, f"not valid UTF-8 ({path})")
            entry = line.strip()
            if entry and not entry.startswith("#"):
                relations.add(normalize_relation(entry)[0])
    return frozenset(relations)
