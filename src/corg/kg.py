"""Triple store for ConceptNet-style knowledge graph dumps.

Two input formats are accepted, detected per line:

* assertions dump: 5 tab-separated fields
  ``assertion-URI <TAB> relation-URI <TAB> start-URI <TAB> end-URI <TAB> json``
  with relation URIs like ``/r/Causes`` and concept URIs like ``/c/en/sun``;
  the JSON metadata must decode, and its ``"weight"`` key, if any, must be
  a number: it is checked, not kept.  Only edges between two English
  concepts are kept, and a concept or relation whose name normalizes to
  empty (``/c/en/ ``, ``/r/ ``) makes the line malformed.
* plain fixture: ``subject <TAB> relation <TAB> object [<TAB> weight]``,
  ``#`` comments and blank lines allowed; the weight must parse as a float
  and is not kept either, and an empty concept or relation name makes the
  line malformed.

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
the same graph.  Each graph line gets one verdict, its triple or the reason
it is skipped (``malformed`` is one such reason, returned like the others),
and no line number is kept for it.

Concept identifiers are normalized to lowercase single tokens (multiword
concepts stay underscore-joined, e.g. ``annoy_your_spouse``); relation names
are normalized to lowercase snake_case (``AtLocation`` -> ``at_location``).
A relation with a leading ``Not`` (``NotDesires``) has no translation, so its
line is skipped as ``negated``; no triple in a graph is negated.
"""

from __future__ import annotations

import codecs
import gzip
import io
import json
import re
import zlib
from array import array
from collections import Counter
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
    to the ``subject``, ``relation`` and ``object`` columns; ``triple(i)``
    and iteration build ``Triple`` values on demand.  There are no
    adjacency indexes.  ``stats.kept`` counts the triples given to the
    constructor.  Once loaded the graph is treated as immutable and can be
    shared by readers.
    """

    def __init__(self, triples: Iterable[Triple] = ()):
        self.concepts: dict[str, int] = {}
        self.relations: dict[str, int] = {}
        self._concept_names, self._relation_names = [], []
        self.subject, self.relation, self.object = array("i"), array("i"), array("i")
        self.stats = LoadStats()
        for t in triples:
            self.add(t)
        self.stats.kept = len(self)

    def add(self, triple: Triple) -> int:
        return self._append(triple.subject, triple.relation, triple.object)

    def _append(self, subject: str, relation: str, obj: str) -> int:
        self.subject.append(_id_of(self.concepts, self._concept_names, subject))
        self.relation.append(_id_of(self.relations, self._relation_names, relation))
        self.object.append(_id_of(self.concepts, self._concept_names, obj))
        return len(self.subject) - 1

    def triple(self, i: int) -> Triple:
        return Triple(self._concept_names[self.subject[i]],
                      self._relation_names[self.relation[i]],
                      self._concept_names[self.object[i]])

    def __iter__(self) -> Iterator[Triple]:
        return map(self.triple, range(len(self)))

    def __len__(self) -> int:
        return len(self.subject)

    @classmethod
    def from_tuples(cls, rows: Iterable[tuple[str, str, str]]) -> "KnowledgeGraph":
        """Build a graph from (subject, relation, object) tuples.

        Names are normalized the same way the loaders normalize them, so
        ``("sun", "Causes", "light")`` works as a fixture row, and a row
        such as ``("person", "NotDesires", "pain")`` is counted under
        ``"negated"`` and not added, by the loaders' relation verdict.
        """
        g, parser = cls(), _LineParser()
        for subject, relation, obj in rows:
            relation, skip = parser.relation(relation)
            if skip:
                g.stats.skip(skip)
            else:
                g._append(normalize_concept(subject), relation, normalize_concept(obj))
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

    A line parses to the fields ``(subject, relation, object)`` of a kept
    ``Triple``, or to the reason it is skipped, a ``str`` (``"malformed"``,
    ``"external_url"``, ``"non_concept"``, ``"language"``, ``"relation"``,
    ``"negated"``); nothing is raised.  One field rule serves both
    formats: a concept or relation whose name normalizes to empty makes the
    line malformed.  ``allowed`` is the relation filter's set, or None for
    no filter.  Each relation URI is memoized to its verdict, ``(relation,
    skip)``, ``"external_url"`` or ``"malformed"``, and so is each plain
    relation field (a fixture keeps ``external_url`` edges).  ``skip`` is
    ``"relation"`` when the filter drops the relation, else ``"negated"``
    for a relation with a leading ``Not``, else None; it is the last check
    of a line, so a negated line of a dropped relation counts as
    ``"relation"``.
    Each concept URI is memoized to ``(name, None)`` for an English
    concept, else to ``(None, reason)``.
    """

    def __init__(self, allowed: frozenset[str] | None = None):
        self._allowed = allowed
        self._relation_uris: dict[str, tuple[str, str | None] | str] = {}
        self._relations: dict[str, tuple[str, str | None]] = {}
        self._concepts: dict[str, tuple[str | None, str | None]] = {}

    def relation(self, raw: str) -> tuple[str, str | None]:
        """The verdict on a plain relation field, memoized."""
        return self._relations.get(raw) or self._relation(raw)

    def _relation(self, raw: str) -> tuple[str, str | None]:
        relation, negated = normalize_relation(raw)
        if self._allowed is not None and relation not in self._allowed:
            verdict = relation, "relation"
        else:
            verdict = relation, "negated" if negated else None
        self._relations[raw] = verdict
        return verdict

    def _relation_uri(self, uri: str) -> tuple[str, str | None] | str:
        verdict = self.relation(uri[3:]) if uri.startswith("/r/") else None
        if not verdict or not verdict[0]:
            verdict = "malformed"
        elif verdict[0] == "external_url":
            verdict = "external_url"
        self._relation_uris[uri] = verdict
        return verdict

    def _concept(self, uri: str) -> tuple[str | None, str | None]:
        """``/c/en/sun/n`` -> ("sun", None); ``/c/fr/soleil`` -> (None,
        "language"); a URI outside ``/c/`` -> (None, "non_concept"); one
        with no language or a name that normalizes to empty -> (None,
        "malformed")."""
        parts = uri.split("/")
        if not uri.startswith("/c/"):
            verdict = None, "non_concept"
        elif len(parts) < 4 or not parts[2] or not (name := normalize_concept(parts[3])):
            verdict = None, "malformed"
        else:
            verdict = (name, None) if parts[2] == "en" else (None, "language")
        self._concepts[uri] = verdict
        return verdict

    def assertion(self, line: str) -> tuple[str, str, str] | str:
        """A dump line; what skips it comes first in the order of its
        fields: the relation URI, the start URI, the end URI, then
        ``language``, the metadata and last the relation's ``skip``."""
        fields = line.rstrip("\n").split("\t")
        if len(fields) != 5:
            return "malformed"
        _, rel_uri, start_uri, end_uri, meta = fields
        relation = self._relation_uris.get(rel_uri) or self._relation_uri(rel_uri)
        if isinstance(relation, str):
            return relation
        start, start_skip = self._concepts.get(start_uri) or self._concept(start_uri)
        if start_skip not in (None, "language"):
            return start_skip
        end, end_skip = self._concepts.get(end_uri) or self._concept(end_uri)
        if end_skip not in (None, "language"):
            return end_skip
        if start_skip or end_skip:
            return "language"
        meta = meta.strip()
        if meta:
            # json.loads(meta) without its wrappers: the same verdict, as
            # ``meta`` has no whitespace at either end
            try:
                data, stop = _JSON.raw_decode(meta)
            except (ValueError, RecursionError):
                return "malformed"
            # a weight must be a number that a float holds
            weight = data.get("weight", 0) if isinstance(data, dict) else 0
            if stop != len(meta) or type(weight) not in (int, float) or not _is_float(weight):
                return "malformed"
        relation, skip = relation
        return skip or (start, relation, end)

    def plain(self, line: str) -> tuple[str, str, str] | str:
        fields = line.rstrip("\n").split("\t")
        if len(fields) not in (3, 4):
            return "malformed"
        relation, skip = self.relation(fields[1])
        subject, obj = normalize_concept(fields[0]), normalize_concept(fields[2])
        if not (subject and relation and obj) or len(fields) == 4 and not _is_float(fields[3]):
            return "malformed"
        return skip or (subject, relation, obj)


def _is_float(value) -> bool:
    """Whether ``float`` takes ``value``: a weight field, as text or as
    ASCII bytes, or a JSON number (an int too large for a float is not)."""
    try:
        float(value)
        return True
    except (ValueError, OverflowError):
        return False


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


def _append_even(g: KnowledgeGraph, parser: _LineParser, data: bytes) -> bool:
    """Append the kept rows of an even block of plain lines to ``g``, count
    the rows that their relation's verdict skips, under its reason, and
    return True; or return False, having changed nothing, when ``data`` is
    not an even block or one of its fields would make its line malformed.

    Each distinct field is checked once, with the per-line rule's own steps:
    a relation field's verdict from ``parser``'s memo, ``normalize_concept``
    on a concept field (empty is malformed) and ``_is_float`` on a weight.
    So the rows, their order and the counts, reasons in the order of their
    first row, are those of the per-line rule."""
    first_end = data.find(b"\n")
    width = data.count(b"\t", 0, first_end if first_end >= 0 else len(data)) + 1
    if width not in _EVEN_LINE or not data.isascii() or b"#" in data:
        return False
    ended = data[-1] == 10
    a = np.frombuffer(data, dtype=np.uint8)
    kinds = a[a < 32]
    if not ended:
        kinds = np.append(kinds, 10)
    if len(kinds) % width or not (kinds.reshape(-1, width) == _EVEN_LINE[width]).all():
        return False
    # split as bytes, and only the distinct fields decoded: a small object
    # per field, and no copy of the block as text
    fields = data.replace(b"\n", b"\t").split(b"\t")
    if ended:
        fields.pop()
    subjects, relations, objects = fields[0::width], fields[1::width], fields[2::width]
    verdicts = {raw: parser.relation(raw.decode()) for raw in set(relations)}
    names = {raw: normalize_concept(raw.decode()) for raw in set(subjects).union(objects)}
    weights = set(fields[3::4]) if width == 4 else ()
    if not all(relation for relation, _ in verdicts.values()) or not all(names.values()) \
            or not all(map(_is_float, weights)):
        return False
    if any(skip for _, skip in verdicts.values()):
        skips = [verdicts[raw][1] for raw in relations]
        for reason, n in Counter(skips).items():
            if reason:
                g.stats.skip(reason, n)
        keep = [not skip for skip in skips]
        subjects, relations, objects = (list(compress(column, keep))
                                        for column in (subjects, relations, objects))
    concept_ids = _intern(g.concepts, g._concept_names, names,
                          chain.from_iterable(zip(subjects, objects)))
    relation_ids = _intern(g.relations, g._relation_names,
                           {raw: relation for raw, (relation, _) in verdicts.items()}, relations)
    g.subject += array("i", map(concept_ids.__getitem__, subjects))
    g.relation += array("i", map(relation_ids.__getitem__, relations))
    g.object += array("i", map(concept_ids.__getitem__, objects))
    return True


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

    Malformed lines, invalid UTF-8 among them, are counted under
    ``"malformed"`` like any other skip reason, never fatal, and no line
    number is kept.  Bad JSON metadata, a ``"weight"`` that is not a number
    (nor an int that overflows a float), a plain fourth field that is not a
    float, and a concept or relation, in a dump or a plain line, whose name
    normalizes to empty make a line malformed.  The relation filter comes
    after every check, so a line it would drop still counts as malformed;
    last, a line whose relation has a leading ``Not`` counts as
    ``"negated"``, so one that the filter drops counts as ``"relation"``.
    A byte-order mark at the start of the file is dropped, so it is not
    part of the first name.
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
    as a kept line's fields or as a skip reason, ``"malformed"`` among
    them, and this loop only dispatches and counts.  The parser memoizes
    the verdict on each relation URI and concept URI for the length of the
    load (a dump repeats them, as a concept takes part in many edges), and
    decodes the metadata with one ``JSONDecoder.raw_decode`` call.  Either way a kept
    line's fields are interned straight into the graph's id columns, so
    concept ids follow the order of the first kept line, subject before
    object; no ``Triple`` is built.
    """
    parser = _LineParser((relation_filter or RelationFilter()).allowed)
    g = KnowledgeGraph()
    skip, append = g.stats.skip, g._append
    with _open(path) as fh:
        for data in _blocks(fh):
            if _append_even(g, parser, data):
                continue
            for line in _block_lines(data):
                if not line.isascii() and not _is_utf8(line):
                    parsed = "malformed"
                elif line.startswith("/a/") and line.count("\t") == 4:
                    parsed = parser.assertion(line)
                elif (stripped := line.strip()) and not stripped.startswith("#"):
                    parsed = parser.plain(line)
                else:
                    continue
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

    A line that is not UTF-8 raises MalformedLine naming it and the file,
    and so does an entry with a leading ``Not`` (``NotDesires``): the loader
    keeps no negated edge, so such an entry would admit nothing of its own
    and must not be read as its positive relation.  The file is read as
    ``load_graph`` reads a graph: in blocks, a ``.gz`` one decompressed, a
    leading byte-order mark dropped, and lines ending at ``\\r\\n``,
    ``\\n`` or ``\\r``."""
    relations = set()
    with _open(path) as fh:
        lines = chain.from_iterable(map(_block_lines, _blocks(fh)))
        for line_no, line in enumerate(lines, start=1):
            if not line.isascii() and not _is_utf8(line):
                raise MalformedLine(line_no, f"not valid UTF-8 ({path})")
            entry = line.strip()
            if entry and not entry.startswith("#"):
                relation, negated = normalize_relation(entry)
                if negated:
                    raise MalformedLine(line_no, f"negated relation {entry!r}, which "
                                                 f"no graph edge keeps ({path})")
                relations.add(relation)
    return frozenset(relations)
