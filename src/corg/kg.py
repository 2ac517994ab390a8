"""Triple store for ConceptNet-style knowledge graph dumps.

Two input formats are accepted, detected per line:

* assertions dump: 5 tab-separated fields
  ``assertion-URI <TAB> relation-URI <TAB> start-URI <TAB> end-URI <TAB> json``
  with relation URIs like ``/r/Causes`` and concept URIs like ``/c/en/sun``;
  the edge weight is read from the ``"weight"`` key of the JSON metadata.
  Only edges between two English concepts are kept.
* plain fixture: ``subject <TAB> relation <TAB> object [<TAB> weight]``,
  ``#`` comments and blank lines allowed.

Concept identifiers are normalized to lowercase single tokens (multiword
concepts stay underscore-joined, e.g. ``annoy_your_spouse``); relation names
are normalized to lowercase snake_case (``AtLocation`` -> ``at_location``).
A leading ``Not`` on a relation becomes a ``negated`` flag on the triple.
"""

from __future__ import annotations

import gzip
import json
import re
import zlib
from array import array
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Iterable, Iterator

from .errors import CorruptArchive, MalformedLine, NoTriplesLoaded

_CAMEL_BOUNDARY = re.compile(r"(?<=[a-z0-9])(?=[A-Z])|(?<=[A-Z])(?=[A-Z][a-z])")


@dataclass(frozen=True)
class Triple:
    """One knowledge-graph edge with provenance and dump-provided confidence."""

    subject: str
    relation: str
    object: str
    weight: float = 1.0
    source_line: int = 0
    negated: bool = False


@dataclass(frozen=True)
class Skip:
    """Outcome of a parse that cleanly rejected a line (not an error)."""

    reason: str


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

    def skip(self, reason: str):
        self.skipped[reason] = self.skipped.get(reason, 0) + 1

    @property
    def total_skipped(self) -> int:
        return sum(self.skipped.values())


class KnowledgeGraph:
    """Append-only triple store held as array columns; a triple's id is its row.

    ``add`` interns names to ids (``concepts``, ``relations``) and appends
    to the ``subject``, ``relation`` and ``object`` id columns and to
    ``negated``, ``weight`` and ``source_line``; ``triple(i)`` and iteration
    build ``Triple`` values on demand.  There are no adjacency indexes.  Once
    loaded the graph is treated as immutable and can be shared by readers.
    """

    def __init__(self, triples: Iterable[Triple] = ()):
        self.concepts: dict[str, int] = {}
        self.relations: dict[str, int] = {}
        self._concept_names, self._relation_names = [], []
        self.subject, self.relation, self.object = array("i"), array("i"), array("i")
        self.negated, self.weight, self.source_line = array("b"), array("d"), array("q")
        self.stats = LoadStats()
        for t in triples:
            self.add(t)

    def add(self, triple: Triple) -> int:
        return self._append(triple.subject, triple.relation, triple.object,
                            triple.weight, triple.source_line, triple.negated)

    def _append(self, subject: str, relation: str, obj: str, weight: float,
                source_line: int, negated: bool) -> int:
        self.subject.append(_id_of(self.concepts, self._concept_names, subject))
        self.relation.append(_id_of(self.relations, self._relation_names, relation))
        self.object.append(_id_of(self.concepts, self._concept_names, obj))
        self.negated.append(negated)
        self.weight.append(weight)
        self.source_line.append(source_line)
        return len(self.subject) - 1

    def triple(self, i: int) -> Triple:
        return Triple(self._concept_names[self.subject[i]],
                      self._relation_names[self.relation[i]],
                      self._concept_names[self.object[i]],
                      self.weight[i], self.source_line[i], bool(self.negated[i]))

    def __iter__(self) -> Iterator[Triple]:
        return map(self.triple, range(len(self)))

    def __len__(self) -> int:
        return len(self.subject)

    @classmethod
    def from_tuples(cls, rows: Iterable[tuple]) -> "KnowledgeGraph":
        """Build a graph from (subject, relation, object[, weight]) tuples.

        Relation names are normalized the same way the loaders normalize
        them, so ``("sun", "Causes", "light")`` works as a fixture row.
        """
        g = cls()
        for n, (subject, relation, obj, *weight) in enumerate(rows):
            rel, negated = normalize_relation(relation)
            g.add(Triple(normalize_concept(subject), rel, normalize_concept(obj),
                         float(weight[0]) if weight else 1.0, n, negated))
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


def _parse_concept_uri(uri: str, line_no: int) -> tuple[str, str] | Skip:
    """``/c/en/sun/n`` -> ("en", "sun"); non-concept URIs become a Skip."""
    if not uri.startswith("/c/"):
        return Skip("non_concept")
    parts = uri.split("/")
    if len(parts) < 4 or not parts[2] or not parts[3]:
        raise MalformedLine(line_no, f"bad concept URI {uri!r}")
    return parts[2], normalize_concept(parts[3])


class _LineParser:
    """The one parser of dump and fixture lines, with per-load memos.

    A line parses to the fields ``(subject, relation, object, weight,
    source_line, negated)`` of a ``Triple``, or to a ``Skip``.  Raw relation
    strings are memoized to their ``normalize_relation`` result, and concept
    URIs to their ``_parse_concept_uri`` result; a URI that raises
    MalformedLine is not memoized, so it raises on every use.
    """

    def __init__(self):
        self._relations: dict[str, tuple[str, bool]] = {}
        self._concepts: dict[str, tuple[str, str] | Skip] = {}

    def _relation(self, raw: str) -> tuple[str, bool]:
        hit = self._relations.get(raw)
        if hit is None:
            hit = self._relations[raw] = normalize_relation(raw)
        return hit

    def _concept(self, uri: str, line_no: int) -> tuple[str, str] | Skip:
        hit = self._concepts.get(uri)
        if hit is None:
            hit = self._concepts[uri] = _parse_concept_uri(uri, line_no)
        return hit

    def assertion(self, line: str, line_no: int) -> tuple | Skip:
        fields = line.rstrip("\n").split("\t")
        if len(fields) != 5:
            raise MalformedLine(line_no, f"expected 5 fields, got {len(fields)}")
        _, rel_uri, start_uri, end_uri, meta = fields
        if not rel_uri.startswith("/r/") or len(rel_uri) <= 3:
            raise MalformedLine(line_no, f"bad relation URI {rel_uri!r}")
        relation, negated = self._relation(rel_uri[3:])
        if relation == "external_url":
            return Skip("external_url")
        start = self._concept(start_uri, line_no)
        if isinstance(start, Skip):
            return start
        end = self._concept(end_uri, line_no)
        if isinstance(end, Skip):
            return end
        if start[0] != "en" or end[0] != "en":
            return Skip("language")
        weight = 1.0
        meta = meta.strip()
        if meta:
            try:
                data = json.loads(meta)
            except (ValueError, RecursionError) as e:
                raise MalformedLine(line_no, f"bad JSON metadata: {e}") from e
            if isinstance(data, dict) and "weight" in data:
                weight = _json_weight(data["weight"], line_no)
        return start[1], relation, end[1], weight, line_no, negated

    def plain(self, line: str, line_no: int) -> tuple:
        fields = line.rstrip("\n").split("\t")
        if len(fields) not in (3, 4):
            raise MalformedLine(line_no, f"expected 3 or 4 fields, got {len(fields)}")
        relation, negated = self._relation(fields[1])
        if not fields[0].strip() or not relation or not fields[2].strip():
            raise MalformedLine(line_no, "empty field")
        weight = 1.0
        if len(fields) == 4:
            try:
                weight = float(fields[3])
            except ValueError as e:
                raise MalformedLine(line_no, f"bad weight {fields[3]!r}") from e
        return (normalize_concept(fields[0]), relation, normalize_concept(fields[2]),
                weight, line_no, negated)


def parse_assertion_line(line: str, line_no: int = 0) -> Triple | Skip:
    """Parse one assertions-dump record into a Triple, or a Skip.

    Skips cover non-concept endpoints, concepts in a language other than
    English, and the external_url relation.  Structural garbage raises
    MalformedLine.
    """
    parsed = _LineParser().assertion(line, line_no)
    return parsed if isinstance(parsed, Skip) else Triple(*parsed)


def _json_weight(value, line_no: int) -> float:
    """A JSON ``"weight"`` as a float; anything but a number is malformed."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:
            pass
    raise MalformedLine(line_no, f"weight is not a number: {value!r:.40}")


def parse_plain_line(line: str, line_no: int = 0) -> Triple:
    """Parse one ``subject<TAB>relation<TAB>object[<TAB>weight]`` fixture line."""
    return Triple(*_LineParser().plain(line, line_no))


def _open_text(path) -> Iterator[str]:
    """Lines of a UTF-8 text file; undecodable bytes become lone surrogates.

    A ``.gz`` file that is not gzip data, is cut short or is corrupt raises
    CorruptArchive.
    """
    path = Path(path)
    opener = gzip.open if path.suffix == ".gz" else open
    try:
        with opener(path, "rt", encoding="utf-8", errors="surrogateescape") as fh:
            yield from fh
    except (gzip.BadGzipFile, EOFError, zlib.error) as e:
        raise CorruptArchive(f"{path}: {e}") from e


def _is_utf8(line: str) -> bool:
    """False for a line read from bytes that are not valid UTF-8."""
    try:
        line.encode("utf-8")
        return True
    except UnicodeEncodeError:
        return False


def load_graph(path, relation_filter: RelationFilter | None = None) -> KnowledgeGraph:
    """Load a dump or fixture file into a KnowledgeGraph.

    Malformed lines, invalid UTF-8 among them, are counted, never fatal.
    Raises NoTriplesLoaded when nothing survives the filter (wrong filter
    or wrong file), CorruptArchive for a ``.gz`` file that does not
    decompress, and OSError for unreadable paths.  Load statistics end up
    on ``graph.stats``.

    Every line goes through one ``_LineParser``, which memoizes the parse
    of each relation string and concept URI for the length of the load (a
    dump repeats them, as a concept takes part in many edges).  A kept
    line's fields are interned straight into the graph's id columns; no
    ``Triple`` is built.
    """
    flt = relation_filter or RelationFilter()
    parser = _LineParser()
    g = KnowledgeGraph()
    for line_no, line in enumerate(_open_text(path), start=1):
        if not line.isascii() and not _is_utf8(line):
            g.stats.skip("malformed")
            continue
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        try:
            if line.count("\t") == 4 and line.startswith("/a/"):
                parsed = parser.assertion(line, line_no)
            else:
                parsed = parser.plain(line, line_no)
        except MalformedLine:
            g.stats.skip("malformed")
            continue
        if isinstance(parsed, Skip):
            g.stats.skip(parsed.reason)
            continue
        if flt.allowed is not None and parsed[1] not in flt.allowed:
            g.stats.skip("relation")
            continue
        g._append(*parsed)
    g.stats.kept = len(g)
    if not g:
        raise NoTriplesLoaded(f"no triples loaded from {path}")
    return g


def default_relation_whitelist() -> frozenset[str]:
    """Relation ids from the whitelist file shipped with the package."""
    text = resources.files("corg.data").joinpath("relations_default.txt").read_text("utf-8")
    return frozenset(_read_relation_lines(text.splitlines()))


def load_relation_whitelist(path) -> frozenset[str]:
    """Read a one-relation-per-line whitelist file (# comments allowed)."""
    with open(path, encoding="utf-8") as fh:
        return frozenset(_read_relation_lines(fh))


def _read_relation_lines(lines: Iterable[str]) -> Iterator[str]:
    for line in lines:
        entry = line.strip()
        if entry and not entry.startswith("#"):
            yield normalize_relation(entry)[0]
