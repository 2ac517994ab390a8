"""Triple store for ConceptNet-style knowledge graph dumps.

Two input formats are accepted, detected per line:

* assertions dump: 5 tab-separated fields
  ``assertion-URI <TAB> relation-URI <TAB> start-URI <TAB> end-URI <TAB> json``
  with relation URIs like ``/r/Causes`` and concept URIs like ``/c/en/sun``;
  the edge weight is read from the ``"weight"`` key of the JSON metadata.
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
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Iterable, Iterator

from .errors import MalformedLine, NoTriplesLoaded

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
    non-empty set of normalized relation ids.  Language codes apply only to
    the assertions dump format (plain fixtures carry no language).
    """

    allowed: frozenset[str] | None = None
    drop_negated: bool = False
    languages: frozenset[str] = frozenset({"en"})

    def __post_init__(self):
        if self.allowed is not None:
            self.allowed = frozenset(self.allowed)
            if not self.allowed:
                raise ValueError("relation whitelist enabled but empty")
        self.languages = frozenset(self.languages)


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
    """Append-only triple list; a triple's id is its position in ``triples``.

    The pipeline reads triples by id and never walks the graph, so there
    are no adjacency indexes.  Loading is single-writer; once loaded the
    graph is treated as immutable and can be shared across concurrent
    readers.
    """

    def __init__(self):
        self.triples: list[Triple] = []
        self.stats = LoadStats()

    def add(self, triple: Triple) -> int:
        self.triples.append(triple)
        return len(self.triples) - 1

    def __len__(self) -> int:
        return len(self.triples)

    @classmethod
    def from_tuples(cls, rows: Iterable[tuple]) -> "KnowledgeGraph":
        """Build a graph from (subject, relation, object[, weight]) tuples.

        Relation names are normalized the same way the loaders normalize
        them, so ``("sun", "Causes", "light")`` works as a fixture row.
        """
        g = cls()
        for n, row in enumerate(rows):
            subject, relation, obj = row[0], row[1], row[2]
            weight = float(row[3]) if len(row) > 3 else 1.0
            rel, negated = normalize_relation(relation)
            g.add(Triple(normalize_concept(subject), rel,
                         normalize_concept(obj), weight, n, negated))
        g.stats.kept = len(g)
        return g


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


def parse_assertion_line(line: str, line_no: int = 0,
                         languages: frozenset[str] = frozenset({"en"})) -> Triple | Skip:
    """Parse one assertions-dump record into a Triple, or a Skip.

    Skips cover non-concept endpoints, unaccepted languages, and the
    external_url relation.  Structural garbage raises MalformedLine.
    """
    fields = line.rstrip("\n").split("\t")
    if len(fields) != 5:
        raise MalformedLine(line_no, f"expected 5 fields, got {len(fields)}")
    _, rel_uri, start_uri, end_uri, meta = fields
    if not rel_uri.startswith("/r/") or len(rel_uri) <= 3:
        raise MalformedLine(line_no, f"bad relation URI {rel_uri!r}")
    relation, negated = normalize_relation(rel_uri[3:])
    if relation == "external_url":
        return Skip("external_url")
    start = _parse_concept_uri(start_uri, line_no)
    if isinstance(start, Skip):
        return start
    end = _parse_concept_uri(end_uri, line_no)
    if isinstance(end, Skip):
        return end
    if start[0] not in languages or end[0] not in languages:
        return Skip("language")
    weight = 1.0
    meta = meta.strip()
    if meta:
        try:
            data = json.loads(meta)
        except json.JSONDecodeError as e:
            raise MalformedLine(line_no, f"bad JSON metadata: {e}") from e
        if isinstance(data, dict) and "weight" in data:
            weight = float(data["weight"])
    return Triple(start[1], relation, end[1], weight, line_no, negated)


def parse_plain_line(line: str, line_no: int = 0) -> Triple:
    """Parse one ``subject<TAB>relation<TAB>object[<TAB>weight]`` fixture line."""
    fields = line.rstrip("\n").split("\t")
    if len(fields) not in (3, 4):
        raise MalformedLine(line_no, f"expected 3 or 4 fields, got {len(fields)}")
    relation, negated = normalize_relation(fields[1])
    if not fields[0].strip() or not relation or not fields[2].strip():
        raise MalformedLine(line_no, "empty field")
    weight = 1.0
    if len(fields) == 4:
        try:
            weight = float(fields[3])
        except ValueError as e:
            raise MalformedLine(line_no, f"bad weight {fields[3]!r}") from e
    return Triple(normalize_concept(fields[0]), relation,
                  normalize_concept(fields[2]), weight, line_no, negated)


def _open_text(path) -> Iterator[str]:
    path = Path(path)
    opener = gzip.open if path.suffix == ".gz" else open
    with opener(path, "rt", encoding="utf-8") as fh:
        yield from fh


def load_graph(path, relation_filter: RelationFilter | None = None) -> KnowledgeGraph:
    """Load a dump or fixture file into a KnowledgeGraph.

    Malformed lines are counted, never fatal.  Raises NoTriplesLoaded when
    nothing survives the filter (wrong filter or wrong file), and OSError
    for unreadable paths.  Load statistics end up on ``graph.stats``.
    """
    flt = relation_filter or RelationFilter()
    g = KnowledgeGraph()
    for line_no, line in enumerate(_open_text(path), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        try:
            if line.count("\t") == 4 and line.startswith("/a/"):
                parsed = parse_assertion_line(line, line_no, flt.languages)
            else:
                parsed = parse_plain_line(line, line_no)
        except MalformedLine:
            g.stats.skip("malformed")
            continue
        if isinstance(parsed, Skip):
            g.stats.skip(parsed.reason)
            continue
        if flt.allowed is not None and parsed.relation not in flt.allowed:
            g.stats.skip("relation")
            continue
        if flt.drop_negated and parsed.negated:
            g.stats.skip("negated")
            continue
        g.add(parsed)
    g.stats.kept = len(g)
    if not g.triples:
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
