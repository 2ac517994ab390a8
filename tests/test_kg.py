import gc
import gzip
import json
import random
from importlib import resources
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from corg import (CopaProblem, EmbeddingTable, KnowledgeGraph, Pipeline, PipelineConfig,
                  RelationFilter, SineConfig, Triple, TripleColumns,
                  default_relation_whitelist, export_tptp, load_graph,
                  normalize_relation, parse_tptp, relation_predicate)
from corg import kg
from corg.errors import CorruptArchive, MalformedLine, NoTriplesLoaded
from corg.kg import _LineParser, load_relation_whitelist
from conftest import opened_files
from oracles import reference_load_graph


def parse_assertion_line(line: str) -> Triple | str:
    """One dump line through a fresh ``_LineParser``, as a Triple or the
    reason it is skipped."""
    parsed = _LineParser().assertion(line)
    return parsed if isinstance(parsed, str) else Triple(*parsed)


def parse_plain_line(line: str) -> Triple | str:
    """One fixture line through a fresh ``_LineParser``, as a Triple or the
    reason it is skipped."""
    parsed = _LineParser().plain(line)
    return parsed if isinstance(parsed, str) else Triple(*parsed)


def dump_line(rel, start, end, meta="{}"):
    return f"/a/[{rel},{start},{end}]\t{rel}\t{start}\t{end}\t{meta}"


class TestParseAssertionLine:
    def test_concept_edge_with_weight(self):
        # the weight is checked, not kept
        line = dump_line("/r/Causes", "/c/en/sun", "/c/en/light", '{"weight": 2.0}')
        t = parse_assertion_line(line)
        assert t == Triple("sun", "causes", "light")

    def test_external_url_skipped(self):
        line = dump_line("/r/ExternalURL", "/c/en/sun", "http://example.org/sun")
        assert parse_assertion_line(line) == "external_url"

    def test_not_prefix_skipped_as_negated(self):
        line = dump_line("/r/NotDesires", "/c/en/person", "/c/en/pain")
        assert parse_assertion_line(line) == "negated"
        # the relation filter comes first: a negated edge it drops is "relation"
        assert _LineParser(frozenset({"causes"})).assertion(line) == "relation"
        # and every other check before it
        assert parse_assertion_line(line.replace("{}", "{")) == "malformed"
        assert parse_assertion_line(line.replace("/c/en/pain", "/c/fr/douleur")) == "language"

    def test_non_concept_endpoint_skipped(self):
        line = dump_line("/r/Causes", "/c/en/sun", "http://example.org")
        assert parse_assertion_line(line) == "non_concept"

    def test_language_filter(self):
        line = dump_line("/r/Causes", "/c/de/sonne", "/c/de/licht")
        assert parse_assertion_line(line) == "language"
        line = dump_line("/r/Synonym", "/c/en/sun", "/c/de/sonne")
        assert parse_assertion_line(line) == "language"

    def test_sense_suffix_dropped(self):
        line = dump_line("/r/IsA", "/c/en/sun/n", "/c/en/star/n/astronomy")
        t = parse_assertion_line(line)
        assert (t.subject, t.object) == ("sun", "star")

    def test_wrong_field_count(self):
        assert parse_assertion_line("/a/x\t/r/Causes\t/c/en/sun") == "malformed"

    def test_bad_metadata_json(self):
        line = dump_line("/r/Causes", "/c/en/sun", "/c/en/light", "{not json")
        assert parse_assertion_line(line) == "malformed"

    @pytest.mark.parametrize("weight", ['"heavy"', '"2.0"', "null", "true", "[1]", "{}",
                                        pytest.param("1" + "0" * 400, id="1e400")])
    def test_weight_that_is_not_a_number(self, weight):
        line = dump_line("/r/Causes", "/c/en/sun", "/c/en/light", f'{{"weight": {weight}}}')
        assert parse_assertion_line(line) == "malformed"

    def test_deeply_nested_metadata(self):
        line = dump_line("/r/Causes", "/c/en/sun", "/c/en/light", "[" * 100_000)
        assert parse_assertion_line(line) == "malformed"

    def test_multiword_concept(self):
        line = dump_line("/r/HasSubevent", "/c/en/snore", "/c/en/annoy_your_spouse")
        t = parse_assertion_line(line)
        assert t == Triple("snore", "has_subevent", "annoy_your_spouse")


class TestNormalizeRelation:
    @pytest.mark.parametrize("raw,expected", [
        ("AtLocation", "at_location"),
        ("IsA", "is_a"),
        ("HasSubevent", "has_subevent"),
        ("ExternalURL", "external_url"),
        ("MotivatedByGoal", "motivated_by_goal"),
        ("causes", "causes"),
        ("dbpedia/genre", "dbpedia_genre"),
    ])
    def test_camel_to_snake(self, raw, expected):
        assert normalize_relation(raw) == (expected, False)

    def test_not_prefix(self):
        assert normalize_relation("NotCapableOf") == ("capable_of", True)
        # "Not" only counts when it prefixes a capitalized relation name
        assert normalize_relation("Notable") == ("notable", False)


class TestPlainLine:
    def test_basic(self):
        t = parse_plain_line("sun\tCauses\tlight")
        assert t == Triple("sun", "causes", "light")

    def test_weight(self):
        # a fourth field that parses as a float is accepted, and not kept
        assert parse_plain_line("a\tr\tb\t0.5") == Triple("a", "r", "b")

    def test_bad_weight(self):
        assert parse_plain_line("a\tr\tb\theavy") == "malformed"

    def test_field_count(self):
        assert parse_plain_line("a\tr") == "malformed"


class TestLoadGraph:
    def test_external_url_line_dropped(self, tmp_path):
        lines = [
            dump_line("/r/Causes", "/c/en/sun", "/c/en/light"),
            dump_line("/r/AtLocation", "/c/en/shadow", "/c/en/light"),
            dump_line("/r/ExternalURL", "/c/en/sun", "http://example.org/sun"),
            dump_line("/r/AtLocation", "/c/en/shadow", "/c/en/ground"),
            dump_line("/r/AtLocation", "/c/en/grass", "/c/en/ground"),
        ]
        path = tmp_path / "dump.tsv"
        path.write_text("\n".join(lines) + "\n", "utf-8")
        g = load_graph(path)
        assert len(g) == 4
        assert g.stats.kept == 4
        assert g.stats.skipped == {"external_url": 1}

    @pytest.mark.parametrize("whitelist", [False, True])
    def test_empty_names_in_a_dump_are_malformed(self, tmp_path, fig_table, whitelist):
        # a start, end or relation segment that normalizes to empty makes the
        # line malformed, as an empty field does in a plain line: never a
        # concept or relation '', English or not, filtered or not
        lines = [
            dump_line("/r/Causes", "/c/en/sun", "/c/en/light"),
            dump_line("/r/AtLocation", "/c/en/shadow", "/c/en/light"),
            dump_line("/r/Causes", "/c/en/ ", "/c/en/light"),
            dump_line("/r/Causes", "/c/en/sun", "/c/en/ "),
            dump_line("/r/Causes", "/c/fr/ ", "/c/en/light"),
            dump_line("/r/ ", "/c/en/sun", "/c/en/light"),
        ]
        path = tmp_path / "dump.tsv"
        path.write_text("\n".join(lines) + "\n", "utf-8")
        flt = RelationFilter(default_relation_whitelist() if whitelist else None)
        graph = load_graph(path, flt)
        assert graph.stats.kept == 2
        assert graph.stats.skipped == {"malformed": 4}
        assert "" not in graph.concepts and "" not in graph.relations
        # every axiom of the graph is selected, and every exported file parses
        cfg = PipelineConfig(include_inverse=True, prefilter_theta=-1.0,
                             sine=SineConfig(tolerance=1e9))
        problem = CopaProblem(1, "The sun.", "effect", ["The light.", "The shadow."])
        result = Pipeline(graph, fig_table, cfg).run_problem(problem)
        assert {key for t in result.texts for key in t.keys} == {0, 1, 2, 3}
        written = export_tptp(result, tmp_path / "out")
        for out in written:
            text = out.read_text("utf-8")
            if out.suffix == ".p":
                parse_tptp(text)
            else:
                json.loads(text)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.tsv"
        path.write_text("", "utf-8")
        with pytest.raises(NoTriplesLoaded):
            load_graph(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_graph(tmp_path / "nope.tsv")

    def test_fixture_graph_indexes(self, fig_graph_path):
        g = load_graph(fig_graph_path)
        subjects = [t.subject for t in g]
        assert subjects == ["sun", "shadow", "shadow", "grass"]
        objects = [t.object for t in g]
        assert objects == ["light", "light", "ground", "ground"]

    def test_comments_and_blanks(self, tmp_path):
        path = tmp_path / "fix.tsv"
        path.write_text("# comment\n\nsun\tCauses\tlight\n", "utf-8")
        assert len(load_graph(path)) == 1

    def test_malformed_counted_not_fatal(self, tmp_path):
        path = tmp_path / "fix.tsv"
        path.write_text("garbage line without tabs\nsun\tCauses\tlight\n", "utf-8")
        g = load_graph(path)
        assert len(g) == 1
        assert g.stats.skipped["malformed"] == 1

    def test_non_numeric_weight_counted_malformed(self, tmp_path):
        path = tmp_path / "dump.tsv"
        path.write_text("\n".join([
            dump_line("/r/Causes", "/c/en/sun", "/c/en/light", '{"weight": "heavy"}'),
            dump_line("/r/Causes", "/c/en/sun", "/c/en/heat", '{"weight": 2.0}'),
        ]) + "\n", "utf-8")
        g = load_graph(path)
        assert list(g) == [Triple("sun", "causes", "heat")]
        assert g.stats.skipped == {"malformed": 1}

    @pytest.mark.parametrize("meta", ["{", '{"weight": "heavy"}'])
    def test_bad_metadata_counts_before_the_relation_filter(self, tmp_path, meta):
        # the filter would drop the line, but its metadata is checked first
        path = tmp_path / "dump.tsv"
        path.write_text("\n".join([
            dump_line("/r/IsA", "/c/en/sun", "/c/en/star", meta),
            dump_line("/r/IsA", "/c/en/sun", "/c/en/light"),
            dump_line("/r/Causes", "/c/en/sun", "/c/en/heat"),
        ]) + "\n", "utf-8")
        g = load_graph(path, RelationFilter(allowed=frozenset({"causes"})))
        assert list(g) == [Triple("sun", "causes", "heat")]
        assert g.stats.skipped == {"malformed": 1, "relation": 1}

    def test_invalid_utf8_counted_malformed(self, tmp_path):
        path = tmp_path / "dump.tsv"
        path.write_bytes(b"sun\tCauses\tli\xffght\n"
                         b"sun\tCauses\tlight\r\n"
                         + dump_line("/r/Causes", "/c/en/sun", "/c/en/heat").encode()
                         + b"\n\xc3\n")
        g = load_graph(path)
        assert [t.object for t in g] == ["light", "heat"]
        assert g.stats.skipped == {"malformed": 2}

    def test_relation_whitelist(self, tmp_path):
        path = tmp_path / "fix.tsv"
        path.write_text("sun\tCauses\tlight\nsun\tIsA\tstar\n", "utf-8")
        g = load_graph(path, RelationFilter(allowed=frozenset({"causes"})))
        assert [t.relation for t in g] == ["causes"]
        assert g.stats.skipped["relation"] == 1

    def test_negated_lines_skipped(self, tmp_path):
        # they have no translation, so the graph never holds them
        path = tmp_path / "fix.tsv"
        path.write_text("person\tNotDesires\tpain\nsun\tCauses\tlight\n"
                        "sun\tNotCapableOf\tfly\n", "utf-8")
        g = load_graph(path)
        assert list(g) == [Triple("sun", "causes", "light")]
        assert list(g.concepts) == ["sun", "light"]
        assert (g.stats.kept, g.stats.skipped) == (1, {"negated": 2})
        g = load_graph(path, RelationFilter(frozenset({"causes", "desires"})))
        assert g.stats.skipped == {"negated": 1, "relation": 1}

    def test_gzip_transparent(self, tmp_path):
        path = tmp_path / "fix.tsv.gz"
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("sun\tCauses\tlight\n")
        assert len(load_graph(path)) == 1

    @pytest.mark.parametrize("damage", ["not gzip", "cut short", "corrupt"])
    def test_damaged_gzip_is_corrupt_archive(self, tmp_path, damage):
        data = bytearray(gzip.compress(b"sun\tCauses\tlight\n" * 100))
        if damage == "not gzip":
            data = bytearray(b"sun\tCauses\tlight\n")
        elif damage == "cut short":
            data = data[:len(data) // 2]
        else:
            data[12:16] = b"\xff\x00\xff\x00"
        path = tmp_path / "dump.tsv.gz"
        path.write_bytes(bytes(data))
        with pytest.raises(CorruptArchive, match="dump.tsv.gz"):
            load_graph(path)

    @pytest.mark.parametrize("suffix", [".tsv", ".tsv.gz"])
    @pytest.mark.parametrize("dump", [False, True])
    def test_byte_order_mark_dropped(self, tmp_path, suffix, dump):
        # a mark is not part of the first name; later lines keep a leading one
        first = dump_line("/r/Causes", "/c/en/sun", "/c/en/light") if dump \
            else "sun\tCauses\tlight"
        data = f"\ufeff{first}\n\ufeffmoon\tCauses\tdark\n".encode("utf-8")
        path = tmp_path / ("dump" + suffix)
        path.write_bytes(gzip.compress(data) if suffix == ".tsv.gz" else data)
        g = load_graph(path)
        assert list(g.concepts) == ["sun", "light", "\ufeffmoon", "dark"]
        assert g.stats.skipped == {}

    def test_shipped_whitelist_read_as_a_given_one(self):
        shipped = resources.files("corg.data").joinpath("relations_default.txt")
        with resources.as_file(shipped) as path:
            assert default_relation_whitelist() == load_relation_whitelist(path)

    def test_byte_order_mark_dropped_from_whitelist(self, tmp_path):
        path = tmp_path / "rels.txt"
        path.write_bytes("\ufeffCauses\nIsA\n".encode("utf-8"))
        assert load_relation_whitelist(path) == {"causes", "is_a"}

    def test_gzip_whitelist(self, tmp_path):
        # read as a plain whitelist: mark dropped, every line end, comments
        path = tmp_path / "rels.txt.gz"
        data = "\ufeffCauses\r\nIsA\rPartOf\n# HasA\r\n\r\n AtLocation ".encode("utf-8")
        path.write_bytes(gzip.compress(data))
        assert load_relation_whitelist(path) == {"causes", "is_a", "part_of", "at_location"}
        path.write_bytes(gzip.compress(data)[:-6])
        with pytest.raises(CorruptArchive, match="rels.txt.gz"):
            load_relation_whitelist(path)

    def test_whitelist_read_in_tiny_blocks(self, tmp_path, monkeypatch):
        # blocks of 2 bytes cut between the two bytes of "\r\n" and inside names
        monkeypatch.setattr(kg, "_BLOCK_BYTES", 2)
        path = tmp_path / "rels.txt"
        path.write_bytes("\ufeffCauses\r\nIsA\rPartOf\n# HasA\r\n\r\nAtLocation".encode("utf-8"))
        assert load_relation_whitelist(path) == {"causes", "is_a", "part_of", "at_location"}
        path.write_bytes(b"causes\r\n\ris_\xffa\n")
        with pytest.raises(MalformedLine, match=r"line 3: not valid UTF-8 \(.*rels\.txt\)"):
            load_relation_whitelist(path)

    def test_undecodable_whitelist_names_file_and_line(self, tmp_path):
        path = tmp_path / "rels.txt"
        path.write_bytes(b"causes\nis_\xffa\n")
        with opened_files() as opened, \
                pytest.raises(MalformedLine, match=r"line 2: not valid UTF-8 \(.*rels\.txt\)"):
            load_relation_whitelist(path)
        assert len(opened) == 1 and opened[0].closed  # not left to the garbage collector

    def test_empty_whitelist_rejected(self):
        with pytest.raises(ValueError):
            RelationFilter(allowed=frozenset())


def edges(graph, subject=None, obj=None):
    return [(t.subject, t.relation, t.object) for t in graph
            if subject in (None, t.subject) and obj in (None, t.object)]


class TestNeighborQueries:
    def test_neighbors_out(self, fig_graph):
        assert edges(fig_graph, subject="shadow") == [
            ("shadow", "at_location", "light"),
            ("shadow", "at_location", "ground"),
        ]

    def test_unknown_concept_empty(self, fig_graph):
        assert edges(fig_graph, obj="unknown_concept") == []
        assert edges(fig_graph, subject="unknown_concept") == []

    def test_neighbors_in_ground(self, fig_graph):
        assert edges(fig_graph, obj="ground") == [
            ("shadow", "at_location", "ground"),
            ("grass", "at_location", "ground"),
        ]
        assert len(edges(fig_graph, subject="sun")) == 1


class TestInvariants:
    def test_degree_sums_match_triple_count(self, fig_graph):
        # a triple's id is its position: add() hands out 0, 1, 2, ...
        g = KnowledgeGraph()
        ids = [g.add(t) for t in fig_graph]
        assert ids == list(range(len(fig_graph)))
        assert list(g) == list(fig_graph)
        assert len(g) == fig_graph.stats.kept == 4

    def test_every_constructor_counts_the_kept_triples(self, fig_graph):
        assert KnowledgeGraph(fig_graph).stats.kept == 4
        assert KnowledgeGraph().stats.kept == 0
        g = KnowledgeGraph.from_tuples([("person", "NotDesires", "pain"),
                                        ("sun", "Causes", "light")])
        assert list(g) == [Triple("sun", "causes", "light")]
        assert (g.stats.kept, g.stats.skipped) == (1, {"negated": 1})

    def test_filter_monotonicity(self, tmp_path):
        rng = random.Random(11)
        relations = ["causes", "is_a", "part_of", "desires", "at_location"]
        lines = []
        for i in range(60):
            rel = rng.choice(relations)
            lines.append(f"s{rng.randrange(8)}\t{rel}\to{rng.randrange(8)}")
        path = tmp_path / "rand.tsv"
        path.write_text("\n".join(lines) + "\n", "utf-8")
        full = load_graph(path)
        for _ in range(10):
            big = frozenset(rng.sample(relations, rng.randrange(2, 6)))
            small = frozenset(rng.sample(sorted(big), rng.randrange(1, len(big) + 1)))
            count = {}
            for allowed in (big, small):
                try:
                    count[allowed] = len(load_graph(path, RelationFilter(allowed=allowed)))
                except NoTriplesLoaded:
                    count[allowed] = 0
            assert count[small] <= count[big] <= len(full)

    def test_reload_determinism(self, fig_graph_path):
        g1 = load_graph(fig_graph_path)
        g2 = load_graph(fig_graph_path)
        assert list(g1) == list(g2)
        assert g1.stats == g2.stats


# concepts spelled like a relation, its predicate or its inv_ predicate
_CONCEPTS = st.sampled_from(["sun", "light", "causes", "at_location", "atlocation",
                             "inv_causes", "inv_atlocation"]) \
    | st.from_regex(r"[a-z][a-z0-9_]{0,6}", fullmatch=True)
_TRIPLES = st.builds(Triple, _CONCEPTS, st.sampled_from(["causes", "at_location", "is_a"]),
                     _CONCEPTS)
_COLUMNS = ("subject", "predicate", "inverse", "object")


class TestColumns:
    """The graph holds ids only; TripleColumns copies them."""

    @settings(max_examples=200, derandomize=True, database=None)
    @given(st.lists(_TRIPLES, max_size=8))
    @example([Triple("causes", "causes", "inv_causes"), Triple("causes", "causes", "causes"),
              Triple("atlocation", "at_location", "sun")])
    def test_rows_round_trip_and_columns_are_copies(self, triples):
        graph = KnowledgeGraph()
        assert [graph.add(t) for t in triples] == list(range(len(triples)))
        assert [graph.triple(i) for i in range(len(graph))] == triples
        assert list(graph) == triples

        columns = TripleColumns(graph, EmbeddingTable(2, {}), inverse=True)
        names = list(columns.symbols.ids)
        for i, t in enumerate(triples):
            predicate = relation_predicate(t.relation)
            assert [names[c[i]] for c in (columns.subject, columns.predicate,
                                          columns.inverse, columns.object)] == \
                [t.subject, predicate, "inv_" + predicate, t.object]

        pipeline = Pipeline(graph, EmbeddingTable(2, {}), PipelineConfig(include_inverse=True))
        before = {c: getattr(pipeline.columns, c).copy() for c in _COLUMNS}
        symbols = dict(pipeline.columns.symbols.ids)
        graph.add(Triple("fresh", "new_relation", "sun"))
        for c in _COLUMNS:
            assert np.array_equal(getattr(pipeline.columns, c), before[c])
        assert pipeline.columns.symbols.ids == symbols
        assert len(graph) == len(triples) + 1

    def test_load_stores_no_object_per_triple(self, tmp_path):
        n = 20_000
        path = tmp_path / "big.tsv"
        path.write_text("".join(f"c{i % 5000}\tCauses\tc{i * 7 % 5003}\n"
                                for i in range(n)), "utf-8")
        gc.collect()
        before = len(gc.get_objects())
        graph = load_graph(path)
        gc.collect()
        assert len(graph) == n
        assert len(gc.get_objects()) - before < n / 10


# Dump lines from small pools, so that URIs and relations repeat and the
# memo is hit: good URIs next to malformed ones ("/c/en/", "/c//sun", and
# "/c/en/ ", "/c/fr/ " and "/r/ ", whose names normalize to empty), Not
# relations, relation spellings that normalize alike, bad metadata, and
# lines the loader counts as malformed or does not count at all.
_URIS = st.sampled_from(3 * ["/c/en/sun", "/c/en/sun/n", "/c/en/Sun", "/c/en/annoy_your_spouse",
                              "/c/en/light/n/wn/x"]
                         + ["/c/en/", "/c//sun", "/c/en", "/c/fr/soleil", "/d/x", "/c/en/sun ",
                            "/c/en/ ", "/c/fr/ "])
_RELATION_URIS = st.sampled_from(2 * ["/r/Causes", "/r/NotDesires", "/r/Desires", "/r/AtLocation",
                                      "/r/NotCapableOf"]
                                 + ["/r/ExternalURL", "/r/dbpedia/genre", "/r/", "/x/Causes",
                                    "/r/Not", "/r/ "])
_METAS = st.sampled_from(['{"weight": 2.0}', '{"weight": "x"}', "", "{", '{"weight": NaN}',
                          '{"dataset": "a"}', '{"weight": 1e999}', '{"weight": -1}',
                          '\ufeff{"weight": 1}', '{"weight": 1} x', "{}{}", "[1]", '"w"',
                          '{"weight": true}', ' {"weight": 1}\u3000'])
_PLAIN_FIELDS = st.sampled_from(["sun", "Sun light", "", " ", "Causes", "NotDesires",
                                 "at_location", "dbpedia/genre", "Not", "0.5", "x", "nan",
                                 "1_0"])
_DUMP_LINES = (
    st.tuples(st.sampled_from(["/a/x", "/a/[y]"]), _RELATION_URIS, _URIS, _URIS,
              _METAS).map("\t".join)
    | st.lists(_PLAIN_FIELDS, min_size=2, max_size=5).map("\t".join)
    | st.sampled_from(["", "# note", " ", "su\udcffn\tCauses\tlight"]))


# Plain lines of 3 or 4 fields from pools where most values are good, so
# that runs of them make even blocks; a blank concept, the relation "/" (its
# name is empty) and a bad weight make a line malformed, and a line that
# starts with "#sun" is a comment.
_EVEN_CONCEPTS = st.sampled_from(3 * ["sun", "Sun", "moon", "Sun light", "annoy_your_spouse",
                                      " sun", "causes"] + [" ", "#sun"])
_EVEN_RELATIONS = st.sampled_from(3 * ["Causes", "NotDesires", "AtLocation", "at_location",
                                       "IsA", "ExternalURL", "dbpedia/genre", "Not"] + ["/"])
_EVEN_WEIGHTS = st.sampled_from(3 * ["0.5", "1", "-2e3", " 1 ", "nan", "1_0"] + ["x"])


@st.composite
def _graph_files(draw):
    """A graph file's bytes: dump lines, even lines of 3 or of 4 fields, or
    both; a line end drawn per line (``\\n``, ``\\r\\n`` or ``\\r``), and
    sometimes none after the last line."""
    width = draw(st.sampled_from([3, 4]))
    even = st.tuples(_EVEN_CONCEPTS, _EVEN_RELATIONS, _EVEN_CONCEPTS,
                     _EVEN_WEIGHTS).map(lambda fields: "\t".join(fields[:width]))
    kind = draw(st.sampled_from(["even", "mixed", "dump"]))
    line = {"even": even, "mixed": even | _DUMP_LINES, "dump": _DUMP_LINES}[kind]
    ends = st.sampled_from(["\n", "\n", "\r\n", "\r"] if draw(st.booleans()) else ["\n"])
    text = "".join(draw(line) + draw(ends) for _ in range(draw(st.integers(0, 60))))
    if draw(st.booleans()):
        text = text.rstrip("\r\n")
    return text.encode("utf-8", "surrogateescape")


def _assert_same_graph(graph: KnowledgeGraph, expected: KnowledgeGraph):
    """The same columns, names in the same order, and the same stats."""
    for column in ("subject", "relation", "object"):
        assert getattr(graph, column).tobytes() == getattr(expected, column).tobytes()
    assert list(graph.concepts.items()) == list(expected.concepts.items())
    assert list(graph.relations.items()) == list(expected.relations.items())
    assert graph.stats == expected.stats
    assert list(graph.stats.skipped) == list(expected.stats.skipped)


def _per_line_bytes(spy) -> bytes:
    """The bytes that a spy on ``kg._block_lines`` saw go to the per-line rule."""
    return b"".join(call.args[0] for call in spy.call_args_list)


class TestLoadGraphOracle:
    """The loader, by columns for even blocks and by the memoized per-line
    rule for the rest, loads what the line-by-line reference loads, at any
    block size, from a plain file and from its ``.gz`` copy."""

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(_graph_files(), st.booleans(), st.booleans(),
           st.sampled_from([1, 7, 64, kg._BLOCK_BYTES]))
    @example("\n".join(["/a/x\t/r/Causes\t/c/en/sun\t/c/en/light\t",
                        "/a/x\t/r/Causes\t/c/en/\t/c/en/sun\t",
                        "/a/x\t/r/Causes\t/c/en/sun\t/c/en/\t"]).encode(), False, False, 7)
    # what skips a line first: a French start with an http:// end is
    # non_concept, a bad end URI after a French start is malformed, and a
    # malformed URI is malformed again from the memo
    @example("\n".join(["/a/x\t/r/Causes\t/c/fr/soleil\thttp://example.org\t{}",
                        "/a/x\t/r/Causes\t/c/fr/soleil\t/c/en/\t{}",
                        "/a/x\t/r/Causes\t/c/fr/soleil\t/c/en/\t{",
                        "/a/x\t/r/Causes\t/c/en/sun\t/c/en/light\t{}"]).encode(),
             False, False, kg._BLOCK_BYTES)
    # names that normalize to empty, under the whitelist: each line is
    # malformed, a relation "/r/ " too, which the filter would drop
    @example("\n".join(["/a/x\t/r/ \t/c/en/sun\t/c/en/light\t{}",
                        "/a/x\t/r/Causes\t/c/fr/ \t/c/en/light\t{}",
                        "/a/x\t/r/Causes\t/c/en/sun\t/c/en/ \t{}",
                        "/a/x\t/r/Causes\t/c/en/sun\t/c/en/light\t{}"]).encode(),
             True, False, kg._BLOCK_BYTES)
    # one block, even but for a subject that is blank after strip: that line
    # is malformed, and the rest of the block is kept in order
    @example(b"moon\tCauses\tsun\n \tCauses\tlight\nsun\tIsA\tstar\n", False, False,
             kg._BLOCK_BYTES)
    # one even block under the whitelist: a dropped relation is counted
    # before a negated one, and a negated relation the whitelist drops is
    # counted as dropped
    @example(b"sun\tExternalURL\tlight\nsun\tNotDesires\tpain\nsun\tNotExternalURL\tx\n",
             True, False, kg._BLOCK_BYTES)
    # a byte-order mark in front of an even block
    @example("\ufeffSun\tCauses\tlight\nsun\tIsA\tstar\n".encode(), True, False, 64)
    def test_same_graph_as_reference(self, tmp_path_factory, data, whitelist, bom,
                                     block_bytes):
        if bom:
            data = b"\xef\xbb\xbf" + data
        path = tmp_path_factory.mktemp("dump") / "dump.tsv"
        path.write_bytes(data)
        gz = path.with_name("dump.tsv.gz")
        gz.write_bytes(gzip.compress(data))
        flt = RelationFilter(default_relation_whitelist() if whitelist else None)
        try:
            expected = reference_load_graph(path, flt)
        except NoTriplesLoaded:
            expected = None
        with mock.patch.object(kg, "_BLOCK_BYTES", block_bytes):
            for source in (path, gz):
                if expected is None:
                    with pytest.raises(NoTriplesLoaded):
                        load_graph(source, flt)
                else:
                    _assert_same_graph(load_graph(source, flt), expected)


class TestGraphBlocks:
    """Which blocks go through the per-line rule."""

    @pytest.mark.parametrize("block_bytes", [64, kg._BLOCK_BYTES])
    @pytest.mark.parametrize("width", [3, 4])
    def test_even_plain_file_skips_the_per_line_rule(self, tmp_path, monkeypatch,
                                                       block_bytes, width):
        # the whitelist drops the ExternalURL and dbpedia/genre rows, and the
        # NotDesires rows are negated
        monkeypatch.setattr(kg, "_BLOCK_BYTES", block_bytes)
        relations = ["Causes", "NotDesires", "ExternalURL", "AtLocation", "dbpedia/genre"]
        lines = [f"C{i % 2003}\t{relations[i % 5]}\tc {i * 7 % 1999}\t{i / 8}"
                 for i in range(60_000)]
        data = "".join("\t".join(line.split("\t")[:width]) + "\n" for line in lines).encode()
        assert len(data) > 4 * kg._BLOCK_BYTES
        path = tmp_path / "dump.tsv"
        path.write_bytes(data)
        flt = RelationFilter(default_relation_whitelist())
        with mock.patch.object(kg, "_block_lines", wraps=kg._block_lines) as spy:
            graph = load_graph(path, flt)
        assert spy.call_count == 0
        assert graph.stats.kept == 24_000
        assert graph.stats.skipped == {"negated": 12_000, "relation": 24_000}
        expected = reference_load_graph(path, flt)
        _assert_same_graph(graph, expected)
        gz = tmp_path / "dump.tsv.gz"
        gz.write_bytes(gzip.compress(data))
        _assert_same_graph(load_graph(gz, flt), expected)

    @pytest.mark.parametrize("block_bytes", [64, kg._BLOCK_BYTES])
    def test_dump_goes_through_the_per_line_rule(self, tmp_path, monkeypatch, block_bytes):
        monkeypatch.setattr(kg, "_BLOCK_BYTES", block_bytes)
        relations = ["/r/Causes", "/r/NotDesires", "/r/ExternalURL", "/r/AtLocation"]
        data = "".join(dump_line(relations[i % 4], f"/c/en/c{i % 2003}",
                                 f"/c/en/c{i * 7 % 1999}", f'{{"weight": {i / 8}}}') + "\n"
                       for i in range(8_000)).encode()
        assert len(data) > 2 * kg._BLOCK_BYTES
        path = tmp_path / "dump.csv"
        path.write_bytes(data)
        with mock.patch.object(kg, "_block_lines", wraps=kg._block_lines) as spy:
            graph = load_graph(path)
        assert _per_line_bytes(spy) == data
        assert graph.stats.skipped == {"negated": 2_000, "external_url": 2_000}
        expected = reference_load_graph(path)
        _assert_same_graph(graph, expected)
        gz = tmp_path / "dump.csv.gz"
        gz.write_bytes(gzip.compress(data))
        _assert_same_graph(load_graph(gz), expected)


def test_default_whitelist_contents():
    allowed = default_relation_whitelist()
    assert "at_location" in allowed
    assert "causes" in allowed
    assert "external_url" not in allowed
    assert len(allowed) == 14
