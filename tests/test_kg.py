import gc
import gzip
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from corg import (EmbeddingTable, KnowledgeGraph, Pipeline, PipelineConfig,
                  RelationFilter, Skip, Triple, TripleColumns,
                  default_relation_whitelist, load_graph, normalize_relation,
                  parse_assertion_line, parse_plain_line, relation_predicate)
from corg.errors import CorruptArchive, MalformedLine, NoTriplesLoaded
from oracles import reference_load_graph


def dump_line(rel, start, end, meta="{}"):
    return f"/a/[{rel},{start},{end}]\t{rel}\t{start}\t{end}\t{meta}"


class TestParseAssertionLine:
    def test_concept_edge_with_weight(self):
        line = dump_line("/r/Causes", "/c/en/sun", "/c/en/light", '{"weight": 2.0}')
        t = parse_assertion_line(line, 7)
        assert t == Triple("sun", "causes", "light", 2.0, 7, False)

    def test_external_url_skipped(self):
        line = dump_line("/r/ExternalURL", "/c/en/sun", "http://example.org/sun")
        assert parse_assertion_line(line, 1) == Skip("external_url")

    def test_not_prefix_sets_negated_flag(self):
        line = dump_line("/r/NotDesires", "/c/en/person", "/c/en/pain")
        t = parse_assertion_line(line, 1)
        assert (t.subject, t.relation, t.object, t.negated) == \
            ("person", "desires", "pain", True)

    def test_non_concept_endpoint_skipped(self):
        line = dump_line("/r/Causes", "/c/en/sun", "http://example.org")
        assert parse_assertion_line(line, 1) == Skip("non_concept")

    def test_language_filter(self):
        line = dump_line("/r/Causes", "/c/de/sonne", "/c/de/licht")
        assert parse_assertion_line(line, 1) == Skip("language")
        line = dump_line("/r/Synonym", "/c/en/sun", "/c/de/sonne")
        assert parse_assertion_line(line, 1) == Skip("language")

    def test_sense_suffix_dropped(self):
        line = dump_line("/r/IsA", "/c/en/sun/n", "/c/en/star/n/astronomy")
        t = parse_assertion_line(line, 1)
        assert (t.subject, t.object) == ("sun", "star")

    def test_wrong_field_count(self):
        with pytest.raises(MalformedLine):
            parse_assertion_line("/a/x\t/r/Causes\t/c/en/sun", 3)

    def test_bad_metadata_json(self):
        line = dump_line("/r/Causes", "/c/en/sun", "/c/en/light", "{not json")
        with pytest.raises(MalformedLine):
            parse_assertion_line(line, 4)

    @pytest.mark.parametrize("weight", ['"heavy"', '"2.0"', "null", "true", "[1]", "{}",
                                        pytest.param("1" + "0" * 400, id="1e400")])
    def test_weight_that_is_not_a_number(self, weight):
        line = dump_line("/r/Causes", "/c/en/sun", "/c/en/light", f'{{"weight": {weight}}}')
        with pytest.raises(MalformedLine, match="weight is not a number"):
            parse_assertion_line(line, 5)

    def test_deeply_nested_metadata(self):
        line = dump_line("/r/Causes", "/c/en/sun", "/c/en/light", "[" * 100_000)
        with pytest.raises(MalformedLine):
            parse_assertion_line(line, 6)

    def test_multiword_concept(self):
        line = dump_line("/r/HasSubevent", "/c/en/snore", "/c/en/annoy_your_spouse")
        t = parse_assertion_line(line, 1)
        assert t == Triple("snore", "has_subevent", "annoy_your_spouse", 1.0, 1)


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
        t = parse_plain_line("sun\tCauses\tlight", 2)
        assert t == Triple("sun", "causes", "light", 1.0, 2)

    def test_weight(self):
        assert parse_plain_line("a\tr\tb\t0.5").weight == 0.5

    def test_bad_weight(self):
        with pytest.raises(MalformedLine):
            parse_plain_line("a\tr\tb\theavy")

    def test_field_count(self):
        with pytest.raises(MalformedLine):
            parse_plain_line("a\tr")


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
        assert [(t.object, t.weight) for t in g] == [("heat", 2.0)]
        assert g.stats.skipped == {"malformed": 1}

    def test_invalid_utf8_counted_malformed(self, tmp_path):
        path = tmp_path / "dump.tsv"
        path.write_bytes(b"sun\tCauses\tli\xffght\n"
                         b"sun\tCauses\tlight\r\n"
                         + dump_line("/r/Causes", "/c/en/sun", "/c/en/heat").encode()
                         + b"\n\xc3\n")
        g = load_graph(path)
        assert [(t.object, t.source_line) for t in g] == [("light", 2), ("heat", 3)]
        assert g.stats.skipped == {"malformed": 2}

    def test_relation_whitelist(self, tmp_path):
        path = tmp_path / "fix.tsv"
        path.write_text("sun\tCauses\tlight\nsun\tIsA\tstar\n", "utf-8")
        g = load_graph(path, RelationFilter(allowed=frozenset({"causes"})))
        assert [t.relation for t in g] == ["causes"]
        assert g.stats.skipped["relation"] == 1

    def test_negated_triples_kept_with_flag(self, tmp_path):
        # the loader keeps them; the pipeline leaves them out of selection
        path = tmp_path / "fix.tsv"
        path.write_text("person\tNotDesires\tpain\nsun\tCauses\tlight\n", "utf-8")
        g = load_graph(path)
        assert [t.negated for t in g] == [True, False]
        assert g.stats.skipped == {}

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
                     _CONCEPTS, st.floats(allow_nan=False), st.integers(0, 2**40),
                     st.booleans())
_COLUMNS = ("subject", "predicate", "inverse", "object", "negated")


class TestColumns:
    """The graph holds ids only; TripleColumns copies them."""

    @settings(max_examples=200, derandomize=True, database=None)
    @given(st.lists(_TRIPLES, max_size=8))
    @example([Triple("causes", "causes", "inv_causes"), Triple("causes", "causes", "causes"),
              Triple("atlocation", "at_location", "sun", negated=True)])
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
            assert columns.negated[i] == t.negated

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
# memo is hit: good URIs next to malformed ones ("/c/en/", "/c//sun"), Not
# relations, relation spellings that normalize alike, bad metadata, and
# lines the loader counts as malformed or does not count at all.
_URIS = st.sampled_from(3 * ["/c/en/sun", "/c/en/sun/n", "/c/en/Sun", "/c/en/annoy_your_spouse",
                              "/c/en/light/n/wn/x"]
                         + ["/c/en/", "/c//sun", "/c/en", "/c/fr/soleil", "/d/x", "/c/en/sun "])
_RELATION_URIS = st.sampled_from(2 * ["/r/Causes", "/r/NotDesires", "/r/Desires", "/r/AtLocation",
                                      "/r/NotCapableOf"]
                                 + ["/r/ExternalURL", "/r/dbpedia/genre", "/r/", "/x/Causes",
                                    "/r/Not"])
_METAS = st.sampled_from(['{"weight": 2.0}', '{"weight": "x"}', "", "{", '{"weight": NaN}',
                          '{"dataset": "a"}', '{"weight": 1e999}', '{"weight": -1}'])
_PLAIN_FIELDS = st.sampled_from(["sun", "Sun light", "", " ", "Causes", "NotDesires",
                                 "at_location", "dbpedia/genre", "Not", "0.5", "x", "nan",
                                 "1_0"])
_DUMP_LINES = (
    st.tuples(st.sampled_from(["/a/x", "/a/[y]"]), _RELATION_URIS, _URIS, _URIS,
              _METAS).map("\t".join)
    | st.lists(_PLAIN_FIELDS, min_size=2, max_size=5).map("\t".join)
    | st.sampled_from(["", "# note", " ", "su\udcffn\tCauses\tlight"]))


class TestLoadGraphOracle:
    """The memoized, id-appending loader loads what the line-by-line
    reference loads."""

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(st.lists(_DUMP_LINES, max_size=60), st.booleans())
    @example(["/a/x\t/r/Causes\t/c/en/sun\t/c/en/light\t",
              "/a/x\t/r/Causes\t/c/en/\t/c/en/sun\t",
              "/a/x\t/r/Causes\t/c/en/sun\t/c/en/\t"], False)
    def test_same_graph_as_reference(self, tmp_path_factory, lines, whitelist):
        path = tmp_path_factory.mktemp("dump") / "dump.tsv"
        path.write_bytes("\n".join(lines).encode("utf-8", "surrogateescape"))
        flt = RelationFilter(default_relation_whitelist() if whitelist else None)
        try:
            expected = reference_load_graph(path, flt)
        except NoTriplesLoaded:
            with pytest.raises(NoTriplesLoaded):
                load_graph(path, flt)
            return
        graph = load_graph(path, flt)
        for column in ("subject", "relation", "object", "negated", "weight", "source_line"):
            assert getattr(graph, column).tobytes() == getattr(expected, column).tobytes()
        assert graph.concepts == expected.concepts
        assert graph.relations == expected.relations
        assert graph.stats == expected.stats


def test_default_whitelist_contents():
    allowed = default_relation_whitelist()
    assert "at_location" in allowed
    assert "causes" in allowed
    assert "external_url" not in allowed
    assert len(allowed) == 14
