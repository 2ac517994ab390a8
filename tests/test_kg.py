import gzip
import random

import pytest

from corg import (KnowledgeGraph, RelationFilter, Skip, Triple,
                  default_relation_whitelist, load_graph, normalize_relation,
                  parse_assertion_line, parse_plain_line)
from corg.errors import MalformedLine, NoTriplesLoaded

EN = frozenset({"en"})


def dump_line(rel, start, end, meta="{}"):
    return f"/a/[{rel},{start},{end}]\t{rel}\t{start}\t{end}\t{meta}"


class TestParseAssertionLine:
    def test_concept_edge_with_weight(self):
        line = dump_line("/r/Causes", "/c/en/sun", "/c/en/light", '{"weight": 2.0}')
        t = parse_assertion_line(line, 7, EN)
        assert t == Triple("sun", "causes", "light", 2.0, 7, False)

    def test_external_url_skipped(self):
        line = dump_line("/r/ExternalURL", "/c/en/sun", "http://example.org/sun")
        assert parse_assertion_line(line, 1, EN) == Skip("external_url")

    def test_not_prefix_sets_negated_flag(self):
        line = dump_line("/r/NotDesires", "/c/en/person", "/c/en/pain")
        t = parse_assertion_line(line, 1, EN)
        assert (t.subject, t.relation, t.object, t.negated) == \
            ("person", "desires", "pain", True)

    def test_non_concept_endpoint_skipped(self):
        line = dump_line("/r/Causes", "/c/en/sun", "http://example.org")
        assert parse_assertion_line(line, 1, EN) == Skip("non_concept")

    def test_language_filter(self):
        line = dump_line("/r/Causes", "/c/de/sonne", "/c/de/licht")
        assert parse_assertion_line(line, 1, EN) == Skip("language")
        t = parse_assertion_line(line, 1, frozenset({"de"}))
        assert t.subject == "sonne"

    def test_sense_suffix_dropped(self):
        line = dump_line("/r/IsA", "/c/en/sun/n", "/c/en/star/n/astronomy")
        t = parse_assertion_line(line, 1, EN)
        assert (t.subject, t.object) == ("sun", "star")

    def test_wrong_field_count(self):
        with pytest.raises(MalformedLine):
            parse_assertion_line("/a/x\t/r/Causes\t/c/en/sun", 3, EN)

    def test_bad_metadata_json(self):
        line = dump_line("/r/Causes", "/c/en/sun", "/c/en/light", "{not json")
        with pytest.raises(MalformedLine):
            parse_assertion_line(line, 4, EN)

    def test_multiword_concept(self):
        line = dump_line("/r/HasSubevent", "/c/en/snore", "/c/en/annoy_your_spouse")
        t = parse_assertion_line(line, 1, EN)
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
        subjects = [t.subject for t in g.triples]
        assert subjects == ["sun", "shadow", "shadow", "grass"]
        objects = [t.object for t in g.triples]
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

    def test_relation_whitelist(self, tmp_path):
        path = tmp_path / "fix.tsv"
        path.write_text("sun\tCauses\tlight\nsun\tIsA\tstar\n", "utf-8")
        g = load_graph(path, RelationFilter(allowed=frozenset({"causes"})))
        assert [t.relation for t in g.triples] == ["causes"]
        assert g.stats.skipped["relation"] == 1

    def test_drop_negated(self, tmp_path):
        path = tmp_path / "fix.tsv"
        path.write_text("person\tNotDesires\tpain\nsun\tCauses\tlight\n", "utf-8")
        g = load_graph(path, RelationFilter(drop_negated=True))
        assert len(g) == 1
        assert g.stats.skipped["negated"] == 1

    def test_gzip_transparent(self, tmp_path):
        path = tmp_path / "fix.tsv.gz"
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("sun\tCauses\tlight\n")
        assert len(load_graph(path)) == 1

    def test_empty_whitelist_rejected(self):
        with pytest.raises(ValueError):
            RelationFilter(allowed=frozenset())


def edges(graph, subject=None, obj=None):
    return [(t.subject, t.relation, t.object) for t in graph.triples
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
        ids = [g.add(t) for t in fig_graph.triples]
        assert ids == list(range(len(fig_graph)))
        assert g.triples == fig_graph.triples
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
        assert g1.triples == g2.triples
        assert g1.stats == g2.stats


def test_default_whitelist_contents():
    allowed = default_relation_whitelist()
    assert "at_location" in allowed
    assert "causes" in allowed
    assert "external_url" not in allowed
    assert len(allowed) == 14
