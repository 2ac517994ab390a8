"""Arbitrary input to the parsers and loaders parses or raises a CorgError.

Each strategy mixes unconstrained text with text assembled from the
format's own tokens, so that generated inputs also reach past the first
syntax check.
"""

import gzip
import json
import xml.etree.ElementTree as ET

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from corg.embeddings import load_table
from corg.errors import CorgError
from corg.fol import parse_fol, parse_tptp
from corg.kg import Skip, Triple, _LineParser, load_graph
from corg.pipeline import parse_copa_xml


def texts(*fragments: str):
    return st.text() | st.lists(st.sampled_from(fragments) | st.text(max_size=3),
                                max_size=30).map("".join)


_TOKENS = texts("\t", "/a/", "/r/", "/c/", "/c/en/", "sun", "/n", "/", "{", "}",
                "[", "]", '"weight"', ":", ",", "1", "-", "null", "\n", " ")
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.just(10 ** 400)
    | st.floats() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=5)
_META = texts("{", "}", '"weight"', ":", "1e999", "NaN") \
    | st.dictionaries(st.sampled_from(["weight", "dataset"]), _JSON).map(json.dumps) \
    | st.builds(lambda depth: "[" * depth, st.integers(0, 100_000))
_CONCEPT = st.sampled_from(["/c/en/sun", "/c/en/sun/n", "/c/en/annoy your spouse",
                            "/c/en/", "/c/fr/soleil", "/d/x"])
_RELATION = st.sampled_from(["/r/Causes", "/r/NotDesires", "/r/dbpedia/genre",
                             "/r/ExternalURL", "/r/", "Causes"])
# whole records as the loader sees them: mostly well-formed fields, any metadata
_ASSERTION = st.tuples(texts("/a/"), _RELATION, _CONCEPT, _CONCEPT, _META).map("\t".join)
_PLAIN = st.lists(_CONCEPT | _RELATION | texts("0.5", "nan", "-", " "),
                  min_size=3, max_size=4).map("\t".join)
_FORMULA = texts("!", "?", "[", "]", ":", "(", ")", "~", "&", "|", "=>", "<=>",
                 "<=", ",", ".", "'", "\\", "%", "\n", " ", "X", "Y", "p", "q",
                 "f", "a", "fof", "cnf", "axiom", "$true")
_TABLE = texts("\n", " ", "\t", "\r", "0", "1", "2", "-", ".", "e", "e999", "nan",
               "inf", "sun", "Sun", "3 2", "2 1")
# whole tables: generated text, or its lines mixed with raw bytes
_TABLE_FILE = _TABLE.map(str.encode) \
    | st.lists(_TABLE.map(str.encode) | st.binary(max_size=12), max_size=12).map(b"\n".join)
_FORMS = st.sampled_from(["plain", "gzip", "cut gzip", "raw .gz"])

# whole dumps: the two line formats, comments and raw bytes mixed line by line
_DUMP_LINE = (_TOKENS | _PLAIN | _ASSERTION
              | st.sampled_from(["", "# note", "\r", "sun\tCauses\tlight"])
              ).map(str.encode) | st.binary(max_size=12)
_DUMP = st.binary() | st.lists(_DUMP_LINE, max_size=12).map(b"\n".join)


def _copa_document(items) -> str:
    root = ET.Element("copa-corpus")
    for attrs, children in items:
        item = ET.SubElement(root, "item", attrs)
        for tag, text in children:
            ET.SubElement(item, tag).text = text
    return ET.tostring(root, encoding="unicode")


_NUMBER = st.sampled_from(["1", "2", "3", "0", "-1", " 2 ", "+1", "1.0", "", "x"]) \
    | st.integers().map(str) | st.text(max_size=4)
_ASKS_FOR = st.sampled_from(["cause", "effect", "Cause", ""]) | st.text(max_size=6)
# mostly complete items, so that generated values reach past the presence checks
_COPA_ATTRS = st.tuples(
    st.fixed_dictionaries({"id": _NUMBER, "asks-for": _ASKS_FOR},
                          optional={"most-plausible-alternative": _NUMBER})
    | st.fixed_dictionaries({}, optional={"id": _NUMBER, "asks-for": _ASKS_FOR}),
    st.dictionaries(st.from_regex(r"[a-z][a-z-]{0,8}", fullmatch=True),
                    st.text(max_size=4), max_size=2),
).map(lambda pair: {**pair[1], **pair[0]})
_COPA_CHILDREN = st.tuples(
    st.sampled_from([["p", "a1", "a2"], ["p", "a1", "a2", "a3"], ["a1", "a2"], ["p", "a2"]]),
    st.lists(st.sampled_from(["p", "a1", "a3", "a5", "x"]), max_size=2),
    st.lists(st.text(max_size=8), min_size=6, max_size=6),
).map(lambda parts: list(zip(parts[0] + parts[1], parts[2])))
_COPA = st.lists(st.tuples(_COPA_ATTRS, _COPA_CHILDREN), max_size=4).map(_copa_document) \
    | texts("<copa-corpus>", "</copa-corpus>", "<item", ">", "</item>", ' id="1"',
            ' id="2"', ' asks-for="cause"', ' most-plausible-alternative="2"',
            "<p>", "</p>", "<a1>", "</a1>", "<a2>", "</a2>", "&", "<", " ")

_SETTINGS = settings(max_examples=300, derandomize=True, database=None, deadline=None)


@_SETTINGS
@given(_TOKENS | _PLAIN)
def test_parse_plain_line(text):
    try:
        assert isinstance(Triple(*_LineParser().plain(text, 1)), Triple)
    except CorgError:
        pass


@_SETTINGS
@given(_TOKENS | _ASSERTION)
def test_parse_assertion_line(text):
    try:
        parsed = _LineParser().assertion(text, 1)
        assert isinstance(parsed, Skip) or isinstance(Triple(*parsed), Triple)
    except CorgError:
        pass


@_SETTINGS
@given(_FORMULA)
def test_parse_fol(text):
    try:
        parse_fol(text)
    except CorgError:
        pass


@_SETTINGS
@given(_FORMULA)
def test_parse_tptp(text):
    try:
        assert isinstance(parse_tptp(text), list)
    except CorgError:
        pass


def _write(path, data: bytes, form: str):
    """Write data as a plain file, or under a ``.gz`` name: gzip-compressed,
    compressed and cut in half, or raw."""
    if form != "plain":
        path = path.with_name(path.name + ".gz")
        if form != "raw .gz":
            data = gzip.compress(data)
        if form == "cut gzip":
            data = data[:len(data) // 2]
    path.write_bytes(data)
    return path


@_SETTINGS
@given(_TABLE_FILE, _FORMS)
def test_load_table(tmp_path_factory, data, form):
    path = _write(tmp_path_factory.mktemp("table") / "vectors.txt", data, form)
    try:
        table = load_table(path)
        vectors = table.vectors(list(table.rows))  # a plain table parses rows here
    except CorgError:
        return
    assert len(table) > 0 and table.dimension > 0
    assert vectors.shape == (len(table), table.dimension)
    assert np.isfinite(vectors).all()


@_SETTINGS
@given(_DUMP, _FORMS)
def test_load_graph(tmp_path_factory, data, form):
    path = _write(tmp_path_factory.mktemp("dump") / "dump.tsv", data, form)
    try:
        graph = load_graph(path)
    except CorgError:
        return
    assert len(graph) == graph.stats.kept > 0


@_SETTINGS
@given(_COPA)
def test_parse_copa_xml(tmp_path_factory, document):
    path = tmp_path_factory.mktemp("copa") / "problems.xml"
    path.write_text(document, "utf-8")
    try:
        problems = parse_copa_xml(path)
    except CorgError:
        return
    assert len({p.id for p in problems}) == len(problems)
    for p in problems:
        assert p.question in ("cause", "effect")
        assert p.gold is None or 1 <= p.gold <= len(p.alternatives)
