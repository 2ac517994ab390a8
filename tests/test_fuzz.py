"""Arbitrary input to the parsers and loaders parses or raises a CorgError.

Each strategy mixes unconstrained text with text assembled from the
format's own tokens, so that generated inputs also reach past the first
syntax check.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from corg.embeddings import EmbeddingTable, load_table
from corg.errors import CorgError
from corg.fol import parse_fol, parse_tptp
from corg.kg import Skip, Triple, parse_assertion_line, parse_plain_line


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

_SETTINGS = settings(max_examples=300, derandomize=True, database=None, deadline=None)


@_SETTINGS
@given(_TOKENS | _PLAIN)
def test_parse_plain_line(text):
    try:
        assert isinstance(parse_plain_line(text, 1), Triple)
    except CorgError:
        pass


@_SETTINGS
@given(_TOKENS | _ASSERTION)
def test_parse_assertion_line(text):
    try:
        assert isinstance(parse_assertion_line(text, 1), (Triple, Skip))
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


@_SETTINGS
@given(_TABLE)
def test_load_table(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("table") / "vectors.txt"
    path.write_text(text, "utf-8")
    try:
        assert isinstance(load_table(path), EmbeddingTable)
    except CorgError:
        pass
