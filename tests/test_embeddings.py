import gc
import gzip
import math
import os
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from corg import embeddings
from corg.embeddings import EmbeddingTable, cosine, load_table, split_identifier
from corg.errors import CorgError, CorruptArchive, DimensionMismatch, MalformedLine
from corg.scorer import embed_sequence
from oracles import ReferenceTable, reference_load_table, reference_row, reference_vector


@pytest.fixture
def small_table():
    return EmbeddingTable(2, {
        "astronomical": np.array([1.0, 0.0]),
        "body": np.array([0.0, 1.0]),
        "sun": np.array([0.6, 0.8]),
    })


class TestLoadTable:
    def test_plain_file(self, tmp_path):
        path = tmp_path / "vec.txt"
        path.write_text("sun 1 0 0 0\nmoon 0 1 0 0\nstar 0 0 1 0\n", "utf-8")
        table = load_table(path)
        assert len(table) == 3
        assert table.dimension == 4
        assert np.array_equal(table.vectors(["sun"])[0], [1, 0, 0, 0])

    def test_header_enforces_dimension(self, tmp_path):
        path = tmp_path / "vec.txt"
        path.write_text("1 300\n" + "sun " + " ".join(["0.5"] * 300) + "\n", "utf-8")
        table = load_table(path)
        assert table.dimension == 300
        assert len(table) == 1

    def test_dimension_mismatch(self, tmp_path):
        path = tmp_path / "vec.txt"
        path.write_text("1 300\nsun " + " ".join(["0.5"] * 299) + "\n", "utf-8")
        with pytest.raises(DimensionMismatch):
            load_table(path)

    @pytest.mark.parametrize("text", ["3 2\nsun 1 0\n", "1 2\nsun 1 0\nsun 0 1\n",
                                      "0 2\nsun 1 0\n", "3 2\nsun 1 0\n\nmoon 0 1\n"])
    def test_header_count_must_match_vector_lines(self, tmp_path, text):
        # a table cut short after its header loaded silently
        path = tmp_path / "vec.txt"
        path.write_text(text, "utf-8")
        with pytest.raises(MalformedLine, match="line 1: header gives") as err:
            load_table(path)
        assert str(path) in str(err.value)

    def test_header_counts_duplicates(self, tmp_path):
        path = tmp_path / "vec.txt"
        path.write_text("2 2\nsun 1 0\n\nsun 0 1\n", "utf-8")
        table = load_table(path)
        assert (len(table), table.duplicates) == (1, 1)

    def test_duplicates_last_wins(self, tmp_path):
        path = tmp_path / "vec.txt"
        path.write_text("sun 1 0\nsun 0 1\n", "utf-8")
        table = load_table(path)
        assert table.duplicates == 1
        assert np.array_equal(table.vectors(["sun"])[0], [0, 1])

    def test_gzip(self, tmp_path):
        path = tmp_path / "vec.txt.gz"
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("sun 1 0\n")
        assert len(load_table(path)) == 1

    def test_keys_lowercased(self, tmp_path):
        path = tmp_path / "vec.txt"
        path.write_text("Sun 1 0\n", "utf-8")
        assert "sun" in load_table(path).rows

    def test_empty_file(self, tmp_path):
        path = tmp_path / "vec.txt"
        path.write_text("", "utf-8")
        with pytest.raises(DimensionMismatch):
            load_table(path)

    @pytest.mark.parametrize("text, message", [
        ("sun 1 0\nmoon 1 0 1\n", "line 2: expected 2 components, got 3"),
        ("sun 1 0\nmoon 1 x\n", "line 2: bad float"),
        ("", "no vector line"),
        ("3 2\n", "no vector line"),
    ], ids=["dimension", "bad-float", "empty", "header-only"])
    def test_dimension_errors_name_file(self, tmp_path, text, message):
        path = tmp_path / "vec.txt"
        path.write_text(text, "utf-8")
        with pytest.raises(DimensionMismatch, match=message) as err:
            _read_all(load_table(path))  # a bad float raises when its row is read
        assert str(path) in str(err.value)

    def test_invalid_utf8_names_file_and_line(self, tmp_path):
        path = tmp_path / "vec.txt"
        path.write_bytes(b"sun 1 0\nsu\xffn 0 1\n")
        with pytest.raises(MalformedLine, match="line 2: not valid UTF-8") as err:
            load_table(path)
        assert str(path) in str(err.value)

    @pytest.mark.parametrize("component", ["nan", "inf", "-inf", "1e999"])
    def test_non_finite_component_rejected(self, tmp_path, component):
        # a NaN row would score its words -1 against everything
        path = tmp_path / "vec.txt"
        path.write_text(f"moon 0 1\nsun {component} 0\n", "utf-8")
        with pytest.raises(MalformedLine, match="line 2: component that is not finite"):
            _read_all(load_table(path))

    @pytest.mark.parametrize("text", ["sun\nmoon\n", "3 0\nsun\n", "3 0\n", "2 -1\n",
                                      "sun 1 0\nmoon\n"])
    def test_zero_dimension_rejected(self, tmp_path, text):
        # a table with no component answers every problem as a tie
        path = tmp_path / "vec.txt"
        path.write_text(text, "utf-8")
        with pytest.raises(DimensionMismatch, match=r"line \d+: ") as err:
            load_table(path)
        assert str(path) in str(err.value)

    def test_load_stores_no_object_per_word(self, tmp_path):
        n = 20_000
        path = tmp_path / "big.txt"
        path.write_text("".join(f"w{i} {i} 0.5 -1\n" for i in range(n)), "utf-8")
        gc.collect()
        before = len(gc.get_objects())
        table = load_table(path)
        gc.collect()
        assert len(table) == n
        assert len(gc.get_objects()) - before < n / 10

    def test_cut_gzip_is_corrupt_archive(self, tmp_path):
        path = tmp_path / "vec.txt.gz"
        data = gzip.compress("".join(f"w{i} {i} 1\n" for i in range(200)).encode())
        path.write_bytes(data[:len(data) // 2])
        with pytest.raises(CorruptArchive):
            load_table(path)


_GOOD_FLOATS = ["0", "1", "-2.5", ".5", "3e-2", "-0", "1_0", "\u0661"]  # loadtxt rejects the last two
_BAD_FLOATS = ["nan", "1e999", "-inf", "x", "1e", "1__0"]
_SEPARATORS = st.sampled_from([" ", "\t", "\xa0", "  ", "\x0b"])


@st.composite
def _tables(draw, bad=True):
    """A table file as bytes, with the number of its bad lines (2 for "more
    than one"), none unless ``bad``.  Words repeat, so duplicates fall
    inside and across blocks."""
    dim = draw(st.integers(1, 3))

    def vector_line(width, last=_GOOD_FLOATS):
        words = [draw(st.sampled_from(["sun", "Sun", "moon", "star", "w1"]))]
        floats = [draw(st.sampled_from(_GOOD_FLOATS)) for _ in range(width - 1)]
        floats += [draw(st.sampled_from(last))] if width else []
        return draw(_SEPARATORS).join(words + floats)

    lines = [vector_line(dim) if draw(st.integers(0, 5)) else draw(st.sampled_from(["", " "]))
             for _ in range(draw(st.integers(0, 14)))]
    header = draw(st.sampled_from(["", "", "count", "3 0", "wide", "miscount"] if bad
                                  else ["", "count"]))
    bad = {"3 0": 1, "wide": 2, "miscount": 1}.get(header, 0)
    for kind in draw(st.lists(st.integers(0, 3), max_size=2 if bad else 0)):
        if kind == 0:
            line = vector_line(dim, last=_BAD_FLOATS)
        elif kind == 1:
            line = vector_line(dim + 1)
        elif kind == 2:
            line = vector_line(0)
        else:
            line = "su\udcffn " + vector_line(dim)
        lines.insert(draw(st.integers(0, len(lines))), line)
        bad += 1
    if header:
        n = sum(1 for line in lines if line.strip())
        lines.insert(0, {"count": f"{n} {dim}", "wide": f"{n} {dim + 1}",
                         "miscount": f"{n + 1} {dim}"}.get(header, header))
    data = "\n".join(lines).encode("utf-8", "surrogateescape")
    return data, min(bad, 2)


def _error_line(error: Exception):
    found = re.match(r"line (\d+):", str(error))
    return found and int(found.group(1))


def _read_all(table: EmbeddingTable) -> np.ndarray:
    """Every row of the table, read with one ``vectors`` call."""
    return table.vectors(list(table.rows))


class TestLoadTableOracle:
    """The loader loads what the line-by-line reference loads: a plain table
    makes the reference's checks that read no float at load, and each row
    it reads has the reference's floats or raises its error; a ``.gz``
    table makes every check at load."""

    @settings(max_examples=400, derandomize=True, database=None, deadline=None)
    @given(_tables(), st.sampled_from([1, 2, 3, 1024]))
    @example((b"sun 1 0\nmoon 1_0 2\nsun 3 4\nstar nan 1\n", 1), 2)
    def test_same_table_as_reference(self, tmp_path_factory, table_file, block_lines):
        data, bad_lines = table_file
        path = tmp_path_factory.mktemp("table") / "vec.txt"
        path.write_bytes(data)
        gz = path.with_name("vec.txt.gz")
        gz.write_bytes(gzip.compress(data))
        self.check(path, bad_lines)
        with mock.patch.object(embeddings, "_BLOCK_LINES", block_lines):
            self.check_gz(gz, bad_lines)

    def test_blocks_of_full_size(self, tmp_path):
        # duplicates across blocks, "1_0" on the first block's last line;
        # then one non-finite component on the second block's last line
        lines = [f"w{i % 1500} {i} {i / 7}" for i in range(3000)]
        lines[1023] = "w5 1_0 2"
        path = tmp_path / "vec.txt"
        gz = tmp_path / "vec.txt.gz"
        path.write_text("\n".join(lines), "utf-8")
        gz.write_bytes(gzip.compress(path.read_bytes()))
        self.check(path, 0)
        self.check_gz(gz, 0)
        lines[2047] = "w 1e999 0"
        path.write_text("\n".join(lines), "utf-8")
        gz.write_bytes(gzip.compress(path.read_bytes()))
        self.check(path, 1)
        self.check_gz(gz, 1)
        table = load_table(path)
        with pytest.raises(MalformedLine, match="line 2048: "):
            table.vectors(["w"])
        with pytest.raises(MalformedLine, match="line 2048: "):
            load_table(gz)

    @staticmethod
    def load_fails_alike(path, bad_lines: int, error: CorgError):
        with pytest.raises(CorgError) as err:
            load_table(path)
        if bad_lines == 1:
            assert type(err.value) is type(error)
            assert _error_line(err.value) == _error_line(error)

    def check(self, path, bad_lines: int):
        try:
            expected = reference_load_table(path, parse_floats=False)
        except CorgError as error:
            self.load_fails_alike(path, bad_lines, error)
            return
        table = load_table(path)
        assert (table.dimension, table.duplicates) == (expected.dimension, expected.duplicates)
        assert list(table.rows) == list(expected.vectors)
        for word in expected.vectors:
            try:
                vector = reference_row(expected, word, path)
            except CorgError as error:
                with pytest.raises(type(error)) as err:
                    table.vectors([word])
                assert _error_line(err.value) == _error_line(error)
                assert str(path) in str(err.value)
                continue
            assert table.vectors([word])[0].tobytes() == vector.tobytes()

    def check_gz(self, path, bad_lines: int):
        try:
            expected = reference_load_table(path)
        except CorgError as error:
            self.load_fails_alike(path, bad_lines, error)
            return
        table = load_table(path)
        assert (table.dimension, table.duplicates) == (expected.dimension, expected.duplicates)
        assert list(table.rows) == list(expected.vectors)
        assert [row.tobytes() for row in _read_all(table)] == \
            [vector.tobytes() for vector in expected.vectors.values()]


class TestLazyRows:
    """A plain table parses a row when ``vectors`` first reads it."""

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(_tables(bad=False), st.data())
    def test_rows_read_in_any_order_match_reference(self, tmp_path_factory,
                                                    table_file, data):
        path = tmp_path_factory.mktemp("table") / "vec.txt"
        path.write_bytes(table_file[0])
        try:
            expected = reference_load_table(path)
        except CorgError:  # no vector line
            with pytest.raises(CorgError):
                load_table(path)
            return
        table = load_table(path)
        tokens = st.sampled_from(list(expected.vectors)).flatmap(
            lambda w: st.sampled_from([w, w.upper(), w.title()]))
        for batch in data.draw(st.lists(st.lists(tokens, max_size=6), max_size=5)):
            rows = table.vectors(batch)
            assert [row.tobytes() for row in rows] == \
                [expected.vectors[t.lower()].tobytes() for t in batch]
        assert [row.tobytes() for row in _read_all(table)] == \
            [vector.tobytes() for vector in expected.vectors.values()]

    def test_bad_float_in_unread_row_loads(self, tmp_path):
        path = tmp_path / "vec.txt"
        path.write_text("sun 1 0\nmoon 1 x\nstar nan 0\n", "utf-8")
        table = load_table(path)
        assert len(table) == 3
        assert table.vectors(["sun"]).tolist() == [[1.0, 0.0]]
        with pytest.raises(DimensionMismatch, match="line 2: bad float") as err:
            table.vectors(["sun", "moon"])
        assert str(path) in str(err.value)
        with pytest.raises(MalformedLine, match="line 3: component that is not finite"):
            table.vectors(["star"])
        with pytest.raises(DimensionMismatch, match="line 2: bad float"):
            table.vectors(["moon"])  # a failed read keeps nothing
        assert table.vectors(["sun"]).tolist() == [[1.0, 0.0]]

    def test_mean_of_parts_reads_their_rows(self, tmp_path):
        path = tmp_path / "vec.txt"
        path.write_text("astronomical 1 0\nbody 0 1\nsun x 1\n", "utf-8")
        table = load_table(path)
        assert table.vectors(["astronomicalBody"]).tolist() == [[0.5, 0.5]]

    def test_rows_read_after_a_change_of_directory(self, tmp_path, monkeypatch):
        (tmp_path / "vec.txt").write_text("sun 1 0\nmoon 0 1\n", "utf-8")
        monkeypatch.chdir(tmp_path)
        table = load_table("vec.txt")
        monkeypatch.chdir(tmp_path.parent)
        assert table.vectors(["moon"]).tolist() == [[0.0, 1.0]]

    def test_row_parsed_once_and_kept(self, tmp_path):
        path = tmp_path / "vec.txt"
        path.write_text("sun 1 0\nmoon 0 1\n", "utf-8")
        table = load_table(path)
        with mock.patch.object(embeddings, "_parse_block",
                               wraps=embeddings._parse_block) as parse:
            table.vectors(["moon", "sun", "moon"])
            table.vectors(["sun", "Moon"])
        assert [len(call.args[0]) for call in parse.call_args_list] == [2]
        path.unlink()
        assert table.vectors(["moon", "sun"]).tolist() == [[0.0, 1.0], [1.0, 0.0]]

    @pytest.mark.parametrize("change", ["truncated", "rewritten", "same words", "deleted"])
    def test_file_changed_after_load(self, tmp_path, change):
        path = tmp_path / "vec.txt"
        path.write_text("sun 1 0\nmoon 0 1\n", "utf-8")
        table = load_table(path)
        if change == "truncated":
            path.write_text("sun 1 0\n", "utf-8")
        elif change == "rewritten":
            path.write_text("moon 0 1\nsun 1 0\n", "utf-8")
        elif change == "same words":  # same size, same words at the same offsets
            stat = path.stat()
            path.write_text("sun 1 0\nmoon 0 2\n", "utf-8")
            os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns + 1_000_000_000))
        else:
            path.unlink()
        with pytest.raises(MalformedLine, match="line 2: ") as err:
            table.vectors(["moon"])
        assert str(path) in str(err.value)

    def test_gzip_parses_every_row_at_load(self, tmp_path):
        path = tmp_path / "vec.txt.gz"
        path.write_bytes(gzip.compress(b"sun 1 0\nmoon 1 x\n"))
        with pytest.raises(DimensionMismatch, match="line 2: bad float") as err:
            load_table(path)
        assert str(path) in str(err.value)
        path.write_bytes(gzip.compress(b"sun 1 0\nmoon 0 inf\n"))
        with pytest.raises(MalformedLine, match="line 2: component that is not finite"):
            load_table(path)
        path.write_bytes(gzip.compress(b"sun 1 0\nmoon 0 1\n"))
        table = load_table(path)
        path.unlink()
        assert table.vectors(["moon", "sun"]).tolist() == [[0.0, 1.0], [1.0, 0.0]]


class TestSplitIdentifier:
    @pytest.mark.parametrize("token,parts", [
        ("astronomicalBody", ["astronomical", "body"]),
        ("annoy_your_spouse", ["annoy", "your", "spouse"]),
        ("sun", ["sun"]),
        ("HTTPServer", ["http", "server"]),
        ("c0", ["c0"]),
    ])
    def test_splits(self, token, parts):
        assert split_identifier(token) == parts


class TestVector:
    def test_direct_hit(self, small_table):
        assert np.array_equal(small_table.vectors(["sun"])[0], [0.6, 0.8])

    def test_camel_case_average(self, small_table):
        v = small_table.vectors(["astronomicalBody"])[0]
        assert np.allclose(v, [0.5, 0.5])

    def test_underscore_average_skips_oov_parts(self, small_table):
        # only "body" is in vocabulary, so the mean is just its vector
        v = small_table.vectors(["strange_body"])[0]
        assert np.allclose(v, [0.0, 1.0])

    def test_all_oov_zero_mode(self, small_table):
        v = small_table.vectors(["unknown_thing"])[0]
        assert v.shape == (2,) and not v.any()

    def test_deterministic(self, small_table):
        a = small_table.vectors(["astronomicalBody"])[0]
        b = small_table.vectors(["astronomicalBody"])[0]
        assert np.array_equal(a, b)


_VOCAB = ["sun", "light", "body", "astronomical", "http", "server", "c0", "Sun"]
_PARTS = st.sampled_from(_VOCAB + ["zzz", "q9"])


@st.composite
def _tokens(draw):
    """A vocabulary word, an out-of-vocabulary word, an identifier built
    from parts (snake, camel or upper case), or any short text."""
    parts = draw(st.lists(_PARTS, min_size=1, max_size=3))
    style = draw(st.sampled_from(["snake", "camel", "upper", "title", "text"]))
    if style == "snake":
        return "_".join(parts)
    if style == "camel":
        return parts[0] + "".join(p[:1].upper() + p[1:] for p in parts[1:])
    if style == "upper":
        return "".join(parts).upper()
    if style == "title":
        return "_".join(p.title() for p in parts)
    return draw(st.text(st.sampled_from("suNnB_bo0LyHTP"), max_size=8))


class TestVectorsOracle:
    @settings(max_examples=400, derandomize=True, database=None)
    @given(st.dictionaries(st.sampled_from(_VOCAB),
                           st.lists(st.floats(-4, 4, width=32), min_size=3, max_size=3)),
           st.lists(_tokens(), max_size=6))
    def test_rows_and_mean_match_reference(self, stored, tokens):
        reference = ReferenceTable(3, {w: np.array(v) for w, v in stored.items()})
        table = EmbeddingTable(3, reference.vectors)
        expected = [reference_vector(reference, t) for t in tokens]
        rows = table.vectors(tokens)
        assert rows.shape == (len(tokens), 3)
        assert [row.tobytes() for row in rows] == [e.tobytes() for e in expected]
        # the mean of per-token vectors, as embed_sequence computed it before
        mean = np.mean(expected, axis=0) if tokens else np.zeros(3)
        assert embed_sequence(tokens, table).tobytes() == mean.tobytes()

    def test_repeated_and_empty(self, small_table):
        rows = small_table.vectors(["sun", "astronomicalBody", "sun", "nothing"])
        assert rows.tolist() == [[0.6, 0.8], [0.5, 0.5], [0.6, 0.8], [0.0, 0.0]]
        assert small_table.vectors([]).shape == (0, 2)
        assert EmbeddingTable(2, {}).vectors(["sun"]).tolist() == [[0.0, 0.0]]


class TestCosine:
    def test_self_similarity(self):
        v = np.array([0.3, -1.2, 2.0])
        assert cosine(v, v) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal(self):
        assert cosine(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0

    def test_hand_value(self):
        got = cosine(np.array([1.0, 1.0]), np.array([1.0, 0.0]))
        assert got == pytest.approx(1 / math.sqrt(2), abs=1e-9)

    def test_zero_norm(self):
        assert cosine(np.zeros(3), np.ones(3)) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            cosine(np.ones(2), np.ones(3))

    def test_symmetry(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            u, v = rng.normal(size=7), rng.normal(size=7)
            assert abs(cosine(u, v) - cosine(v, u)) <= 1e-12

    def test_scale_invariance(self):
        rng = np.random.default_rng(6)
        for alpha in (0.001, 0.5, 3.0, 1e6):
            u, v = rng.normal(size=5), rng.normal(size=5)
            assert cosine(alpha * u, v) == pytest.approx(cosine(u, v), abs=1e-9)

    def test_range(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            u, v = rng.normal(size=4), rng.normal(size=4)
            assert -1.0 <= cosine(u, v) <= 1.0
