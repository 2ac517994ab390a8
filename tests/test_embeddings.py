import gc
import gzip
import math
import os
import re
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from corg import embeddings, kg
from corg.embeddings import EmbeddingTable, load_table, split_identifier
from corg.errors import CorgError, CorruptArchive, DimensionMismatch, MalformedLine
from corg.scorer import embed_sequence, score_pair
from conftest import opened_files
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

    @pytest.mark.parametrize("header", ["", "2 2\n"])
    @pytest.mark.parametrize("suffix", [".txt", ".txt.gz"])
    def test_byte_order_mark_dropped(self, tmp_path, header, suffix):
        # the mark is not part of the first word, or of a header; a row's
        # offset counts from after the mark, past a "\r\n" line, so a plain
        # table's rows are read again from the right bytes
        data = f"\ufeff{header}sun 1 0\r\nmoon 0 1\n".encode("utf-8")
        path = tmp_path / ("vec" + suffix)
        path.write_bytes(gzip.compress(data) if suffix == ".txt.gz" else data)
        table = load_table(path)
        assert list(table.rows) == ["sun", "moon"]
        assert table.vectors(["sun", "moon"]).tolist() == [[1, 0], [0, 1]]

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

    def test_invalid_utf8_in_gzip_names_file_and_line(self, tmp_path):
        path = tmp_path / "vec.txt.gz"
        path.write_bytes(gzip.compress(b"sun 1 0\nsu\xffn 0 1\n"))
        with pytest.raises(MalformedLine, match="line 2: not valid UTF-8") as err:
            load_table(path)
        assert str(path) in str(err.value)

    @pytest.mark.parametrize("suffix", [".txt", ".txt.gz"])
    def test_failed_load_closes_its_file(self, tmp_path, suffix):
        # the error's traceback keeps the loader's frames alive: the file is
        # closed all the same, not left to the garbage collector
        data = b"sun 1 0\nsu\xffn 0 1\n"
        path = tmp_path / ("vec" + suffix)
        path.write_bytes(gzip.compress(data) if suffix == ".txt.gz" else data)
        with opened_files() as opened, pytest.raises(MalformedLine) as err:
            load_table(path)
        assert err.value.__traceback__ is not None
        assert len(opened) == 1 and opened[0].closed

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
# each separator but " " sends its block to the per-line rule, as do a line
# end other than "\n", a space at either end of a line, a blank line and a
# word that is not ASCII
_SEPARATORS = st.sampled_from([" ", " ", "\t", "\xa0", "  ", "\x0b", "\x0c", "\x1c", "\x1f",
                               "\x85", "\u3000"])
_LINE_ENDS = st.sampled_from(["\n", "\n", "\n", "\r\n", "\r"])
_WORDS = st.sampled_from(["sun", "Sun", "moon", "star", "w1", "Sönne", "SÖNNE"])


@st.composite
def _tables(draw, bad=True):
    """A table file as bytes, with the number of its bad lines (2 for "more
    than one"), none unless ``bad``.  Words repeat, so duplicates fall
    inside and across blocks."""
    dim = draw(st.integers(1, 3))

    def vector_line(width, last=_GOOD_FLOATS):
        words = [draw(_WORDS)]
        floats = [draw(st.sampled_from(_GOOD_FLOATS)) for _ in range(width - 1)]
        floats += [draw(st.sampled_from(last))] if width else []
        line = draw(_SEPARATORS).join(words + floats)
        return draw(st.sampled_from(["", "", "", " "])) + line + \
            draw(st.sampled_from(["", "", "", " ", "\x0c"]))

    lines = [vector_line(dim) if draw(st.integers(0, 5)) else draw(st.sampled_from(["", " "]))
             for _ in range(draw(st.integers(0, 14)))]
    header = draw(st.sampled_from(["", "", "count", "3 0", "wide", "miscount"] if bad
                                  else ["", "count"]))
    n_bad = {"3 0": 1, "wide": 2, "miscount": 1}.get(header, 0)
    for kind in draw(st.lists(st.integers(0, 3), max_size=2 if bad else 0)):
        if kind == 0:
            line = vector_line(dim, last=_BAD_FLOATS)
        elif kind == 1:  # a component too many or too few
            line = vector_line(dim + draw(st.sampled_from([1, -1])))
        elif kind == 2:
            line = vector_line(0)
        else:
            line = "su\udcffn " + vector_line(dim)
        lines.insert(draw(st.integers(0, len(lines))), line)
        n_bad += 1
    if header:
        n = sum(1 for line in lines if line.strip())
        lines.insert(0, {"count": f"{n} {dim}", "wide": f"{n} {dim + 1}",
                         "miscount": f"{n + 1} {dim}"}.get(header, header))
    text = "".join(line + draw(_LINE_ENDS) for line in lines)
    if draw(st.booleans()):  # no line end after the last line
        text = text.rstrip("\r\n")
    return text.encode("utf-8", "surrogateescape"), min(n_bad, 2)


def _error_line(error: Exception):
    found = re.match(r"line (\d+):", str(error))
    return found and int(found.group(1))


def _per_line_bytes(spy) -> bytes:
    """The bytes that a spy on ``_text_lines`` saw go to the per-line rule."""
    return b"".join(call.args[0] for call in spy.call_args_list)


def _gzipped(path):
    """A ``.gz`` copy of the table file at ``path``, beside it."""
    gz = path.with_name(path.name + ".gz")
    gz.write_bytes(gzip.compress(path.read_bytes()))
    return gz


def _read_all(table: EmbeddingTable) -> np.ndarray:
    """Every row of the table, read with one ``vectors`` call."""
    return table.vectors(list(table.rows))


class TestLoadTableOracle:
    """The loader loads what the line-by-line reference loads: a table, plain
    or ``.gz``, makes the reference's checks that read no float at load,
    and each row it reads has the reference's floats or raises its error."""

    @settings(max_examples=400, derandomize=True, database=None, deadline=None)
    @given(_tables(), st.sampled_from([1, 7, 64, kg._BLOCK_BYTES]))
    @example((b"sun 1 0\nmoon 1_0 2\nsun 3 4\nstar nan 1\n", 1), 7)
    @example((b"2 2\nsun 1 0\r\nmoon  0 1", 0), 7)
    def test_same_table_as_reference(self, tmp_path_factory, table_file, block_bytes):
        data, bad_lines = table_file
        path = tmp_path_factory.mktemp("table") / "vec.txt"
        path.write_bytes(data)
        with mock.patch.object(kg, "_BLOCK_BYTES", block_bytes):
            self.check(path, bad_lines)
            self.check(_gzipped(path), bad_lines)

    def test_blocks_of_full_size(self, tmp_path, monkeypatch):
        # about 20 blocks: duplicates across blocks and "1_0" at a block's
        # end; then one non-finite component further on
        monkeypatch.setattr(kg, "_BLOCK_BYTES", 4096)
        lines = [f"w{i % 1500} {i} {i / 7}" for i in range(3000)]
        lines[1023] = "w5 1_0 2"
        path = tmp_path / "vec.txt"
        path.write_text("\n".join(lines), "utf-8")
        self.check(path, 0)
        self.check(_gzipped(path), 0)
        lines[2047] = "w 1e999 0"
        path.write_text("\n".join(lines), "utf-8")
        gz = _gzipped(path)
        self.check(path, 1)
        self.check(gz, 1)
        for table in load_table(path), load_table(gz):
            with pytest.raises(MalformedLine, match="line 2048: "):
                table.vectors(["w"])

    @pytest.mark.parametrize("line", [
        "sun 1 0\r", "sun\x0c1 0", "sun\x1c1 0", "sun\x1f1 0", " sun 1 0", "sun 1 0 ", "",
        "sönne 1 0", "sun\x851 0", "sun\u30001 0", "sun\t1 0", "sun  1 0", "sun\xa01 0",
        "sun\x0b1 0"])
    @pytest.mark.parametrize("suffix", [".txt", ".txt.gz"])
    def test_uneven_block_goes_line_by_line(self, tmp_path, line, suffix):
        data = f"{2 + bool(line)} 2\nmoon 0 1\n{line}\nstar 1 1\n".encode("utf-8")
        path = tmp_path / ("vec" + suffix)
        path.write_bytes(gzip.compress(data) if suffix == ".txt.gz" else data)
        with mock.patch.object(embeddings, "_text_lines", wraps=embeddings._text_lines) as spy:
            self.check(path, 0)
        assert f"moon 0 1\n{line}\n".encode("utf-8") in _per_line_bytes(spy)

    @pytest.mark.parametrize("block_bytes", [64, kg._BLOCK_BYTES])
    @pytest.mark.parametrize("suffix", [".txt", ".txt.gz"])
    def test_even_blocks_skip_the_per_line_rule(self, tmp_path, monkeypatch, block_bytes,
                                                suffix):
        # every line but the header is indexed from its block's bytes
        monkeypatch.setattr(kg, "_BLOCK_BYTES", block_bytes)
        dim, n = 40, 8000
        header = f"{n} {dim}\n".encode()
        data = header + "".join(f"W{i} " + " ".join(str((i * j) % 97 - 48) for j in range(dim))
                                + "\n" for i in range(n)).encode()
        assert len(data) > 4 * kg._BLOCK_BYTES
        path = tmp_path / ("vec" + suffix)
        path.write_bytes(gzip.compress(data) if suffix == ".txt.gz" else data)
        with mock.patch.object(embeddings, "_text_lines", wraps=embeddings._text_lines) as spy:
            table = load_table(path)
        assert _per_line_bytes(spy) == header
        assert (len(table), table.dimension, table.duplicates) == (n, dim, 0)
        assert table.vectors(["w7", "W7999"]).tolist() == \
            [[(7 * j) % 97 - 48 for j in range(dim)], [(7999 * j) % 97 - 48 for j in range(dim)]]

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


class TestLazyRows:
    """A table, plain or ``.gz``, parses a row when ``vectors`` first reads it."""

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
        tokens = st.sampled_from(list(expected.vectors)).flatmap(
            lambda w: st.sampled_from([w, w.upper(), w.title()]))
        batches = data.draw(st.lists(st.lists(tokens, max_size=6), max_size=5))
        for table in load_table(path), load_table(_gzipped(path)):
            for batch in batches:
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
        plain = tmp_path / "vec.txt"
        plain.write_text("sun 1 0\nmoon 0 1\n", "utf-8")
        for path in plain, _gzipped(plain):
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

    def test_gzip_rows_parse_when_read(self, tmp_path):
        # a .gz table is never read again: its rows parse from the text it keeps
        path = tmp_path / "vec.txt.gz"
        path.write_bytes(gzip.compress(b"sun 1 0\nmoon 1 x\nstar 0 inf\n"))
        table = load_table(path)
        path.unlink()
        assert len(table) == 3
        with pytest.raises(DimensionMismatch, match="line 2: bad float") as err:
            table.vectors(["sun", "moon"])
        assert str(path) in str(err.value)
        with pytest.raises(MalformedLine, match="line 3: component that is not finite"):
            table.vectors(["star"])
        with pytest.raises(DimensionMismatch, match="line 2: bad float"):
            table.vectors(["moon"])  # a failed read keeps nothing
        assert table.vectors(["sun"]).tolist() == [[1.0, 0.0]]

    def test_gzip_keeps_its_text_once(self, tmp_path):
        # at most the decompressed text above what a plain load of the same
        # table holds
        n, dim = 5000, 16
        plain = tmp_path / "vec.txt"
        plain.write_text("".join(f"w{i} " + " ".join(str((i * j) % 89 / 8) for j in range(dim))
                                 + "\n" for i in range(n)), "utf-8")
        held = {}
        for path in plain, _gzipped(plain):
            gc.collect()
            tracemalloc.start()
            try:
                table = load_table(path)
                held[path.suffix] = tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()
            assert len(table) == n
            del table
        assert held[".gz"] - held[".txt"] <= 1.25 * plain.stat().st_size

    def test_gzip_kept_text_holds_no_slack(self, tmp_path):
        # the kept text is cut to its length once the load has read it
        n, dim = 40000, 16
        text = "".join(f"w{i} " + " ".join(str((i * j) % 89 / 8) for j in range(dim)) + "\n"
                       for i in range(n)).encode()
        path = tmp_path / "vec.txt.gz"
        path.write_bytes(gzip.compress(text, compresslevel=1))
        table = load_table(path)
        assert table._text.getbuffer() == text
        assert sys.getsizeof(table._text) - len(text) < 4096

    def test_parsed_rows_hold_no_slack(self, tmp_path):
        # parsed rows hold no zero-filled room for rows not read yet
        n, dim = 2000, 64
        path = tmp_path / "vec.txt"
        path.write_text("".join(f"w{i} " + " ".join([str(i % 7)] * dim) + "\n"
                                for i in range(n)), "utf-8")
        table = load_table(path)
        tracemalloc.start()
        try:
            table.vectors([f"w{i}" for i in range(n // 2)])
            table.vectors([f"w{n - 1}"])
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert kept < 2 * (n // 2 + 1) * dim * 8


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
    @pytest.mark.parametrize("vector, error, message", [
        (np.float64(1.0), DimensionMismatch, r"'sun' has shape \(\)"),
        (np.array([1.0]), DimensionMismatch, r"'sun' has shape \(1,\)"),
        (np.array([1.0, 0.0, 0.0]), DimensionMismatch, r"'sun' has shape \(3,\)"),
        (np.array([np.nan, 1.0]), ValueError, "'sun' must be finite"),
        (np.array([1.0, -np.inf]), ValueError, "'sun' must be finite"),
    ], ids=["scalar", "length-1", "length-3", "nan", "inf"])
    def test_given_vectors_checked_as_loaded_rows(self, vector, error, message):
        # a length-1 vector would be broadcast, and a NaN one would score -1
        # against everything
        with pytest.raises(error, match=message):
            EmbeddingTable(2, {"moon": np.array([0.0, 1.0]), "sun": vector})

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

    def test_given_key_kept_as_given(self):
        # vectors lowercases every token, so an uppercase key is never found
        table = EmbeddingTable(2, {"Sun": np.array([0.6, 0.8])})
        assert list(table.rows) == ["Sun"]
        assert table.vectors(["Sun", "sun"]).tolist() == [[0.0, 0.0], [0.0, 0.0]]

    def test_repeated_and_empty(self, small_table):
        rows = small_table.vectors(["sun", "astronomicalBody", "sun", "nothing"])
        assert rows.tolist() == [[0.6, 0.8], [0.5, 0.5], [0.6, 0.8], [0.0, 0.0]]
        assert small_table.vectors([]).shape == (0, 2)
        assert EmbeddingTable(2, {}).vectors(["sun"]).tolist() == [[0.0, 0.0]]


class TestCosine:
    """``scorer.score_pair``, the one cosine, on embeddings given directly."""

    def test_self_similarity(self):
        v = np.array([0.3, -1.2, 2.0])
        assert score_pair(v, v) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal(self):
        assert score_pair(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0

    def test_hand_value(self):
        got = score_pair(np.array([1.0, 1.0]), np.array([1.0, 0.0]))
        assert got == pytest.approx(1 / math.sqrt(2), abs=1e-9)

    def test_zero_norm(self):
        assert score_pair(np.zeros(3), np.ones(3)) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            score_pair(np.ones(2), np.ones(3))

    def test_symmetry(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            u, v = rng.normal(size=7), rng.normal(size=7)
            assert abs(score_pair(u, v) - score_pair(v, u)) <= 1e-12

    def test_scale_invariance(self):
        rng = np.random.default_rng(6)
        for alpha in (0.001, 0.5, 3.0, 1e6):
            u, v = rng.normal(size=5), rng.normal(size=5)
            assert score_pair(alpha * u, v) == pytest.approx(score_pair(u, v), abs=1e-9)

    def test_range(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            u, v = rng.normal(size=4), rng.normal(size=4)
            assert -1.0 <= score_pair(u, v) <= 1.0
