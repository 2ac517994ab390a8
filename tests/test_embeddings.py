import gzip
import math

import numpy as np
import pytest

from corg.embeddings import EmbeddingTable, cosine, load_table, split_identifier
from corg.errors import CorruptArchive, DimensionMismatch, MalformedLine


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
        assert np.array_equal(table.get("sun"), [1, 0, 0, 0])

    def test_header_enforces_dimension(self, tmp_path):
        path = tmp_path / "vec.txt"
        path.write_text("2 300\n" + "sun " + " ".join(["0.5"] * 300) + "\n", "utf-8")
        table = load_table(path)
        assert table.dimension == 300
        assert len(table) == 1

    def test_dimension_mismatch(self, tmp_path):
        path = tmp_path / "vec.txt"
        path.write_text("2 300\nsun " + " ".join(["0.5"] * 299) + "\n", "utf-8")
        with pytest.raises(DimensionMismatch):
            load_table(path)

    def test_duplicates_last_wins(self, tmp_path):
        path = tmp_path / "vec.txt"
        path.write_text("sun 1 0\nsun 0 1\n", "utf-8")
        table = load_table(path)
        assert table.duplicates == 1
        assert np.array_equal(table.get("sun"), [0, 1])

    def test_gzip(self, tmp_path):
        path = tmp_path / "vec.txt.gz"
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("sun 1 0\n")
        assert len(load_table(path)) == 1

    def test_keys_lowercased(self, tmp_path):
        path = tmp_path / "vec.txt"
        path.write_text("Sun 1 0\n", "utf-8")
        assert "sun" in load_table(path)

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
            load_table(path)
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
            load_table(path)

    def test_cut_gzip_is_corrupt_archive(self, tmp_path):
        path = tmp_path / "vec.txt.gz"
        data = gzip.compress("".join(f"w{i} {i} 1\n" for i in range(200)).encode())
        path.write_bytes(data[:len(data) // 2])
        with pytest.raises(CorruptArchive):
            load_table(path)


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
        assert np.array_equal(small_table.vector("sun"), [0.6, 0.8])

    def test_camel_case_average(self, small_table):
        v = small_table.vector("astronomicalBody")
        assert np.allclose(v, [0.5, 0.5])

    def test_underscore_average_skips_oov_parts(self, small_table):
        # only "body" is in vocabulary, so the mean is just its vector
        v = small_table.vector("strange_body")
        assert np.allclose(v, [0.0, 1.0])

    def test_all_oov_zero_mode(self, small_table):
        v = small_table.vector("unknown_thing")
        assert v.shape == (2,) and not v.any()

    def test_deterministic(self, small_table):
        a = small_table.vector("astronomicalBody")
        b = small_table.vector("astronomicalBody")
        assert np.array_equal(a, b)


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
