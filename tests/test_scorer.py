import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corg.embeddings import EmbeddingTable
from corg.errors import BadCardinality
from corg.scorer import Choice, choose, embed_sequence, likelihoods, score_pair


@pytest.fixture
def table():
    return EmbeddingTable(2, {
        "east": np.array([1.0, 0.0]),
        "north": np.array([0.0, 1.0]),
        "northeast": np.array([1.0, 1.0]),
    })


class TestEmbedSequence:
    def test_single_word(self, table):
        assert np.array_equal(embed_sequence(["north"], table), [0.0, 1.0])

    def test_mean_of_two(self, table):
        assert np.allclose(embed_sequence(["east", "north"], table), [0.5, 0.5])

    def test_empty_sequence_is_zero(self, table):
        assert not embed_sequence([], table).any()

    def test_all_oov_is_zero(self, table):
        assert not embed_sequence(["gibberish", "nonsense"], table).any()


def scored(premise_words, answer_words, table):
    return score_pair(embed_sequence(premise_words, table),
                      embed_sequence(answer_words, table))


class TestScorePair:
    def test_identical_sequences(self, table):
        assert scored(["east", "north"], ["east", "north"], table) == \
            pytest.approx(1.0, abs=1e-9)

    def test_orthogonal(self, table):
        assert scored(["east"], ["north"], table) == 0.0

    def test_hand_value(self, table):
        got = scored(["northeast"], ["east"], table)
        assert got == pytest.approx(1 / math.sqrt(2), abs=1e-4)

    def test_zero_side_scores_zero(self, table):
        assert scored([], ["east"], table) == 0.0
        assert scored(["gibberish"], ["east"], table) == 0.0

    def test_symmetry(self, table):
        a, b = ["east", "northeast"], ["north"]
        assert abs(scored(a, b, table) - scored(b, a, table)) <= 1e-12


class TestLikelihoods:
    def test_equal_scores_split_evenly(self):
        assert likelihoods([0.3, 0.3]) == [0.5, 0.5]

    def test_hand_softmax(self):
        y = likelihoods([1.0, 0.0])
        e = math.e
        assert y[0] == pytest.approx(e / (e + 1), abs=1e-4)
        assert y[1] == pytest.approx(1 / (e + 1), abs=1e-4)

    def test_shift_invariance(self):
        base = likelihoods([0.2, 0.7, -0.1])
        shifted = likelihoods([0.2 + 5, 0.7 + 5, -0.1 + 5])
        for a, b in zip(base, shifted):
            assert a == pytest.approx(b, abs=1e-9)

    def test_cardinality(self):
        with pytest.raises(BadCardinality):
            likelihoods([0.5])

    def test_sum_and_range(self):
        rng = random.Random(99)
        for _ in range(200):
            n = rng.randrange(2, 6)
            scores = [rng.uniform(-5, 5) for _ in range(n)]
            y = likelihoods(scores)
            assert sum(y) == pytest.approx(1.0, abs=1e-9)
            assert all(0.0 < v < 1.0 for v in y)

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(st.lists(st.floats(-30, 30), min_size=2, max_size=5).flatmap(
        lambda s: st.tuples(st.just(s), st.permutations(range(len(s))))))
    def test_permuting_scores_permutes_likelihoods_bit_for_bit(self, drawn):
        scores, perm = drawn
        y = likelihoods(scores)
        moved = likelihoods([scores[i] for i in perm])
        assert [v.hex() for v in moved] == [y[i].hex() for i in perm]

    def test_order_preserving_any_temperature(self):
        rng = random.Random(100)
        for _ in range(100):
            scores = [rng.uniform(-2, 2) for _ in range(3)]
            temp = rng.choice([0.1, 1.0, 7.5])
            y = likelihoods([s / temp for s in scores])
            assert choose(y).index == scores.index(max(scores)) + 1


class TestChoose:
    def test_first_alternative(self):
        assert choose([0.7311, 0.2689]) == Choice(1, False)

    def test_tie_flags_lowest_index(self):
        assert choose([0.5, 0.5]) == Choice(1, True)

    def test_three_way(self):
        assert choose([0.1, 0.2, 0.7]) == Choice(3, False)

    def test_accepts_score_vector(self):
        assert choose(likelihoods([0.0, 3.0])).index == 2
