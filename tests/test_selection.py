import random

import numpy as np
import pytest

from corg import Triple
from corg.embeddings import EmbeddingTable, OovPolicy, cosine
from corg.errors import EmptyGoal
from corg.fol import And, Atom, Constant, symbols, triple_symbols
from corg.selection import (Prefilter, SineConfig, build_index,
                            similarity_sine_select, sine_select)
from oracles import reachable_closure


def fig_axioms(fig_graph):
    return {f"t{i + 1}": triple_symbols(t)
            for i, t in enumerate(fig_graph.triples)}


class TestBuildIndex:
    def test_counts(self):
        axioms = {"a1": {"p", "a"}, "a2": {"p", "b"}}
        idx = build_index(axioms)
        assert idx.occ == {"p": 2, "a": 1, "b": 1}
        assert idx.by_symbol["p"] == ["a1", "a2"]

    def test_set_semantics_within_axiom(self):
        axioms = {"a1": symbols(And((Atom("p", (Constant("a"),)),
                                     Atom("p", (Constant("b"),)))))}
        assert build_index(axioms).occ["p"] == 1
        assert build_index({"a1": ["p", "a", "p"]}).occ["p"] == 1

    def test_fig_counts(self, fig_graph):
        idx = build_index(fig_axioms(fig_graph))
        assert idx.occ["atlocation"] == 3
        assert idx.occ["ground"] == 2
        assert idx.occ["sun"] == 1


class TestSineSelect:
    def test_tolerance_one_depth_one_selects_sun_axiom_only(self, fig_graph):
        idx = build_index(fig_axioms(fig_graph))
        got = sine_select(idx, {"sun"}, SineConfig(tolerance=1, max_depth=1))
        assert got == {"t1"}

    def test_large_tolerance_reaches_closure(self, fig_graph):
        idx = build_index(fig_axioms(fig_graph))
        got = sine_select(idx, {"sun"}, SineConfig(tolerance=100, max_depth=None))
        assert got == {"t1", "t2", "t3", "t4"}

    def test_unknown_goal_selects_nothing(self, fig_graph):
        idx = build_index(fig_axioms(fig_graph))
        assert sine_select(idx, {"nonexistent_symbol"}, SineConfig()) == set()

    def test_empty_goal_rejected(self, fig_graph):
        idx = build_index(fig_axioms(fig_graph))
        with pytest.raises(EmptyGoal):
            sine_select(idx, set(), SineConfig())

    def test_selection_ids_exist(self, fig_graph):
        axioms = fig_axioms(fig_graph)
        idx = build_index(axioms)
        got = sine_select(idx, {"shadow", "grass"}, SineConfig())
        assert got <= set(axioms)

    def test_generality_threshold_triggers_rare_symbols(self):
        # occ(q)=1 <= threshold, so q triggers a2 even though p is less general there
        axioms = {"a1": {"p"}, "a2": {"q", "c1", "c2", "c3"}}
        idx = build_index(axioms)
        strict = sine_select(idx, {"q"}, SineConfig(tolerance=1, max_depth=1))
        assert strict == {"a2"}
        # raise occ(q) above min occ of a2 by adding another q axiom
        axioms["a3"] = {"q"}
        idx = build_index(axioms)
        base = sine_select(idx, {"q"}, SineConfig(tolerance=1, max_depth=1))
        assert base == {"a3"}
        widened = sine_select(idx, {"q"}, SineConfig(
            tolerance=1, max_depth=1, generality_threshold=2))
        assert widened == {"a2", "a3"}


def random_axiom_set(rng):
    pool = [f"s{k}" for k in range(10)]
    axioms = {}
    for n in range(rng.randrange(5, 15)):
        k = rng.randrange(1, 4)
        parts = rng.sample(pool, k)
        axioms[f"a{n}"] = frozenset(parts)
    return axioms


class TestSineProperties:
    def test_tolerance_monotonicity(self):
        rng = random.Random(41)
        for _ in range(40):
            axioms = random_axiom_set(rng)
            idx = build_index(axioms)
            goals = {rng.choice([f"s{k}" for k in range(10)])}
            t1, t2 = sorted([1 + 3 * rng.random(), 1 + 3 * rng.random()])
            small = sine_select(idx, goals, SineConfig(tolerance=t1, max_depth=3))
            large = sine_select(idx, goals, SineConfig(tolerance=t2, max_depth=3))
            assert small <= large

    def test_depth_monotonicity(self):
        rng = random.Random(42)
        for _ in range(40):
            axioms = random_axiom_set(rng)
            idx = build_index(axioms)
            goals = {rng.choice([f"s{k}" for k in range(10)])}
            d = rng.randrange(1, 4)
            shallow = sine_select(idx, goals, SineConfig(max_depth=d))
            deep = sine_select(idx, goals, SineConfig(max_depth=d + 1))
            assert shallow <= deep

    def test_limit_equals_reachable_closure(self):
        rng = random.Random(43)
        for _ in range(40):
            axioms = random_axiom_set(rng)
            idx = build_index(axioms)
            goals = {rng.choice([f"s{k}" for k in range(10)])}
            got = sine_select(idx, goals, SineConfig(tolerance=1e9, max_depth=None))
            expected = reachable_closure(
                {aid: set(syms) for aid, syms in axioms.items()}, goals)
            assert got == expected


class TestSimilaritySine:
    def table(self):
        return EmbeddingTable(2, {
            "sun": np.array([1.0, 0.0]),
            "sunshine": np.array([0.9, np.sqrt(1 - 0.81)]),  # cos 0.9 to sun
            "rain": np.array([0.0, 1.0]),
        })

    def axioms(self):
        return {"a1": {"sun", "warm"}, "a2": {"sunshine", "bright"},
                "a3": {"rain", "wet"}}

    def test_threshold_one_equals_plain_sine(self, fig_graph):
        axioms = fig_axioms(fig_graph)
        idx = build_index(axioms)
        table = EmbeddingTable(2, {
            "sun": np.array([1.0, 0.0]),
            "light": np.array([0.0, 1.0]),
            "shadow": np.array([0.6, 0.8]),
        })
        cfg = SineConfig(similarity_threshold=1.0)
        assert similarity_sine_select(idx, {"sun"}, cfg, table) == \
            sine_select(idx, {"sun"}, cfg)

    def test_similar_symbol_seeds_selection(self):
        idx = build_index(self.axioms())
        cfg = SineConfig(tolerance=1, max_depth=1, similarity_threshold=0.8)
        got = similarity_sine_select(idx, {"sun"}, cfg, self.table())
        assert got == {"a1", "a2"}
        strict = similarity_sine_select(
            idx, {"sun"}, SineConfig(tolerance=1, max_depth=1,
                                     similarity_threshold=0.95), self.table())
        assert strict == {"a1"}

    def test_threshold_zero_seeds_everything(self):
        idx = build_index(self.axioms())
        cfg = SineConfig(tolerance=1e9, max_depth=None, similarity_threshold=0.0)
        got = similarity_sine_select(idx, {"sun"}, cfg, self.table())
        assert got == {"a1", "a2", "a3"}

    def test_empty_goal_rejected(self):
        idx = build_index(self.axioms())
        with pytest.raises(EmptyGoal):
            similarity_sine_select(idx, set(), SineConfig(), self.table())


class TestTriplePrefilter:
    def table(self):
        return EmbeddingTable(2, {
            "sun": np.array([1.0, 0.0]),
            "light": np.array([0.9, np.sqrt(1 - 0.81)]),
            "star": np.array([-1.0, 0.0]),
            "shadow": np.array([1.0, 0.0]),
        })

    def triples(self):
        return [Triple("sun", "is_a", "star"), Triple("sun", "causes", "light")]

    def kept(self, triples, words, theta, table=None):
        prefilter = Prefilter(triples, table or self.table())
        return [triples[i] for i in prefilter.apply_indices(words, theta)]

    def test_star_rejected_light_kept(self):
        words = ["shadow", "grass", "sun", "rising", "cut"]
        kept = self.kept(self.triples(), words, 0.4)
        assert [(t.subject, t.relation, t.object) for t in kept] == \
            [("sun", "causes", "light")]

    def test_vacuous_threshold_keeps_all(self):
        kept = self.kept(self.triples(), ["shadow"], -1.0)
        assert kept == self.triples()

    def test_theta_monotonicity(self):
        rng = np.random.default_rng(17)
        words = [f"w{i}" for i in range(4)]
        objects = [f"o{i}" for i in range(12)]
        entries = {w: rng.normal(size=3) for w in words + objects}
        table = EmbeddingTable(3, entries)
        triples = [Triple("s", "r", o) for o in objects]
        for _ in range(10):
            t1, t2 = sorted(rng.uniform(-1, 1, size=2))
            kept1 = self.kept(triples, words, t1, table)
            kept2 = self.kept(triples, words, t2, table)
            assert set((t.subject, t.object) for t in kept2) <= \
                set((t.subject, t.object) for t in kept1)

    def test_order_preserved(self):
        kept = self.kept(self.triples(), ["sun"], -1.0)
        assert kept == self.triples()

    def test_oov_object_uses_policy(self):
        # unknown object embeds as zero => cosine 0 => kept only when theta <= 0
        triples = [Triple("sun", "is_a", "mystery_thing")]
        assert self.kept(triples, ["sun"], 0.1) == []
        assert self.kept(triples, ["sun"], 0.0) == triples

    def test_empty_words_rejected(self):
        with pytest.raises(EmptyGoal):
            Prefilter(self.triples(), self.table()).apply_indices([], 0.5)

    def test_matches_per_triple_loop(self):
        # reference: each triple's own object cosine against every word
        rng = np.random.default_rng(5)
        words = [f"w{i}" for i in range(3)]
        objects = [f"o{i}" for i in range(6)] + ["missing"]
        table = EmbeddingTable(3, {w: rng.normal(size=3)
                                   for w in words + objects[:-1]})
        triples = [Triple("s", "r", objects[k]) for k in rng.integers(7, size=40)]
        for theta in (-1.0, -0.2, 0.0, 0.3, 0.9):
            expected = [
                i for i, t in enumerate(triples)
                if max(cosine(table.vector(t.object, OovPolicy()),
                              table.vector(w, OovPolicy())) for w in words)
                >= theta]
            got = Prefilter(triples, table).apply_indices(words, theta)
            assert got == expected

    def test_empty_graph_keeps_nothing(self):
        assert Prefilter([], self.table()).apply_indices(["sun"], -1.0) == []
