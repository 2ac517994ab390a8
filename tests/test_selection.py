import itertools
import math
import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from corg import KnowledgeGraph, Triple
from corg.embeddings import EmbeddingTable
from corg.fol import symbols, translate_existential, translate_inverse
from corg.pipeline import Pipeline, PipelineConfig, axiom_id, content_words
from corg.selection import (Cosines, Prefilter, SineConfig, SymbolTable, TripleColumns,
                            build_index, similarity_sine_select, sine_select)
from oracles import (ReferenceTable, exactly_near, reachable_closure,
                     reference_sine_select, reference_vector, unit_rows)

NO_VECTORS = EmbeddingTable(2, {})


def index_of(axioms, table=NO_VECTORS):
    """Index of string-keyed axioms (id -> symbols), one row each, padded with -1."""
    ids: dict[str, int] = {}
    id_rows = [[ids.setdefault(s, len(ids)) for s in syms] for syms in axioms.values()]
    rows = np.full((len(id_rows), max(map(len, id_rows), default=0)), -1, np.int32)
    for row, syms in zip(rows, id_rows):
        row[:len(syms)] = syms
    return build_index(rows, SymbolTable(ids, table))


def picked(axioms, positions):
    """Axiom ids at the selected positions."""
    aids = list(axioms)
    return [aids[p] for p in positions]


def fig_index(fig_graph, table=NO_VECTORS):
    columns = TripleColumns(fig_graph, table)
    return build_index(columns.axioms(np.arange(len(fig_graph)))[0], columns.symbols)


def fig_ids(positions):
    return {f"t{p + 1}" for p in positions}


def occ_of(idx, name):
    return idx.occ[idx.symbols.ids[name]]


class TestBuildIndex:
    def test_counts(self):
        idx = index_of({"a1": ["p", "a"], "a2": ["p", "b"]})
        assert {s: occ_of(idx, s) for s in ("p", "a", "b")} == {"p": 2, "a": 1, "b": 1}
        assert idx.min_occ.tolist() == [1, 1]
        assert len(idx) == 2

    def test_set_semantics_within_axiom(self):
        idx = index_of({"a1": ["p", "a", "p"]})
        assert occ_of(idx, "p") == 1
        assert idx.rows.tolist() == [[0, 1, -1]]
        # a triple whose subject and object coincide, or whose concept is
        # spelled like its predicate, has fewer than three symbols
        for triple, n in [(Triple("a", "r", "a"), 2), (Triple("causes", "causes", "x"), 2),
                          (Triple("x", "causes", "x"), 2)]:
            columns = TripleColumns(KnowledgeGraph([triple]), NO_VECTORS)
            idx = build_index(columns.axioms(np.array([0]))[0], columns.symbols)
            assert (idx.rows >= 0).sum() == n
            assert idx.occ.max() == 1

    def test_fig_counts(self, fig_graph):
        idx = fig_index(fig_graph)
        assert occ_of(idx, "atlocation") == 3
        assert occ_of(idx, "ground") == 2
        assert occ_of(idx, "sun") == 1

    def test_empty(self):
        idx = build_index(np.empty((0, 3), np.int32), SymbolTable({"p": 0}, NO_VECTORS))
        assert len(idx) == 0
        assert sine_select(idx, {"p"}).tolist() == []


class TestSineSelect:
    def test_tolerance_one_depth_one_selects_sun_axiom_only(self, fig_graph):
        got = sine_select(fig_index(fig_graph), {"sun"}, SineConfig(tolerance=1, max_depth=1))
        assert fig_ids(got) == {"t1"}

    def test_large_tolerance_reaches_closure(self, fig_graph):
        got = sine_select(fig_index(fig_graph), {"sun"},
                          SineConfig(tolerance=100, max_depth=None))
        assert fig_ids(got) == {"t1", "t2", "t3", "t4"}

    def test_unknown_goal_selects_nothing(self, fig_graph):
        assert len(sine_select(fig_index(fig_graph), {"nonexistent_symbol"},
                               SineConfig())) == 0

    def test_empty_goal_selects_nothing(self, fig_graph):
        got = sine_select(fig_index(fig_graph), set(), SineConfig(tolerance=1e9))
        assert got.dtype == np.intp and got.tolist() == []

    def test_selection_ids_exist(self, fig_graph):
        idx = fig_index(fig_graph)
        got = sine_select(idx, {"shadow", "grass"}, SineConfig())
        assert got.tolist() == sorted(set(got.tolist()))
        assert all(0 <= p < len(idx) for p in got)


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
            idx = index_of(axioms)
            goals = {rng.choice([f"s{k}" for k in range(10)])}
            t1, t2 = sorted([1 + 3 * rng.random(), 1 + 3 * rng.random()])
            small = sine_select(idx, goals, SineConfig(tolerance=t1, max_depth=3))
            large = sine_select(idx, goals, SineConfig(tolerance=t2, max_depth=3))
            assert set(small.tolist()) <= set(large.tolist())

    def test_depth_monotonicity(self):
        rng = random.Random(42)
        for _ in range(40):
            axioms = random_axiom_set(rng)
            idx = index_of(axioms)
            goals = {rng.choice([f"s{k}" for k in range(10)])}
            d = rng.randrange(1, 4)
            shallow = sine_select(idx, goals, SineConfig(max_depth=d))
            deep = sine_select(idx, goals, SineConfig(max_depth=d + 1))
            assert set(shallow.tolist()) <= set(deep.tolist())

    def test_limit_equals_reachable_closure(self):
        rng = random.Random(43)
        for _ in range(40):
            axioms = random_axiom_set(rng)
            idx = index_of(axioms)
            goals = {rng.choice([f"s{k}" for k in range(10)])}
            got = sine_select(idx, goals, SineConfig(tolerance=1e9, max_depth=None))
            expected = reachable_closure(
                {aid: set(syms) for aid, syms in axioms.items()}, goals)
            assert set(picked(axioms, got)) == expected


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
        table = EmbeddingTable(2, {
            "sun": np.array([1.0, 0.0]),
            "light": np.array([0.0, 1.0]),
            "shadow": np.array([0.6, 0.8]),
        })
        idx = fig_index(fig_graph, table)
        cfg = SineConfig(similarity_threshold=1.0)
        assert similarity_sine_select(idx, {"sun"}, cfg).tolist() == \
            sine_select(idx, {"sun"}, cfg).tolist()

    def test_similar_symbol_seeds_selection(self):
        axioms = self.axioms()
        idx = index_of(axioms, self.table())
        cfg = SineConfig(tolerance=1, max_depth=1, similarity_threshold=0.8)
        assert picked(axioms, similarity_sine_select(idx, {"sun"}, cfg)) == ["a1", "a2"]
        strict = similarity_sine_select(
            idx, {"sun"}, SineConfig(tolerance=1, max_depth=1, similarity_threshold=0.95))
        assert picked(axioms, strict) == ["a1"]

    def test_threshold_zero_seeds_everything(self):
        axioms = self.axioms()
        idx = index_of(axioms, self.table())
        cfg = SineConfig(tolerance=1e9, max_depth=None, similarity_threshold=0.0)
        assert picked(axioms, similarity_sine_select(idx, {"sun"}, cfg)) == \
            ["a1", "a2", "a3"]

    def test_threshold_minus_one_seeds_antiparallel_symbol(self):
        # a product of two unit rows can round below -1; the clipped cosine
        # cannot, so -1 seeds every indexed symbol on every draw
        rng = np.random.default_rng(0)
        axioms = {"a1": ["sun", "warm"], "a2": ["dark"], "a3": ["rain", "wet"]}
        cfg = SineConfig(tolerance=1, max_depth=1, similarity_threshold=-1.0)
        for _ in range(50):
            v = rng.normal(size=7)
            table = EmbeddingTable(7, {"sun": v, "dark": -v, "rain": rng.normal(size=7)})
            idx = index_of(axioms, table)
            assert picked(axioms, similarity_sine_select(idx, {"sun"}, cfg)) == \
                ["a1", "a2", "a3"]

    def test_empty_goal_selects_nothing(self):
        # at threshold -1 any goal would seed every indexed symbol
        idx = index_of(self.axioms(), self.table())
        got = similarity_sine_select(idx, set(), SineConfig(similarity_threshold=-1.0))
        assert got.dtype == np.intp and got.tolist() == []

    def test_one_product_per_problem(self, fig_graph, fig_table, copa1):
        # the prefilter and every text's similarity seeding read one product
        # of the symbols' unit rows per problem, over the problem's words
        # and every text's goal symbols; no text makes a product of its own
        products = []

        class CountedRows(np.ndarray):
            def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
                if ufunc is np.matmul:
                    products.append(inputs[0].shape)
                return getattr(ufunc, method)(*map(np.asarray, inputs), **kwargs)

        problems = [copa1, replace(copa1, id=2, premise="The grass was cut.",
                                   alternatives=["The sun was rising.", "My shadow grew.",
                                                 "The ground was lit."])]
        cfg = PipelineConfig(sine=SineConfig(similarity_threshold=0.8))
        expected = Pipeline(fig_graph, fig_table, cfg).evaluate(problems).to_jsonl()
        pipe = Pipeline(fig_graph, fig_table, cfg)
        pipe.columns.symbols.unit = pipe.columns.symbols.unit.view(CountedRows)
        assert pipe.evaluate(problems).to_jsonl() == expected
        vocabularies = [set(content_words(" ".join([p.premise] + p.alternatives))) | {"c0"}
                        for p in problems]
        assert products == [(len(v), 2) for v in vocabularies]


# A small graph whose concept names collide with predicates and inv_
# predicates, with self-loops and unkept triples.
_NAMES = ["sun", "light", "shadow", "causes", "inv_causes", "atlocation",
          "inv_atlocation", "is_a", "c0"]
_WORDS = ["sun", "light", "shadow", "causes", "inv", "is", "a", "rising", "c0"]
_TRIPLES = st.lists(st.tuples(st.sampled_from(_NAMES),
                              st.sampled_from(["causes", "at_location", "is_a"]),
                              st.sampled_from(_NAMES),
                              st.booleans()),  # kept by the prefilter
                    max_size=10)
_CONFIGS = st.builds(
    SineConfig,
    tolerance=st.sampled_from([1.0, 1.5, 2.0]) | st.floats(1.0, 4.0),
    max_depth=st.none() | st.integers(1, 4),
    similarity_threshold=st.none() | st.floats(-1.0, 1.0))


class TestReferenceAgreement:
    @settings(max_examples=400, derandomize=True, database=None)
    @given(_TRIPLES, st.booleans(), st.sets(st.sampled_from(_NAMES + ["rising", "x"]),
                                            min_size=1, max_size=4),
           _CONFIGS, st.sets(st.sampled_from(_WORDS)), st.integers(0, 2**32 - 1))
    @example([("sun", "causes", "sun", True), ("causes", "causes", "light", True),
              ("light", "is_a", "inv_causes", True)], True, {"sun"},
             SineConfig(tolerance=1.0, max_depth=None), set(), 0)
    def test_integer_index_selects_like_reference(self, rows, inverse, goals, cfg,
                                                  words, seed):
        rng = np.random.default_rng(seed)
        vectors = {w: rng.normal(size=3) for w in sorted(words)}
        table = EmbeddingTable(3, vectors)
        triples = [Triple(s, r, o) for s, r, o, _ in rows]
        tids = np.array([k for k, row in enumerate(rows) if row[3]], dtype=np.intp)

        columns = TripleColumns(KnowledgeGraph(triples), table, inverse=inverse)
        rows, keys = columns.axioms(tids)
        idx = build_index(rows, columns.symbols)
        select = sine_select if cfg.similarity_threshold is None else similarity_sine_select

        axioms = {}
        for tid in tids.tolist():
            axioms[f"t{tid + 1}"] = symbols(translate_existential(triples[tid]))
            if inverse:
                axioms[f"t{tid + 1}_inv"] = symbols(translate_inverse(triples[tid]))
        assert len(idx) == len(axioms)
        assert [axiom_id(key) for key in keys.tolist()] == list(axioms)
        # a second goal set on the same index reuses its cached indexed ids
        for g in (goals, goals | {"rising"}):
            assert picked(axioms, select(idx, g, cfg)) == \
                reference_sine_select(axioms, g, cfg, ReferenceTable(3, vectors))


class TestAxiomKeys:
    @pytest.mark.parametrize("inverse", [False, True])
    @pytest.mark.parametrize("tids", [[], [0], [3, 1, 2], [2, 2, 0]])
    def test_keys_name_the_rows(self, fig_graph, inverse, tids):
        columns = TripleColumns(fig_graph, NO_VECTORS, inverse=inverse)
        tids = np.array(tids, dtype=np.intp)
        rows, keys = columns.axioms(tids)
        assert rows.shape == (len(keys), 3) == (len(tids) * (2 if inverse else 1), 3)
        for row, key in zip(rows.tolist(), keys.tolist()):
            tid, backward = divmod(key, 2)
            s, p, o = (columns.subject[tid], columns.predicate[tid],
                       columns.object[tid])
            assert row == ([o, columns.inverse[tid], s] if backward else [s, p, o])
        assert keys.tolist() == [2 * t + b for t in tids.tolist()
                                 for b in ((0, 1) if inverse else (0,))]


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

    def prefilter(self, triples, table=None):
        return Prefilter(TripleColumns(KnowledgeGraph(triples), table or self.table()))

    def kept(self, triples, words, theta, table=None):
        return [triples[i] for i in self.prefilter(triples, table).apply_indices(words, theta)]

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

    def test_antiparallel_object_kept_at_minus_one(self):
        # the object's vector is the negation of the only word's, so the
        # product of their unit rows can round below -1
        rng = np.random.default_rng(0)
        triples = [Triple("sun", "is_a", "dark")]
        for _ in range(50):
            v = rng.normal(size=7)
            table = EmbeddingTable(7, {"sun": v, "dark": -v})
            assert self.kept(triples, ["sun"], -1.0, table) == triples

    def test_order_preserved(self):
        kept = self.kept(self.triples(), ["sun"], -1.0)
        assert kept == self.triples()

    def test_oov_object_uses_policy(self):
        # unknown object embeds as zero => cosine 0 => kept only when theta <= 0
        triples = [Triple("sun", "is_a", "mystery_thing")]
        assert self.kept(triples, ["sun"], 0.1) == []
        assert self.kept(triples, ["sun"], 0.0) == triples

    def test_empty_words_keep_nothing(self):
        # at theta -1 any word would keep every triple
        got = self.prefilter(self.triples()).apply_indices([], -1.0)
        assert got.dtype == np.intp and got.tolist() == []

    def test_matches_per_triple_loop(self):
        # reference: each triple's own object against every word, by the
        # fsum rule on unit rows
        rng = np.random.default_rng(5)
        words = [f"w{i}" for i in range(3)]
        vectors = {w: rng.normal(size=3) for w in words + [f"o{i}" for i in range(6)]}
        # objects pointing away from w0: against w0 alone the product of
        # their unit rows can round below -1, and theta -1 must keep them
        for k, scale in enumerate((1.0, 0.1, 3.0)):
            vectors[f"anti{k}"] = -scale * vectors["w0"]
        objects = list(vectors)[len(words):] + ["missing"]
        reference = ReferenceTable(3, vectors)
        table = EmbeddingTable(3, reference.vectors)
        triples = [Triple("s", "r", objects[k])
                   for k in rng.integers(len(objects), size=40)]
        for ws, theta in itertools.product((words, words[:1]), (-1.0, -0.2, 0.0, 0.3, 0.9)):
            word_rows = unit_rows([reference_vector(reference, w) for w in ws])
            expected = [
                i for i, t in enumerate(triples)
                if any(exactly_near(unit_rows([reference_vector(reference, t.object)])[0],
                                    row, theta) for row in word_rows)]
            got = self.prefilter(triples, table).apply_indices(ws, theta)
            assert got.tolist() == expected

    def test_empty_graph_keeps_nothing(self):
        assert self.prefilter([]).apply_indices(["sun"], -1.0).tolist() == []

    def test_concepts_are_the_first_symbols(self):
        graph = KnowledgeGraph([Triple("a", "r", "b"), Triple("b", "r", "c")])
        columns = TripleColumns(graph, self.table(), inverse=True)
        assert list(columns.symbols.ids) == ["a", "b", "c", "r", "inv_r"]
        assert list(graph.concepts) == ["a", "b", "c"]


class TestGate:
    """Every near decision follows the fsum rule on the stored unit rows:
    ``clip(fsum(u * v), -1, 1) >= theta``, whatever product it is read from."""

    WORDS = ["w0", "w1", "w2", "nothing"]  # no row for "nothing": a zero row

    def symbols(self, d, rng):
        """A graph whose objects are parallel, antiparallel, nearly
        parallel and unrelated to the words, or have no row."""
        vectors = {}
        for k in range(3):
            v = rng.normal(size=d)
            vectors[f"w{k}"] = v
            vectors[f"par{k}"] = v * rng.uniform(0.1, 10)
            vectors[f"anti{k}"] = -v * rng.uniform(0.1, 10)
            vectors[f"bent{k}"] = v + rng.normal(size=d) * 1e-9
            vectors[f"other{k}"] = rng.normal(size=d)
        objects = [n for n in vectors if not n.startswith("w")] + ["zero"]
        graph = KnowledgeGraph([Triple("s", "r", o) for o in objects])
        return TripleColumns(graph, EmbeddingTable(d, vectors))

    @staticmethod
    def exact(symbols, cosines):
        """``clip(fsum(u * v), -1, 1)`` of each symbol's unit row u with each
        vocabulary unit row v, one row per symbol."""
        return np.array([[math.fsum((u * v).tolist()) for v in cosines.unit]
                         for u in symbols.unit]).clip(-1.0, 1.0)

    @settings(max_examples=200, derandomize=True, database=None)
    @given(st.integers(1, 40), st.integers(0, 2**32 - 1), st.data())
    def test_readers_follow_the_fsum_rule(self, d, seed, data):
        rng = np.random.default_rng(seed)
        columns = self.symbols(d, rng)
        symbols = columns.symbols
        cosines = Cosines(symbols, self.WORDS)
        exact = self.exact(symbols, cosines)
        # ties at an entry, the floats either side of one, and +-1
        entry = float(data.draw(st.sampled_from(exact.ravel().tolist())))
        theta = data.draw(st.sampled_from([entry, np.nextafter(entry, 2.0),
                                           np.nextafter(entry, -2.0), -1.0, 1.0]))
        rule = exact >= theta
        every = np.arange(len(symbols))
        for j, w in enumerate(self.WORDS):
            assert cosines.near([w], theta, every).tolist() == rule[:, j].tolist()
        # any rows and columns of the product decide as the full one
        rows = np.array(data.draw(st.lists(st.integers(0, len(symbols) - 1))), dtype=np.intp)
        ws = data.draw(st.lists(st.sampled_from(self.WORDS), min_size=1, unique=True))
        cols = [cosines.position[w] for w in ws]
        assert cosines.near(ws, theta, rows).tolist() == \
            rule[rows][:, cols].any(axis=1).tolist()

        # the prefilter, from its own product and from a wider one
        expected = [t for t, o in enumerate(columns.object) if rule[o, cols].any()]
        prefilter = Prefilter(columns)
        wider = Cosines(symbols, [*rng.permutation(list(symbols.ids)), *self.WORDS[::-1]])
        assert prefilter.apply_indices(ws, theta).tolist() == expected
        assert prefilter.apply_indices(ws, theta, wider).tolist() == expected
        # seeding: one axiom per symbol, each triggered by its one symbol
        idx = build_index(np.arange(len(symbols), dtype=np.int32)[:, None], symbols)
        cfg = SineConfig(tolerance=1e9, max_depth=1, similarity_threshold=theta)
        seeded = np.flatnonzero(rule[:, cols].any(axis=1)).tolist()
        assert similarity_sine_select(idx, set(ws), cfg).tolist() == seeded
        assert similarity_sine_select(idx, set(ws), cfg, wider).tolist() == seeded

    @settings(max_examples=100, derandomize=True, database=None)
    @given(st.integers(1, 300), st.integers(0, 2**32 - 1))
    def test_any_product_within_the_bound_decides_alike(self, d, seed):
        # a product summed in another order or by another kernel is within
        # (d + 2) 2^-53 of the exact sums (see Cosines): decisions read from
        # it follow the rule at every threshold, ties included
        rng = np.random.default_rng(seed)
        symbols = self.symbols(d, rng).symbols
        cosines = Cosines(symbols, self.WORDS)
        exact = self.exact(symbols, cosines)
        noise = rng.uniform(-1.0, 1.0, exact.shape) * (d + 2) * 2.0 ** -53
        cosines.__dict__["matrix"] = np.clip(exact + noise, -1.0, 1.0).T
        every = np.arange(len(symbols))
        for theta in [*rng.choice(exact.ravel(), 5), -1.0, 1.0, 0.0]:
            for j, w in enumerate(self.WORDS):
                assert cosines.near([w], theta, every).tolist() == \
                    (exact[:, j] >= theta).tolist()
