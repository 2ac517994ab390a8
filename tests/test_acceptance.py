"""Acceptance suite: one test per release criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import functools
import random
import time
from dataclasses import replace

import numpy as np
import pytest

from corg import KnowledgeGraph
from corg.embeddings import EmbeddingTable, load_table
from corg.fol import (Atom, Constant, parse_fol, to_tptp,
                      translate_existential, translate_factual,
                      translate_inverse)
from corg.kg import RelationFilter, Triple, load_graph
from corg.model import BuilderConfig, explain, saturate
from corg.pipeline import CopaProblem, Pipeline, PipelineConfig, parse_copa_xml
from corg.scorer import choose, likelihoods
from corg.selection import SineConfig, sine_select
from oracles import (copa1_expected, model_atom_tuples, naive_least_model,
                     reachable_closure)
from test_fol import random_formula
from test_model import fig_clauses, random_datalog
from test_selection import index_of, picked

# Frozen expected values for the worked problem, from the hand oracle.
COPA1_SCORES = [0.7071067811865476, 0.31622776601683794]
COPA1_LIKELIHOODS = [0.5964942863826675, 0.4035057136173324]

GOLDEN_TPTP = [
    "fof(t1, axiom, ! [X] : (sun(X) => ? [Y] : (causes(X,Y) & light(Y)))).",
    "fof(t2, axiom, ! [X] : (shadow(X) => ? [Y] : (atlocation(X,Y) & light(Y)))).",
    "fof(t3, axiom, ! [X] : (shadow(X) => ? [Y] : (atlocation(X,Y) & ground(Y)))).",
    "fof(t4, axiom, ! [X] : (grass(X) => ? [Y] : (atlocation(X,Y) & ground(Y)))).",
]


def criterion(name):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                print(f"\nACCEPTANCE {name}: FAIL")
                raise
            print(f"\nACCEPTANCE {name}: PASS")
            return result
        return wrapper
    return decorate


@criterion("translation-fidelity")
def test_translation_fidelity(fig_graph):
    start = time.perf_counter()
    lines = [to_tptp(translate_existential(t), f"t{i + 1}", "axiom")
             for i, t in enumerate(fig_graph)]
    assert lines == GOLDEN_TPTP
    assert time.perf_counter() - start < 1.0


@criterion("direction-fix")
def test_direction_fix(fig_graph):
    start = time.perf_counter()
    facts = [Atom("sun", (Constant("c"),))]
    cfg = BuilderConfig(max_term_depth=3)
    without = saturate(facts, fig_clauses(fig_graph, inverse=False), cfg)
    assert not any(a.predicate == "shadow" for a in without.atoms)
    with_inverse = saturate(facts, fig_clauses(fig_graph, inverse=True), cfg)
    assert any(a.predicate == "shadow" for a in with_inverse.atoms)
    assert time.perf_counter() - start < 1.0


@criterion("model-builder-oracle-equivalence")
def test_model_builder_oracle_equivalence():
    start = time.perf_counter()
    rng = random.Random(31415)
    loose = BuilderConfig(max_term_depth=50, max_atoms=100_000, max_rounds=1000)
    for _ in range(25):
        facts, clauses = random_datalog(rng)
        model = saturate(facts, clauses, loose)
        assert model.complete
        assert model_atom_tuples(model) == naive_least_model(facts, clauses)
    assert time.perf_counter() - start < 30.0


def _random_axioms(rng):
    pool = [f"s{k}" for k in range(10)]
    axioms = {}
    for n in range(rng.randrange(5, 15)):
        parts = rng.sample(pool, rng.randrange(1, 4))
        axioms[f"a{n}"] = frozenset(parts)
    return axioms


@criterion("sine-properties")
def test_sine_properties():
    start = time.perf_counter()
    rng = random.Random(27182)
    for _ in range(100):
        axioms = _random_axioms(rng)
        idx = index_of(axioms)
        goals = {rng.choice([f"s{k}" for k in range(10)])}
        t1, t2 = sorted((1 + 3 * rng.random(), 1 + 3 * rng.random()))
        d = rng.randrange(1, 4)

        def select(cfg):
            return set(picked(axioms, sine_select(idx, goals, cfg)))

        assert select(SineConfig(tolerance=t1, max_depth=d)) <= \
            select(SineConfig(tolerance=t2, max_depth=d))
        assert select(SineConfig(max_depth=d)) <= select(SineConfig(max_depth=d + 1))
        limit = select(SineConfig(tolerance=1e12, max_depth=None))
        closure = reachable_closure(
            {aid: set(syms) for aid, syms in axioms.items()}, goals)
        assert limit == closure
    assert time.perf_counter() - start < 30.0


@criterion("scorer-contract")
def test_scorer_contract(fig_graph, fig_table, copa1):
    rng = random.Random(16180)
    for _ in range(1000):
        scores = [rng.uniform(-3, 3), rng.uniform(-3, 3)]
        y = likelihoods(scores)
        assert abs(sum(y) - 1.0) <= 1e-9
        assert all(0.0 < v < 1.0 for v in y)
        assert choose(y).index == scores.index(max(scores)) + 1
    baseline = Pipeline(fig_graph, fig_table).run_problem(copa1).choice.index
    for alpha in (0.5, 2.0, 10.0):
        words = list(fig_table.rows)
        scaled = EmbeddingTable(
            fig_table.dimension,
            {w: alpha * v for w, v in zip(words, fig_table.vectors(words))})
        assert Pipeline(fig_graph, scaled).run_problem(copa1).choice.index == baseline


@criterion("end-to-end-worked-problem")
def test_end_to_end_worked_problem(fig_graph, fig_table, copa1):
    start = time.perf_counter()
    result = Pipeline(fig_graph, fig_table).run_problem(copa1)
    oracle_scores, oracle_y = copa1_expected()

    assert result.choice.index == 1
    assert result.scores == pytest.approx(COPA1_SCORES, abs=1e-9)
    assert list(result.y) == pytest.approx(COPA1_LIKELIHOODS, abs=1e-9)
    assert result.scores == pytest.approx(oracle_scores, abs=1e-9)
    assert list(result.y) == pytest.approx(oracle_y, abs=1e-9)

    chosen = result.texts[result.choice.index]
    derived = [s for s in chosen.model.trace if s.clause_origin is not None]
    assert derived, "the chosen alternative derived nothing"
    light = next(a for a in chosen.model.atoms if a.predicate == "light")
    tree = explain(chosen.model, light)
    assert "light(" in tree and "sun(c0)" in tree and "clause t1" in tree
    assert time.perf_counter() - start < 1.0


@criterion("round-trips")
def test_round_trips(fig_graph, copa_xml_path):
    # every formula family the pipeline produces survives emit -> parse
    produced = []
    for t in fig_graph:
        produced += [translate_factual(t), translate_existential(t),
                     translate_inverse(t)]
    produced.append(parse_fol(
        "exists A (sun(A) & exists B (r1Actor(B,A) & rise(B)))"))
    rng = random.Random(14142)
    produced += [random_formula(rng) for _ in range(300)]
    for f in produced:
        assert parse_fol(to_tptp(f, "x", "axiom")) == f

    problems = parse_copa_xml(copa_xml_path)
    assert problems[0].premise == "My body cast a shadow over the grass."
    assert problems[0].alternatives == ["The sun was rising.", "The grass was cut."]
    assert problems[0].question == "cause"


# ------------------------------------------------------------- scale smoke


def _word_name(i: int) -> str:
    letters = []
    for _ in range(4):
        letters.append(chr(ord("a") + i % 26))
        i //= 26
    return "w" + "".join(letters)


def _write_scale_fixture(tmp_path, n_words=50_000, n_triples=100_000,
                         n_problems=100, dim=16, concept_pool=2000):
    rng = np.random.default_rng(60221)
    centers = rng.normal(size=(500, dim))
    centers /= np.linalg.norm(centers, axis=1, keepdims=True)
    noise = rng.normal(size=(n_words, dim))
    vecs = 0.98 * centers[np.arange(n_words) % 500] + 0.02 * noise
    vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
    words = [_word_name(i) for i in range(n_words)]
    vec_path = tmp_path / "vectors.txt"
    with open(vec_path, "w", encoding="utf-8") as fh:
        fh.write(f"{n_words} {dim}\n")
        for w, v in zip(words, vecs):
            fh.write(w + " " + " ".join(f"{x:.6f}" for x in v) + "\n")

    pool = words[:concept_pool]
    relations = ["causes", "is_a", "at_location", "used_for", "desires"]
    pick = np.random.default_rng(8675309)
    kg_path = tmp_path / "dump.tsv"
    with open(kg_path, "w", encoding="utf-8") as fh:
        for _ in range(n_triples):
            s, o = pick.choice(concept_pool, size=2)
            rel = relations[int(pick.integers(len(relations)))]
            fh.write(f"{pool[s]}\t{rel}\t{pool[o]}\n")

    prng = random.Random(577215)
    problems = []
    for pid in range(1, n_problems + 1):
        def sentence():
            return " ".join(prng.sample(pool, prng.randrange(3, 7))) + "."
        problems.append(CopaProblem(pid, sentence(), "cause",
                                    [sentence(), sentence()],
                                    gold=prng.choice([1, 2])))
    return kg_path, vec_path, problems


@criterion("scale-smoke")
def test_scale_smoke(tmp_path):
    kg_path, vec_path, problems = _write_scale_fixture(tmp_path)
    config = PipelineConfig(prefilter_theta=0.8)

    start = time.perf_counter()
    graph = load_graph(kg_path, RelationFilter())
    table = load_table(vec_path)
    report1 = Pipeline(graph, table, config).evaluate(problems).to_jsonl()
    elapsed = time.perf_counter() - start
    assert len(graph) == 100_000
    assert len(table) == 50_000
    assert elapsed < 20.0, f"scale run took {elapsed:.1f}s"

    graph2 = load_graph(kg_path, RelationFilter())
    table2 = load_table(vec_path)
    report2 = Pipeline(graph2, table2, config).evaluate(problems).to_jsonl()
    assert report1 == report2
