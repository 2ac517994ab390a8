import gc
import gzip
import itertools
import json
import os
import random
import subprocess
import sys
import tempfile
import tracemalloc
import weakref
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import corg
from corg import EmbeddingTable, KnowledgeGraph, Triple, fol, model, pipeline
from corg.cli import _config, build_parser, main
from corg.errors import (MissingField, MissingFormula, ParseError, StageError,
                         UnreadableFormula, XmlError)
from corg.fol import (Atom, Constant, clausify, parse_tptp, translate_existential,
                      translate_inverse)
from corg.model import BuilderConfig
from corg.pipeline import (CopaProblem, Pipeline, PipelineConfig, RunReport,
                           content_words, export_tptp, parse_copa_xml,
                           text_to_facts)
from corg.scorer import embed_sequence
from corg.selection import SineConfig
from conftest import COPA_XML
from oracles import (atom_tuple, copa1_expected, reachable_within,
                     reference_saturate)
from test_acceptance import _write_scale_fixture


def c0(pred):
    return Atom(pred, (Constant("c0"),))


def triple_of(graph, aid):
    return graph.triple(int(aid[1:].removesuffix("_inv")) - 1)


def edge(graph, aid):
    """(body concept, head concept) of axiom ``aid``: its triple's subject
    and object, swapped for an inverse axiom."""
    t = triple_of(graph, aid)
    return (t.object, t.subject) if aid.endswith("_inv") else (t.subject, t.object)


def translation(graph, aid):
    """The translation of axiom ``aid`` under the existential scheme."""
    translate = translate_inverse if aid.endswith("_inv") else translate_existential
    return translate(triple_of(graph, aid))


def live_axioms(graph, text, scheme, depth):
    """The selected axioms of ``text`` that can fire under ``max_term_depth``
    ``depth``: those whose body concept is within depth - 1 hops of the
    text's words over the selected rules' edges, and every factual forward
    axiom, a fact."""
    bodiless = {aid for aid in text.selected
                if scheme == "factual" and not aid.endswith("_inv")}
    reached = reachable_within([edge(graph, aid) for aid in text.selected
                                if aid not in bodiless],
                               {f.predicate for f in text.facts}, depth - 1)
    return [aid for aid in text.selected
            if aid in bodiless or edge(graph, aid)[0] in reached]


def write_formulas(fol_dir, problem_id):
    """Formula files for every text of a copa1-shaped problem."""
    for role, formula in [("premise", "exists A (shadow(A) & grass(A))"),
                          ("a1", "exists A (sun(A) & rising(A))"),
                          ("a2", "exists A (grass(A) & cut(A))")]:
        (fol_dir / f"{problem_id}_{role}.p").write_text(formula, "utf-8")


class TestParseCopaXml:
    def test_worked_problem(self, copa_xml_path):
        problems = parse_copa_xml(copa_xml_path)
        assert len(problems) == 1
        p = problems[0]
        assert p.id == 1
        assert p.premise == "My body cast a shadow over the grass."
        assert p.question == "cause"
        assert p.alternatives == ["The sun was rising.", "The grass was cut."]
        assert p.gold == 1

    def test_gold_optional(self, tmp_path):
        xml = ('<copa-corpus><item id="9" asks-for="effect">'
               "<p>It rained.</p><a1>Wet streets.</a1><a2>Dry streets.</a2>"
               "</item></copa-corpus>")
        path = tmp_path / "c.xml"
        path.write_text(xml, "utf-8")
        assert parse_copa_xml(path)[0].gold is None

    def test_malformed_xml(self, tmp_path):
        path = tmp_path / "bad.xml"
        path.write_text("<copa-corpus><item id='1'>", "utf-8")
        with pytest.raises(XmlError):
            parse_copa_xml(path)

    def test_missing_alternative(self, tmp_path):
        xml = ('<copa-corpus><item id="3" asks-for="cause">'
               "<p>Premise.</p><a1>Only one.</a1></item></copa-corpus>")
        path = tmp_path / "c.xml"
        path.write_text(xml, "utf-8")
        with pytest.raises(MissingField):
            parse_copa_xml(path)

    def test_missing_asks_for(self, tmp_path):
        xml = ('<copa-corpus><item id="3"><p>P.</p>'
               "<a1>A.</a1><a2>B.</a2></item></copa-corpus>")
        path = tmp_path / "c.xml"
        path.write_text(xml, "utf-8")
        with pytest.raises(MissingField):
            parse_copa_xml(path)


class TestContentWords:
    def test_stopwords_dropped(self):
        assert content_words("The sun was rising.") == ["sun", "rising"]
        assert content_words("My body cast a shadow over the grass.") == \
            ["body", "cast", "shadow", "grass"]

    def test_duplicates_dropped_in_order(self):
        assert content_words("grass cut grass") == ["grass", "cut"]


class TestTextToFacts:
    def test_bag_of_words(self):
        assert text_to_facts("The sun was rising.") == [c0("sun"), c0("rising")]

    def test_empty_text(self):
        assert text_to_facts("") == []
        assert text_to_facts("the of a") == []

    def test_fol_file_mode(self, tmp_path):
        (tmp_path / "1_a1.p").write_text(
            "exists A (sun(A) & exists B (r1Actor(B,A) & rise(B)))", "utf-8")
        facts = text_to_facts("The sun was rising.", "fol_file",
                              fol_dir=tmp_path, problem_id=1, role="a1")
        sk0, sk1 = Constant("sk_q_0"), Constant("sk_q_1")
        assert facts == [Atom("sun", (sk0,)),
                         Atom("r1Actor", (sk1, sk0)),
                         Atom("rise", (sk1,))]

    def test_fol_file_accepts_fof_lines(self, tmp_path):
        for mark in "", "\ufeff":  # a leading byte-order mark is dropped
            (tmp_path / "2_premise.p").write_text(
                f"{mark}fof(q, hypothesis, ? [A] : (shadow(A) & grass(A))).\n", "utf-8")
            facts = text_to_facts("x", "fol_file", fol_dir=tmp_path,
                                  problem_id=2, role="premise")
            assert facts == [Atom("shadow", (Constant("sk_q_0"),)),
                             Atom("grass", (Constant("sk_q_0"),))]

    @pytest.mark.parametrize("text, predicate", [
        ("% parsed from fof(...) output\nexists A (sun(A) & rising(A))", "sun"),
        ("exists A (scofof(A) & rising(A))", "scofof"),
    ])
    def test_fol_file_bare_formula_decided_on_tokens(self, tmp_path, text, predicate):
        # "fof(" inside a comment or a name does not make the file annotated,
        # nor does a leading byte-order mark break it
        for mark in "", "\ufeff":
            (tmp_path / "3_a1.p").write_text(mark + text, "utf-8")
            facts = text_to_facts("x", "fol_file", fol_dir=tmp_path, problem_id=3, role="a1")
            assert facts == [Atom(predicate, (Constant("sk_q_0"),)),
                             Atom("rising", (Constant("sk_q_0"),))]

    def test_missing_formula(self, tmp_path):
        with pytest.raises(MissingFormula):
            text_to_facts("x", "fol_file", fol_dir=tmp_path,
                          problem_id=7, role="a2")


class TestRunProblem:
    def test_worked_problem_chooses_first(self, fig_graph, fig_table, copa1):
        result = Pipeline(fig_graph, fig_table).run_problem(copa1)
        scores, y = copa1_expected()
        assert result.choice.index == 1
        assert not result.choice.tie
        assert result.scores == pytest.approx(scores, abs=1e-9)
        assert list(result.y) == pytest.approx(y, abs=1e-9)
        assert result.correct is True

    def test_empty_graph_still_scores(self, fig_table, copa1):
        empty = KnowledgeGraph()
        result = Pipeline(empty, fig_table).run_problem(copa1)
        assert len(result.y) == 2
        for t in result.texts:
            assert t.model.atoms == t.facts
            assert t.model.complete

    def test_identical_alternatives_tie(self, fig_graph, fig_table, copa1):
        p = replace(copa1, alternatives=["The sun was rising."] * 2, gold=None)
        result = Pipeline(fig_graph, fig_table).run_problem(p)
        assert list(result.y) == [0.5, 0.5]
        assert result.choice == (1, True)

    def test_factual_scheme_models_are_graph_facts(self, fig_graph, fig_table, copa1):
        cfg = PipelineConfig(scheme="factual", prefilter_theta=-1.0)
        result = Pipeline(fig_graph, fig_table, cfg).run_problem(copa1)
        a1 = result.texts[1]  # goal symbol sun selects the causes fact
        assert Atom("causes", (Constant("sun"), Constant("light"))) in a1.model.atoms
        premise = result.texts[0]
        assert Atom("atlocation", (Constant("shadow"), Constant("light"))) \
            in premise.model.atoms

    def test_stage_errors_carry_problem_id(self, fig_graph, fig_table, copa1):
        cfg = PipelineConfig(fact_mode="fol_file", fol_dir="/nonexistent")
        with pytest.raises(StageError) as err:
            Pipeline(fig_graph, fig_table, cfg).run_problem(copa1)
        assert err.value.problem_id == 1

    def test_missing_formula_names_facts_stage(self, fig_graph, fig_table,
                                               copa1, tmp_path):
        cfg = PipelineConfig(fact_mode="fol_file", fol_dir=tmp_path)
        with pytest.raises(StageError) as err:
            Pipeline(fig_graph, fig_table, cfg).run_problem(copa1)
        assert err.value.stage == "facts"
        assert isinstance(err.value.cause, MissingFormula)

    def test_facts_of_every_text_come_before_the_prefilter(self, fig_graph, fig_table,
                                                          copa1, tmp_path, monkeypatch):
        # the last text's formula file is missing: the problem fails at
        # stage facts before any product or prefilter is made
        write_formulas(tmp_path, 1)
        (tmp_path / "1_a2.p").unlink()
        pipe = Pipeline(fig_graph, fig_table,
                        PipelineConfig(fact_mode="fol_file", fol_dir=tmp_path))
        prefiltered = []
        monkeypatch.setattr(pipe.prefilter, "apply_indices",
                            lambda *args: prefiltered.append(args))
        with pytest.raises(StageError) as err:
            pipe.run_problem(copa1)
        assert (err.value.stage, str(err.value.cause)) == \
            ("facts", "no formula file for problem 1, role a2")
        assert prefiltered == []

    def test_deeply_nested_formula_names_facts_stage(self, fig_graph, fig_table,
                                                     copa1, tmp_path):
        write_formulas(tmp_path, 1)
        (tmp_path / "1_a2.p").write_text("~" * 5000 + "p(a)", "utf-8")
        cfg = PipelineConfig(fact_mode="fol_file", fol_dir=tmp_path)
        with pytest.raises(StageError) as err:
            Pipeline(fig_graph, fig_table, cfg).run_problem(copa1)
        assert err.value.stage == "facts"
        assert isinstance(err.value.cause, ParseError)

    def test_only_selected_axioms_translated(self, fig_graph, fig_table, copa1,
                                             monkeypatch):
        # of the selected axioms, a text translates and chains exactly those
        # whose body concept (the subject, or the object of an inverse
        # axiom) is within max_term_depth - 1 hops of its words over the
        # selected rules' edges, and every factual forward axiom, a fact
        clausified, chained = [], []

        def recorded(formula, aid):
            clausified.append(aid)
            return clausify(formula, aid)

        def spied(facts, clauses, cfg):
            chained.append(list(dict.fromkeys(c.origin for c in clauses)))
            return model.saturate(facts, clauses, cfg)

        monkeypatch.setattr(fol, "clausify", recorded)
        monkeypatch.setattr(pipeline, "saturate", spied)
        dropped = 0
        for scheme, inverse, depth in itertools.product(
                ("existential", "factual"), (False, True), (1, 2, 3)):
            clausified.clear()
            chained.clear()
            pipe = Pipeline(fig_graph, fig_table, PipelineConfig(
                scheme=scheme, include_inverse=inverse, prefilter_theta=-1.0,
                builder=BuilderConfig(max_term_depth=depth)))
            result = pipe.run_problem(copa1)
            indexed = {t.n_translated for t in result.texts}
            assert indexed == {8 if inverse else 4}  # each triple, with its inverse
            live = [live_axioms(fig_graph, text, scheme, depth) for text in result.texts]
            dropped += sum(len(t.selected) for t in result.texts) - sum(map(len, live))
            assert chained == live
            assert sorted(clausified) == sorted({aid for aids in live for aid in aids})
            assert pipe._clauses.cache_info().currsize == len(clausified)
        assert dropped

    def test_translated_once_per_key_and_never_for_the_report(
            self, fig_graph, fig_table, copa1, monkeypatch):
        calls = {"translate": 0, "clausify": 0}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        for name in ("translate_existential", "translate_inverse", "translate_factual"):
            monkeypatch.setattr(fol, name, counted("translate", getattr(fol, name)))
        monkeypatch.setattr(fol, "clausify", counted("clausify", fol.clausify))
        problems = [copa1, replace(copa1, id=2), replace(
            copa1, id=3, premise="The grass was cut.",
            alternatives=["The sun was rising.", "My body cast a shadow."])]
        for depth in (1, 3):
            calls.update(translate=0, clausify=0)
            pipe = Pipeline(fig_graph, fig_table, PipelineConfig(
                include_inverse=True, prefilter_theta=-1.0,
                builder=BuilderConfig(max_term_depth=depth)))
            results = [pipe.run_problem(p) for p in problems]
            selected = {aid for r in results for t in r.texts for aid in t.selected}
            live = {aid for r in results for t in r.texts
                    for aid in live_axioms(fig_graph, t, "existential", depth)}
            assert len(live) > 1 and live <= selected
            assert live < selected or depth != 1  # some selected axioms cannot fire
            assert calls == {"translate": len(live), "clausify": len(live)}
            info = pipe._clauses.cache_info()
            assert info.misses == info.currsize == len(live)
            RunReport(results).to_jsonl()
            assert calls == {"translate": len(live), "clausify": len(live)}
            assert pipe._clauses.cache_info() == info

    def test_dropped_pipeline_freed_without_the_collector(self, fig_graph, fig_table,
                                                          copa1):
        # the translation cache makes no reference cycle, so the last
        # reference frees the pipeline with its graph, table and columns
        pipe = Pipeline(fig_graph, fig_table, PipelineConfig(prefilter_theta=-1.0))
        pipe.run_problem(copa1)
        assert pipe._clauses.cache_info().currsize > 0
        dropped = weakref.ref(pipe)
        gc.disable()
        try:
            del pipe
            assert dropped() is None
        finally:
            gc.enable()

    def test_selected_and_formulas_are_what_was_clausified(
            self, fig_graph, fig_table, copa1, monkeypatch):
        clausified = {}

        def recorded(formula, axiom_id):
            clausified[axiom_id] = formula
            return clausify(formula, axiom_id)

        monkeypatch.setattr(fol, "clausify", recorded)
        for depth in (1, 3):
            clausified.clear()
            cfg = PipelineConfig(include_inverse=True, prefilter_theta=-1.0,
                                 builder=BuilderConfig(max_term_depth=depth))
            result = Pipeline(fig_graph, fig_table, cfg).run_problem(copa1)
            live = [live_axioms(fig_graph, t, "existential", depth) for t in result.texts]
            assert {aid for aids in live for aid in aids} == set(clausified)
            if depth == 1:  # some selected axioms cannot fire
                assert sum(len(t.selected) for t in result.texts) > sum(map(len, live))
            for text, aids in zip(result.texts, live):
                # every selected axiom keeps its formula, a live one the one clausified
                assert text.formulas == [translation(fig_graph, aid) for aid in text.selected]
                assert [f for aid, f in zip(text.selected, text.formulas) if aid in aids] \
                    == [clausified[aid] for aid in aids]

    def test_unary_inv_concept_is_a_symbol(self, fig_table, copa1):
        # a concept spelled inv_* is a word; the generated inv_ predicates
        # are binary and stay out of the symbols
        graph = KnowledgeGraph.from_tuples([("sun", "Causes", "inv_light")])
        for inverse in (False, True):
            cfg = PipelineConfig(include_inverse=inverse, prefilter_theta=-1.0,
                                 sine=SineConfig(tolerance=1e9))
            a1 = Pipeline(graph, fig_table, cfg).run_problem(copa1).texts[1]
            assert a1.selected == (["t1", "t1_inv"] if inverse else ["t1"])
            assert "inv_light" in a1.symbols
            assert "causes" not in a1.symbols and "inv_causes" not in a1.symbols

    def test_selected_formulas_are_the_translations(self, fig_graph, fig_table, copa1):
        cfg = PipelineConfig(include_inverse=True, prefilter_theta=-1.0)
        result = Pipeline(fig_graph, fig_table, cfg).run_problem(copa1)
        for text in result.texts:
            for aid, formula in zip(text.selected, text.formulas, strict=True):
                assert formula == translation(fig_graph, aid)

    def test_prefilter_applies_to_objects(self, fig_table, copa1):
        # 'xyzzy' has no vector, so its cosine to every problem word is 0
        graph = KnowledgeGraph.from_tuples([("sun", "Causes", "light"),
                                            ("sun", "Causes", "xyzzy")])
        result = Pipeline(graph, fig_table,
                          PipelineConfig(prefilter_theta=0.5)).run_problem(copa1)
        assert result.texts[1].n_translated == 1
        assert result.texts[1].selected == ["t1"]

    def test_gold_2_marks_incorrect(self, fig_graph, fig_table, copa1):
        result = Pipeline(fig_graph, fig_table).run_problem(replace(copa1, gold=2))
        assert result.correct is False

    def test_unlabeled_has_no_correctness(self, fig_graph, fig_table, copa1):
        result = Pipeline(fig_graph, fig_table).run_problem(replace(copa1, gold=None))
        assert result.correct is None


# Concepts that are content words; "causes" is also a relation predicate.
_CONCEPTS = ["sun", "light", "shadow", "grass", "ground", "rain", "wet", "causes"]
_TEXT = st.lists(st.sampled_from(_CONCEPTS), max_size=3).map(" ".join)


class TestReachabilityOracle:
    """With budgets that never cut, a text's model is the graph walk it stands for.

    In bag-of-words mode each content word w is the fact w(c0), and each
    selected axiom of edge (s, o) (read o -> s for an inverse axiom) turns
    s(t) into o(sk(t)), one term level deeper.  So at term depth d the
    model's unary predicates are the concepts within d - 1 hops of the
    text's words over the selected edges.
    """

    @settings(max_examples=150, derandomize=True, database=None, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(_CONCEPTS),
                              st.sampled_from(["causes", "at_location", "is_a"]),
                              st.sampled_from(_CONCEPTS)), max_size=10),
           st.booleans(), st.integers(1, 4), st.sampled_from([1.0, 1.5, 1e9]),
           st.none() | st.integers(1, 3), st.lists(_TEXT, min_size=3, max_size=3))
    def test_unary_predicates_are_hop_reachable(self, rows, inverse, depth, tolerance,
                                                sine_depth, texts):
        graph = KnowledgeGraph(Triple(*row) for row in rows)
        rng = np.random.default_rng(len(rows))
        table = EmbeddingTable(4, {w: rng.normal(size=4) for w in _CONCEPTS})
        config = PipelineConfig(
            include_inverse=inverse, prefilter_theta=-1.0,
            sine=SineConfig(tolerance=tolerance, max_depth=sine_depth),
            builder=BuilderConfig(max_term_depth=depth, max_atoms=1_000_000))
        problem = CopaProblem(1, texts[0], "cause", texts[1:])
        for text in Pipeline(graph, table, config).run_problem(problem).texts:
            assert not {"atoms", "rounds"} & set(text.model.cut_by)
            edges = [edge(graph, aid) for aid in text.selected]
            words = {fact.predicate for fact in text.facts}
            assert {a.predicate for a in text.model.atoms if len(a.args) == 1} == \
                reachable_within(edges, words, depth - 1)


# Fact predicates: concepts, the rules' binary predicates and an inv_ one.
_FACT_PREDICATES = _CONCEPTS + ["causes", "atlocation", "is_a", "inv_causes"]
_FACT_TERM = st.recursive(
    st.sampled_from(["c0", "c1"]),
    lambda inner: st.tuples(st.sampled_from("fg"), inner).map(lambda p: f"{p[0]}({p[1]})"),
    max_leaves=4)
_FACT = st.one_of(
    st.tuples(st.sampled_from(_CONCEPTS), _FACT_TERM).map(lambda p: "%s(%s)" % p),
    st.tuples(st.sampled_from(_FACT_PREDICATES), _FACT_TERM, _FACT_TERM)
    .map(lambda p: "%s(%s, %s)" % p))


class TestLiveAxioms:
    """A text chains only the selected axioms whose body can hold, and its
    model is the one that chaining every selected axiom gives."""

    @settings(max_examples=150, derandomize=True, database=None, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(_CONCEPTS),
                              st.sampled_from(["causes", "at_location", "is_a"]),
                              st.sampled_from(_CONCEPTS)), max_size=10),
           st.lists(st.lists(_FACT, min_size=1, max_size=4), min_size=3, max_size=3),
           st.sampled_from(["existential", "factual"]), st.booleans(),
           st.sampled_from([1.0, 1.5, 1e9]), st.integers(1, 4), st.integers(1, 30),
           st.integers(1, 6))
    def test_model_equals_chaining_every_selected_axiom(
            self, rows, texts, scheme, inverse, tolerance, depth, atoms, rounds):
        graph = KnowledgeGraph()
        for s, r, o in rows:
            graph.add(Triple(s, r, o))
        rng = np.random.default_rng(len(rows))
        table = EmbeddingTable(4, {w: rng.normal(size=4) for w in _CONCEPTS})
        builder = BuilderConfig(max_term_depth=depth, max_atoms=atoms, max_rounds=rounds)
        with tempfile.TemporaryDirectory() as fol_dir:
            for role, facts in zip(["premise", "a1", "a2"], texts):
                (Path(fol_dir) / f"1_{role}.p").write_text(
                    "".join(f"fof(f{k}, axiom, {fact}).\n" for k, fact in enumerate(facts)),
                    "utf-8")
            config = PipelineConfig(
                scheme=scheme, include_inverse=inverse, fact_mode="fol_file",
                fol_dir=Path(fol_dir), prefilter_theta=-1.0,
                sine=SineConfig(tolerance=tolerance), builder=builder)
            pipe = Pipeline(graph, table, config)
            problem = CopaProblem(1, "The sun.", "cause", ["The light.", "The rain."])
            result = pipe.run_problem(problem)
        for text in result.texts:
            clauses = [c for key in text.keys
                       for c in clausify(pipe.formula(key), pipeline.axiom_id(key))]
            expected = model.saturate(text.facts, clauses, builder)
            assert text.model.trace == expected.trace  # atoms, origins, premises
            assert text.model.cut_by == expected.cut_by

    def test_axiom_selected_through_its_object_is_not_clausified(
            self, fig_table, tmp_path, monkeypatch):
        clausified = []

        def recorded(formula, aid):
            clausified.append(aid)
            return clausify(formula, aid)

        monkeypatch.setattr(fol, "clausify", recorded)
        graph = KnowledgeGraph.from_tuples([("sun", "Causes", "light")])
        cfg = PipelineConfig(prefilter_theta=-1.0, sine=SineConfig(tolerance=1e9))
        problem = CopaProblem(1, "The light.", "cause", ["The lamp.", "The light."])
        result = Pipeline(graph, fig_table, cfg).run_problem(problem)
        assert clausified == []
        premise = result.texts[0]
        assert premise.selected == ["t1"]
        assert premise.formulas == [translate_existential(graph.triple(0))]
        assert premise.model.atoms == [c0("light")] and premise.model.complete
        export_tptp(result, tmp_path)
        exported = parse_tptp((tmp_path / "p1_premise_axioms.p").read_text("utf-8"))
        assert [(a.name, a.formula) for a in exported] == \
            list(zip(premise.selected, premise.formulas))

    def test_chain_drops_the_axiom_past_the_term_depth(self, fig_table, monkeypatch):
        # apple -> bread -> cheese -> dough under max_term_depth 2: the bread
        # axiom matches bread(sk(c0)) but its head is too deep, and the
        # cheese axiom's body can never hold
        chained = []

        def spied(facts, clauses, cfg):
            chained.append(list(dict.fromkeys(c.origin for c in clauses)))
            return model.saturate(facts, clauses, cfg)

        monkeypatch.setattr(pipeline, "saturate", spied)
        graph = KnowledgeGraph.from_tuples([("apple", "Causes", "bread"),
                                            ("bread", "Causes", "cheese"),
                                            ("cheese", "Causes", "dough")])
        cfg = PipelineConfig(prefilter_theta=-1.0,
                             sine=SineConfig(tolerance=1e9, max_depth=None),
                             builder=BuilderConfig(max_term_depth=2))
        problem = CopaProblem(1, "Apple.", "effect", ["Dough.", "Lamp."])
        premise = Pipeline(graph, fig_table, cfg).run_problem(problem).texts[0]
        assert premise.selected == ["t1", "t2", "t3"]
        assert chained[0] == ["t1", "t2"]
        assert premise.model.cut_by == ("depth",)
        assert [a.predicate for a in premise.model.atoms] == ["apple", "causes", "bread"]


# evaluate in a fresh process, whose hash seed is the one its environment
# sets: the report with inverse axioms, then the one with similarity seeding
_SEEDED_EVALUATE = """
import json, sys
from corg import (CopaProblem, Pipeline, PipelineConfig, SineConfig, load_graph,
                  load_table)
graph, table, problems = json.loads(sys.argv[1])
for cfg in (PipelineConfig(include_inverse=True, prefilter_theta=-1.0),
            PipelineConfig(prefilter_theta=-1.0, sine=SineConfig(similarity_threshold=0.5))):
    pipe = Pipeline(load_graph(graph), load_table(table), cfg)
    sys.stdout.write(pipe.evaluate([CopaProblem(**p) for p in problems]).to_jsonl())
"""


# evaluate a reduced scale fixture in a fresh process, under the BLAS kernel
# that its environment forces (if any), with a prefilter that keeps some
# triples and similarity seeding on, so both GEMM gates decide selections
_KERNEL_EVALUATE = """
import json, sys
from corg import (CopaProblem, Pipeline, PipelineConfig, SineConfig, load_graph,
                  load_table)
graph, table, problems = json.loads(sys.argv[1])
cfg = PipelineConfig(prefilter_theta=0.6, sine=SineConfig(similarity_threshold=0.9))
pipe = Pipeline(load_graph(graph), load_table(table), cfg)
sys.stdout.write(pipe.evaluate([CopaProblem(**p) for p in problems]).to_jsonl())
"""

# the OpenBLAS kernels that OPENBLAS_CORETYPE can force, with the CPU flags
# each needs: a kernel the CPU cannot run may kill the process with SIGILL
_KERNEL_FLAGS = {"SkylakeX": {"avx512f", "avx512bw", "avx512dq", "avx512vl"},
                 "Haswell": {"avx2", "fma"}, "Zen": {"avx2", "fma"},
                 "Sandybridge": {"avx"}}


def _cpu_flags() -> set[str]:
    with open("/proc/cpuinfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("flags"):
                return set(line.split(":", 1)[1].split())
    return set()


def _numpy_links_openblas() -> bool:
    """Whether an OpenBLAS library is mapped into this process, which has
    imported numpy (and so numpy's BLAS)."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        return "openblas" in fh.read().lower()


def _answers(jsonl: bytes) -> list:
    """Per problem row: the choice, the tie flag and per text the
    prefilter's kept axioms, the selection size, model size and
    completeness; no score."""
    rows = [json.loads(line) for line in jsonl.splitlines()[:-1]]
    return [(r["problem_id"], r["chosen"], r["tie"],
             [(t["n_translated"], t["n_selected"], t["model_atoms"], t["complete"])
              for t in r["texts"]])
            for r in rows]


# a third alternative for copa1, which the figure graph's model grows
THIRD_ALTERNATIVE = "The shadow fell on the ground."


def _bits(values) -> list[str]:
    return [float(v).hex() for v in values]


class TestEvaluate:
    def four_problems(self, copa1):
        # the pipeline picks alternative 1; gold labels make 3 of 4 correct
        return [
            replace(copa1, id=1, gold=1),
            replace(copa1, id=2, gold=1),
            replace(copa1, id=3, gold=2),
            replace(copa1, id=4, gold=1),
        ]

    def test_accuracy(self, fig_graph, fig_table, copa1):
        report = Pipeline(fig_graph, fig_table).evaluate(self.four_problems(copa1))
        assert report.n_labeled == 4
        assert report.n_correct == 3
        assert report.accuracy == 0.75

    def test_unlabeled_accuracy_absent(self, fig_graph, fig_table, copa1):
        report = Pipeline(fig_graph, fig_table).evaluate([replace(copa1, gold=None)])
        assert report.accuracy is None
        assert "accuracy" not in report.aggregate_json()

    def test_translation_cache_bounded(self, fig_graph, fig_table, copa1, monkeypatch):
        cfg = PipelineConfig(include_inverse=True, prefilter_theta=-1.0)
        problems = self.four_problems(copa1) + [
            replace(copa1, id=5, premise="The grass was cut.",
                    alternatives=["The sun was rising.", "My body cast a shadow."])]
        expected = Pipeline(fig_graph, fig_table, cfg).evaluate(problems).to_jsonl()
        monkeypatch.setattr(pipeline, "TRANSLATION_CACHE_SIZE", 2)
        pipe = Pipeline(fig_graph, fig_table, cfg)
        translated, sizes = [], []

        def watched(formula, aid):
            translated.append(aid)
            sizes.append(pipe._clauses.cache_info().currsize)
            return clausify(formula, aid)

        monkeypatch.setattr(fol, "clausify", watched)
        assert pipe.evaluate(problems).to_jsonl() == expected
        info = pipe._clauses.cache_info()
        assert info.maxsize == 2 and max(sizes + [info.currsize]) == 2
        # an evicted axiom is translated again
        assert len(translated) > len(set(translated)) > 2

    def test_report_determinism(self, fig_graph, fig_table, copa1):
        problems = self.four_problems(copa1)
        r1 = Pipeline(fig_graph, fig_table).evaluate(problems).to_jsonl()
        r2 = Pipeline(fig_graph, fig_table).evaluate(problems).to_jsonl()
        assert r1 == r2

    def test_problem_order_independence(self, fig_graph, fig_table, copa1):
        problems = self.four_problems(copa1)
        forward = Pipeline(fig_graph, fig_table).evaluate(problems).to_jsonl()
        backward = Pipeline(fig_graph, fig_table).evaluate(
            list(reversed(problems))).to_jsonl()
        assert forward == backward

    def test_report_independent_of_hash_seed(self, fig_graph_path, fig_table_path, copa1):
        # copa1 and two reorderings of it: the alternatives swapped, and the
        # premise traded with the first alternative
        problems = [copa1,
                    replace(copa1, id=2, alternatives=copa1.alternatives[::-1], gold=2),
                    replace(copa1, id=3, premise=copa1.alternatives[0], question="effect",
                            alternatives=[copa1.alternatives[1], copa1.premise], gold=2)]
        arg = json.dumps([str(fig_graph_path), str(fig_table_path),
                          [asdict(p) for p in problems]])
        src = str(Path(corg.__file__).resolve().parent.parent)
        reports = []
        for seed in ("0", "1", "12345"):
            path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
            env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": path}
            proc = subprocess.run([sys.executable, "-c", _SEEDED_EVALUATE, arg], env=env,
                                  capture_output=True, timeout=120, check=True)
            reports.append(proc.stdout)
        assert reports[0] == reports[1] == reports[2]
        assert reports[0].count(b"\n") == 2 * (len(problems) + 1)

    def test_answers_independent_of_blas_kernel(self, tmp_path):
        # score bits may move with the kernel, since BLAS sums a dot
        # product in a kernel-dependent order; the answers must not, and
        # the prefilter's and seeding's decisions, exact at theta, cannot
        try:
            flags, openblas = _cpu_flags(), _numpy_links_openblas()
        except OSError:
            pytest.skip("reads /proc/cpuinfo and /proc/self/maps (Linux only)")
        if not openblas:
            pytest.skip("numpy's BLAS is not OpenBLAS, so OPENBLAS_CORETYPE forces nothing")
        kg_path, vec_path, problems = _write_scale_fixture(
            tmp_path, n_words=5000, n_triples=10_000, n_problems=40, concept_pool=1000)
        arg = json.dumps([str(kg_path), str(vec_path), [asdict(p) for p in problems]])
        src = str(Path(corg.__file__).resolve().parent.parent)
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
        env["PYTHONPATH"] = path
        reports = {}
        for kernel in [None] + [k for k, need in _KERNEL_FLAGS.items() if need <= flags]:
            forced = env if kernel is None else {**env, "OPENBLAS_CORETYPE": kernel}
            reports[kernel] = subprocess.run(
                [sys.executable, "-c", _KERNEL_EVALUATE, arg], env=forced,
                capture_output=True, timeout=120, check=True).stdout
        answers = _answers(reports[None])
        assert len(answers) == len(problems)
        for kernel, report in reports.items():
            assert _answers(report) == answers, kernel
        changed = [k for k, report in reports.items() if report != reports[None]]
        print(f"kernels that changed the report bytes: {changed or 'none'}")

    def test_jsonl_shape(self, fig_graph, fig_table, copa1):
        report = Pipeline(fig_graph, fig_table).evaluate([copa1])
        lines = report.to_jsonl().strip().splitlines()
        assert len(lines) == 2
        row = json.loads(lines[0])
        assert row["problem_id"] == 1
        assert row["chosen"] == 1
        assert row["correct"] is True
        assert "seconds" not in row
        roles = [t["role"] for t in row["texts"]]
        assert roles == ["premise", "a1", "a2"]
        aggregate = json.loads(lines[1])
        assert aggregate == {"problems": 1, "labeled": 1, "correct": 1,
                             "accuracy": 1.0}

    def test_failed_problem_becomes_error_row(self, fig_graph, fig_table, copa1,
                                              tmp_path):
        write_formulas(tmp_path, 1)
        write_formulas(tmp_path, 3)  # none for problem 2
        cfg = PipelineConfig(fact_mode="fol_file", fol_dir=tmp_path)
        problems = [replace(copa1, id=2), copa1, replace(copa1, id=3, gold=None)]
        report = Pipeline(fig_graph, fig_table, cfg).evaluate(problems)
        assert [r.problem.id for r in report.results] == [1, 3]
        assert [f.problem.id for f in report.failures] == [2]
        rows = [json.loads(line) for line in report.to_jsonl().splitlines()]
        assert [r["problem_id"] for r in rows[:3]] == [1, 2, 3]
        assert rows[0]["chosen"] == 1
        assert rows[1] == {"problem_id": 2, "error": {
            "stage": "facts", "message": "no formula file for problem 2, role premise"}}
        # the failed problem is labeled and counts as wrong
        assert rows[3] == {"problems": 3, "labeled": 2, "correct": 1,
                           "accuracy": 0.5, "failed": 1}

    def test_problems_run_and_report_in_id_order(self, fig_graph, fig_table, copa1,
                                                 tmp_path, monkeypatch):
        for pid in (1, 3, 4, 6):
            write_formulas(tmp_path, pid)  # none for problems 2 and 5
        cfg = PipelineConfig(fact_mode="fol_file", fol_dir=tmp_path)
        problems = [replace(copa1, id=pid) for pid in range(1, 7)]
        expected = Pipeline(fig_graph, fig_table, cfg).evaluate(problems).to_jsonl()
        ran = []

        def spied(text, mode, fol_dir, problem_id, role):
            ran.append(problem_id)
            return text_to_facts(text, mode, fol_dir, problem_id, role)

        monkeypatch.setattr(pipeline, "text_to_facts", spied)
        shuffled = [problems[k] for k in (4, 0, 5, 1, 3, 2)]
        report = Pipeline(fig_graph, fig_table, cfg).evaluate(shuffled)
        assert list(dict.fromkeys(ran)) == [1, 2, 3, 4, 5, 6]
        assert [r.problem.id for r in report.results] == [1, 3, 4, 6]
        assert [f.problem.id for f in report.failures] == [2, 5]
        assert report.to_jsonl() == expected

    def test_texts_without_content_words_select_nothing(self, fig_graph, fig_table):
        # every word is a stopword: no facts, no prefiltered triple, no goal
        problem = CopaProblem(1, "It was.", "cause", ["She did it.", "They were there."],
                              gold=1)
        for sine in (SineConfig(), SineConfig(similarity_threshold=-1.0)):
            pipe = Pipeline(fig_graph, fig_table,
                            PipelineConfig(prefilter_theta=-1.0, sine=sine))
            result = pipe.run_problem(problem)
            report = pipe.evaluate([problem])
            assert report.failures == [] and len(report.results) == 1
            for row in (result.to_json(), report.results[0].to_json()):
                assert row["tie"] is True
                for text in row["texts"]:
                    assert (text["n_facts"], text["n_selected"], text["model_atoms"],
                            text["complete"]) == (0, 0, 0, True)
        # a text without content words selects nothing from a non-empty index
        mixed = replace(problem, alternatives=["The sun was rising.", "They were there."])
        premise = pipe.run_problem(mixed).texts[0]
        assert premise.n_translated == len(fig_graph) and premise.keys == []

    def test_undecodable_formula_file_becomes_error_row(self, fig_graph, fig_table,
                                                         copa1, tmp_path):
        for pid in (1, 2, 3):
            write_formulas(tmp_path, pid)
        (tmp_path / "2_a1.p").write_bytes(b"exists A (sun(A) & \xffrising(A))")
        cfg = PipelineConfig(fact_mode="fol_file", fol_dir=tmp_path)
        problems = [copa1, replace(copa1, id=2), replace(copa1, id=3)]
        report = Pipeline(fig_graph, fig_table, cfg).evaluate(problems)
        assert [r.problem.id for r in report.results] == [1, 3]
        assert [r.choice.index for r in report.results] == [1, 1]
        [failure] = report.failures
        assert (failure.problem.id, failure.error.stage) == (2, "facts")
        assert isinstance(failure.error.cause, ParseError)
        assert "2_a1.p: not valid UTF-8 (at position 19)" in str(failure.error)

    def test_unreadable_formula_file_becomes_error_row(self, fig_graph, fig_table,
                                                       copa1, tmp_path):
        for pid in (1, 2, 3):
            write_formulas(tmp_path, pid)
        (tmp_path / "2_a1.p").unlink()
        (tmp_path / "2_a1.p").mkdir()  # the path exists but cannot be read
        cfg = PipelineConfig(fact_mode="fol_file", fol_dir=tmp_path)
        problems = [copa1, replace(copa1, id=2), replace(copa1, id=3)]
        report = Pipeline(fig_graph, fig_table, cfg).evaluate(problems)
        assert [r.problem.id for r in report.results] == [1, 3]
        [failure] = report.failures
        assert (failure.problem.id, failure.error.stage) == (2, "facts")
        assert isinstance(failure.error.cause, UnreadableFormula)
        assert str(tmp_path / "2_a1.p") in str(failure.error)

    def test_each_text_embedded_once(self, fig_graph, fig_table, copa1, monkeypatch):
        three = replace(copa1, id=2, alternatives=[*copa1.alternatives, THIRD_ALTERNATIVE])
        calls = []

        def spied(words, table):
            calls.append(list(words))
            return embed_sequence(words, table)

        monkeypatch.setattr(pipeline, "embed_sequence", spied)
        report = Pipeline(fig_graph, fig_table).evaluate([copa1, three])
        assert calls == [t.symbols for r in report.results for t in r.texts]
        assert len(calls) == 3 + 4


class TestAlternativesPermuted:
    """Permuting a problem's alternatives permutes its scores, likelihoods
    and text rows bit for bit, and the choice follows unless it is a tie."""

    @staticmethod
    def assert_permuted(base, moved, perm):
        # moved's alternative k + 1 is base's alternative perm[k] + 1
        assert _bits(moved.scores) == _bits(base.scores[i] for i in perm)
        assert _bits(moved.y) == _bits(base.y[i] for i in perm)
        rows = [t.to_json() for t in base.texts]
        assert [t.to_json() for t in moved.texts] == [rows[0]] + [
            {**rows[i + 1], "role": f"a{k}"} for k, i in enumerate(perm, start=1)]
        assert moved.choice.tie == base.choice.tie
        if not base.choice.tie:
            assert moved.choice.index == perm.index(base.choice.index - 1) + 1

    def test_three_alternatives_every_permutation(self, fig_graph, fig_table, copa1):
        alternatives = [*copa1.alternatives, THIRD_ALTERNATIVE]
        pipe = Pipeline(fig_graph, fig_table)
        base = pipe.run_problem(replace(copa1, alternatives=alternatives))
        assert len(set(base.scores)) == 3
        for perm in itertools.permutations(range(3)):
            moved = pipe.run_problem(
                replace(copa1, alternatives=[alternatives[i] for i in perm]))
            self.assert_permuted(base, moved, perm)

    def test_reduced_scale_fixture_swapped(self, tmp_path):
        kg_path, vec_path, problems = _write_scale_fixture(
            tmp_path, n_words=5000, n_triples=10_000, n_problems=40, concept_pool=1000)
        cfg = PipelineConfig(prefilter_theta=0.6, sine=SineConfig(similarity_threshold=0.9))
        pipe = Pipeline(corg.load_graph(kg_path), corg.load_table(vec_path), cfg)
        base = pipe.evaluate(problems)
        moved = pipe.evaluate([replace(p, alternatives=p.alternatives[::-1])
                               for p in problems])
        assert not base.failures and not moved.failures
        for b, m in zip(base.results, moved.results):
            self.assert_permuted(b, m, (1, 0))


@pytest.fixture(params=["figure", "scale"])
def run_inputs(request, tmp_path):
    """A graph file, a table file, problems and a config with theta > 0:
    the figure graph with COPA problem 1, or the reduced scale fixture."""
    if request.param == "figure":
        return (request.getfixturevalue("fig_graph_path"),
                request.getfixturevalue("fig_table_path"),
                [request.getfixturevalue("copa1")], PipelineConfig())
    kg_path, vec_path, problems = _write_scale_fixture(
        tmp_path, n_words=5000, n_triples=10_000, n_problems=40, concept_pool=1000)
    return kg_path, vec_path, problems, PipelineConfig(
        prefilter_theta=0.6, sine=SineConfig(similarity_threshold=0.9))


class TestMetamorphic:
    """One change to the input files that must leave the report bytes as
    they are; each changed file is written next to the original."""

    @staticmethod
    def report(kg_path, vec_path, problems, cfg):
        graph, table = corg.load_graph(kg_path), corg.load_table(vec_path)
        return graph, table, Pipeline(graph, table, cfg).evaluate(problems).to_jsonl()

    @staticmethod
    def insert_lines(kg_path, make_line, seed):
        """A copy of the graph file with a fifth as many lines again (at
        least 20), each ``make_line(rng, concepts, relations)`` over the
        file's own fields, inserted at random places; returns the copy's
        path and the number inserted."""
        lines = kg_path.read_text("utf-8").splitlines(keepends=True)
        rows = [line.rstrip("\n").split("\t") for line in lines]
        concepts = sorted({row[0] for row in rows} | {row[2] for row in rows})
        relations = sorted({row[1] for row in rows})
        rng = random.Random(seed)
        n = max(20, len(lines) // 5)
        for _ in range(n):
            lines.insert(rng.randrange(len(lines) + 1), make_line(rng, concepts, relations))
        path = kg_path.with_name("changed_" + kg_path.name)
        path.write_text("".join(lines), "utf-8")
        return path, n

    def test_negated_lines_inserted(self, run_inputs):
        kg_path, vec_path, problems, cfg = run_inputs
        graph, _, expected = self.report(kg_path, vec_path, problems, cfg)
        changed, n = self.insert_lines(
            kg_path, lambda rng, concepts, _: "\t".join(
                [rng.choice(concepts), "NotDesires", rng.choice(concepts)]) + "\n", seed=7)
        graph2, _, report = self.report(changed, vec_path, problems, cfg)
        assert report == expected
        assert graph2.stats.skipped == {**graph.stats.skipped, "negated": n}

    def test_table_rows_permuted_and_an_unused_word_added(self, run_inputs):
        kg_path, vec_path, problems, cfg = run_inputs
        _, table, expected = self.report(kg_path, vec_path, problems, cfg)
        rows = vec_path.read_text("utf-8").splitlines(keepends=True)
        header = rows[0].split()[0].isdigit()  # a word count and a dimension
        rows = rows[header:]
        rng = random.Random(11)
        rng.shuffle(rows)
        vector = " ".join(f"{rng.uniform(-1, 1):.6f}" for _ in range(table.dimension))
        rows.insert(rng.randrange(len(rows) + 1), f"unusedword {vector}\n")
        if header:
            rows.insert(0, f"{len(rows)} {table.dimension}\n")
        changed = vec_path.with_name("changed_" + vec_path.name)
        changed.write_text("".join(rows), "utf-8")
        _, table2, report = self.report(kg_path, changed, problems, cfg)
        assert len(table2) == len(table) + 1
        assert report == expected

    def test_triples_to_objects_without_a_row_inserted(self, run_inputs):
        kg_path, vec_path, problems, cfg = run_inputs
        assert cfg.prefilter_theta > 0
        graph, table, expected = self.report(kg_path, vec_path, problems, cfg)
        changed, n = self.insert_lines(
            kg_path, lambda rng, concepts, relations: "\t".join(
                [rng.choice(concepts), rng.choice(relations), f"norow{rng.randrange(50)}"])
            + "\n", seed=13)
        graph2, _, report = self.report(changed, vec_path, problems, cfg)
        assert len(graph2) == len(graph) + n
        assert not table.vectors([f"norow{k}" for k in range(50)]).any()
        assert report == expected


class TestLazyModel:
    """The pipeline reads a model's size, completeness and symbols from its
    int rows; steps, atoms and derived terms are built only for a trace."""

    def test_report_builds_no_step_and_trace_equals_reference(
            self, fig_graph, fig_table, copa1, monkeypatch):
        built = []

        class CountingStep(model.DerivationStep):
            def __init__(self, *args):
                built.append("step")
                super().__init__(*args)

        class CountingAtom(Atom):
            def __init__(self, *args):
                built.append("atom")
                super().__init__(*args)

        monkeypatch.setattr(model, "DerivationStep", CountingStep)
        monkeypatch.setattr(model, "Atom", CountingAtom)
        pipe = Pipeline(fig_graph, fig_table)
        result = pipe.run_problem(copa1)
        report = RunReport([result]).to_jsonl()
        assert json.loads(report.splitlines()[0])["chosen"] == 1
        assert built == []
        for text in result.texts:  # each model holds a Skolem term, unbuilt
            assert None in text.model.terms.objects

        builder = pipe.config.builder
        for text in result.texts:
            clauses = [c for aid, formula in zip(text.selected, text.formulas)
                       for c in clausify(formula, aid)]
            ref = reference_saturate(text.facts, clauses, builder.max_term_depth,
                                     builder.max_atoms, builder.max_rounds)
            steps = len(built)
            trace = text.model.trace
            assert len(built) == steps + 2 * len(trace)
            assert all(type(s) is CountingStep for s in trace)
            # atom_tuple, since a CountingAtom never equals an Atom
            assert [(atom_tuple(s.derived), s.clause_origin, s.premises)
                    for s in trace] == \
                [(atom_tuple(a), origin, premises) for a, origin, premises in ref.trace]
            assert text.model.cut_by == ref.cut_by
            assert None not in text.model.terms.objects
            assert text.model.trace is trace
            assert text.model.atoms == [s.derived for s in trace]
            assert len(built) == steps + 2 * len(trace)  # kept, not rebuilt


class TestExplanationPath:
    def test_chosen_alternative_has_explanation(self, fig_graph, fig_table, copa1):
        from corg.model import explain
        result = Pipeline(fig_graph, fig_table).run_problem(copa1)
        chosen = result.texts[result.choice.index]
        derived = [s for s in chosen.model.trace if s.clause_origin is not None]
        assert derived
        text = explain(chosen.model, derived[-1].derived)
        assert text


class TestExportTptp:
    def test_files_reparse(self, fig_graph, fig_table, copa1, tmp_path):
        result = Pipeline(fig_graph, fig_table).run_problem(copa1)
        written = export_tptp(result, tmp_path)
        assert written
        a1_axioms = tmp_path / "p1_a1_axioms.p"
        assert a1_axioms.exists()
        annotated = parse_tptp(a1_axioms.read_text("utf-8"))
        selected = result.texts[1].selected
        assert selected and [a.name for a in annotated] == selected
        assert [a.formula for a in annotated] == result.texts[1].formulas == \
            [translate_existential(fig_graph.triple(int(aid[1:]) - 1))
             for aid in selected]
        facts = parse_tptp((tmp_path / "p1_premise_facts.p").read_text("utf-8"))
        assert [a.formula for a in facts] == result.texts[0].facts
        model = parse_tptp((tmp_path / "p1_a1_model.p").read_text("utf-8"))
        assert [a.formula for a in model] == result.texts[1].model.atoms
        trace = json.loads((tmp_path / "p1_a1_trace.json").read_text("utf-8"))
        assert trace["complete"] is True


# gzipped bad table -> its plain text; each must fail as its plain table does
_GZIPPED_BAD_TABLES = {gzip.compress(plain): plain
                       for plain in [b"moon 0 1\nsun nan 0\n", b"sun 1 0\nshadow 1 x\n"]}


class TestCli:
    def run_cli(self, capsys, *args):
        code = main(list(args))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_run_writes_report(self, copa_xml_path, fig_graph_path,
                               fig_table_path, tmp_path, capsys):
        report_path = tmp_path / "report.jsonl"
        code, out, err = self.run_cli(
            capsys, "run", "--copa", str(copa_xml_path),
            "--kg", str(fig_graph_path), "--embeddings", str(fig_table_path),
            "--report", str(report_path))
        assert code == 0, err
        lines = report_path.read_text("utf-8").strip().splitlines()
        assert json.loads(lines[0])["chosen"] == 1
        assert json.loads(lines[1])["accuracy"] == 1.0

    def test_report_to_stdout(self, copa_xml_path, fig_graph_path,
                              fig_table_path, capsys):
        code, out, _ = self.run_cli(
            capsys, "run", "--copa", str(copa_xml_path),
            "--kg", str(fig_graph_path), "--embeddings", str(fig_table_path))
        assert code == 0
        assert json.loads(out.splitlines()[0])["problem_id"] == 1

    def test_bad_dump_lines_skipped(self, copa_xml_path, fig_graph_path,
                                    fig_table_path, tmp_path, capsys):
        kg = tmp_path / "dump.tsv"
        kg.write_bytes(fig_graph_path.read_bytes() + b"sun\tCauses\t\xff\n"
                       b"/a/x\t/r/Causes\t/c/en/sun\t/c/en/light\t{\"weight\": \"heavy\"}\n")
        code, out, err = self.run_cli(
            capsys, "run", "--copa", str(copa_xml_path),
            "--kg", str(kg), "--embeddings", str(fig_table_path))
        assert (code, err) == (0, "")
        assert json.loads(out.splitlines()[0])["chosen"] == 1

    def test_explain_prints_derivations(self, copa_xml_path, fig_graph_path,
                                        fig_table_path, capsys):
        code, out, _ = self.run_cli(
            capsys, "run", "--copa", str(copa_xml_path),
            "--kg", str(fig_graph_path), "--embeddings", str(fig_table_path),
            "--report", "/dev/null", "--explain", "1")
        assert code == 0
        assert "chose alternative 1" in out
        assert "light(sk_t1_0(c0))   [clause t1]" in out
        assert "sun(c0)   [input]" in out

    def test_export_dir(self, copa_xml_path, fig_graph_path, fig_table_path,
                        tmp_path, capsys):
        export = tmp_path / "tptp"
        code, _, _ = self.run_cli(
            capsys, "run", "--copa", str(copa_xml_path),
            "--kg", str(fig_graph_path), "--embeddings", str(fig_table_path),
            "--report", "/dev/null", "--export-tptp", str(export))
        assert code == 0
        assert (export / "p1_premise_axioms.p").exists()

    def test_missing_file_exits_1(self, copa_xml_path, fig_table_path, capsys):
        code, _, err = self.run_cli(
            capsys, "run", "--copa", str(copa_xml_path),
            "--kg", "/nonexistent.tsv", "--embeddings", str(fig_table_path))
        assert code == 1
        assert "error:" in err

    @pytest.mark.parametrize("name, data", [
        ("vectors.txt", b"sun 1 0\nsu\xffn 0 1\n"),
        ("vectors.txt", b"moon 0 1\nsun nan 0\n"),
        ("vectors.txt.gz", gzip.compress(b"".join(b"w%d %d 1\n" % (i, i)
                                                  for i in range(300)))[:200]),
        ("vectors.txt", b"sun 1 0\nmoon 1 0 1\n"),
        ("vectors.txt", b"sun 1 0\nshadow 1 x\n"),  # a graph symbol: read at set-up
        ("vectors.txt", b"3 2\n"),
        ("vectors.txt", b"sun\nrising\ngrass\n"),
        ("vectors.txt", b"3 2\nsun 1 0\n"),
        *(("vectors.txt.gz", gz) for gz in _GZIPPED_BAD_TABLES),
    ], ids=["invalid-utf8", "nan", "cut-gzip", "dimension", "bad-float", "header-only",
            "zero-dimension", "header-count", "nan-gz", "bad-float-gz"])
    def test_bad_table_exits_1(self, copa_xml_path, fig_graph_path, tmp_path,
                               capsys, name, data):
        table = tmp_path / name
        table.write_bytes(data)
        code, out, err = self.run_cli(
            capsys, "run", "--copa", str(copa_xml_path),
            "--kg", str(fig_graph_path), "--embeddings", str(table))
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(table) in err
        if data in _GZIPPED_BAD_TABLES:  # fails as the plain table does
            plain = tmp_path / "vectors.txt"
            plain.write_bytes(_GZIPPED_BAD_TABLES[data])
            assert self.run_cli(capsys, "run", "--copa", str(copa_xml_path),
                                "--kg", str(fig_graph_path), "--embeddings", str(plain)) == \
                (1, "", err.replace(str(table), str(plain)))

    def test_bad_row_of_a_problem_word_fails_that_problem(
            self, copa_xml_path, fig_graph_path, fig_table_path, tmp_path, capsys):
        # "rising" is a word of problem 1 but no symbol of the graph: its
        # row is first read, and found bad, by the problem's prefilter; a
        # .gz copy of the table fails alike
        table = tmp_path / "vectors.txt"
        table.write_bytes(fig_table_path.read_bytes().replace(b"rising 1.0 0.0",
                                                              b"rising 1.0 x"))
        gz = tmp_path / "vectors.txt.gz"
        gz.write_bytes(gzip.compress(table.read_bytes()))
        failures = []
        for path in table, gz:
            report_path = tmp_path / "report.jsonl"
            code, out, err = self.run_cli(
                capsys, "run", "--copa", str(copa_xml_path), "--kg", str(fig_graph_path),
                "--embeddings", str(path), "--report", str(report_path))
            assert (code, out) == (1, "")
            assert err.startswith("error: problem 1, stage prefilter: line 2: bad float")
            assert err.count("\n") == 1 and str(path) in err
            rows = [json.loads(line) for line in report_path.read_text("utf-8").splitlines()]
            assert rows[0]["problem_id"] == 1 and rows[0]["error"]["stage"] == "prefilter"
            assert rows[1]["failed"] == 1
            failures.append((err.replace(str(path), "TABLE"),
                             json.dumps(rows[0]).replace(json.dumps(str(path))[1:-1], "TABLE")))
        assert failures[0] == failures[1]

    def test_gzipped_table_writes_the_same_report(self, copa_xml_path, fig_graph_path,
                                                  fig_table_path, tmp_path, capsys):
        gz = tmp_path / "vectors.txt.gz"
        gz.write_bytes(gzip.compress(fig_table_path.read_bytes()))
        reports = []
        for table in fig_table_path, gz:
            report_path = tmp_path / f"report{len(reports)}.jsonl"
            code, _, err = self.run_cli(
                capsys, "run", "--copa", str(copa_xml_path), "--kg", str(fig_graph_path),
                "--embeddings", str(table), "--report", str(report_path))
            assert code == 0, err
            reports.append(report_path.read_bytes())
        assert reports[0] == reports[1]

    def test_option_defaults_are_the_config_defaults(self):
        args = build_parser().parse_args(
            ["run", "--copa", "x", "--kg", "y", "--embeddings", "z"])
        assert _config(args) == PipelineConfig()

    def test_bad_arguments_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--copa"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("option, value, message", [
        ("--sine-tolerance", "0.5", "tolerance must be >= 1"),
        ("--sine-tolerance", "nan", "tolerance must be >= 1"),
        ("--prefilter-theta", "nan", "prefilter_theta must be finite"),
        ("--prefilter-theta", "inf", "prefilter_theta must be finite"),
        ("--sim-threshold", "nan", "similarity_threshold must be finite"),
    ])
    def test_bad_option_value_exits_2(self, capsys, option, value, message):
        # checked before any input is read, so the paths need not exist
        with pytest.raises(SystemExit) as exc:
            main(["run", "--copa", "c.xml", "--kg", "kg.tsv",
                  "--embeddings", "v.txt", option, value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.strip().splitlines()[-1].startswith(f"corg: error: {message}")

    @pytest.mark.parametrize("value", ["-1", "x"])
    def test_bad_sine_depth_exits_2(self, capsys, value):
        # rejected as the arguments are parsed, naming the flag the user typed
        with pytest.raises(SystemExit) as exc:
            main(["run", "--copa", "c.xml", "--kg", "kg.tsv",
                  "--embeddings", "v.txt", "--sine-depth", value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err and "max_depth" not in err
        assert err.strip().splitlines()[-1] == ("corg run: error: argument --sine-depth: "
                                                f"expected an integer >= 0, got {value!r}")

    def test_inverse_and_flags_accepted(self, copa_xml_path, fig_graph_path,
                                        fig_table_path, capsys):
        code, out, err = self.run_cli(
            capsys, "run", "--copa", str(copa_xml_path),
            "--kg", str(fig_graph_path), "--embeddings", str(fig_table_path),
            "--inverse", "--scheme", "existential", "--sine-tolerance", "2.0",
            "--sine-depth", "0", "--prefilter-theta", "-1")
        assert code == 0, err
        assert json.loads(out.splitlines()[0])["chosen"] == 1

    def test_relations_file_flag(self, copa_xml_path, fig_graph_path,
                                 fig_table_path, tmp_path, capsys):
        relations = tmp_path / "rels.txt"
        relations.write_text("causes\n", "utf-8")
        code, out, _ = self.run_cli(
            capsys, "run", "--copa", str(copa_xml_path),
            "--kg", str(fig_graph_path), "--embeddings", str(fig_table_path),
            "--relations", str(relations))
        assert code == 0
        row = json.loads(out.splitlines()[0])
        assert row["texts"][0]["n_translated"] <= 1

    def test_comment_only_relations_file_exits_2(self, tmp_path, capsys):
        # checked before any input is read, so the other paths need not exist
        relations = tmp_path / "rels.txt"
        relations.write_text("# nothing enabled\n\n", "utf-8")
        with pytest.raises(SystemExit) as exc:
            main(["run", "--copa", "c.xml", "--kg", "kg.tsv",
                  "--embeddings", "v.txt", "--relations", str(relations)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.strip().splitlines()[-1] == \
            "corg: error: relation whitelist enabled but empty"

    @pytest.mark.parametrize("old, new, message", [
        ('id="1"', 'id="one"', "item one: id 'one' is not an integer"),
        ('asks-for="cause"', 'asks-for="why"',
         "item 1: asks-for 'why' is not cause or effect"),
        ('most-plausible-alternative="1"', 'most-plausible-alternative="first"',
         "item 1: most-plausible-alternative 'first' is not an integer"),
        ('most-plausible-alternative="1"', 'most-plausible-alternative="3"',
         "item 1: most-plausible-alternative '3' is not between 1 and 2"),
        ("</item>", "</item>\n<item id=\"1\" asks-for=\"effect\"><p>P.</p>"
         "<a1>A.</a1><a2>B.</a2></item>",
         "item 1: id '1' repeats an earlier item's id"),
    ])
    def test_bad_copa_item_exits_1(self, fig_graph_path, fig_table_path, tmp_path,
                                   capsys, old, new, message):
        copa = tmp_path / "bad.xml"
        copa.write_text(COPA_XML.replace(old, new), "utf-8")
        code, out, err = self.run_cli(
            capsys, "run", "--copa", str(copa), "--kg", str(fig_graph_path),
            "--embeddings", str(fig_table_path))
        assert (code, out, err) == (1, "", f"error: {message}\n")

    def test_undecodable_relations_file_exits_1(self, tmp_path, capsys):
        relations = tmp_path / "rels.txt"
        relations.write_bytes(b"causes\nis_\xffa\n")
        code, out, err = self.run_cli(
            capsys, "run", "--copa", "c.xml", "--kg", "kg.tsv",
            "--embeddings", "v.txt", "--relations", str(relations))
        assert (code, out, err) == (1, "", f"error: line 2: not valid UTF-8 ({relations})\n")

    def test_negated_relations_entry_exits_1(self, tmp_path, capsys):
        relations = tmp_path / "rels.txt"
        relations.write_text("Causes\nNotDesires\n", "utf-8")
        code, out, err = self.run_cli(
            capsys, "run", "--copa", "c.xml", "--kg", "kg.tsv",
            "--embeddings", "v.txt", "--relations", str(relations))
        assert (code, out) == (1, "")
        assert err == f"error: line 2: negated relation 'NotDesires', " \
                      f"which no graph edge keeps ({relations})\n"

    def test_missing_relations_file_exits_1(self, capsys):
        code, _, err = self.run_cli(
            capsys, "run", "--copa", "c.xml", "--kg", "kg.tsv",
            "--embeddings", "v.txt", "--relations", "/nonexistent.txt")
        assert code == 1
        assert err.startswith("error:")

    def run_two_problems(self, capsys, tmp_path, fig_graph_path, fig_table_path,
                         fol_dir):
        """``corg run`` over problems 1 and 2 (copies of COPA problem 1) in
        fol_file mode; problem 1's formula files exist.  Returns the error
        output after checking that problem 2 failed in stage facts and that
        the report still holds problem 1's answer."""
        copa = tmp_path / "two.xml"
        item = COPA_XML.split("<item")[1].split("</item>")[0]
        copa.write_text(COPA_XML.replace(
            "</copa-corpus>", "<item" + item.replace('id="1"', 'id="2"')
            + "</item>\n</copa-corpus>"), "utf-8")
        write_formulas(fol_dir, 1)
        report_path = tmp_path / "report.jsonl"
        code, _, err = self.run_cli(
            capsys, "run", "--copa", str(copa), "--kg", str(fig_graph_path),
            "--embeddings", str(fig_table_path), "--fol-dir", str(fol_dir),
            "--report", str(report_path))
        assert code == 1
        assert "problem 2, stage facts" in err
        rows = [json.loads(line) for line in report_path.read_text("utf-8").splitlines()]
        assert rows[0]["problem_id"] == 1 and rows[0]["chosen"] == 1
        assert rows[1]["problem_id"] == 2 and rows[1]["error"]["stage"] == "facts"
        assert rows[2]["failed"] == 1
        return err

    def test_failed_problem_still_writes_report(self, fig_graph_path, fig_table_path,
                                                tmp_path, capsys):
        fol_dir = tmp_path / "fol"
        fol_dir.mkdir()  # no formula file for problem 2
        self.run_two_problems(capsys, tmp_path, fig_graph_path, fig_table_path, fol_dir)

    def test_unreadable_formula_file_still_writes_report(self, fig_graph_path,
                                                         fig_table_path, tmp_path,
                                                         capsys):
        fol_dir = tmp_path / "fol"
        fol_dir.mkdir()
        (fol_dir / "2_premise.p").mkdir()  # the path exists but cannot be read
        err = self.run_two_problems(capsys, tmp_path, fig_graph_path, fig_table_path,
                                    fol_dir)
        assert "2_premise.p" in err


class TestPipelineMemory:
    def test_bytes_per_symbol_at_300_d(self):
        # Pipeline(graph, table) holds one float32 unit row per symbol, 1,200
        # bytes at 300-d, and builds it 1,024 float64 rows at a time, so no
        # float64 matrix of every symbol's row is ever made.  Over 2,000
        # symbols of a table whose rows are all parsed already, it may keep
        # 1,400 bytes per symbol, and its construction may peak at 4,200:
        # the kept bytes plus two float64 blocks of 1,024 x 300 (a block's
        # rows and their squares, for the norms), 2,458 bytes per symbol
        # here.  A float64 unit row alone is 2,400 bytes.
        n, d = 2000, 300
        rng = np.random.default_rng(12)
        words = [f"w{i}" for i in range(n)]
        table = EmbeddingTable(d, {w: rng.normal(size=d) for w in words})
        graph = KnowledgeGraph([Triple(w, "causes", words[(7 * i + 1) % n])
                                for i, w in enumerate(words)])
        gc.collect()
        tracemalloc.start()
        try:
            pipe = Pipeline(graph, table)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(pipe.columns.symbols) == n + 1  # the concepts and "causes"
        assert kept <= 1400 * n
        assert peak <= 4200 * n


class TestPipelineConfig:
    def test_defaults_and_fol_file_with_dir_construct(self, tmp_path):
        PipelineConfig()
        PipelineConfig(fact_mode="fol_file", fol_dir=tmp_path)

    @pytest.mark.parametrize("kwargs, message", [
        ({"scheme": "bogus"}, "unknown scheme"),
        ({"fact_mode": "bogus"}, "unknown fact mode"),
        ({"fact_mode": "fol_file"}, "needs fol_dir"),
        ({"prefilter_theta": float("nan")}, "must be finite"),
    ])
    def test_rejects_configurations_that_can_only_fail_later(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            PipelineConfig(**kwargs)


def test_public_names_importable():
    namespace: dict = {}
    exec("from corg import *", namespace)
    assert len(set(corg.__all__)) == len(corg.__all__)
    assert all(namespace[name] is getattr(corg, name) for name in corg.__all__)
