import gzip
import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import corg
from corg import EmbeddingTable, KnowledgeGraph, Triple, fol, model, pipeline
from corg.cli import main
from corg.errors import (MissingField, MissingFormula, ParseError, StageError,
                         UnreadableFormula, XmlError)
from corg.fol import (Atom, Constant, clausify, parse_tptp, translate_existential,
                      translate_inverse)
from corg.model import BuilderConfig
from corg.pipeline import (CopaProblem, Pipeline, PipelineConfig, RunReport,
                           content_words, export_tptp, parse_copa_xml,
                           text_to_facts)
from corg.selection import SineConfig
from conftest import COPA_XML
from oracles import (atom_tuple, copa1_expected, reachable_within,
                     reference_saturate)


def c0(pred):
    return Atom(pred, (Constant("c0"),))


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
        (tmp_path / "2_premise.p").write_text(
            "fof(q, hypothesis, ? [A] : (shadow(A) & grass(A))).\n", "utf-8")
        facts = text_to_facts("x", "fol_file", fol_dir=tmp_path,
                              problem_id=2, role="premise")
        assert facts == [Atom("shadow", (Constant("sk_q_0"),)),
                         Atom("grass", (Constant("sk_q_0"),))]

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

    def test_deeply_nested_formula_names_facts_stage(self, fig_graph, fig_table,
                                                     copa1, tmp_path):
        write_formulas(tmp_path, 1)
        (tmp_path / "1_a2.p").write_text("~" * 5000 + "p(a)", "utf-8")
        cfg = PipelineConfig(fact_mode="fol_file", fol_dir=tmp_path)
        with pytest.raises(StageError) as err:
            Pipeline(fig_graph, fig_table, cfg).run_problem(copa1)
        assert err.value.stage == "facts"
        assert isinstance(err.value.cause, ParseError)

    def test_only_selected_axioms_translated(self, fig_graph, fig_table, copa1):
        pipe = Pipeline(fig_graph, fig_table,
                        PipelineConfig(include_inverse=True, prefilter_theta=-1.0))
        result = pipe.run_problem(copa1)
        indexed = {t.n_translated for t in result.texts}
        assert indexed == {8}  # four triples, each with its inverse
        selected = {key for t in result.texts for key in t.keys}
        assert selected and set(pipe._translations) == selected

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
        pipe = Pipeline(fig_graph, fig_table,
                        PipelineConfig(include_inverse=True, prefilter_theta=-1.0))
        problems = [copa1, replace(copa1, id=2), replace(
            copa1, id=3, premise="The grass was cut.",
            alternatives=["The sun was rising.", "My body cast a shadow."])]
        results = [pipe.run_problem(p) for p in problems]
        keys = {key for r in results for t in r.texts for key in t.keys}
        assert len(keys) > 1
        assert calls == {"translate": len(keys), "clausify": len(keys)}
        RunReport(results).to_jsonl()
        assert calls == {"translate": len(keys), "clausify": len(keys)}

    def test_selected_and_formulas_are_what_was_clausified(
            self, fig_graph, fig_table, copa1, monkeypatch):
        clausified = {}

        def recorded(formula, axiom_id):
            clausified[axiom_id] = formula
            return clausify(formula, axiom_id)

        monkeypatch.setattr(fol, "clausify", recorded)
        cfg = PipelineConfig(include_inverse=True, prefilter_theta=-1.0)
        result = Pipeline(fig_graph, fig_table, cfg).run_problem(copa1)
        assert {aid for t in result.texts for aid in t.selected} == set(clausified)
        for text in result.texts:
            assert text.formulas == [clausified[aid] for aid in text.selected]

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
                triple = fig_graph.triple(int(aid[1:].removesuffix("_inv")) - 1)
                translate = translate_inverse if aid.endswith("_inv") \
                    else translate_existential
                assert formula == translate(triple)

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
                              st.sampled_from(_CONCEPTS), st.booleans()), max_size=10),
           st.booleans(), st.integers(1, 4), st.sampled_from([1.0, 1.5, 1e9]),
           st.none() | st.integers(1, 3), st.lists(_TEXT, min_size=3, max_size=3))
    def test_unary_predicates_are_hop_reachable(self, rows, inverse, depth, tolerance,
                                                sine_depth, texts):
        graph = KnowledgeGraph()
        for s, r, o, negated in rows:
            graph.add(Triple(s, r, o, negated=negated))
        rng = np.random.default_rng(len(rows))
        table = EmbeddingTable(4, {w: rng.normal(size=4) for w in _CONCEPTS})
        config = PipelineConfig(
            include_inverse=inverse, prefilter_theta=-1.0,
            sine=SineConfig(tolerance=tolerance, max_depth=sine_depth),
            builder=BuilderConfig(max_term_depth=depth, max_atoms=1_000_000))
        problem = CopaProblem(1, texts[0], "cause", texts[1:])
        for text in Pipeline(graph, table, config).run_problem(problem).texts:
            assert not {"atoms", "rounds"} & set(text.model.cut_by)
            edges = []
            for aid in text.selected:
                t = graph.triple(int(aid[1:].removesuffix("_inv")) - 1)
                edges.append((t.object, t.subject) if aid.endswith("_inv")
                             else (t.subject, t.object))
            words = {fact.predicate for fact in text.facts}
            assert {a.predicate for a in text.model.atoms if len(a.args) == 1} == \
                reachable_within(edges, words, depth - 1)


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
        translate, sizes = pipe._translate, []

        def watched(*args):
            out = translate(*args)
            sizes.append(len(pipe._translations))
            return out

        monkeypatch.setattr(pipe, "_translate", watched)
        assert pipe.evaluate(problems).to_jsonl() == expected
        assert len(sizes) > 2 and max(sizes) == 2

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

    def test_jsonl_shape(self, fig_graph, fig_table, copa1):
        report = Pipeline(fig_graph, fig_table).evaluate([copa1])
        lines = report.to_jsonl().strip().splitlines()
        assert len(lines) == 2
        row = json.loads(lines[0])
        assert row["problem_id"] == 1
        assert row["chosen"] == 1
        assert row["correct"] is True
        assert "seconds" not in row  # timings only on request
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

    def test_timings_on_request(self, fig_graph, fig_table, copa1):
        report = Pipeline(fig_graph, fig_table).evaluate([copa1])
        row = json.loads(report.to_jsonl(include_timings=True).splitlines()[0])
        assert row["seconds"] > 0


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
    ], ids=["invalid-utf8", "nan", "cut-gzip", "dimension", "bad-float", "header-only",
            "zero-dimension", "header-count"])
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

    def test_bad_row_of_a_problem_word_fails_that_problem(
            self, copa_xml_path, fig_graph_path, fig_table_path, tmp_path, capsys):
        # "rising" is a word of problem 1 but no symbol of the graph: its
        # row is first read, and found bad, by the problem's prefilter
        table = tmp_path / "vectors.txt"
        table.write_bytes(fig_table_path.read_bytes().replace(b"rising 1.0 0.0",
                                                              b"rising 1.0 x"))
        report_path = tmp_path / "report.jsonl"
        code, out, err = self.run_cli(
            capsys, "run", "--copa", str(copa_xml_path), "--kg", str(fig_graph_path),
            "--embeddings", str(table), "--report", str(report_path))
        assert (code, out) == (1, "")
        assert err.startswith("error: problem 1, stage prefilter: line 2: bad float")
        assert err.count("\n") == 1 and str(table) in err
        rows = [json.loads(line) for line in report_path.read_text("utf-8").splitlines()]
        assert rows[0]["problem_id"] == 1 and rows[0]["error"]["stage"] == "prefilter"
        assert rows[1]["failed"] == 1

    def test_bad_arguments_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--copa"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("option, value, message", [
        ("--sine-tolerance", "0.5", "tolerance must be >= 1"),
        ("--sine-tolerance", "nan", "tolerance must be >= 1"),
        ("--sine-depth", "-1", "max_depth must be positive"),
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
