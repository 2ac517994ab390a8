"""End-to-end COPA runs: parse problems, build facts, chain, extract, score.

Per problem, the triple prefilter keeps the triples whose object is near
the problem's words, and each kept triple is indexed for selection by its
symbol set (``fol.triple_symbols``) as axiom ``t<n>`` and, with inverses on,
``t<n>_inv``.  Each text (premise, then every alternative) then goes through

    facts -> select -> translate + clausify (selected axioms only)
          -> saturate -> extract symbols

and the per-alternative symbol sequences are scored against the premise's.
A failure is raised as a StageError that names the problem and the stage.
Resources (graph, embeddings) are loaded once and shared; problems are
processed independently, and the serialized report is byte-deterministic
for identical inputs and configuration (timings stay in memory unless
explicitly asked for).
"""

from __future__ import annotations

import json
import math
import re
import sys
import time
import xml.etree.ElementTree as ET
from contextlib import contextmanager
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Sequence

from . import fol
from .embeddings import EmbeddingTable, OovPolicy
from .errors import (CorgError, MissingField, MissingFormula, StageError,
                     UnsupportedFragment, XmlError)
from .fol import Atom, Clause, Constant, Formula
from .kg import KnowledgeGraph
from .model import (BuilderConfig, ExtractionConfig, PartialModel,
                    extract_symbols, saturate, trace_json)
from .scorer import Choice, ScorerConfig, ScoreVector, choose, likelihoods, score_pair
from .selection import (Prefilter, SineConfig, build_index, sine_select,
                        similarity_sine_select)

# ---------------------------------------------------------------- problems


@dataclass
class CopaProblem:
    """Premise, cause/effect question, and n >= 2 alternatives."""

    id: int
    premise: str
    question: str
    alternatives: list[str]
    gold: int | None = None  # 1-based, like the XML attribute

    def __post_init__(self):
        if self.question not in ("cause", "effect"):
            raise ValueError(f"question must be cause or effect, got {self.question!r}")
        if len(self.alternatives) < 2:
            raise ValueError("a problem needs at least two alternatives")


def parse_copa_xml(path) -> list[CopaProblem]:
    """Read COPA XML items into problems; gold label is optional per item."""
    try:
        root = ET.parse(path).getroot()
    except ET.ParseError as e:
        raise XmlError(f"{path}: {e}") from e
    problems = []
    for item in root.iter("item"):
        item_id = item.get("id")
        if item_id is None:
            raise MissingField("?", "id")
        asks_for = item.get("asks-for")
        if asks_for is None:
            raise MissingField(item_id, "asks-for")
        premise = item.findtext("p")
        if premise is None:
            raise MissingField(item_id, "p")
        alternatives = []
        for k in range(1, len(item) + 1):
            text = item.findtext(f"a{k}")
            if text is None:
                break
            alternatives.append(text.strip())
        if len(alternatives) < 2:
            raise MissingField(item_id, "a1/a2")
        gold = item.get("most-plausible-alternative")
        problems.append(CopaProblem(
            id=int(item_id),
            premise=premise.strip(),
            question=asks_for,
            alternatives=alternatives,
            gold=int(gold) if gold is not None else None,
        ))
    return problems


# ------------------------------------------------------------------- text

_WORD = re.compile(r"[a-z]+")
_stopwords: frozenset[str] | None = None


def stopwords() -> frozenset[str]:
    global _stopwords
    if _stopwords is None:
        text = resources.files("corg.data").joinpath("stopwords_en.txt").read_text("utf-8")
        _stopwords = frozenset(
            w.strip() for w in text.splitlines()
            if w.strip() and not w.startswith("#"))
    return _stopwords


def content_words(text: str) -> list[str]:
    """Lowercase non-stopword tokens of a sentence, duplicates dropped."""
    out, seen = [], set()
    for w in _WORD.findall(text.lower()):
        if w not in stopwords() and w not in seen:
            seen.add(w)
            out.append(w)
    return out


TEXT_CONSTANT = "c0"  # the one individual each text's facts talk about


def text_to_facts(text: str, mode: str = "bag_of_words",
                  fol_dir=None, problem_id: int | None = None,
                  role: str | None = None) -> list[Atom]:
    """Ground facts for one problem text.

    ``bag_of_words`` turns every content word into a unary atom over a
    fresh per-text constant: "The sun was rising." -> sun(c0), rising(c0).
    ``fol_file`` reads ``<problem_id>_<role>.p`` from fol_dir (one formula,
    bare or fof-annotated) and clausifies it into ground facts.
    """
    if mode == "bag_of_words":
        return [Atom(w, (Constant(TEXT_CONSTANT),)) for w in content_words(text)]
    if mode != "fol_file":
        raise ValueError(f"unknown fact mode {mode!r}")
    if fol_dir is None or problem_id is None or role is None:
        raise ValueError("fol_file mode needs fol_dir, problem_id, and role")
    path = Path(fol_dir) / f"{problem_id}_{role}.p"
    if not path.exists():
        raise MissingFormula(problem_id, role)
    content = path.read_text(encoding="utf-8")
    if "fof(" in content or "cnf(" in content:
        formulas = [a.formula for a in fol.parse_tptp(content)]
    else:
        formulas = [fol.parse_fol(content)]
    facts: list[Atom] = []
    for k, formula in enumerate(formulas):
        axiom_id = "q" if k == 0 else f"q{k}"
        for clause in fol.clausify(formula, axiom_id):
            if clause.negatives or len(clause.positives) != 1 or not clause.is_ground():
                raise UnsupportedFragment(
                    f"{path}: formula must clausify to ground facts")
            facts.append(clause.positives[0])
    return facts


# ----------------------------------------------------------- configuration


@dataclass
class PipelineConfig:
    scheme: str = "existential"  # or "factual"
    include_inverse: bool = False
    fact_mode: str = "bag_of_words"  # or "fol_file"
    fol_dir: Path | None = None
    prefilter_theta: float = 0.4  # -1 keeps every triple
    sine: SineConfig = field(default_factory=SineConfig)
    builder: BuilderConfig = field(default_factory=BuilderConfig)
    scorer: ScorerConfig = field(default_factory=ScorerConfig)
    oov: OovPolicy = field(default_factory=OovPolicy)
    extraction: ExtractionConfig = field(default_factory=ExtractionConfig)

    def __post_init__(self):
        if self.scheme not in ("existential", "factual"):
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if not math.isfinite(self.prefilter_theta):
            raise ValueError(f"prefilter_theta must be finite, got {self.prefilter_theta}")


# ----------------------------------------------------------------- results


@dataclass
class TextResult:
    """Everything the pipeline derived for one text of a problem."""

    role: str
    facts: list[Atom]
    n_translated: int  # axioms indexed for selection
    selected: list[str]  # axiom ids, in index order
    formulas: list[Formula]  # the selected axioms' translations, in the same order
    model: PartialModel
    symbols: list[str]
    seconds: float

    def to_json(self, include_timings: bool = False) -> dict:
        row = {
            "role": self.role,
            "n_facts": len(self.facts),
            "n_translated": self.n_translated,
            "n_selected": len(self.selected),
            "model_atoms": len(self.model),
            "complete": self.model.complete,
        }
        if include_timings:
            row["seconds"] = self.seconds
        return row


@dataclass
class ProblemResult:
    problem: CopaProblem
    texts: list[TextResult]  # premise first, then alternatives in order
    scores: list[float]
    y: ScoreVector
    choice: Choice
    seconds: float

    @property
    def correct(self) -> bool | None:
        if self.problem.gold is None:
            return None
        return self.choice.index == self.problem.gold

    def to_json(self, include_timings: bool = False) -> dict:
        row = {
            "problem_id": self.problem.id,
            "question": self.problem.question,
            "chosen": self.choice.index,
            "tie": self.choice.tie,
            "scores": self.scores,
            "likelihoods": list(self.y),
            "gold": self.problem.gold,
            "correct": self.correct,
            "texts": [t.to_json(include_timings) for t in self.texts],
        }
        if include_timings:
            row["seconds"] = self.seconds
        return row


@dataclass
class RunReport:
    """Per-problem results (problem-id order) plus aggregate accuracy."""

    results: list[ProblemResult]

    @property
    def n_labeled(self) -> int:
        return sum(1 for r in self.results if r.problem.gold is not None)

    @property
    def n_correct(self) -> int:
        return sum(1 for r in self.results if r.correct)

    @property
    def accuracy(self) -> float | None:
        """Fraction correct over labeled problems; None when nothing is labeled."""
        return self.n_correct / self.n_labeled if self.n_labeled else None

    def aggregate_json(self) -> dict:
        row = {"problems": len(self.results), "labeled": self.n_labeled,
               "correct": self.n_correct}
        if self.accuracy is not None:
            row["accuracy"] = self.accuracy
        return row

    def to_jsonl(self, include_timings: bool = False) -> str:
        lines = [json.dumps(r.to_json(include_timings), sort_keys=True)
                 for r in self.results]
        lines.append(json.dumps(self.aggregate_json(), sort_keys=True))
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------- pipeline


class Pipeline:
    """Loaded resources plus configuration, reusable across problems."""

    def __init__(self, graph: KnowledgeGraph, table: EmbeddingTable,
                 config: PipelineConfig | None = None):
        self.graph = graph
        self.table = table
        self.config = config or PipelineConfig()
        self.prefilter = Prefilter(graph.triples, table, self.config.oov)
        # axiom id -> (formula, clauses); translation is problem-independent
        self._translations: dict[str, tuple[Formula, list[Clause]]] = {}

    def _translate(self, aid: str, tid: int,
                   inverse: bool) -> tuple[Formula, list[Clause]]:
        cached = self._translations.get(aid)
        if cached is None:
            triple = self.graph.triples[tid]
            if inverse:
                formula = fol.translate_inverse(triple)
            elif self.config.scheme == "factual":
                formula = fol.translate_factual(triple)
            else:
                formula = fol.translate_existential(triple)
            cached = formula, fol.clausify(formula, aid)
            self._translations[aid] = cached
        return cached

    def _run_text(self, problem: CopaProblem, role: str, text: str,
                  axioms: dict[str, tuple[int, bool]], index) -> TextResult:
        cfg = self.config
        start = time.perf_counter()
        with _stage(problem.id, "facts"):
            facts = text_to_facts(text, cfg.fact_mode, cfg.fol_dir, problem.id, role)
        goals: set[str] = set()
        for f in facts:
            goals |= fol.symbols(f)
        with _stage(problem.id, "select"):
            if not goals:
                selected: set[str] = set()
            elif cfg.sine.similarity_threshold is not None:
                selected = similarity_sine_select(index, goals, cfg.sine,
                                                  self.table, cfg.oov)
            else:
                selected = sine_select(index, goals, cfg.sine)
        selected_order = [aid for aid in axioms if aid in selected]
        formulas: list[Formula] = []
        clauses: list[Clause] = []
        with _stage(problem.id, "translate"):
            for aid in selected_order:
                formula, axiom_clauses = self._translate(aid, *axioms[aid])
                formulas.append(formula)
                clauses.extend(axiom_clauses)
        with _stage(problem.id, "saturate"):
            model = saturate(facts, clauses, cfg.builder)
        syms = extract_symbols(model, cfg.extraction)
        return TextResult(role, facts, len(axioms), selected_order, formulas,
                          model, syms, time.perf_counter() - start)

    def run_problem(self, problem: CopaProblem) -> ProblemResult:
        """Full pipeline for one problem; see the module docstring."""
        cfg = self.config
        start = time.perf_counter()
        words = content_words(" ".join([problem.premise] + problem.alternatives))
        with _stage(problem.id, "prefilter"):
            kept = self.prefilter.apply_indices(words, cfg.prefilter_theta) \
                if words else []
        # axiom id -> (triple id, inverse), in axiom-id order; ids are interned
        # so that the results of every problem share one string per axiom
        axioms: dict[str, tuple[int, bool]] = {}
        for tid in kept:
            if not self.graph.triples[tid].negated:
                axioms[sys.intern(f"t{tid + 1}")] = (tid, False)
                if cfg.include_inverse:
                    axioms[sys.intern(f"t{tid + 1}_inv")] = (tid, True)
        index = build_index({aid: fol.triple_symbols(self.graph.triples[tid], inverse)
                             for aid, (tid, inverse) in axioms.items()})
        texts = [self._run_text(problem, "premise", problem.premise, axioms, index)]
        for k, alt in enumerate(problem.alternatives, start=1):
            texts.append(self._run_text(problem, f"a{k}", alt, axioms, index))
        with _stage(problem.id, "score"):
            premise_syms = texts[0].symbols
            scores = [score_pair(premise_syms, t.symbols, self.table, cfg.oov)
                      for t in texts[1:]]
            y = likelihoods(scores, cfg.scorer)
            choice = choose(y)
        return ProblemResult(problem, texts, scores, y, choice,
                             time.perf_counter() - start)

    def evaluate(self, problems: Sequence[CopaProblem]) -> RunReport:
        """Run every problem independently; results come back in id order."""
        results = [self.run_problem(p) for p in problems]
        results.sort(key=lambda r: r.problem.id)
        return RunReport(results)


@contextmanager
def _stage(problem_id: int, stage: str):
    """Re-raise a CorgError from the block as a StageError naming the stage."""
    try:
        yield
    except CorgError as e:
        raise StageError(problem_id, stage, e) from e


# ------------------------------------------------------------ TPTP export


def export_tptp(result: ProblemResult, out_dir,
                stages: Sequence[str] = ("facts", "axioms", "model")) -> list[Path]:
    """Write per-text TPTP files for the requested pipeline stages.

    Everything comes from the stored text results: the facts, the formulas
    of the selected axioms, and the model with its derivation trace.
    Returns the written paths.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    pid = result.problem.id
    for t in result.texts:
        prefix = f"p{pid}_{t.role}"
        if "facts" in stages:
            path = out_dir / f"{prefix}_facts.p"
            lines = [fol.to_tptp(atom, f"f{i}", "hypothesis")
                     for i, atom in enumerate(t.facts)]
            path.write_text("\n".join(lines) + ("\n" if lines else ""), "utf-8")
            written.append(path)
        if "axioms" in stages:
            path = out_dir / f"{prefix}_axioms.p"
            lines = [fol.to_tptp(f, aid, "axiom")
                     for aid, f in zip(t.selected, t.formulas)]
            path.write_text("\n".join(lines) + ("\n" if lines else ""), "utf-8")
            written.append(path)
        if "model" in stages:
            path = out_dir / f"{prefix}_model.p"
            lines = [fol.to_tptp(atom, f"m{i}", "axiom")
                     for i, atom in enumerate(t.model.atoms)]
            path.write_text("\n".join(lines) + ("\n" if lines else ""), "utf-8")
            written.append(path)
            trace_path = out_dir / f"{prefix}_trace.json"
            trace_path.write_text(trace_json(t.model), "utf-8")
            written.append(trace_path)
    return written
