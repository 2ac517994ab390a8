"""End-to-end COPA runs: parse problems, build facts, chain, extract, score.

The graph's int id columns are copied once into symbol-id columns
(``TripleColumns``).  Per problem, every text's facts (premise, then every
alternative) are built first.  Then one product of clipped cosines
(``Cosines``) is made, between every symbol and the problem's words plus,
with similarity seeding on, every text's goal symbols; the triple
prefilter reads it to keep the triples whose object is near the problem's
words, and similarity seeding reads it again per text.  Each kept triple
is indexed for selection by its symbol ids, as its forward axiom and, with
inverses on, its inverse one.  An axiom is known by its key ``2 * triple
id + inverse`` from selection to the result.  So a problem runs

    facts (every text) -> one product -> prefilter -> index
          -> per text: select -> keep the live selected axioms
             -> translate + clausify (live axioms only) -> saturate
             -> extract symbols

and then each text's symbols are embedded once, as one mean vector, and
each alternative's vector is scored against the premise's.
A selected axiom is live when its body can hold in the text's model; the
others can never fire, so they are neither translated nor chained, though
they stay selected.  Only the live axioms' clauses are kept, cached by key
with the least recently used evicted first.  A text result holds the
selected keys; an axiom's id (``t<n>``, ``t<n>_inv``) and its formula are
built again when read.
A failure is raised as a StageError that names the problem and the stage;
``evaluate`` records it as an error row of the report and goes on.
Resources (graph, embeddings) are loaded once and shared; problems are
processed independently, and the serialized report is byte-deterministic
for identical inputs and configuration.
"""

from __future__ import annotations

import json
import math
import re
import weakref
import xml.etree.ElementTree as ET
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import lru_cache, partial
from importlib import resources
from pathlib import Path
from typing import Sequence

import numpy as np

from . import fol
from .embeddings import EmbeddingTable
from .errors import (CorgError, InvalidField, MissingField, MissingFormula,
                     ParseError, StageError, UnreadableFormula, UnsupportedFragment,
                     XmlError)
from .fol import Atom, Clause, Constant, Formula
from .kg import KnowledgeGraph
from .model import BuilderConfig, PartialModel, extract_symbols, saturate, trace_json
from .scorer import Choice, choose, embed_sequence, likelihoods, score_pair
from .selection import (AxiomIndex, Cosines, Prefilter, SineConfig, TripleColumns,
                        build_index, similarity_sine_select)
from .selection import sine_select  # noqa: F401  benchmarks/tracing.py wraps this name

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
    """Read COPA XML items into problems; gold label is optional per item.

    Raises XmlError for text that is not XML, MissingField for an absent
    id, asks-for, premise or alternative, and InvalidField for an id or
    gold label that is not an integer, a repeated id, an asks-for other
    than cause or effect, and a gold label outside 1..n.
    """
    try:
        root = ET.parse(path).getroot()
    except ET.ParseError as e:
        raise XmlError(f"{path}: {e}") from e
    problems = []
    seen_ids: set[int] = set()
    for item in root.iter("item"):
        item_id = item.get("id")
        if item_id is None:
            raise MissingField("?", "id")
        problem_id = _int_field(item_id, "id", item_id)
        if problem_id in seen_ids:
            raise InvalidField(item_id, "id", item_id, "repeats an earlier item's id")
        seen_ids.add(problem_id)
        asks_for = item.get("asks-for")
        if asks_for is None:
            raise MissingField(item_id, "asks-for")
        if asks_for not in ("cause", "effect"):
            raise InvalidField(item_id, "asks-for", asks_for, "is not cause or effect")
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
        gold_attr = item.get("most-plausible-alternative")
        gold = None
        if gold_attr is not None:
            gold = _int_field(item_id, "most-plausible-alternative", gold_attr)
            if not 1 <= gold <= len(alternatives):
                raise InvalidField(item_id, "most-plausible-alternative", gold_attr,
                                   f"is not between 1 and {len(alternatives)}")
        problems.append(CopaProblem(
            id=problem_id,
            premise=premise.strip(),
            question=asks_for,
            alternatives=alternatives,
            gold=gold,
        ))
    return problems


def _int_field(item_id: str, field: str, value: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise InvalidField(item_id, field, value, "is not an integer") from None


# ------------------------------------------------------------------- text

_WORD = re.compile(r"[a-z]+")


@lru_cache(maxsize=None)
def stopwords() -> frozenset[str]:
    text = resources.files("corg.data").joinpath("stopwords_en.txt").read_text("utf-8")
    return frozenset(w.strip() for w in text.splitlines()
                     if w.strip() and not w.startswith("#"))


def content_words(text: str) -> list[str]:
    """Lowercase non-stopword tokens of a sentence, duplicates dropped."""
    out, seen, stop = [], set(), stopwords()
    for w in _WORD.findall(text.lower()):
        if w not in stop and w not in seen:
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
    ``fol_file`` reads ``<problem_id>_<role>.p`` from fol_dir and clausifies
    its formulas into ground facts: annotated lines when its first tokens,
    comments aside, are ``fof(`` or ``cnf(``, else one bare formula.  The
    file is read as UTF-8 with a leading byte-order mark dropped, so the
    position of a byte that is not UTF-8 counts from after the mark.
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
    try:
        content = path.read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as e:
        raise ParseError(f"{path}: not valid UTF-8", e.start) from e
    except OSError as e:  # a directory, no read permission, an I/O error
        raise UnreadableFormula(f"{path}: {e.strerror or e}") from e
    facts: list[Atom] = []
    for k, formula in enumerate(fol.parse_formulas(content)):
        axiom_id = "q" if k == 0 else f"q{k}"
        for clause in fol.clausify(formula, axiom_id):
            if clause.negatives or len(clause.positives) != 1 \
                    or not fol.is_ground(clause.positives[0]):
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
    prefilter_theta: float = 0.4  # on cosines clipped to [-1, 1]; -1 keeps every triple
    sine: SineConfig = field(default_factory=SineConfig)
    builder: BuilderConfig = field(default_factory=BuilderConfig)

    def __post_init__(self):
        if self.scheme not in ("existential", "factual"):
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.fact_mode not in ("bag_of_words", "fol_file"):
            raise ValueError(f"unknown fact mode {self.fact_mode!r}")
        if self.fact_mode == "fol_file" and self.fol_dir is None:
            raise ValueError("fact_mode fol_file needs fol_dir")
        if not math.isfinite(self.prefilter_theta):
            raise ValueError(f"prefilter_theta must be finite, got {self.prefilter_theta}")


# ----------------------------------------------------------------- results


@dataclass
class TextResult:
    """Everything the pipeline derived for one text of a problem.

    The selected axioms are held by their keys; their ids and formulas are
    built from the keys on each read of ``selected`` and ``formulas``.
    """

    role: str
    facts: list[Atom]
    # axioms indexed for selection; the report keeps the key's old name
    n_translated: int
    keys: list[int]  # the selected axioms' keys, in index order
    model: PartialModel
    symbols: list[str]
    # the pipeline that produced the result, which translates its formulas
    pipeline: Pipeline = field(compare=False, repr=False)

    @property
    def selected(self) -> list[str]:
        return [axiom_id(key) for key in self.keys]

    @property
    def formulas(self) -> list[Formula]:
        return [self.pipeline.formula(key) for key in self.keys]

    def to_json(self) -> dict:
        return {
            "role": self.role,
            "n_facts": len(self.facts),
            "n_translated": self.n_translated,
            "n_selected": len(self.keys),
            "model_atoms": len(self.model),
            "complete": self.model.complete,
        }


@dataclass
class ProblemResult:
    problem: CopaProblem
    texts: list[TextResult]  # premise first, then alternatives in order
    scores: list[float]
    y: list[float]
    choice: Choice

    @property
    def correct(self) -> bool | None:
        if self.problem.gold is None:
            return None
        return self.choice.index == self.problem.gold

    def to_json(self) -> dict:
        return {
            "problem_id": self.problem.id,
            "question": self.problem.question,
            "chosen": self.choice.index,
            "tie": self.choice.tie,
            "scores": self.scores,
            "likelihoods": self.y,
            "gold": self.problem.gold,
            "correct": self.correct,
            "texts": [t.to_json() for t in self.texts],
        }


@dataclass
class ProblemFailure:
    """A problem whose run raised a StageError."""

    problem: CopaProblem
    error: StageError

    def to_json(self) -> dict:
        return {"problem_id": self.problem.id,
                "error": {"stage": self.error.stage, "message": str(self.error.cause)}}


@dataclass
class RunReport:
    """Per-problem results and failures (problem-id order) plus aggregate
    accuracy."""

    results: list[ProblemResult]
    failures: list[ProblemFailure] = field(default_factory=list)

    @property
    def n_labeled(self) -> int:
        """Problems with a gold label, failed ones included."""
        return sum(1 for r in [*self.results, *self.failures]
                   if r.problem.gold is not None)

    @property
    def n_correct(self) -> int:
        return sum(1 for r in self.results if r.correct)

    @property
    def accuracy(self) -> float | None:
        """Fraction correct over labeled problems, a failed one counting as
        wrong; None when nothing is labeled."""
        return self.n_correct / self.n_labeled if self.n_labeled else None

    def aggregate_json(self) -> dict:
        row = {"problems": len(self.results) + len(self.failures),
               "labeled": self.n_labeled, "correct": self.n_correct}
        if self.accuracy is not None:
            row["accuracy"] = self.accuracy
        if self.failures:
            row["failed"] = len(self.failures)
        return row

    def to_jsonl(self) -> str:
        rows = sorted([*self.results, *self.failures], key=lambda r: r.problem.id)
        lines = [json.dumps(r.to_json(), sort_keys=True) for r in rows]
        lines.append(json.dumps(self.aggregate_json(), sort_keys=True))
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------- pipeline


# Translated axioms' clause lists kept across problems by axiom key, the
# least recently used evicted first.  A 100-problem scale-smoke pass
# translates 4,436 distinct live axioms, so it never evicts.
TRANSLATION_CACHE_SIZE = 8192


def axiom_id(key: int) -> str:
    """The id of axiom ``key``: ``t<n>`` for triple n - 1 read forward,
    ``t<n>_inv`` for its inverse reading."""
    tid, inverse = divmod(key, 2)
    return f"t{tid + 1}_inv" if inverse else f"t{tid + 1}"


class Pipeline:
    """Loaded resources plus configuration, reusable across problems."""

    def __init__(self, graph: KnowledgeGraph, table: EmbeddingTable,
                 config: PipelineConfig | None = None):
        self.graph = graph
        self.table = table
        self.config = config or PipelineConfig()
        self.columns = TripleColumns(graph, table, self.config.include_inverse)
        self.prefilter = Prefilter(self.columns)
        # axiom key -> clauses.  The cache holds the pipeline by a weak proxy,
        # so no cycle keeps a dropped pipeline's graph and table alive.
        self._clauses = lru_cache(maxsize=TRANSLATION_CACHE_SIZE)(
            partial(Pipeline._translate, weakref.proxy(self)))

    def formula(self, key: int) -> Formula:
        """The translation of axiom ``key`` (2 * triple id + inverse)."""
        tid, inverse = divmod(key, 2)
        triple = self.graph.triple(tid)
        if inverse:
            return fol.translate_inverse(triple)
        if self.config.scheme == "factual":
            return fol.translate_factual(triple)
        return fol.translate_existential(triple)

    def _translate(self, key: int) -> list[Clause]:
        """Translate and clausify axiom ``key``."""
        return fol.clausify(self.formula(key), axiom_id(key))

    def _live(self, facts: list[Atom], rows: np.ndarray, keys: np.ndarray) -> np.ndarray:
        """Mask of the axioms, given by their symbol-id rows and keys, whose
        body can hold in a model of ``facts``.

        A rule reading's one body atom is unary, over its row's first
        symbol, and it has one unary head, over the last symbol, one term
        level deeper; no other clause has a unary head.  So, taking each
        unary fact at depth 1, the model's unary predicates are among those
        reached from the facts' ones in fewer than ``max_term_depth`` rule
        steps, and an axiom whose body is not reached never fires.  A
        factual forward axiom has no body and is always live.
        """
        reached = self.columns.symbols.mask(f.predicate for f in facts
                                            if len(f.args) == 1)
        bodiless = (keys % 2 == 0) & (self.config.scheme == "factual")
        body, head = rows[:, 0], rows[:, 2]
        for _ in range(self.config.builder.max_term_depth - 1):
            reached[head[reached[body] & ~bodiless]] = True
        return reached[body] | bodiless

    def _run_text(self, problem: CopaProblem, role: str, facts: list[Atom],
                  goals: set[str], rows: np.ndarray, keys: np.ndarray,
                  index: AxiomIndex, cosines: Cosines) -> TextResult:
        cfg = self.config
        with _stage(problem.id, "select"):
            positions = similarity_sine_select(index, goals, cfg.sine, cosines)
        keys = keys[positions]
        live = keys[self._live(facts, rows[positions], keys)]
        clauses: list[Clause] = []
        with _stage(problem.id, "translate"):
            for key in live.tolist():
                clauses.extend(self._clauses(key))
        with _stage(problem.id, "saturate"):
            model = saturate(facts, clauses, cfg.builder)
        syms = extract_symbols(model)
        return TextResult(role, facts, len(index), keys.tolist(), model, syms, self)

    def run_problem(self, problem: CopaProblem) -> ProblemResult:
        """Full pipeline for one problem; see the module docstring."""
        cfg = self.config
        texts = [("premise", problem.premise)] + [
            (f"a{k}", alt) for k, alt in enumerate(problem.alternatives, start=1)]
        with _stage(problem.id, "facts"):
            facts = [text_to_facts(text, cfg.fact_mode, cfg.fol_dir, problem.id, role)
                     for role, text in texts]
        goals = [set().union(*map(fol.symbols, f)) for f in facts]
        words = content_words(" ".join(text for _, text in texts))
        with _stage(problem.id, "prefilter"):
            seeds = sorted(set().union(*goals)) \
                if cfg.sine.similarity_threshold is not None else []
            cosines = Cosines(self.columns.symbols, words + seeds)
            kept = self.prefilter.apply_indices(words, cfg.prefilter_theta, cosines)
        rows, keys = self.columns.axioms(kept)
        index = build_index(rows, self.columns.symbols)
        results = [self._run_text(problem, role, f, g, rows, keys, index, cosines)
                   for (role, _), f, g in zip(texts, facts, goals)]
        with _stage(problem.id, "score"):
            premise, *answers = [embed_sequence(t.symbols, self.table) for t in results]
            scores = [score_pair(premise, answer) for answer in answers]
            y = likelihoods(scores)
            choice = choose(y)
        return ProblemResult(problem, results, scores, y, choice)

    def evaluate(self, problems: Sequence[CopaProblem]) -> RunReport:
        """Run every problem independently, in id order.

        A problem that raises a StageError becomes a failure of the report
        and the run goes on with the next one.
        """
        results: list[ProblemResult] = []
        failures: list[ProblemFailure] = []
        for p in sorted(problems, key=lambda p: p.id):
            try:
                results.append(self.run_problem(p))
            except StageError as e:
                failures.append(ProblemFailure(p, e))
        return RunReport(results, failures)


@contextmanager
def _stage(problem_id: int, stage: str):
    """Re-raise a CorgError from the block as a StageError naming the stage."""
    try:
        yield
    except CorgError as e:
        raise StageError(problem_id, stage, e) from e


# ------------------------------------------------------------ TPTP export


def export_tptp(result: ProblemResult, out_dir) -> list[Path]:
    """Write each text's facts, selected axioms and model as TPTP files, and
    the model's derivation trace as JSON.

    Facts and models come from the stored text results; the selected
    axioms' ids and formulas are built again from their keys.  Returns the
    written paths.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for t in result.texts:
        prefix = f"p{result.problem.id}_{t.role}"
        files = {
            "facts.p": [fol.to_tptp(atom, f"f{i}", "hypothesis")
                        for i, atom in enumerate(t.facts)],
            "axioms.p": [fol.to_tptp(f, aid, "axiom")
                         for aid, f in zip(t.selected, t.formulas)],
            "model.p": [fol.to_tptp(atom, f"m{i}", "axiom")
                        for i, atom in enumerate(t.model.atoms)],
        }
        for suffix, lines in files.items():
            path = out_dir / f"{prefix}_{suffix}"
            path.write_text("".join(line + "\n" for line in lines), "utf-8")
            written.append(path)
        path = out_dir / f"{prefix}_trace.json"
        path.write_text(trace_json(t.model), "utf-8")
        written.append(path)
    return written
