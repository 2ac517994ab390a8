"""Problem-relevant axiom selection over integer symbol ids.

Three shrinking devices, usable together or alone:

* occurrence-based triggering from goal symbols, iterated to a bounded
  depth (an axiom is triggered by its least statistically general symbols,
  within a tolerance);
* the same, with the goal seed widened to every indexed symbol whose
  embedding is close to a goal symbol;
* a pre-translation triple filter keeping only triples whose object is
  similar to the problem's words.

Selection reads nothing but each axiom's symbols, and a triple's are known
without translating it: subject, predicate and object, with the ``inv_``
predicate in place of the predicate for the inverse reading.  So
``TripleColumns`` copies the graph's id columns, with its concept ids as
symbol ids and the predicates after them, in one ``SymbolTable`` whose
unit-vector matrix serves both the prefilter and similarity seeding.  Per
problem an ``AxiomIndex`` is one int32 matrix of symbol ids, one row per
axiom, with ``np.bincount`` occurrence counts; selection runs on boolean
masks and returns axiom positions, so only the axioms a text selects are
ever named or translated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .embeddings import EmbeddingTable
from .errors import EmptyGoal
from .fol import symbols  # noqa: F401  benchmarks/tracing.py wraps this name
from .fol import INVERSE_PREFIX, relation_predicate
from .kg import KnowledgeGraph


@dataclass
class SineConfig:
    """Knobs for occurrence-based selection.

    ``tolerance`` >= 1 widens triggering beyond the strictly least general
    symbol of an axiom.  ``max_depth=None`` iterates to the fixpoint.
    Symbols occurring in at most ``generality_threshold`` axioms trigger
    every axiom they appear in (0 disables this).  ``similarity_threshold``
    switches on embedding-widened goal seeding when set.
    """

    tolerance: float = 1.5
    max_depth: int | None = 3
    generality_threshold: int = 0
    similarity_threshold: float | None = None

    def __post_init__(self):
        if not self.tolerance >= 1:  # also rejects NaN
            raise ValueError(f"tolerance must be >= 1, got {self.tolerance}")
        if self.max_depth is not None and self.max_depth < 1:
            raise ValueError(f"max_depth must be positive or None, got {self.max_depth}")
        if self.similarity_threshold is not None \
                and not math.isfinite(self.similarity_threshold):
            raise ValueError("similarity_threshold must be finite, "
                             f"got {self.similarity_threshold}")


class SymbolTable:
    """Symbol names interned to int ids, with one unit vector per id.

    Concepts, predicates and ``inv_`` predicates share one namespace, so a
    concept spelled like a predicate is one symbol, as in ``fol.symbols``.
    ``unit`` holds each symbol's ``table.vector``, scaled to unit norm (zero
    when the table knows neither the symbol nor any of its parts); the rows
    of the symbols the table holds are gathered in one step.
    """

    def __init__(self, ids: dict[str, int], table: EmbeddingTable):
        self.ids = ids
        self.table = table
        self.unit = np.zeros((len(ids), table.dimension))
        hit_ids, hit_rows = [], []
        for name, i in ids.items():
            row = table.rows.get(name.lower())
            if row is None:
                self.unit[i] = table.vector(name)
            else:
                hit_ids.append(i)
                hit_rows.append(row)
        self.unit[hit_ids] = table.matrix[hit_rows]
        _normalize_rows(self.unit)

    def __len__(self) -> int:
        return len(self.ids)

    def mask(self, names: Iterable[str]) -> np.ndarray:
        """Boolean mask over symbol ids, set for the names in the table."""
        out = np.zeros(len(self.ids), dtype=bool)
        out[[self.ids[n] for n in names if n in self.ids]] = True
        return out


class TripleColumns:
    """The graph's triples as int32 symbol-id columns over one SymbolTable.

    Triple ``i`` has ids ``subject[i]``, ``predicate[i]`` and ``object[i]``,
    plus ``inverse[i]`` for its ``inv_`` predicate when inverses are on
    (``inverse`` is None otherwise), and ``negated[i]``.  The graph's
    concept ids are its concepts' symbol ids, and predicates and ``inv_``
    predicates not spelled like a concept come after them.  The columns
    are copies: a later ``graph.add`` changes nothing here.
    """

    def __init__(self, graph: KnowledgeGraph, table: EmbeddingTable,
                 inverse: bool = False):
        ids = dict(graph.concepts)
        names = [relation_predicate(r) for r in graph.relations]
        relation = np.array(graph.relation, dtype=np.intp)
        self.subject = np.array(graph.subject, dtype=np.int32)
        self.object = np.array(graph.object, dtype=np.int32)
        self.predicate = _intern(ids, names)[relation]
        self.inverse = _intern(ids, [INVERSE_PREFIX + p for p in names])[relation] \
            if inverse else None
        self.negated = np.array(graph.negated, dtype=bool)
        self.symbols = SymbolTable(ids, table)

    def axiom_rows(self, tids: np.ndarray) -> np.ndarray:
        """Symbol-id rows of the axioms of triples ``tids``, in axiom order.

        Each triple gives its forward row (subject, predicate, object) and,
        when inverses are on, then its inverse row (object, ``inv_``
        predicate, subject).
        """
        forward = np.stack([self.subject[tids], self.predicate[tids],
                            self.object[tids]], axis=1)
        if self.inverse is None:
            return forward
        backward = np.stack([self.object[tids], self.inverse[tids],
                             self.subject[tids]], axis=1)
        return np.stack([forward, backward], axis=1).reshape(-1, 3)


def _intern(ids: dict[str, int], names: list[str]) -> np.ndarray:
    return np.array([ids.setdefault(n, len(ids)) for n in names], dtype=np.int32)


@dataclass(frozen=True)
class AxiomIndex:
    """Symbol-id rows of one axiom set with their occurrence counts.

    ``rows[a]`` holds axiom ``a``'s symbol ids, -1 where a symbol repeats
    within the row; ``occ[s]`` is the number of axioms symbol ``s`` occurs
    in and ``min_occ[a]`` the least ``occ`` over axiom ``a``'s symbols.
    """

    rows: np.ndarray
    occ: np.ndarray
    min_occ: np.ndarray
    symbols: SymbolTable

    def __len__(self) -> int:
        return len(self.rows)

    @cached_property
    def indexed(self) -> np.ndarray:
        """Ids of the symbols that occur in some axiom, ascending."""
        return np.flatnonzero(self.occ)

    @cached_property
    def indexed_unit(self) -> np.ndarray:
        """The unit rows of ``indexed``, gathered on first use."""
        return self.symbols.unit[self.indexed]


_NO_OCC = np.iinfo(np.int64).max  # min_occ of an axiom without symbols


def build_index(rows: np.ndarray, symbol_table: SymbolTable) -> AxiomIndex:
    """Index axioms given as an (n_axioms, width) matrix of symbol ids.

    Entries of -1 stand for no symbol.  Each axiom counts once per symbol:
    a symbol repeated within a row is masked to -1.
    """
    rows = np.array(rows, dtype=np.int32)
    for j in range(1, rows.shape[1]):
        rows[(rows[:, :j] == rows[:, j:j + 1]).any(axis=1), j] = -1
    valid = rows >= 0
    occ = np.bincount(rows[valid], minlength=len(symbol_table))
    min_occ = np.where(valid, occ[rows], _NO_OCC).min(axis=1, initial=_NO_OCC)
    return AxiomIndex(rows, occ, min_occ, symbol_table)


def _closure(idx: AxiomIndex, seed: np.ndarray, cfg: SineConfig) -> np.ndarray:
    rows = idx.rows
    valid = rows >= 0
    occ = idx.occ[rows]
    triggers = occ <= float(cfg.tolerance) * idx.min_occ[:, None]
    if cfg.generality_threshold > 0:
        triggers |= occ <= cfg.generality_threshold
    triggers &= valid
    selected = np.zeros(len(rows), dtype=bool)
    reached = seed
    frontier = seed
    depth = 0
    while frontier.any() and (cfg.max_depth is None or depth < cfg.max_depth):
        newly = (frontier[rows] & triggers).any(axis=1) & ~selected
        selected |= newly
        grown = rows[newly]
        frontier = np.zeros_like(reached)
        frontier[grown[grown >= 0]] = True
        frontier &= ~reached
        reached = reached | frontier
        depth += 1
    return np.flatnonzero(selected)


def sine_select(idx: AxiomIndex, goal_symbols: Iterable[str],
                cfg: SineConfig | None = None) -> np.ndarray:
    """Positions of the axioms reachable from the goal symbols, ascending.

    A symbol s triggers axiom A iff s occurs in A and
    occ(s) <= tolerance * min occ over A's symbols (or s is rarer than the
    generality threshold).  Symbols of selected axioms become reached;
    iteration stops at max_depth or at the fixpoint.
    """
    goals = set(goal_symbols)
    if not goals:
        raise EmptyGoal("selection needs at least one goal symbol")
    return _closure(idx, idx.symbols.mask(goals), cfg or SineConfig())


def similarity_sine_select(idx: AxiomIndex, goal_symbols: Iterable[str],
                           cfg: SineConfig) -> np.ndarray:
    """sine_select with the seed widened by embedding similarity.

    Every indexed symbol whose cosine to some goal symbol reaches
    ``cfg.similarity_threshold`` joins the seed before triggering starts.
    The indexed symbols' unit rows are gathered once per index, by the
    first call that needs them.
    """
    goals = set(goal_symbols)
    if not goals:
        raise EmptyGoal("selection needs at least one goal symbol")
    syms = idx.symbols
    seed = syms.mask(goals)
    candidates = idx.indexed
    if cfg.similarity_threshold is not None and candidates.size:
        goal_mat = _unit_rows(np.stack([syms.table.vector(g) for g in sorted(goals)]))
        best = (idx.indexed_unit @ goal_mat.T).max(axis=1)
        seed[candidates[best >= cfg.similarity_threshold]] = True
    return _closure(idx, seed, cfg)


def _normalize_rows(mat: np.ndarray):
    norms = np.linalg.norm(mat, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    mat /= norms


def _unit_rows(mat: np.ndarray) -> np.ndarray:
    """A freshly stacked matrix with its rows scaled to unit norm in place
    (zero rows stay zero)."""
    mat = np.asarray(mat, dtype=np.float64)
    _normalize_rows(mat)
    return mat


class Prefilter:
    """Reusable triple filter: keep triples whose object is near problem words.

    A triple's object vector is its object's row of the shared unit-vector
    matrix, so each problem costs one product of that matrix with the
    problem's word vectors.
    """

    def __init__(self, columns: TripleColumns):
        self.columns = columns

    def apply_indices(self, problem_words: Sequence[str], theta: float) -> np.ndarray:
        """Ids (ascending) of the triples that pass at threshold theta."""
        if not problem_words:
            raise EmptyGoal("prefilter needs at least one problem word")
        cols = self.columns
        words = _unit_rows(np.stack([cols.symbols.table.vector(w) for w in problem_words]))
        best = (cols.symbols.unit @ words.T).max(axis=1)
        return np.flatnonzero(best[cols.object] >= theta)
