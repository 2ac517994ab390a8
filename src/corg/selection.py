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
symbol ids and the predicates after them, in one ``SymbolTable`` of unit
rows.  Every vector, a symbol's or a problem word's, is a row of
``EmbeddingTable.vectors``.  Per problem one ``Cosines`` product of the
symbols' unit rows with the problem's vocabulary serves both the
prefilter and similarity seeding, and one gate decides each of its
entries: a symbol is near a word when ``clip(s, -1, 1) >= theta``, s the
``math.fsum`` of the two unit rows' elementwise products.  The product's
entry decides alone when it is farther than 2 (d + 2) 2^-53 from theta
(the bound is derived in ``Cosines``), and an entry within it is summed
again, so no decision depends on the product's shape, the order of its words
or the BLAS kernel.  Per problem an ``AxiomIndex`` is one int32
matrix of symbol ids, one row per axiom, with ``np.bincount`` occurrence
counts; selection runs on boolean masks and returns axiom positions, so
only the axioms a text selects are ever named, and only the live ones
among them (``Pipeline._live``) translated.  Empty input is no error:
no goal symbol selects no axiom, and no problem word keeps no triple.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .embeddings import EmbeddingTable
from .fol import symbols  # noqa: F401  benchmarks/tracing.py wraps this name
from .fol import INVERSE_PREFIX, relation_predicate
from .kg import KnowledgeGraph


@dataclass
class SineConfig:
    """Knobs for occurrence-based selection.

    ``tolerance`` >= 1 widens triggering beyond the strictly least general
    symbol of an axiom.  ``max_depth=None`` iterates to the fixpoint.
    ``similarity_threshold`` switches on embedding-widened goal seeding
    when set.
    """

    tolerance: float = 1.5
    max_depth: int | None = 3
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
    ``unit[i]`` is symbol i's row of ``table.vectors``, scaled to unit norm
    (zero when the table knows neither the symbol nor any of its parts).
    """

    def __init__(self, ids: dict[str, int], table: EmbeddingTable):
        self.ids = ids
        self.table = table
        self.unit = _unit_rows(table.vectors(sorted(ids, key=ids.__getitem__)))

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
    (``inverse`` is None otherwise).  Every triple has its axioms, as the
    loader leaves out the negated edges, which have none.  The graph's
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
        self.symbols = SymbolTable(ids, table)

    def axioms(self, tids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Symbol-id rows and keys of the axioms of triples ``tids``.

        Each triple gives its forward axiom (subject, predicate, object)
        and, when inverses are on, then its inverse one (object, ``inv_``
        predicate, subject).  ``keys[a]`` is the key ``2 * triple id +
        inverse`` of the axiom whose symbol ids are ``rows[a]``.
        """
        rows = np.stack([self.subject[tids], self.predicate[tids],
                         self.object[tids]], axis=1)
        keys = 2 * np.asarray(tids, dtype=np.int64)
        if self.inverse is None:
            return rows, keys
        backward = np.stack([self.object[tids], self.inverse[tids],
                             self.subject[tids]], axis=1)
        return (np.stack([rows, backward], axis=1).reshape(-1, 3),
                np.stack([keys, keys + 1], axis=1).reshape(-1))


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
    occ = idx.occ[rows]
    triggers = (occ <= float(cfg.tolerance) * idx.min_occ[:, None]) & (rows >= 0)
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
    occ(s) <= tolerance * min occ over A's symbols.  Symbols of selected
    axioms become reached; iteration stops at max_depth or at the fixpoint.
    No goal symbol selects no axiom.

    Inverse axioms double a concept's occurrence count (it occurs in the
    forward and the inverse axiom of each of its triples) but not a
    relation's (the inverse axioms use ``inv_r``).  So a concept can stop
    triggering an axiom, and selection with inverses is not a superset of
    selection without them: COPA problem 1 on the figure graph becomes a
    tie.
    """
    return _closure(idx, idx.symbols.mask(goal_symbols), cfg or SineConfig())


def similarity_sine_select(idx: AxiomIndex, goal_symbols: Iterable[str],
                           cfg: SineConfig, cosines: Cosines | None = None) -> np.ndarray:
    """sine_select, with the seed widened by embedding similarity only when
    ``cfg.similarity_threshold`` is set: every indexed symbol whose clipped
    cosine to some goal symbol passes the gate of ``Cosines`` at it joins
    the seed first.  The cosines are read from ``cosines``, a product whose
    vocabulary holds the goal symbols, else from a product of the goals'
    own.  No goal symbol selects no axiom.
    """
    goals = sorted(set(goal_symbols))
    seed = idx.symbols.mask(goals)
    if goals and cfg.similarity_threshold is not None and idx.indexed.size:
        if cosines is None:
            cosines = Cosines(idx.symbols, goals)
        seed[idx.indexed[cosines.near(goals, cfg.similarity_threshold, idx.indexed)]] = True
    return _closure(idx, seed, cfg)


def _unit_rows(mat: np.ndarray) -> np.ndarray:
    """``mat`` with its rows scaled to unit norm in place (zero rows stay
    zero)."""
    norms = np.linalg.norm(mat, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    mat /= norms
    return mat


class Cosines:
    """Every symbol's clipped cosine with each word of a vocabulary.

    ``matrix[position[w], s]`` is ``clip(unit[w] . symbols.unit[s], -1, 1)``,
    from one product of the vocabulary's unit rows with the symbols', made
    on the first read.  Per problem the pipeline makes one, over the
    problem's words and, with similarity seeding on, every text's goal
    symbols: the prefilter reads the entries of the words with the
    objects, and seeding those of a text's goal symbols with the indexed
    symbols.

    The gate.  Symbol s is near word w at threshold theta when
    ``clip(fsum(u * v), -1, 1) >= theta``: u and v are the two unit rows as
    stored, and ``fsum(u * v)`` is ``math.fsum`` of their elementwise
    products, the correctly rounded sum of the rounded products, which no
    summation order, word order or BLAS kernel changes.  An entry g of
    the product decides alone when |g - theta| > B = 2 (d + 2) 2^-53, d
    the table's dimension; an entry within B of theta is summed again with
    ``fsum``.

    Why B bounds |g - clip(fsum(u * v))| (Higham, *Accuracy and Stability
    of Numerical Algorithms*, 2nd ed., section 3.1; u = 2^-53, gamma_d =
    d u / (1 - d u), A = sum_k |u_k v_k| <= |u| |v|):

    * a d-term dot product summed in any order, with or without fused
      multiply-adds, is within gamma_d A of the exact one;
    * each rounded product is within u |u_k v_k| of the exact one, and
      ``fsum`` rounds their sum once, so ``fsum(u * v)`` is within
      (2 u + u^2) A of the exact dot product;
    * a unit row is a row divided by its computed norm, whose relative
      error is at most gamma_d / 2 + u, and each division rounds once, so
      |u| <= 1 + (d / 2 + 2) u + O(u^2) and A <= 1 + (d + 4) u + O(u^2)
      (A = 0 for a zero row);
    * so the two sums differ by at most (d + 2) u (1 + (d + 4) u) / (1 -
      d u), which is below B for any d below 2^50, and clipping to [-1, 1]
      does not widen the gap.

    Products that underflow add at most d 2^-1074 in all, far below B.  So
    when |g - theta| > B, g and the exact rule fall on the same side of
    theta.
    """

    def __init__(self, symbols: SymbolTable, vocabulary: Iterable[str]):
        self.symbols = symbols
        self.position = {w: k for k, w in enumerate(dict.fromkeys(vocabulary))}

    @cached_property
    def unit(self) -> np.ndarray:
        """The vocabulary's unit rows, word w's at ``position[w]``."""
        return _unit_rows(self.symbols.table.vectors(list(self.position)))

    @cached_property
    def matrix(self) -> np.ndarray:
        """The (vocabulary, symbols) clipped cosines, from one product."""
        out = self.unit @ self.symbols.unit.T
        return np.clip(out, -1.0, 1.0, out=out)

    def near(self, words: Sequence[str], theta: float, rows: np.ndarray) -> np.ndarray:
        """Mask over the symbol ids ``rows``: set where some word of the
        vocabulary is near the symbol by the gate.

        A row whose best entry is farther than B from theta is decided by
        it; in any other row, only the entries within B can pass."""
        picked = [self.position[w] for w in words]
        cos = self.matrix[np.ix_(picked, rows)]
        best = cos.max(axis=0, initial=-np.inf)
        passed = best >= theta
        bound = 2 * (self.unit.shape[1] + 2) * 2.0 ** -53
        for i in np.flatnonzero(np.abs(best - theta) <= bound).tolist():
            unit = self.symbols.unit[rows[i]]
            passed[i] = any(max(-1.0, min(1.0, math.fsum(unit * self.unit[j]))) >= theta
                            for j, g in zip(picked, cos[:, i].tolist())
                            if abs(g - theta) <= bound)
        return passed


class Prefilter:
    """Reusable triple filter: keep triples whose object is near problem words.

    The triple ids are grouped by object once: ``objects`` are the symbols
    that are some triple's object, ascending, and ``by_object[start[s]:
    start[s + 1]]`` the ids of the triples whose object is symbol s.  So a
    problem reads the cosines of the objects only, and visits only the
    triples of the objects that pass.
    """

    def __init__(self, columns: TripleColumns):
        self.columns = columns
        self.by_object = np.argsort(columns.object)
        counts = np.bincount(columns.object, minlength=len(columns.symbols))
        self.start = np.concatenate([[0], np.cumsum(counts)])
        self.objects = np.flatnonzero(counts)

    def apply_indices(self, problem_words: Sequence[str], theta: float,
                      cosines: Cosines | None = None) -> np.ndarray:
        """Ids (ascending) of the triples whose object is near some word by
        the gate of ``Cosines``, read from ``cosines``, a product whose
        vocabulary holds the words, else from a product of the words' own;
        no word keeps no triple."""
        if not problem_words:
            return np.empty(0, dtype=np.intp)
        if cosines is None:
            cosines = Cosines(self.columns.symbols, problem_words)
        objects = self.objects[cosines.near(problem_words, theta, self.objects)]
        start, end = self.start[objects], self.start[objects + 1]
        size = end - start
        at = np.repeat(end - np.cumsum(size), size) + np.arange(size.sum())
        return np.sort(self.by_object[at])
