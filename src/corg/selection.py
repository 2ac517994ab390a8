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
symbol ids and the predicates after them, in one ``SymbolTable`` that
holds each symbol's unit row once, in float32.  Every vector, a symbol's
or a problem word's, is a row of ``EmbeddingTable.vectors``.  Per problem
one float32 ``Cosines`` product of the symbols' unit rows with the
problem's vocabulary serves both the prefilter and similarity seeding,
and one gate decides each of its entries: a symbol is near a word when
``clip(s, -1, 1) >= theta``, s the ``math.fsum`` of the elementwise
products of the two float64 unit rows.  The product's entry decides alone
when it is farther than 2 (d + 2) 2^-24 from theta, compared in float64
(the bound is derived in ``Cosines``), and an entry within it is summed
again from the float64 rows, the symbol's built again from the table, so
no decision depends on the product's precision or shape, the order of its
words or the BLAS kernel.  Per problem an ``AxiomIndex`` is one int32
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


_BLOCK_ROWS = 1024  # symbols whose float64 rows SymbolTable holds at once


class SymbolTable:
    """Symbol names interned to int ids, with one unit vector per id.

    Concepts, predicates and ``inv_`` predicates share one namespace, so a
    concept spelled like a predicate is one symbol, as in ``fol.symbols``.
    ``names[i]`` is symbol i's name.  Symbol i's unit row is
    ``_unit_rows(table.vectors([names[i]]))[0]``, its row of
    ``table.vectors`` scaled to unit norm in float64 (zero when the table
    knows neither the symbol nor any of its parts); ``exact(i)`` builds it
    again.  ``unit[i]`` is that row rounded to float32, the one copy held:
    ``unit`` is filled ``_BLOCK_ROWS`` symbols at a time, so no float64
    matrix of every symbol's row is ever made.
    """

    def __init__(self, ids: dict[str, int], table: EmbeddingTable):
        self.ids = ids
        self.table = table
        self.names = sorted(ids, key=ids.__getitem__)
        self.unit = np.empty((len(self.names), table.dimension), dtype=np.float32)
        for start in range(0, len(self.names), _BLOCK_ROWS):
            block = self.names[start:start + _BLOCK_ROWS]
            self.unit[start:start + len(block)] = _unit_rows(table.vectors(block))

    def exact(self, i: int) -> np.ndarray:
        """Symbol i's float64 unit row, the one the gate's rule reads."""
        return _unit_rows(self.table.vectors([self.names[i]]))[0]

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
    ``symbols.ids`` is a copy of ``graph.concepts`` too, with the
    predicates interned after the concepts: shared, the predicates would
    become graph concepts, and a later concept could take a predicate's id.
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

    ``matrix[position[w], s]`` is ``clip(unit[w] . symbols.unit[s], -1, 1)``
    in float32, from one product of the vocabulary's unit rows, rounded to
    float32, with the symbols' float32 ones, made on the first read.  Per
    problem the pipeline makes one, over the problem's words and, with
    similarity seeding on, every text's goal symbols: the prefilter reads
    the entries of the words with the objects, and seeding those of a
    text's goal symbols with the indexed symbols.

    The gate.  Symbol s is near word w at threshold theta when
    ``clip(fsum(x * y), -1, 1) >= theta``: x and y are the two float64 unit
    rows, ``symbols.exact(s)`` and ``unit[position[w]]``, and ``fsum(x *
    y)`` is ``math.fsum`` of their elementwise products, the correctly
    rounded sum of the rounded products, which no summation order, word
    order or BLAS kernel changes.  An entry g of the product decides alone
    when |g - theta| > B = 2 (d + 2) 2^-24, d the table's dimension; an
    entry within B of theta is summed again with ``fsum``, from x rebuilt
    and y.  g is compared with theta in float64, where g is exact.
    Compared in float32, as NEP 50 compares a Python float with a float32
    array, theta would itself be rounded, and a finite theta beyond
    float32's range would overflow with a warning.

    Why B bounds |g - clip(fsum(x * y))| (Higham, *Accuracy and Stability
    of Numerical Algorithms*, 2nd ed., sections 2.1 and 3.1; u = 2^-53 and
    e = 2^-24 the unit roundoffs of float64 and float32, gamma_d = d e / (1
    - d e), A = sum_k |x_k y_k| <= |x| |y|):

    * a float64 unit row is a row divided by its computed norm, whose
      relative error is at most d u / 2 + u + O(u^2), and each division
      rounds once, so |x| <= 1 + (d / 2 + 2) u + O(u^2) and A <= 1 + (d +
      4) u + O(u^2) (A = 0 for a zero row);
    * each rounded product is within u |x_k y_k| of the exact one, and
      ``fsum`` rounds their sum once, so ``fsum(x * y)`` is within (2 u +
      u^2) A of the exact dot product x . y;
    * rounding x and y to float32 moves each component by at most e times
      itself, or by at most 2^-150 where it falls in float32's subnormal
      range, so with x' and y' the float32 rows, |x' . y' - x . y| <= (2 e
      + e^2) A + d 2^-149 (1 + e) and A' = sum_k |x'_k y'_k| <= (1 + e)^2 A
      + d 2^-149 (1 + e);
    * a d-term float32 dot product summed in any order, with or without
      fused multiply-adds, is within gamma_d A' of x' . y', plus at most
      2^-150 (1 + gamma_d) for each product that underflows (a sum that
      underflows is exact);
    * so, while d e <= 1/16 (d up to 2^20; d e must be far below 1 for
      gamma_d to bound the sum at all), the float32 entry and the fsum
      differ by at most 1.07 d e + 2.01 e + d 2^-148 + 2^-51 < B, clipping
      to [-1, 1] does not widen the gap, and B keeps a margin of about d e
      for the float64 rounding of g - theta.

    So when |g - theta| > B, g and the exact rule fall on the same side of
    theta.
    """

    def __init__(self, symbols: SymbolTable, vocabulary: Iterable[str]):
        self.symbols = symbols
        self.position = {w: k for k, w in enumerate(dict.fromkeys(vocabulary))}

    @cached_property
    def unit(self) -> np.ndarray:
        """The vocabulary's float64 unit rows, word w's at ``position[w]``."""
        return _unit_rows(self.symbols.table.vectors(list(self.position)))

    @cached_property
    def matrix(self) -> np.ndarray:
        """The (vocabulary, symbols) clipped cosines, from one float32 product."""
        out = self.unit.astype(np.float32) @ self.symbols.unit.T
        return np.clip(out, -1.0, 1.0, out=out)

    def near(self, words: Sequence[str], theta: float, rows: np.ndarray) -> np.ndarray:
        """Mask over the symbol ids ``rows``: set where some word of the
        vocabulary is near the symbol by the gate.

        A row whose best entry is farther than B from theta is decided by
        it; in any other row, only the entries within B can pass."""
        picked = [self.position[w] for w in words]
        cos = self.matrix[np.ix_(picked, rows)]
        # the best of float32 entries is exact; float64 from here on
        best = cos.max(axis=0, initial=-np.inf).astype(np.float64)
        passed = best >= theta
        bound = 2 * (self.unit.shape[1] + 2) * 2.0 ** -24
        for i in np.flatnonzero(np.abs(best - theta) <= bound).tolist():
            exact = self.symbols.exact(rows[i])
            passed[i] = any(max(-1.0, min(1.0, math.fsum(exact * self.unit[j]))) >= theta
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
