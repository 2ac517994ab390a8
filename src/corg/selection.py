"""Problem-relevant axiom selection.

Three shrinking devices, usable together or alone:

* occurrence-based triggering from goal symbols, iterated to a bounded
  depth (an axiom is triggered by its least statistically general symbols,
  within a tolerance);
* the same, with the goal seed widened to every indexed symbol whose
  embedding is close to a goal symbol;
* a pre-translation triple filter keeping only triples whose object is
  similar to the problem's words.

Selection reads nothing but each axiom's symbol set, so the pipeline
indexes triples by ``fol.triple_symbols`` and translates only what a text
selects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from .embeddings import EmbeddingTable, OovPolicy
from .errors import EmptyGoal
from .fol import symbols  # noqa: F401  benchmarks/tracing.py wraps this name
from .kg import Triple


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


@dataclass
class AxiomIndex:
    """Occurrence counts and symbol-to-axiom buckets over one axiom set."""

    occ: dict[str, int] = field(default_factory=dict)
    by_symbol: dict[str, list[str]] = field(default_factory=dict)
    axiom_symbols: dict[str, frozenset[str]] = field(default_factory=dict)
    min_occ: dict[str, int] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.axiom_symbols)


def build_index(axioms: Mapping[str, Iterable[str]]) -> AxiomIndex:
    """Index axioms given as id -> symbol set; each axiom counts once per symbol."""
    idx = AxiomIndex()
    for aid, syms in axioms.items():
        syms = frozenset(syms)
        idx.axiom_symbols[aid] = syms
        for s in syms:
            idx.occ[s] = idx.occ.get(s, 0) + 1
            idx.by_symbol.setdefault(s, []).append(aid)
    for aid, syms in idx.axiom_symbols.items():
        idx.min_occ[aid] = min((idx.occ[s] for s in syms), default=0)
    return idx


def _triggers(idx: AxiomIndex, sym: str, aid: str, cfg: SineConfig) -> bool:
    occ = idx.occ[sym]
    if 0 < cfg.generality_threshold and occ <= cfg.generality_threshold:
        return True
    return occ <= cfg.tolerance * idx.min_occ[aid]


def _closure(idx: AxiomIndex, seed: Iterable[str], cfg: SineConfig) -> set[str]:
    reached = set(seed)
    frontier = set(reached)
    selected: set[str] = set()
    depth = 0
    while frontier and (cfg.max_depth is None or depth < cfg.max_depth):
        newly: set[str] = set()
        for s in frontier:
            for aid in idx.by_symbol.get(s, ()):
                if aid in selected:
                    continue
                if _triggers(idx, s, aid, cfg):
                    selected.add(aid)
                    newly |= idx.axiom_symbols[aid]
        frontier = newly - reached
        reached |= newly
        depth += 1
    return selected


def sine_select(idx: AxiomIndex, goal_symbols: Iterable[str],
                cfg: SineConfig | None = None) -> set[str]:
    """Axiom ids reachable from the goal symbols under tolerance triggering.

    A symbol s triggers axiom A iff s occurs in A and
    occ(s) <= tolerance * min occ over A's symbols (or s is rarer than the
    generality threshold).  Symbols of selected axioms become reached;
    iteration stops at max_depth or at the fixpoint.
    """
    goals = set(goal_symbols)
    if not goals:
        raise EmptyGoal("selection needs at least one goal symbol")
    return _closure(idx, goals, cfg or SineConfig())


def similarity_sine_select(idx: AxiomIndex, goal_symbols: Iterable[str],
                           cfg: SineConfig, table: EmbeddingTable,
                           policy: OovPolicy | None = None) -> set[str]:
    """sine_select with the seed widened by embedding similarity.

    Every indexed symbol whose cosine to some goal symbol reaches
    ``cfg.similarity_threshold`` joins the seed before triggering starts.
    """
    goals = set(goal_symbols)
    if not goals:
        raise EmptyGoal("selection needs at least one goal symbol")
    seed = set(goals)
    if cfg.similarity_threshold is not None and idx.occ:
        policy = policy or OovPolicy()
        goal_mat = _unit_rows(np.stack([table.vector(g, policy) for g in sorted(goals)]))
        candidates = list(idx.occ)
        cand_mat = _unit_rows(np.stack([table.vector(s, policy) for s in candidates]))
        best = (cand_mat @ goal_mat.T).max(axis=1)
        for sym, sim in zip(candidates, best):
            if sim >= cfg.similarity_threshold:
                seed.add(sym)
    return _closure(idx, seed, cfg)


def _unit_rows(mat: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(mat, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    return mat / norms


class Prefilter:
    """Reusable triple filter: keep triples whose object is near problem words.

    Each triple has one row, its object's, in a matrix of unit object
    vectors.  Building that matrix is the expensive part, so one Prefilter
    is meant to be built per loaded graph and applied once per problem.
    """

    def __init__(self, triples: Sequence[Triple], table: EmbeddingTable,
                 policy: OovPolicy | None = None):
        self.table = table
        self.policy = policy or OovPolicy()
        rows: dict[str, int] = {}
        self._object_rows = np.array(
            [rows.setdefault(t.object, len(rows)) for t in triples], dtype=np.intp)
        if rows:
            mat = np.stack([table.vector(tok, self.policy) for tok in rows])
            self._object_mat = _unit_rows(mat)
        else:
            self._object_mat = np.zeros((0, table.dimension))

    def apply_indices(self, problem_words: Sequence[str], theta: float) -> list[int]:
        """Indices (into the triple list) of triples that pass at threshold theta."""
        if not problem_words:
            raise EmptyGoal("prefilter needs at least one problem word")
        words = np.stack([self.table.vector(w, self.policy) for w in problem_words])
        best = (self._object_mat @ _unit_rows(words).T).max(axis=1)
        return np.flatnonzero(best[self._object_rows] >= theta).tolist()
