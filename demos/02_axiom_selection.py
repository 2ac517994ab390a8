"""Shrinking an axiom set to what a problem actually needs.

Three devices, demonstrated on small fixtures: occurrence-based triggering
(rarer symbols pull in their axioms first), similarity-widened seeding, and
the pre-translation triple filter.
"""

import numpy as np

from corg import (EmbeddingTable, KnowledgeGraph, Prefilter, SineConfig,
                  SymbolTable, Triple, TripleColumns, build_index,
                  similarity_sine_select, sine_select)

graph = KnowledgeGraph.from_tuples([
    ("sun", "Causes", "light"),
    ("shadow", "AtLocation", "light"),
    ("shadow", "AtLocation", "ground"),
    ("grass", "AtLocation", "ground"),
])
# Selection reads only symbols, so the graph's id columns are indexed
# directly: each axiom is one row of symbol ids (subject, predicate, object),
# and a concept's symbol id is its id in the graph.
columns = TripleColumns(graph, EmbeddingTable(2, {}))
rows, _ = columns.axioms(np.arange(len(graph)))  # symbol ids and axiom keys
index = build_index(rows, columns.symbols)
axiom_ids = [f"t{i + 1}" for i in range(len(graph))]

print("symbol occurrence counts:")
for sym, i in sorted(columns.symbols.ids.items()):
    print(f"  {sym}: {index.occ[i]}")

# With tolerance 1 only the strictly least-general symbol of an axiom
# triggers it; widening the tolerance or the depth pulls in more.
for tolerance, depth in [(1.0, 1), (1.5, 3), (100.0, None)]:
    cfg = SineConfig(tolerance=tolerance, max_depth=depth)
    picked = [axiom_ids[p] for p in sine_select(index, {"sun"}, cfg)]
    print(f"goals={{sun}} tolerance={tolerance} depth={depth}: {picked}")

# Similarity seeding: 'sunshine' is no goal symbol, but its vector is close
# to 'sun', so axioms about it become reachable too.
table = EmbeddingTable(2, {
    "sun": np.array([1.0, 0.0]),
    "sunshine": np.array([0.9, np.sqrt(1 - 0.81)]),   # cosine 0.9 to sun
    "rain": np.array([0.0, 1.0]),
})
weather = {
    "a1": ("sun", "warm"),
    "a2": ("sunshine", "bright"),
    "a3": ("rain", "wet"),
}
names: dict[str, int] = {}
rows = [[names.setdefault(s, len(names)) for s in syms] for syms in weather.values()]
widx = build_index(np.array(rows, dtype=np.int32), SymbolTable(names, table))
plain = sine_select(widx, {"sun"}, SineConfig(tolerance=1, max_depth=1))
widened = similarity_sine_select(
    widx, {"sun"}, SineConfig(tolerance=1, max_depth=1, similarity_threshold=0.8))
print(f"\nplain selection from 'sun':    {[list(weather)[p] for p in plain]}")
print(f"similarity-widened (>= 0.8):   {[list(weather)[p] for p in widened]}")

# Triple prefilter: keep only edges whose object is near the problem words.
# 'star' points away from everything in the problem, so (sun, is_a, star)
# is dropped while (sun, causes, light) survives.
vocab = EmbeddingTable(2, {
    "sun": np.array([1.0, 0.0]),
    "shadow": np.array([1.0, 0.0]),
    "light": np.array([0.9, np.sqrt(1 - 0.81)]),
    "star": np.array([-1.0, 0.0]),
})
triples = [Triple("sun", "is_a", "star"), Triple("sun", "causes", "light")]
problem_words = ["shadow", "grass", "sun", "rising", "cut"]
prefilter = Prefilter(TripleColumns(KnowledgeGraph(triples), vocab))
kept = [triples[i] for i in prefilter.apply_indices(problem_words, 0.4)]
print(f"\nprefilter at theta=0.4 keeps: "
      f"{[(t.subject, t.relation, t.object) for t in kept]}")
