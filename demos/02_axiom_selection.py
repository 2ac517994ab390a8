"""Shrinking an axiom set to what a problem actually needs.

Three devices, demonstrated on small fixtures: occurrence-based triggering
(rarer symbols pull in their axioms first), similarity-widened seeding, and
the pre-translation triple filter.
"""

import numpy as np

from corg import (EmbeddingTable, KnowledgeGraph, Prefilter, SineConfig,
                  Triple, build_index, similarity_sine_select, sine_select,
                  triple_symbols)

graph = KnowledgeGraph.from_tuples([
    ("sun", "Causes", "light"),
    ("shadow", "AtLocation", "light"),
    ("shadow", "AtLocation", "ground"),
    ("grass", "AtLocation", "ground"),
])
# Selection reads only symbol sets, so the triples are indexed directly.
axioms = {f"t{i + 1}": triple_symbols(t) for i, t in enumerate(graph.triples)}
index = build_index(axioms)

print("symbol occurrence counts:")
for sym, n in sorted(index.occ.items()):
    print(f"  {sym}: {n}")

# With tolerance 1 only the strictly least-general symbol of an axiom
# triggers it; widening the tolerance or the depth pulls in more.
for tolerance, depth in [(1.0, 1), (1.5, 3), (100.0, None)]:
    cfg = SineConfig(tolerance=tolerance, max_depth=depth)
    picked = sorted(sine_select(index, {"sun"}, cfg))
    print(f"goals={{sun}} tolerance={tolerance} depth={depth}: {picked}")

# Similarity seeding: 'sunshine' is no goal symbol, but its vector is close
# to 'sun', so axioms about it become reachable too.
table = EmbeddingTable(2, {
    "sun": np.array([1.0, 0.0]),
    "sunshine": np.array([0.9, np.sqrt(1 - 0.81)]),   # cosine 0.9 to sun
    "rain": np.array([0.0, 1.0]),
})
weather = {
    "a1": {"sun", "warm"},
    "a2": {"sunshine", "bright"},
    "a3": {"rain", "wet"},
}
widx = build_index(weather)
plain = sine_select(widx, {"sun"}, SineConfig(tolerance=1, max_depth=1))
widened = similarity_sine_select(
    widx, {"sun"}, SineConfig(tolerance=1, max_depth=1, similarity_threshold=0.8),
    table)
print(f"\nplain selection from 'sun':    {sorted(plain)}")
print(f"similarity-widened (>= 0.8):   {sorted(widened)}")

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
kept = [triples[i] for i in Prefilter(triples, vocab).apply_indices(problem_words, 0.4)]
print(f"\nprefilter at theta=0.4 keeps: "
      f"{[(t.subject, t.relation, t.object) for t in kept]}")
