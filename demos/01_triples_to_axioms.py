"""From knowledge-graph edges to first-order axioms.

Builds the little sun/light/shadow/ground/grass graph and shows the three
translation schemes side by side: ground facts, existential rules, and the
inverse rules that let chaining follow edges backwards.
"""

from corg import (KnowledgeGraph, to_tptp, translate_existential,
                  translate_factual, translate_inverse, triple_symbols)

graph = KnowledgeGraph.from_tuples([
    ("sun", "Causes", "light"),
    ("shadow", "AtLocation", "light"),
    ("shadow", "AtLocation", "ground"),
    ("grass", "AtLocation", "ground"),
])

print(f"{len(graph)} edges loaded")
print("outgoing from 'shadow':")
for t in graph.triples:
    if t.subject == "shadow":
        print(f"  ({t.subject}, {t.relation}, {t.object})")

# Scheme 1: a triple is just a ground fact about two constants.
print("\nfactual scheme:")
for i, t in enumerate(graph.triples):
    print(" ", to_tptp(translate_factual(t), f"f{i + 1}"))

# Scheme 2: a triple is a rule. Anything that is a sun causes some light.
# This is what makes forward chaining from a single fact productive.
print("\nexistential scheme:")
for i, t in enumerate(graph.triples):
    print(" ", to_tptp(translate_existential(t), f"t{i + 1}"))

# Scheme 3: the same edge read object-to-subject, under an inv_* predicate.
# Without these, a chain can only walk edges in their stored direction.
print("\ninverse rules:")
for i, t in enumerate(graph.triples):
    print(" ", to_tptp(translate_inverse(t), f"t{i + 1}_inv"))

# Selection needs only each axiom's symbols, and every scheme uses the same
# three names, so the pipeline reads them off the triple and translates
# nothing it does not select.
print("\nsymbols, read off the triples:")
for i, t in enumerate(graph.triples):
    print(f"  t{i + 1}: {sorted(triple_symbols(t))}"
          f"  t{i + 1}_inv: {sorted(triple_symbols(t, inverse=True))}")
