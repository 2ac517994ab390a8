"""From knowledge-graph edges to first-order axioms.

Builds the little sun/light/shadow/ground/grass graph and shows the three
translation schemes side by side: ground facts, existential rules, and the
inverse rules that let chaining follow edges backwards.
"""

from corg import (KnowledgeGraph, symbols, to_tptp, translate_existential,
                  translate_factual, translate_inverse)

graph = KnowledgeGraph.from_tuples([
    ("sun", "Causes", "light"),
    ("shadow", "AtLocation", "light"),
    ("shadow", "AtLocation", "ground"),
    ("grass", "AtLocation", "ground"),
])

print(f"{len(graph)} edges loaded")
print("outgoing from 'shadow':")
for t in graph:
    if t.subject == "shadow":
        print(f"  ({t.subject}, {t.relation}, {t.object})")

# Scheme 1: a triple is just a ground fact about two constants.
print("\nfactual scheme:")
for i, t in enumerate(graph):
    print(" ", to_tptp(translate_factual(t), f"f{i + 1}"))

# Scheme 2: a triple is a rule. Anything that is a sun causes some light.
# This is what makes forward chaining from a single fact productive.
print("\nexistential scheme:")
for i, t in enumerate(graph):
    print(" ", to_tptp(translate_existential(t), f"t{i + 1}"))

# Scheme 3: the same edge read object-to-subject, under an inv_* predicate.
# Without these, a chain can only walk edges in their stored direction.
print("\ninverse rules:")
for i, t in enumerate(graph):
    print(" ", to_tptp(translate_inverse(t), f"t{i + 1}_inv"))

# Selection needs only each axiom's symbols, and every scheme uses the same
# three names (the inverse rule swaps in its inv_* predicate), so the
# pipeline indexes them straight from the graph's id columns and translates
# nothing it does not select.  The graph stores ids, not Triple objects:
# iterating it, as above, builds each Triple on demand.
print("\nsymbols of each translation:")
for i, t in enumerate(graph):
    print(f"  t{i + 1}: {sorted(symbols(translate_existential(t)))}"
          f"  t{i + 1}_inv: {sorted(symbols(translate_inverse(t)))}")
