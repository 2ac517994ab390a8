"""Bounded forward chaining, and why edge direction matters.

Starting from the single fact sun(c), existential rules alone can never
reach the 'shadow' predicate: every edge points away from it.  Adding the
inverse rules repairs that.  Skolem terms grow one nesting level per hop,
so the saturation is cut off at a term-depth bound and reports whether it
truly reached a fixpoint.
"""

from corg import (BuilderConfig, KnowledgeGraph, clausify, explain,
                  extract_symbols, saturate, translate_existential,
                  translate_inverse)
from corg.fol import Atom, Constant

graph = KnowledgeGraph.from_tuples([
    ("sun", "Causes", "light"),
    ("shadow", "AtLocation", "light"),
    ("shadow", "AtLocation", "ground"),
    ("grass", "AtLocation", "ground"),
])

facts = [Atom("sun", (Constant("c"),))]

# Iterating the graph builds each Triple from its row of id columns.
forward_only = []
for i, t in enumerate(graph):
    forward_only += clausify(translate_existential(t), f"t{i + 1}")

model = saturate(facts, forward_only, BuilderConfig(max_term_depth=3))
print("existential rules only:")
for step in model.trace:
    origin = "input" if step.clause_origin is None else step.clause_origin
    print(f"  [{origin}] {step.derived.predicate}(...)")
print(f"  complete fixpoint: {model.complete}")
print(f"  'shadow' derivable: {any(a.predicate == 'shadow' for a in model.atoms)}")

both_directions = list(forward_only)
for i, t in enumerate(graph):
    both_directions += clausify(translate_inverse(t), f"t{i + 1}_inv")

model = saturate(facts, both_directions, BuilderConfig(max_term_depth=3))
shadow_atoms = [a for a in model.atoms if a.predicate == "shadow"]
print("\nwith inverse rules:")
print(f"  atoms: {len(model)}  complete: {model.complete} "
      "(the chain wants to grow past the depth bound)")
print(f"  'shadow' derivable: {bool(shadow_atoms)}")

print("\nhow the first shadow atom came about:")
print(explain(model, shadow_atoms[0]))

print("\nword-like symbols, in derivation order:")
print(" ", extract_symbols(model))
