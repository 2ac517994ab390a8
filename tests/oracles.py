"""Independent reference computations the test suite checks the package against.

Nothing here may call into the code paths under test: the model oracle is a
naive least-fixpoint evaluator over its own tuple representation, the
reference chainer is a direct semi-naive chainer over the AST objects, the
selection and hop oracles are plain reachability walks, and the worked-problem
oracle recomputes the expected scores with stdlib math from hand-derived
symbol sequences.  The reference extractor walks each atom's AST where
``corg.model`` reads term ids.  The reference clausifier rebuilds the
formula in four passes where ``corg.fol`` walks it once.  The reference
loaders parse one line at a time, with no memo and no block parse.
"""

import itertools
import json
import math
import re
from typing import NamedTuple

import numpy as np

from corg.errors import (DimensionMismatch, MalformedLine, NoTriplesLoaded,
                         UnsupportedFragment)
from corg.fol import (And, Atom, Clause, Constant, Exists, Forall, Formula,
                      Function, Iff, Implies, Not, Or, Term, Variable,
                      free_variables, is_closed)
from corg.kg import (KnowledgeGraph, RelationFilter, Skip, Triple, _is_utf8,
                     _json_weight, _open_text, normalize_concept, normalize_relation)

# ----------------------------------------------------- naive datalog oracle


def term_tuple(t):
    if isinstance(t, Variable):
        return ("v", t.name)
    if isinstance(t, Constant):
        return ("c", t.name)
    if isinstance(t, Function):
        return ("f", t.name, tuple(term_tuple(a) for a in t.args))
    raise TypeError(t)


def atom_tuple(a: Atom):
    return (a.predicate, tuple(term_tuple(t) for t in a.args))


def _unify(pattern, fact, binding):
    kind = pattern[0]
    if kind == "v":
        name = pattern[1]
        if name in binding:
            return binding if binding[name] == fact else None
        new = dict(binding)
        new[name] = fact
        return new
    if kind == "c":
        return binding if pattern == fact else None
    if fact[0] != "f" or fact[1] != pattern[1] or len(fact[2]) != len(pattern[2]):
        return None
    for p, g in zip(pattern[2], fact[2]):
        binding = _unify(p, g, binding)
        if binding is None:
            return None
    return binding


def _instantiate(term, binding):
    if term[0] == "v":
        return binding[term[1]]
    if term[0] == "c":
        return term
    return ("f", term[1], tuple(_instantiate(a, binding) for a in term[2]))


def naive_least_model(facts, clauses) -> set:
    """Least Herbrand model by exhaustive re-derivation until nothing changes.

    Facts and clauses use the package's AST; the evaluation itself works on
    plain tuples.  Only terminates for function-free (Datalog-style) input.
    """
    model = {atom_tuple(f) for f in facts}
    rules = []
    for c in clauses:
        if not c.positives:
            continue
        body = [atom_tuple(a) for a in c.negatives]
        rules.append((body, atom_tuple(c.positives[0])))
    changed = True
    while changed:
        changed = False
        snapshot = sorted(model)
        for body, head in rules:
            bindings = [{}]
            for pattern in body:
                pred, args = pattern
                nxt = []
                for b in bindings:
                    for fact in snapshot:
                        if fact[0] != pred or len(fact[1]) != len(args):
                            continue
                        trial = b
                        for p, g in zip(args, fact[1]):
                            trial = _unify(p, g, trial)
                            if trial is None:
                                break
                        if trial is not None:
                            nxt.append(trial)
                bindings = nxt
            for b in bindings:
                derived = (head[0], tuple(_instantiate(a, b) for a in head[1]))
                if derived not in model:
                    model.add(derived)
                    changed = True
    return model


def model_atom_tuples(partial_model) -> set:
    return {atom_tuple(a) for a in partial_model.atoms}


# ------------------------------------------------ reference forward chainer
#
# The semi-naive chainer that ``corg.model.saturate`` must agree with step
# for step: it matches clause bodies atom by atom against the AST objects,
# substitutes every head, and admits candidates in (clause position,
# premises) order under the same three bounds.


def _match_term(pattern, ground, subst) -> bool:
    if isinstance(pattern, Variable):
        bound = subst.get(pattern.name)
        if bound is None:
            subst[pattern.name] = ground
            return True
        return bound == ground
    if isinstance(pattern, Constant):
        return pattern == ground
    if not isinstance(ground, Function) or pattern.name != ground.name \
            or len(pattern.args) != len(ground.args):
        return False
    return all(_match_term(p, g, subst) for p, g in zip(pattern.args, ground.args))


def match_atom(pattern: Atom, ground: Atom, subst: dict):
    """Extend subst so pattern matches ground; None when impossible."""
    if pattern.predicate != ground.predicate or len(pattern.args) != len(ground.args):
        return None
    trial = dict(subst)
    for p, g in zip(pattern.args, ground.args):
        if not _match_term(p, g, trial):
            return None
    return trial


def _substitute(t, subst):
    if isinstance(t, Variable):
        return subst[t.name]
    if isinstance(t, Function):
        return Function(t.name, tuple(_substitute(a, subst) for a in t.args))
    return t


def _depth(t) -> int:
    if isinstance(t, Function) and t.args:
        return 1 + max(_depth(a) for a in t.args)
    return 1


def atom_depth(a: Atom) -> int:
    """Deepest argument of an atom: constants have depth 1, each function
    nesting level adds one, and an atom without arguments has depth 0."""
    return max((_depth(t) for t in a.args), default=0)


class _Database:
    def __init__(self):
        self.trace: list = []  # (atom, clause origin, premises)
        self.seen: set = set()
        self.by_pred: dict = {}

    def admit(self, atom, origin, premises):
        self.by_pred.setdefault(atom.predicate, []).append(len(self.trace))
        self.trace.append((atom, origin, premises))
        self.seen.add(atom)


def _body_matches(db, body, delta_start, delta_end):
    """Premise tuples for a clause body, each using >= 1 atom from the delta.

    Position i ranges over the delta, positions before i over older atoms
    only, positions after i over everything admitted before this round.
    """
    for i in range(len(body)):
        stack = [(0, {}, ())]
        while stack:
            pos, subst, premises = stack.pop()
            if pos == len(body):
                yield premises, subst
                continue
            lo, hi = (delta_start, delta_end) if pos == i else \
                (0, delta_start) if pos < i else (0, delta_end)
            for idx in reversed(db.by_pred.get(body[pos].predicate, ())):
                if not lo <= idx < hi:
                    continue
                extended = match_atom(body[pos], db.trace[idx][0], subst)
                if extended is not None:
                    stack.append((pos + 1, extended, premises + (idx,)))


class ReferenceModel(NamedTuple):
    trace: list  # (atom, clause origin, premises) per admitted atom
    complete: bool
    cut_by: tuple  # of "depth", "atoms", "rounds", in that order


def reference_saturate(facts, clauses, max_term_depth, max_atoms, max_rounds):
    """Bounded semi-naive forward chaining over valid Horn clauses."""
    db = _Database()
    cut = set()

    def admit_checked(atom, origin, premises):
        if atom in db.seen:
            return
        if max((_depth(t) for t in atom.args), default=0) > max_term_depth:
            cut.add("depth")
            return
        if len(db.trace) >= max_atoms:
            cut.add("atoms")
            return
        db.admit(atom, origin, premises)

    for f in facts:
        admit_checked(f, None, ())

    delta_start, delta_end = 0, len(db.trace)
    rounds = 0
    first_round = True
    while delta_start < delta_end or first_round:
        if rounds >= max_rounds:
            cut.add("rounds")
            break
        rounds += 1
        candidates = []
        for c_pos, clause in enumerate(clauses):
            if not clause.positives:
                continue
            head = clause.positives[0]
            if not clause.negatives:
                if first_round:
                    candidates.append((c_pos, (), head))
                continue
            for premises, subst in _body_matches(db, clause.negatives,
                                                 delta_start, delta_end):
                atom = Atom(head.predicate,
                            tuple(_substitute(t, subst) for t in head.args))
                candidates.append((c_pos, premises, atom))
        candidates.sort(key=lambda c: (c[0], c[1]))
        delta_start = len(db.trace)
        for c_pos, premises, atom in candidates:
            admit_checked(atom, clauses[c_pos].origin, premises)
        delta_end = len(db.trace)
        first_round = False
    cut_by = tuple(b for b in ("depth", "atoms", "rounds") if b in cut)
    return ReferenceModel(db.trace, not cut, cut_by)


# ------------------------------------------------ reference extraction
#
# The extractor that ``corg.model.extract_symbols`` must agree with name for
# name: it walks every atom's AST, term by term, instead of the model's
# rows and term ids.

# the clausifier's Skolem names: sk_<axiom id>_<k>
_SKOLEM = re.compile(r"sk_\w+_\d+")
_ROLE_PREDICATE = re.compile(r"r[0-9]+[A-Z]\w*")


def _is_skolem(name: str) -> bool:
    return bool(_SKOLEM.fullmatch(name))


def _is_relation_predicate(atom: Atom) -> bool:
    return len(atom.args) == 2 or bool(_ROLE_PREDICATE.fullmatch(atom.predicate))


def reference_extract_symbols(atoms: list[Atom]) -> list[str]:
    """Word-like symbols of a model's atoms in first-derivation order."""
    out: list[str] = []
    seen: set[str] = set()

    def add(name: str):
        if name not in seen and not _is_skolem(name):
            seen.add(name)
            out.append(name)

    def add_term(t: Term):
        if isinstance(t, Constant):
            add(t.name)
        elif isinstance(t, Function):
            add(t.name)
            for a in t.args:
                add_term(a)

    for atom in atoms:
        if not _is_relation_predicate(atom):
            add(atom.predicate)
        for t in atom.args:
            add_term(t)
    return out


# ------------------------------------------------ reference clausifier
#
# The passes that ``corg.fol.clausify`` must agree with clause for clause,
# or raise the same UnsupportedFragment message: each rebuilds the whole
# formula, first without arrows, then in negation normal form, then
# Skolemized, and last distributed into clauses.


def _eliminate_arrows(f: Formula) -> Formula:
    if isinstance(f, Atom):
        return f
    if isinstance(f, Not):
        return Not(_eliminate_arrows(f.operand))
    if isinstance(f, And):
        return And(tuple(_eliminate_arrows(g) for g in f.operands))
    if isinstance(f, Or):
        return Or(tuple(_eliminate_arrows(g) for g in f.operands))
    if isinstance(f, Implies):
        return Or((Not(_eliminate_arrows(f.left)), _eliminate_arrows(f.right)))
    if isinstance(f, Iff):
        a, b = _eliminate_arrows(f.left), _eliminate_arrows(f.right)
        return And((Or((Not(a), b)), Or((Not(b), a))))
    if isinstance(f, Forall):
        return Forall(f.var, _eliminate_arrows(f.body))
    if isinstance(f, Exists):
        return Exists(f.var, _eliminate_arrows(f.body))
    raise TypeError(f"not a formula: {f!r}")


def _nnf(f: Formula) -> Formula:
    if isinstance(f, Atom):
        return f
    if isinstance(f, And):
        return And(tuple(_nnf(g) for g in f.operands))
    if isinstance(f, Or):
        return Or(tuple(_nnf(g) for g in f.operands))
    if isinstance(f, Forall):
        return Forall(f.var, _nnf(f.body))
    if isinstance(f, Exists):
        return Exists(f.var, _nnf(f.body))
    if isinstance(f, Not):
        g = f.operand
        if isinstance(g, Atom):
            return f
        if isinstance(g, Not):
            return _nnf(g.operand)
        if isinstance(g, And):
            return Or(tuple(_nnf(Not(h)) for h in g.operands))
        if isinstance(g, Or):
            return And(tuple(_nnf(Not(h)) for h in g.operands))
        if isinstance(g, Forall):
            return Exists(g.var, _nnf(Not(g.body)))
        if isinstance(g, Exists):
            return Forall(g.var, _nnf(Not(g.body)))
    raise TypeError(f"unexpected connective in NNF input: {f!r}")


def _apply_subst(t: Term, subst: dict[str, Term]) -> Term:
    if isinstance(t, Variable):
        return subst.get(t.name, t)
    if isinstance(t, Function):
        return Function(t.name, tuple(_apply_subst(a, subst) for a in t.args))
    return t


def substitute_atom(a: Atom, subst: dict[str, Term]) -> Atom:
    return Atom(a.predicate, tuple(_apply_subst(t, subst) for t in a.args))


def _skolemize(f: Formula, subst: dict[str, Term], universals: tuple[Variable, ...],
               axiom_id: str, counter, used_names: set[str]) -> Formula:
    """Drop quantifiers, replacing existential variables with Skolem terms.

    Skolem symbols are named ``sk_<axiom_id>_<k>`` with k the left-to-right
    existential index, so output never depends on translation order.
    """
    if isinstance(f, Atom):
        return substitute_atom(f, subst)
    if isinstance(f, Not):
        return Not(substitute_atom(f.operand, subst))
    if isinstance(f, (And, Or)):
        kind = type(f)
        return kind(tuple(
            _skolemize(g, subst, universals, axiom_id, counter, used_names)
            for g in f.operands))
    if isinstance(f, Forall):
        name = f.var
        if name in used_names:
            n = 1
            while f"{name}_{n}" in used_names:
                n += 1
            name = f"{name}_{n}"
        used_names.add(name)
        var = Variable(name)
        return _skolemize(f.body, {**subst, f.var: var}, universals + (var,),
                          axiom_id, counter, used_names)
    if isinstance(f, Exists):
        k = next(counter)
        sk = f"sk_{axiom_id}_{k}"
        term: Term = Function(sk, universals) if universals else Constant(sk)
        return _skolemize(f.body, {**subst, f.var: term}, universals,
                          axiom_id, counter, used_names)
    raise TypeError(f"unexpected node after NNF: {f!r}")


_MAX_CLAUSES = 4096


def _distribute(f: Formula) -> list[list[Formula]]:
    """CNF distribution over a quantifier-free NNF matrix."""
    if isinstance(f, And):
        out: list[list[Formula]] = []
        for g in f.operands:
            out.extend(_distribute(g))
            if len(out) > _MAX_CLAUSES:
                raise UnsupportedFragment("clause explosion during CNF distribution")
        return out
    if isinstance(f, Or):
        acc: list[list[Formula]] = [[]]
        for g in f.operands:
            acc = [left + right for left in acc for right in _distribute(g)]
            if len(acc) > _MAX_CLAUSES:
                raise UnsupportedFragment("clause explosion during CNF distribution")
        return acc
    if isinstance(f, (Atom, Not)):
        return [[f]]
    raise TypeError(f"unexpected node in matrix: {f!r}")


def reference_clausify(f: Formula, axiom_id: str) -> list[Clause]:
    """Closedness check, arrow elimination, NNF, Skolemization and CNF."""
    if not is_closed(f):
        raise UnsupportedFragment(f"formula has free variables: {sorted(free_variables(f))}")
    matrix = _skolemize(_nnf(_eliminate_arrows(f)), {}, (), axiom_id,
                        itertools.count(), set())
    clauses = []
    for lits in _distribute(matrix):
        negatives: list[Atom] = []
        positives: list[Atom] = []
        for lit in lits:
            if isinstance(lit, Not):
                if lit.operand not in negatives:
                    negatives.append(lit.operand)
            elif lit not in positives:
                positives.append(lit)
        clauses.append(Clause(tuple(negatives), tuple(positives), axiom_id))
    return clauses




# ------------------------------------------------- selection closure oracle


def reachable_closure(axiom_symbols: dict, goals) -> set:
    """Axioms reachable by repeatedly following shared symbols from the goals."""
    reached = set(goals)
    selected = set()
    changed = True
    while changed:
        changed = False
        for aid, syms in axiom_symbols.items():
            if aid not in selected and syms & reached:
                selected.add(aid)
                reached |= syms
                changed = True
    return selected


def reachable_within(edges, start, hops: int) -> set:
    """Nodes reachable from ``start`` along at most ``hops`` directed
    (source, target) edges, the start nodes included."""
    reached = set(start)
    frontier = set(start)
    for _ in range(hops):
        frontier = {target for source, target in edges if source in frontier} - reached
        reached |= frontier
    return reached


def reference_sine_select(axioms: dict, goals, cfg, table=None) -> list:
    """SInE selection over string-keyed symbol sets; selected ids in axiom order.

    ``axioms`` maps axiom id -> symbols; each axiom counts once per symbol.
    A symbol s triggers axiom A iff s occurs in A and occ(s) is at most
    tolerance times the least occ over A's symbols.  With
    ``cfg.similarity_threshold`` set, every indexed symbol whose cosine to
    some goal reaches it joins the seed, vectors coming from
    ``reference_vector(table, name)`` over a ``ReferenceTable``.
    Triggering then runs from the seed to
    ``cfg.max_depth`` rounds or the fixpoint.
    """
    axiom_symbols = {aid: frozenset(syms) for aid, syms in axioms.items()}
    occ: dict = {}
    by_symbol: dict = {}
    for aid, syms in axiom_symbols.items():
        for s in syms:
            occ[s] = occ.get(s, 0) + 1
            by_symbol.setdefault(s, []).append(aid)
    min_occ = {aid: min((occ[s] for s in syms), default=0)
               for aid, syms in axiom_symbols.items()}

    reached = set(goals)
    if cfg.similarity_threshold is not None and occ:
        def unit(names):
            mat = np.stack([reference_vector(table, n) for n in names])
            norms = np.linalg.norm(mat, axis=1, keepdims=True)
            norms[norms == 0.0] = 1.0
            return mat / norms

        candidates = list(occ)
        best = (unit(candidates) @ unit(sorted(goals)).T).max(axis=1)
        reached |= {s for s, sim in zip(candidates, best)
                    if sim >= cfg.similarity_threshold}

    def triggers(s, aid):
        return occ[s] <= cfg.tolerance * min_occ[aid]

    frontier = set(reached)
    selected: set = set()
    depth = 0
    while frontier and (cfg.max_depth is None or depth < cfg.max_depth):
        newly: set = set()
        for s in frontier:
            for aid in by_symbol.get(s, ()):
                if aid not in selected and triggers(s, aid):
                    selected.add(aid)
                    newly |= axiom_symbols[aid]
        frontier = newly - reached
        reached |= newly
        depth += 1
    return [aid for aid in axioms if aid in selected]


# ------------------------------------------------ worked-problem hand oracle

# Symbol sequences derived by hand for COPA problem 1 over the four-edge
# fixture graph (existential scheme, no inverse, default selection):
# the premise model adds light and ground to the four premise words, the
# first alternative adds light, the second adds ground.  body/cast/c0 have
# no vector and only rescale the mean, which cosine ignores.
COPA1_VECTORS = {
    "sun": (1.0, 0.0), "rising": (1.0, 0.0), "light": (1.0, 0.0),
    "shadow": (1.0, 0.0), "grass": (0.0, 1.0), "ground": (0.0, 1.0),
    "cut": (-1.0, 0.0),
}
COPA1_SYMBOLS = {
    "premise": ["body", "c0", "cast", "shadow", "grass", "light", "ground"],
    "a1": ["sun", "c0", "rising", "light"],
    "a2": ["grass", "c0", "cut", "ground"],
}


def _mean_vector(words):
    vecs = [COPA1_VECTORS.get(w, (0.0, 0.0)) for w in words]
    n = len(vecs)
    return tuple(sum(v[i] for v in vecs) / n for i in range(2))


def _cos(u, v):
    nu = math.hypot(*u)
    nv = math.hypot(*v)
    if nu == 0.0 or nv == 0.0:
        return 0.0
    return (u[0] * v[0] + u[1] * v[1]) / (nu * nv)


def copa1_expected():
    """Expected (scores, likelihoods) for the worked problem, stdlib math only."""
    premise = _mean_vector(COPA1_SYMBOLS["premise"])
    scores = [_cos(premise, _mean_vector(COPA1_SYMBOLS["a1"])),
              _cos(premise, _mean_vector(COPA1_SYMBOLS["a2"]))]
    exps = [math.exp(s - max(scores)) for s in scores]
    total = sum(exps)
    return scores, [e / total for e in exps]


# ------------------------------------------------------- reference loaders
#
# ``corg.kg.load_graph`` and ``corg.embeddings.load_table`` parse in bulk:
# memoized URIs and relations, and one ``np.loadtxt`` call per block of
# vector lines.  These parse every line on its own, and the bulk loaders
# must give the same graph and table, and raise for the same files.


def _reference_concept(uri: str, line_no: int):
    if not uri.startswith("/c/"):
        return Skip("non_concept")
    parts = uri.split("/")
    if len(parts) < 4 or not parts[2] or not parts[3]:
        raise MalformedLine(line_no, f"bad concept URI {uri!r}")
    return parts[2], normalize_concept(parts[3])


def _reference_assertion(line: str, line_no: int):
    fields = line.rstrip("\n").split("\t")
    if len(fields) != 5:
        raise MalformedLine(line_no, f"expected 5 fields, got {len(fields)}")
    _, rel_uri, start_uri, end_uri, meta = fields
    if not rel_uri.startswith("/r/") or len(rel_uri) <= 3:
        raise MalformedLine(line_no, f"bad relation URI {rel_uri!r}")
    relation, negated = normalize_relation(rel_uri[3:])
    if relation == "external_url":
        return Skip("external_url")
    start = _reference_concept(start_uri, line_no)
    if isinstance(start, Skip):
        return start
    end = _reference_concept(end_uri, line_no)
    if isinstance(end, Skip):
        return end
    if start[0] != "en" or end[0] != "en":
        return Skip("language")
    weight = 1.0
    meta = meta.strip()
    if meta:
        try:
            data = json.loads(meta)
        except (ValueError, RecursionError) as e:
            raise MalformedLine(line_no, f"bad JSON metadata: {e}") from e
        if isinstance(data, dict) and "weight" in data:
            weight = _json_weight(data["weight"], line_no)
    return Triple(start[1], relation, end[1], weight, line_no, negated)


def _reference_plain(line: str, line_no: int):
    fields = line.rstrip("\n").split("\t")
    if len(fields) not in (3, 4):
        raise MalformedLine(line_no, f"expected 3 or 4 fields, got {len(fields)}")
    relation, negated = normalize_relation(fields[1])
    if not fields[0].strip() or not relation or not fields[2].strip():
        raise MalformedLine(line_no, "empty field")
    weight = 1.0
    if len(fields) == 4:
        try:
            weight = float(fields[3])
        except ValueError as e:
            raise MalformedLine(line_no, f"bad weight {fields[3]!r}") from e
    return Triple(normalize_concept(fields[0]), relation,
                  normalize_concept(fields[2]), weight, line_no, negated)


def reference_load_graph(path, relation_filter=None) -> KnowledgeGraph:
    """``load_graph`` one line at a time: a ``Triple`` per kept line, added
    with ``KnowledgeGraph.add``."""
    flt = relation_filter or RelationFilter()
    g = KnowledgeGraph()
    for line_no, line in enumerate(_open_text(path), start=1):
        if not line.isascii() and not _is_utf8(line):
            g.stats.skip("malformed")
            continue
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        try:
            if line.count("\t") == 4 and line.startswith("/a/"):
                parsed = _reference_assertion(line, line_no)
            else:
                parsed = _reference_plain(line, line_no)
        except MalformedLine:
            g.stats.skip("malformed")
            continue
        if isinstance(parsed, Skip):
            g.stats.skip(parsed.reason)
            continue
        if flt.allowed is not None and parsed.relation not in flt.allowed:
            g.stats.skip("relation")
            continue
        g.add(parsed)
    g.stats.kept = len(g)
    if not g:
        raise NoTriplesLoaded(f"no triples loaded from {path}")
    return g


class ReferenceTable(NamedTuple):
    dimension: int
    vectors: dict  # word -> float64 vector, in first-seen order
    duplicates: int = 0


def _identifier_parts(token: str) -> list:
    """Lowercased parts of an identifier, split character by character at
    ``_``, at an ASCII lowercase letter or digit followed by an ASCII
    capital, and before the last capital of a run of capitals that an
    ASCII lowercase letter follows (``HTTPServer`` -> http, server)."""
    def lower(c):  # "" (no character) is neither
        return "a" <= c <= "z"

    def upper(c):
        return "A" <= c <= "Z"

    def digit(c):
        return "0" <= c <= "9"

    parts, part = [], ""
    for i, ch in enumerate(token):
        prev = token[i - 1] if i else ""
        nxt = token[i + 1] if i + 1 < len(token) else ""
        if ch == "_" or upper(ch) and (lower(prev) or digit(prev)
                                       or upper(prev) and lower(nxt)):
            if part:
                parts.append(part.lower())
            part = ""
        if ch != "_":
            part += ch
    if part:
        parts.append(part.lower())
    return parts


def reference_vector(table: ReferenceTable, token: str) -> np.ndarray:
    """A token's vector by the documented rule: its stored vector (lookup
    by the lowercased token), else the mean of the stored vectors of its
    identifier parts, else zeros."""
    if token.lower() in table.vectors:
        return np.array(table.vectors[token.lower()], dtype=np.float64)
    found = [table.vectors[p] for p in _identifier_parts(token) if p in table.vectors]
    return np.mean(found, axis=0) if found else np.zeros(table.dimension)


def reference_load_table(path, parse_floats: bool = True) -> ReferenceTable:
    """``load_table`` one line at a time, with Python's float syntax and a
    finiteness check every 256 vectors.  A table of dimension 0 (a header
    ``<count> 0``, or a word with no component) is an error, and so is a
    header whose count is not the number of vector lines (duplicates
    included), once the file has a vector line.

    With ``parse_floats=False`` no float is read: each word maps to its
    last line's ``(line_no, components)``, and ``reference_row`` parses it,
    as a lazily loaded plain table does on first read."""
    vectors: dict = {}
    unchecked: list = []  # (line, vector) not yet checked finite
    duplicates = 0
    count = dimension = None
    for line_no, line in enumerate(_open_text(path), start=1):
        if not line.isascii() and not _is_utf8(line):
            raise MalformedLine(line_no, f"not valid UTF-8 ({path})")
        fields = line.split()
        if not fields:
            continue
        if line_no == 1 and len(fields) == 2 and all(_is_int(f) for f in fields):
            count, dimension = int(fields[0]), int(fields[1])
            if dimension < 1:
                raise DimensionMismatch(f"line 1: dimension {dimension} ({path})")
            continue
        if len(fields) == 1:
            raise DimensionMismatch(f"line {line_no}: no component ({path})")
        word = fields[0].lower()
        vec = _reference_floats(line_no, fields[1:], path) if parse_floats \
            else (line_no, fields[1:])
        if dimension is None:
            dimension = len(fields) - 1
        if len(fields) - 1 != dimension:
            raise DimensionMismatch(f"line {line_no}: expected {dimension} "
                                    f"components, got {len(fields) - 1} ({path})")
        if word in vectors:
            duplicates += 1
        vectors[word] = vec
        if parse_floats:
            unchecked.append((line_no, vec))
        if len(unchecked) == 256:
            _require_finite(unchecked, path)
    _require_finite(unchecked, path)
    if not vectors:
        raise DimensionMismatch(f"no vector line in {path}")
    if count is not None and count != len(vectors) + duplicates:
        raise MalformedLine(1, f"header gives {count} words, the file has "
                               f"{len(vectors) + duplicates} vector lines ({path})")
    return ReferenceTable(dimension, vectors, duplicates)


def reference_row(table: ReferenceTable, word: str, path) -> np.ndarray:
    """The vector of ``word`` in a table loaded with ``parse_floats=False``:
    its line's floats, which must be finite."""
    line_no, components = table.vectors[word]
    vec = _reference_floats(line_no, components, path)
    _require_finite([(line_no, vec)], path)
    return vec


def _reference_floats(line_no: int, components: list, path) -> np.ndarray:
    try:
        return np.array(components, dtype=np.float64)
    except ValueError as e:
        raise DimensionMismatch(f"line {line_no}: bad float, {e} ({path})") from e


def _require_finite(rows: list, path):
    if rows and not np.isfinite(np.stack([vec for _, vec in rows])).all():
        line_no = next(n for n, vec in rows if not np.isfinite(vec).all())
        raise MalformedLine(line_no, f"component that is not finite ({path})")
    rows.clear()


def _is_int(s: str) -> bool:
    try:
        int(s)
        return True
    except ValueError:
        return False
