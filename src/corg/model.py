"""Bounded forward chaining over Horn, range-restricted clauses.

Saturation runs semi-naive rounds to a fixpoint and records a derivation
trace (input facts first, then derived atoms in round order, ordered
within a round by clause position and premise indices).  Skolem functions
make naive saturation non-terminating, so three bounds cut it off: a
maximum term depth, an atom budget, and a round budget.  ``complete`` is
True only when the fixpoint was reached with nothing suppressed.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field

from .errors import AtomNotInModel, NonHornClause, NonRangeRestrictedClause
from .fol import (Atom, Clause, Constant, Function, Term, Variable,
                  format_atom, substitute_atom)


@dataclass
class BuilderConfig:
    max_term_depth: int = 3
    max_atoms: int = 10_000
    max_rounds: int = 100

    def __post_init__(self):
        if min(self.max_term_depth, self.max_atoms, self.max_rounds) < 1:
            raise ValueError("all saturation bounds must be positive")


@dataclass(frozen=True)
class DerivationStep:
    """One admitted atom: where it came from and which steps fed it.

    Input facts have ``clause_origin=None`` and no premises; premises of a
    derived atom are trace indices of the matched body atoms, in clause
    body order, and always precede the step itself.
    """

    derived: Atom
    clause_origin: str | None
    premises: tuple[int, ...]


@dataclass
class PartialModel:
    """Derived ground atoms plus the trace that produced them."""

    trace: list[DerivationStep] = field(default_factory=list)
    complete: bool = True

    @property
    def atoms(self) -> list[Atom]:
        return [step.derived for step in self.trace]

    def __len__(self) -> int:
        return len(self.trace)


def term_depth(t: Term) -> int:
    """Constants and variables have depth 1; each nesting level adds one."""
    if isinstance(t, Function) and t.args:
        return 1 + max(term_depth(a) for a in t.args)
    return 1


def atom_depth(a: Atom) -> int:
    return max((term_depth(t) for t in a.args), default=0)


def is_ground_atom(a: Atom) -> bool:
    stack = list(a.args)
    while stack:
        t = stack.pop()
        if isinstance(t, Variable):
            return False
        if isinstance(t, Function):
            stack.extend(t.args)
    return True


def _match_term(pattern: Term, ground: Term, subst: dict[str, Term]) -> bool:
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


def match_atom(pattern: Atom, ground: Atom, subst: dict[str, Term]) -> dict[str, Term] | None:
    """Extend subst so pattern matches ground; None when impossible."""
    if pattern.predicate != ground.predicate or len(pattern.args) != len(ground.args):
        return None
    trial = dict(subst)
    for p, g in zip(pattern.args, ground.args):
        if not _match_term(p, g, trial):
            return None
    return trial


def _validate(clauses: list[Clause]):
    for c in clauses:
        if not c.is_horn():
            raise NonHornClause(f"clause from {c.origin!r} has {len(c.positives)} head literals")
        if not c.is_range_restricted():
            raise NonRangeRestrictedClause(
                f"clause from {c.origin!r} has head variables outside the body")


class _Database:
    def __init__(self):
        self.trace: list[DerivationStep] = []
        self.seen: set[Atom] = set()
        self.by_pred: dict[str, list[int]] = {}

    def admit(self, atom: Atom, origin: str | None, premises: tuple[int, ...]) -> bool:
        if atom in self.seen:
            return False
        idx = len(self.trace)
        self.trace.append(DerivationStep(atom, origin, premises))
        self.seen.add(atom)
        self.by_pred.setdefault(atom.predicate, []).append(idx)
        return True


def _body_matches(db: _Database, body: tuple[Atom, ...], delta_start: int,
                  delta_end: int):
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
            candidates = db.by_pred.get(body[pos].predicate, ())
            # reversed: stack pops restore ascending trace order
            for idx in reversed(candidates):
                if not lo <= idx < hi:
                    continue
                extended = match_atom(body[pos], db.trace[idx].derived, subst)
                if extended is not None:
                    stack.append((pos + 1, extended, premises + (idx,)))


def saturate(facts: list[Atom], clauses: list[Clause],
             cfg: BuilderConfig | None = None) -> PartialModel:
    """Forward-chain facts through Horn clauses up to the configured bounds.

    Clauses must be Horn and range-restricted (checked up front), facts
    ground.  Headless clauses are accepted and ignored; clauses with an
    empty body fire once in the first round.  Identical inputs and config
    produce an identical trace.
    """
    cfg = cfg or BuilderConfig()
    _validate(clauses)
    for f in facts:
        if not is_ground_atom(f):
            raise ValueError(f"input fact is not ground: {format_atom(f)}")

    db = _Database()
    model = PartialModel(db.trace)

    def admit_checked(atom: Atom, origin: str | None, premises: tuple[int, ...]):
        if atom in db.seen:
            return
        if atom_depth(atom) > cfg.max_term_depth:
            model.complete = False
            return
        if len(db.trace) >= cfg.max_atoms:
            model.complete = False
            return
        db.admit(atom, origin, premises)

    for f in facts:
        admit_checked(f, None, ())

    delta_start, delta_end = 0, len(db.trace)
    rounds = 0
    first_round = True
    while delta_start < delta_end or first_round:
        if rounds >= cfg.max_rounds:
            model.complete = False
            break
        rounds += 1
        candidates: list[tuple[int, tuple[int, ...], Atom]] = []
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
                candidates.append((c_pos, premises, substitute_atom(head, subst)))
        candidates.sort(key=lambda c: (c[0], c[1]))
        delta_start = len(db.trace)
        for c_pos, premises, atom in candidates:
            admit_checked(atom, clauses[c_pos].origin, premises)
        delta_end = len(db.trace)
        first_round = False
    return model


# ------------------------------------------------------------- extraction

# the clausifier's Skolem names: sk_<axiom id>_<k>
_SKOLEM = re.compile(r"sk_\w+_\d+")
_ROLE_PREDICATE = re.compile(r"r[0-9]+[A-Z]\w*")


@dataclass
class ExtractionConfig:
    """Symbol extraction knobs.

    Skolem symbols never make it out; relation predicates (binary ones,
    ``inv_*``, and semantic-parser role predicates such as ``r1Actor``)
    are dropped unless ``drop_relation_predicates`` is off.
    """

    drop_relation_predicates: bool = True


def _is_skolem(name: str) -> bool:
    return bool(_SKOLEM.fullmatch(name))


def _is_relation_predicate(atom: Atom) -> bool:
    return (len(atom.args) == 2
            or atom.predicate.startswith("inv_")
            or bool(_ROLE_PREDICATE.fullmatch(atom.predicate)))


def extract_symbols(model: PartialModel,
                    cfg: ExtractionConfig | None = None) -> list[str]:
    """Word-like symbols of the model in first-derivation order.

    Term structure is discarded: the output is the unique predicate and
    constant/function names, minus Skolems and (by default) relation
    predicates, ordered by first appearance in the trace.
    """
    cfg = cfg or ExtractionConfig()
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

    for step in model.trace:
        atom = step.derived
        if not (cfg.drop_relation_predicates and _is_relation_predicate(atom)):
            add(atom.predicate)
        for t in atom.args:
            add_term(t)
    return out


# ------------------------------------------------------------ explanation


def explain(model: PartialModel, target: Atom) -> str:
    """Human-readable derivation tree for an atom of the model.

    Renders the target and, recursively indented, the premises it was
    derived from, down to input facts.  Deterministic for a fixed trace.
    """
    index = {step.derived: i for i, step in enumerate(model.trace)}
    if target not in index:
        raise AtomNotInModel(f"{format_atom(target)} is not in the model")
    lines: list[str] = []

    def render(idx: int, depth: int):
        step = model.trace[idx]
        source = "input" if step.clause_origin is None else f"clause {step.clause_origin}"
        lines.append("  " * depth + f"{format_atom(step.derived)}   [{source}]")
        for p in step.premises:
            render(p, depth + 1)

    render(index[target], 0)
    return "\n".join(lines)


def model_lines(model: PartialModel) -> list[str]:
    """One TPTP-style ground atom per line, in trace order."""
    return [format_atom(step.derived) for step in model.trace]


def trace_json(model: PartialModel) -> str:
    """Trace as JSON: step index, atom, clause id, premise indices."""
    rows = [{"step": i, "atom": format_atom(s.derived),
             "clause": s.clause_origin, "premises": list(s.premises)}
            for i, s in enumerate(model.trace)]
    return json.dumps({"complete": model.complete, "steps": rows}, indent=2)
