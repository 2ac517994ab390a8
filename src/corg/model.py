"""Bounded forward chaining over Horn, range-restricted clauses.

Saturation runs semi-naive rounds to a fixpoint and records a derivation
trace (input facts first, then derived atoms in round order, ordered
within a round by clause position and premise indices).  Skolem functions
make naive saturation non-terminating, so three bounds cut it off: a
maximum term depth, an atom budget, and a round budget.  ``complete`` is
True only when the fixpoint was reached with nothing suppressed;
``cut_by`` names the bounds that suppressed something.

Inside one call, ground terms are interned to ints: a term is its name
plus the ids of its arguments, so equal terms share one id, and an atom
of the database is the key ``(predicate, argument ids)``.  Clauses with
an identical body form a group; its body is compiled, and its ground
terms interned, when the group forms.  Each round, a group's body is
matched once, and only when one of its (predicate, arity) pairs gained
atoms in the previous round; matching binds the body's variables to term
ids, and every match fans out to the group's heads.  A head's depth is
read off the depths of the ids it binds, so an over-depth head is dropped
before any of its terms is interned.

The model keeps what saturation computed: the term table and one row per
admitted atom (predicate, argument term ids, clause origin, premises).
Its size, completeness and symbols are read from those rows; a derived
term's ``Function``, an atom's ``Atom`` and a ``DerivationStep`` are only
built when ``trace`` or ``atoms`` is first read.  Skolem names and
groundness are decided in ``fol`` (``is_skolem``, ``is_ground``).
"""

from __future__ import annotations

import json
import re
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property

from .errors import AtomNotInModel, NonHornClause, NonRangeRestrictedClause
from .fol import (Atom, Clause, Constant, Function, Term, Variable,
                  format_atom, is_ground, is_skolem)


@dataclass
class BuilderConfig:
    max_term_depth: int = 3
    max_atoms: int = 10_000
    max_rounds: int = 100

    def __post_init__(self):
        if min(self.max_term_depth, self.max_atoms, self.max_rounds) < 1:
            raise ValueError("all saturation bounds must be positive")


@dataclass(frozen=True, slots=True)
class DerivationStep:
    """One admitted atom: where it came from and which steps fed it.

    Input facts have ``clause_origin=None`` and no premises; premises of a
    derived atom are trace indices of the matched body atoms, in clause
    body order, and always precede the step itself.
    """

    derived: Atom
    clause_origin: str | None
    premises: tuple[int, ...]


BOUNDS = ("depth", "atoms", "rounds")


@dataclass(eq=False)
class PartialModel:
    """Derived ground atoms plus the trace that produced them.

    Held as saturation left it: the term table and, per admitted atom in
    trace order, a row of its predicate, its argument term ids, the origin
    of the clause that derived it (None for an input fact) and its premise
    trace indices.  ``len``, ``complete``, ``cut_by`` and
    ``extract_symbols`` read the rows; ``trace``, ``atoms`` and
    ``positions`` build their objects on first read and keep them.
    """

    terms: _Terms
    predicates: list[str]
    arguments: list[tuple[int, ...]]
    origins: list[str | None]
    premises: list[tuple[int, ...]]
    # the bounds that suppressed an atom or a round, in BOUNDS order
    cut_by: tuple[str, ...]

    @property
    def complete(self) -> bool:
        """True when the fixpoint was reached with nothing suppressed."""
        return not self.cut_by

    @cached_property
    def trace(self) -> list[DerivationStep]:
        objects = self.terms.built()
        return [DerivationStep(Atom(predicate, tuple([objects[i] for i in ids])),
                               origin, premises)
                for predicate, ids, origin, premises in zip(
                    self.predicates, self.arguments, self.origins, self.premises)]

    @cached_property
    def atoms(self) -> list[Atom]:
        return [step.derived for step in self.trace]

    @cached_property
    def positions(self) -> dict[Atom, int]:
        """The trace index of each atom, built on first read."""
        return {atom: i for i, atom in enumerate(self.atoms)}

    def __len__(self) -> int:
        return len(self.predicates)


class _Terms:
    """The ground terms of one saturation, interned: per id, the key
    (name, argument ids or None for a constant), the depth, and the Term
    when it was given as input or has been built (None until then).  The
    key -> id dict ``ids`` is deleted when saturation returns."""

    def __init__(self):
        self.ids: dict[tuple[str, tuple[int, ...] | None], int] = {}
        self.keys: list[tuple[str, tuple[int, ...] | None]] = []
        self.depth: list[int] = []
        self.objects: list[Term | None] = []

    def _add(self, key: tuple[str, tuple[int, ...] | None], term: Term | None) -> int:
        i = self.ids[key] = len(self.objects)
        self.keys.append(key)
        self.depth.append(1 + max(self.depth[a] for a in key[1]) if key[1] else 1)
        self.objects.append(term)
        return i

    def intern(self, t: Constant | Function) -> int:
        """Id of a ground term."""
        key = (t.name, tuple(self.intern(a) for a in t.args)
               if isinstance(t, Function) else None)
        i = self.ids.get(key)
        return self._add(key, t) if i is None else i

    def apply(self, name: str, args: tuple[int, ...]) -> int:
        """Id of the term name(args); no Function is built."""
        key = (name, args)
        i = self.ids.get(key)
        return self._add(key, None) if i is None else i

    def built(self) -> list[Term]:
        """The Term of every id, building the missing ones; a term's
        arguments have smaller ids, so one pass in id order does."""
        objects, keys = self.objects, self.keys
        for i, term in enumerate(objects):
            if term is None:
                name, args = keys[i]
                objects[i] = Function(name, tuple([objects[a] for a in args]))
        return objects


# Body argument patterns: bind the next variable slot to the id, compare
# with an already bound slot, compare with an interned ground term, or
# descend into a function term that holds variables.
_BIND, _VAR, _TERM, _FN = range(4)


def _compile(t: Term, terms: _Terms, slots: dict[str, int]) -> tuple:
    """Pattern of a body term; variables get slots in order of first
    occurrence, which is the order matching binds them in."""
    if t.__class__ is Variable:
        slot = slots.get(t.name)
        if slot is None:
            slots[t.name] = len(slots)
            return (_BIND,)
        return (_VAR, slot)
    if t.__class__ is Function:
        subs = tuple([_compile(a, terms, slots) for a in t.args])
        if any(p[0] != _TERM for p in subs):
            return (_FN, t.name, subs)
    return (_TERM, terms.intern(t))


class _Group:
    """The clauses that share one body.  The body is compiled when the
    group forms, which interns its ground terms; heads stay AST atoms,
    read through the body's variable slots."""

    def __init__(self, body: tuple[Atom, ...], terms: _Terms):
        self.positions: list[int] = []  # of the clauses, in the input list
        self.slots: dict[str, int] = {}
        # ((predicate, arity), patterns, all patterns bind fresh slots) per
        # body atom
        self.body: tuple[tuple[tuple[str, int], tuple, bool], ...] = tuple([
            ((a.predicate, len(pats)), pats, all(p[0] == _BIND for p in pats))
            for a in body
            for pats in [tuple([_compile(t, terms, self.slots) for t in a.args])]])


def _depth(t: Term, slots: dict[str, int], binding: tuple[int, ...],
           depth: list[int]) -> int:
    """Depth of a head term under a binding, without building it."""
    if t.__class__ is Variable:
        return depth[binding[slots[t.name]]]
    d = 0
    if t.__class__ is Function:
        for a in t.args:
            x = _depth(a, slots, binding, depth)
            if x > d:
                d = x
    return d + 1


def _build(t: Term, slots: dict[str, int], binding: tuple[int, ...],
           terms: _Terms) -> int:
    """Id of a head term under a binding."""
    if t.__class__ is Variable:
        return binding[slots[t.name]]
    if t.__class__ is Function and any(a.__class__ is not Constant for a in t.args):
        return terms.apply(t.name, tuple([_build(a, slots, binding, terms)
                                          for a in t.args]))
    return terms.intern(t)


def _match(pats: tuple, ids: tuple[int, ...], binding: list[int],
           terms: _Terms) -> bool:
    """Extend binding so the patterns match the term ids."""
    for p, i in zip(pats, ids):
        kind = p[0]
        if kind == _BIND:
            binding.append(i)
        elif kind == _VAR:
            if binding[p[1]] != i:
                return False
        elif kind == _TERM:
            if i != p[1]:
                return False
        else:
            name, args = terms.keys[i]
            if args is None or name != p[1] or len(args) != len(p[2]) \
                    or not _match(p[2], args, binding, terms):
                return False
    return True


def _matches(body: tuple, by_key: dict[tuple[str, int], list[int]],
             arg_ids: list[tuple[int, ...]], terms: _Terms, delta_start: int,
             delta_end: int, fresh: set[tuple[str, int]]) -> list:
    """(binding, premises) of every match of a body that uses >= 1 atom
    from the delta.

    Position i ranges over the delta, positions before i over older atoms
    only, positions after i over everything admitted before this round,
    so each premise tuple is found once.
    """
    out = []
    for i in range(len(body)):
        if body[i][0] not in fresh:
            continue
        partial: list[tuple[tuple[int, ...], tuple[int, ...]]] = [((), ())]
        for pos, (key, pats, binds_only) in enumerate(body):
            lo, hi = (delta_start, delta_end) if pos == i else \
                (0, delta_start) if pos < i else (0, delta_end)
            idxs = by_key.get(key, ())
            start = bisect_left(idxs, lo)
            window = idxs[start:bisect_left(idxs, hi, start)]
            extended = []
            for binding, premises in partial:
                for idx in window:
                    if binds_only:
                        extended.append((binding + arg_ids[idx], premises + (idx,)))
                        continue
                    trial = list(binding)
                    if _match(pats, arg_ids[idx], trial, terms):
                        extended.append((tuple(trial), premises + (idx,)))
            partial = extended
            if not partial:
                break
        out.extend(partial)
    return out


def saturate(facts: list[Atom], clauses: list[Clause],
             cfg: BuilderConfig | None = None) -> PartialModel:
    """Forward-chain facts through Horn clauses up to the configured bounds.

    Clauses must be Horn and range-restricted (``Clause.chainable``, read
    up front), facts ground.  Headless clauses are accepted and
    ignored; clauses with an empty body fire once in the first round.
    Bodies are compiled as clauses are grouped, before any fact is read.
    Identical inputs and config produce an identical trace.
    """
    cfg = cfg or BuilderConfig()
    terms = _Terms()
    # one pass: each clause checked and put in the group of its body, and a
    # new group listed under each (predicate, arity) of its body; bodiless
    # clauses fire once, in the first round
    groups: dict[tuple[Atom, ...], _Group] = {}
    groups_of: dict[tuple[str, int], list[_Group]] = {}
    for position, clause in enumerate(clauses):
        if not clause.chainable:
            if not clause.is_horn():
                raise NonHornClause(f"clause from {clause.origin!r} has "
                                    f"{len(clause.positives)} head literals")
            raise NonRangeRestrictedClause(
                f"clause from {clause.origin!r} has head variables outside the body")
        if clause.positives:
            body = clause.negatives
            group = groups.get(body)
            if group is None:
                group = groups[body] = _Group(body, terms)
                for key in {(a.predicate, len(a.args)) for a in body}:
                    groups_of.setdefault(key, []).append(group)
            group.positions.append(position)

    depth = terms.depth
    max_depth = cfg.max_term_depth
    # the rows of the model, per trace index
    predicates: list[str] = []
    arg_ids: list[tuple[int, ...]] = []
    origins: list[str | None] = []
    premises_of: list[tuple[int, ...]] = []
    seen: set[tuple[str, tuple[int, ...]]] = set()
    # ascending trace indices per (predicate, arity)
    by_key: dict[tuple[str, int], list[int]] = {}
    cut: set[str] = set()
    fresh: set[tuple[str, int]] = set()  # (predicate, arity) in the delta

    def admit(predicate: str, ids: tuple[int, ...], origin: str | None,
              premises: tuple[int, ...]):
        key = (predicate, ids)
        if key in seen:
            return
        if len(predicates) >= cfg.max_atoms:
            cut.add("atoms")
            return
        seen.add(key)
        pair = (predicate, len(ids))
        by_key.setdefault(pair, []).append(len(predicates))
        predicates.append(predicate)
        arg_ids.append(ids)
        origins.append(origin)
        premises_of.append(premises)
        fresh.add(pair)

    for f in facts:
        if not is_ground(f):
            raise ValueError(f"input fact is not ground: {format_atom(f)}")
        ids = tuple(terms.intern(t) for t in f.args)
        if max((depth[i] for i in ids), default=0) > max_depth:
            cut.add("depth")
        else:
            admit(f.predicate, ids, None, ())

    delta_start, delta_end = 0, len(predicates)
    rounds = 0
    while fresh or rounds == 0:
        if rounds >= cfg.max_rounds:
            cut.add("rounds")
            break
        candidates: list[tuple[int, tuple[int, ...], _Group, tuple[int, ...]]] = []
        # candidates are sorted below, so the order they are found in is
        # free; a round finds each (clause position, premises) pair once, so
        # the sort never compares two groups
        active = {g for key in fresh for g in groups_of.get(key, ())}
        if rounds == 0 and () in groups:
            active.add(groups[()])
        rounds += 1
        for group in active:
            matches = _matches(group.body, by_key, arg_ids, terms, delta_start,
                               delta_end, fresh) if group.body else [((), ())]
            slots = group.slots
            for position in group.positions:
                args = clauses[position].positives[0].args
                for binding, premises in matches:
                    # the head's depth; a top-level variable, the usual
                    # argument, is read without a call
                    d = 0
                    for t in args:
                        x = depth[binding[slots[t.name]]] if t.__class__ is Variable \
                            else _depth(t, slots, binding, depth)
                        if x > d:
                            d = x
                    if d > max_depth:
                        cut.add("depth")
                    else:
                        candidates.append((position, premises, group, binding))
        candidates.sort()
        fresh = set()
        delta_start = len(predicates)
        for position, premises, group, binding in candidates:
            clause = clauses[position]
            head = clause.positives[0]
            admit(head.predicate,
                  tuple([_build(t, group.slots, binding, terms) for t in head.args]),
                  clause.origin, premises)
        delta_end = len(predicates)
    del terms.ids  # interning is over; the model reads keys, depth and objects
    return PartialModel(terms, predicates, arg_ids, origins, premises_of,
                        tuple(b for b in BOUNDS if b in cut))


# ------------------------------------------------------------- extraction

_ROLE_PREDICATE = re.compile(r"r[0-9]+[A-Z]\w*")


def _is_relation_predicate(predicate: str, arity: int) -> bool:
    return arity == 2 or bool(_ROLE_PREDICATE.fullmatch(predicate))


def extract_symbols(model: PartialModel) -> list[str]:
    """Word-like symbols of the model in first-derivation order.

    Term structure is discarded: the output is the unique predicate and
    constant/function names, minus Skolem names (those ``fol.is_skolem``
    accepts) and relation predicates (binary ones, the generated ``inv_*``
    predicates among them, and semantic-parser role predicates such as
    ``r1Actor``), ordered by first appearance in the trace.  A unary
    ``inv_*`` concept is a word like any other.

    Reads the model's rows and term keys, not its trace.  Each distinct
    term id is walked once: a second walk would add no name, since a
    term's walk adds every name under it.
    """
    out: list[str] = []
    seen: set[str] = set()
    keys = model.terms.keys
    walked: set[int] = set()

    def add(name: str):  # a Skolem name goes into seen, never into out
        if name not in seen:
            seen.add(name)
            if not is_skolem(name):
                out.append(name)

    for predicate, ids in zip(model.predicates, model.arguments):
        if predicate not in seen and not _is_relation_predicate(predicate, len(ids)):
            add(predicate)
        stack = list(reversed(ids))
        while stack:
            i = stack.pop()
            if i in walked:
                continue
            walked.add(i)
            name, args = keys[i]
            add(name)
            if args:
                stack.extend(reversed(args))
    return out


# ------------------------------------------------------------ explanation


def explain(model: PartialModel, target: Atom) -> str:
    """Human-readable derivation tree for an atom of the model.

    Renders the target and, indented in preorder, the premises it was
    derived from, down to input facts.  A derived atom's premises are
    rendered once: a later occurrence is one line marked ``shown above``,
    so the text grows with the trace, not with the number of paths through
    it.  Deterministic for a fixed trace.
    """
    position = model.positions.get(target)
    if position is None:
        raise AtomNotInModel(f"{format_atom(target)} is not in the model")
    lines: list[str] = []
    shown: set[int] = set()
    stack = [(position, 0)]
    while stack:
        position, depth = stack.pop()
        step = model.trace[position]
        if step.clause_origin is None:
            source = "input"
        elif position in shown:
            source = f"clause {step.clause_origin}, shown above"
        else:
            source = f"clause {step.clause_origin}"
            shown.add(position)
            stack.extend((p, depth + 1) for p in reversed(step.premises))
        lines.append("  " * depth + f"{format_atom(step.derived)}   [{source}]")
    return "\n".join(lines)


def trace_json(model: PartialModel) -> str:
    """Trace as JSON: completeness, the bounds that cut the model, and per
    step the index, atom, clause id and premise indices."""
    rows = [{"step": i, "atom": format_atom(s.derived),
             "clause": s.clause_origin, "premises": list(s.premises)}
            for i, s in enumerate(model.trace)]
    return json.dumps({"complete": model.complete, "cut_by": list(model.cut_by),
                       "steps": rows}, indent=2)
