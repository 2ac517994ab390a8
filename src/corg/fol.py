"""First-order logic: AST, triple translation schemes, clausification, TPTP text.

The formula language is the fragment the pipeline needs: quantifiers,
``~ & | => <=>``, and atoms over variables, constants, and function terms.
Text input accepts TPTP-FOF syntax (``! [X] : (p(X) => ...)``) as well as
the ASCII form ``exists A (sun(A) & ...)`` produced by semantic parsers.
Emission is deterministic and re-parseable: ``parse_fol(to_tptp(f)) == f``.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass

from .errors import NegatedUnsupported, ParseError, UnsupportedFragment
from .kg import Triple

# ------------------------------------------------------------------ terms


@dataclass(frozen=True)
class Variable:
    name: str


@dataclass(frozen=True)
class Constant:
    name: str


@dataclass(frozen=True)
class Function:
    name: str
    args: tuple["Term", ...]


Term = Variable | Constant | Function

# --------------------------------------------------------------- formulas


@dataclass(frozen=True)
class Atom:
    predicate: str
    args: tuple[Term, ...] = ()


@dataclass(frozen=True)
class Not:
    operand: "Formula"


@dataclass(frozen=True)
class And:
    operands: tuple["Formula", ...]


@dataclass(frozen=True)
class Or:
    operands: tuple["Formula", ...]


@dataclass(frozen=True)
class Implies:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Iff:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Forall:
    var: str
    body: "Formula"


@dataclass(frozen=True)
class Exists:
    var: str
    body: "Formula"


Formula = Atom | Not | And | Or | Implies | Iff | Forall | Exists


@dataclass(frozen=True)
class Clause:
    """Implication-form clause: body (negative literals) and head (positive).

    Clauses produced by the triple translators are Horn (at most one head
    literal) and range-restricted (every head variable occurs in the body).
    """

    negatives: tuple[Atom, ...]
    positives: tuple[Atom, ...]
    origin: str = ""

    def is_horn(self) -> bool:
        return len(self.positives) <= 1

    def is_range_restricted(self) -> bool:
        body_vars = set()
        for a in self.negatives:
            body_vars |= _term_variables(a.args)
        for a in self.positives:
            if not _term_variables(a.args) <= body_vars:
                return False
        return True

    def is_ground(self) -> bool:
        return not any(_term_variables(a.args) for a in self.negatives + self.positives)


def _term_variables(args) -> set[str]:
    out: set[str] = set()
    stack = list(args)
    while stack:
        t = stack.pop()
        if isinstance(t, Variable):
            out.add(t.name)
        elif isinstance(t, Function):
            stack.extend(t.args)
    return out


def term_symbols(t: Term) -> set[str]:
    """Constant and function names in a term (variables excluded)."""
    out: set[str] = set()
    stack = [t]
    while stack:
        cur = stack.pop()
        if isinstance(cur, Constant):
            out.add(cur.name)
        elif isinstance(cur, Function):
            out.add(cur.name)
            stack.extend(cur.args)
    return out


def symbols(f: Formula | Atom | Clause) -> frozenset[str]:
    """Predicate, constant, and function names occurring in a formula."""
    out: set[str] = set()

    def walk(g):
        if isinstance(g, Atom):
            out.add(g.predicate)
            for a in g.args:
                out.update(term_symbols(a))
        elif isinstance(g, Not):
            walk(g.operand)
        elif isinstance(g, (And, Or)):
            for op in g.operands:
                walk(op)
        elif isinstance(g, (Implies, Iff)):
            walk(g.left)
            walk(g.right)
        elif isinstance(g, (Forall, Exists)):
            walk(g.body)
        else:
            raise TypeError(f"not a formula: {g!r}")

    if isinstance(f, Clause):
        for a in f.negatives + f.positives:
            walk(a)
    else:
        walk(f)
    return frozenset(out)


def free_variables(f: Formula, bound: frozenset[str] = frozenset()) -> set[str]:
    if isinstance(f, Atom):
        return {v for v in _term_variables(f.args) if v not in bound}
    if isinstance(f, Not):
        return free_variables(f.operand, bound)
    if isinstance(f, (And, Or)):
        out: set[str] = set()
        for op in f.operands:
            out |= free_variables(op, bound)
        return out
    if isinstance(f, (Implies, Iff)):
        return free_variables(f.left, bound) | free_variables(f.right, bound)
    if isinstance(f, (Forall, Exists)):
        return free_variables(f.body, bound | {f.var})
    raise TypeError(f"not a formula: {f!r}")


def is_closed(f: Formula) -> bool:
    return not free_variables(f)


# ----------------------------------------------------- triple translation

# Relation ids whose predicate spelling differs from the snake_case id.
_RELATION_PREDICATES = {"at_location": "atlocation"}

INVERSE_PREFIX = "inv_"


def relation_predicate(relation: str) -> str:
    """Predicate name for a normalized relation id."""
    return _RELATION_PREDICATES.get(relation, relation)


def _check_translatable(t: Triple):
    if t.negated:
        raise NegatedUnsupported(
            f"negated triple ({t.subject}, not_{t.relation}, {t.object}) has no translation")


def triple_symbols(t: Triple, inverse: bool = False) -> frozenset[str]:
    """``symbols()`` of the triple's translation, read off the triple itself.

    Every scheme uses the same three names: subject, predicate and object
    (the inverse reading uses the ``inv_`` predicate instead).
    """
    if inverse:
        return frozenset((t.object, INVERSE_PREFIX + relation_predicate(t.relation),
                          t.subject))
    return frozenset((t.subject, relation_predicate(t.relation), t.object))


def translate_factual(t: Triple) -> Formula:
    """Triple as a ground fact: relation(subject, object)."""
    _check_translatable(t)
    return Atom(relation_predicate(t.relation),
                (Constant(t.subject), Constant(t.object)))


def translate_existential(t: Triple) -> Formula:
    """Triple as a rule: anything that is a subject relates to some object.

    (s, p, o) becomes  ! [X] : (s(X) => ? [Y] : (p(X,Y) & o(Y))).
    """
    _check_translatable(t)
    x, y = Variable("X"), Variable("Y")
    return Forall("X", Implies(
        Atom(t.subject, (x,)),
        Exists("Y", And((Atom(relation_predicate(t.relation), (x, y)),
                         Atom(t.object, (y,)))))))


def translate_inverse(t: Triple) -> Formula:
    """The edge read object-to-subject, under the reversed predicate.

    (s, p, o) becomes  ! [X] : (o(X) => ? [Y] : (inv_p(X,Y) & s(Y))),
    so chains can follow edges against their stored direction.
    """
    _check_translatable(t)
    x, y = Variable("X"), Variable("Y")
    pred = INVERSE_PREFIX + relation_predicate(t.relation)
    return Forall("X", Implies(
        Atom(t.object, (x,)),
        Exists("Y", And((Atom(pred, (x, y)), Atom(t.subject, (y,)))))))


# ----------------------------------------------------------- clausification


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


def clausify(f: Formula, axiom_id: str) -> list[Clause]:
    """Equisatisfiable clause form of a closed formula.

    Deterministic: identical (axiom_id, formula) inputs give identical
    clause lists, byte for byte once emitted.  Raises UnsupportedFragment
    for free variables or shapes whose CNF would explode.
    """
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


# ----------------------------------------------------------------- output

_LOWER_WORD = re.compile(r"[a-z][a-zA-Z0-9_]*\Z")


def _name_token(name: str) -> str:
    if _LOWER_WORD.fullmatch(name):
        return name
    escaped = name.replace("\\", "\\\\").replace("'", "\\'")
    return f"'{escaped}'"


def format_term(t: Term) -> str:
    if isinstance(t, Variable):
        return t.name
    if isinstance(t, Constant):
        return _name_token(t.name)
    return _name_token(t.name) + "(" + ",".join(format_term(a) for a in t.args) + ")"


def format_atom(a: Atom) -> str:
    if not a.args:
        return _name_token(a.predicate)
    return _name_token(a.predicate) + "(" + ",".join(format_term(t) for t in a.args) + ")"


def format_formula(f: Formula) -> str:
    if isinstance(f, Atom):
        return format_atom(f)
    if isinstance(f, Not):
        # And/Or/Implies/Iff render with their own parentheses already
        return "~" + format_formula(f.operand)
    if isinstance(f, And):
        return "(" + " & ".join(format_formula(g) for g in f.operands) + ")"
    if isinstance(f, Or):
        return "(" + " | ".join(format_formula(g) for g in f.operands) + ")"
    if isinstance(f, Implies):
        return "(" + format_formula(f.left) + " => " + format_formula(f.right) + ")"
    if isinstance(f, Iff):
        return "(" + format_formula(f.left) + " <=> " + format_formula(f.right) + ")"
    if isinstance(f, Forall):
        return "! [" + f.var + "] : " + format_formula(f.body)
    if isinstance(f, Exists):
        return "? [" + f.var + "] : " + format_formula(f.body)
    raise TypeError(f"not a formula: {f!r}")


def to_tptp(obj: Formula | Clause, name: str, role: str = "axiom") -> str:
    """One annotated TPTP line: FOF for formulas, CNF for clauses."""
    label = name if name.isdigit() else _name_token(name)
    if isinstance(obj, Clause):
        lits = ["~" + format_atom(a) for a in obj.negatives]
        lits += [format_atom(a) for a in obj.positives]
        body = " | ".join(lits)
        if len(lits) > 1:
            body = "(" + body + ")"
        return f"cnf({label}, {role}, {body})."
    return f"fof({label}, {role}, {format_formula(obj)})."


# ----------------------------------------------------------------- parser


@dataclass(frozen=True)
class AnnotatedFormula:
    name: str
    role: str
    formula: Formula


_TOKEN = re.compile(
    r"\s+|%[^\n]*"
    r"|(?P<quoted>'(?:\\.|[^'\\])+')"
    r"|(?P<name>[a-zA-Z0-9_$]+)"
    r"|(?P<op><=>|=>|[()\[\],:.~&|!?])")

_BINARY_OPS = {"&", "|", "=>", "<=>"}


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup == "quoted":
            raw = m.group()[1:-1]
            value = raw.replace("\\'", "'").replace("\\\\", "\\")
            tokens.append(("quoted", value, pos))
        elif m.lastgroup == "name":
            tokens.append(("name", m.group(), pos))
        elif m.lastgroup == "op":
            tokens.append(("op", m.group(), pos))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else (None, None, len(self.text))

    def advance(self):
        tok = self.peek()
        if tok[0] is None:
            raise ParseError("unexpected end of input", tok[2])
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, value, pos = self.peek()
        if kind != "op" or value != op:
            raise ParseError(f"expected {op!r}, found {value!r}", pos)
        self.i += 1

    def at_end(self) -> bool:
        return self.i >= len(self.tokens)

    # -- grammar --

    def formula(self, bound: frozenset[str]) -> Formula:
        left = self.unitary(bound)
        kind, value, pos = self.peek()
        if kind != "op" or value not in _BINARY_OPS:
            return left
        op = value
        self.i += 1
        if op in ("&", "|"):
            parts = [left, self.unitary(bound)]
            while True:
                kind, value, pos = self.peek()
                if kind == "op" and value == op:
                    self.i += 1
                    parts.append(self.unitary(bound))
                elif kind == "op" and value in _BINARY_OPS:
                    raise ParseError("mixing binary connectives needs parentheses", pos)
                else:
                    break
            return And(tuple(parts)) if op == "&" else Or(tuple(parts))
        right = self.unitary(bound)
        kind, value, pos = self.peek()
        if kind == "op" and value in _BINARY_OPS:
            raise ParseError(f"{op!r} is non-associative; use parentheses", pos)
        return Implies(left, right) if op == "=>" else Iff(left, right)

    def unitary(self, bound: frozenset[str]) -> Formula:
        kind, value, pos = self.peek()
        if kind == "op" and value == "~":
            self.i += 1
            return Not(self.unitary(bound))
        if kind == "op" and value in ("!", "?"):
            self.i += 1
            self.expect_op("[")
            names = [self.name_token()]
            while self.peek()[1] == ",":
                self.i += 1
                names.append(self.name_token())
            self.expect_op("]")
            self.expect_op(":")
            body = self.unitary(bound | set(names))
            ctor = Forall if value == "!" else Exists
            for n in reversed(names):
                body = ctor(n, body)
            return body
        if kind == "op" and value == "(":
            self.i += 1
            f = self.formula(bound)
            self.expect_op(")")
            return f
        if kind == "name" and value in ("forall", "exists") and self.lookahead_is_name():
            self.i += 1
            var = self.name_token()
            body = self.unitary(bound | {var})
            return Forall(var, body) if value == "forall" else Exists(var, body)
        if kind in ("name", "quoted"):
            return self.atom(bound)
        raise ParseError(f"expected a formula, found {value!r}", pos)

    def lookahead_is_name(self) -> bool:
        nxt = self.tokens[self.i + 1] if self.i + 1 < len(self.tokens) else (None, None, 0)
        return nxt[0] in ("name", "quoted")

    def name_token(self) -> str:
        kind, value, pos = self.peek()
        if kind not in ("name", "quoted"):
            raise ParseError(f"expected a name, found {value!r}", pos)
        self.i += 1
        return value

    def atom(self, bound: frozenset[str]) -> Atom:
        pred = self.name_token()
        if self.peek()[1] != "(":
            return Atom(pred, ())
        self.i += 1
        args = [self.term(bound)]
        while self.peek()[1] == ",":
            self.i += 1
            args.append(self.term(bound))
        self.expect_op(")")
        return Atom(pred, tuple(args))

    def term(self, bound: frozenset[str]) -> Term:
        kind, value, pos = self.peek()
        if kind not in ("name", "quoted"):
            raise ParseError(f"expected a term, found {value!r}", pos)
        self.i += 1
        if self.peek()[1] == "(":
            self.i += 1
            args = [self.term(bound)]
            while self.peek()[1] == ",":
                self.i += 1
                args.append(self.term(bound))
            self.expect_op(")")
            return Function(value, tuple(args))
        if kind == "name" and (value in bound or value[0].isupper()):
            return Variable(value)
        return Constant(value)

    def annotated(self) -> AnnotatedFormula:
        kind, value, pos = self.peek()
        if kind != "name" or value not in ("fof", "cnf"):
            raise ParseError("expected fof(...) or cnf(...)", pos)
        self.i += 1
        self.expect_op("(")
        name = self.name_token()
        self.expect_op(",")
        role = self.name_token()
        self.expect_op(",")
        f = self.formula(frozenset())
        self.expect_op(")")
        self.expect_op(".")
        return AnnotatedFormula(name, role, f)


def _looks_annotated(p: _Parser) -> bool:
    kind, value, _ = p.peek()
    if kind != "name" or value not in ("fof", "cnf"):
        return False
    nxt = p.tokens[p.i + 1] if p.i + 1 < len(p.tokens) else (None, None, 0)
    return nxt[1] == "("


def parse_fol(text: str) -> Formula:
    """Parse one formula; annotated ``fof(name, role, f).`` wrappers are unwrapped.

    Unquoted uppercase-initial names are variables (TPTP convention); names
    declared by an enclosing quantifier are variables regardless of case.
    """
    p = _Parser(text)
    if _looks_annotated(p):
        f = p.annotated().formula
    else:
        f = p.formula(frozenset())
        if p.peek()[1] == ".":
            p.i += 1
    if not p.at_end():
        raise ParseError(f"trailing input {p.peek()[1]!r}", p.peek()[2])
    return f


def parse_tptp(text: str) -> list[AnnotatedFormula]:
    """Parse a sequence of annotated fof/cnf lines."""
    p = _Parser(text)
    out = []
    while not p.at_end():
        out.append(p.annotated())
    return out
