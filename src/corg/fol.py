"""First-order logic: AST, triple translation schemes, clausification, TPTP text.

The formula language is the fragment the pipeline needs: quantifiers,
``~ & | => <=>``, and atoms over variables, constants, and function terms.
Text input accepts TPTP-FOF syntax (``! [X] : (p(X) => ...)``) as well as
the ASCII form ``exists A (sun(A) & ...)`` produced by semantic parsers.
Clause form comes from one walk that reads each connective through its
polarity (Nonnengart & Weidenbach, "Computing Small Clause Normal Forms",
2001); the rule shape of the triple translations is built directly.
Every graph triple has a translation: a negated edge (``NotDesires``) has
none, and the graph loader skips it.
Emission is deterministic and re-parseable: ``parse_fol(to_tptp(f)) == f``.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, field

from .errors import ParseError, UnsupportedFragment
from .kg import Triple

# ------------------------------------------------------------------ terms


@dataclass(frozen=True, slots=True)
class Variable:
    name: str


@dataclass(frozen=True, slots=True)
class Constant:
    name: str


@dataclass(frozen=True, slots=True)
class Function:
    name: str
    args: tuple["Term", ...]


Term = Variable | Constant | Function

# --------------------------------------------------------------- formulas


@dataclass(frozen=True, slots=True)
class Atom:
    predicate: str
    args: tuple[Term, ...] = ()


@dataclass(frozen=True, slots=True)
class Not:
    operand: "Formula"


@dataclass(frozen=True, slots=True)
class And:
    operands: tuple["Formula", ...]


@dataclass(frozen=True, slots=True)
class Or:
    operands: tuple["Formula", ...]


@dataclass(frozen=True, slots=True)
class Implies:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True, slots=True)
class Iff:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True, slots=True)
class Forall:
    var: str
    body: "Formula"


@dataclass(frozen=True, slots=True)
class Exists:
    var: str
    body: "Formula"


Formula = Atom | Not | And | Or | Implies | Iff | Forall | Exists


@dataclass(frozen=True, slots=True)
class Clause:
    """Implication-form clause: body (negative literals) and head (positive).

    Clauses produced by the triple translators are Horn (at most one head
    literal) and range-restricted (every head variable occurs in the body).
    ``chainable`` says both, as forward chaining needs; it is computed once,
    when the clause is made, and takes no part in equality or hashing.
    """

    negatives: tuple[Atom, ...]
    positives: tuple[Atom, ...]
    origin: str = ""
    chainable: bool = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "chainable",
                           self.is_horn() and self.is_range_restricted())

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


def is_ground(a: Atom) -> bool:
    """True when no variable occurs in the atom, at any term depth."""
    return not _term_variables(a.args)


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


def symbols(f: Formula | Atom | Clause) -> frozenset[str]:
    """Predicate, constant, and function names occurring in a formula."""
    out: set[str] = set()

    def walk(g):
        if isinstance(g, Atom):
            out.add(g.predicate)
            terms = list(g.args)
            while terms:
                t = terms.pop()
                if not isinstance(t, Variable):
                    out.add(t.name)
                    if isinstance(t, Function):
                        terms.extend(t.args)
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


def translate_factual(t: Triple) -> Formula:
    """Triple as a ground fact: relation(subject, object)."""
    return Atom(relation_predicate(t.relation),
                (Constant(t.subject), Constant(t.object)))


# The variables of every rule translation, shared by all of them.
_X, _Y = Variable("X"), Variable("Y")


def translate_existential(t: Triple) -> Formula:
    """Triple as a rule: anything that is a subject relates to some object.

    (s, p, o) becomes  ! [X] : (s(X) => ? [Y] : (p(X,Y) & o(Y))).
    """
    return Forall("X", Implies(
        Atom(t.subject, (_X,)),
        Exists("Y", And((Atom(relation_predicate(t.relation), (_X, _Y)),
                         Atom(t.object, (_Y,)))))))


def translate_inverse(t: Triple) -> Formula:
    """The edge read object-to-subject, under the reversed predicate.

    (s, p, o) becomes  ! [X] : (o(X) => ? [Y] : (inv_p(X,Y) & s(Y))),
    so chains can follow edges against their stored direction.
    """
    pred = INVERSE_PREFIX + relation_predicate(t.relation)
    return Forall("X", Implies(
        Atom(t.object, (_X,)),
        Exists("Y", And((Atom(pred, (_X, _Y)), Atom(t.subject, (_Y,)))))))


# ----------------------------------------------------------- clausification

_MAX_CLAUSES = 4096
_SKOLEM = re.compile(r"sk_\w+_\d+")


def skolem_name(axiom_id: str, k: int) -> str:
    """The name of the k-th Skolem term of an axiom: ``sk_<axiom_id>_<k>``."""
    return f"sk_{axiom_id}_{k}"


def is_skolem(name: str) -> bool:
    """True for a name spelled as ``skolem_name`` spells one."""
    return bool(_SKOLEM.fullmatch(name))


def clausify(f: Formula, axiom_id: str) -> list[Clause]:
    """Equisatisfiable clause form of a closed formula.

    Deterministic: identical (axiom_id, formula) inputs give identical
    clause lists, byte for byte once emitted.  Raises UnsupportedFragment
    for free variables or shapes whose CNF would explode.

    The rule shape of the existential and inverse triple translations,
    ``! [X] : (a(X) => ? [Y] : (b(X,Y) & c(Y)))`` with X and Y distinct,
    is built directly as ``a(X) -> b(X, sk(X))`` and ``a(X) -> c(sk(X))``,
    sharing the formula's ``a(X)``: the pipeline clausifies every live axiom a
    text selects, and nearly all of them have that shape.  Every other
    formula goes through ``_polarity_clauses``, which gives the rule shape
    the same two clauses.
    """
    return _triple_clauses(f, axiom_id) or _polarity_clauses(f, axiom_id)


def _triple_clauses(f: Formula, axiom_id: str) -> list[Clause] | None:
    """The clauses of the triple-rule shape, or None for other shapes."""
    # ! [X] : (a(X) => ? [Y] : (b(X,Y) & c(Y))) with X and Y distinct
    if type(f) is not Forall or type(f.body) is not Implies:
        return None
    antecedent, exists = f.body.left, f.body.right
    if type(antecedent) is not Atom or type(exists) is not Exists \
            or type(exists.body) is not And or len(exists.body.operands) != 2 \
            or exists.var == f.var:
        return None
    edge, target = exists.body.operands
    if type(edge) is not Atom or type(target) is not Atom or len(antecedent.args) != 1 \
            or len(edge.args) != 2 or len(target.args) != 1:
        return None
    (x,), (x_edge, y_edge), (y,) = antecedent.args, edge.args, target.args
    if not (_is_variable(x, f.var) and _is_variable(x_edge, f.var)
            and _is_variable(y_edge, exists.var) and _is_variable(y, exists.var)):
        return None
    sk = Function(skolem_name(axiom_id, 0), antecedent.args)
    body = (antecedent,)
    return [Clause(body, (Atom(edge.predicate, (x, sk)),), axiom_id),
            Clause(body, (Atom(target.predicate, (sk,)),), axiom_id)]


def _is_variable(t: Term, name: str) -> bool:
    return type(t) is Variable and t.name == name


def _polarity_clauses(f: Formula, axiom_id: str) -> list[Clause]:
    """Clause form by one walk over the formula that carries its polarity.

    ``~a`` flips the polarity, ``a => b`` reads as ``~a | b`` and ``a <=> b``
    as ``(a => b) & (b => a)``.  A universal at positive polarity, or an
    existential at negative, binds a variable, renamed ``X_1``, ``X_2`` ...
    when its name is taken; the dual binds the Skolem term
    ``skolem_name(axiom_id, k)`` over the enclosing universals, k counting Skolem
    terms left to right, so output never depends on translation order.
    """
    if not is_closed(f):
        raise UnsupportedFragment(f"formula has free variables: {sorted(free_variables(f))}")
    skolems = itertools.count()
    used_names: set[str] = set()

    def walk(g, positive, subst, universals, wanted) -> list[list[tuple[bool, Atom]]]:
        """The (sign, atom) literal lists of g's clauses at this polarity.
        A disjunction holds once a part has no clause; its later parts are
        then not wanted and give no clause, but are still walked to number
        their Skolem terms and rename their variables."""
        if isinstance(g, Atom):
            atom = Atom(g.predicate, tuple(_substitute(t, subst) for t in g.args))
            return [[(positive, atom)]] if wanted else []
        if isinstance(g, Not):
            return walk(g.operand, not positive, subst, universals, wanted)
        if isinstance(g, (Forall, Exists)):
            if isinstance(g, Forall) != positive:
                sk = skolem_name(axiom_id, next(skolems))
                term: Term = Function(sk, universals) if universals else Constant(sk)
                return walk(g.body, positive, {**subst, g.var: term}, universals, wanted)
            name = g.var
            n = 0
            while name in used_names:
                n += 1
                name = f"{g.var}_{n}"
            used_names.add(name)
            var = Variable(name)
            return walk(g.body, positive, {**subst, g.var: var}, universals + (var,), wanted)
        if isinstance(g, (And, Or)):
            parts = [(h, positive) for h in g.operands]
            conjunction = isinstance(g, And) == positive
        elif isinstance(g, Implies):
            parts = [(g.left, not positive), (g.right, positive)]
            conjunction = not positive
        elif isinstance(g, Iff):
            parts = [(Implies(g.left, g.right), positive),
                     (Implies(g.right, g.left), positive)]
            conjunction = positive
        else:
            raise TypeError(f"not a formula: {g!r}")
        if conjunction:  # concatenate the parts' clauses; a disjunction crosses them
            out = []
            for h, polarity in parts:
                out.extend(walk(h, polarity, subst, universals, wanted))
                if len(out) > _MAX_CLAUSES:
                    raise UnsupportedFragment("clause explosion during CNF distribution")
            return out
        acc: list[list[tuple[bool, Atom]]] = [[]] if wanted else []
        for h, polarity in parts:
            right = walk(h, polarity, subst, universals, bool(acc))
            if len(acc) * len(right) > _MAX_CLAUSES:
                raise UnsupportedFragment("clause explosion during CNF distribution")
            acc = [left + lits for left in acc for lits in right]
        return acc

    clauses = []
    for lits in walk(f, True, {}, (), True):
        negatives: list[Atom] = []
        positives: list[Atom] = []
        for positive, atom in lits:
            side = positives if positive else negatives
            if atom not in side:
                side.append(atom)
        clauses.append(Clause(tuple(negatives), tuple(positives), axiom_id))
    return clauses


def _substitute(t: Term, subst: dict[str, Term]) -> Term:
    if isinstance(t, Variable):
        return subst[t.name]
    if isinstance(t, Function):
        return Function(t.name, tuple(_substitute(a, subst) for a in t.args))
    return t


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


def to_tptp(f: Formula, name: str, role: str = "axiom") -> str:
    """One annotated TPTP FOF line for a formula."""
    label = name if name.isdigit() else _name_token(name)
    return f"fof({label}, {role}, {format_formula(f)})."


# ----------------------------------------------------------------- parser


@dataclass(frozen=True, slots=True)
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


def _tokenize(text: str, limit: int | None = None) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text) and len(tokens) != limit:
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


# Deepest formula/term nesting the parser accepts.  It keeps the parser and
# the recursive passes after it (clausify, emission) far from Python's
# recursion limit.
MAX_NESTING = 200


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.nesting = 0

    def nest(self, levels: int, pos: int):
        """Enter levels more of nesting; ParseError beyond MAX_NESTING.
        Callers subtract them again once the nested part is parsed."""
        self.nesting += levels
        if self.nesting > MAX_NESTING:
            raise ParseError(f"nested deeper than {MAX_NESTING} levels", pos)

    def peek(self, ahead: int = 0):
        i = self.i + ahead
        return self.tokens[i] if i < len(self.tokens) else (None, None, len(self.text))

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
            self.nest(1, pos)
            operand = self.unitary(bound)
            self.nesting -= 1
            return Not(operand)
        if kind == "op" and value in ("!", "?"):
            self.i += 1
            self.expect_op("[")
            names = [self.name_token()]
            while self.peek()[1] == ",":
                self.i += 1
                names.append(self.name_token())
            self.expect_op("]")
            self.expect_op(":")
            self.nest(len(names), pos)  # one quantifier node per name
            body = self.unitary(bound | set(names))
            self.nesting -= len(names)
            ctor = Forall if value == "!" else Exists
            for n in reversed(names):
                body = ctor(n, body)
            return body
        if kind == "op" and value == "(":
            self.i += 1
            self.nest(1, pos)
            f = self.formula(bound)
            self.nesting -= 1
            self.expect_op(")")
            return f
        if kind == "name" and value in ("forall", "exists") \
                and self.peek(1)[0] in ("name", "quoted"):
            self.i += 1
            var = self.name_token()
            self.nest(1, pos)
            body = self.unitary(bound | {var})
            self.nesting -= 1
            return Forall(var, body) if value == "forall" else Exists(var, body)
        if kind in ("name", "quoted"):
            return self.atom(bound)
        raise ParseError(f"expected a formula, found {value!r}", pos)

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
            self.nest(1, pos)
            args = [self.term(bound)]
            while self.peek()[1] == ",":
                self.i += 1
                args.append(self.term(bound))
            self.nesting -= 1
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


def _looks_annotated(tokens: list[tuple[str, str, int]]) -> bool:
    """Whether a text opens with ``fof(`` or ``cnf(``, as annotated lines do."""
    return len(tokens) > 1 and tokens[0][0] == "name" and tokens[0][1] in ("fof", "cnf") \
        and tokens[1][1] == "("


def parse_fol(text: str) -> Formula:
    """Parse one formula; annotated ``fof(name, role, f).`` wrappers are unwrapped.

    Unquoted uppercase-initial names are variables (TPTP convention); names
    declared by an enclosing quantifier are variables regardless of case.
    Nesting deeper than ``MAX_NESTING`` is a ParseError.
    """
    p = _Parser(text)
    if _looks_annotated(p.tokens):
        f = p.annotated().formula
    else:
        f = p.formula(frozenset())
        if p.peek()[1] == ".":
            p.i += 1
    if not p.at_end():
        raise ParseError(f"trailing input {p.peek()[1]!r}", p.peek()[2])
    return f


def parse_tptp(text: str) -> list[AnnotatedFormula]:
    """Parse a sequence of annotated fof/cnf lines (nesting bounded as in
    ``parse_fol``)."""
    p = _Parser(text)
    out = []
    while not p.at_end():
        out.append(p.annotated())
    return out


def parse_formulas(text: str) -> list[Formula]:
    """The formulas of a formula file.  A file whose first tokens, comments
    aside, are ``fof(`` or ``cnf(`` holds annotated lines, read by
    ``parse_tptp``; any other file holds one bare formula, read by
    ``parse_fol``."""
    if _looks_annotated(_tokenize(text, limit=2)):
        return [a.formula for a in parse_tptp(text)]
    return [parse_fol(text)]
