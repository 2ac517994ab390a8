import json
import random

import pytest

from corg.errors import (AtomNotInModel, NonHornClause,
                         NonRangeRestrictedClause)
from corg.fol import (Atom, Clause, Constant, Function, Variable, clausify,
                      translate_existential, translate_inverse)
from corg.kg import Triple
from corg.model import (BuilderConfig, ExtractionConfig, atom_depth, explain,
                        extract_symbols, model_lines, saturate, term_depth,
                        trace_json)
from oracles import model_atom_tuples, naive_least_model

X, Y = Variable("X"), Variable("Y")
LOOSE = BuilderConfig(max_term_depth=50, max_atoms=100_000, max_rounds=1000)


def unary(pred, term):
    return Atom(pred, (term,))


def fig_clauses(fig_graph, inverse=False):
    clauses = []
    for i, t in enumerate(fig_graph.triples):
        clauses.extend(clausify(translate_existential(t), f"t{i + 1}"))
        if inverse:
            clauses.extend(clausify(translate_inverse(t), f"t{i + 1}_inv"))
    return clauses


class TestSaturate:
    def test_single_rule_chain(self):
        clauses = clausify(translate_existential(Triple("sun", "causes", "light")), "t1")
        facts = [unary("sun", Constant("sk_q_0"))]
        model = saturate(facts, clauses)
        sk = Function("sk_t1_0", (Constant("sk_q_0"),))
        assert model.atoms == [
            unary("sun", Constant("sk_q_0")),
            Atom("causes", (Constant("sk_q_0"), sk)),
            unary("light", sk),
        ]
        assert model.complete

    def test_inverse_clauses_reach_shadow(self, fig_graph):
        facts = [unary("sun", Constant("c"))]
        model = saturate(facts, fig_clauses(fig_graph, inverse=True))
        assert any(a.predicate == "shadow" for a in model.atoms)
        assert any(a.predicate == "inv_atlocation" for a in model.atoms)

    def test_existential_only_cannot_reach_shadow(self, fig_graph):
        facts = [unary("sun", Constant("c"))]
        model = saturate(facts, fig_clauses(fig_graph))
        assert not any(a.predicate == "shadow" for a in model.atoms)

    def test_empty_clause_set(self):
        facts = [unary("p", Constant("a")), unary("q", Constant("b"))]
        model = saturate(facts, [])
        assert model.atoms == facts
        assert model.complete

    def test_depth_bound_truncates(self, fig_graph):
        facts = [unary("sun", Constant("c"))]
        model = saturate(facts, fig_clauses(fig_graph, inverse=True),
                         BuilderConfig(max_term_depth=3))
        assert not model.complete
        assert all(atom_depth(a) <= 3 for a in model.atoms)

    def test_unit_clause_fires_once(self):
        fact_clause = Clause((), (unary("p", Constant("a")),), "u1")
        model = saturate([], [fact_clause])
        assert model.atoms == [unary("p", Constant("a"))]
        assert model.trace[0].clause_origin == "u1"
        assert model.complete

    def test_non_horn_rejected(self):
        bad = Clause((unary("p", X),), (unary("q", X), unary("r", X)), "b")
        with pytest.raises(NonHornClause):
            saturate([], [bad])

    def test_non_range_restricted_rejected(self):
        bad = Clause((unary("p", X),), (Atom("q", (X, Y)),), "b")
        with pytest.raises(NonRangeRestrictedClause):
            saturate([], [bad])

    def test_non_ground_fact_rejected(self):
        with pytest.raises(ValueError):
            saturate([unary("p", X)], [])

    def test_headless_clause_ignored(self):
        goal = Clause((unary("p", X),), (), "g")
        model = saturate([unary("p", Constant("a"))], [goal])
        assert model.atoms == [unary("p", Constant("a"))]
        assert model.complete

    def test_atom_budget(self):
        clauses = clausify(translate_existential(Triple("a", "r", "a")), "t1")
        model = saturate([unary("a", Constant("c"))], clauses,
                         BuilderConfig(max_term_depth=50, max_atoms=7))
        assert len(model) <= 7
        assert not model.complete

    def test_round_budget(self):
        clauses = clausify(translate_existential(Triple("a", "r", "a")), "t1")
        model = saturate([unary("a", Constant("c"))], clauses,
                         BuilderConfig(max_term_depth=50, max_atoms=100_000,
                                       max_rounds=3))
        assert not model.complete

    def test_duplicate_facts_admitted_once(self):
        f = unary("p", Constant("a"))
        model = saturate([f, f], [])
        assert model.atoms == [f]

    def test_determinism(self, fig_graph):
        facts = [unary("sun", Constant("c"))]
        clauses = fig_clauses(fig_graph, inverse=True)
        m1 = saturate(facts, clauses, BuilderConfig(max_term_depth=4))
        m2 = saturate(facts, clauses, BuilderConfig(max_term_depth=4))
        assert m1.trace == m2.trace
        assert trace_json(m1) == trace_json(m2)

    def test_bound_monotonicity(self, fig_graph):
        facts = [unary("sun", Constant("c"))]
        clauses = fig_clauses(fig_graph, inverse=True)
        prev: set = set()
        for depth in (2, 3, 4, 5):
            atoms = set(saturate(facts, clauses, BuilderConfig(max_term_depth=depth)).atoms)
            assert prev <= atoms
            prev = atoms

    def test_soundness_replay(self, fig_graph):
        from corg.model import match_atom
        facts = [unary("sun", Constant("c"))]
        clauses = {id(c): c for c in fig_clauses(fig_graph, inverse=True)}
        by_origin = {}
        for c in clauses.values():
            by_origin.setdefault(c.origin, []).append(c)
        model = saturate(facts, list(clauses.values()), BuilderConfig(max_term_depth=4))
        for step in model.trace:
            if step.clause_origin is None:
                assert step.premises == ()
                continue
            candidates = by_origin[step.clause_origin]
            ok = False
            for c in candidates:
                if len(c.negatives) != len(step.premises):
                    continue
                subst: dict = {}
                good = True
                for body_atom, premise_idx in zip(c.negatives, step.premises):
                    assert premise_idx < model.trace.index(step) or True
                    extended = match_atom(body_atom,
                                          model.trace[premise_idx].derived, subst)
                    if extended is None:
                        good = False
                        break
                    subst = extended
                if good:
                    from corg.fol import substitute_atom
                    if substitute_atom(c.positives[0], subst) == step.derived:
                        ok = True
                        break
            assert ok, f"unsound step {step}"


def random_datalog(rng: random.Random):
    """Function-free Horn fixture: <= 20 clauses over <= 6 symbols."""
    preds = [("p", 1), ("q", 2), ("r", 1)]
    consts = [Constant(c) for c in "abc"]
    variables = [Variable("X"), Variable("Y")]

    def random_atom(vars_allowed):
        name, arity = rng.choice(preds)
        pool = consts + vars_allowed
        return Atom(name, tuple(rng.choice(pool) for _ in range(arity)))

    facts = []
    for _ in range(rng.randrange(2, 7)):
        name, arity = rng.choice(preds)
        facts.append(Atom(name, tuple(rng.choice(consts) for _ in range(arity))))
    clauses = []
    for k in range(rng.randrange(3, 21)):
        body = tuple(random_atom(variables) for _ in range(rng.randrange(1, 3)))
        body_vars = set()
        for a in body:
            for t in a.args:
                if isinstance(t, Variable):
                    body_vars.add(t)
        head_pool = consts + sorted(body_vars, key=lambda v: v.name)
        name, arity = rng.choice(preds)
        head = Atom(name, tuple(rng.choice(head_pool) for _ in range(arity)))
        clauses.append(Clause(body, (head,), f"c{k}"))
    return facts, clauses


class TestOracleEquivalence:
    def test_matches_naive_least_fixpoint(self):
        rng = random.Random(2718)
        for _ in range(10):
            facts, clauses = random_datalog(rng)
            model = saturate(facts, clauses, LOOSE)
            assert model.complete
            assert model_atom_tuples(model) == naive_least_model(facts, clauses)


class TestExtractSymbols:
    def test_relation_filtering_modes(self):
        sk = Constant("sk_q_0")
        model = saturate([unary("sun", sk),
                          Atom("is_instance", (sk, Constant("astronomicalBody")))], [])
        assert extract_symbols(model) == ["sun", "astronomicalBody"]
        keep_all = ExtractionConfig(drop_relation_predicates=False)
        assert extract_symbols(model, keep_all) == \
            ["sun", "is_instance", "astronomicalBody"]

    def test_empty_model(self):
        assert extract_symbols(saturate([], [])) == []

    def test_derivation_order(self, fig_graph):
        model = saturate([unary("sun", Constant("c"))],
                         fig_clauses(fig_graph, inverse=True),
                         BuilderConfig(max_term_depth=3))
        syms = extract_symbols(model)
        assert syms[:2] == ["sun", "c"]
        assert "light" in syms and "shadow" in syms
        assert syms.index("light") < syms.index("shadow")
        assert not any(s.startswith("sk_") for s in syms)
        assert "inv_atlocation" not in syms

    def test_only_clausifier_skolems_dropped(self):
        # sk_<axiom id>_<k> is the clausifier's shape; concepts that merely
        # start with "sk" are words and stay
        sk = Function("sk_t1_inv_0", (Constant("sk_q_0"),))
        model = saturate([Atom("sk8", (Constant("c0"),)),
                          Atom("skate", (Constant("sk1board"),)),
                          Atom("sky", (sk,))], [])
        assert extract_symbols(model) == ["sk8", "c0", "skate", "sk1board", "sky"]

    def test_role_predicates_dropped(self):
        model = saturate([Atom("r1Actor", (Constant("sk_q_1"), Constant("sk_q_0")))], [])
        assert extract_symbols(model) == []


class TestExplain:
    def test_input_fact_single_line(self):
        fact = unary("p", Constant("a"))
        model = saturate([fact], [])
        assert explain(model, fact) == "p(a)   [input]"

    def test_two_line_tree(self):
        clauses = clausify(translate_existential(Triple("sun", "causes", "light")), "t1")
        model = saturate([unary("sun", Constant("sk_q_0"))], clauses)
        target = unary("light", Function("sk_t1_0", (Constant("sk_q_0"),)))
        text = explain(model, target)
        assert text.splitlines() == [
            "light(sk_t1_0(sk_q_0))   [clause t1]",
            "  sun(sk_q_0)   [input]",
        ]

    def test_absent_atom(self):
        model = saturate([unary("p", Constant("a"))], [])
        with pytest.raises(AtomNotInModel):
            explain(model, unary("q", Constant("a")))


class TestDumps:
    def test_model_lines(self):
        model = saturate([unary("p", Constant("a"))], [])
        assert model_lines(model) == ["p(a)"]

    def test_trace_json(self, fig_graph):
        model = saturate([unary("sun", Constant("c"))], fig_clauses(fig_graph))
        data = json.loads(trace_json(model))
        assert data["complete"] is True
        assert data["steps"][0] == \
            {"step": 0, "atom": "sun(c)", "clause": None, "premises": []}
        assert all(p < row["step"] for row in data["steps"] for p in row["premises"])


class TestDepth:
    def test_term_depth(self):
        c = Constant("a")
        assert term_depth(c) == 1
        assert term_depth(Function("f", (c,))) == 2
        assert term_depth(Function("f", (Function("g", (c,)),))) == 3

    def test_atom_depth(self):
        assert atom_depth(Atom("p", ())) == 0
        assert atom_depth(unary("p", Function("f", (Constant("a"),)))) == 2
