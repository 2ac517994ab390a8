import json
import random
from functools import cached_property

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corg.errors import (AtomNotInModel, NonHornClause,
                         NonRangeRestrictedClause)
from corg.fol import (Atom, Clause, Constant, Function, Variable, clausify,
                      format_atom, translate_existential, translate_inverse)
from corg.kg import Triple
from corg.model import (BuilderConfig, PartialModel, explain, extract_symbols,
                        saturate, trace_json)
from oracles import (atom_depth, match_atom, model_atom_tuples,
                     naive_least_model, reference_extract_symbols,
                     reference_saturate, substitute_atom)

X, Y = Variable("X"), Variable("Y")
LOOSE = BuilderConfig(max_term_depth=50, max_atoms=100_000, max_rounds=1000)


def unary(pred, term):
    return Atom(pred, (term,))


def fig_clauses(fig_graph, inverse=False):
    clauses = []
    for i, t in enumerate(fig_graph):
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
        assert model.cut_by == ("depth",)
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

    def test_bad_clause_raises_before_a_non_ground_fact(self):
        valid = Clause((unary("q", X),), (unary("r", X),), "v")
        non_horn = Clause((unary("p", X),), (unary("q", X), unary("r", X)), "b")
        with pytest.raises(NonHornClause):
            saturate([unary("p", X)], [valid, non_horn])

    def test_invalid_clause_raises_on_every_call(self):
        non_horn = Clause((unary("p", X),), (unary("q", X), unary("r", X)), "b")
        unrestricted = Clause((unary("p", X),), (Atom("q", (X, Y)),), "b")
        for _ in range(2):
            with pytest.raises(NonHornClause):
                saturate([], [non_horn])
            with pytest.raises(NonRangeRestrictedClause):
                saturate([], [unrestricted])

    def test_clause_checked_once_per_object(self, fig_graph, monkeypatch):
        calls = []
        check = Clause.is_range_restricted
        monkeypatch.setattr(Clause, "is_range_restricted",
                            lambda c: calls.append(c) or check(c))
        clauses = fig_clauses(fig_graph, inverse=True)
        for _ in range(3):
            saturate([unary("sun", Constant("c"))], clauses)
        assert len(calls) == len(clauses)

    def test_non_ground_fact_rejected(self):
        deep = unary("p", Function("f", (Function("g", (X,)),)))
        for fact in (unary("p", X), deep, Atom("p", (Constant("a"), X))):
            with pytest.raises(ValueError, match="not ground"):
                saturate([fact], [])

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
        assert model.cut_by == ("atoms",)

    def test_round_budget(self):
        clauses = clausify(translate_existential(Triple("a", "r", "a")), "t1")
        model = saturate([unary("a", Constant("c"))], clauses,
                         BuilderConfig(max_term_depth=50, max_atoms=100_000,
                                       max_rounds=3))
        assert not model.complete
        assert model.cut_by == ("rounds",)

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


# Besides plain names: relation predicates extract_symbols drops (inv_*,
# role predicates of either arity), clausifier Skolem names, and names that
# only look like either.
PREDICATES = (("p", 1), ("q", 1), ("r", 2), ("inv_q", 1), ("r1Actor", 2),
              ("r2Theme", 1), ("r1actor", 1), ("sk_t1_0", 1))
GROUND = (Constant("a"), Constant("b"), Constant("sk_q_0"), Constant("sk_a"),
          Constant("sk_1"))
FUNCTIONS = (("f", 1), ("g", 1), ("h", 2), ("sk_t1_0", 1), ("sk_t2_inv_1", 1),
             ("sk8", 1))


def _variables(t) -> set:
    if isinstance(t, Variable):
        return {t}
    if isinstance(t, Function):
        return set().union(*(_variables(a) for a in t.args))
    return set()


def random_horn(pick):
    """Horn program with function terms and bounds small enough to cut it.

    ``pick(options)`` returns one element of a sequence (a range for
    integers).  Bodies have 0-2 atoms, some clauses reuse an earlier
    clause's body, some are headless, and heads and bodies may hold
    function terms nested up to two levels, over the names above.
    """
    def term(pool, levels=2):
        if levels and pick((False, True)):
            name, arity = pick(FUNCTIONS)
            return Function(name, tuple(term(pool, levels - 1) for _ in range(arity)))
        return pick(pool)

    def atom(pool):
        name, arity = pick(PREDICATES)
        return Atom(name, tuple(term(pool) for _ in range(arity)))

    facts = [atom(GROUND) for _ in range(pick(range(5)))]
    clauses: list[Clause] = []
    for k in range(pick(range(8))):
        shape = pick(("new", "shared", "unit", "headless"))
        if shape == "shared" and clauses:
            body = pick(clauses).negatives
        elif shape == "unit":
            body = ()
        else:
            body = tuple(atom(GROUND + (X, Y)) for _ in range(pick(range(1, 3))))
        body_vars = set().union(*(_variables(t) for a in body for t in a.args))
        head_pool = GROUND + tuple(sorted(body_vars, key=lambda v: v.name))
        heads = () if shape == "headless" else (atom(head_pool),)
        clauses.append(Clause(body, heads, f"c{k}"))
    bounds = (pick(range(1, 5)), pick(range(1, 31)), pick(range(1, 6)))
    return facts, clauses, bounds


def assert_matches_reference(facts, clauses, bounds):
    depth, atoms, rounds = bounds
    model = saturate(facts, clauses, BuilderConfig(depth, atoms, rounds))
    ref = reference_saturate(facts, clauses, depth, atoms, rounds)
    assert [(format_atom(s.derived), s.clause_origin, s.premises)
            for s in model.trace] == \
        [(format_atom(a), origin, premises) for a, origin, premises in ref.trace]
    assert model.atoms == [a for a, _, _ in ref.trace]
    assert model.complete == ref.complete
    assert model.cut_by == ref.cut_by
    return model


@st.composite
def horn_programs(draw):
    return random_horn(lambda options: draw(st.sampled_from(options)))


class TestOracleEquivalence:
    def test_matches_naive_least_fixpoint(self):
        rng = random.Random(2718)
        for _ in range(10):
            facts, clauses = random_datalog(rng)
            model = saturate(facts, clauses, LOOSE)
            assert model.complete
            assert model_atom_tuples(model) == naive_least_model(facts, clauses)

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(horn_programs())
    def test_trace_matches_reference_chainer(self, program):
        assert_matches_reference(*program)

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(horn_programs())
    def test_extract_symbols_matches_reference(self, program):
        facts, clauses, bounds = program
        model = saturate(facts, clauses, BuilderConfig(*bounds))
        symbols = extract_symbols(model)  # before the trace is built
        assert symbols == reference_extract_symbols(model.atoms)

    def test_reference_agreement_reaches_every_cut(self):
        rng = random.Random(1912)
        seen = set()
        for _ in range(400):
            seen.update(assert_matches_reference(*random_horn(rng.choice)).cut_by)
        assert seen == {"depth", "atoms", "rounds"}


class TestExtractSymbols:
    def test_relation_filtering_modes(self):
        sk = Constant("sk_q_0")
        model = saturate([unary("sun", sk),
                          Atom("is_instance", (sk, Constant("astronomicalBody")))], [])
        assert extract_symbols(model) == ["sun", "astronomicalBody"]

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

    def test_premises_in_body_order(self):
        a = Constant("a")
        clauses = [Clause((unary("p", X), unary("q", X)), (unary("r", X),), "c1"),
                   Clause((unary("r", X), unary("p", X)), (unary("s", X),), "c2")]
        model = saturate([unary("p", a), unary("q", a)], clauses)
        assert explain(model, unary("s", a)).splitlines() == [
            "s(a)   [clause c2]",
            "  r(a)   [clause c1]",
            "    p(a)   [input]",
            "    q(a)   [input]",
            "  p(a)   [input]",
        ]

    @staticmethod
    def chain(n):
        """A model deriving p1(a) ... p<n>(a) from p0(a), one per round."""
        clauses = [Clause((unary(f"p{i}", X),), (unary(f"p{i + 1}", X),), f"c{i}")
                   for i in range(n)]
        return saturate([unary("p0", Constant("a"))], clauses,
                        BuilderConfig(max_rounds=n + 5))

    def test_long_chain(self):
        model = self.chain(1500)
        assert model.complete and len(model) == 1501
        lines = explain(model, unary("p1500", Constant("a"))).splitlines()
        assert lines[0] == "p1500(a)   [clause c1499]"
        assert lines[1499] == "  " * 1499 + "p1(a)   [clause c0]"
        assert lines[1500] == "  " * 1500 + "p0(a)   [input]"
        assert len(lines) == 1501

    def test_shared_premises_expanded_once(self):
        # p<i+1> from p<i> and q<i>, q<i> from p<i>: a tree of every path
        # doubles with each level (49,150 lines at 14 levels)
        def lines(n):
            clauses = [c for i in range(n) for c in (
                Clause((unary(f"p{i}", X), unary(f"q{i}", X)), (unary(f"p{i + 1}", X),),
                       f"c{i}"),
                Clause((unary(f"p{i}", X),), (unary(f"q{i}", X),), f"d{i}"))]
            model = saturate([unary("p0", Constant("a"))], clauses,
                             BuilderConfig(max_rounds=2 * n + 5))
            assert model.complete
            return explain(model, unary(f"p{n}", Constant("a"))).splitlines(), len(model)

        text, atoms = lines(14)
        assert text[:4] == ["p14(a)   [clause c13]", "  p13(a)   [clause c12]",
                            "    p12(a)   [clause c11]", "      p11(a)   [clause c10]"]
        assert text[-2:] == ["  q13(a)   [clause d13]", "    p13(a)   [clause c12, shown above]"]
        for n in (3, 7, 14):
            text, atoms = lines(n)
            assert len(text) == 3 * n + 1 < 2 * atoms

    def test_index_built_once_per_model(self, monkeypatch):
        built = []
        build = PartialModel.positions.func
        counted = cached_property(lambda model: built.append(model) or build(model))
        counted.__set_name__(PartialModel, "positions")
        monkeypatch.setattr(PartialModel, "positions", counted)
        model = self.chain(40)
        texts = [explain(model, atom) for atom in model.atoms]
        assert texts[-1].count("\n") == 40
        assert built == [model]


class TestInternDictReleased:
    def test_returned_model_reads_without_the_intern_dict(self, fig_graph):
        sun = unary("sun", Constant("c"))
        model = saturate([sun], fig_clauses(fig_graph))
        assert not hasattr(model.terms, "ids")
        light = unary("light", Function("sk_t1_0", (Constant("c"),)))
        assert model.atoms == [sun, Atom("causes", (Constant("c"), light.args[0])), light]
        assert [step.premises for step in model.trace] == [(), (0,), (0,)]
        assert extract_symbols(model) == ["sun", "c", "light"]
        assert explain(model, light).splitlines() == [
            "light(sk_t1_0(c))   [clause t1]", "  sun(c)   [input]"]
        assert [row["atom"] for row in json.loads(trace_json(model))["steps"]] == \
            ["sun(c)", "causes(c,sk_t1_0(c))", "light(sk_t1_0(c))"]


class TestDumps:
    def test_trace_json(self, fig_graph):
        model = saturate([unary("sun", Constant("c"))], fig_clauses(fig_graph))
        data = json.loads(trace_json(model))
        assert data["complete"] is True
        assert data["cut_by"] == []
        assert data["steps"][0] == \
            {"step": 0, "atom": "sun(c)", "clause": None, "premises": []}
        assert all(p < row["step"] for row in data["steps"] for p in row["premises"])
