import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from corg import Triple
from corg.errors import NegatedUnsupported, ParseError, UnsupportedFragment
from corg.fol import (And, Atom, Clause, Constant, Exists, Forall, Function,
                      Implies, Not, Or, Variable, clausify, format_formula,
                      is_closed, parse_fol, parse_tptp, symbols, to_tptp,
                      translate_existential, translate_factual,
                      translate_inverse, triple_symbols)

X, Y = Variable("X"), Variable("Y")


def unary(pred, term):
    return Atom(pred, (term,))


class TestTranslateFactual:
    def test_sun_causes_light(self):
        f = translate_factual(Triple("sun", "causes", "light"))
        assert f == Atom("causes", (Constant("sun"), Constant("light")))

    def test_multiword_object(self):
        f = translate_factual(Triple("snore", "has_subevent", "annoy_your_spouse"))
        assert f == Atom("has_subevent",
                         (Constant("snore"), Constant("annoy_your_spouse")))

    def test_self_loop(self):
        assert translate_factual(Triple("a", "r", "a")) == \
            Atom("r", (Constant("a"), Constant("a")))

    def test_negated_rejected(self):
        with pytest.raises(NegatedUnsupported):
            translate_factual(Triple("person", "desires", "pain", negated=True))


class TestTranslateExistential:
    def test_sun_causes_light(self):
        f = translate_existential(Triple("sun", "causes", "light"))
        assert f == Forall("X", Implies(
            unary("sun", X),
            Exists("Y", And((Atom("causes", (X, Y)), unary("light", Y))))))

    def test_at_location_predicate_spelling(self):
        f = translate_existential(Triple("grass", "at_location", "ground"))
        assert to_tptp(f, "t4") == \
            "fof(t4, axiom, ! [X] : (grass(X) => ? [Y] : (atlocation(X,Y) & ground(Y))))."

    def test_self_loop(self):
        f = translate_existential(Triple("a", "r", "a"))
        assert to_tptp(f, "t") == \
            "fof(t, axiom, ! [X] : (a(X) => ? [Y] : (r(X,Y) & a(Y))))."

    def test_negated_rejected(self):
        with pytest.raises(NegatedUnsupported):
            translate_existential(Triple("person", "desires", "pain", negated=True))


class TestTranslateInverse:
    def test_shadow_at_location_light(self):
        f = translate_inverse(Triple("shadow", "at_location", "light"))
        assert to_tptp(f, "t2_inv") == \
            "fof(t2_inv, axiom, ! [X] : (light(X) => ? [Y] : (inv_atlocation(X,Y) & shadow(Y))))."

    def test_sun_causes_light(self):
        f = translate_inverse(Triple("sun", "causes", "light"))
        assert f == Forall("X", Implies(
            unary("light", X),
            Exists("Y", And((Atom("inv_causes", (X, Y)), unary("sun", Y))))))

    def test_self_loop(self):
        f = translate_inverse(Triple("a", "r", "a"))
        assert to_tptp(f, "t") == \
            "fof(t, axiom, ! [X] : (a(X) => ? [Y] : (inv_r(X,Y) & a(Y))))."


_CONCEPTS = st.sampled_from(["sun", "light", "causes", "atlocation", "a"]) \
    | st.from_regex(r"[a-z][a-z0-9_]{0,8}", fullmatch=True)
_RELATIONS = st.sampled_from(["at_location", "causes", "is_a"]) \
    | st.from_regex(r"[a-z][a-z_]{0,8}", fullmatch=True)


class TestTripleSymbols:
    @settings(max_examples=300, derandomize=True, database=None)
    @given(_CONCEPTS, _RELATIONS, _CONCEPTS)
    @example("a", "r", "a")
    @example("shadow", "at_location", "light")
    @example("sun", "causes", "causes")
    def test_equals_symbols_of_every_translation(self, s, r, o):
        t = Triple(s, r, o)
        assert symbols(translate_existential(t)) == triple_symbols(t)
        assert symbols(translate_factual(t)) == triple_symbols(t)
        assert symbols(translate_inverse(t)) == triple_symbols(t, inverse=True)

    def test_inverse_predicate(self):
        assert triple_symbols(Triple("shadow", "at_location", "light"), inverse=True) \
            == {"light", "inv_atlocation", "shadow"}


class TestClausify:
    def test_existential_rule(self):
        f = translate_existential(Triple("sun", "causes", "light"))
        sk = Function("sk_t1_0", (X,))
        assert clausify(f, "t1") == [
            Clause((unary("sun", X),), (Atom("causes", (X, sk)),), "t1"),
            Clause((unary("sun", X),), (unary("light", sk),), "t1"),
        ]

    def test_nested_existential_becomes_ground_facts(self):
        f = parse_fol("exists A (sun(A) & exists B (r1Actor(B,A) & rise(B)))")
        sk0, sk1 = Constant("sk_q_0"), Constant("sk_q_1")
        assert clausify(f, "q") == [
            Clause((), (unary("sun", sk0),), "q"),
            Clause((), (Atom("r1Actor", (sk1, sk0)),), "q"),
            Clause((), (unary("rise", sk1),), "q"),
        ]

    def test_ground_atom_unit_clause(self):
        f = Atom("causes", (Constant("sun"), Constant("light")))
        assert clausify(f, "f1") == [Clause((), (f,), "f1")]

    def test_free_variable_rejected(self):
        with pytest.raises(UnsupportedFragment):
            clausify(unary("p", X), "a")

    def test_skolem_names_embed_axiom_id(self):
        f = translate_existential(Triple("grass", "at_location", "ground"))
        clauses = clausify(f, "t4")
        assert "sk_t4_0" in {s for c in clauses for s in symbols(c)}

    def test_determinism(self):
        f = translate_existential(Triple("shadow", "at_location", "ground"))
        assert clausify(f, "t3") == clausify(f, "t3")

    def test_translator_clauses_horn_and_range_restricted(self, fig_graph):
        for i, t in enumerate(fig_graph.triples):
            for f in (translate_existential(t), translate_inverse(t)):
                for c in clausify(f, f"t{i + 1}"):
                    assert c.is_horn()
                    assert c.is_range_restricted()
                    assert len(c.positives) == 1

    def test_shadowed_quantifier_variables_kept_apart(self):
        f = parse_fol("! [X] : (p(X) => ! [X] : (q(X) => r(X)))")
        (clause,) = clausify(f, "a1")
        preds = {a.predicate: a.args for a in clause.negatives}
        assert preds["p"] != preds["q"]

    def test_iff_expands(self):
        f = parse_fol("(p(a) <=> q(a))")
        clauses = clausify(f, "e")
        assert len(clauses) == 2
        assert not clauses[0].is_horn() or clauses[0].is_horn()  # both shapes legal
        assert {len(c.negatives) for c in clauses} == {1}


class TestParse:
    def test_knews_ascii_form(self):
        f = parse_fol("exists A (sun(A) & exists B (r1Actor(B,A) & rise(B)))")
        a, b = Variable("A"), Variable("B")
        assert f == Exists("A", And((
            unary("sun", a),
            Exists("B", And((Atom("r1Actor", (b, a)), unary("rise", b)))))))

    def test_plain_atom(self):
        assert parse_fol("p(a)") == unary("p", Constant("a"))
        assert parse_fol("p") == Atom("p", ())

    def test_tptp_equals_translator_output(self):
        parsed = parse_fol("! [X] : (sun(X) => ? [Y] : (causes(X,Y) & light(Y)))")
        assert parsed == translate_existential(Triple("sun", "causes", "light"))

    def test_uppercase_is_variable_lowercase_constant(self):
        f = parse_fol("p(X,a)")
        assert f == Atom("p", (Variable("X"), Constant("a")))

    def test_bound_lowercase_name_is_variable(self):
        f = parse_fol("exists a (p(a))")
        assert f == Exists("a", unary("p", Variable("a")))

    def test_multi_variable_block(self):
        f = parse_fol("! [X,Y] : p(X,Y)")
        assert f == Forall("X", Forall("Y", Atom("p", (X, Y))))

    def test_syntax_error_position(self):
        with pytest.raises(ParseError) as err:
            parse_fol("p(a,")
        assert err.value.position >= 4

    def test_mixed_connectives_need_parens(self):
        with pytest.raises(ParseError):
            parse_fol("p & q | r")

    def test_chained_implication_rejected(self):
        with pytest.raises(ParseError):
            parse_fol("p => q => r")

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse_fol("p(a) q")

    def test_quoted_names(self):
        f = parse_fol("p('3d_printer')")
        assert f == unary("p", Constant("3d_printer"))

    def test_fof_wrapper_unwrapped(self):
        f = parse_fol("fof(t1, axiom, p(a)).")
        assert f == unary("p", Constant("a"))

    def test_parse_tptp_lines(self):
        text = "fof(a1, axiom, p(a)).\nfof(a2, hypothesis, q(b)).\n"
        annotated = parse_tptp(text)
        assert [(a.name, a.role) for a in annotated] == \
            [("a1", "axiom"), ("a2", "hypothesis")]

    def test_comments_skipped(self):
        f = parse_fol("% a comment\np(a)")
        assert f == unary("p", Constant("a"))


class TestEmit:
    def test_existential_golden(self):
        f = translate_existential(Triple("sun", "causes", "light"))
        assert to_tptp(f, "t1", "axiom") == \
            "fof(t1, axiom, ! [X] : (sun(X) => ? [Y] : (causes(X,Y) & light(Y))))."

    def test_ground_fact(self):
        f = Atom("causes", (Constant("sun"), Constant("light")))
        assert to_tptp(f, "f1", "axiom") == "fof(f1, axiom, causes(sun,light))."

    def test_hypothesis_role(self):
        f = parse_fol("exists A (sun(A) & exists B (r1Actor(B,A) & rise(B)))")
        line = to_tptp(f, "q", "hypothesis")
        assert line == \
            "fof(q, hypothesis, ? [A] : (sun(A) & ? [B] : (r1Actor(B,A) & rise(B))))."

    def test_clause_emission(self):
        f = translate_existential(Triple("sun", "causes", "light"))
        lines = [to_tptp(c, f"t1_c{i}") for i, c in enumerate(clausify(f, "t1"))]
        assert lines == [
            "cnf(t1_c0, axiom, (~sun(X) | causes(X,sk_t1_0(X)))).",
            "cnf(t1_c1, axiom, (~sun(X) | light(sk_t1_0(X)))).",
        ]

    def test_quoting_non_word_names(self):
        f = unary("p", Constant("3d_printer"))
        assert to_tptp(f, "n") == "fof(n, axiom, p('3d_printer'))."
        assert parse_fol(to_tptp(f, "n")) == f

    def test_negation_formats(self):
        assert format_formula(Not(Atom("p", ()))) == "~p"
        assert format_formula(Not(And((Atom("p", ()), Atom("q", ()))))) == "~(p & q)"


def random_formula(rng, depth=0):
    preds = ["p", "q", "r"]
    consts = [Constant("a"), Constant("b")]
    if depth > 2 or rng.random() < 0.35:
        args = tuple(rng.choice(consts) for _ in range(rng.randrange(0, 3)))
        return Atom(rng.choice(preds), args)
    kind = rng.randrange(5)
    if kind == 0:
        return Not(random_formula(rng, depth + 1))
    if kind == 1:
        return And(tuple(random_formula(rng, depth + 1) for _ in range(rng.randrange(2, 4))))
    if kind == 2:
        return Or(tuple(random_formula(rng, depth + 1) for _ in range(rng.randrange(2, 4))))
    if kind == 3:
        return Implies(random_formula(rng, depth + 1), random_formula(rng, depth + 1))
    var = rng.choice(["U", "V"])
    body = random_formula(rng, depth + 1)
    ctor = Forall if rng.random() < 0.5 else Exists
    return ctor(var, body)


class TestRoundTrip:
    def test_translators_round_trip(self, fig_graph):
        for t in fig_graph.triples:
            for f in (translate_factual(t), translate_existential(t),
                      translate_inverse(t)):
                assert parse_fol(to_tptp(f, "x")) == f

    def test_random_formulas_round_trip(self):
        rng = random.Random(2024)
        for _ in range(300):
            f = random_formula(rng)
            assert parse_fol(to_tptp(f, "n", "axiom")) == f

    def test_closedness_checker(self):
        assert is_closed(parse_fol("! [X] : p(X)"))
        assert not is_closed(Atom("p", (X,)))


class TestSymbols:
    def test_symbols_of_rule(self):
        f = translate_existential(Triple("sun", "causes", "light"))
        assert symbols(f) == frozenset({"sun", "causes", "light"})

    def test_symbols_include_constants_and_functions(self):
        f = unary("p", Function("f", (Constant("c"),)))
        assert symbols(f) == frozenset({"p", "f", "c"})
