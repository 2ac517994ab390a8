import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from corg import KnowledgeGraph, Triple, fol
from corg.embeddings import EmbeddingTable
from corg.errors import ParseError, UnsupportedFragment
from corg.fol import (MAX_NESTING, And, Atom, Clause, Constant, Exists, Forall,
                      Function, Iff, Implies, Not, Or, Variable, clausify,
                      format_formula, is_closed, parse_fol, parse_formulas,
                      parse_tptp, symbols, to_tptp, translate_existential,
                      translate_factual, translate_inverse)
from corg.model import DerivationStep
from corg.pipeline import axiom_id
from corg.selection import TripleColumns, build_index
from oracles import reference_clausify

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
    """Each row of the selection index holds the symbols of its axiom's translation."""

    @staticmethod
    def index_rows(triples):
        columns = TripleColumns(KnowledgeGraph(triples), EmbeddingTable(2, {}),
                                inverse=True)
        idx = build_index(columns.axioms(np.arange(len(triples)))[0], columns.symbols)
        names = list(columns.symbols.ids)
        out = []
        for row in idx.rows.tolist():
            ids = [i for i in row if i >= 0]
            assert len(ids) == len(set(ids))  # a repeat is masked, not counted twice
            out.append({names[i] for i in ids})
        return out

    @settings(max_examples=300, derandomize=True, database=None)
    @given(st.lists(st.tuples(_CONCEPTS, _RELATIONS, _CONCEPTS), min_size=1, max_size=4))
    @example([("a", "r", "a")])
    @example([("shadow", "at_location", "light")])
    @example([("sun", "causes", "causes"), ("inv_causes", "is_a", "atlocation")])
    def test_equals_symbols_of_every_translation(self, rows):
        triples = [Triple(s, r, o) for s, r, o in rows]
        index_rows = self.index_rows(triples)
        for k, t in enumerate(triples):
            assert index_rows[2 * k] == symbols(translate_existential(t)) \
                == symbols(translate_factual(t))
            assert index_rows[2 * k + 1] == symbols(translate_inverse(t))

    def test_inverse_predicate(self):
        assert self.index_rows([Triple("shadow", "at_location", "light")])[1] \
            == {"light", "inv_atlocation", "shadow"}


class TestSlots:
    def test_no_ast_instance_has_a_dict(self):
        atom = unary("sun", Function("f", (X, Constant("c"))))
        instances = [X, Constant("c"), atom.args[0], atom, Not(atom), And((atom, atom)),
                     Or((atom, atom)), Implies(atom, atom), Iff(atom, atom),
                     Forall("X", atom), Exists("X", atom),
                     Clause((atom,), (atom,), "t1"),
                     fol.AnnotatedFormula("f0", "axiom", atom),
                     Triple("sun", "causes", "light"),
                     DerivationStep(atom, None, ())]
        assert len({type(i) for i in instances}) == len(instances)
        for instance in instances:
            assert not hasattr(instance, "__dict__"), type(instance).__name__

    def test_chainable_is_a_field_outside_equality(self):
        horn = Clause((unary("p", X),), (unary("q", X),), "a")
        other = Clause((unary("p", X),), (unary("q", X),), "a")
        assert horn.chainable and horn == other and hash(horn) == hash(other)
        assert "chainable" not in repr(horn)
        assert not Clause((), (unary("q", X),), "b").chainable  # not range-restricted
        assert not Clause((), (unary("q", X), unary("p", X)), "c").chainable  # not Horn


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
        for i, t in enumerate(fig_graph):
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
        p, q = unary("p", Constant("a")), unary("q", Constant("a"))
        assert clausify(parse_fol("(p(a) <=> q(a))"), "e") == [
            Clause((p,), (q,), "e"),
            Clause((q,), (p,), "e"),
        ]


_SHAPE_CONCEPTS = st.sampled_from(["sun", "light", "X", "Y", "x", "sk_t1_0", "inv_causes"]) \
    | st.from_regex(r"[a-zA-Z][a-zA-Z0-9_]{0,8}", fullmatch=True)
_AXIOM_IDS = st.sampled_from(["t1", "t12_inv", "q", "q3", ""]) \
    | st.from_regex(r"t[1-9][0-9]{0,5}(_inv)?", fullmatch=True) | st.text(max_size=6)
_TRANSLATORS = [translate_factual, translate_existential, translate_inverse]


def _rule(var_x, var_y, antecedent_args, edge_args, target_args, extra=()):
    """``! [var_x] : (a(..) => ? [var_y] : (b(..) & c(..) & extra))``."""
    return Forall(var_x, Implies(
        Atom("a", antecedent_args),
        Exists(var_y, And((Atom("b", edge_args), Atom("c", target_args)) + extra))))


A, B = Variable("A"), Variable("B")
# Formulas one step away from the rule shape, each differing in one place.
_NEAR_MISSES = {
    "exists-var-is-forall-var": _rule("X", "X", (X,), (X, X), (X,)),
    "exists-var-is-forall-var-free-y": _rule("X", "X", (X,), (X, Y), (Y,)),
    "extra-conjunct": _rule("X", "Y", (X,), (X, Y), (Y,), (Atom("d", (Y,)),)),
    "constant-in-antecedent": _rule("X", "Y", (Constant("X"),), (X, Y), (Y,)),
    "constant-for-edge-x": _rule("X", "Y", (X,), (Constant("X"), Y), (Y,)),
    "constant-for-edge-y": _rule("X", "Y", (X,), (X, Constant("Y")), (Y,)),
    "constant-in-target": _rule("X", "Y", (X,), (X, Y), (Constant("Y"),)),
    "term-for-edge-y": _rule("X", "Y", (X,), (X, Function("f", (Y,))), (Y,)),
    "swapped-edge-args": _rule("X", "Y", (X,), (Y, X), (Y,)),
    "target-over-x": _rule("X", "Y", (X,), (X, Y), (X,)),
    "antecedent-over-y": _rule("X", "Y", (Y,), (X, Y), (Y,)),
    "binary-antecedent": _rule("X", "Y", (X, X), (X, Y), (Y,)),
    "ternary-edge": _rule("X", "Y", (X,), (X, Y, Y), (Y,)),
    "nullary-target": _rule("X", "Y", (X,), (X, Y), ()),
    "free-variable": _rule("X", "Y", (X,), (X, A), (Y,)),
    "conjuncts-swapped": Forall("X", Implies(Atom("a", (X,)), Exists("Y", And((
        Atom("c", (Y,)), Atom("b", (X, Y))))))),
    "inner-forall": Forall("X", Implies(Atom("a", (X,)), Forall("Y", And((
        Atom("b", (X, Y)), Atom("c", (Y,))))))),
    "or-for-implies": Forall("X", Or((Atom("a", (X,)), Exists("Y", And((
        Atom("b", (X, Y)), Atom("c", (Y,)))))))),
    "outer-exists": Exists("X", Implies(Atom("a", (X,)), Exists("Y", And((
        Atom("b", (X, Y)), Atom("c", (Y,))))))),
    "negated-antecedent": Forall("X", Implies(Not(Atom("a", (X,))), Exists("Y", And((
        Atom("b", (X, Y)), Atom("c", (Y,))))))),
}


def _outcome(clausifier, f, aid):
    try:
        return clausifier(f, aid)
    except UnsupportedFragment as e:
        return str(e)


class TestDirectClausify:
    """``clausify`` builds the rule shape directly; every formula gets exactly
    the clauses of the reference passes."""

    @settings(max_examples=300, derandomize=True, database=None)
    @given(_SHAPE_CONCEPTS, _RELATIONS, _SHAPE_CONCEPTS, st.sampled_from(_TRANSLATORS),
           _AXIOM_IDS, st.booleans())
    @example("a", "r", "a", translate_existential, "t1", False)
    @example("X", "at_location", "Y", translate_inverse, "t7_inv", False)
    @example("Y", "causes", "X", translate_factual, "q", True)
    def test_translations_equal_generic_passes(self, s, r, o, translate, aid, self_loop):
        t = Triple(s, r, s if self_loop else o)
        f = translate(t)
        reference = reference_clausify(f, aid)
        assert clausify(f, aid) == reference
        assert fol._polarity_clauses(f, aid) == reference
        if translate is not translate_factual:
            assert fol._triple_clauses(f, aid) == reference

    def test_rule_clauses_share_the_antecedent(self):
        f = translate_inverse(Triple("sun", "causes", "light"))
        first, second = clausify(f, "t1_inv")
        antecedent = f.body.left
        assert first.negatives[0] is antecedent and second.negatives[0] is antecedent
        assert first.positives[0].args[1].args is antecedent.args

    def test_other_variable_names_match(self):
        f = parse_fol("! [A] : (p(A) => ? [B] : (q(A,B) & r(B)))")
        assert fol._triple_clauses(f, "q") == reference_clausify(f, "q") == [
            Clause((unary("p", A),), (Atom("q", (A, Function("sk_q_0", (A,)))),), "q"),
            Clause((unary("p", A),), (unary("r", Function("sk_q_0", (A,))),), "q"),
        ]

    @pytest.mark.parametrize("name", _NEAR_MISSES)
    @pytest.mark.parametrize("aid", ["t3", "q"])
    def test_near_misses_take_the_generic_path(self, name, aid):
        f = _NEAR_MISSES[name]
        assert fol._triple_clauses(f, aid) is None
        assert _outcome(clausify, f, aid) == _outcome(reference_clausify, f, aid)


_WALK_VARS = ["X", "Y", "Z"]
_WALK_TERMS = st.recursive(
    st.sampled_from([Variable(v) for v in _WALK_VARS] + [Constant("a"), Constant("b")]),
    lambda inner: st.builds(Function, st.sampled_from(["f", "g"]),
                            st.lists(inner, min_size=1, max_size=2).map(tuple)),
    max_leaves=3)
_WALK_ATOMS = st.builds(Atom, st.sampled_from(["p", "q", "r"]),
                        st.lists(_WALK_TERMS, max_size=2).map(tuple))
# 2**13 clauses at positive polarity, past the 4,096 limit; 13 at negative
_WIDE = Or(tuple(And((unary("p", Constant(f"c{k}")), unary("q", Constant(f"c{k}"))))
                 for k in range(13)))


def _walk_leaf(k, atom):
    """Mostly atoms, sometimes the wide disjunction or an empty connective."""
    return {0: _WIDE, 1: And(()), 2: Or(())}.get(k, atom)


def _close(f, universal):
    """f under one quantifier per variable, universal or existential."""
    for var, forall in zip(_WALK_VARS, universal):
        f = Forall(var, f) if forall else Exists(var, f)
    return f


_WALK_FORMULAS = st.recursive(
    st.builds(_walk_leaf, st.integers(0, 24), _WALK_ATOMS),
    lambda inner: st.one_of(
        st.builds(Not, inner),
        st.builds(And, st.lists(inner, min_size=1, max_size=3).map(tuple)),
        st.builds(Or, st.lists(inner, min_size=1, max_size=3).map(tuple)),
        st.builds(Implies, inner, inner),
        st.builds(Iff, inner, inner),
        st.builds(Forall, st.sampled_from(_WALK_VARS), inner),
        st.builds(Exists, st.sampled_from(_WALK_VARS), inner)),
    max_leaves=10)
Z = Variable("Z")


class TestPolarityWalk:
    """The one-walk clausifier gives the clauses of the four reference
    passes, or raises the same UnsupportedFragment message."""

    @settings(max_examples=600, derandomize=True, database=None, deadline=None)
    @given(_WALK_FORMULAS, st.none() | st.lists(st.booleans(), min_size=3, max_size=3),
           _AXIOM_IDS)
    @example(Not(Iff(Forall("X", unary("p", X)), Exists("Y", unary("q", Y)))), [], "i")
    @example(Forall("X", Implies(unary("p", X), Forall("X", Exists("Y", Atom(
        "r", (X, Function("f", (Y,)))))))), [], "s")
    # the disjunction holds once And(()) gives no clause: its later parts
    # give no clause, the wide one does not explode, and Z still takes
    # Skolem index 0, so Y takes 1
    @example(And((Or((And(()), Exists("Z", unary("r", Z)), _WIDE)),
                  Exists("Y", unary("p", Y)))), [], "w")
    def test_equals_reference_passes(self, f, universal, aid):
        if universal is not None:
            f = _close(f, universal)
        assert _outcome(fol._polarity_clauses, f, aid) == _outcome(reference_clausify, f, aid)
        assert _outcome(clausify, f, aid) == _outcome(reference_clausify, f, aid)

    def test_explosion_raises(self):
        with pytest.raises(UnsupportedFragment, match="clause explosion"):
            clausify(_WIDE, "x")
        assert len(clausify(Not(_WIDE), "x")) == 13


_SKOLEM_AXIOM_IDS = st.integers(0, 2**40).map(axiom_id) | st.just("q") \
    | st.integers(1, 99).map(lambda k: f"q{k}")


class TestSkolemNames:
    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(_WALK_FORMULAS, st.lists(st.booleans(), min_size=3, max_size=3),
           _SKOLEM_AXIOM_IDS, st.sampled_from([translate_existential, translate_inverse]))
    def test_emitted_skolem_names_are_skolem(self, f, universal, aid, translate):
        for g in (_close(f, universal), translate(Triple("sun", "causes", "light"))):
            try:
                clauses = clausify(g, aid)
            except UnsupportedFragment:
                continue
            for name in set().union(*map(symbols, clauses)) - symbols(g):
                k = int(name.rpartition("_")[2])
                assert fol.is_skolem(name) and name == fol.skolem_name(aid, k)

    @pytest.mark.parametrize("name", ["sk_a", "sk_1", "sk8", "sk__0", "sun", "sk_t1_x"])
    def test_look_alikes_are_not_skolem(self, name):
        assert not fol.is_skolem(name)


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

    def test_parse_formulas_decides_on_first_tokens(self):
        pa, qb = unary("p", Constant("a")), unary("q", Constant("b"))
        assert parse_formulas("% c\nfof(a1, axiom, p(a)).\ncnf(a2, axiom, q(b)).") == [pa, qb]
        assert parse_formulas("fof (a1, axiom, p(a)).") == [pa]
        assert parse_formulas("% parsed from fof(...) output\np(a).") == [pa]
        assert parse_formulas("scofof(a)") == [unary("scofof", Constant("a"))]
        with pytest.raises(ParseError, match="trailing input"):
            parse_formulas("p(a). fof(a1, axiom, q(b)).")

    def test_comments_skipped(self):
        f = parse_fol("% a comment\np(a)")
        assert f == unary("p", Constant("a"))

    @pytest.mark.parametrize("text", [
        "~" * 5000 + "p(a)",
        "(" * 5000 + "p(a)" + ")" * 5000,
        "p(" + "f(" * 5000 + "a" + ")" * 5001,
        "! [" + ", ".join(f"X{i}" for i in range(5000)) + "] : p(X1)",
        "forall X " * 5000 + "p(X)",
    ])
    def test_deep_nesting_is_a_parse_error(self, text):
        with pytest.raises(ParseError, match="nested deeper than"):
            parse_fol(text)
        with pytest.raises(ParseError, match="nested deeper than"):
            parse_tptp(f"fof(a, axiom, {text}).")

    def test_nesting_at_the_limit_parses_and_clausifies(self):
        f = parse_fol("~" * MAX_NESTING + "p(a)")
        assert parse_fol(to_tptp(f, "a")) == f
        assert clausify(f, "q") == [Clause((), (unary("p", Constant("a")),), "q")]
        g = parse_fol("p(" + "f(" * (MAX_NESTING - 1) + "a" + ")" * MAX_NESTING)
        assert parse_fol(to_tptp(g, "g")) == g


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
        for t in fig_graph:
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
