import dataclasses
import random
from pathlib import Path

from hypothesis import given
from hypothesis import strategies as st

from gradebor import syntax
from gradebor.generator import generate_programs
from gradebor.grades import STAR, frac_perm
from gradebor.machine import EvalError, Heap, Machine
from gradebor.parser import parse_program, parse_term
from gradebor.syntax import (
    Abs, App, FloatLit, NatLit, Pack, Pair, Prim, Promote, RefVal, Term, Uniq,
    UnitVal, Unpack, Var, WithBorrow, alpha_eq, children, free_vars, is_value,
    map_children, refs_of, rename_refs, subst, user_writable,
)
from gradebor.typecheck import CheckError, check_program


def test_free_vars_examples():
    assert free_vars(parse_term(r"\x -> (x, y)")) == {"y"}
    assert free_vars(parse_term("()")) == set()
    t = parse_term("unpack <i, x> = t in x")
    assert free_vars(t) == {"t"}


def test_free_vars_pack_counts_the_identifier():
    assert free_vars(parse_term("pack <i, x>")) == {"i", "x"}


def test_refs_of():
    t = Pair(RefVal("ref1"), Promote(RefVal("ref2")))
    assert refs_of(t) == {"ref1", "ref2"}
    assert refs_of(parse_term(r"\x -> x")) == set()
    assert refs_of(Uniq(RefVal("ref1"))) == {"ref1"}


def test_subst_examples():
    v = UnitVal()
    assert subst(parse_term("(x, y)"), "x", v) == parse_term("((), y)")
    assert subst(parse_term(r"\x -> x"), "x", v) == parse_term(r"\x -> x")
    t = subst(WithBorrow(Var("f"), Var("x")), "x", Uniq(Var("v")))
    assert t == WithBorrow(Var("f"), Uniq(Var("v")))


def test_subst_avoids_capture():
    # substituting y under a binder named y must rename the binder
    t = parse_term(r"\y -> (x, y)")
    out = subst(t, "x", Var("y"))
    assert isinstance(out, Abs)
    assert out.param != "y"
    assert free_vars(out) == {"y"}


def test_rename_refs():
    theta = {"ref1": "ref9"}
    assert rename_refs(theta, Pair(RefVal("ref1"), RefVal("ref1"))) == Pair(RefVal("ref9"), RefVal("ref9"))
    t = parse_term(r"\x -> x")
    assert rename_refs({}, t) == t
    assert rename_refs(theta, t) == t


def test_is_value_examples():
    assert is_value(parse_term(r"(\x -> x, ())"))
    assert not is_value(Var("x"))
    assert is_value(App(Prim("readArray"), RefVal("ref1")))
    assert not is_value(App(App(Prim("readArray"), RefVal("r")), NatLit(0)))
    assert not is_value(App(Prim("newArray"), NatLit(1)))
    assert is_value(Pack("i", Uniq(RefVal("r"))))
    assert is_value(Promote(UnitVal()))
    assert not is_value(Promote(Var("x")))


def test_alpha_equivalence():
    assert parse_term(r"\x -> x") == parse_term(r"\y -> y")
    assert parse_term("let (a, b) = p in (a, b)") == parse_term("let (c, d) = p in (c, d)")
    assert parse_term(r"\x -> y") != parse_term(r"\x -> x")
    assert parse_term("unpack <i, x> = t in pack <i, x>") == parse_term("unpack <j, z> = t in pack <j, z>")


def test_alpha_distinguishes_permissions():
    assert Uniq(UnitVal(), STAR) != Uniq(UnitVal(), frac_perm(1))


def test_user_writable():
    assert user_writable(parse_term(r"withBorrow (\b -> b) c"))
    assert not user_writable(Uniq(UnitVal()))
    assert not user_writable(Pair(UnitVal(), RefVal("r")))


def random_user_term(rng: random.Random, depth: int) -> Term:
    if depth <= 0:
        return rng.choice(
            [Var(rng.choice("pqrs")), UnitVal(), NatLit(rng.randrange(5)), FloatLit(float(rng.randrange(4)))]
        )

    def sub():
        return random_user_term(rng, depth - 1)

    pick = rng.randrange(10)
    if pick == 0:
        return Abs(rng.choice("xyz"), sub())
    if pick == 1:
        return App(sub(), sub())
    if pick == 2:
        return Pair(sub(), sub())
    if pick == 3:
        from gradebor.syntax import LetPair

        return LetPair(rng.choice("ab"), rng.choice("cd"), sub(), sub())
    if pick == 4:
        from gradebor.syntax import LetBox, Promote

        return LetBox("w", Promote(sub()), sub())
    if pick == 5:
        from gradebor.syntax import Split, Join, Push, Pull, Share

        return rng.choice([Split, Join, Push, Pull, Share])(sub())
    if pick == 6:
        return WithBorrow(sub(), sub())
    if pick == 7:
        return Pack(rng.choice("ij"), sub())
    if pick == 8:
        return Unpack(rng.choice("ij"), rng.choice("uv"), sub(), sub())
    from gradebor.syntax import Clone

    return Clone("c", ("k",), sub(), sub())


@given(st.integers(min_value=0, max_value=10**9))
def test_subst_removes_the_variable(seed):
    rng = random.Random(seed)
    t = random_user_term(rng, 3)
    out = subst(t, "p", UnitVal())
    assert "p" not in free_vars(out)


@given(st.integers(min_value=0, max_value=10**9))
def test_rename_refs_hits_every_ref(seed):
    rng = random.Random(seed)
    t = random_user_term(rng, 3)
    withrefs = Pair(t, Pair(RefVal("ref1"), RefVal("ref2")))
    theta = {"ref1": "ref8", "ref2": "ref9"}
    assert refs_of(rename_refs(theta, withrefs)) == {theta.get(r, r) for r in refs_of(withrefs)}


# -- the child-field table ------------------------------------------------------


def _reflected_children(t: Term) -> list[Term]:
    """The reference answer: every dataclass field that holds a term."""
    return [v for f in dataclasses.fields(t) if isinstance(v := getattr(t, f.name), Term)]


def _nodes(t: Term):
    yield t
    for c in _reflected_children(t):
        yield from _nodes(c)


def _sample_terms() -> list[Term]:
    """Source, elaborated and runtime terms of the corpus and 300 generated programs."""
    corpus = Path(__file__).resolve().parent.parent / "src" / "gradebor" / "corpus"
    programs = [parse_program(p.read_text(), str(p)) for p in sorted(corpus.glob("*.grb"))]
    programs += generate_programs(7, count=300)
    terms: list[Term] = []
    for prog in programs:
        terms.extend(d.body for d in prog.definitions)
        try:
            cp = check_program(prog)
            _, trace = Machine(cp.ring).eval(Heap(), cp.main_term, cp.ring.one)
        except (CheckError, EvalError):
            continue
        terms.extend(term for term, _ in trace.configurations())
    return terms


SAMPLE_TERMS = _sample_terms()


def test_every_term_class_has_a_table_entry():
    classes = [c for c in vars(syntax).values() if isinstance(c, type) and issubclass(c, Term) and c is not Term]
    assert len(classes) == 24
    for c in classes:
        assert c in syntax._SHAPES, c.__name__


def test_every_node_class_reprs_as_surface_syntax():
    for base in (syntax.Term, syntax.Type):
        classes = [c for c in vars(syntax).values() if isinstance(c, type) and issubclass(c, base) and c is not base]
        for c in classes:
            assert c.__repr__ is base.__repr__, c.__name__
    assert repr(App(Var("f"), Pair(NatLit(1), UnitVal()))) == "f (1, ())"
    assert repr(syntax.Fun(syntax.UnitT(), syntax.Amp(STAR, syntax.NatT()))) == "Unit -o * Nat"


def test_sample_terms_reach_every_term_class():
    seen = {type(n) for t in SAMPLE_TERMS for n in _nodes(t)}
    assert seen == set(syntax._SHAPES)


def test_children_matches_reflection():
    for t in SAMPLE_TERMS:
        for node in _nodes(t):
            assert children(node) == _reflected_children(node), type(node).__name__


def test_map_children_identity_returns_the_same_node():
    for t in SAMPLE_TERMS:
        for node in _nodes(t):
            assert map_children(node, lambda c: c) is node
            assert map_children(node, lambda c: c, lambda ty: ty) is node


def test_map_children_rebuilds_changed_nodes():
    t = Pair(Var("x"), UnitVal())
    out = map_children(t, lambda c: Var("y") if c == Var("x") else c)
    assert out == Pair(Var("y"), UnitVal())
    assert out.right is t.right
    annotated = Abs("x", Var("x"), syntax.UnitT())
    assert map_children(annotated, lambda c: c, lambda ty: None) == Abs("x", Var("x"))


def test_subst_keeps_the_subtrees_it_does_not_change():
    # x occurs only in the rhs of the outer let: the body, and the whole
    # abstraction that does not mention x, come back as the same objects
    t = parse_term(r"let (a, b) = (x, ()) in let () = b in (\w -> w) a")
    out = subst(t, "x", Var("z"))
    assert out == parse_term(r"let (a, b) = (z, ()) in let () = b in (\w -> w) a")
    assert out.body is t.body
    assert out.rhs.right is t.rhs.right
    assert subst(t, "q", Var("z")) is t


def test_bound_names_lists_every_binder():
    t = parse_term(r"let (a, b) = x in unpack <i, c> = b in let *d = clone y as <j> in \w -> ((a, c), (d, w))")
    assert syntax.bound_names(t) == {"a", "b", "i", "c", "j", "d", "w"}
    assert syntax.bound_names(parse_term("(x, ())")) == set()
