import dataclasses
import itertools
import random
import sys
from collections import defaultdict
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gradebor import syntax
from gradebor.generator import generate_programs
from gradebor.grades import NAT, STAR, frac_perm
from gradebor.machine import EvalError, Heap, Machine, VarCell, _ref_order
from gradebor.metatheory import check_trace, close_value
from gradebor.parser import SyntaxError_, parse_program, parse_term, parse_type
from gradebor.syntax import (
    Abs, Amp, App, Box, Clone, ExistsT, FloatLit, FloatT, Forall, Fun, Join,
    LetBox, LetPair, LetUnit, NameT, NatLit, NatT, Pack, Pair, PermVar, Prim,
    Prod, Promote, Pull, Push, RefVal, ResT, Share, Split, Term, Type,
    Unborrow, Uniq, UnitT, UnitVal, Unpack, Var, WithBorrow, alpha_eq,
    bound_names, children, free_vars, is_value, refs_of,
    rename_refs, strip_meta, subst, subst_names, type_alpha_eq, type_free_names,
    type_free_perm_vars, type_subst_names,
)
from gradebor.typecheck import CheckError, _holds_owned, check_program, instance, unify


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
    assert alpha_eq(subst(parse_term("(x, y)"), "x", v), parse_term("((), y)"))
    assert alpha_eq(subst(parse_term(r"\x -> x"), "x", v), parse_term(r"\x -> x"))
    t = subst(WithBorrow(Var("f"), Var("x")), "x", Uniq(Var("v")))
    assert alpha_eq(t, WithBorrow(Var("f"), Uniq(Var("v"))))


def test_subst_avoids_capture():
    # substituting y under a binder named y must rename the binder
    t = parse_term(r"\y -> (x, y)")
    out = subst(t, "x", Var("y"))
    assert isinstance(out, Abs)
    assert out.param != "y"
    assert free_vars(out) == {"y"}


def test_subst_names_avoids_capture():
    # renaming j to i under binders named i must rename the binders
    t = Unpack("i", "x", Var("r"), Pair(Pack("j", Var("x")), Pack("i", UnitVal())), ResT("Ref", "i", FloatT()))
    out = subst_names(t, {"j": "i"})
    assert out.ident not in ("i", "j")
    assert alpha_eq(out, Unpack("k", "x", Var("r"), Pair(Pack("i", Var("x")), Pack("k", UnitVal())), ResT("Ref", "k", FloatT())))
    ty = ExistsT("i", Prod(ResT("Ref", "j", FloatT()), ResT("Array", "i", FloatT())))
    assert type_subst_names(ty, {"j": "i"}) == ExistsT("k", Prod(ResT("Ref", "i", FloatT()), ResT("Array", "k", FloatT())))


def test_rename_refs():
    theta = {"ref1": "ref9"}
    assert alpha_eq(rename_refs(theta, Pair(RefVal("ref1"), RefVal("ref1"))), Pair(RefVal("ref9"), RefVal("ref9")))
    t = parse_term(r"\x -> x")
    assert alpha_eq(rename_refs({}, t), t)
    assert alpha_eq(rename_refs(theta, t), t)


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
    assert alpha_eq(parse_term(r"\x -> x"), parse_term(r"\y -> y"))
    assert alpha_eq(parse_term("let (a, b) = p in (a, b)"), parse_term("let (c, d) = p in (c, d)"))
    assert not alpha_eq(parse_term(r"\x -> y"), parse_term(r"\x -> x"))
    assert alpha_eq(parse_term("unpack <i, x> = t in pack <i, x>"), parse_term("unpack <j, z> = t in pack <j, z>"))


def test_alpha_distinguishes_permissions():
    assert not alpha_eq(Uniq(UnitVal(), STAR), Uniq(UnitVal(), frac_perm(1)))


def test_type_alpha_eq_compares_signature_binders_by_name():
    def observe(p, i):
        return parse_type(f"forall {{{p} : Permission, {i} : Name}} . & {p} (Ref {i} Float) -o & {p} (Ref {i} Float)")

    # a signature's binders are its definition's interface, compared as written
    assert observe("p", "i") == observe("p", "i")
    assert observe("p", "i") != observe("q", "j") and observe("p", "i") != observe("p", "j")
    swap = "forall {p : Permission, q : Permission} . & p Unit -o & q Unit"
    assert parse_type(swap) != parse_type(swap.replace("p : Permission, q", "q : Permission, p"))
    # a permission variable only equals itself
    assert parse_type("& p Unit") == parse_type("& p Unit") != parse_type("& q Unit")
    assert parse_type("forall {p : Permission} . & p Unit") != parse_type("forall {q : Permission} . & p Unit")


def test_type_alpha_eq_keeps_permission_variables_and_name_binders_apart():
    # an `exists` binds a name; the permission variable p is free either way
    assert parse_type("exists p . & p (Ref p Float)") == parse_type("exists q . & p (Ref q Float)")
    assert parse_type("exists p . & p (Ref p Float)") != parse_type("exists q . & q (Ref q Float)")


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
        return LetPair(rng.choice("ab"), rng.choice("cd"), sub(), sub())
    if pick == 4:
        return LetBox("w", Promote(sub()), sub())
    if pick == 5:
        return rng.choice([Split, Join, Push, Pull, Share])(sub())
    if pick == 6:
        return WithBorrow(sub(), sub())
    if pick == 7:
        return Pack(rng.choice("ij"), sub())
    if pick == 8:
        return Unpack(rng.choice("ij"), rng.choice("uv"), sub(), sub())
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


def _programs():
    """The corpus and 300 generated programs."""
    corpus = Path(__file__).resolve().parent.parent / "src" / "gradebor" / "corpus"
    programs = [
        parse_program(p.read_text(), str(p))
        for p in sorted(corpus.glob("*.grb"))
        if p.with_suffix(".expect").read_text().split() != ["reject", "SyntaxError"]
    ]
    programs += generate_programs(7, count=300)
    return programs


PROGRAMS = _programs()


def _samples() -> tuple[list[Term], list[Type]]:
    """Source, elaborated and runtime terms of `PROGRAMS`, and the programs'
    declared types below their quantifiers: no other type holds a `Forall`."""
    terms: list[Term] = []
    bodies: list[Type] = []
    for prog in PROGRAMS:
        terms.extend(d.body for d in prog.definitions)
        bodies.extend(d.signature.body if type(d.signature) is Forall else d.signature for d in prog.definitions)
        try:
            cp = check_program(prog)
            _, trace = Machine(cp.ring).eval(Heap(), cp.main_term, cp.ring.one)
        except (CheckError, EvalError):
            continue
        terms.extend(term for term, _ in trace.configurations())
    return terms, bodies


SAMPLE_TERMS, BODIES = _samples()


def test_every_term_class_has_a_table_entry():
    classes = [c for c in vars(syntax).values() if isinstance(c, type) and issubclass(c, Term) and c is not Term]
    assert len(classes) == 24
    for c in classes:
        assert c in syntax._SHAPES, c.__name__


def test_tables_pin_child_annotation_and_binder_fields():
    assert syntax._SHAPES[LetPair] == (("rhs", "body"), ("lann", "rann"), ("left", "right"))
    assert syntax._SHAPES[Clone] == (("rhs", "body"), ("bann",), ("idents", "binder"))
    assert syntax._SHAPES[Unpack] == (("rhs", "body"), ("bann",), ("ident", "binder"))
    assert syntax._SHAPES[Abs] == (("body",), ("ann",), ("param",))
    assert syntax._SHAPES[Promote] == (("body",), (), ())
    assert syntax._SHAPES[Var] == ((), (), ())
    assert syntax._TYPE_CHILDREN[ResT] == ("payload",)
    assert syntax._TYPE_CHILDREN[Fun] == ("dom", "cod")
    assert syntax._TYPE_CHILDREN[Amp] == ("body",)
    assert syntax._TYPE_CHILDREN[NameT] == ()


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


def test_rebuilding_walkers_return_the_node_itself_when_nothing_changes():
    heap = Heap()
    for t in SAMPLE_TERMS:
        for node in _nodes(t):
            # the machine numbers references from ref1
            assert rename_refs({"ref0": "ref9"}, node) is node
            assert close_value(heap, node) is node
            stripped = strip_meta(node)
            assert strip_meta(stripped) is stripped


def test_rebuilding_walkers_keep_the_children_they_do_not_change():
    t = Pair(RefVal("ref1"), UnitVal())
    out = rename_refs({"ref1": "ref2"}, t)
    assert alpha_eq(out, Pair(RefVal("ref2"), UnitVal()))
    assert out.right is t.right
    annotated = Pair(Abs("x", Var("x"), syntax.UnitT()), UnitVal())
    out = strip_meta(annotated)
    assert alpha_eq(out, Pair(Abs("x", Var("x")), UnitVal()))
    assert out.left.body is annotated.left.body and out.right is annotated.right


def test_subst_keeps_the_subtrees_it_does_not_change():
    # x occurs only in the rhs of the outer let: the body, and the whole
    # abstraction that does not mention x, come back as the same objects
    t = parse_term(r"let (a, b) = (x, ()) in let () = b in (\w -> w) a")
    out = subst(t, "x", Var("z"))
    assert alpha_eq(out, parse_term(r"let (a, b) = (z, ()) in let () = b in (\w -> w) a"))
    assert out.body is t.body
    assert out.rhs.right is t.rhs.right
    assert subst(t, "q", Var("z")) is t


def test_bound_names_lists_every_binder():
    t = parse_term(r"let (a, b) = x in unpack <i, c> = b in let *d = clone y as <j> in \w -> ((a, c), (d, w))")
    assert syntax.bound_names(t) == {"a", "b", "i", "c", "j", "d", "w"}
    assert syntax.bound_names(parse_term("(x, ())")) == set()


# -- the binder and type-child tables, against the match walkers they replaced --
#
# The old_* functions below are test-only copies of the walkers as they were
# written before the tables held binders and type children, one `match` arm
# per node class. Each rewritten walker must give exactly their answers.


def old_type_alpha_eq(a, b, env_a=None, env_b=None):
    env_a = env_a or {}
    env_b = env_b or {}
    match (a, b):
        case (Fun(d1, c1), Fun(d2, c2)):
            return old_type_alpha_eq(d1, d2, env_a, env_b) and old_type_alpha_eq(c1, c2, env_a, env_b)
        case (Prod(l1, r1), Prod(l2, r2)):
            return old_type_alpha_eq(l1, l2, env_a, env_b) and old_type_alpha_eq(r1, r2, env_a, env_b)
        case (UnitT(), UnitT()) | (NatT(), NatT()) | (FloatT(), FloatT()):
            return True
        case (Box(g1, t1), Box(g2, t2)):
            return g1 == g2 and old_type_alpha_eq(t1, t2, env_a, env_b)
        case (Amp(p1, t1), Amp(p2, t2)):
            return p1 == p2 and old_type_alpha_eq(t1, t2, env_a, env_b)
        case (ExistsT(i1, t1), ExistsT(i2, t2)):
            mark = object()
            return old_type_alpha_eq(t1, t2, {**env_a, i1: mark}, {**env_b, i2: mark})
        case (ResT(k1, i1, t1), ResT(k2, i2, t2)):
            if k1 != k2 or not old_type_alpha_eq(t1, t2, env_a, env_b):
                return False
            return env_a.get(i1, i1) is env_b.get(i2, i2) or env_a.get(i1, i1) == env_b.get(i2, i2)
        case (NameT(i1), NameT(i2)):
            return env_a.get(i1, i1) is env_b.get(i2, i2) or env_a.get(i1, i1) == env_b.get(i2, i2)
        case _:
            return False


def old_type_free_names(ty):
    match ty:
        case Fun(d, c):
            return old_type_free_names(d) | old_type_free_names(c)
        case Prod(l, r):
            return old_type_free_names(l) | old_type_free_names(r)
        case Box(_, t) | Amp(_, t):
            return old_type_free_names(t)
        case ExistsT(i, t):
            return old_type_free_names(t) - {i}
        case ResT(_, i, t):
            return {i} | old_type_free_names(t)
        case NameT(i):
            return {i}
        case _:
            return set()


def old_type_free_perm_vars(ty):
    match ty:
        case Fun(d, c):
            return old_type_free_perm_vars(d) | old_type_free_perm_vars(c)
        case Prod(l, r):
            return old_type_free_perm_vars(l) | old_type_free_perm_vars(r)
        case Box(_, t):
            return old_type_free_perm_vars(t)
        case Amp(p, t):
            out = old_type_free_perm_vars(t)
            if isinstance(p, PermVar):
                out = out | {p.name}
            return out
        case ExistsT(_, t) | ResT(_, _, t):
            return old_type_free_perm_vars(t)
        case _:
            return set()


def old_type_subst_names(ty, env):
    if not env:
        return ty
    match ty:
        case Fun(d, c):
            return Fun(old_type_subst_names(d, env), old_type_subst_names(c, env))
        case Prod(l, r):
            return Prod(old_type_subst_names(l, env), old_type_subst_names(r, env))
        case Box(g, t):
            return Box(g, old_type_subst_names(t, env))
        case Amp(p, t):
            return Amp(p, old_type_subst_names(t, env))
        case ExistsT(i, t):
            inner = {k: v for k, v in env.items() if k != i}
            return ExistsT(i, old_type_subst_names(t, inner))
        case ResT(k, i, t):
            return ResT(k, env.get(i, i), old_type_subst_names(t, env))
        case NameT(i):
            return NameT(env.get(i, i))
        case _:
            return ty


def old_type_subst_perms(ty, env):
    if not env:
        return ty
    match ty:
        case Fun(d, c):
            return Fun(old_type_subst_perms(d, env), old_type_subst_perms(c, env))
        case Prod(l, r):
            return Prod(old_type_subst_perms(l, env), old_type_subst_perms(r, env))
        case Box(g, t):
            return Box(g, old_type_subst_perms(t, env))
        case Amp(p, t):
            if isinstance(p, PermVar) and p.name in env:
                p = env[p.name]
            return Amp(p, old_type_subst_perms(t, env))
        case ExistsT(i, t):
            return ExistsT(i, old_type_subst_perms(t, env))
        case ResT(k, i, t):
            return ResT(k, i, old_type_subst_perms(t, env))
        case _:
            return ty


_old_marks = itertools.count()


def old_alpha_eq(a, b, env_a=None, env_b=None):
    env_a = env_a or {}
    env_b = env_b or {}
    rec = old_alpha_eq
    name_eq = syntax._name_eq
    ann_eq = syntax._ann_eq
    match (a, b):
        case (Var(n1), Var(n2)):
            return name_eq(env_a, n1, env_b, n2)
        case (Abs(p1, b1, an1), Abs(p2, b2, an2)):
            if not ann_eq(an1, an2):
                return False
            mark = next(_old_marks)
            return rec(b1, b2, {**env_a, p1: mark}, {**env_b, p2: mark})
        case (App(f1, a1), App(f2, a2)):
            return rec(f1, f2, env_a, env_b) and rec(a1, a2, env_a, env_b)
        case (Pair(l1, r1), Pair(l2, r2)):
            return rec(l1, l2, env_a, env_b) and rec(r1, r2, env_a, env_b)
        case (LetPair(x1, y1, t1, u1, la1, ra1), LetPair(x2, y2, t2, u2, la2, ra2)):
            if not (ann_eq(la1, la2) and ann_eq(ra1, ra2)):
                return False
            if not rec(t1, t2, env_a, env_b):
                return False
            m1, m2 = next(_old_marks), next(_old_marks)
            return rec(u1, u2, {**env_a, x1: m1, y1: m2}, {**env_b, x2: m1, y2: m2})
        case (UnitVal(), UnitVal()):
            return True
        case (LetUnit(t1, u1), LetUnit(t2, u2)):
            return rec(t1, t2, env_a, env_b) and rec(u1, u2, env_a, env_b)
        case (Promote(t1, g1), Promote(t2, g2)):
            return g1 == g2 and rec(t1, t2, env_a, env_b)
        case (LetBox(x1, t1, u1, an1), LetBox(x2, t2, u2, an2)):
            if not ann_eq(an1, an2) or not rec(t1, t2, env_a, env_b):
                return False
            mark = next(_old_marks)
            return rec(u1, u2, {**env_a, x1: mark}, {**env_b, x2: mark})
        case (Pack(i1, t1), Pack(i2, t2)):
            return name_eq(env_a, i1, env_b, i2) and rec(t1, t2, env_a, env_b)
        case (Unpack(i1, x1, t1, u1, _), Unpack(i2, x2, t2, u2, _)):
            if not rec(t1, t2, env_a, env_b):
                return False
            mi, mx = next(_old_marks), next(_old_marks)
            return rec(u1, u2, {**env_a, i1: mi, x1: mx}, {**env_b, i2: mi, x2: mx})
        case (WithBorrow(f1, a1), WithBorrow(f2, a2)):
            return rec(f1, f2, env_a, env_b) and rec(a1, a2, env_a, env_b)
        case (Split(t1), Split(t2)) | (Join(t1), Join(t2)) | (Push(t1), Push(t2)) | (Pull(t1), Pull(t2)):
            return rec(t1, t2, env_a, env_b)
        case (Share(t1, g1), Share(t2, g2)):
            return g1 == g2 and rec(t1, t2, env_a, env_b)
        case (Clone(x1, ids1, t1, u1, _), Clone(x2, ids2, t2, u2, _)):
            if len(ids1) != len(ids2) or not rec(t1, t2, env_a, env_b):
                return False
            ea, eb = dict(env_a), dict(env_b)
            for i1, i2 in zip(ids1, ids2):
                m = next(_old_marks)
                ea[i1] = m
                eb[i2] = m
            mx = next(_old_marks)
            ea[x1] = mx
            eb[x2] = mx
            return rec(u1, u2, ea, eb)
        case (NatLit(v1), NatLit(v2)):
            return v1 == v2
        case (FloatLit(v1), FloatLit(v2)):
            return v1 == v2
        case (Prim(n1, an1), Prim(n2, an2)):
            return n1 == n2 and ann_eq(an1, an2)
        case (Uniq(t1, p1), Uniq(t2, p2)):
            return p1 == p2 and rec(t1, t2, env_a, env_b)
        case (Unborrow(t1), Unborrow(t2)):
            return rec(t1, t2, env_a, env_b)
        case (RefVal(r1), RefVal(r2)):
            return r1 == r2
        case _:
            return False


def old_free_vars(t):
    match t:
        case Var(n):
            return {n}
        case Abs(p, b, _):
            return old_free_vars(b) - {p}
        case LetPair(x, y, rhs, body):
            return old_free_vars(rhs) | (old_free_vars(body) - {x, y})
        case LetBox(x, rhs, body):
            return old_free_vars(rhs) | (old_free_vars(body) - {x})
        case Pack(i, b):
            return {i} | old_free_vars(b)
        case Unpack(i, x, rhs, body):
            return old_free_vars(rhs) | (old_free_vars(body) - {i, x})
        case Clone(x, ids, rhs, body):
            return old_free_vars(rhs) | (old_free_vars(body) - {x, *ids})
        case _:
            out = set()
            for c in children(t):
                out |= old_free_vars(c)
            return out


def old_bound_names(t):
    out = set()
    for c in children(t):
        out |= old_bound_names(c)
    match t:
        case Abs(p):
            out.add(p)
        case LetPair(x, y):
            out |= {x, y}
        case LetBox(x):
            out.add(x)
        case Unpack(i, x):
            out |= {i, x}
        case Clone(x, ids):
            out |= {x, *ids}
    return out


def old_refs_of(t):
    match t:
        case RefVal(r):
            return {r}
        case _:
            out = set()
            for c in children(t):
                out |= old_refs_of(c)
            return out


def old_type_names(ty):
    """Every name identifier and `exists` binder written in ty."""
    match ty:
        case Fun(d, c) | Prod(d, c):
            return old_type_names(d) | old_type_names(c)
        case Box(_, t) | Amp(_, t):
            return old_type_names(t)
        case ExistsT(i, t):
            return {i} | old_type_names(t)
        case ResT(_, i, t):
            return {i} | old_type_names(t)
        case NameT(i):
            return {i}
        case _:
            return set()


def old_names_in(t):
    """Every variable and name identifier of t, free or bound, with those of
    its annotations and `Clone.old_idents`: what a binder renamed over t avoids."""
    out = old_free_vars(t) | old_bound_names(t)
    for n in _nodes(t):
        for f in dataclasses.fields(n):
            if isinstance(v := getattr(n, f.name), Type):
                out |= old_type_names(v)
        if isinstance(n, Clone):
            out.update(n.old_idents or ())
    return out


def old_subst(t, x, s, cut=True):
    """With `cut`, a subterm in which no variable of env occurs free is
    returned as it is, as `subst` does; without it, every binder that would
    capture a free variable of s is renamed."""
    fv_s = old_free_vars(s)
    rebuild = syntax._rebuild

    def go(t, env):
        if cut and env.keys().isdisjoint(old_free_vars(t)):
            return t
        match t:
            case Var(n):
                return env.get(n, t)
            case Abs(p, body, _):
                p2, env2 = _avoid(p, env, fv_s, t)
                return rebuild(t, param=p2, body=go(body, env2))
            case LetPair(l, r, rhs, body):
                l2, env2 = _avoid(l, env, fv_s, t)
                r2, env3 = _avoid(r, env2, fv_s, t)
                return rebuild(t, left=l2, right=r2, rhs=go(rhs, env), body=go(body, env3))
            case LetBox(b, rhs, body):
                b2, env2 = _avoid(b, env, fv_s, t)
                return rebuild(t, binder=b2, rhs=go(rhs, env), body=go(body, env2))
            case Unpack(i, b, rhs, body):
                i2, env2 = _avoid(i, env, fv_s, t)
                b2, env3 = _avoid(b, env2, fv_s, t)
                body, bann = renamed_names(body, t.bann, {i: i2} if i2 != i else {})
                return rebuild(t, ident=i2, binder=b2, rhs=go(rhs, env), body=go(body, env3), bann=bann)
            case Clone(b, ids, rhs, body):
                env2 = env
                ids2 = []
                for i in ids:
                    i2, env2 = _avoid(i, env2, fv_s, t)
                    ids2.append(i2)
                b2, env3 = _avoid(b, env2, fv_s, t)
                body, bann = renamed_names(body, t.bann, {i: i2 for i, i2 in zip(ids, ids2) if i2 != i})
                ids2 = ids if list(ids) == ids2 else tuple(ids2)
                return rebuild(t, binder=b2, idents=ids2, rhs=go(rhs, env), body=go(body, env3), bann=bann)
            case _:
                return rebuild(t, **{n: go(getattr(t, n), env) for n in syntax._SHAPES[type(t)].terms})

    def renamed_names(body, bann, names):
        """A renamed name binder's occurrences in the body's packs and annotations and in bann, renamed."""
        if not names:
            return body, bann
        return old_subst_names(body, names), bann and old_type_subst_names(bann, names)

    def _avoid(binder, env, avoid, t):
        env = {k: v for k, v in env.items() if k != binder}
        if binder in avoid:
            nb = syntax.fresh_name(binder, avoid.union(env, old_names_in(t), *map(old_free_vars, env.values())))
            env[binder] = Var(nb)
            return nb, env
        return binder, env

    return go(t, {x: s})


def old_subst_names(t, env):
    if not env:
        return t
    rebuild = syntax._rebuild

    def go(t, env):
        match t:
            case Pack(i, body):
                return rebuild(t, ident=env.get(i, i), body=go(body, env))
            case Unpack(i, b, rhs, body, bann):
                inner = {k: v for k, v in env.items() if k != i}
                return rebuild(
                    t,
                    rhs=go(rhs, env),
                    body=go(body, inner),
                    bann=old_type_subst_names(bann, inner) if bann else None,
                )
            case Clone(b, ids, rhs, body, bann, old_idents):
                inner = {k: v for k, v in env.items() if k not in ids}
                return rebuild(
                    t,
                    rhs=go(rhs, env),
                    body=go(body, inner),
                    bann=old_type_subst_names(bann, inner) if bann else None,
                    old_idents=tuple(env.get(i, i) for i in old_idents) if old_idents else None,
                )
            case _:
                shape = syntax._SHAPES[type(t)]
                return rebuild(
                    t,
                    **{n: go(getattr(t, n), env) for n in shape.terms},
                    **{n: old_type_subst_names(a, env) for n in shape.types if (a := getattr(t, n)) is not None},
                )

    return go(t, env)


def _same(a, b) -> bool:
    """Exact structural equality: the same classes and field values, binder
    names, annotations and locations included."""
    if a is b:
        return True
    if isinstance(a, (Term, Type)):
        return type(a) is type(b) and all(_same(getattr(a, n), getattr(b, n)) for n in syntax._FIELDS[type(a)])
    if isinstance(a, tuple):
        return type(b) is tuple and len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    return type(a) is type(b) and a == b


def _distinct(items):
    return list({id(x): x for x in items}.values())


def _type_nodes(ty):
    yield ty
    for n in syntax._TYPE_CHILDREN[type(ty)]:
        yield from _type_nodes(getattr(ty, n))


SAMPLE_NODES = _distinct(n for t in SAMPLE_TERMS for n in _nodes(t))
EXTRA_TYPES = [
    parse_type("& p (Ref i Float) -o & p (Ref i Float)"),
    Fun(NameT("i"), Amp(PermVar("p"), NameT("j"))),
    parse_type("exists p . & p (Ref p Float)"),
    ExistsT("i", Prod(NameT("i"), ExistsT("i", ResT("Array", "i", NatT())))),
    parse_type("& q (Ref k (Nat [2])) -o exists k . * (Array k Float)"),
]
SAMPLE_TYPES = _distinct(
    x
    for ty in [getattr(n, f) for n in SAMPLE_NODES for f in syntax._SHAPES[type(n)].types] + BODIES + EXTRA_TYPES
    if ty is not None
    for x in _type_nodes(ty)
)


def _clash(names) -> Term:
    """A term whose free variables are `names` and z, so that substituting it
    renames every binder named in `names`."""
    out: Term = Var("z")
    for n in sorted(names):
        out = Pair(Var(n), out)
    return out


def _check_term_walkers(t: Term) -> None:
    fv, bound = old_free_vars(t), old_bound_names(t)
    assert free_vars(t) == fv
    assert bound_names(t) == bound
    for x in (min(fv, default="x"), "absent"):
        new = subst(t, x, _clash(bound))
        old = old_subst(t, x, _clash(bound))
        assert _same(new, old)
        assert (new is t) == (old is t)
        uncut = old_subst(t, x, _clash(bound), False)
        assert alpha_eq(strip_meta(new), strip_meta(uncut))
    # substituting for an absent variable without the cut renames every binder
    assert alpha_eq(t, uncut) == old_alpha_eq(t, uncut)
    stripped = strip_meta(t)
    assert alpha_eq(stripped, t) == old_alpha_eq(stripped, t)
    env = {n: n + "'" for n in sorted(fv | bound)}
    assert _same(subst_names(t, env), old_subst_names(t, env))


def test_term_walkers_match_the_match_walkers_on_every_sample_node():
    for t in SAMPLE_NODES:
        _check_term_walkers(t)


def test_subst_renames_a_name_binder_in_packs_and_annotations():
    t = parse_term("unpack <i, c> = newRef 98.0 in pack <i, absent>")
    out = subst(t, "absent", parse_term("(i, (c, z))"))
    assert out.ident != "i" and out.body.ident == out.ident
    clone = Clone("d", ("j",), Var("y"), Pack("j", Var("absent")), bann=ResT("Ref", "j", FloatT()))
    out = subst(clone, "absent", Var("j"))
    assert out.idents[0] != "j" and out.body.ident == out.bann.ident == out.idents[0]
    # substituting for an absent variable only renames binders
    for t in SAMPLE_NODES:
        assert alpha_eq(strip_meta(subst(t, "absent", _clash(bound_names(t)))), strip_meta(t)), t


def test_subst_renames_a_binder_apart_from_every_name_of_its_node():
    # y.1, the first name fresh for y, is free in one body and bound in the other
    free = subst(Abs("y", Pair(Var("x"), Var("y.1"))), "x", Var("y"))
    assert alpha_eq(free, Abs("z", Pair(Var("y"), Var("y.1"))))
    bound = subst(Abs("y", Abs("y.1", Pair(Var("x"), Var("y")))), "x", Var("y"))
    assert alpha_eq(bound, Abs("z", Abs("w", Pair(Var("y"), Var("z")))))
    # two binders of one node renamed: the second avoids the first's new name
    pair = subst(LetPair("y.1", "y.2", Var("r"), Pair(Var("x"), Pair(Var("y.1"), Var("y.2")))), "x", Pair(Var("y.1"), Var("y.2")))
    assert alpha_eq(pair, LetPair("a", "b", Var("r"), Pair(Pair(Var("y.1"), Var("y.2")), Pair(Var("a"), Var("b")))))
    # an annotation mentions i.1, which a renamed name binder must not take
    t = Unpack("i", "c", Var("r"), Pair(Pack("i", Var("x")), Abs("u", Var("u"), ResT("Ref", "i.1", FloatT()))))
    out = subst(t, "x", Pack("i", UnitVal()))
    assert out.ident not in ("i", "i.1")
    assert out.body.left.ident == out.ident and out.body.left.body.ident == "i"
    assert out.body.right.ann.ident == "i.1"


def test_alpha_eq_matches_the_match_walker_on_pairs_of_sample_nodes():
    by_class = defaultdict(list)
    for t in SAMPLE_NODES:
        by_class[type(t)].append(t)
    pairs = list(zip(SAMPLE_NODES, SAMPLE_NODES[1:]))
    for nodes in by_class.values():
        pairs += zip(nodes, nodes[1:] + nodes[:1])
    for a, b in pairs:
        assert alpha_eq(a, b) == old_alpha_eq(a, b), (a, b)


@given(st.integers(min_value=0, max_value=10**9))
def test_term_walkers_match_the_match_walkers_on_random_terms(seed):
    rng = random.Random(seed)
    t, other = random_user_term(rng, 4), random_user_term(rng, 4)
    _check_term_walkers(t)
    assert alpha_eq(t, other) == old_alpha_eq(t, other)


def _type_binders(ty: Type) -> tuple[set[str], set[str]]:
    """Every name identifier and every permission variable written in ty."""
    names: set[str] = set()
    perms: set[str] = set()
    for x in _type_nodes(ty):
        if isinstance(x, (ResT, NameT)):
            names.add(x.ident)
        elif isinstance(x, ExistsT):
            names.add(x.binder)
        elif isinstance(x, Amp) and isinstance(x.perm, PermVar):
            perms.add(x.perm.name)
    return names, perms


def old_subst_perms_term(t, env):
    shape = syntax._SHAPES[type(t)]
    return syntax._rebuild(
        t,
        **{n: old_subst_perms_term(getattr(t, n), env) for n in shape.terms},
        **{n: old_type_subst_perms(a, env) for n in shape.types if (a := getattr(t, n)) is not None},
    )


def test_type_walkers_match_the_match_walkers_on_every_sample_type():
    assert {type(x) for x in SAMPLE_TYPES} == set(syntax._TYPE_CHILDREN) - {Forall}
    for ty in SAMPLE_TYPES:
        free = type_free_names(ty)
        assert set(free) == old_type_free_names(ty) and len(free) == len(set(free))
        perm_vars = type_free_perm_vars(ty)
        assert set(perm_vars) == old_type_free_perm_vars(ty) and len(perm_vars) == len(set(perm_vars))
        names, perms = _type_binders(ty)
        env = {n: n + "'" for n in names}
        assert _same(type_subst_names(ty, env), old_type_subst_names(ty, env))
        penv = {p: PermVar(p + "'") for p in perms} | {"q": STAR}
        assert _same(type_subst_names(ty, {}, penv), old_type_subst_perms(ty, penv))
        assert _same(type_subst_names(ty, env, penv), old_type_subst_perms(old_type_subst_names(ty, env), penv))


def test_instance_substitutes_names_and_permissions_as_the_match_walkers_do():
    # each sample node as the body of a polymorphic definition, with a sample type as its signature
    for t, ty in zip(SAMPLE_NODES, itertools.cycle(SAMPLE_TYPES)):
        names, perms = _type_binders(ty)
        for n in _nodes(t):
            for ann in filter(None, (getattr(n, f) for f in syntax._SHAPES[type(n)].types)):
                more_names, more_perms = _type_binders(ann)
                names, perms = names | more_names, perms | more_perms
        perms -= names
        binders = tuple((v, "Name") for v in sorted(names)) + tuple((p, "Permission") for p in sorted(perms))
        nenv = {n: n + "'" for n in names}
        penv = {p: STAR if k % 2 else PermVar(p + "'") for k, p in enumerate(sorted(perms))}
        got_ty, got_t = instance(Forall(binders, ty), t, nenv | penv)
        assert _same(got_ty, old_type_subst_perms(old_type_subst_names(ty, nenv), penv))
        assert _same(got_t, old_subst_perms_term(subst_names(t, nenv), penv))


def test_type_alpha_eq_matches_the_match_walker_on_pairs_of_sample_types():
    by_class = defaultdict(list)
    for ty in SAMPLE_TYPES:
        by_class[type(ty)].append(ty)
    pairs = [(ty, ty) for ty in SAMPLE_TYPES] + list(zip(SAMPLE_TYPES, SAMPLE_TYPES[1:]))
    for types in by_class.values():
        pairs += zip(types, types[1:] + types[:1])
    for a, b in pairs:
        assert type_alpha_eq(a, b) == old_type_alpha_eq(a, b), (a, b)
        assert unify(a, b, set(), {}) == old_type_alpha_eq(a, b), (a, b)


def test_unify_keeps_nested_exists_binders_apart():
    # each `exists` has its own binder: swapping the two is a different type
    a = parse_type("exists a . exists b . Ref a Float * Ref b Float")
    b = parse_type("exists a . exists b . Ref b Float * Ref a Float")
    assert a != b and not unify(a, b, set(), {})
    # a bindable variable never takes an identifier that an `exists` binds
    sol: dict = {}
    assert not unify(parse_type("exists a . Ref a Float * Ref i Float"),
                     parse_type("exists a . Ref a Float * Ref a Float"), {"i"}, sol)
    assert sol == {}
    sol = {}
    assert unify(parse_type("exists a . Ref a Float * & p (Ref i Float)"),
                 parse_type("exists b . Ref b Float * & 1/2 (Ref a Float)"), {"i", "p"}, sol)
    assert sol == {"i": "a", "p": frac_perm(1, 2)}


def _match_pairs():
    """Each sample type against itself with every name and permission
    variable renamed, and against its neighbours."""
    pairs = list(zip(SAMPLE_TYPES, SAMPLE_TYPES[1:])) + list(zip(SAMPLE_TYPES[1:], SAMPLE_TYPES))
    for ty in SAMPLE_TYPES:
        names, perms = _type_binders(ty)
        penv = {p: STAR if len(p) % 2 else PermVar(p + "'") for p in perms}
        pairs.append((ty, type_subst_names(ty, {n: n + "'" for n in names}, penv)))
    return pairs


def test_a_solution_never_holds_a_bound_identifier():
    matched = 0
    for a, b in _match_pairs():
        names, perms = type_free_names(a), type_free_perm_vars(a)
        if set(names) & set(perms):
            continue
        sol: dict = {}
        if not unify(a, b, set(names) | set(perms), sol):
            continue
        matched += 1
        nenv = {v: sol[v] for v in names}
        assert set(nenv.values()) <= set(type_free_names(b)), (a, b, sol)
        # the solution instantiates a to b
        assert type_subst_names(a, nenv, {v: sol[v] for v in perms}) == b, (a, b, sol)
    assert matched > len(SAMPLE_TYPES)


def _spine(arg: str) -> Term:
    t: Term = Var("f")
    for _ in range(800):
        t = App(t, Pack("i", Var(arg)))
    return t


def fun_chain(ident: str) -> Type:
    """An 800-deep chain of functions over borrowed arrays."""
    ty: Type = UnitT()
    for _ in range(800):
        ty = Fun(Amp(PermVar("p"), ResT("Array", ident, FloatT())), ty)
    return ty


def test_term_walkers_take_one_frame_per_tree_level():
    assert sys.getrecursionlimit() == 1000
    t = _spine("x")
    assert free_vars(t) == {"f", "i", "x"}
    assert bound_names(t) == set()
    assert alpha_eq(t, _spine("x")) and not alpha_eq(t, _spine("y"))
    assert alpha_eq(subst(t, "x", Var("y")), _spine("y"))
    assert free_vars(subst_names(t, {"i": "j"})) == {"f", "j", "x"}


def test_type_walkers_take_one_frame_per_tree_level():
    assert sys.getrecursionlimit() == 1000
    ty = fun_chain("i")
    assert type_alpha_eq(ty, fun_chain("i")) and not type_alpha_eq(ty, fun_chain("j"))
    sol: dict = {}
    assert unify(ty, fun_chain("j"), {"i", "p"}, sol) and sol == {"i": "j", "p": PermVar("p")}
    assert type_free_names(ty) == ["i"]
    assert type_free_perm_vars(ty) == ["p"]
    assert type_alpha_eq(type_subst_names(ty, {"i": "j"}), fun_chain("j"))
    assert type_free_perm_vars(type_subst_names(ty, {}, {"p": STAR})) == []


def _deep(wrap, leaf, depth=400):
    """leaf wrapped `depth` times by wrap."""
    for _ in range(depth):
        leaf = wrap(leaf)
    return leaf


def _stack_depth() -> int:
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def _deep_rename_refs():
    t = _deep(lambda b: Pair(UnitVal(), b), RefVal("ref1"))
    expected = _deep(lambda b: Pair(UnitVal(), b), RefVal("ref2"))
    return lambda: rename_refs({"ref1": "ref2"}, t), lambda out: alpha_eq(out, expected)


def _deep_strip_meta():
    t = _deep(lambda b: Abs("x", b, UnitT()), Promote(UnitVal(), NAT.one))
    expected = _deep(lambda b: Abs("x", b), Promote(UnitVal()))
    return lambda: strip_meta(t), lambda out: alpha_eq(out, expected)


def _deep_close_value():
    heap = Heap()
    heap.vars["x"] = VarCell(NAT.one, UnitVal(), None)
    t = _deep(lambda b: Pair(b, Var("y")), Var("x"))
    expected = _deep(lambda b: Pair(b, Var("y")), UnitVal())
    return lambda: close_value(heap, t), lambda out: alpha_eq(out, expected)


def _deep_ref_order():
    # each reference twice: ref0 ... ref199 on the way down, again below
    t = RefVal("ref0")
    for k in reversed(range(400)):
        t = Pair(RefVal(f"ref{k % 200}"), t)
    return lambda: list(_ref_order(t)), lambda out: out == [f"ref{k}" for k in range(200)]


def _deep_holds_owned():
    owned = _deep(lambda b: Prod(UnitT(), b), Amp(STAR, NatT()))
    unowned = _deep(lambda b: Prod(UnitT(), b), Amp(frac_perm(1, 2), NatT()))
    return lambda: (_holds_owned(owned), _holds_owned(unowned)), lambda out: out == (True, False)


@pytest.mark.parametrize(
    "build", [_deep_rename_refs, _deep_strip_meta, _deep_close_value, _deep_ref_order, _deep_holds_owned],
    ids=lambda build: build.__name__.removeprefix("_deep_"),
)
def test_every_walker_takes_one_frame_per_tree_level(build):
    # 400 levels need 400 frames, and a few more for the walker's helpers
    walk, correct = build()
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 400 + 10)
    try:
        out = walk()
    finally:
        sys.setrecursionlimit(limit)
    assert correct(out)


# -- the sets free_vars, refs_of and bound_names store on nodes -----------------


def _unseen_nodes(roots, seen: set[int]):
    """Every node under roots whose id is not in seen, each once; adds them to seen."""
    todo = list(roots)
    while todo:
        t = todo.pop()
        if id(t) not in seen:
            seen.add(id(t))
            yield t
            todo.extend(children(t))


@pytest.mark.parametrize("mutate", [False, True])
def test_stored_sets_equal_the_uncached_walkers_after_a_checked_run(mutate):
    # run the machine and every checker first, so that a caller that mutated
    # a stored set would leave a wrong answer behind
    for prog in PROGRAMS:
        try:
            cp = check_program(prog)
            _, trace = Machine(cp.ring, mutate_split=mutate).eval(Heap(), cp.main_term, cp.ring.one)
        except (CheckError, EvalError):
            continue
        check_trace(trace, cp.main_type, cp.ring, cp.ring.one)
        seen: set[int] = set()
        for term, heap in trace.configurations():
            values = [c.value for c in heap.vars.values()]
            values += [r.value for r in heap.resources.values() if not r.is_array]
            for t in _unseen_nodes([term, *values], seen):
                assert free_vars(t) == old_free_vars(t)
                assert refs_of(t) == old_refs_of(t)
                assert bound_names(t) == old_bound_names(t)


# The node classes are plain dataclasses: what stands in for `frozen` is that
# no code assigns a field of a node once it is built.
_STORED_SETS = ("_free", "_refs", "_bound")


def _set_once(self, name, value):
    if name in self.__dict__ and name not in _STORED_SETS:
        raise AttributeError(f"{type(self).__name__}.{name} assigned after it was built")
    object.__setattr__(self, name, value)


def test_no_code_assigns_a_field_of_a_built_node(monkeypatch):
    from gradebor.metatheory import run_generated_suites

    monkeypatch.setattr(Term, "__setattr__", _set_once)
    monkeypatch.setattr(Type, "__setattr__", _set_once)
    with pytest.raises(AttributeError, match="Var.name"):
        Var("x").name = "y"
    with pytest.raises(AttributeError, match="Box.grade"):
        Box(None, UnitT()).grade = None
    corpus = Path(__file__).resolve().parent.parent / "src" / "gradebor" / "corpus"
    checked = 0
    for path in sorted(corpus.glob("*.grb")):
        try:
            cp = check_program(parse_program(path.read_text(), str(path)))
        except (SyntaxError_, CheckError):
            continue
        _, trace = Machine(cp.ring).eval(Heap(), cp.main_term, cp.ring.one)
        assert check_trace(trace, cp.main_type, cp.ring, cp.ring.one) == [], path
        checked += 1
    assert checked >= 9
    # check, eval and every trace checker on 100 `props` programs
    assert all(not suite.failures for suite in run_generated_suites(42, 100))
