import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradebor.grades import NAT_LEQ, frac_perm
from gradebor.parser import SyntaxError_, parse_program, parse_term, parse_type, print_term
from gradebor.syntax import (
    Abs, Amp, Box, ExistsT, FloatT, Fun, NameT, NatT, Pack, PermVar, Prod, ResT, Unborrow, UnitT,
    Unpack, Var, type_free_names,
)
from gradebor.typecheck import (
    CheckError, Checker, Ctx, GradedEntry, LinearEntry, Usage, _check_array_payloads,
    check_program, ctx_add, ctx_scale,
)
from test_syntax import SAMPLE_TYPES, fun_chain


def ring():
    return NAT_LEQ


def g(n, r=None):
    return (r or ring()).literal(n)


# -- context operations -------------------------------------------------------


def test_ctx_add_grades_sum():
    u = ctx_add(Usage(graded={"y": g(1)}), Usage(graded={"y": g(1)}))
    assert u.graded["y"] == g(2)


def test_ctx_add_linear_clash():
    with pytest.raises(CheckError) as e:
        ctx_add(Usage(linear={"x"}), Usage(linear={"x"}))
    assert e.value.kind == "LinearReuse"


def test_ctx_add_unit():
    u = ctx_add(Usage(), Usage(linear={"x"}))
    assert u.linear == {"x"}


def test_ctx_add_names_the_smallest_reused_variable():
    with pytest.raises(CheckError) as e:
        ctx_add(Usage(linear={"v", "b", "a"}), Usage(linear={"v", "b", "c"}))
    assert e.value.kind == "LinearReuse" and "'b'" in e.value.msg


def test_ctx_scale():
    u = ctx_scale(g(2), Usage(graded={"y": g(1)}))
    assert u.graded["y"] == g(2)
    assert ctx_scale(g(3), Usage()).graded == {}
    with pytest.raises(CheckError) as e:
        ctx_scale(g(3), Usage(linear={"x"}))
    assert e.value.kind == "LinearUnderPromotion"


# -- inference examples --------------------------------------------------------


def test_worked_example_usage():
    # y graded 2, used once in the argument pair and once in the body
    ctx = Ctx(ring(), {"y": GradedEntry(UnitT(), g(2))})
    t = parse_term(r"(\x -> (x, y)) ((), y)")
    ty, usage, _ = Checker(ring()).synth(ctx, t)
    assert ty == Prod(Prod(UnitT(), UnitT()), UnitT())
    assert usage.graded["y"] == g(2)


def test_identity_checks_at_any_annotation():
    for ann in ("Unit", "Nat", "Unit * Unit"):
        ctx = Ctx(ring())
        _, usage, _ = Checker(ring()).synth(ctx, parse_term(r"\x -> x"), parse_type(f"({ann}) -o ({ann})"))
        assert not usage.linear and not usage.graded


def test_write_through_half_borrow_rejected():
    ctx = Ctx(ring(), {"b": LinearEntry(Amp(frac_perm(1, 2), ResT("Array", "i", parse_type("Float"))))},
              names=frozenset({"i"}))
    with pytest.raises(CheckError) as e:
        Checker(ring()).synth(ctx, parse_term("writeArray b 0 1.0"))
    assert e.value.kind == "PermissionNotWritable"


def test_read_through_half_borrow_accepted():
    ctx = Ctx(ring(), {"b": LinearEntry(Amp(frac_perm(1, 2), ResT("Array", "i", parse_type("Float"))))},
              names=frozenset({"i"}))
    ty, usage, _ = Checker(ring()).synth(ctx, parse_term("readArray b 0"))
    assert ty == Prod(parse_type("Float"), Amp(frac_perm(1, 2), ResT("Array", "i", parse_type("Float"))))


def test_promoted_allocator_rejected():
    prog = parse_program(
        "main : Unit;\n"
        "main = let [x] : ((exists i . * (Array i Float)) [2]) = [newArray 1] in\n"
        "       unpack <i, a> = x in let () = deleteArray a in\n"
        "       unpack <j, b> = x in let () = deleteArray b in ();"
    )
    with pytest.raises(CheckError) as e:
        check_program(prog)
    assert e.value.kind == "PromotionOfAllocator"


def test_linear_reuse_named():
    prog = parse_program(
        "f : forall {i : Name} . * (Ref i Float) -o ((* (Ref i Float)) * (* (Ref i Float)));\n"
        "f = \\c -> (c, c); main : Unit; main = ();"
    )
    with pytest.raises(CheckError) as e:
        check_program(prog)
    assert e.value.kind == "LinearReuse"


def test_unused_linear_variable():
    with pytest.raises(CheckError) as e:
        Checker(ring()).synth(Ctx(ring()), parse_term(r"\x -> ()"), parse_type("(Unit * Unit) -o Unit"))
    assert e.value.kind == "LinearUnused"


def test_floats_are_discardable_but_not_duplicable():
    _, usage, _ = Checker(ring()).synth(Ctx(ring()), parse_term(r"\x -> ()"), parse_type("Float -o Unit"))
    assert not usage.linear
    with pytest.raises(CheckError) as e:
        Checker(ring()).synth(Ctx(ring()), parse_term(r"\x -> (x, x)"), parse_type("Float -o (Float * Float)"))
    assert e.value.kind == "LinearReuse"
    with pytest.raises(CheckError) as e:
        Checker(ring()).synth(Ctx(ring()), parse_term(r"\x -> [x]"), parse_type("Float -o (Float [2])"))
    assert e.value.kind == "LinearUnderPromotion"


def test_grade_exceeded_under_discrete_ordering():
    src = "#semiring nat\nmain : Unit * Unit;\nmain = let [y] : (Unit [3]) = [()] in (y, y);"
    with pytest.raises(CheckError) as e:
        check_program(parse_program(src))
    assert e.value.kind == "GradeExceeded"
    # the upper-bound ordering accepts the same program
    src_leq = src.replace("#semiring nat", "#semiring nat-leq")
    check_program(parse_program(src_leq))


def test_id_escape_rejected():
    src = "main : * (Ref i Float);\nmain = unpack <i, c> = newRef 1.0 in c;"
    with pytest.raises(CheckError) as e:
        check_program(parse_program(src))
    assert e.value.kind in ("IdEscapes", "UnboundVariable")


def test_split_result_permissions_sum_exactly():
    for den in (1, 2, 4, 8, 64):
        ctx = Ctx(ring(), {"b": LinearEntry(Amp(frac_perm(1, den), ResT("Ref", "i", parse_type("Float"))))},
                  names=frozenset({"i"}))
        ty, _, _ = Checker(ring()).synth(ctx, parse_term("split b"))
        assert isinstance(ty, Prod)
        total = ty.left.perm.frac + ty.right.perm.frac
        assert total == frac_perm(1, den).frac


def test_join_overflow():
    ctx = Ctx(
        ring(),
        {
            "x": LinearEntry(Amp(frac_perm(3, 4), ResT("Ref", "i", parse_type("Float")))),
            "y": LinearEntry(Amp(frac_perm(1, 2), ResT("Ref", "i", parse_type("Float")))),
        },
        names=frozenset({"i"}),
    )
    with pytest.raises(CheckError) as e:
        Checker(ring()).synth(ctx, parse_term("join (x, y)"))
    assert e.value.kind == "PermissionOverflow"


def test_join_requires_same_payload():
    ctx = Ctx(
        ring(),
        {
            "x": LinearEntry(Amp(frac_perm(1, 2), ResT("Ref", "i", parse_type("Float")))),
            "y": LinearEntry(Amp(frac_perm(1, 2), ResT("Ref", "j", parse_type("Float")))),
        },
        names=frozenset({"i", "j"}),
    )
    with pytest.raises(CheckError) as e:
        Checker(ring()).synth(ctx, parse_term("join (x, y)"))
    assert e.value.kind == "Mismatch"


def test_abstract_permission_rejects_write_and_split():
    src = (
        "f : forall {p : Permission, i : Name} . & p (Array i Float) -o & p (Array i Float);\n"
        "f = \\b -> writeArray b 0 1.0; main : Unit; main = ();"
    )
    with pytest.raises(CheckError) as e:
        check_program(parse_program(src))
    assert e.value.kind == "PermissionNotWritable"
    src = (
        "f : forall {p : Permission, i : Name} . & p (Array i Float) -o ((& p (Array i Float)) * (& p (Array i Float)));\n"
        "f = \\b -> split b; main : Unit; main = ();"
    )
    with pytest.raises(CheckError) as e:
        check_program(parse_program(src))
    assert e.value.kind == "StarNotDivisible"


# Each rejection with its exact rendering: the kind, the message and the node
# it is reported at. Between them they reach the abstraction rule from each of
# its four callers, both modes of pack and promotion, the shape test of the
# array primitives, and every ownership test at a permission variable `p`,
# which is neither `*` nor `1`.
_NO_MAIN = "\nmain : Unit; main = ();"
_PERM_P = "f : forall {p : Permission, i : Name} . "
REJECTIONS = [
    (  # an annotated abstraction, inferred
        "main : Unit -o Unit;\nmain = let (f, u) = (\\x : Unit -> (), ()) in let () = u in f;",
        "t.grb:2:22: [LinearUnused] linear variable 'x' is never used",
    ),
    (  # an abstraction, checked
        "main : Unit -o Unit;\nmain = \\x -> ();",
        "t.grb:2:8: [LinearUnused] linear variable 'x' is never used",
    ),
    (  # a beta-redex reports at the application
        "main : Unit;\nmain = (\\x -> ()) ();",
        "t.grb:2:9: [LinearUnused] linear variable 'x' is never used",
    ),
    (  # an unannotated borrowing function reports at the withBorrow
        "f : forall {i : Name} . * (Array i Float) -o & 1 (Array i Float) -o * (Array i Float);\n"
        "f = \\a -> \\c -> withBorrow (\\b -> c) a;" + _NO_MAIN,
        "t.grb:2:17: [LinearUnused] linear variable 'b' is never used",
    ),
    (  # the result is tested before the unused parameter
        "f : forall {i : Name} . * (Array i Float) -o Unit;\n"
        "f = \\a -> let (r, u) = (withBorrow (\\b -> ()) a, ()) in r;" + _NO_MAIN,
        "t.grb:2:25: [Mismatch] the borrowing function must return a whole borrow, got Unit",
    ),
    (
        "main : Unit;\nmain = let (p, u) = (pack <k, ()>, ()) in u;",
        "t.grb:2:22: [UnboundVariable] unknown identifier 'k' in pack",
    ),
    (
        "main : exists i . Unit;\nmain = pack <k, ()>;",
        "t.grb:2:8: [UnboundVariable] unknown identifier 'k' in pack",
    ),
    (
        "main : (exists i . * (Ref i Float)) [1];\nmain = [newRef 1.5];",
        "t.grb:2:8: [PromotionOfAllocator] cannot promote a resource allocator",
    ),
    (  # promotion reads the body's type, so no allocation hides from it: behind a beta-redex,
        "main : (exists i . * (Ref i Float)) [1];\nmain = [(\\x : Float -> newRef x) 1.5];",
        "t.grb:2:8: [PromotionOfAllocator] cannot promote a resource allocator",
    ),
    (  # a global function,
        "mk : Float -o (exists i . * (Ref i Float)); mk = \\x -> newRef x;\n"
        "main : (exists i . * (Ref i Float)) [1]; main = [mk 1.5];",
        "t.grb:2:49: [PromotionOfAllocator] cannot promote a resource allocator",
    ),
    (  # or a let-bound function
        "main : (exists i . * (Ref i Float)) [1];\n"
        "main = [let (f, u) = (\\x : Float -> newRef x, ()) in let () = u in f 1.5];",
        "t.grb:2:8: [PromotionOfAllocator] cannot promote a resource allocator",
    ),
    (  # an owned linear variable under a box is reported as linear
        "f : forall {i : Name} . * (Ref i Float) -o (* (Ref i Float)) [1];\nf = \\x -> [x];" + _NO_MAIN,
        "t.grb:2:11: [LinearUnderPromotion] cannot scale a context with linear assumptions (x)",
    ),
    (
        "main : Unit;\nmain = readArray () 0;",
        "t.grb:2:8: [Mismatch] readArray expects an array reference, got Unit",
    ),
    (
        _PERM_P + "& p (Array i Float) -o Unit;\nf = \\a -> deleteArray a;" + _NO_MAIN,
        "t.grb:2:11: [Mismatch] deleteArray consumes a uniquely owned array, found permission p",
    ),
    (
        _PERM_P + "& p (Array i Float) -o & p (Array i Float);\nf = \\a -> writeArray a 0 1.0;" + _NO_MAIN,
        "t.grb:2:11: [PermissionNotWritable] writing requires permission 1 or *, found p",
    ),
    (
        _PERM_P + "& p (Ref i Float) -o (Float * & p (Ref i Float));\nf = \\a -> swapRef a 1.0;" + _NO_MAIN,
        "t.grb:2:11: [PermissionNotWritable] swapping requires permission 1 or *, found p",
    ),
    (
        _PERM_P + "& p (Ref i Float) -o Float;\nf = \\a -> deleteRef a;" + _NO_MAIN,
        "t.grb:2:11: [Mismatch] deleteRef consumes a uniquely owned reference, found permission p",
    ),
    (
        _PERM_P + "& p (Ref i Float) -o * (Ref i Float);\nf = \\a -> withBorrow (\\b -> b) a;" + _NO_MAIN,
        "t.grb:2:11: [Mismatch] withBorrow needs a uniquely owned value, got & p Ref i Float",
    ),
    (
        _PERM_P + "* (Ref i Float) -o & p (Ref i Float);\nf = \\a -> withBorrow (\\b -> b) a;" + _NO_MAIN,
        "t.grb:2:11: [Mismatch] withBorrow produces an owned value, but & p Ref i Float was expected",
    ),
    (  # newRef checks its payload only against an owned result
        "f : forall {p : Permission} . Unit -o exists i . & p (Ref i Float);\n"
        "f = \\u -> let () = u in newRef 1.0;" + _NO_MAIN,
        "t.grb:2:25: [Mismatch] expected exists i . & p Ref i Float but found exists id . * Ref id Float",
    ),
]


@pytest.mark.parametrize("src, rendered", REJECTIONS)
def test_rejection_renders_exactly(src, rendered):
    with pytest.raises(CheckError) as e:
        check_program(parse_program(src, "t.grb"))
    assert e.value.render("t.grb") == rendered


def test_unborrow_at_a_permission_variable_is_rejected():
    # unborrow is a runtime form, so it is built here rather than parsed
    borrowed = Amp(PermVar("p"), ResT("Ref", "i", FloatT()))
    ctx = Ctx(ring(), {"a": LinearEntry(borrowed)}, names=frozenset({"i"}), perm_vars=frozenset({"p"}))
    with pytest.raises(CheckError) as e:
        Checker(ring()).synth(ctx, Unborrow(Var("a")))
    assert e.value.render("t.grb") == "t.grb: [Mismatch] unborrow expects a whole borrow, got & p Ref i Float"
    with pytest.raises(CheckError) as e:
        Checker(ring()).synth(ctx, Unborrow(Var("a")), borrowed)
    assert e.value.render("t.grb") == (
        "t.grb: [Mismatch] unborrow produces an owned value, but & p Ref i Float was expected"
    )


# -- promotion of allocating functions ---------------------------------------------


@pytest.mark.parametrize("src", [
    # the box holds a function, not an array: each call allocates its own
    "main : Unit;\n"
    "main = let [f] : ((Nat -o (exists i . * (Array i Float))) [2]) = [\\u : Nat -> newArray u] in\n"
    "       unpack <i, a> = f 1 in let () = deleteArray a in\n"
    "       unpack <j, b> = f 2 in deleteArray b;",
    # a closed value, as `\u -> newArray u` is
    "mk : Nat -o (exists i . * (Array i Float));\nmk = newArray;\n"
    "main : Unit;\nmain = unpack <i, a> = mk 1 in deleteArray a;",
])
def test_allocating_functions_may_be_boxed_and_defined(src):
    from gradebor.machine import Heap, Machine
    from gradebor.metatheory import check_trace

    cp = check_program(parse_program(src))
    _, trace = Machine(cp.ring).eval(Heap(), cp.main_term, cp.ring.one)
    assert check_trace(trace, cp.main_type, cp.ring, cp.ring.one) == []


# -- whole programs --------------------------------------------------------------


def test_non_main_definitions_must_be_values():
    src = "f : Unit;\nf = let () = () in ();\nmain : Unit; main = ();"
    with pytest.raises(CheckError):
        check_program(parse_program(src))


def test_definitions_may_be_used_many_times():
    src = (
        "id : Unit -o Unit; id = \\u -> u;\n"
        "main : Unit; main = id (id (id ()));"
    )
    cp = check_program(parse_program(src))
    assert cp.main_type == UnitT()


def test_main_must_exist():
    from gradebor.parser import SyntaxError_

    with pytest.raises(SyntaxError_):
        parse_program("f : Unit; f = ();")


# -- substitution admissibility ---------------------------------------------------


@settings(max_examples=60)
@given(st.integers(min_value=0, max_value=10**9))
def test_linear_substitution_admissible(seed):
    from gradebor.generator import _gen_pure

    rng = random.Random(seed)
    t1, ty1 = _gen_pure(rng, ring(), rng.randrange(0, 3))
    checker = Checker(ring())
    _, u1, _ = checker.synth(Ctx(ring()), t1)

    from gradebor.syntax import Pair, UnitVal, subst

    t2 = rng.choice([Var("hole"), Pair(Var("hole"), UnitVal()), Pair(UnitVal(), Var("hole"))])
    ctx2 = Ctx(ring(), {"hole": LinearEntry(ty1)})
    ty2, u2, _ = checker.synth(ctx2, t2)

    merged = subst(t2, "hole", t1)
    ty3, u3, _ = checker.synth(Ctx(ring()), merged)
    assert ty3 == ty2
    expected = ctx_add(u2.without("hole"), u1)
    assert u3.graded == expected.graded and u3.linear == expected.linear


@settings(max_examples=60)
@given(st.integers(min_value=0, max_value=10**9))
def test_graded_substitution_admissible(seed):
    # t1 = z (graded), substituted for a hole used under grade r
    rng = random.Random(seed)
    checker = Checker(ring())
    r = rng.randrange(0, 4)
    base = Ctx(ring(), {"z": GradedEntry(UnitT(), g(24))})
    t1 = Var("z")
    _, u1, _ = checker.synth(base, t1)

    uses = rng.randrange(0, r + 1)
    from gradebor.syntax import Pair, UnitVal, subst

    body = UnitVal()
    for _ in range(uses):
        body = Pair(Var("hole"), body)
    ctx2 = Ctx(ring(), {**base.vars, "hole": GradedEntry(UnitT(), g(r))})
    ty2, u2, _ = checker.synth(ctx2, body)

    merged = subst(body, "hole", t1)
    ty3, u3, _ = checker.synth(base, merged)
    assert ty3 == ty2
    # usage of z equals the hole's usage (dereliction grade 1 per use)
    assert u3.graded.get("z", ring().zero) == ctx_scale(g(uses), u1).graded.get("z", ring().zero)


# -- approximation monotonicity ----------------------------------------------------


@given(st.integers(min_value=0, max_value=5), st.integers(min_value=0, max_value=5))
def test_approximation_monotone_nat_leq(uses, slack):
    declared = uses + slack
    body, ty = "()", "Unit"
    for _ in range(uses):
        body, ty = f"(y, {body})", f"Unit * ({ty})"
    src = f"main : {ty};\nmain = let [y] : (Unit [{declared}]) = [()] in {body};"
    check_program(parse_program(src))  # accepted at declared grade
    # and at any larger grade
    src2 = src.replace(f"[{declared}]", f"[{declared + 1}]")
    check_program(parse_program(src2))


def test_approximation_interval():
    src = "#semiring interval\nmain : Unit * Unit;\nmain = let [y] : (Unit [2..3]) = [()] in (y, y);"
    check_program(parse_program(src))
    src = "#semiring interval\nmain : Unit;\nmain = let [y] : (Unit [1..2]) = [()] in ();"
    with pytest.raises(CheckError) as e:
        check_program(parse_program(src))
    assert e.value.kind == "GradeExceeded"


def test_pair_parses_right_assoc_products():
    ty = parse_type("Unit * Unit * Unit")
    assert ty == Prod(UnitT(), Prod(UnitT(), UnitT()))


def test_array_payload_must_be_float():
    src = "f : forall {i : Name} . * (Array i Nat) -o Unit;\nf = \\a -> deleteArray a;\nmain : Unit; main = ();"
    with pytest.raises(CheckError) as e:
        check_program(parse_program(src))
    assert "float" in e.value.msg.lower()


def test_share_demands_an_expected_grade():
    from gradebor.grades import STAR

    ctx = Ctx(ring(), {"c": LinearEntry(Amp(STAR, ResT("Ref", "i", parse_type("Float"))))},
              names=frozenset({"i"}))
    with pytest.raises(CheckError):
        Checker(ring()).synth(ctx, parse_term("share c"))


def test_bare_promotion_cannot_be_inferred():
    with pytest.raises(CheckError):
        Checker(ring()).synth(Ctx(ring()), parse_term("[()]"))


# -- the type-child table, against the match walkers it replaced -----------------


def old_check_array_payloads(ty, loc):
    match ty:
        case ResT("Array", _, payload):
            if not isinstance(payload, FloatT):
                raise CheckError("Mismatch", "arrays hold floats only", loc, rule="type")
        case Fun(d, c):
            old_check_array_payloads(d, loc)
            old_check_array_payloads(c, loc)
        case Prod(l, r):
            old_check_array_payloads(l, loc)
            old_check_array_payloads(r, loc)
        case Box(_, t) | Amp(_, t) | ExistsT(_, t) | ResT(_, _, t):
            old_check_array_payloads(t, loc)
        case _:
            pass


def old_names_in_order(ty):
    out = []

    def go(ty, bound):
        match ty:
            case Fun(d, c):
                go(d, bound)
                go(c, bound)
            case Prod(l, r):
                go(l, bound)
                go(r, bound)
            case Box(_, b) | Amp(_, b):
                go(b, bound)
            case ExistsT(i, b):
                go(b, bound | {i})
            case ResT(_, i, b):
                if i not in bound and i not in out:
                    out.append(i)
                go(b, bound)
            case NameT(i):
                if i not in bound and i not in out:
                    out.append(i)
            case _:
                pass

    go(ty, frozenset())
    return out


def _array_payload_error(check, ty):
    try:
        check(ty, None)
    except CheckError as e:
        return str(e)
    return None


def test_type_walkers_match_the_match_walkers_on_every_sample_type():
    rejected = 0
    for ty in SAMPLE_TYPES:
        assert type_free_names(ty) == old_names_in_order(ty)
        # the same type also as the payload of an array, which only Float may be
        for candidate in (ty, Fun(ty, ResT("Array", "i", ty))):
            error = _array_payload_error(_check_array_payloads, candidate)
            assert error == _array_payload_error(old_check_array_payloads, candidate)
            rejected += error is not None
    assert rejected > len(SAMPLE_TYPES) // 2


def test_type_walkers_take_one_frame_per_tree_level():
    assert sys.getrecursionlimit() == 1000
    ty = fun_chain("i")
    _check_array_payloads(ty, None)
    with pytest.raises(CheckError):
        _check_array_payloads(Fun(ty, ResT("Array", "i", NatT())), None)


def test_polymorphic_argument_is_a_syntax_error_whatever_its_binders_are_named():
    for p, i in (("p", "i"), ("q", "j"), ("p", "j"), ("q", "i")):
        ty = f"forall {{{p} : Permission, {i} : Name}} . & {p} (Ref {i} Float) -o & {p} (Ref {i} Float)"
        src = (
            "observe : forall {p : Permission, i : Name} . & p (Ref i Float) -o & p (Ref i Float);\n"
            "observe = \\w -> w;\n"
            "main : exists i . * (Ref i Float);\n"
            f"main = unpack <i, c> = newRef 1.5 in pack <i, withBorrow (\\b -> (\\g : ({ty}) -> g b) observe) c>;\n"
        )
        with pytest.raises(SyntaxError_) as e:
            parse_program(src)
        assert e.value.render("t.grb") == "t.grb:4:72: [SyntaxError] a quantifier may only begin a definition's signature"


# A polymorphic global is instantiated where it heads an application or is
# given to withBorrow, and is rejected anywhere else.
_POLY = (
    "observe : forall {p : Permission, i : Name} . & p (Ref i Float) -o & p (Ref i Float);\n"
    "observe = \\w -> w;\n"
    "alter : forall {i : Name} . & 1 (Ref i Float) -o & 1 (Ref i Float);\n"
    "alter = \\w -> w;\n"
)
_LOCAL = "(& 1 (Ref i Float) -o & 1 (Ref i Float))"


@pytest.mark.parametrize("body", [
    "withBorrow (\\b -> observe b) c",
    "withBorrow alter c",
    # a local binder named like the global is typed as the local
    f"withBorrow (\\b -> (\\observe : {_LOCAL} -> observe b) (\\w -> w)) c",
    f"(\\alter : {_LOCAL} -> withBorrow alter c) (\\w -> w)",
])
def test_polymorphic_global_is_instantiated_where_it_is_applied(body):
    from gradebor.machine import Heap, Machine
    from gradebor.metatheory import check_trace

    src = _POLY + f"main : exists i . * (Ref i Float);\nmain = unpack <i, c> = newRef 1.5 in pack <i, {body}>;"
    cp = check_program(parse_program(src))
    _, trace = Machine(cp.ring).eval(Heap(), cp.main_term, cp.ring.one)
    assert check_trace(trace, cp.main_type, cp.ring, cp.ring.one) == []


@pytest.mark.parametrize("main", [
    # inside a pair
    "main : Unit * Unit;\nmain = (observe, ());",
    # inside a box
    "main : (Unit -o Unit) [1];\nmain = [observe];",
    # as a beta-redex's argument
    "main : exists i . * (Ref i Float);\n"
    "main = unpack <i, c> = newRef 1.5 in pack <i, withBorrow (\\b -> (\\g -> g b) observe) c>;",
])
def test_unapplied_polymorphic_global_is_rejected(main):
    with pytest.raises(CheckError) as e:
        check_program(parse_program(_POLY + main))
    assert (e.value.kind, e.value.msg) == ("Mismatch", "polymorphic definition 'observe' must be applied")


def test_a_renamed_name_binder_avoids_every_name_of_its_bodies():
    # i.1, the first name fresh for i, is bound in one body and mentioned by an
    # annotation in the other; `subst_names` would capture or merge either
    ctx = Ctx(NAT_LEQ, names=frozenset({"i"}))
    bound = Unpack("i.1", "c", Var("r"), Pack("i", Var("c")))
    i2, (b,) = Checker(NAT_LEQ)._freshen_name("i", ctx, bound)
    assert i2 not in ("i", "i.1") and b.ident == "i.1" and b.body.ident == i2
    annotated = Abs("u", Pack("i", Var("u")), ResT("Ref", "i.1", FloatT()))
    i2, (a,) = Checker(NAT_LEQ)._freshen_name("i", ctx, annotated)
    assert i2 not in ("i", "i.1") and a.body.ident == i2 and a.ann.ident == "i.1"


def test_an_unpack_renames_an_identifier_that_a_signature_binds(tmp_path):
    # `check_program` puts f's Name binder i in scope, so the unpack's i is
    # renamed; main applies f, so its elaborated body shows f's
    from gradebor.cli import main as cli_main

    src = (
        "f : forall {i : Name} . * (Ref i Float) -o * (Ref i Float);\n"
        "f = \\c -> unpack <i, d> = newRef 2.0 in (\\v : Float -> c) (deleteRef d);\n"
        "main : exists i . * (Ref i Float);\n"
        "main = unpack <i, c> = newRef 1.0 in pack <i, f c>;\n"
    )
    cp = check_program(parse_program(src))
    assert "unpack <i.1, d> = newRef 2.0 in" in print_term(cp.main_term)
    path = tmp_path / "rename.grb"
    path.write_text(src, encoding="utf-8")
    assert cli_main(["trace", str(path)]) == 0


@pytest.mark.parametrize("binder, dom, arg", [
    # the two `exists` binders swapped
    ("p : Permission", "& p (exists a . exists b . Ref a Float * Ref b Float)",
     "& 1 (exists a . exists b . Ref b Float * Ref a Float)"),
    # i would have to stand for the identifier the argument's `exists` binds
    ("i : Name", "exists a . Ref a Float * Ref i Float", "exists a . Ref a Float * Ref a Float"),
])
def test_a_signature_does_not_instantiate_at_a_differently_bound_argument(binder, dom, arg):
    src = (
        f"f : forall {{{binder}}} . ({dom}) -o ({dom});\nf = \\x -> x;\n"
        f"main : ({arg}) -o ({arg});\nmain = \\y -> f y;\n"
    )
    with pytest.raises(CheckError) as e:
        check_program(parse_program(src))
    assert (e.value.kind, e.value.rule, str(e.value.loc)) == ("Mismatch", "app", "4:14")
    assert e.value.msg.startswith(f"cannot instantiate forall {{{binder}}} . ")


_A = "(exists i . * (Ref i Float))"


@pytest.mark.parametrize("main", [
    # the term variable i is used under `unpack <i, c>` and again outside it
    f"main : ({_A} * {_A}) * {_A};\n"
    "main = (\\i -> (\\r -> (unpack <i, c> = r in (i, pack <i, c>), i)) (newRef 2.0)) (newRef 1.0);\n",
    # the term variable j is used under `clone bx as <j>` and again outside it
    "main : (Float * Float) * Float;\n"
    "main = (\\j -> (unpack <i, r> = newRef 7.25 in\n"
    "  (\\bx : ((Ref i Float) [1]) -> let *c = clone bx as <j> in (deleteRef c, j)) (share r), j)) 1.5;\n",
])
def test_a_name_binder_does_not_hide_the_uses_of_a_term_variable_of_the_same_name(main):
    with pytest.raises(CheckError) as e:
        check_program(parse_program(main))
    assert e.value.kind == "LinearReuse" and e.value.msg.endswith("used more than once")
