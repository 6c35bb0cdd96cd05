"""Bounded generator of well-typed programs for the property suites.

Programs are built by inverting the typing rules: every template tracks the
type it inhabits, so the output is well-typed by construction (and the test
suite re-checks every emitted program). Small sizes yield pure lambda terms;
larger sizes mix in resource skeletons exercising borrowing, splitting,
distribution over products, sharing, and cloning.

The templates' signatures hold no grade, so they parse to the same type
under every semiring: each is parsed once, at import, and the one object is
shared by every program that uses it (types are compared structurally and
never mutated), so generating a program parses nothing. A signature with
a grade would need one constant per ring.
"""

from __future__ import annotations

import random
from typing import Iterator, Optional

from .grades import Semiring, NAT, NAT_LEQ, INTERVAL
from .parser import Definition, SourceProgram, parse_type
from . import syntax as S
from .syntax import (
    Abs, Amp, App, Box, Clone, ExistsT, FloatLit, FloatT, Join, LetBox,
    LetPair, LetUnit, NatLit, NatT, Pack, Pair, Prim, Prod, Promote, Pull,
    Push, ResT, Share, Split, Term, Type, UnitT, UnitVal, Unpack, Var,
    WithBorrow,
)


_OBSERVE_SIG = parse_type("forall {p : Permission, i : Name} . & p (Ref i Float) -o & p (Ref i Float)")
_ALTER_SIG = parse_type("forall {i : Name} . & 1 (Ref i Float) -o & 1 (Ref i Float)")
_REF_SIG = parse_type("exists i . * (Ref i Float)")
_ARRAY_SIG = parse_type("exists i . * (Array i Float)")
_TWO_REFS_SIG = parse_type("exists i . exists j . * ((Ref i Float) * (Ref j Float))")
_UNIT_SIG = parse_type("Unit")
_FLOAT_SIG = parse_type("Float")


def _float(rng: random.Random) -> FloatLit:
    return FloatLit(round(rng.uniform(0.0, 8.0), 2))


# -- pure fragment -----------------------------------------------------------


def _gen_pure(rng: random.Random, ring: Semiring, depth: int) -> tuple[Term, Type]:
    """A closed, well-typed term of the core fragment together with its type."""
    if depth <= 0:
        return rng.choice(
            [
                (UnitVal(), UnitT()),
                (NatLit(rng.randrange(0, 5)), NatT()),
                (_float(rng), FloatT()),
            ]
        )
    choice = rng.randrange(6)
    if choice == 0:
        lt, lty = _gen_pure(rng, ring, depth - 1)
        rt, rty = _gen_pure(rng, ring, depth - 1)
        return Pair(lt, rt), Prod(lty, rty)
    if choice == 1:
        # identity redex
        body, ty = _gen_pure(rng, ring, depth - 1)
        return App(Abs("u", Var("u"), ty), body), ty
    if choice == 2:
        lt, lty = _gen_pure(rng, ring, depth - 1)
        rt, rty = _gen_pure(rng, ring, depth - 1)
        return LetPair("a", "b", Pair(lt, rt), Pair(Var("a"), Var("b"))), Prod(lty, rty)
    if choice == 3:
        body, ty = _gen_pure(rng, ring, depth - 1)
        return LetUnit(UnitVal(), body), ty
    if choice == 4:
        # promote a value and unbox it, using it as often as the grade allows
        inner, ity = _gen_pure(rng, ring, 0)
        if ring is INTERVAL:
            lo = rng.randrange(0, 3)
            hi = lo + rng.randrange(0, 3)
            declared = ring.literal(lo, hi)
            uses = rng.randrange(lo, hi + 1)
        elif ring is NAT:
            uses = rng.randrange(0, 3)
            declared = ring.literal(uses)
        else:
            uses = rng.randrange(0, 3)
            declared = ring.literal(uses + rng.randrange(0, 2))
        if uses == 0:
            body: Term = UnitVal()
            bty: Type = UnitT()
        else:
            body = Var("z")
            bty = ity
            for _ in range(uses - 1):
                body = Pair(body, Var("z"))
                bty = Prod(bty, ity)
        return LetBox("z", Promote(inner), body, Box(declared, ity)), bty
    lt, lty = _gen_pure(rng, ring, depth - 1)
    return LetPair("a", "b", Pair(lt, UnitVal()), LetUnit(Var("b"), Var("a"))), lty


# -- borrowing skeletons -------------------------------------------------------


def _borrow_chain(rng: random.Random, depth: int, observed: bool) -> Term:
    """The body of a borrowing function over `b`: reborrow by repeated
    split/join, optionally routing one side through `observe`."""
    if depth <= 0:
        return Var("b")

    def splits(v: Term, d: int) -> Term:
        if d == 0:
            return _maybe_observe(rng, v, observed)
        return LetPair(
            f"x{d}",
            f"y{d}",
            Split(v),
            Join(Pair(splits(Var(f"x{d}"), d - 1), _maybe_observe(rng, Var(f"y{d}"), observed))),
        )

    return splits(Var("b"), depth)


def _maybe_observe(rng: random.Random, v: Term, observed: bool) -> Term:
    if observed and rng.random() < 0.5:
        return App(Var("observe"), v)
    return v


def _gen_ref_borrow(rng: random.Random, ring: Semiring) -> list[Definition]:
    depth = rng.randrange(0, 3)
    observed = rng.random() < 0.6
    swap_first = rng.random() < 0.5
    body = _borrow_chain(rng, depth, observed)
    if swap_first:
        # route the borrow through a swap before any splitting
        body = LetPair("old", "b2", App(App(Prim("swapRef"), Var("b")), _float(rng)), S.subst(body, "b", Var("b2")))
    fn = Abs("b", body)
    main_body = Unpack("i", "c", App(Prim("newRef"), _float(rng)), Pack("i", WithBorrow(fn, Var("c"))))

    defs = [Definition("observe", _OBSERVE_SIG, Abs("w", Var("w")))] if observed else []
    defs.append(Definition("main", _REF_SIG, main_body))
    return defs


def _gen_array(rng: random.Random, ring: Semiring) -> list[Definition]:
    n = rng.randrange(1, 4)
    idx = rng.randrange(0, n)
    write_first = rng.random() < 0.7
    delete_at_end = rng.random() < 0.5
    inner: Term = Var("a")
    if write_first:
        inner = App(App(App(Prim("writeArray"), inner), NatLit(idx)), _float(rng))
    borrow_body = LetPair(
        "x",
        "y",
        Split(Var("b")),
        LetPair("v", "x2", App(App(Prim("readArray"), Var("x")), NatLit(idx)), Join(Pair(Var("x2"), Var("y")))),
    )
    borrowed = WithBorrow(Abs("b", borrow_body), inner)
    if delete_at_end:
        sig = _UNIT_SIG
        body = Unpack("i", "a", App(Prim("newArray"), NatLit(n)), App(Prim("deleteArray"), borrowed))
    else:
        sig = _ARRAY_SIG
        body = Unpack("i", "a", App(Prim("newArray"), NatLit(n)), Pack("i", borrowed))
    return [Definition("main", sig, body)]


def _gen_colour(rng: random.Random, ring: Semiring) -> list[Definition]:
    mutate_left = rng.random() < 0.5
    alter = Definition(
        "alter",
        _ALTER_SIG,
        Abs("w", LetPair("old", "w2", App(App(Prim("swapRef"), Var("w")), _float(rng)), Var("w2"))),
    )
    if mutate_left:
        pp = LetPair("l", "p", Push(Var("c")), Pull(Pair(WithBorrow(Var("alter"), Var("l")), Var("p"))))
    else:
        pp = LetPair("l", "p", Push(Var("c")), Pull(Pair(Var("l"), WithBorrow(Var("alter"), Var("p")))))
    main_body = Unpack(
        "i",
        "r",
        App(Prim("newRef"), _float(rng)),
        Unpack(
            "j",
            "g",
            App(Prim("newRef"), _float(rng)),
            Pack("i", Pack("j", App(Abs("c", pp), Pull(Pair(Var("r"), Var("g")))))),
        ),
    )
    return [alter, Definition("main", _TWO_REFS_SIG, main_body)]


def _gen_share_clone(rng: random.Random, ring: Semiring) -> list[Definition]:
    if ring is INTERVAL:
        grade = ring.literal(1, rng.randrange(1, 3))
    elif ring is NAT:
        grade = ring.literal(1)  # the discrete order only lets clone take exactly one use
    else:
        grade = ring.literal(rng.randrange(1, 3))
    box_ty = Box(grade, ResT("Ref", "i", FloatT()))
    body = App(
        Abs("bx", Clone("c", ("j",), Var("bx"), App(Prim("deleteRef"), Var("c")), None), box_ty),
        Share(Var("r")),
    )
    main_body = Unpack("i", "r", App(Prim("newRef"), _float(rng)), body)
    return [Definition("main", _FLOAT_SIG, main_body)]


def _gen_pair_borrow(rng: random.Random, ring: Semiring) -> list[Definition]:
    # borrow a whole product and work at pair granularity: either distribute
    # with push/pull or split and rejoin the pair itself
    if rng.random() < 0.5:
        fn = Abs("p", Join(Split(Var("p"))))
    else:
        fn = Abs("p", LetPair("x", "y", Push(Var("p")), Pull(Pair(Var("x"), Join(Split(Var("y")))))))
    main_body = Unpack(
        "i",
        "r",
        App(Prim("newRef"), _float(rng)),
        Unpack(
            "j",
            "g",
            App(Prim("newRef"), _float(rng)),
            Pack("i", Pack("j", WithBorrow(fn, Pull(Pair(Var("r"), Var("g")))))),
        ),
    )
    return [Definition("main", _TWO_REFS_SIG, main_body)]


def _gen_readref(rng: random.Random, ring: Semiring) -> list[Definition]:
    reads = rng.randrange(1, 3)
    grade = ring.literal(reads) if ring is not INTERVAL else ring.literal(reads, reads)
    ref_ty = ExistsT("i", Amp(S.STAR, ResT("Ref", "i", Box(grade, FloatT()))))
    # each read lowers the payload grade by one; delete returns the empty box
    body: Term = LetBox("z", App(Prim("deleteRef"), Var(f"r{reads}")), UnitVal())
    for k in reversed(range(reads)):
        body = LetPair(f"v{k}", f"r{k + 1}", App(Prim("readRef"), Var(f"r{k}")), body)
    main_body = App(Abs("rp", Unpack("i", "r0", Var("rp"), body), ref_ty), App(Prim("newRef"), Promote(_float(rng))))
    return [Definition("main", _UNIT_SIG, main_body)]


TEMPLATES = [_gen_ref_borrow, _gen_array, _gen_colour, _gen_share_clone, _gen_readref, _gen_pair_borrow]


def generate_program(rng: random.Random, size: int = 6) -> SourceProgram:
    if size < 4:
        ring = rng.choice([NAT_LEQ, NAT, INTERVAL])
        term, ty = _gen_pure(rng, ring, max(1, size))
        return SourceProgram(ring, [Definition("main", ty, term)], "<generated>")
    ring = rng.choice([NAT_LEQ, NAT_LEQ, NAT])
    if rng.random() < 0.25:
        term, ty = _gen_pure(rng, ring, rng.randrange(1, 4))
        return SourceProgram(ring, [Definition("main", ty, term)], "<generated>")
    template = rng.choice(TEMPLATES)
    return SourceProgram(ring, template(rng, ring), "<generated>")


def generate_programs(seed: int, size: int = 6, count: Optional[int] = None) -> Iterator[SourceProgram]:
    rng = random.Random(seed)
    produced = 0
    while count is None or produced < count:
        yield generate_program(rng, size)
        produced += 1


def constructors_used(t: Term) -> set[str]:
    out = {type(t).__name__}
    if isinstance(t, Prim):
        out.add(f"Prim:{t.name}")
    for c in S.children(t):
        out |= constructors_used(c)
    return out
