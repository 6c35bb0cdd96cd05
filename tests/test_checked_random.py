"""Random source terms that the checker accepts run without getting stuck.

The terms come from a small grammar: abstractions annotated with one of five
types (`Float`, `Nat`, `Unit`, `Float [2]`, `Float * Float`) and applied,
pairs, boxes and the three lets, over the variables `x`, `y` and `z`. Each
draw aims at a type, but the terms are not well-typed by construction: a
leaf picks any variable of its type in scope, so a variable may be used
twice or not at all, and a box may stand where its grade cannot be
inferred. A term is kept when `Checker.synth` infers a type for it in the empty
context. Each kept term is then evaluated and its trace replayed through
`check_trace`; an evaluation that gets stuck counts as a failure, as does
every violation the trace checkers report. The generator in
`gradebor.generator` writes only well-typed programs of its own shapes, so
it cannot find a rule the checker has and the machine lacks; a grammar like
this one can (Pałka, Russo, Claessen and Hughes, "Testing an optimising
compiler by generating random lambda terms", AST 2011).

The accepted draws, and the subterms of generated traces in their runtime
contexts, also check that `Checker.synth` judges a term alike when it checks
it against the type it infers.
"""

import random

import pytest

from gradebor.generator import generate_programs
from gradebor.grades import NAT_LEQ
from gradebor.machine import EvalError, Heap, Machine
from gradebor.metatheory import check_trace, runtime_ctx
from gradebor.parser import print_term
from gradebor.syntax import (
    Abs, App, Box, FloatLit, FloatT, LetBox, LetPair, LetUnit, NatLit, NatT, Pair, Prod, Promote,
    UnitT, UnitVal, Var, children,
)
from gradebor.typecheck import CheckError, Checker, Ctx, check_program

RING = NAT_LEQ
FLOAT2 = Box(RING.literal(2), FloatT())
PAIR = Prod(FloatT(), FloatT())
TYPES = (FloatT(), NatT(), UnitT(), FLOAT2, PAIR)
BOXES = (Box(RING.one, FloatT()), FLOAT2, Box(RING.literal(2), NatT()))
FORMS = (Abs, App, Pair, Promote, LetPair, LetUnit, LetBox)
DRAWS = 4000


def draw(rng: random.Random, ty, depth: int, scope: tuple = ()):
    """A random term aimed at type `ty`, of at most `depth` levels above its
    leaves. `scope` lists the (name, type) of each variable in scope; a leaf
    of type `ty` is mostly one of them."""
    if depth <= 0 or rng.random() < 0.2:
        fitting = [x for x, a in scope if a == ty]
        if fitting and rng.random() < 0.8:
            return Var(rng.choice(fitting))
        if ty == FLOAT2:
            return Promote(draw(rng, FloatT(), 0, scope))
        if ty == PAIR:
            return Pair(draw(rng, FloatT(), 0, scope), draw(rng, FloatT(), 0, scope))
        return FloatLit(1.5) if ty == FloatT() else NatLit(2) if ty == NatT() else UnitVal()
    d = depth - 1
    x, y = rng.sample("xyz", 2)
    inner = tuple((n, a) for n, a in scope if n not in (x, y))
    form = rng.choice((App, LetPair, LetUnit, LetBox))
    if form is App:
        a = rng.choice(TYPES)
        return App(Abs(x, draw(rng, ty, d, inner + ((x, a),)), a), draw(rng, a, d, scope))
    if form is LetPair:
        return LetPair(x, y, draw(rng, PAIR, d, scope), draw(rng, ty, d, inner + ((x, FloatT()), (y, FloatT()))))
    if form is LetUnit:
        return LetUnit(draw(rng, UnitT(), d, scope), draw(rng, ty, d, scope))
    box = rng.choice(BOXES)
    return LetBox(x, draw(rng, box, d, scope), draw(rng, ty, d, inner + ((x, box.body),)), box)


def forms_of(t) -> set:
    """The classes of t's nodes and the annotations of its abstractions."""
    out, todo = set(), [t]
    while todo:
        node = todo.pop()
        out.add(type(node))
        if isinstance(node, Abs):
            out.add(node.ann)
        todo.extend(children(node))
    return out


@pytest.mark.parametrize("seed", [1, 2])
def test_accepted_random_terms_run_and_replay_cleanly(seed):
    rng = random.Random(seed)
    failures, seen = [], set()
    for _ in range(DRAWS):
        t = draw(rng, rng.choice(TYPES), 4)
        try:
            ty, _, elab = Checker(RING).synth(Ctx(RING), t)
        except CheckError:
            continue
        seen |= forms_of(t)
        try:
            _, trace = Machine(RING).eval(Heap(), elab, RING.one)
        except EvalError as e:
            failures.append(f"{print_term(t)}: stuck: {e}")
            continue
        failures += [f"{print_term(t)}: {v}" for v in check_trace(trace, ty, RING, RING.one)]
    assert not failures, failures[:5]
    assert set(FORMS) <= seen and set(TYPES) <= seen


def agrees_with_its_own_check(ring, ctx, t) -> bool:
    """Whether checking t against the type it infers gives the same usage and
    the same printed elaborated term; False when t infers no type."""
    try:
        ty, usage, elab = Checker(ring).synth(ctx, t)
    except CheckError:
        return False
    checked = Checker(ring).synth(ctx, t, ty)
    assert (checked[0], checked[1], print_term(checked[2])) == (ty, usage, print_term(elab)), print_term(t)
    return True


def test_checking_against_the_inferred_type_agrees_with_inferring():
    # each class whose rule reads the expected type has a guarded case in
    # `Checker.synth` next to its inferring one; both must judge alike
    rng = random.Random(3)
    draws = sum(agrees_with_its_own_check(RING, Ctx(RING), draw(rng, rng.choice(TYPES), 4)) for _ in range(DRAWS))
    subterms = 0
    for prog in generate_programs(5, count=40):
        cp = check_program(prog)
        _, trace = Machine(cp.ring).eval(Heap(), cp.main_term, cp.ring.one)
        for term, heap in trace.configurations():
            rt, todo = runtime_ctx(heap, cp.ring), [term]
            while todo:
                t = todo.pop()
                todo.extend(children(t))
                subterms += agrees_with_its_own_check(cp.ring, rt, t)
    assert draws >= 500 and subterms >= 1000, (draws, subterms)
