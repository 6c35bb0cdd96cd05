"""Executable soundness checkers over machine traces.

Each theorem of the calculus is realized as a checker that inspects concrete
configurations: heap compatibility, type preservation, progress, per-step
borrow safety, end-of-run uniqueness, and soundness of the equational laws.
All permission arithmetic is exact; there are no tolerances anywhere.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .generator import constructors_used, generate_program
from .grades import (
    Grade, INTERVAL, NAT, NAT_LEQ, STAR, Semiring, grade_add, grade_leq, grade_mul, grade_residual, perm_add,
    perm_half,
)
from . import syntax as S
from .syntax import (
    Abs, Amp, App, ExistsT, FloatLit, Join, LetPair, NatLit, Pack, Pair, Permission, Prim, RefVal, Split, Term,
    Type, Uniq, Var, WithBorrow,
)
from .machine import ArrRes, Config, Frame, Heap, Machine, EvalError, RefCell, Trace, plug, shared_frame
from .typecheck import (
    Checker, CheckError, Ctx, GradedEntry, TypingMemo, Usage, check_program, runtime_ctx, transparent_child,
)


@dataclass
class Violation:
    prop: str
    step: Optional[int]
    message: str

    def __str__(self) -> str:
        at = f" at step {self.step}" if self.step is not None else ""
        return f"{self.prop}{at}: {self.message}"


@dataclass
class CompatJudgment:
    accepted: bool
    failure: Optional[str] = None


# ---------------------------------------------------------------------------
# Heap compatibility


def heap_compat(
    heap: Heap, ctx: Ctx, ring: Semiring, rt: Optional[Ctx] = None, checker: Optional[Checker] = None
) -> CompatJudgment:
    """Decide whether the heap can account for the context's demands.

    The derivation peels variable bindings from the right, accumulating the
    demands of stored values (scaled by the use made of the variable), then
    discharges reference entries and garbage-collects leftover resources.
    Variables the context never mentions are discharged without a typing
    premise, and leftover references are collectable only at permission 0.

    Stored values are typed by `checker` (through its memo, if it has one)
    in `rt`, the heap's runtime context; both are built here when not given.
    """
    if checker is None:
        checker = Checker(ring)
    if rt is None:
        rt = runtime_ctx(heap, ring)
    demands: dict[str, Grade] = {}
    for x, entry in ctx.vars.items():
        if isinstance(entry, GradedEntry):
            demands[x] = entry.grade
        else:
            demands[x] = ring.one
    ref_demands = set(ctx.refs)

    zero = ring.zero
    for x in reversed(list(heap.vars)):
        cell = heap.vars[x]
        s_x = demands.pop(x, zero)
        if grade_residual(cell.grade, s_x) is None:
            return CompatJudgment(False, f"variable {x!r}: demand {s_x} exceeds heap grade {cell.grade}")
        if s_x == zero:
            continue
        entry = ctx.vars.get(x)
        want_ty = entry.ty if entry is not None else cell.ty
        try:
            ty, usage, _ = checker.infer_shared(rt, cell.value)
        except CheckError as e:
            return CompatJudgment(False, f"stored value of {x!r} fails to type: {e.msg}")
        if want_ty is not None and ty != want_ty:
            return CompatJudgment(False, f"stored value of {x!r} has type {ty!r}, context expects {want_ty!r}")
        for y, g in usage.graded.items():
            _acc(demands, y, grade_mul(s_x, g))
        for y in usage.linear:
            _acc(demands, y, s_x)
        ref_demands |= usage.refs

    if demands:
        missing = ", ".join(sorted(demands))
        return CompatJudgment(False, f"context demands variables missing from the heap: {missing}")

    for ref in sorted(ref_demands):
        cell = heap.refs.get(ref)
        if cell is None:
            return CompatJudgment(False, f"context demands reference {ref} missing from the heap")
        if cell.ident not in heap.resources:
            return CompatJudgment(False, f"reference {ref} points to a deleted resource {cell.ident}")
    for ref, cell in heap.refs.items():
        if ref not in ref_demands and cell.perm != 0:
            return CompatJudgment(False, f"reference {ref} holds permission {cell.perm} but nothing demands it")
    return CompatJudgment(True)


def _acc(demands: dict[str, Grade], y: str, g: Grade) -> None:
    demands[y] = grade_add(demands[y], g) if y in demands else g


def _demand_ctx(rt: Ctx, usage: Usage, s: Grade) -> Ctx:
    """The context `s . Gamma'` built from a synthesized usage, with the
    types of the runtime context `rt`."""
    vars_ = {}
    for x, g in usage.graded.items():
        base = rt.vars.get(x)
        vars_[x] = GradedEntry(base.ty if base else None, grade_mul(s, g))
    for x in usage.linear:
        base = rt.vars.get(x)
        vars_[x] = GradedEntry(base.ty if base else None, s)
    refs = {r: rt.refs[r] for r in usage.refs if r in rt.refs}
    return Ctx(rt.ring, vars_, frozenset(), refs, lenient_names=True)


# ---------------------------------------------------------------------------
# Preservation and progress


def check_preservation(trace: Trace, main_type: Type, ring: Semiring, s: Grade) -> list[Violation]:
    """Re-check every configuration against the main type and check heap
    compatibility.

    The ambient context is empty, so compatibility is checked against the
    synthesized usage scaled by the reduction grade, on every configuration.

    Consecutive configurations of a recorded run share the frames of their
    evaluation contexts above the point where they differ, so their terms
    differ only in the hole of the deepest shared frame. Every evaluation
    position is read through its child's judgment, except a function read
    syntactically, so where the previous configuration's judgments were
    recorded, the root usage is reused when the judgment of that hole is
    unchanged (`_cut_off`). Judgments are
    recorded, one for the term in the hole of each frame, only for a
    configuration whose runtime context has the same variables, references
    and names as the next one's. Every other configuration is checked in
    full, with one `TypingMemo` for the whole trace: a judgment on a let,
    unpack, clone or withBorrow node, or on a stored value, that an earlier
    configuration made under the same relevant context is looked up, not
    recomputed. A binder renamed on the way takes a name fixed by the
    check's input, so the violations do not depend on what ran before.
    """
    out: list[Violation] = []
    checker = Checker(ring, memo=TypingMemo())
    configs = trace.configs
    rts = [runtime_ctx(c.heap, ring) for c in configs]
    prev: Optional[tuple[Config, Usage, dict]] = None  # the last configuration, its root usage and judgments
    for k, config in enumerate(configs):
        rt = rts[k]
        keep = k + 1 < len(rts) and _same_ctx(rt, rts[k + 1])
        usage = _cut_off(checker, prev, config, rt, keep) if prev is not None else None
        if usage is not None:
            prev = (config, usage, prev[2]) if keep else None
        else:
            prev = None
            term, holes = _filled(config.frame, config.hole, None)
            checker.record = {} if keep else None
            try:
                usage, _ = checker.check(rt, term, main_type)
            except CheckError as e:
                out.append(Violation("preservation", k, f"re-inference failed: [{e.kind}] {e.msg}"))
                continue
            finally:
                record, checker.record = checker.record, None
            if keep:
                prev = (config, usage, _judged(holes, record))
        judgment = heap_compat(config.heap, _demand_ctx(rt, usage, s), ring, rt, checker)
        if not judgment.accepted:
            out.append(Violation("preservation", k, f"heap compatibility failed: {judgment.failure}"))
    return out


def _same_ctx(a: Ctx, b: Ctx) -> bool:
    """Whether two runtime contexts agree in everything a judgment reads."""
    return a.vars == b.vars and a.refs == b.refs and a.names == b.names


def _filled(frame: Optional[Frame], t: Term, stop: Optional[Frame]) -> tuple[Term, list[tuple[Frame, Term]]]:
    """t plugged into the frames from `frame` up to `stop` (not included), as
    `plug` does, with the term in the hole of each of those frames."""
    holes = []
    while frame is not stop:
        holes.append((frame, t))
        t = frame.plug(t)
        frame = frame.parent
    return t, holes


def _judged(holes: list[tuple[Frame, Term]], record: dict) -> dict[Frame, Optional[tuple]]:
    """The recorded judgment `(expected, type, usage)` of the term in the hole
    of each frame; None for a term with no judgment of its own."""
    return {frame: (j[1:] if (j := record.get(id(t))) is not None else None) for frame, t in holes}


def _cut_off(
    checker: Checker, prev: tuple[Config, Usage, dict], config: Config, rt: Ctx, keep: bool
) -> Optional[Usage]:
    """The root usage of `config`'s term, taken from the previous
    configuration when that is sound; None when the term needs a full check.

    `prev` is the previous configuration, its root usage and the judgments of
    the terms in the holes of its frames, recorded in a runtime context equal
    to `rt`. The two terms differ only in the hole of their deepest shared
    frame (`shared_frame`), and only the two subterms there are built. Every
    evaluation position is read by its parent's rule through its child's
    judgment alone, except a function that the beta-redex or primitive-spine
    rule reads syntactically (`transparent_child`); there the cut moves up
    one frame. So the new subterm is typed in the mode the old one was, in
    `rt` itself: if its type and usage are the old ones, every ancestor keeps
    its judgment, the root included (the replacement lemma). With `keep`, the
    judgments of the frames below the cut are set in `prev`'s; the frames
    above it keep theirs.
    """
    old, usage, judgments = prev
    if old.frame is config.frame and old.hole is config.hole:
        return usage
    cut = shared_frame(old.frame, config.frame)
    if cut is None:
        return None
    old_sub = plug(old.frame, old.hole, cut)
    new_sub, holes = _filled(config.frame, config.hole, cut)
    parent, new_parent = cut.plug(old_sub), cut.plug(new_sub)
    # The link at the cut is judged on the two parents themselves: in the
    # innermost frame of either configuration the hole may hold a value,
    # such as the abstraction of a beta-redex. One frame up, the hole holds
    # that application or withBorrow, which its parent reads through its
    # judgment.
    if not (transparent_child(parent, cut.hole) and transparent_child(new_parent, cut.hole)):
        holes.append((cut, new_sub))
        old_sub, new_sub, cut = parent, new_parent, cut.parent
        if cut is None:
            return None
        parent, new_parent = cut.plug(old_sub), cut.plug(new_sub)
    hole = cut.hole
    # A spine link carries no judgment of its own, and a function position
    # reached from two applications of which only one is a primitive spine
    # is typed by two different rules. Above an argument link the function
    # chains are shared, so this test at the cut covers every link above it.
    if hole == "fn" and type(parent) is App and not (
        S.prim_spine(parent) is None and S.prim_spine(new_parent) is None
    ):
        return None
    entry = judgments.get(cut)
    if entry is None:
        return None
    expected, ty, used = entry
    record = {} if keep else None
    checker.record = record
    try:
        if expected is None:
            ty2, used2, _ = checker.infer(rt, new_sub)
        else:
            ty2 = expected
            used2, _ = checker.check(rt, new_sub, expected)
    except CheckError:
        return None
    finally:
        checker.record = None
    if ty2 != ty or used2 != used:
        return None
    if keep:
        judgments.update(_judged(holes, record))
    return usage


def check_progress(trace: Trace) -> list[Violation]:
    """On a completed trace, progress amounts to ending in a value."""
    if not S.is_value(trace.final_term):
        return [Violation("progress", len(trace.steps), f"run ended on a non-value: {trace.final_term!r}")]
    return []


# ---------------------------------------------------------------------------
# Borrow safety


def reachable_refs(term: Term, heap: Heap) -> set[str]:
    """References the term can reach, following variables bound in the heap.

    The machine binds intermediate values in the heap rather than leaving
    them in the term, so the permission totals of the borrow-safety lemma
    must chase heap variables.
    """
    return _chase(S.refs_of(term), S.free_vars(term), heap)


def _chase(refs: set[str], free: set[str], heap: Heap) -> set[str]:
    """The references `refs` and those of the heap values that the variables
    `free` reach, transitively."""
    out = set(refs)
    seen: set[str] = set()
    todo = list(free)
    while todo:
        x = todo.pop()
        if x in seen:
            continue
        seen.add(x)
        cell = heap.vars.get(x)
        if cell is None:
            continue
        out |= S.refs_of(cell.value)
        todo.extend(S.free_vars(cell.value))
    return out


def _perm_sums(reachable: set[str], heap: Heap) -> dict[str, Fraction]:
    sums: dict[str, Fraction] = {}
    for ref in reachable:
        cell = heap.refs.get(ref)
        if cell is None:
            continue
        sums[cell.ident] = sums.get(cell.ident, Fraction(0)) + cell.perm
    return sums


def check_borrow_safety_step(
    pre_term: Term, pre_heap: Heap, post_term: Term, post_heap: Heap, step: Optional[int] = None
) -> list[Violation]:
    """Exact per-step conservation of term-reachable permission totals."""
    return _conservation(
        reachable_refs(pre_term, pre_heap), pre_heap, reachable_refs(post_term, post_heap), post_heap, step
    )


def _conservation(
    pre_reach: set[str], pre_heap: Heap, post_reach: set[str], post_heap: Heap, step: Optional[int]
) -> list[Violation]:
    out: list[Violation] = []
    pre = _perm_sums(pre_reach, pre_heap)
    post = _perm_sums(post_reach, post_heap)
    for ident in pre_heap.resources:
        if pre.get(ident, Fraction(0)) == 1:
            after = post.get(ident, Fraction(0))
            if after not in (Fraction(0), Fraction(1)):
                out.append(
                    Violation(
                        "borrow-safety",
                        step,
                        f"resource {ident}: permission total went from 1 to {after}",
                    )
                )
    for ident in post_heap.resources:
        if ident in pre_heap.resources:
            continue
        touching = [r for r in post_reach if post_heap.refs.get(r) and post_heap.refs[r].ident == ident]
        if touching:
            total = sum((post_heap.refs[r].perm for r in touching), Fraction(0))
            if total != 1:
                out.append(
                    Violation(
                        "borrow-safety",
                        step,
                        f"fresh resource {ident}: referenced at total permission {total}, expected 1",
                    )
                )
    return out


def check_borrow_safety(trace: Trace) -> list[Violation]:
    """`check_borrow_safety_step` on every step of a recorded trace.

    Step k leads from configuration k to configuration k + 1, so
    reachability is computed once per configuration, from the recorded
    configurations alone. A term's references and free variables are each
    the previous term's when the step kept them (`_root_sets`), so a step
    deep in a term costs the frames that the two configurations do not
    share, not a walk from the root; the heap chase is done on every
    configuration.
    """
    configs = trace.configs
    pre = configs[0]
    term = pre.term()
    refs, free = S.refs_of(term), S.free_vars(term)
    reach = _chase(refs, free, pre.heap)
    out: list[Violation] = []
    for k, post in enumerate(configs[1:]):
        refs, free = _root_sets(pre, refs, free, post)
        post_reach = _chase(refs, free, post.heap)
        out.extend(_conservation(reach, pre.heap, post_reach, post.heap, k))
        pre, reach = post, post_reach
    return out


def _root_sets(old: Config, refs: set[str], free: set[str], new: Config) -> tuple[set[str], set[str]]:
    """The references and free variables of `new`'s term, each taken from
    those of `old`'s, `refs` and `free`, when the step from `old` kept it.

    The two terms differ only in the hole of their deepest shared frame
    (`shared_frame`). A node's sets depend only on its class and data
    (binders and name identifiers among them) and on its children's sets, so
    each root set equals the old one when the two subterms in that hole have
    equal sets.
    """
    if old.frame is new.frame and old.hole is new.hole:
        return refs, free
    top = shared_frame(old.frame, new.frame)
    new_sub = plug(new.frame, new.hole, top)
    if top is None:
        return S.refs_of(new_sub), S.free_vars(new_sub)
    old_sub = plug(old.frame, old.hole, top)
    same_refs = S.refs_of(old_sub) == S.refs_of(new_sub)
    same_free = S.free_vars(old_sub) == S.free_vars(new_sub)
    if same_refs and same_free:
        return refs, free
    whole = plug(top, new_sub)
    return refs if same_refs else S.refs_of(whole), free if same_free else S.free_vars(whole)


# ---------------------------------------------------------------------------
# Uniqueness


def _strip_exists(ty: Type) -> Type:
    while isinstance(ty, ExistsT):
        ty = ty.body
    return ty


def uniqueness_applicable(final_type: Type) -> bool:
    inner = _strip_exists(final_type)
    return isinstance(inner, Amp) and isinstance(inner.perm, Permission) and inner.perm.is_star


def check_uniqueness(trace: Trace, final_type: Type) -> list[Violation]:
    """At the end of a run producing an owned value, ownership is one whole
    reference per live resource the result touches, and unique references
    present at the start remain unique."""
    if not uniqueness_applicable(final_type):
        return []
    out: list[Violation] = []
    first = trace.configs[0]
    t0, h0, v, hf = first.term(), first.heap, trace.final_term, trace.final_heap

    pre_sums = _perm_sums(reachable_refs(t0, h0), h0)
    for ident, total in pre_sums.items():
        if total == 1 and ident in hf.resources:
            whole = [r for r, c in hf.refs.items() if c.ident == ident and c.perm == 1]
            if len(whole) != 1:
                out.append(
                    Violation(
                        "uniqueness",
                        None,
                        f"resource {ident}: expected exactly one whole reference at the end, found {len(whole)}",
                    )
                )
    final_reach = reachable_refs(v, hf)
    new_idents = {c.ident for r, c in hf.refs.items() if r in final_reach} - set(h0.resources)
    for ident in sorted(new_idents):
        whole = [r for r, c in hf.refs.items() if c.ident == ident and c.perm == 1]
        if len(whole) != 1:
            out.append(
                Violation(
                    "uniqueness",
                    None,
                    f"fresh resource {ident}: expected exactly one whole reference, found {len(whole)}",
                )
            )
    return out


# ---------------------------------------------------------------------------
# All trace checkers together


def check_trace(trace: Trace, main_type: Type, ring: Semiring, s: Grade) -> list[Violation]:
    """Every per-trace checker, reported in the order preservation,
    borrow safety, progress, uniqueness."""
    return (
        check_preservation(trace, main_type, ring, s)
        + check_borrow_safety(trace)
        + check_progress(trace)
        + check_uniqueness(trace, main_type)
    )


# ---------------------------------------------------------------------------
# Equational soundness


def close_value(heap: Heap, t: Term, depth: int = 0) -> Term:
    """Substitute heap variables into a value until it is heap-closed.

    `depth` counts heap dereferences, the only step that can loop, not tree levels."""
    if depth > 64:
        raise EvalError("value closure recursion exceeded")
    match t:
        case S.Var(x):
            cell = heap.vars.get(x)
            if cell is None:
                return t
            return close_value(heap, cell.value, depth + 1)
        case _:
            return S.map_children(t, lambda c: close_value(heap, c, depth))


def readback(heap: Heap, t: Term, depth: int = 0):
    """Replace references by their resource contents, forgetting names.

    `depth` counts heap dereferences (variable to cell, reference to resource)."""
    if depth > 64:
        raise EvalError("readback recursion exceeded")
    match t:
        case S.RefVal(r):
            cell = heap.refs.get(r)
            if cell is None:
                return ("dangling",)
            res = heap.resources.get(cell.ident)
            if res is None:
                return ("deleted",)
            if res.is_array:
                return ("arr", tuple(sorted(res.items.items())))
            return ("refcell", readback(heap, res.value, depth + 1))
        case S.Var(x):
            cell = heap.vars.get(x)
            if cell is None:
                return ("freevar", x)
            return readback(heap, cell.value, depth + 1)
        case Uniq(w, p):
            return ("uniq", str(p), readback(heap, w, depth))
        case Pair(l, r):
            return ("pair", readback(heap, l, depth), readback(heap, r, depth))
        case S.UnitVal():
            return ("unit",)
        case S.NatLit(v):
            return ("nat", v)
        case S.FloatLit(v):
            return ("float", v)
        case S.Promote(w, _):
            return ("box", readback(heap, w, depth))
        case Pack(_, w):
            return ("pack", readback(heap, w, depth))
        case S.Unborrow(w):
            return ("unborrow", readback(heap, w, depth))
        case S.Abs():
            return ("fun", S.strip_meta(close_value(heap, t)))
        case S.Prim(n):
            return ("prim", n)
        case S.App():
            spine = S.prim_spine(t)
            if spine is not None:
                name, args = spine
                return ("papp", name, tuple(readback(heap, a, depth) for a in args))
            return ("app", readback(heap, t.fn, depth), readback(heap, t.arg, depth))
        case _:
            return ("term", S.strip_meta(t))


def readback_eq(a, b) -> bool:
    if isinstance(a, Term) or isinstance(b, Term):
        return isinstance(a, Term) and isinstance(b, Term) and S.alpha_eq(a, b)
    if isinstance(a, tuple) and isinstance(b, tuple):
        return len(a) == len(b) and all(readback_eq(x, y) for x, y in zip(a, b))
    return a == b


@dataclass
class EquationalReport:
    equal: bool
    left: object
    right: object
    violations: list[Violation] = field(default_factory=list)


def check_equational(t1: Term, t2: Term, heap: Heap, ring: Semiring, fuel: int = 10000) -> EquationalReport:
    """Run both sides from copies of the heap and compare dereferenced values."""
    m = Machine(ring)
    h1, h2 = heap.snapshot(), heap.snapshot()
    try:
        v1, _ = m.eval(h1, t1, ring.one, fuel, record=False)
        v2, _ = m.eval(h2, t2, ring.one, fuel, record=False)
    except EvalError as e:
        return EquationalReport(False, None, None, [Violation("equational", None, f"evaluation failed: {e}")])
    r1 = readback(h1, v1)
    r2 = readback(h2, v2)
    if readback_eq(r1, r2):
        return EquationalReport(True, r1, r2)
    return EquationalReport(
        False, r1, r2, [Violation("equational", None, f"dereferenced values differ: {r1!r} vs {r2!r}")]
    )


# ---------------------------------------------------------------------------
# Property suites (generated programs, equational laws, algebra laws)


@dataclass
class SuiteResult:
    prop: str
    cases: int
    failures: list[str] = field(default_factory=list)

    def to_json(self) -> dict:
        return {"property": self.prop, "cases": self.cases, "failures": self.failures}


def run_generated_suites(seed: int, cases: int, size: int = 6, mutate_split: bool = False, fuel: int = 10000) -> list[SuiteResult]:
    """Run progress, preservation, borrow safety, and uniqueness over a
    seed-fixed stream of generated programs.

    Grade 1 is always exercised; pure programs under the natural-number
    instances are additionally replayed at grade 2.
    """
    rng = random.Random(seed)
    suites = {
        name: SuiteResult(name, 0)
        for name in ("generator-soundness", "progress", "preservation", "borrow-safety", "uniqueness")
    }
    for i in range(cases):
        prog = generate_program(rng, size if i % 4 else 3)
        suites["generator-soundness"].cases += 1
        try:
            cp = check_program(prog)
        except CheckError as e:
            suites["generator-soundness"].failures.append(f"case {i}: rejected: [{e.kind}] {e.msg}")
            continue
        grades = [cp.ring.one]
        if cp.ring is not INTERVAL and not _uses_resources(cp.main_term):
            grades.append(cp.ring.literal(2))
        for s in grades:
            m = Machine(cp.ring, mutate_split=mutate_split)
            try:
                _, trace = m.eval(Heap(), cp.main_term, s, fuel)
            except EvalError as e:
                suites["progress"].cases += 1
                suites["progress"].failures.append(f"case {i} at grade {s}: {e}")
                continue
            for name in ("progress", "preservation", "borrow-safety", "uniqueness"):
                suites[name].cases += 1
            for v in check_trace(trace, cp.main_type, cp.ring, s):
                suites[v.prop].failures.append(f"case {i} at grade {s}: {v}")
    return list(suites.values())


def _uses_resources(t: Term) -> bool:
    used = constructors_used(t)
    return any(c.startswith("Prim:") for c in used)


def _seeded_array_heap(rng, perm: Fraction) -> tuple[Heap, str]:
    heap = Heap()
    heap.resources["id1"] = ArrRes({k: round(rng.uniform(-4.0, 4.0), 2) for k in range(rng.randrange(0, 4))})
    heap.refs["ref1"] = RefCell(perm, "id1")
    heap.counter = 1
    return heap, "ref1"


def run_equational_suite(seed: int, cases: int, fuel: int = 10000) -> SuiteResult:
    """The borrowing laws: identity, composition, and the split/join
    isomorphism, instantiated over randomly seeded resources."""
    ring = NAT_LEQ
    rng = random.Random(seed)
    result = SuiteResult("equational", 0)

    def write_fn(idx: int, val: float) -> Term:
        return Abs("w", App(App(App(Prim("writeArray"), Var("w")), NatLit(idx)), FloatLit(val)))

    def law(name: str, lhs: Term, rhs: Term, heap) -> None:
        # one case of the law `name`, numbered by the loop's current `i`
        result.cases += 1
        rep = check_equational(lhs, rhs, heap, ring, fuel)
        if not rep.equal:
            result.failures.append(f"case {i}: {name} law: {rep.violations[0] if rep.violations else rep.right}")

    for i in range(cases):
        # law 1: borrowing with the identity is a no-op
        heap, ref = _seeded_array_heap(rng, Fraction(1))
        owner = Uniq(RefVal(ref), STAR)
        law("unit", WithBorrow(Abs("x", Var("x")), owner), owner, heap)

        # law 2: borrowing twice composes
        heap, ref = _seeded_array_heap(rng, Fraction(1))
        owner = Uniq(RefVal(ref), STAR)
        f = write_fn(rng.randrange(0, 3), round(rng.uniform(0, 9), 2))
        g = write_fn(rng.randrange(0, 3), round(rng.uniform(0, 9), 2))
        composed = WithBorrow(Abs("x", App(f, App(g, Var("x")))), owner)
        sequenced = WithBorrow(f, WithBorrow(g, owner))
        law("composition", composed, sequenced, heap)

        # law 3: split then join is the identity (exact, no tolerance)
        frac = Permission(Fraction(1, 2 ** rng.randrange(0, 4)))
        heap, ref = _seeded_array_heap(rng, frac.frac)
        borrow = Uniq(RefVal(ref), frac)
        roundtrip = LetPair("x", "y", Split(borrow), Join(Pair(Var("x"), Var("y"))))
        law("split/join", roundtrip, borrow, heap)

        # law 4: join then split restores the pair
        frac = Permission(Fraction(1, 2 ** rng.randrange(1, 4)))
        heap, _ = _seeded_array_heap(rng, frac.frac)
        heap.refs["ref2"] = RefCell(frac.frac, "id1")
        heap.counter = 2
        u1, u2 = Uniq(RefVal("ref1"), frac), Uniq(RefVal("ref2"), frac)
        law("join/split", Split(Join(Pair(u1, u2))), Pair(u1, u2), heap)
    return result


def run_algebra_suite(seed: int, cases: int) -> SuiteResult:
    """Semiring axioms and monotonicity for every shipped instance, plus the
    exact split/add identity for fractional permissions."""
    rng = random.Random(seed)
    result = SuiteResult("algebra", 0)

    def sample(ring) -> Grade:
        if ring is INTERVAL:
            lo = rng.randrange(0, 12)
            return Grade(ring, (lo, lo + rng.randrange(0, 12)))
        return Grade(ring, rng.randrange(0, 24))

    for i in range(cases):
        for ring in (NAT, NAT_LEQ, INTERVAL):
            a, b, c, d = (sample(ring) for _ in range(4))
            result.cases += 1
            checks = [
                grade_add(a, grade_add(b, c)) == grade_add(grade_add(a, b), c),
                grade_add(a, b) == grade_add(b, a),
                grade_add(a, ring.zero) == a,
                grade_mul(a, ring.one) == a and grade_mul(ring.one, a) == a,
                grade_mul(a, grade_add(b, c)) == grade_add(grade_mul(a, b), grade_mul(a, c)),
                grade_mul(grade_add(b, c), a) == grade_add(grade_mul(b, a), grade_mul(c, a)),
                grade_mul(a, ring.zero) == ring.zero,
                grade_leq(a, a),
            ]
            if not all(checks):
                result.failures.append(f"case {i}: semiring axiom failed in {ring.name}")
            if grade_leq(a, b) and grade_leq(c, d):
                if not (grade_leq(grade_add(a, c), grade_add(b, d)) and grade_leq(grade_mul(a, c), grade_mul(b, d))):
                    result.failures.append(f"case {i}: monotonicity failed in {ring.name}")
            if grade_leq(a, b) and grade_leq(b, c) and not grade_leq(a, c):
                result.failures.append(f"case {i}: transitivity failed in {ring.name}")
        result.cases += 1
        f = Permission(Fraction(rng.randrange(1, 64), 64))
        if perm_add(perm_half(f), perm_half(f)) != f:
            result.failures.append(f"case {i}: half/add identity failed at {f}")
        half = perm_half(f)
        if not (half.frac > 0 and half.frac <= 1):
            result.failures.append(f"case {i}: half out of range at {f}")
    return result


def run_property_suites(
    seed: int, cases: int, size: int = 6, mutate_split: bool = False, fuel: int = 10000
) -> list[SuiteResult]:
    out = run_generated_suites(seed, cases, size, mutate_split, fuel)
    out.append(run_equational_suite(seed, max(cases // 4, 0), fuel))
    out.append(run_algebra_suite(seed, cases))
    return out
